"""Deterministic fog task-scheduling testbed.

A payoff-driven DVFS scheduler with cold primary/backup recovery, reference
schedulers, a discrete-event simulator with seeded fault injection, random
workload generation, a brute-force oracle, and an experiment CLI.
"""

__version__ = "0.1.0"
