"""Exhaustive reference for small instances.

Enumerates every (task-to-node assignment, DVFS level) combination, places
each node's tasks in earliest-deadline-first order under the shared slot
model, and keeps the cheapest deadline-feasible candidate. Per-node EDF
sequencing is exact for energy (which is order-independent) and optimal for
single-resource deadline feasibility, so full permutation enumeration is
unnecessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .model import DvfsConfig, FogNode, Phase, ScheduleEntry, Task
from .power import active_power

ENUMERATION_LIMIT = 10_000_000


@dataclass
class OracleResult:
    """best_energy is +inf when no candidate meets every deadline."""

    best_energy: float = math.inf
    best_assignment: dict[int, int] = field(default_factory=dict)
    best_rho: float | None = None
    feasible_count: int = 0
    enumerated: int = 0

    @property
    def feasible(self) -> bool:
        return self.feasible_count > 0


def _place_candidate(tasks: list[Task], nodes: list[FogNode],
                     assignment: dict[int, int], rho: float
                     ) -> tuple[list[ScheduleEntry], bool]:
    """Place one candidate; returns (entries, deadline_feasible)."""
    lanes = {n.id: [0.0] * n.npe_slots for n in nodes}
    slots = {n.id: n.npe_slots for n in nodes}
    mips = {n.id: n.mips for n in nodes}
    entries = []
    for task in sorted(tasks, key=lambda t: (t.deadline, t.submit_time, t.id)):
        node_id = assignment[task.id]
        if task.npe > slots[node_id]:
            return entries, False
        lane = lanes[node_id]
        avail = lane[task.npe - 1]
        start = avail if avail > task.submit_time else task.submit_time
        ext = task.length / (mips[node_id] * rho)
        completion = start + ext
        if completion > task.deadline:
            return entries, False
        entries.append(ScheduleEntry(task.id, node_id, start, ext, completion,
                                     rho, Phase.PRIMARY))
        del lane[:task.npe]
        lane.extend([completion] * task.npe)
        lane.sort()
    return entries, True


def exhaustive(tasks: list[Task], nodes: list[FogNode], dvfs: DvfsConfig) -> OracleResult:
    """Search all assignments and levels for the minimum-energy feasible plan.

    Ties keep the first candidate in (ascending level, lexicographic
    assignment) order. Guarded against searches beyond 1e7 candidates.
    """
    n, m = len(tasks), len(nodes)
    space = (m ** n) * len(dvfs.levels)
    if space > ENUMERATION_LIMIT:
        raise ValueError(
            f"search space {space} exceeds the {ENUMERATION_LIMIT} candidate guard")
    result = OracleResult(enumerated=space)
    ordered = sorted(tasks, key=lambda t: t.id)
    node_ids = [nd.id for nd in sorted(nodes, key=lambda nd: nd.id)]
    for rho in dvfs.levels:
        powers = {nd.id: active_power(nd, rho) for nd in nodes}
        for combo in product(node_ids, repeat=n):
            assignment = {t.id: node_id for t, node_id in zip(ordered, combo)}
            entries, ok = _place_candidate(tasks, nodes, assignment, rho)
            if not ok:
                continue
            result.feasible_count += 1
            energy = math.fsum(powers[e.node_id] * e.exec_time for e in entries)
            if energy < result.best_energy:
                result.best_energy = energy
                result.best_assignment = assignment
                result.best_rho = rho
    return result
