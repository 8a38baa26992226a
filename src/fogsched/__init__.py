"""Deterministic fog task-scheduling testbed.

A payoff-driven DVFS scheduler with cold primary/backup recovery, reference
schedulers, a discrete-event simulator with seeded fault injection, random
workload generation, a brute-force oracle, and an experiment CLI.
"""

from .model import (DvfsConfig, FaultEvent, FaultModel, FogNode, Instance,
                    InvalidInstanceError, MetricsReport, Phase, Role, Schedule,
                    ScheduleEntry, Task, Violation, check_instance,
                    dumps_instance, load_instance, save_instance,
                    validate_instance)
from .power import dynamic_power, entry_energy, scaled_vf, schedule_energy
from .reliability import (FaultSampler, cpb_exec_time, fault_probability,
                          fault_rate_freq, fault_rate_volt, reliability)
from .gap import (GapState, backup_table, edf_sort, exec_time, gap_schedule,
                  map_backups, map_primaries, payoff, wgap_schedule)
from .baselines import (PsoConfig, fcfs_schedule, pso_schedule, rr_schedule,
                        sjf_schedule)
from .sim import (Event, EventKind, RunTrace, TaskStatus, check_capacity,
                  report, run, write_trace)
from .workload import (DEFAULT_DVFS, DEFAULT_FAULT_MODEL, WorkloadSpec,
                       generate, paper_sweep)
from .oracle import OracleResult, exhaustive

__version__ = "0.1.0"
