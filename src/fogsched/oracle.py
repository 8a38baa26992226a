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

from .gap import edf_sort
from .model import DvfsConfig, FogNode, Task
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


def _level_rows(tasks: list[Task], nodes: list[FogNode], levels):
    """The search's per-level constants, one list of rows per level.

    A row holds one task in EDF order as (k, task id, npe, submit time,
    deadline, exec times): k is the task's position in id order, which
    indexes a candidate, and the exec times run over `nodes` at the level.
    """
    position = {t.id: k for k, t in enumerate(sorted(tasks, key=lambda t: t.id))}
    edf = [(position[t.id], t) for t in edf_sort(tasks)]
    return [[(k, t.id, t.npe, t.submit_time, t.deadline,
              [t.length / (nd.mips * rho) for nd in nodes]) for k, t in edf]
            for rho in levels]


def _place_candidate(rows, slots: list[int], combo):
    """Place one candidate in EDF order under the shared slot model.

    combo[k] is the index, in `slots`, of the node the k-th task in id order
    runs on. Returns one (task id, node index, start, exec time) tuple per
    task in EDF order, or None when a task lacks slots or misses its
    deadline.
    """
    lanes = [[0.0] * n for n in slots]
    placed = []
    for k, task_id, npe, submit, deadline, exts in rows:
        j = combo[k]
        if npe > slots[j]:
            return None
        lane = lanes[j]
        avail = lane[npe - 1]
        start = avail if avail > submit else submit
        ext = exts[j]
        completion = start + ext
        if completion > deadline:
            return None
        placed.append((task_id, j, start, ext))
        del lane[:npe]
        lane.extend([completion] * npe)
        lane.sort()
    return placed


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
    task_ids = sorted(t.id for t in tasks)
    ordered = sorted(nodes, key=lambda nd: nd.id)
    slots = [nd.npe_slots for nd in ordered]
    for rho, rows in zip(dvfs.levels, _level_rows(tasks, ordered, dvfs.levels)):
        powers = [active_power(nd, rho) for nd in ordered]
        for combo in product(range(m), repeat=n):
            placed = _place_candidate(rows, slots, combo)
            if placed is None:
                continue
            result.feasible_count += 1
            energy = math.fsum([powers[j] * ext for _, j, _, ext in placed])
            if energy < result.best_energy:
                result.best_energy = energy
                result.best_assignment = {tid: ordered[j].id
                                          for tid, j in zip(task_ids, combo)}
                result.best_rho = rho
    return result
