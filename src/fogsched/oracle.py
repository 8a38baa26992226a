"""Exhaustive reference for small instances.

Searches every (task-to-node assignment, DVFS level) combination, places
each node's tasks in earliest-deadline-first order under GAP's slot rule
(gap.occupy), and keeps the cheapest deadline-feasible candidate. A plan
holds primaries only: backups are dispatched at runtime. Per-node EDF
sequencing is exact for energy (which is order-independent) and optimal for
single-resource deadline feasibility, so full permutation enumeration is
unnecessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gap import edf_sort, exec_time, occupy
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


def exhaustive(tasks: list[Task], nodes: list[FogNode], dvfs: DvfsConfig) -> OracleResult:
    """Search all assignments and levels for the minimum-energy feasible plan.

    Each level is one depth-first search that places the tasks in EDF
    order, tries the nodes in id order at each depth, and reserves slots
    with gap.occupy on a copy of the node's lane. A node that lacks the
    slots, or on which the task would finish past its deadline, is skipped
    with every extension of the prefix: lanes only fill as the search goes
    deeper, so each of those candidates misses too. Ties keep the first
    candidate in (ascending level, lexicographic assignment in task-id
    order) order. Guarded against searches beyond 1e7 candidates.
    """
    n, m = len(tasks), len(nodes)
    space = (m ** n) * len(dvfs.levels)
    if space > ENUMERATION_LIMIT:
        raise ValueError(
            f"search space {space} exceeds the {ENUMERATION_LIMIT} candidate guard")
    result = OracleResult(enumerated=space)
    ordered = sorted(nodes, key=lambda nd: nd.id)
    task_ids = sorted(t.id for t in tasks)
    position = {tid: k for k, tid in enumerate(task_ids)}
    combo = [0] * n    # combo[k]: the node index of the k-th task in id order
    terms = [0.0] * n  # the energy of the task placed at each depth
    # The best leaf as (energy, level index, combo): levels go in order, so
    # the first leaf in (level, combo) order among the cheapest wins.
    best = (math.inf, -1, None)
    for level, rho in enumerate(dvfs.levels):
        rows = [(position[t.id], t.npe, t.submit_time, t.deadline,
                 [(j, exec_time(t, nd, rho), active_power(nd, rho))
                  for j, nd in enumerate(ordered) if t.npe <= nd.npe_slots])
                for t in edf_sort(tasks)]
        lanes = [[0.0] * nd.npe_slots for nd in ordered]
        # The path lives in lists, not on the call stack, so one node may take
        # more tasks than Python's recursion limit. Per depth: the option
        # placed, and (node index, that node's lane before it).
        tried, undo = [-1] * n, [None] * n
        depth = 0
        while depth >= 0:  # each pass extends the path or backs up one depth
            if depth == n:
                result.feasible_count += 1
                if (leaf := (math.fsum(terms), level, combo)) < best:
                    best = (leaf[0], level, combo[:])
                depth -= 1
                continue
            if undo[depth] is not None:  # take back this depth's last placement
                j, lane = undo[depth]
                lanes[j] = lane
            k, npe, submit, deadline, options = rows[depth]
            for i in range(tried[depth] + 1, len(options)):
                j, ext, power = options[i]
                lane = lanes[j]
                avail = lane[npe - 1]
                completion = (avail if avail > submit else submit) + ext
                if not completion > deadline:  # GAP's skip test, NaN included
                    break
            else:  # no node left for this depth's task
                tried[depth], undo[depth] = -1, None
                depth -= 1
                continue
            tried[depth], undo[depth] = i, (j, lane)
            lanes[j] = placed = lane[:]
            occupy(placed, npe, completion)
            combo[k] = j
            terms[depth] = power * ext
            depth += 1
    best_energy, best_level, best_combo = best
    if best_combo is not None:
        result.best_energy, result.best_rho = best_energy, dvfs.levels[best_level]
        result.best_assignment = {tid: ordered[j].id for tid, j in zip(task_ids, best_combo)}
    return result
