"""Payoff-driven task scheduler with an outer DVFS selection loop and a
runtime cold-backup mapper.

At each DVFS level one pass walks tasks in earliest-deadline-first order
and maps each to the node with the best payoff, a normalized slack minus
normalized energy score with an infeasible floor for deadline misses. A
task with no feasible node is deferred and fails the static schedule: lanes
only fill as the pass goes on, so no later placement could meet its
deadline. The outer loop keeps the level with lexicographically least
(deferred count, total energy).

Cold backups are a runtime mechanism: when a primary faults, the simulator
hands map_backups the live node state, the fault detection instant and the
primary's node to exclude.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field

from .model import (DvfsConfig, FaultModel, FogNode, Phase, Schedule,
                    ScheduleEntry, Task)
from .power import active_power, schedule_energy


@dataclass
class GapState:
    """Per-node slot lanes shared by the mapper and the simulator.

    node_free holds one ascending next-free-time list per node, one slot per
    processor element; a task occupying k elements starts no earlier than the
    k-th smallest slot time.
    """

    node_free: dict[int, list[float]] = field(default_factory=dict)

    @classmethod
    def fresh(cls, nodes: list[FogNode]) -> "GapState":
        return cls(node_free={n.id: [0.0] * n.npe_slots for n in nodes})

    def occupy(self, node_id: int, npe: int, completion: float) -> None:
        lanes = self.node_free[node_id]
        del lanes[:npe]
        for _ in range(npe):
            insort(lanes, completion)

    def release(self, node_id: int, npe: int, completion: float, now: float) -> None:
        """Free slots reserved until `completion`, making them free at `now`.

        Best-effort: a marker already absorbed by a later reservation on the
        same lane stays reserved, so capacity is never over-freed.
        """
        lanes = self.node_free[node_id]
        freed = 0
        for _ in range(npe):
            try:
                lanes.remove(completion)
            except ValueError:
                break
            freed += 1
        for _ in range(freed):
            insort(lanes, now)


def exec_time(task: Task, node: FogNode, rho: float) -> float:
    """Seconds to run `task` on `node` at DVFS factor rho."""
    return task.length / (node.mips * rho)


def edf_sort(tasks: list[Task]) -> list[Task]:
    """Tasks by nondecreasing deadline, ties by (submit_time, id)."""
    return sorted(tasks, key=lambda t: (t.deadline, t.submit_time, t.id))


def _node_table(nodes: list[FogNode], rho: float):
    """Per-node constants reused across payoff evaluations at one level."""
    return [
        (n.id, n.npe_slots, n.mips * rho, n.mips,
         active_power(n, rho), active_power(n, 1.0))
        for n in nodes
    ]


def _best_node(task: Task, table, state: GapState, ready: float,
               exclude: int | None = None, budget: float = math.inf):
    """The best-payoff placement of `task` over a node table, or None.

    The candidate start is the later of `ready` and the node's k-th free
    slot. A node is skipped when it is `exclude`, lacks the slots, would
    need at least `budget` seconds, or would complete past the deadline.
    The value is normalized slack minus the energy of this run normalized
    by the same run at full speed; ties break on lower energy, then on
    table order. Returns (value, energy, node_id, start, ext).
    """
    length = task.length
    deadline = task.deadline
    npe = task.npe
    node_free = state.node_free
    best = None
    for node_id, slots, mips_rho, mips, p_rho, p_full in table:
        if node_id == exclude or npe > slots:
            continue
        ext = length / mips_rho
        if ext >= budget:  # strict fit inside the remaining budget
            continue
        lane_t = node_free[node_id][npe - 1]
        start = lane_t if lane_t > ready else ready
        ct = start + ext
        if ct > deadline:
            continue
        energy = p_rho * ext
        value = (deadline - ct) / deadline - energy / (p_full * (length / mips))
        if best is None or value > best[0] or (value == best[0] and energy < best[1]):
            best = (value, energy, node_id, start, ext)
    return best


def payoff(task: Task, node: FogNode, rho: float, state: GapState) -> float:
    """Payoff of placing `task` on `node` at rho given the current state;
    -inf when the placement misses the deadline or the node lacks slots."""
    best = _best_node(task, _node_table([node], rho), state, task.submit_time)
    return -math.inf if best is None else best[0]


def _place(state: GapState, task: Task, best, rho: float,
           phase: Phase) -> ScheduleEntry:
    _, _, node_id, start, ext = best
    entry = ScheduleEntry.make(task.id, node_id, start, ext, rho, phase)
    state.occupy(node_id, task.npe, entry.completion)
    return entry


def map_primaries(tasks: list[Task], nodes: list[FogNode], rho: float,
                  state: GapState) -> Schedule:
    """Map EDF-ordered tasks to their best-payoff nodes.

    Tasks with no feasible node join backup_list (deferred) and raise cp;
    assigned tasks get their slots reserved. The node choice ties break on
    lower energy, then lower node id.
    """
    sched = Schedule(selected_rho=rho)
    table = _node_table(sorted(nodes, key=lambda n: n.id), rho)
    for task in tasks:
        best = _best_node(task, table, state, task.submit_time)
        if best is None:
            sched.backup_list.append(task.id)
        else:
            sched.entries.append(_place(state, task, best, rho, Phase.PRIMARY))
    return sched


def backup_table(nodes: list[FogNode], rho: float):
    """The node table map_backups walks: descending computing power, ties by
    id. Nodes and rho are fixed for a whole run, so build it once."""
    return _node_table(sorted(nodes, key=lambda n: (-n.mips, n.id)), rho)


def map_backups(task: Task, table, rho: float, state: GapState,
                primary_node: int | None, now: float) -> ScheduleEntry | None:
    """Map the cold backup of a task whose primary faulted, detected at `now`.

    Candidate nodes come from `backup_table(nodes, rho)` minus the primary's
    node (when given); a candidate must both meet the deadline and finish
    strictly within the budget left, deadline minus now. Returns the backup
    entry with its slots reserved in `state`, or None when no node fits.
    """
    best = _best_node(task, table, state, now, primary_node, task.deadline - now)
    return None if best is None else _place(state, task, best, rho, Phase.BACKUP)


def gap_schedule(tasks: list[Task], nodes: list[FogNode], dvfs: DvfsConfig,
                 fault_model: FaultModel | None = None) -> Schedule:
    """Build one candidate per DVFS level and keep the best.

    Candidates are compared by (deferred count, total energy); full ties
    keep the lowest level. Deferred tasks fail, listed by ascending
    submit-to-deadline window, then id. fault_model is accepted for
    interface symmetry with the simulator but plays no role in the static
    decision.
    """
    ordered = edf_sort(tasks)
    window = {t.id: (t.deadline - t.submit_time, t.id) for t in tasks}
    nodes_by_id = {n.id: n for n in nodes}
    best_sched: Schedule | None = None
    best_key = (math.inf, math.inf)
    for rho in dvfs.levels:
        sched = map_primaries(ordered, nodes, rho, GapState.fresh(nodes))
        sched.failed = sorted(sched.backup_list, key=window.__getitem__)
        key = (sched.cp, schedule_energy(nodes_by_id, sched.entries))
        if key < best_key:
            best_key = key
            best_sched = sched
    assert best_sched is not None, "DvfsConfig guarantees at least one level"
    return best_sched


def wgap_schedule(tasks: list[Task], nodes: list[FogNode],
                  fault_model: FaultModel | None = None) -> Schedule:
    """The scheduler without DVFS: the single full-speed level."""
    return gap_schedule(tasks, nodes, DvfsConfig((1.0,)), fault_model)
