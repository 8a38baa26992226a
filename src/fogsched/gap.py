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
from .power import active_power


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
    slot. A node is skipped when it is `exclude`, lacks the slots, or would
    complete past the deadline. The value is normalized slack minus the
    energy of this run normalized by the same run at full speed; ties break
    on lower energy, then on table order. Returns (value, energy, node_id,
    start, ext).

    A finite `budget` needs a table in descending MIPS order (backup_table):
    the scan stops at the first node whose run would take at least `budget`
    seconds. That is exact, because fl(mips * rho) and fl(length / x) are
    monotone, so ext never falls along the table and no later node fits.
    With the default infinite budget only a run time that overflows to inf
    fails that test; such a node is skipped and the scan goes on.
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
            if budget == math.inf:  # ext overflowed; the table may be unordered
                continue
            break
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


def map_primaries(tasks: list[Task], nodes: list[FogNode], rho: float,
                  state: GapState):
    """Map EDF-ordered tasks to their best-payoff nodes at rho, reserving
    each placement's slots in `state`.

    Returns (placed, deferred, energy): one (task id, node id, start, exec
    time) tuple per assigned task in processing order, the ids of tasks with
    no feasible node, and the placements' total energy. The node choice ties
    break on lower energy, then on the order of `nodes` (gap_schedule passes
    them by ascending id).
    """
    table = _node_table(nodes, rho)
    placed = []
    deferred = []
    energies = []
    for task in tasks:
        best = _best_node(task, table, state, task.submit_time)
        if best is None:
            deferred.append(task.id)
            continue
        _, energy, node_id, start, ext = best
        state.occupy(node_id, task.npe, start + ext)
        placed.append((task.id, node_id, start, ext))
        energies.append(energy)
    return placed, deferred, math.fsum(energies)


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
    if best is None:
        return None
    _, _, node_id, start, ext = best
    entry = ScheduleEntry.make(task.id, node_id, start, ext, rho, Phase.BACKUP)
    state.occupy(node_id, task.npe, entry.completion)
    return entry


def gap_schedule(tasks: list[Task], nodes: list[FogNode], dvfs: DvfsConfig,
                 fault_model: FaultModel | None = None) -> Schedule:
    """Build one candidate per DVFS level and keep the best.

    Candidates are compared by (deferred count, total energy); full ties
    keep the lowest level. Only the winner's placements become
    ScheduleEntry records. Deferred tasks fail, listed by ascending
    submit-to-deadline window, then id. fault_model is accepted for
    interface symmetry with the simulator but plays no role in the static
    decision.
    """
    ordered = edf_sort(tasks)
    by_id = sorted(nodes, key=lambda n: n.id)
    best = None
    for rho in dvfs.levels:
        placed, deferred, energy = map_primaries(ordered, by_id, rho,
                                                 GapState.fresh(nodes))
        key = (len(deferred), energy)
        if best is None or key < best[0]:
            best = (key, rho, placed, deferred)
    assert best is not None, "DvfsConfig guarantees at least one level"
    _, rho, placed, deferred = best
    window = {t.id: (t.deadline - t.submit_time, t.id) for t in tasks}
    return Schedule(
        entries=[ScheduleEntry.make(tid, node_id, start, ext, rho)
                 for tid, node_id, start, ext in placed],
        backup_list=deferred,
        failed=sorted(deferred, key=window.__getitem__),
        selected_rho=rho)


def wgap_schedule(tasks: list[Task], nodes: list[FogNode],
                  fault_model: FaultModel | None = None) -> Schedule:
    """The scheduler without DVFS: the single full-speed level."""
    return gap_schedule(tasks, nodes, DvfsConfig((1.0,)), fault_model)
