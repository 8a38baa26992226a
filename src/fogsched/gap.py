"""Payoff-driven two-phase task scheduler with an outer DVFS selection loop.

Phase 1 walks tasks in earliest-deadline-first order and maps each to the
node with the best payoff, a normalized slack minus normalized energy score
with an infeasible floor for deadline misses. Tasks with no feasible node
are deferred to phase 2, which maps them as backups, preferring nodes with
greater computing power and honouring each task's remaining time budget.
The outer loop repeats both phases per DVFS level and keeps the candidate
with lexicographically least (failed count, deferred count, total energy).

The same phase-2 mapper doubles as the runtime backup dispatcher: the
simulator hands it a live node state, a ready time (the fault detection
instant) and the primary's node to exclude.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field

from .model import (DvfsConfig, FaultModel, FogNode, Phase, Schedule,
                    ScheduleEntry, Task)
from .power import active_power, schedule_energy


@dataclass(frozen=True)
class GapConfig:
    """Weights of the payoff components (slack minus energy by default)."""

    slack_weight: float = 1.0
    energy_weight: float = 1.0


@dataclass
class GapState:
    """Mutable working state shared by both mapping phases.

    node_free holds one ascending next-free-time list per node, one slot per
    processor element; a task occupying k elements starts no earlier than the
    k-th smallest slot time. remaining maps task id to the time budget left
    for a backup run; ready maps task id to its earliest allowed start
    (submit time, or the fault detection instant for runtime backups).
    """

    backup_queue: list[Task] = field(default_factory=list)
    remaining: dict[int, float] = field(default_factory=dict)
    ready: dict[int, float] = field(default_factory=dict)
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


def _best_node(task: Task, table, state: GapState, config: GapConfig,
               exclude: int | None = None, budget: float = math.inf):
    """The best-payoff placement of `task` over a node table, or None.

    The candidate start is the later of the task's ready time and the node's
    k-th free slot. A node is skipped when it is `exclude`, lacks the slots,
    would need at least `budget` seconds, or would complete past the
    deadline. The value is weighted normalized slack minus the energy of
    this run normalized by the same run at full speed; ties break on lower
    energy, then on table order. Returns (value, energy, node_id, start, ext).
    """
    length = task.length
    deadline = task.deadline
    npe = task.npe
    ready = state.ready.get(task.id, task.submit_time)
    w_s, w_e = config.slack_weight, config.energy_weight
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
        value = w_s * ((deadline - ct) / deadline) \
            - w_e * (energy / (p_full * (length / mips)))
        if best is None or value > best[0] or (value == best[0] and energy < best[1]):
            best = (value, energy, node_id, start, ext)
    return best


def payoff(task: Task, node: FogNode, rho: float, state: GapState,
           config: GapConfig = GapConfig()) -> float:
    """Payoff of placing `task` on `node` at rho given the current state;
    -inf when the placement misses the deadline or the node lacks slots."""
    best = _best_node(task, _node_table([node], rho), state, config)
    return -math.inf if best is None else best[0]


def _place(sched: Schedule, state: GapState, task: Task, best, rho: float,
           phase: Phase) -> ScheduleEntry:
    _, _, node_id, start, ext = best
    entry = ScheduleEntry.make(task.id, node_id, start, ext, rho, phase)
    sched.entries.append(entry)
    sched.assignment[task.id] = node_id
    state.occupy(node_id, task.npe, entry.completion)
    return entry


def map_primaries(tasks: list[Task], nodes: list[FogNode], rho: float,
                  state: GapState, config: GapConfig = GapConfig()) -> Schedule:
    """Phase 1: map EDF-ordered tasks to their best-payoff nodes.

    Tasks with no feasible node join state.backup_queue (deferred to phase 2)
    and raise cp. Assigned tasks get their slot reserved and their remaining
    backup budget recorded as deadline minus planned completion; deferred
    tasks keep their full submit-to-deadline window. The node choice ties
    break on lower energy, then lower node id.
    """
    sched = Schedule(selected_rho=rho)
    table = _node_table(sorted(nodes, key=lambda n: n.id), rho)
    for task in tasks:
        best = _best_node(task, table, state, config)
        if best is None:
            state.backup_queue.append(task)
            state.remaining[task.id] = task.deadline - task.submit_time
            sched.backup_list.append(task.id)
            continue
        entry = _place(sched, state, task, best, rho, Phase.PRIMARY)
        state.remaining[task.id] = task.deadline - entry.completion
    return sched


def map_backups(backup_queue: list[Task], nodes: list[FogNode], rho: float,
                state: GapState, primary_assignment: dict[int, int],
                config: GapConfig = GapConfig()) -> Schedule:
    """Phase 2: map deferred or faulted tasks as backups.

    The queue is processed in ascending remaining-budget order. Candidate
    nodes exclude the task's primary node (when one exists) and are walked in
    descending computing power; a candidate must both meet the deadline and
    finish within the remaining budget. Unplaceable tasks land in failed and
    raise cb.
    """
    sched = Schedule(selected_rho=rho)
    queue = sorted(backup_queue,
                   key=lambda t: (state.remaining.get(t.id, t.deadline - t.submit_time), t.id))
    table = _node_table(sorted(nodes, key=lambda n: (-n.mips, n.id)), rho)
    for task in queue:
        budget = state.remaining.get(task.id, task.deadline - task.submit_time)
        best = _best_node(task, table, state, config,
                          primary_assignment.get(task.id), budget)
        if best is None:
            sched.failed.append(task.id)
            continue
        _place(sched, state, task, best, rho, Phase.BACKUP)
    return sched


def gap_schedule(tasks: list[Task], nodes: list[FogNode], dvfs: DvfsConfig,
                 fault_model: FaultModel | None = None,
                 config: GapConfig = GapConfig()) -> Schedule:
    """Build one candidate per DVFS level and keep the best.

    Candidates are compared by (failed count, deferred count, total energy);
    full ties keep the lowest level. fault_model is accepted for interface
    symmetry with the simulator but plays no role in the static decision.
    """
    ordered = edf_sort(tasks)
    nodes_by_id = {n.id: n for n in nodes}
    best_sched: Schedule | None = None
    best_key = (math.inf, math.inf, math.inf)
    for rho in dvfs.levels:
        state = GapState.fresh(nodes)
        part1 = map_primaries(ordered, nodes, rho, state, config)
        part2 = map_backups(state.backup_queue, nodes, rho, state, part1.assignment, config)
        sched = Schedule(
            entries=part1.entries + part2.entries,
            assignment={**part1.assignment, **part2.assignment},
            selected_rho=rho,
            backup_list=part1.backup_list,
            failed=part2.failed,
        )
        key = (len(sched.failed), sched.cp, schedule_energy(nodes_by_id, sched.entries))
        if key < best_key:
            best_key = key
            best_sched = sched
    assert best_sched is not None, "DvfsConfig guarantees at least one level"
    return best_sched


def wgap_schedule(tasks: list[Task], nodes: list[FogNode],
                  fault_model: FaultModel | None = None,
                  config: GapConfig = GapConfig()) -> Schedule:
    """The scheduler without DVFS: the single full-speed level."""
    return gap_schedule(tasks, nodes, DvfsConfig([1.0]), fault_model, config)
