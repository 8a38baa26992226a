"""Payoff-driven task scheduler with an outer DVFS selection loop and a
runtime cold-backup mapper.

At each DVFS level one pass walks tasks in earliest-deadline-first order
and maps each to the node with the best payoff, a normalized slack minus
normalized energy score with an infeasible floor for deadline misses. A
task with no feasible node is deferred and fails the static schedule: lanes
only fill as the pass goes on, so no later placement could meet its
deadline. The outer loop keeps the level with lexicographically least
(deferred count, total energy), and stops a level's pass once it defers
more tasks than a finished level.

Cold backups are a runtime mechanism: when a primary faults, the simulator
hands map_backups a node table over the live lanes, the fault detection
instant and the primary's node to exclude.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .model import (NPE_MAX, DvfsConfig, FaultModel, FogNode, Phase, Schedule,
                    ScheduleEntry, Task)
from .power import active_power


def fresh_lanes(nodes: list[FogNode]) -> dict[int, list[float]]:
    """One ascending slot free-time list (lane) per node id, one slot per
    processor element, all free at 0; a task occupying k elements starts no
    earlier than its lane's k-th smallest time. Node tables hold these very
    lists, so every update is in place: no code may rebind lanes[id]."""
    return {n.id: [0.0] * n.npe_slots for n in nodes}


def occupy(lane: list[float], n: int, t: float, first: int = 0) -> None:
    """Make the n slots of an ascending lane from index `first` free at t.

    One delete and one splice keep the lane ascending, and give the list that
    re-inserting t n times with bisect.insort would: the copies land after
    every slot equal to t.
    """
    del lane[first:first + n]
    i = bisect_right(lane, t)
    lane[i:i] = [t] * n


def release(lane: list[float], npe: int, completion: float, now: float) -> None:
    """Free slots reserved until `completion`, making them free at `now`.

    Best-effort: a marker already absorbed by a later reservation on the
    same lane stays reserved, so capacity is never over-freed. On
    fault-storm's instances at seeds 1-5 (GAP and FCFS, immediate detection)
    71 of 11388 releases freed fewer slots than asked, 293 of 45978 slots.
    """
    first = bisect_left(lane, completion)
    freed = min(npe, bisect_right(lane, completion, first) - first)
    occupy(lane, freed, now, first)


def exec_time(task: Task, node: FogNode, rho: float) -> float:
    """Seconds to run `task` on `node` at DVFS factor rho."""
    return task.length / (node.mips * rho)


def edf_sort(tasks: list[Task]) -> list[Task]:
    """Tasks by nondecreasing deadline, ties by (submit_time, id)."""
    return sorted(tasks, key=lambda t: (t.deadline, t.submit_time, t.id))


def _node_table(nodes: list[FogNode], rho: float, lanes: dict[int, list[float]]):
    """Per-node constants reused across payoff evaluations at one level,
    keyed by task width. The baselines' list schedule places from it too,
    at full speed.

    table[k] lists, in the order of `nodes`, a row (node id, the node's lane
    in `lanes`, mips*rho, mips, p_rho, p_full) for each node with at
    least k slots, for every k from 0 to NPE_MAX or the widest node's slot
    count, whichever is larger. A wider task has no key, so callers look
    rows up with table.get(npe, ()). The rows hold the live lane lists: the
    table follows every occupy and release.
    """
    rows = [(n.npe_slots, (n.id, lanes[n.id], n.mips * rho, n.mips,
                           active_power(n, rho), active_power(n, 1.0)))
            for n in nodes]
    widest = max([NPE_MAX] + [slots for slots, _ in rows])
    return {k: [row for slots, row in rows if slots >= k]
            for k in range(widest + 1)}


def _best_node(task: Task, rows, ready: float):
    """The best-payoff placement of `task` over the rows of a node table
    that have the slots for it (table.get(task.npe, ())), or None.

    The candidate start is the later of `ready` and the node's k-th free
    slot. A node is skipped when it would complete past the deadline; a run
    time that overflows to inf is skipped that way too. The value is
    normalized slack minus the energy of this run normalized by the same
    run at full speed; ties break on lower energy, then on row order.
    Returns (value, energy, node_id, start, ext, lane).
    """
    length = task.length
    deadline = task.deadline
    k = task.npe - 1
    best = None
    for node_id, lane, mips_rho, mips, p_rho, p_full in rows:
        ext = length / mips_rho
        lane_t = lane[k]
        start = lane_t if lane_t > ready else ready
        ct = start + ext
        if ct > deadline:
            continue
        energy = p_rho * ext
        value = (deadline - ct) / deadline - energy / (p_full * (length / mips))
        if best is None or value > best[0] or (value == best[0] and energy < best[1]):
            best = (value, energy, node_id, start, ext, lane)
    return best


def payoff(task: Task, node: FogNode, rho: float, lanes: dict[int, list[float]]) -> float:
    """Payoff of placing `task` on `node` at rho given the current lanes;
    -inf when the placement misses the deadline or the node lacks slots."""
    rows = _node_table([node], rho, lanes).get(task.npe, ())
    best = _best_node(task, rows, task.submit_time)
    return -math.inf if best is None else best[0]


def map_primaries(tasks: list[Task], nodes: list[FogNode], rho: float,
                  lanes: dict[int, list[float]], limit: int | None = None):
    """Map EDF-ordered tasks to their best-payoff nodes at rho, reserving
    each placement's slots in `lanes`.

    Returns (placed, deferred, energy): one (task id, node id, start, exec
    time) tuple per assigned task in processing order, the ids of tasks with
    no feasible node, and the placements' total energy. The node choice ties
    break on lower energy, then on the order of `nodes` (gap_schedule passes
    them by ascending id). With a limit, the pass stops as soon as more than
    `limit` tasks are deferred, and the lists hold the tasks visited so far.
    """
    table = _node_table(nodes, rho, lanes)
    stop = len(tasks) if limit is None else limit
    placed = []
    deferred = []
    energies = []
    for task in tasks:
        best = _best_node(task, table.get(task.npe, ()), task.submit_time)
        if best is None:
            deferred.append(task.id)
            if len(deferred) > stop:
                break
            continue
        _, energy, node_id, start, ext, lane = best
        occupy(lane, task.npe, start + ext)
        placed.append((task.id, node_id, start, ext))
        energies.append(energy)
    return placed, deferred, math.fsum(energies)


def backup_table(nodes: list[FogNode], rho: float, lanes: dict[int, list[float]]):
    """The node table map_backups walks: descending computing power, ties by
    id. Nodes, rho and lanes are fixed for a whole run, so build it once."""
    return _node_table(sorted(nodes, key=lambda n: (-n.mips, n.id)), rho, lanes)


def map_backups(task: Task, table, rho: float, primary_node: int | None,
                now: float) -> ScheduleEntry | None:
    """Map the cold backup of a task whose primary faulted, detected at `now`.

    Candidate nodes come from `backup_table(nodes, rho, lanes)` minus the
    primary's node (when given); a candidate must both meet the deadline and
    finish strictly within the budget left, deadline minus now. Returns the
    backup entry with its slots reserved on the chosen row's lane, or None
    when no node fits.

    The table is cut at the first row whose run takes at least that budget,
    and the scan sees only the rows before the cut. The cut is exact: the
    rows descend in MIPS and fl(mips * rho) and fl(length / x) are
    monotone, so the run time never falls along the rows and no later row
    fits. A run time that overflows to inf never fits. The same argument
    refuses a dispatch outright when the fastest row does not fit, as three
    in four of fault-storm's dispatches do. The primary's node is dropped
    only when it wins the scan, about one scan in nine there: the winner is
    the first row in table order with the best (value, energy), and
    dropping any other row leaves it first.
    """
    rows = table.get(task.npe, ())
    length = task.length
    budget = task.deadline - now
    if not rows or length / rows[0][2] >= budget:  # not even the fastest row fits
        return None
    cut = bisect_left(rows, budget, 1, key=lambda row: length / row[2])
    head = rows[:cut]
    best = _best_node(task, head, now)
    if best is not None and best[2] == primary_node:
        best = _best_node(task, [row for row in head if row[0] != primary_node], now)
    if best is None:
        return None
    _, _, node_id, start, ext, lane = best
    entry = ScheduleEntry.make(task.id, node_id, start, ext, rho, Phase.BACKUP)
    occupy(lane, task.npe, entry.completion)
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

    The levels run by descending rho, so full speed, which usually defers
    least, runs first. Each later pass stops as soon as it defers more tasks
    than the best level finished so far. That is exact: a pass's deferred
    count never falls and the key compares it first, so a stopped level
    could never be chosen, and every level with the fewest deferrals runs
    to the end. The winner is picked among the finished levels in the
    order of dvfs.levels, replacing the incumbent only on a strictly less
    key, as a scan over every level would. A level with more deferrals
    never replaces one with fewer, so the pick is the same even when
    energies do not compare, such as NaN.
    """
    ordered = edf_sort(tasks)
    by_id = sorted(nodes, key=lambda n: n.id)
    levels = dvfs.levels
    finished = {}
    limit = None
    for i in sorted(range(len(levels)), key=lambda i: -levels[i]):
        placed, deferred, energy = map_primaries(ordered, by_id, levels[i],
                                                 fresh_lanes(nodes), limit)
        if limit is None or len(deferred) <= limit:
            finished[i] = ((len(deferred), energy), placed, deferred)
            limit = len(deferred)
    assert finished, "DvfsConfig guarantees at least one level"
    # min replaces its pick only on a strictly less key.
    best = min(sorted(finished), key=lambda i: finished[i][0])
    rho = levels[best]
    _, placed, deferred = finished[best]
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
