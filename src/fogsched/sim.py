"""Deterministic discrete-event engine that executes a schedule against a
fault model, dispatching cold backups at runtime.

Entries run at their planned starts, or at the earliest slot availability
when a runtime backup has disturbed the plan, never before their submit
time. A schedule holds primaries only. Each execution draws a fault with
probability 1 - e^(-lambda(rho) * exec_time); a faulted primary is
re-dispatched through the backup mapper against the live node state, a
faulted backup fails the task. Equal (schedule, instance, sampler seed)
inputs replay to byte-identical traces.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import zip_longest
from typing import NamedTuple

from . import gap
from .model import (FaultModel, Instance, MetricsReport, Phase, Schedule,
                    ScheduleEntry)
from .power import schedule_energy
from .reliability import fault_probability, fault_rate_freq


class EventKind(str, Enum):
    ARRIVAL = "arrival"
    START = "start"
    FAULT = "fault"
    COMPLETION = "completion"
    BACKUP_DISPATCH = "backup_dispatch"


# When a primary fault is noticed; see run().
DETECTION_MODES = ("immediate", "at_completion")

# Tie order for simultaneous events; the event loop dispatches on the rank.
_R_COMPLETION, _R_FAULT, _R_ARRIVAL, _R_START, _R_DISPATCH = range(5)

# Aliases the event loop reads instead of enum class attributes: on CPython
# 3.11 `EventKind.START` takes about 0.15 us, a global load a few ns.
_ARRIVAL, _START, _FAULT, _COMPLETION, _DISPATCH = (
    EventKind.ARRIVAL, EventKind.START, EventKind.FAULT, EventKind.COMPLETION,
    EventKind.BACKUP_DISPATCH)
_BACKUP = Phase.BACKUP


class Event(NamedTuple):
    """One logged event; node_id is None for an arrival and for a backup
    dispatch that found no node."""

    time: float
    kind: EventKind
    task_id: int
    node_id: int | None = None


class TaskStatus(str, Enum):
    COMPLETED = "completed"
    COMPLETED_VIA_BACKUP = "completed_via_backup"
    FAILED = "failed"


@dataclass
class RunTrace:
    """The record of one run: the event log and the segments.

    events is the ordered event log. segments holds the realized execution
    windows, one per COMPLETION or FAULT event and in that order; a faulted
    run's window ends at the fault, so every exec_time is busy time and the
    segments' energies sum to the report total. A run that went as planned
    is its schedule's own (frozen) entry. status and fault_events are views
    of the two, rebuilt from the whole log on each access: read each once.
    """

    events: list[Event] = field(default_factory=list)
    segments: list[ScheduleEntry] = field(default_factory=list)

    @property
    def status(self) -> dict[int, TaskStatus]:
        """Each arrived task's terminal status: completed via backup when it
        has a fault and a completion event, completed when it has a
        completion alone, failed otherwise."""
        completed = {e.task_id for e in self.events if e.kind is _COMPLETION}
        faulted = {e.task_id for e in self.events if e.kind is _FAULT}
        return {e.task_id: TaskStatus.FAILED if e.task_id not in completed
                else TaskStatus.COMPLETED_VIA_BACKUP if e.task_id in faulted
                else TaskStatus.COMPLETED for e in self.events if e.kind is _ARRIVAL}

    @property
    def fault_events(self) -> list[ScheduleEntry]:
        """The segment of each faulted run, in log order; its exec_time is
        the run time until the fault."""
        return [s for e, s in self._windows() if e and s and e.kind is _FAULT]

    def _windows(self):
        """(k-th COMPLETION or FAULT event, segments[k]) pairs, None where a side ends."""
        return zip_longest((e for e in self.events
                            if e.kind is _COMPLETION or e.kind is _FAULT), self.segments)


def run(schedule: Schedule, instance: Instance, fm: FaultModel,
        sampler, detection: str = "immediate") -> tuple[RunTrace, MetricsReport]:
    """Execute a schedule under fault injection; returns (trace, report).

    detection selects when a primary fault is noticed: "immediate" frees the
    node and dispatches the backup at the fault instant; "at_completion"
    holds the slot and dispatches at the primary's planned completion.
    Task ids must be unique. A schedule must name only the instance's tasks
    and nodes, list each task at most once, as an entry or as failed, and
    hold primaries only: backups are dispatched when a primary faults.

    The arrivals and planned starts are sorted once, before the loop; only
    the events the run creates (completions, faults, dispatches, re-queued
    and backup starts) go through a heap. The backup table is built at the
    first dispatch, so a run without one never builds it.
    """
    if detection not in DETECTION_MODES:
        raise ValueError(f"unknown detection mode {detection!r}")
    tasks_by_id = {t.id: t for t in instance.tasks}
    if len(tasks_by_id) < len(instance.tasks):
        raise ValueError("instance lists a task id more than once")
    node_ids = {n.id for n in instance.nodes}
    scheduled: set[int] = set()
    for e in schedule.entries:
        if e.task_id not in tasks_by_id:
            raise ValueError(f"schedule references unknown task id {e.task_id}")
        if e.node_id not in node_ids:
            raise ValueError(f"schedule references unknown node id {e.node_id}")
        if e.task_id in scheduled:
            raise ValueError(f"schedule lists task {e.task_id} in more than one entry")
        if e.phase is _BACKUP:
            raise ValueError(f"schedule lists a backup of task {e.task_id}; backups "
                             "are dispatched when a primary faults")
        scheduled.add(e.task_id)
    for tid in schedule.failed:
        if tid not in tasks_by_id:
            raise ValueError(f"schedule references unknown task id {tid}")
        if tid in scheduled:
            raise ValueError(f"schedule lists task {tid} both in an entry and as failed")

    trace = RunTrace()
    lanes = gap.fresh_lanes(instance.nodes)
    rho = schedule.selected_rho
    backup_table = None  # built at the first dispatch; most runs never dispatch
    lam = fault_rate_freq(fm, rho)

    # Every key is (time, rank, task id, payload). While a run goes, a task
    # has at most one pending key of each rank: one arrival; its planned
    # start until that start is taken (a re-queue pushes it again only after
    # popping it); one completion or fault per execution; one dispatch per
    # primary fault; and a backup start, which exists only after that
    # dispatch. Task ids and entries are unique (checked above), so (time,
    # rank, task id) never ties, in the heap or against the planned list:
    # the payload is never compared (a tie of two arrivals or two starts
    # would raise TypeError, not order them silently), and the input order
    # of tasks and entries does not matter. A START's payload is its entry,
    # a COMPLETION's (entry, start), a FAULT's (entry, start, elapsed) and a
    # DISPATCH's the faulted primary's node. Each step takes the smaller of
    # the planned list's head and the heap top: the order one heap would pop.
    planned = [(t.submit_time, _R_ARRIVAL, t.id, None) for t in instance.tasks]
    planned += [(e.start, _R_START, e.task_id, e) for e in schedule.entries]
    planned.sort()
    n_planned = len(planned)
    next_planned = 0
    heap: list = []

    # The loop runs once per event: everything it calls is bound here once.
    heappush, heappop = heapq.heappush, heapq.heappop
    new_event = tuple.__new__
    log = trace.events.append
    add_segment = trace.segments.append
    occupy, release = gap.occupy, gap.release
    sample = sampler.sample
    map_backups = gap.map_backups  # looked up per run, so a wrapper applies
    immediate = detection == "immediate"

    while heap or next_planned < n_planned:
        if heap and (next_planned == n_planned or heap[0] < planned[next_planned]):
            now, rank, tid, payload = heappop(heap)
        else:
            now, rank, tid, payload = planned[next_planned]
            next_planned += 1
        if rank == _R_START:
            entry = payload
            task = tasks_by_id[tid]
            node_id = entry.node_id
            exec_time = entry.exec_time
            if entry.phase is not _BACKUP:  # a backup holds its slots from dispatch
                lane = lanes[node_id]
                npe = task.npe
                if npe > len(lane):  # the task fails: it never starts
                    continue
                start = now
                avail = lane[npe - 1]
                if avail > start:
                    start = avail
                if task.submit_time > start:
                    start = task.submit_time
                if start > now:
                    heappush(heap, (start, _R_START, tid, entry))
                    continue
                occupy(lane, npe, now + exec_time)
            log(new_event(Event, (now, _START, tid, node_id)))
            occurred, frac = sample(fault_probability(lam, exec_time))
            if occurred:
                elapsed = frac * exec_time
                heappush(heap, (now + elapsed, _R_FAULT, tid, (entry, now, elapsed)))
            else:
                heappush(heap, (now + exec_time, _R_COMPLETION, tid, (entry, now)))
        elif rank == _R_COMPLETION:
            entry, started = payload
            log(new_event(Event, (now, _COMPLETION, tid, entry.node_id)))
            if started == entry.start and now == entry.completion:
                add_segment(entry)  # ran as planned: the entry is its segment
            else:
                add_segment(ScheduleEntry(tid, entry.node_id, started, entry.exec_time,
                                          now, entry.rho, entry.phase))
        elif rank == _R_ARRIVAL:
            log(new_event(Event, (now, _ARRIVAL, tid, None)))
        elif rank == _R_FAULT:
            entry, started, elapsed = payload
            node_id = entry.node_id
            log(new_event(Event, (now, _FAULT, tid, node_id)))
            add_segment(ScheduleEntry(tid, node_id, started, elapsed, now,
                                      entry.rho, entry.phase))
            end = started + entry.exec_time  # the execution's planned end
            if immediate:
                release(lanes[node_id], tasks_by_id[tid].npe, end, now)
                dispatch_at = now
            else:
                dispatch_at = end
            if entry.phase is not _BACKUP:  # a backup's fault ends the task
                heappush(heap, (dispatch_at, _R_DISPATCH, tid, node_id))
        else:  # _R_DISPATCH; the payload is the faulted primary's node
            if backup_table is None:
                backup_table = gap.backup_table(instance.nodes, rho, lanes)
            backup = map_backups(tasks_by_id[tid], backup_table, rho, payload, now)
            log(new_event(Event, (now, _DISPATCH, tid,
                                  None if backup is None else backup.node_id)))
            if backup is not None:
                heappush(heap, (backup.start, _R_START, tid, backup))

    return trace, report(schedule, trace, instance)


def report(schedule: Schedule, trace: RunTrace, instance: Instance) -> MetricsReport:
    """Aggregate a finished run into a metrics report.

    A task's completion time is its completion event and its wait runs from
    submission to its first start event. Mean completion and wait run over
    completed tasks and are None when none completed. cb counts the tasks
    that never completed; cp is the schedule's.
    """
    nodes_by_id = {n.id: n for n in instance.nodes}
    tasks_by_id = {t.id: t for t in instance.tasks}
    total_energy = schedule_energy(nodes_by_id, trace.segments)
    first_start: dict[int, float] = {}
    completion: dict[int, float] = {}
    for time, kind, tid, _ in trace.events:
        if kind is _START:
            first_start.setdefault(tid, time)
        elif kind is _COMPLETION:
            completion[tid] = time
    n_done = len(completion)
    if n_done:
        act = math.fsum(completion.values()) / n_done
        awt = math.fsum(first_start[t] - tasks_by_id[t].submit_time
                        for t in completion) / n_done
        makespan = max(completion.values()) - min(t.submit_time for t in instance.tasks)
    else:
        act = awt = None
        makespan = 0.0
    avg_power = total_energy / makespan if makespan > 0 else 0.0
    missed = sum(1 for t, c in completion.items() if c > tasks_by_id[t].deadline)
    n_total = len(instance.tasks)
    return MetricsReport(
        total_energy=total_energy,
        avg_completion=act,
        avg_wait=awt,
        avg_power=avg_power,
        cp=schedule.cp,
        cb=n_total - n_done,
        missed_deadlines=missed,
        reliability_estimate=n_done / n_total if n_total else 1.0,
    )


def check_capacity(trace: RunTrace, instance: Instance) -> list[str]:
    """Audit the event log: concurrent npe on a node must fit its slots.

    A segment holds its node's slots over [start, completion). The load is
    checked at every segment start by one sweep over the node's start and
    end points. A segment of a task or on a node the instance lacks is a
    violation too. Returns a list of violation descriptions (empty when
    clean).
    """
    tasks_by_id = {t.id: t for t in instance.tasks}
    segments: dict[int, list[ScheduleEntry]] = {n.id: [] for n in instance.nodes}
    problems = []
    for s in trace.segments:
        if s.task_id not in tasks_by_id:
            problems.append(f"segment at t={s.start} of unknown task {s.task_id}")
        elif s.node_id not in segments:
            problems.append(f"task {s.task_id} at t={s.start} on unknown node {s.node_id}")
        else:
            segments[s.node_id].append(s)
    for node in instance.nodes:
        starts = set()
        delta: dict[float, int] = {}
        for s in segments[node.id]:
            npe = tasks_by_id[s.task_id].npe
            starts.add(s.start)
            if s.start < s.completion:
                delta[s.start] = delta.get(s.start, 0) + npe
                delta[s.completion] = delta.get(s.completion, 0) - npe
        load = 0
        for p in sorted(starts | delta.keys()):
            load += delta.get(p, 0)
            if p in starts and load > node.npe_slots:
                problems.append(
                    f"node {node.id} at t={p}: npe load {load} > {node.npe_slots}")
    return problems


def audit(schedule: Schedule, trace: RunTrace, instance: Instance,
          report: MetricsReport) -> list[str]:
    """The invariants of a finished run: node capacity, no backup on its primary's
    node, every rho in (0, 1], segment energies equal to total_energy, and a log in
    which event times never decrease, every task arrives before it starts, every
    backup dispatch follows a fault of its task, the segments are the windows of the
    completion and fault events in order, and no task completes twice, completes
    after two faults or faults three times. Returns violation descriptions naming
    the task or node (empty when clean). A segment on an unknown node or at a bad
    rho is reported, not priced."""
    problems = check_capacity(trace, instance)
    primary_node = {e.task_id: e.node_id for e in schedule.entries
                    if e.phase is Phase.PRIMARY}
    nodes_by_id = {n.id: n for n in instance.nodes}
    priced = []
    for s in trace.segments:
        if s.phase is _BACKUP and primary_node.get(s.task_id) == s.node_id:
            problems.append(f"backup of task {s.task_id} at t={s.start} "
                            f"on its primary's node {s.node_id}")
        if not 0.0 < s.rho <= 1.0:
            problems.append(f"task {s.task_id} at t={s.start} runs at rho {s.rho!r} "
                            "outside (0, 1]")
        elif s.node_id in nodes_by_id:
            priced.append(s)
    energy = schedule_energy(nodes_by_id, priced)
    if energy != report.total_energy:
        problems.append(f"segment energies sum to {energy!r}, "
                        f"total_energy is {report.total_energy!r}")

    arrived: set[int] = set()
    done: Counter[int] = Counter()
    faults: Counter[int] = Counter()
    last = -math.inf
    for k, e in enumerate(trace.events):
        tid = e.task_id
        if e.time < last:
            problems.append(f"event {k} of task {tid} at t={e.time} "
                            f"follows an event at t={last}")
        last = e.time
        if e.kind is _ARRIVAL:
            arrived.add(tid)
        elif e.kind is _START and tid not in arrived:
            problems.append(f"task {tid} starts at t={e.time} before its arrival")
        elif e.kind is _DISPATCH and not faults[tid]:
            problems.append(f"backup dispatch of task {tid} at t={e.time} follows no fault")
        elif e.kind is _COMPLETION:
            # A backup's fault ends the task: it completes at most once, and
            # only with at most one fault before.
            if done[tid] or faults[tid] > 1:
                problems.append(f"task {tid} completes at t={e.time} after "
                                f"{done[tid]} completion(s) and {faults[tid]} fault(s)")
            done[tid] += 1
        elif e.kind is _FAULT:
            faults[tid] += 1
    problems += [f"task {t.id} never arrives" for t in instance.tasks if t.id not in arrived]
    problems += [f"task {tid} faulted {n} times" for tid, n in faults.items() if n > 2]
    for k, (e, s) in enumerate(trace._windows()):
        if e is None or s is None or (e.task_id, e.node_id, e.time) != (
                s.task_id, s.node_id, s.completion):
            problems.append(f"segment {k} is not the window of the log's completion "
                            f"or fault event {k}: {s} against {e}")
            break  # every later pair is shifted too
    return problems


def write_trace(trace: RunTrace, path: str) -> None:
    """Line-delimited event log: time, kind, task id, node id ('-' if none)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# time\tkind\ttask\tnode\n")
        for ev in trace.events:
            node = "-" if ev.node_id is None else str(ev.node_id)
            fh.write(f"{ev.time!r}\t{ev.kind.value}\t{ev.task_id}\t{node}\n")
