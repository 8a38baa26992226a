"""Deterministic discrete-event engine that executes a schedule against a
fault model, dispatching cold backups at runtime.

Entries run at their planned starts, or at the earliest slot availability
when a runtime backup has disturbed the plan, never before their submit
time. Each execution draws a fault with probability 1 - e^(-lambda(rho) *
exec_time); a faulted primary is re-dispatched through the backup mapper
against the live node state, a faulted backup (runtime or planned) fails
the task. Equal (schedule, instance, sampler seed) inputs replay to
byte-identical traces.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import NamedTuple

from . import gap
from .model import (FaultEvent, FaultModel, Instance, MetricsReport, Phase,
                    Schedule, ScheduleEntry)
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
_RANK = {EventKind.COMPLETION: 0, EventKind.FAULT: 1, EventKind.ARRIVAL: 2,
         EventKind.START: 3, EventKind.BACKUP_DISPATCH: 4}

# Aliases the event loop reads instead of enum class attributes: on CPython
# 3.11 `EventKind.START` takes about 0.15 us, a global load a few ns.
_ARRIVAL, _START, _FAULT, _COMPLETION, _DISPATCH = (
    EventKind.ARRIVAL, EventKind.START, EventKind.FAULT, EventKind.COMPLETION,
    EventKind.BACKUP_DISPATCH)
_R_ARRIVAL, _R_START, _R_FAULT, _R_COMPLETION, _R_DISPATCH = (
    _RANK[k] for k in (_ARRIVAL, _START, _FAULT, _COMPLETION, _DISPATCH))
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


_COMPLETED, _VIA_BACKUP, _FAILED = (
    TaskStatus.COMPLETED, TaskStatus.COMPLETED_VIA_BACKUP, TaskStatus.FAILED)


@dataclass
class RunTrace:
    """Ordered event log plus per-task outcomes of one run.

    segments holds the realized execution windows (including the truncated
    window of a faulted run) with exec_time equal to actual busy time, so
    re-summing their energies reproduces the report total; a run that went
    as planned is its schedule's own (frozen) entry. waits holds each
    started task's time from submission to its first start.
    """

    events: list[Event] = field(default_factory=list)
    status: dict[int, TaskStatus] = field(default_factory=dict)
    fault_events: list[FaultEvent] = field(default_factory=list)
    segments: list[ScheduleEntry] = field(default_factory=list)
    waits: dict[int, float] = field(default_factory=dict)
    completion: dict[int, float] = field(default_factory=dict)
    cp: int = 0


def run(schedule: Schedule, instance: Instance, fm: FaultModel,
        sampler, detection: str = "immediate") -> tuple[RunTrace, MetricsReport]:
    """Execute a schedule under fault injection; returns (trace, report).

    detection selects when a primary fault is noticed: "immediate" frees the
    node and dispatches the backup at the fault instant; "at_completion"
    holds the slot and dispatches at the primary's planned completion.
    A schedule must name only the instance's tasks and nodes and list each
    task at most once, as one entry or as failed.
    """
    if detection not in DETECTION_MODES:
        raise ValueError(f"unknown detection mode {detection!r}")
    tasks_by_id = {t.id: t for t in instance.tasks}
    node_ids = {n.id for n in instance.nodes}
    scheduled: set[int] = set()
    for e in schedule.entries:
        if e.task_id not in tasks_by_id:
            raise ValueError(f"schedule references unknown task id {e.task_id}")
        if e.node_id not in node_ids:
            raise ValueError(f"schedule references unknown node id {e.node_id}")
        if e.task_id in scheduled:
            raise ValueError(f"schedule lists task {e.task_id} in more than one entry")
        scheduled.add(e.task_id)
    for tid in schedule.failed:
        if tid not in tasks_by_id:
            raise ValueError(f"schedule references unknown task id {tid}")
        if tid in scheduled:
            raise ValueError(f"schedule lists task {tid} both in an entry and as failed")

    trace = RunTrace(cp=schedule.cp)
    state = gap.GapState.fresh(instance.nodes)
    lanes = state.node_free
    rho = schedule.selected_rho
    backup_table = gap.backup_table(instance.nodes, rho)
    lam = fault_rate_freq(fm, rho)

    status = trace.status
    for tid in schedule.failed:
        status[tid] = TaskStatus.FAILED
    for t in instance.tasks:
        if t.id not in scheduled:
            status[t.id] = TaskStatus.FAILED  # failed or never scheduled

    # Every heap key is (time, rank, task id, seq, payload) with a unique
    # seq, so heapifying the initial events pops them in the same order as
    # pushing them one by one, and the payload is never compared.
    initial = chain(
        ((t.submit_time, _R_ARRIVAL, t.id, ())
         for t in sorted(instance.tasks, key=lambda x: x.id)),
        ((e.start, _R_START, e.task_id, (e, False))
         for e in sorted(schedule.entries, key=lambda x: (x.start, x.task_id))))
    heap = [(time, rank, task_id, seq, payload)
            for seq, (time, rank, task_id, payload) in enumerate(initial)]
    heapq.heapify(heap)
    seq = len(heap)

    # The loop runs once per event: everything it calls is bound here once.
    heappush, heappop = heapq.heappush, heapq.heappop
    new_event = tuple.__new__
    log = trace.events.append
    add_segment = trace.segments.append
    add_fault = trace.fault_events.append
    waits, completions = trace.waits, trace.completion
    occupy, release = state.occupy, state.release
    sample = sampler.sample
    map_backups = gap.map_backups  # looked up per run, so a wrapper applies
    immediate = detection == "immediate"
    faulted: set[int] = set()

    while heap:
        now, rank, tid, _, payload = heappop(heap)
        if rank == _R_START:
            entry, reserved = payload
            task = tasks_by_id[tid]
            node_id = entry.node_id
            exec_time = entry.exec_time
            if not reserved:  # a runtime backup holds its slots from dispatch
                lane = lanes[node_id]
                npe = task.npe
                if npe > len(lane):
                    status[tid] = _FAILED
                    continue
                start = now
                avail = lane[npe - 1]
                if avail > start:
                    start = avail
                if task.submit_time > start:
                    start = task.submit_time
                if start > now:
                    heappush(heap, (start, _R_START, tid, seq, payload))
                    seq += 1
                    continue
                occupy(node_id, npe, now + exec_time)
            log(new_event(Event, (now, _START, tid, node_id)))
            if tid not in waits:
                waits[tid] = now - task.submit_time
            completion = now + exec_time
            occurred, frac = sample(fault_probability(lam, exec_time))
            if occurred:
                elapsed = frac * exec_time
                heappush(heap, (now + elapsed, _R_FAULT, tid, seq,
                                (entry, now, completion, elapsed)))
            else:
                heappush(heap, (completion, _R_COMPLETION, tid, seq,
                                (entry, now, completion)))
            seq += 1
        elif rank == _R_COMPLETION:
            entry, started, completion = payload
            log(new_event(Event, (now, _COMPLETION, tid, entry.node_id)))
            if started == entry.start and completion == entry.completion:
                add_segment(entry)  # ran as planned: the entry is its segment
            else:
                add_segment(ScheduleEntry(tid, entry.node_id, started,
                                          entry.exec_time, completion,
                                          entry.rho, entry.phase))
            completions[tid] = completion
            status[tid] = _VIA_BACKUP if tid in faulted else _COMPLETED
        elif rank == _R_ARRIVAL:
            log(new_event(Event, (now, _ARRIVAL, tid, None)))
        elif rank == _R_FAULT:
            entry, started, planned_completion, elapsed = payload
            node_id = entry.node_id
            log(new_event(Event, (now, _FAULT, tid, node_id)))
            add_fault(FaultEvent(tid, node_id, elapsed))
            faulted.add(tid)
            add_segment(ScheduleEntry(tid, node_id, started, elapsed, now,
                                      entry.rho, entry.phase))
            if immediate:
                release(node_id, tasks_by_id[tid].npe, planned_completion, now)
                dispatch_at = now
            else:
                dispatch_at = planned_completion
            if entry.phase is _BACKUP:
                status[tid] = _FAILED
            else:
                heappush(heap, (dispatch_at, _R_DISPATCH, tid, seq, node_id))
                seq += 1
        else:  # _R_DISPATCH; the payload is the faulted primary's node
            backup = map_backups(tasks_by_id[tid], backup_table, rho, state,
                                 payload, now)
            if backup is None:
                log(new_event(Event, (now, _DISPATCH, tid, None)))
                status[tid] = _FAILED
                continue
            log(new_event(Event, (now, _DISPATCH, tid, backup.node_id)))
            heappush(heap, (backup.start, _R_START, tid, seq, (backup, True)))
            seq += 1

    return trace, report(trace, instance)


def report(trace: RunTrace, instance: Instance) -> MetricsReport:
    """Aggregate a finished trace into a metrics report.

    Mean completion and wait run over executed tasks and are None when no
    task executed. cb counts the tasks that end FAILED.
    """
    nodes_by_id = {n.id: n for n in instance.nodes}
    tasks_by_id = {t.id: t for t in instance.tasks}
    total_energy = schedule_energy(nodes_by_id, trace.segments)
    done = sorted(tid for tid, st in trace.status.items()
                  if st is not TaskStatus.FAILED and tid in trace.completion)
    if done:
        act = math.fsum(trace.completion[t] for t in done) / len(done)
        awt = math.fsum(trace.waits[t] for t in done) / len(done)
    else:
        act = awt = None
    makespan = 0.0
    if done and instance.tasks:
        makespan = max(trace.completion[t] for t in done) \
            - min(t.submit_time for t in instance.tasks)
    avg_power = total_energy / makespan if makespan > 0 else 0.0
    missed = sum(1 for t in done if trace.completion[t] > tasks_by_id[t].deadline)
    n_total = len(instance.tasks)
    n_failed = sum(1 for st in trace.status.values() if st is TaskStatus.FAILED)
    reliability = 1.0 if n_total == 0 else (n_total - n_failed) / n_total
    return MetricsReport(
        total_energy=total_energy,
        avg_completion=act,
        avg_wait=awt,
        avg_power=avg_power,
        cp=trace.cp,
        cb=n_failed,
        missed_deadlines=missed,
        reliability_estimate=reliability,
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


def write_trace(trace: RunTrace, path: str) -> None:
    """Line-delimited event log: time, kind, task id, node id ('-' if none)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# time\tkind\ttask\tnode\n")
        for ev in trace.events:
            node = "-" if ev.node_id is None else str(ev.node_id)
            fh.write(f"{ev.time!r}\t{ev.kind.value}\t{ev.task_id}\t{node}\n")
