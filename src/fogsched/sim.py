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

# Tie order for simultaneous events.
_RANK = {EventKind.COMPLETION: 0, EventKind.FAULT: 1, EventKind.ARRIVAL: 2,
         EventKind.START: 3, EventKind.BACKUP_DISPATCH: 4}


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
    """Ordered event log plus per-task outcomes of one run.

    segments holds the realized execution windows (including the truncated
    window of a faulted run) with exec_time equal to actual busy time, so
    re-summing their energies reproduces the report total. waits holds each
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
    """
    if detection not in DETECTION_MODES:
        raise ValueError(f"unknown detection mode {detection!r}")
    tasks_by_id = {t.id: t for t in instance.tasks}
    node_ids = {n.id for n in instance.nodes}
    for e in schedule.entries:
        if e.task_id not in tasks_by_id:
            raise ValueError(f"schedule references unknown task id {e.task_id}")
        if e.node_id not in node_ids:
            raise ValueError(f"schedule references unknown node id {e.node_id}")
    for tid in schedule.failed:
        if tid not in tasks_by_id:
            raise ValueError(f"schedule references unknown task id {tid}")

    trace = RunTrace(cp=schedule.cp)
    state = gap.GapState.fresh(instance.nodes)
    lanes = state.node_free
    rho = schedule.selected_rho
    backup_table = gap.backup_table(instance.nodes, rho)
    lam = fault_rate_freq(fm, rho)

    for tid in schedule.failed:
        trace.status[tid] = TaskStatus.FAILED
    covered = set(schedule.failed) | {e.task_id for e in schedule.entries}
    for t in instance.tasks:
        if t.id not in covered:
            trace.status[t.id] = TaskStatus.FAILED  # never scheduled

    faulted: set[int] = set()
    # Every heap key carries a unique seq, so heapifying the initial events
    # pops them in the same order as pushing them one by one.
    initial = chain(
        ((t.submit_time, EventKind.ARRIVAL, t.id, ())
         for t in sorted(instance.tasks, key=lambda x: x.id)),
        ((e.start, EventKind.START, e.task_id, (e, False))
         for e in sorted(schedule.entries, key=lambda x: (x.start, x.task_id))))
    heap = [(time, _RANK[kind], task_id, seq, (kind, payload))
            for seq, (time, kind, task_id, payload) in enumerate(initial)]
    heapq.heapify(heap)
    seq = len(heap)

    def push(time: float, kind: EventKind, task_id: int, payload: tuple = ()) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, _RANK[kind], task_id, seq, (kind, payload)))
        seq += 1

    def begin_execution(now: float, entry: ScheduleEntry) -> None:
        """Common path once a task holds its slots from `now`: draw the
        fault and enqueue the matching completion or fault event."""
        trace.events.append(Event(now, EventKind.START, entry.task_id, entry.node_id))
        if entry.task_id not in trace.waits:
            trace.waits[entry.task_id] = now - tasks_by_id[entry.task_id].submit_time
        completion = now + entry.exec_time
        p = fault_probability(lam, entry.exec_time)
        occurred, frac = sampler.sample(p)
        if occurred:
            elapsed = frac * entry.exec_time
            push(now + elapsed, EventKind.FAULT, entry.task_id,
                 (entry, now, completion, elapsed))
        else:
            push(completion, EventKind.COMPLETION, entry.task_id, (entry, now, completion))

    while heap:
        now, _, tid, _, (kind, payload) = heapq.heappop(heap)
        if kind is EventKind.ARRIVAL:
            trace.events.append(Event(now, EventKind.ARRIVAL, tid))
        elif kind is EventKind.START:
            entry, reserved = payload
            task = tasks_by_id[tid]
            if reserved:
                # Runtime backup: slots were taken at dispatch time.
                begin_execution(now, entry)
                continue
            lane = lanes[entry.node_id]
            if task.npe > len(lane):
                trace.status[tid] = TaskStatus.FAILED
                continue
            avail = lane[task.npe - 1]
            start = max(now, avail, task.submit_time)
            if start > now:
                push(start, EventKind.START, tid, (entry, False))
                continue
            state.occupy(entry.node_id, task.npe, now + entry.exec_time)
            begin_execution(now, entry)
        elif kind is EventKind.COMPLETION:
            entry, started, completion = payload
            trace.events.append(Event(now, EventKind.COMPLETION, tid, entry.node_id))
            trace.segments.append(ScheduleEntry(tid, entry.node_id, started,
                                                entry.exec_time, completion,
                                                entry.rho, entry.phase))
            trace.completion[tid] = completion
            trace.status[tid] = (TaskStatus.COMPLETED_VIA_BACKUP if tid in faulted
                                 else TaskStatus.COMPLETED)
        elif kind is EventKind.FAULT:
            entry, started, planned_completion, elapsed = payload
            task = tasks_by_id[tid]
            trace.events.append(Event(now, EventKind.FAULT, tid, entry.node_id))
            trace.fault_events.append(FaultEvent(tid, entry.node_id, elapsed))
            faulted.add(tid)
            trace.segments.append(ScheduleEntry(tid, entry.node_id, started,
                                                elapsed, now, entry.rho, entry.phase))
            if detection == "immediate":
                state.release(entry.node_id, task.npe, planned_completion, now)
                dispatch_at = now
            else:
                dispatch_at = planned_completion
            if entry.phase is Phase.BACKUP:
                trace.status[tid] = TaskStatus.FAILED
            else:
                push(dispatch_at, EventKind.BACKUP_DISPATCH, tid, (entry.node_id,))
        elif kind is EventKind.BACKUP_DISPATCH:
            (primary_node,) = payload
            backup = gap.map_backups(tasks_by_id[tid], backup_table, rho, state,
                                     primary_node, now)
            if backup is None:
                trace.events.append(Event(now, EventKind.BACKUP_DISPATCH, tid))
                trace.status[tid] = TaskStatus.FAILED
                continue
            trace.events.append(Event(now, EventKind.BACKUP_DISPATCH, tid,
                                      backup.node_id))
            push(backup.start, EventKind.START, tid, (backup, True))

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
