"""A plain, slow simulator that the differential property in test_sim.py
runs sim.run against (McKeeman, "Differential testing for software",
Digital Technical Journal 10(1), 1998).

It is the event loop as it stood before its hot path was tuned: one heap of
every key, each key made unique by a sequence number; the backup table
built before the first event; and a backup scan that walks every capable
node fastest first, testing the primary's node and the time left on each
row. It shares only the helpers that have their own tests: gap.occupy,
gap.release, the fault sampler and the fault probability. Nothing under
src/ imports it.
"""

import heapq
import itertools

from fogsched.gap import occupy, release
from fogsched.model import Phase, ScheduleEntry
from fogsched.power import active_power
from fogsched.reliability import fault_probability, fault_rate_freq
from fogsched.sim import Event, EventKind, RunTrace

# Tie order for simultaneous events.
COMPLETION, FAULT, ARRIVAL, START, DISPATCH = range(5)


def backup_rows(nodes, rho, lanes):
    """One row (node id, lane, slots, mips*rho, mips, p_rho, p_full) per node,
    by descending MIPS, ties by id."""
    return [(n.id, lanes[n.id], n.npe_slots, n.mips * rho, n.mips,
             active_power(n, rho), active_power(n, 1.0))
            for n in sorted(nodes, key=lambda n: (-n.mips, n.id))]


def map_backup(task, rows, rho, exclude, now):
    """The backup of a task whose primary on node `exclude` faulted, detected
    at `now`: the best-payoff row that has the slots, is not `exclude`,
    finishes strictly within the time left and by the deadline. Ties break
    on lower energy, then row order. Reserves its slots; None if no row fits."""
    best = None
    for node_id, lane, slots, mips_rho, mips, p_rho, p_full in rows:
        if node_id == exclude or task.npe > slots:
            continue
        ext = task.length / mips_rho
        if ext >= task.deadline - now:
            continue
        lane_t = lane[task.npe - 1]
        start = lane_t if lane_t > now else now
        ct = start + ext
        if ct > task.deadline:
            continue
        energy = p_rho * ext
        value = ((task.deadline - ct) / task.deadline
                 - energy / (p_full * (task.length / mips)))
        if best is None or value > best[0] or (value == best[0] and energy < best[1]):
            best = (value, energy, node_id, start, ext, lane)
    if best is None:
        return None
    _, _, node_id, start, ext, lane = best
    entry = ScheduleEntry.make(task.id, node_id, start, ext, rho, Phase.BACKUP)
    occupy(lane, task.npe, entry.completion)
    return entry


def run(schedule, instance, fm, sampler, detection="immediate"):
    """The trace of sim.run(schedule, instance, fm, sampler, detection), for
    a schedule that sim.run accepts."""
    tasks = {t.id: t for t in instance.tasks}
    lanes = {n.id: [0.0] * n.npe_slots for n in instance.nodes}
    rho = schedule.selected_rho
    rows = backup_rows(instance.nodes, rho, lanes)
    lam = fault_rate_freq(fm, rho)
    trace = RunTrace()
    heap = []
    seq = itertools.count()

    def push(time, rank, tid, payload):
        heapq.heappush(heap, (time, rank, tid, next(seq), payload))

    for t in instance.tasks:
        push(t.submit_time, ARRIVAL, t.id, None)
    for e in schedule.entries:
        push(e.start, START, e.task_id, (e, False))

    while heap:
        now, rank, tid, _, payload = heapq.heappop(heap)
        task = tasks[tid]
        if rank == ARRIVAL:
            trace.events.append(Event(now, EventKind.ARRIVAL, tid, None))
        elif rank == START:
            entry, reserved = payload
            if not reserved:  # a runtime backup holds its slots from dispatch
                lane = lanes[entry.node_id]
                if task.npe > len(lane):
                    continue
                start = max(now, lane[task.npe - 1], task.submit_time)
                if start > now:
                    push(start, START, tid, payload)
                    continue
                occupy(lane, task.npe, now + entry.exec_time)
            trace.events.append(Event(now, EventKind.START, tid, entry.node_id))
            completion = now + entry.exec_time
            occurred, frac = sampler.sample(fault_probability(lam, entry.exec_time))
            if occurred:
                elapsed = frac * entry.exec_time
                push(now + elapsed, FAULT, tid, (entry, now, completion, elapsed))
            else:
                push(completion, COMPLETION, tid, (entry, now, completion))
        elif rank == COMPLETION:
            entry, started, completion = payload
            trace.events.append(Event(now, EventKind.COMPLETION, tid, entry.node_id))
            trace.segments.append(ScheduleEntry(tid, entry.node_id, started,
                                                entry.exec_time, completion,
                                                entry.rho, entry.phase))
        elif rank == FAULT:
            entry, started, completion, elapsed = payload
            trace.events.append(Event(now, EventKind.FAULT, tid, entry.node_id))
            trace.segments.append(ScheduleEntry(tid, entry.node_id, started, elapsed,
                                                now, entry.rho, entry.phase))
            if detection == "immediate":
                release(lanes[entry.node_id], task.npe, completion, now)
                dispatch_at = now
            else:
                dispatch_at = completion
            if entry.phase is Phase.PRIMARY:  # a backup's fault ends the task
                push(dispatch_at, DISPATCH, tid, entry.node_id)
        else:
            backup = map_backup(task, rows, rho, payload, now)
            trace.events.append(Event(now, EventKind.BACKUP_DISPATCH, tid,
                                      None if backup is None else backup.node_id))
            if backup is not None:
                push(backup.start, START, tid, (backup, True))
    return trace
