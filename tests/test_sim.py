import dataclasses
import hashlib
import random
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_node, make_task
from fogsched.baselines import PsoConfig, fcfs_schedule, pso_schedule, rr_schedule
from fogsched.gap import gap_schedule, wgap_schedule
from fogsched.model import (DvfsConfig, FaultModel, Instance, Phase, Schedule,
                            ScheduleEntry)
from fogsched.power import schedule_energy
from fogsched.reliability import FaultSampler
from fogsched.sim import (DETECTION_MODES, EventKind, RunTrace, TaskStatus,
                          check_capacity, report, run, write_trace)
from fogsched.workload import WorkloadSpec, generate

REL = 1e-9

NO_FAULTS = FaultModel(lambda0=0.0, d=3.0, f_min=0.5)
HOT = FaultModel(lambda0=1e-3, d=3.0, f_min=0.5)


def simple_instance(tasks, nodes, fm=NO_FAULTS):
    return Instance(tasks, nodes, DvfsConfig((0.6, 0.8, 1.0)), fm)


def test_single_task_completion_matches_plan():
    task = make_task(length=1000, deadline=5.0)
    node = make_node()
    inst = simple_instance([task], [node])
    sched = wgap_schedule([task], [node])
    trace, rep = run(sched, inst, NO_FAULTS, FaultSampler(1))
    assert trace.status[1] is TaskStatus.COMPLETED
    assert trace.completion[1] == pytest.approx(1.0, rel=REL)
    assert rep.avg_completion == pytest.approx(1.0, rel=REL)
    assert rep.avg_wait == 0.0
    assert rep.missed_deadlines == 0


def test_zero_fault_rate_means_no_backups():
    # Generously slack instance: everything is schedulable, so with a zero
    # fault rate every task must complete on its primary.
    inst = generate(WorkloadSpec(n_tasks=30, n_vms=10,
                                 slack_factor_range=(4.0, 8.0), seed=1),
                    fault_model=NO_FAULTS)
    sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    trace, rep = run(sched, inst, NO_FAULTS, FaultSampler(2))
    assert not trace.fault_events
    assert all(st is TaskStatus.COMPLETED for st in trace.status.values())
    assert rep.reliability_estimate == 1.0


def test_fault_free_run_reproduces_planned_completions():
    inst = generate(WorkloadSpec(n_tasks=40, n_vms=6, seed=7,
                                 submit_mode="uniform", submit_horizon=4.0),
                    fault_model=NO_FAULTS)
    sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    trace, _ = run(sched, inst, NO_FAULTS, FaultSampler(3))
    planned = {e.task_id: e.completion for e in sched.entries}
    for tid, ct in planned.items():
        assert trace.completion[tid] == ct  # bit-exact


def test_replay_is_byte_identical(tmp_path):
    inst = generate(WorkloadSpec(n_tasks=30, n_vms=4, seed=9,
                                 submit_mode="uniform", submit_horizon=2.0),
                    fault_model=HOT)
    sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    paths = []
    for i in range(2):
        trace, rep = run(sched, inst, HOT, FaultSampler(77))
        p = tmp_path / f"trace{i}.tsv"
        write_trace(trace, str(p))
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


# Fixed sha256 prefixes of the bytes write_trace writes for one faulted
# instance, per detection mode. A change to the event type or to the event
# queue must reproduce them.
TRACE_GOLDEN = {"immediate": "5431661416c99b6e", "at_completion": "6474685f875f9a1b"}


@pytest.mark.parametrize("detection", sorted(TRACE_GOLDEN))
def test_trace_file_matches_golden_digest(tmp_path, detection):
    storm = FaultModel(lambda0=0.5, d=3.0, f_min=0.5)
    inst = generate(WorkloadSpec(n_tasks=40, n_vms=4, seed=21, submit_mode="uniform",
                                 submit_horizon=2.0), fault_model=storm)
    sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    trace, _ = run(sched, inst, storm, FaultSampler("trace-golden"), detection)
    path = tmp_path / "trace.tsv"
    write_trace(trace, str(path))
    data = path.read_bytes()
    assert b"\tfault\t" in data and b"\tbackup_dispatch\t" in data
    assert hashlib.sha256(data).hexdigest()[:16] == TRACE_GOLDEN[detection]


def _storm_instance(lambda0, n_tasks, seed):
    """A generated multi-slot instance whose runtime backups take slots the
    plan gave to later entries, so planned starts slip."""
    fm = FaultModel(lambda0=lambda0, d=3.0, f_min=0.5)
    return generate(WorkloadSpec(n_tasks=n_tasks, n_vms=4, npe_range=(1, 4),
                                 submit_mode="uniform", submit_horizon=2.0,
                                 slack_factor_range=(1.5, 6.0), seed=seed),
                    fault_model=fm)


def _too_few_slots_case():
    """Hand schedule: task 2's planned start lands on a 1-slot node although
    it needs 2 elements, task 3 is planned before its submission, and task 4
    is planned while task 1 still holds node 1."""
    tasks = [make_task(id=1, deadline=9.0), make_task(id=2, npe=2, deadline=9.0),
             make_task(id=3, deadline=9.0, submit_time=0.5),
             make_task(id=4, deadline=9.0)]
    nodes = [make_node(id=1, npe_slots=1), make_node(id=2, npe_slots=2)]
    inst = simple_instance(tasks, nodes, FaultModel(lambda0=0.5, d=3.0, f_min=0.5))
    sched = Schedule(entries=[ScheduleEntry.make(1, 1, 0.0, 1.0, 1.0),
                              ScheduleEntry.make(2, 1, 0.0, 1.0, 1.0),
                              ScheduleEntry.make(3, 2, 0.0, 1.0, 1.0),
                              ScheduleEntry.make(4, 1, 0.5, 1.0, 1.0)])
    return inst, sched


def _scheduled(algorithm, lambda0, n_tasks, seed):
    inst = _storm_instance(lambda0, n_tasks, seed)
    if algorithm == "pso":
        sched = pso_schedule(inst.tasks, inst.nodes,
                             PsoConfig(swarm_size=8, iterations=10), seed=seed)
    else:
        sched = {"fcfs": fcfs_schedule, "rr": rr_schedule}[algorithm](
            inst.tasks, inst.nodes)
    return inst, sched


# Fixed digests of sim.run on non-GAP schedules under both detection modes:
# events, statuses, full segments, waits, completions, fault events and the
# report. Recorded before the event loop was rewritten; a change to the loop
# must reproduce them bit for bit.
SIM_GOLDEN = [
    ("fcfs-0.5", lambda: _scheduled("fcfs", 0.5, 40, 1), "6d06bb362fe9b220"),
    ("fcfs-2", lambda: _scheduled("fcfs", 2.0, 40, 2), "ed5ff0a48b09ed0b"),
    ("rr-0.5", lambda: _scheduled("rr", 0.5, 40, 3), "ae8751e43d978627"),
    ("rr-2", lambda: _scheduled("rr", 2.0, 40, 4), "3ab2afe04f7b0bb7"),
    ("pso-0.5", lambda: _scheduled("pso", 0.5, 20, 5), "644c16783d4c6a3b"),
    ("pso-2", lambda: _scheduled("pso", 2.0, 20, 6), "d7e8a625681b74b6"),
    ("too-few-slots", _too_few_slots_case, "7a7be96a86c067e6"),
]


def _sim_key(trace, rep):
    return ([(e.time, e.kind.value, e.task_id, e.node_id) for e in trace.events],
            sorted((t, s.value) for t, s in trace.status.items()),
            [(s.task_id, s.node_id, s.start, s.exec_time, s.completion, s.rho,
              s.phase.value) for s in trace.segments],
            sorted(trace.waits.items()), sorted(trace.completion.items()),
            [(f.task_id, f.node_id, f.elapsed) for f in trace.fault_events],
            dataclasses.astuple(rep))


@pytest.mark.parametrize("name,build,digest", SIM_GOLDEN,
                         ids=[case[0] for case in SIM_GOLDEN])
def test_sim_matches_golden_digest(name, build, digest):
    inst, sched = build()
    runs = [_sim_key(*run(sched, inst, inst.fault_model,
                          FaultSampler(f"sim-golden/{name}"), detection))
            for detection in DETECTION_MODES]
    assert hashlib.sha256(repr(runs).encode()).hexdigest()[:16] == digest


def test_sim_golden_cases_slip_starts_and_fault_backups():
    """The generated golden cases reach the re-push path of a slipped start
    and fault runtime backups."""
    slipped = faulted_backups = 0
    for name, build, _ in SIM_GOLDEN[:-1]:
        inst, sched = build()
        planned = {e.task_id: e.start for e in sched.entries}
        for detection in DETECTION_MODES:
            trace, _ = run(sched, inst, inst.fault_model,
                           FaultSampler(f"sim-golden/{name}"), detection)
            first = {}
            for e in trace.events:
                if e.kind is EventKind.START:
                    first.setdefault(e.task_id, e.time)
            slipped += sum(1 for t, s in first.items() if s > planned[t])
            # Every planned entry is a primary, so a second fault of one
            # task is a fault of its runtime backup.
            faults = Counter(f.task_id for f in trace.fault_events)
            faulted_backups += sum(1 for n in faults.values() if n > 1)
    assert slipped > 0 and faulted_backups > 0


def test_cb_counts_a_task_missing_from_the_schedule():
    tasks = [make_task(id=1, deadline=5.0), make_task(id=2, deadline=5.0)]
    inst = simple_instance(tasks, [make_node()])
    sched = Schedule(entries=[ScheduleEntry.make(1, 1, 0.0, 1.0, 1.0)])
    trace, rep = run(sched, inst, NO_FAULTS, FaultSampler(4))
    assert trace.status[2] is TaskStatus.FAILED
    assert (rep.cb, rep.reliability_estimate) == (1, 0.5)


def test_planned_start_on_a_node_with_too_few_slots_fails():
    tasks = [make_task(id=1, npe=2, deadline=5.0)]
    inst = simple_instance(tasks, [make_node(id=1, npe_slots=1)])
    sched = Schedule(entries=[ScheduleEntry.make(1, 1, 0.0, 1.0, 1.0)])
    trace, rep = run(sched, inst, NO_FAULTS, FaultSampler(4))
    assert trace.status[1] is TaskStatus.FAILED
    assert not trace.segments and rep.cb == 1


def test_segment_is_the_realized_window():
    # An entry whose completion disagrees with start + exec_time still gets
    # the window it ran in as its segment.
    inst = simple_instance([make_task(id=1, deadline=9.0)], [make_node()])
    planned = ScheduleEntry(1, 1, 0.0, 1.0, 5.0, 1.0)
    trace, _ = run(Schedule(entries=[planned]), inst, NO_FAULTS, FaultSampler(1))
    assert trace.segments == [ScheduleEntry.make(1, 1, 0.0, 1.0, 1.0)]


def test_three_serialized_tasks_wait_0_1_2():
    tasks = [make_task(id=i, length=1000, deadline=100.0) for i in (1, 2, 3)]
    node = make_node()
    inst = simple_instance(tasks, [node])
    sched = fcfs_schedule(tasks, [node])
    trace, rep = run(sched, inst, NO_FAULTS, FaultSampler(1))
    assert sorted(trace.waits.values()) == [0.0, 1.0, 2.0]
    assert rep.avg_wait == pytest.approx(1.0, rel=REL)
    assert rep.avg_completion == pytest.approx(2.0, rel=REL)


def test_averages_examples():
    tasks = [make_task(id=i, length=1000 * i, deadline=100.0) for i in (1, 2, 3)]
    nodes = [make_node(id=i) for i in (1, 2, 3)]
    inst = simple_instance(tasks, nodes)
    sched = fcfs_schedule(tasks, nodes)
    trace, _ = run(sched, inst, NO_FAULTS, FaultSampler(1))
    rep = report(trace, inst)
    assert rep.avg_completion == pytest.approx((1.0 + 2.0 + 3.0) / 3, rel=REL)
    assert rep.avg_wait == 0.0


def test_averages_absent_for_empty_trace():
    inst = simple_instance([], [make_node()])
    sched = Schedule()
    trace, rep = run(sched, inst, NO_FAULTS, FaultSampler(1))
    assert report(trace, inst) == rep
    assert rep.avg_completion is None and rep.avg_wait is None
    assert rep.total_energy == 0.0 and rep.avg_power == 0.0
    assert rep.reliability_estimate == 1.0


def test_report_single_entry_energy_and_power():
    task = make_task(length=1000, deadline=5.0)
    node = make_node()  # 1.44 W dynamic at full speed
    inst = simple_instance([task], [node])
    sched = wgap_schedule([task], [node])
    _, rep = run(sched, inst, NO_FAULTS, FaultSampler(1))
    assert rep.total_energy == pytest.approx(1.44, rel=REL)
    assert rep.avg_power == pytest.approx(1.44, rel=REL)


def test_report_energy_matches_segment_resum():
    inst = generate(WorkloadSpec(n_tasks=50, n_vms=6, seed=13,
                                 submit_mode="uniform", submit_horizon=3.0),
                    fault_model=HOT)
    sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    trace, rep = run(sched, inst, HOT, FaultSampler(5))
    resum = schedule_energy({n.id: n for n in inst.nodes}, trace.segments)
    assert rep.total_energy == pytest.approx(resum, rel=1e-9)


def test_reliability_one_iff_no_failures():
    inst = generate(WorkloadSpec(n_tasks=20, n_vms=4, seed=21),
                    fault_model=NO_FAULTS)
    sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    _, rep = run(sched, inst, NO_FAULTS, FaultSampler(4))
    assert rep.reliability_estimate == 1.0


def test_faulted_primary_recovers_via_backup():
    # Two idle nodes, certain fault on the first execution: the backup lands
    # on the other node and the task finishes late but before its deadline.
    task = make_task(length=1000, deadline=50.0)
    nodes = [make_node(id=1), make_node(id=2)]
    certain = FaultModel(lambda0=1e9, d=3.0, f_min=0.5)
    inst = simple_instance([task], nodes, certain)
    sched = wgap_schedule([task], nodes)
    trace, rep = run(sched, inst, certain, FaultSampler(8))
    # Primary faulted, backup also faults (p = 1): the task fails.
    assert trace.status[1] is TaskStatus.FAILED
    assert trace.fault_events
    assert rep.reliability_estimate == 0.0


def test_backup_lands_on_other_node_and_completes():
    rng = random.Random(15)
    recovered = 0
    for i in range(60):
        inst = generate(WorkloadSpec(n_tasks=rng.randint(2, 15),
                                     n_vms=rng.randint(2, 5),
                                     slack_factor_range=(2.0, 5.0),
                                     seed=rng.randrange(2**32)),
                        fault_model=HOT)
        sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
        trace, _ = run(sched, inst, HOT, FaultSampler(f"bk/{i}"))
        primary_node = {e.task_id: e.node_id for e in sched.entries
                        if e.phase is Phase.PRIMARY}
        for seg in trace.segments:
            if seg.phase is Phase.BACKUP and seg.task_id in primary_node:
                assert seg.node_id != primary_node[seg.task_id]
        recovered += sum(1 for st in trace.status.values()
                         if st is TaskStatus.COMPLETED_VIA_BACKUP)
        for tid, st in trace.status.items():
            if st is TaskStatus.COMPLETED_VIA_BACKUP:
                assert any(f.task_id == tid for f in trace.fault_events)
    assert recovered > 0  # the fault rate is high enough to exercise recovery


def test_node_capacity_never_exceeded():
    rng = random.Random(19)
    for i in range(15):
        inst = generate(WorkloadSpec(n_tasks=rng.randint(5, 40),
                                     n_vms=rng.randint(1, 5),
                                     submit_mode="uniform", submit_horizon=3.0,
                                     seed=rng.randrange(2**32)),
                        fault_model=HOT)
        sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
        trace, _ = run(sched, inst, HOT, FaultSampler(f"cap/{i}"))
        assert check_capacity(trace, inst) == []


def test_mean_backup_count_nondecreasing_in_lambda0():
    spec = WorkloadSpec(n_tasks=20, n_vms=4, seed=3,
                        slack_factor_range=(2.0, 5.0))
    means = []
    for lam in (0.0, 1e-6, 1e-4, 1e-3):
        fm = FaultModel(lambda0=lam, d=3.0, f_min=0.5)
        inst = generate(spec, fault_model=fm)
        sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
        counts = []
        for k in range(200):
            trace, _ = run(sched, inst, fm, FaultSampler(f"mono/{k}"))
            counts.append(len(trace.fault_events))
        means.append(statistics.mean(counts))
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_event_order_independent_of_input_permutation():
    rng = random.Random(27)
    inst = generate(WorkloadSpec(n_tasks=25, n_vms=4, seed=31,
                                 submit_mode="uniform", submit_horizon=2.0),
                    fault_model=HOT)
    sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    trace_a, rep_a = run(sched, inst, HOT, FaultSampler(50))
    shuffled = Instance(inst.tasks[:], inst.nodes[:], inst.dvfs, inst.fault_model)
    rng.shuffle(shuffled.tasks)
    rng.shuffle(shuffled.nodes)
    trace_b, rep_b = run(sched, shuffled, HOT, FaultSampler(50))
    assert trace_a.events == trace_b.events
    assert rep_a == rep_b


def test_unknown_ids_rejected():
    inst = simple_instance([make_task()], [make_node()])
    bogus_task = Schedule(entries=[ScheduleEntry.make(99, 1, 0.0, 1.0, 1.0)])
    with pytest.raises(ValueError):
        run(bogus_task, inst, NO_FAULTS, FaultSampler(1))
    bogus_node = Schedule(entries=[ScheduleEntry.make(1, 99, 0.0, 1.0, 1.0)])
    with pytest.raises(ValueError):
        run(bogus_node, inst, NO_FAULTS, FaultSampler(1))


def test_task_listed_twice_rejected():
    inst = generate(WorkloadSpec(n_tasks=4, n_vms=2, seed=3), fault_model=NO_FAULTS)
    sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    first = sched.entries[0]
    twice = dataclasses.replace(sched, entries=sched.entries + [first])
    with pytest.raises(ValueError, match=f"task {first.task_id} in more than one entry"):
        run(twice, inst, NO_FAULTS, FaultSampler(1))
    also_failed = dataclasses.replace(sched, failed=sched.failed + [first.task_id])
    with pytest.raises(ValueError, match=f"task {first.task_id} both in an entry"):
        run(also_failed, inst, NO_FAULTS, FaultSampler(1))


def test_detection_mode_validated_and_at_completion_runs():
    task = make_task(length=1000, deadline=50.0)
    nodes = [make_node(id=1), make_node(id=2)]
    inst = simple_instance([task], nodes, HOT)
    sched = wgap_schedule([task], nodes)
    with pytest.raises(ValueError):
        run(sched, inst, HOT, FaultSampler(1), detection="eventually")
    trace, _ = run(sched, inst, HOT, FaultSampler(1), detection="at_completion")
    assert trace.status[1] in (TaskStatus.COMPLETED, TaskStatus.FAILED,
                               TaskStatus.COMPLETED_VIA_BACKUP)


def test_wasted_fault_time_is_charged():
    # Certain fault at a uniform position: charged energy is the elapsed
    # fraction of the primary run (plus any backup run).
    task = make_task(length=1000, deadline=50.0)
    node = make_node()
    certain = FaultModel(lambda0=1e9, d=3.0, f_min=0.5)
    inst = simple_instance([task], [node], certain)
    sched = wgap_schedule([task], [node])
    trace, rep = run(sched, inst, certain, FaultSampler(5))
    assert trace.status[1] is TaskStatus.FAILED  # single node: no backup host
    assert len(trace.segments) == 1
    seg = trace.segments[0]
    assert 0.0 <= seg.exec_time < 1.0
    assert rep.total_energy == pytest.approx(1.44 * seg.exec_time, rel=REL)


def quadratic_check_capacity(trace, instance):
    """The per-node quadratic scan that check_capacity replaced, kept as the
    reference its sweep line must agree with."""
    tasks_by_id = {t.id: t for t in instance.tasks}
    node_ids = {n.id for n in instance.nodes}
    problems = []
    for s in trace.segments:
        if s.task_id not in tasks_by_id:
            problems.append(f"segment at t={s.start} of unknown task {s.task_id}")
        elif s.node_id not in node_ids:
            problems.append(f"task {s.task_id} at t={s.start} on unknown node {s.node_id}")
    for node in instance.nodes:
        spans = [(s.start, s.completion, tasks_by_id[s.task_id].npe)
                 for s in trace.segments
                 if s.node_id == node.id and s.task_id in tasks_by_id]
        points = sorted({s for s, _, _ in spans})
        for p in points:
            load = sum(npe for s, c, npe in spans if s <= p < c)
            if load > node.npe_slots:
                problems.append(
                    f"node {node.id} at t={p}: npe load {load} > {node.npe_slots}")
    return problems


def _segments_trace(nodes, tasks, spans):
    segments = [ScheduleEntry.make(tid, nid, start, length, 1.0)
                for tid, nid, start, length in spans]
    return RunTrace(segments=segments), simple_instance(tasks, nodes)


def test_check_capacity_touching_and_overlapping_intervals():
    nodes = [make_node(id=1, npe_slots=1)]
    tasks = [make_task(id=1), make_task(id=2)]
    touching = _segments_trace(nodes, tasks, [(1, 1, 0.0, 1.0), (2, 1, 1.0, 1.0)])
    assert check_capacity(*touching) == []
    overlapping = _segments_trace(nodes, tasks, [(1, 1, 0.0, 1.0), (2, 1, 0.5, 1.0)])
    assert check_capacity(*overlapping) == ["node 1 at t=0.5: npe load 2 > 1"]


def test_check_capacity_reports_segments_on_an_unknown_node():
    nodes = [make_node(id=1, npe_slots=1)]
    tasks = [make_task(id=i, npe=2) for i in (1, 2, 3)]
    foreign = _segments_trace(nodes, tasks, [(i, 99, 0.0, 1.0) for i in (1, 2, 3)])
    assert check_capacity(*foreign) == [
        f"task {i} at t=0.0 on unknown node 99" for i in (1, 2, 3)]


def test_check_capacity_reports_segments_of_an_unknown_task():
    nodes = [make_node(id=1, npe_slots=2)]
    stray = _segments_trace(nodes, [make_task(id=1)], [(1, 1, 0.0, 1.0), (7, 1, 0.5, 1.0)])
    assert check_capacity(*stray) == ["segment at t=0.5 of unknown task 7"]


@st.composite
def segment_traces(draw):
    """Segments on quarter-second grids, so starts, ends and zero-length
    runs coincide often; some segments belong to a task or sit on a node
    the instance lacks."""
    nodes = [make_node(id=j + 1, npe_slots=draw(st.integers(1, 4)))
             for j in range(draw(st.integers(1, 3)))]
    tasks = [make_task(id=i + 1, npe=draw(st.integers(1, 4)))
             for i in range(draw(st.integers(1, 6)))]
    spans = draw(st.lists(st.tuples(
        st.integers(1, len(tasks) + 1), st.integers(1, len(nodes) + 1),
        st.integers(0, 16).map(lambda q: q / 4), st.integers(0, 8).map(lambda q: q / 4)),
        max_size=25))
    return _segments_trace(nodes, tasks, spans)


@settings(max_examples=200, deadline=None)
@given(case=segment_traces())
def test_check_capacity_matches_quadratic_reference(case):
    assert check_capacity(*case) == quadratic_check_capacity(*case)


@st.composite
def simulated_cells(draw):
    """A generated instance, its GAP or FCFS schedule, and a run's inputs."""
    spec = WorkloadSpec(n_tasks=draw(st.integers(0, 60)), n_vms=draw(st.integers(1, 8)),
                        npe_range=(1, draw(st.integers(1, 8))), submit_mode="uniform",
                        submit_horizon=draw(st.sampled_from([0.0, 0.5, 2.0])),
                        slack_factor_range=(1.05, draw(st.sampled_from([1.6, 4.0]))),
                        seed=draw(st.integers(0, 2**32 - 1)))
    fm = FaultModel(lambda0=draw(st.floats(0.0, 2.0)), d=3.0, f_min=0.5)
    inst = generate(spec, fault_model=fm)
    if draw(st.booleans()):
        sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    else:
        sched = fcfs_schedule(inst.tasks, inst.nodes)
    seed = draw(st.integers(0, 2**32 - 1))
    return inst, sched, seed, draw(st.sampled_from(DETECTION_MODES))


@settings(max_examples=120, deadline=None)
@given(cell=simulated_cells())
def test_run_invariants_on_generated_cells(cell):
    """Capacity holds, the segments price to the reported energy exactly,
    every task ends once with a status its faults explain, and a replay is
    equal."""
    inst, sched, seed, detection = cell
    trace, rep = run(sched, inst, inst.fault_model, FaultSampler(seed), detection)
    assert check_capacity(trace, inst) == []
    nodes = {n.id: n for n in inst.nodes}
    assert schedule_energy(nodes, trace.segments) == rep.total_energy

    assert set(trace.status) == {t.id for t in inst.tasks}
    done = Counter(e.task_id for e in trace.events if e.kind is EventKind.COMPLETION)
    faults = Counter(f.task_id for f in trace.fault_events)
    for tid, status in trace.status.items():
        if status is TaskStatus.FAILED:
            assert done[tid] == 0 and tid not in trace.completion
        else:
            assert done[tid] == 1 and tid in trace.completion
            assert faults[tid] == (status is TaskStatus.COMPLETED_VIA_BACKUP)
        assert faults[tid] <= 2

    assert run(sched, inst, inst.fault_model, FaultSampler(seed), detection) == (trace, rep)
