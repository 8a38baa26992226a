import hashlib
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_node, make_task
from fogsched.baselines import fcfs_schedule
from fogsched.gap import gap_schedule, wgap_schedule
from fogsched.model import (DvfsConfig, FaultModel, Instance, Phase, Schedule,
                            ScheduleEntry)
from fogsched.power import schedule_energy
from fogsched.reliability import FaultSampler
from fogsched.sim import (RunTrace, TaskStatus, check_capacity, report, run,
                          write_trace)
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
