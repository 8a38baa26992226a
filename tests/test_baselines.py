import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assignment_of, make_node, make_task
from fogsched import baselines, sim
from fogsched.baselines import (PsoConfig, fcfs_schedule, pso_schedule,
                                rr_schedule, sjf_schedule)
from fogsched.gap import exec_time, fresh_lanes, occupy
from fogsched.model import (DvfsConfig, FaultModel, Phase, Schedule, ScheduleEntry,
                            validate_instance)
from fogsched.oracle import exhaustive
from fogsched.power import schedule_energy
from fogsched.reliability import FaultSampler
from fogsched.workload import WorkloadSpec, generate


def test_fcfs_two_tasks_two_idle_nodes():
    tasks = [make_task(id=1, deadline=10.0), make_task(id=2, deadline=10.0)]
    nodes = [make_node(id=1), make_node(id=2)]
    sched = fcfs_schedule(tasks, nodes)
    assert assignment_of(sched) == {1: 1, 2: 2}


def test_fcfs_serializes_on_single_node():
    tasks = [make_task(id=i, length=1000, deadline=100.0) for i in (1, 2, 3)]
    sched = fcfs_schedule(tasks, [make_node(id=1)])
    starts = sorted(e.start for e in sched.entries)
    assert starts == [0.0, 1.0, 2.0]


def test_fcfs_empty():
    sched = fcfs_schedule([], [make_node()])
    assert sched.entries == [] and sched.failed == []


def test_fcfs_orders_by_submit_time():
    tasks = [make_task(id=1, submit_time=1.0, deadline=100.0),
             make_task(id=2, submit_time=0.0, deadline=100.0)]
    sched = fcfs_schedule(tasks, [make_node(id=1)])
    by_task = {e.task_id: e.start for e in sched.entries}
    assert by_task[2] == 0.0 and by_task[1] == 1.0


def test_sjf_orders_by_length():
    tasks = [make_task(id=1, length=1500, deadline=100.0),
             make_task(id=2, length=1000, deadline=100.0),
             make_task(id=3, length=2000, deadline=100.0)]
    sched = sjf_schedule(tasks, [make_node(id=1)])
    by_task = {e.task_id: e.start for e in sched.entries}
    assert by_task[2] < by_task[1] < by_task[3]


def test_sjf_equal_lengths_fall_back_to_id():
    tasks = [make_task(id=2, deadline=100.0), make_task(id=1, deadline=100.0)]
    sched = sjf_schedule(tasks, [make_node(id=1)])
    by_task = {e.task_id: e.start for e in sched.entries}
    assert by_task[1] < by_task[2]


def test_sjf_single_task_matches_fcfs():
    tasks = [make_task(id=1, deadline=100.0)]
    nodes = [make_node(id=1), make_node(id=2)]
    assert sjf_schedule(tasks, nodes) == fcfs_schedule(tasks, nodes)


def test_rr_cycles_nodes():
    tasks = [make_task(id=i, deadline=100.0) for i in range(1, 5)]
    nodes = [make_node(id=1), make_node(id=2)]
    sched = rr_schedule(tasks, nodes)
    assert [assignment_of(sched)[i] for i in range(1, 5)] == [1, 2, 1, 2]


def test_rr_single_node_equals_fcfs():
    tasks = [make_task(id=i, length=500 * i, deadline=100.0) for i in (1, 2, 3)]
    nodes = [make_node(id=1)]
    assert rr_schedule(tasks, nodes).entries == fcfs_schedule(tasks, nodes).entries


def test_rr_idle_nodes_get_one_task_each():
    tasks = [make_task(id=i, deadline=100.0) for i in (1, 2, 3)]
    nodes = [make_node(id=j) for j in (1, 2, 3)]
    sched = rr_schedule(tasks, nodes)
    assert sorted(assignment_of(sched).values()) == [1, 2, 3]


def test_rr_skips_incapable_nodes():
    tasks = [make_task(id=1, npe=4, deadline=100.0)]
    nodes = [make_node(id=1, npe_slots=1), make_node(id=2, npe_slots=8)]
    sched = rr_schedule(tasks, nodes)
    assert assignment_of(sched)[1] == 2


@pytest.mark.parametrize("build", [fcfs_schedule, sjf_schedule, rr_schedule])
def test_list_baselines_fail_a_task_no_node_can_host(build):
    tasks = [make_task(id=1, deadline=100.0), make_task(id=2, npe=4, deadline=100.0)]
    nodes = [make_node(id=1, npe_slots=2), make_node(id=2, npe_slots=1)]
    sched = build(tasks, nodes)
    assert sched.failed == [2] and sched.cb == 1
    assert [e.task_id for e in sched.entries] == [1]


def test_baselines_emit_one_full_speed_primary_per_task():
    rng = random.Random(2)
    for _ in range(10):
        inst = generate(WorkloadSpec(n_tasks=rng.randint(1, 30),
                                     n_vms=rng.randint(1, 6),
                                     seed=rng.randrange(2**32)))
        for build in (fcfs_schedule, sjf_schedule, rr_schedule):
            sched = build(inst.tasks, inst.nodes)
            assert len(sched.entries) == len(inst.tasks)
            assert all(e.phase is Phase.PRIMARY and e.rho == 1.0
                       for e in sched.entries)
            assert sched.cp == 0 and not sched.backup_list


def test_pso_single_task_single_node_matches_oracle():
    tasks = [make_task(id=1, length=800, deadline=100.0)]
    nodes = [make_node(id=1)]
    sched = pso_schedule(tasks, nodes, PsoConfig(swarm_size=4, iterations=3), seed=1)
    assert assignment_of(sched) == {1: 1}
    oracle = exhaustive(tasks, nodes, DvfsConfig((1.0,)))
    energy = schedule_energy({1: nodes[0]}, sched.entries)
    assert energy == pytest.approx(oracle.best_energy, rel=1e-9)


def test_pso_never_beats_oracle_energy():
    rng = random.Random(6)
    dvfs = DvfsConfig((1.0,))
    for _ in range(10):
        inst = generate(WorkloadSpec(n_tasks=rng.randint(1, 5),
                                     n_vms=rng.randint(1, 3),
                                     slack_factor_range=(2.0, 5.0),
                                     seed=rng.randrange(2**32)))
        oracle = exhaustive(inst.tasks, inst.nodes, dvfs)
        sched = pso_schedule(inst.tasks, inst.nodes,
                             PsoConfig(swarm_size=8, iterations=15), seed=11)
        deadlines = {t.id: t.deadline for t in inst.tasks}
        feasible = all(e.completion <= deadlines[e.task_id] for e in sched.entries)
        if oracle.feasible and feasible:
            energy = schedule_energy({n.id: n for n in inst.nodes}, sched.entries)
            assert energy >= oracle.best_energy * (1 - 1e-9)


def test_pso_deterministic_under_seed():
    inst = generate(WorkloadSpec(n_tasks=15, n_vms=4, seed=33))
    cfg = PsoConfig(swarm_size=10, iterations=10)
    a = pso_schedule(inst.tasks, inst.nodes, cfg, seed=5)
    b = pso_schedule(inst.tasks, inst.nodes, cfg, seed=5)
    assert a == b
    c = pso_schedule(inst.tasks, inst.nodes, cfg, seed=6)
    assert a != c or assignment_of(a) == assignment_of(c)  # different seed may still agree


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(swarm_size=1).validate()
    with pytest.raises(ValueError):
        PsoConfig(iterations=0).validate()
    with pytest.raises(ValueError):
        PsoConfig(iterations=10001).validate()
    PsoConfig(swarm_size=1000, iterations=10000).validate()


def test_baselines_deterministic():
    inst = generate(WorkloadSpec(n_tasks=25, n_vms=5, seed=44,
                                 submit_mode="uniform", submit_horizon=3.0))
    for build in (fcfs_schedule, sjf_schedule, rr_schedule):
        assert build(inst.tasks, inst.nodes) == build(inst.tasks, inst.nodes)


def _plain_scan_reference(ordered, nodes):
    """FCFS's and SJF's list schedule with a plain scan: every node in id
    order, skipping one without the slots, first least start."""
    sched = Schedule()
    by_id = sorted(nodes, key=lambda n: n.id)
    lanes = fresh_lanes(nodes)
    for task in ordered:
        best = None
        for node in by_id:
            if task.npe > node.npe_slots:
                continue
            avail = lanes[node.id][task.npe - 1]
            start = avail if avail > task.submit_time else task.submit_time
            if best is None or start < best[0]:
                best = (start, node)
        if best is None:
            sched.failed.append(task.id)
            continue
        start, node = best
        entry = ScheduleEntry.make(task.id, node.id, start, exec_time(task, node, 1.0), 1.0)
        sched.entries.append(entry)
        occupy(lanes[node.id], task.npe, entry.completion)
    return sched


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.integers(1, 40), max_size=6, unique=True), data=st.data())
def test_fcfs_and_sjf_equal_the_plain_scan(ids, data):
    """Nodes of 1-8 slots in shuffled input order, and tasks up to 9 wide,
    so some fit no node; equal submit times and lengths tie."""
    nodes = [make_node(id=i, mips=data.draw(st.sampled_from([1000.0, 1500.0, 2000.0])),
                       npe_slots=data.draw(st.integers(1, 8))) for i in ids]
    tasks = [make_task(id=i + 1, length=data.draw(st.sampled_from([500, 1000, 2000])),
                       npe=data.draw(st.integers(1, 9)),
                       submit_time=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                       deadline=5.0)
             for i in range(data.draw(st.integers(0, 25)))]
    fcfs_order = sorted(tasks, key=lambda t: (t.submit_time, t.id))
    sjf_order = sorted(tasks, key=lambda t: (t.length, t.id))
    assert repr(fcfs_schedule(tasks, nodes)) == repr(_plain_scan_reference(fcfs_order, nodes))
    assert repr(sjf_schedule(tasks, nodes)) == repr(_plain_scan_reference(sjf_order, nodes))


def _mixed_capacity_tasks_nodes():
    """Nodes of 1, 2 and 4 slots: npe 3-4 fits only node 3, npe 5-8 none."""
    nodes = [make_node(id=1, mips=1500.0, npe_slots=1),
             make_node(id=2, mips=1100.0, npe_slots=2),
             make_node(id=3, mips=1800.0, npe_slots=4)]
    npes = [1, 3, 2, 5, 4, 1, 8, 2, 1, 4, 3, 1]
    tasks = [make_task(id=i + 1, length=1000 + 97 * i, npe=npe,
                       submit_time=0.05 * (i % 4), deadline=1.0 + 0.3 * i)
             for i, npe in enumerate(npes)]
    return tasks, nodes


def _partly_single_node_tasks_nodes():
    """Nodes of 1, 2 and 1 slots: every npe-2 task fits node 2 only, and
    every npe-1 task fits all three."""
    nodes = [make_node(id=1, mips=1200.0, npe_slots=1),
             make_node(id=2, mips=1600.0, npe_slots=2),
             make_node(id=3, mips=900.0, npe_slots=1)]
    npes = [1, 2, 1, 1, 2, 1, 2, 1, 1, 1]
    tasks = [make_task(id=i + 1, length=800 + 131 * i, npe=npe,
                       submit_time=0.04 * (i % 3), deadline=0.9 + 0.25 * i)
             for i, npe in enumerate(npes)]
    return tasks, nodes


def _generated(**kw):
    inst = generate(WorkloadSpec(**kw))
    return inst.tasks, inst.nodes


# Fixed digests of pso_schedule output: a faster fitness kernel must
# reproduce them bit for bit, or results.csv changes. "sum-order" changes
# if energy is summed in any order other than task order.
PSO_GOLDEN = [
    ("one-vm", lambda: _generated(n_tasks=12, n_vms=1, seed=1),
     PsoConfig(swarm_size=8, iterations=10), 3, "b5bd49f43243a92a"),
    ("24-vms", lambda: _generated(n_tasks=60, n_vms=24, seed=2, submit_mode="uniform",
                                  submit_horizon=0.2, slack_factor_range=(1.05, 1.6)),
     PsoConfig(swarm_size=10, iterations=15), 4, "a7f8c042b99c3fa9"),
    ("swarm-of-2", lambda: _generated(n_tasks=20, n_vms=3, seed=3),
     PsoConfig(swarm_size=2, iterations=30), 5, "ecdcfbadb3b0b763"),
    ("mixed-capacity", _mixed_capacity_tasks_nodes,
     PsoConfig(swarm_size=6, iterations=12), 6, "37b88f3ebb28000b"),
    ("all-incapable", lambda: ([make_task(id=i, npe=2) for i in (1, 2, 3)],
                               [make_node(id=1), make_node(id=2)]),
     PsoConfig(), 7, "37aa6f4b36353302"),
    ("default-config", lambda: _generated(n_tasks=40, n_vms=5, seed=7,
                                          submit_mode="uniform", submit_horizon=0.5),
     PsoConfig(), 8, "dcc688f4b3eccbc0"),
    ("sum-order", lambda: _generated(n_tasks=8, n_vms=2, seed=8),
     PsoConfig(swarm_size=10, iterations=20), 2, "7e0b25fe99e7bf8a"),
    ("deadline-met-exactly",
     lambda: ([make_task(id=i, deadline=0.5 * i) for i in (1, 2, 3)],
              [make_node(id=1), make_node(id=2, mips=2000.0)]),
     PsoConfig(swarm_size=4, iterations=6), 12, "2c902a7a819550b5"),
    ("8-vms-uniform", lambda: _generated(n_tasks=25, n_vms=8, seed=10,
                                         submit_mode="uniform", submit_horizon=0.3),
     PsoConfig(swarm_size=12, iterations=20), 11, "b151d3663e77289a"),
    ("default-one-vm", lambda: _generated(n_tasks=8, n_vms=1, seed=13),
     PsoConfig(), 9, "f7907c4da3f83a66"),
    ("default-two-vms", lambda: _generated(n_tasks=12, n_vms=2, seed=14,
                                           submit_mode="uniform", submit_horizon=0.3),
     PsoConfig(), 10, "2f240b37452388ad"),
    ("partly-single-node", _partly_single_node_tasks_nodes,
     PsoConfig(swarm_size=8, iterations=25), 13, "e5b7102d3a7ea063"),
    # 18 mappings against a budget of 4 * 21 = 84 scorings: every mapping is
    # scored up front and no particle reaches the best in 20 iterations.
    ("table-never-at-floor", lambda: _generated(n_tasks=4, n_vms=3, seed=12),
     PsoConfig(swarm_size=4, iterations=20), 3, "82d77693b736c21b"),
    # 27 mappings against budgets of 3 * 9 = 27 (scored up front) and
    # 2 * 13 = 26 (scored as the swarm moves).
    ("space-equals-budget", lambda: _generated(n_tasks=3, n_vms=3, seed=11),
     PsoConfig(swarm_size=3, iterations=8), 1, "49b010e478d7df7a"),
    ("space-past-budget", lambda: _generated(n_tasks=3, n_vms=3, seed=11),
     PsoConfig(swarm_size=2, iterations=12), 1, "49b010e478d7df7a"),
    # 2048 mappings on 2 nodes of 7 slots: the table is scored in 4 blocks
    # of 585 rows.
    ("table-in-blocks", lambda: _generated(n_tasks=11, n_vms=2, seed=0),
     PsoConfig(), 0, "7323d62d00901d8d"),
]


def _pso_digest(sched) -> str:
    rows = [(e.task_id, e.node_id, e.start, e.completion) for e in sched.entries]
    return hashlib.sha256(repr((rows, sched.failed)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,build,cfg,seed,digest", PSO_GOLDEN,
                         ids=[case[0] for case in PSO_GOLDEN])
def test_pso_matches_golden_digest(name, build, cfg, seed, digest):
    tasks, nodes = build()
    assert _pso_digest(pso_schedule(tasks, nodes, cfg, seed=seed)) == digest


@st.composite
def small_instances(draw):
    """Up to 4 nodes of 1-4 slots and 10 tasks of npe 1-6, so some tasks
    fit one node only and some fit none; no faults."""
    nodes = [make_node(id=j + 1, mips=float(draw(st.integers(1000, 2000))),
                       npe_slots=draw(st.integers(1, 4)))
             for j in range(draw(st.integers(1, 4)))]
    tasks = []
    for i in range(draw(st.integers(1, 10))):
        submit = draw(st.floats(0.0, 1.0))
        tasks.append(make_task(id=i + 1, length=draw(st.integers(500, 2000)),
                               npe=draw(st.integers(1, 6)), submit_time=submit,
                               deadline=submit + draw(st.floats(0.1, 3.0))))
    return validate_instance(tasks, nodes, DvfsConfig((1.0,)),
                             FaultModel(lambda0=0.0, d=3.0, f_min=0.5))


@settings(max_examples=60, deadline=None)
@given(inst=small_instances(), swarm=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_pso_places_each_task_once_within_node_capacity(inst, swarm, seed):
    sched = pso_schedule(inst.tasks, inst.nodes,
                         PsoConfig(swarm_size=swarm, iterations=5), seed=seed)
    placed = [e.task_id for e in sched.entries]
    assert sorted(placed + sched.failed) == sorted(t.id for t in inst.tasks)
    trace, rep = sim.run(sched, inst, inst.fault_model, FaultSampler(seed))
    assert sim.audit(sched, trace, inst, rep) == []


@settings(max_examples=60, deadline=None)
@given(inst=small_instances(), seed=st.integers(0, 2**32 - 1))
def test_pso_on_one_node_is_fcfs(inst, seed):
    """One node leaves each task one mapping, so PSO places as FCFS does."""
    nodes = inst.nodes[:1]
    pso = pso_schedule(inst.tasks, nodes, PsoConfig(swarm_size=3, iterations=4), seed=seed)
    fcfs = fcfs_schedule(inst.tasks, nodes)
    assert (pso.entries, pso.failed) == (fcfs.entries, fcfs.failed)


def _pso_at_block_sizes(tasks, nodes, cfg, seed):
    """pso_schedule's output with each table block one swarm, and with the
    whole table in one block."""
    out = []
    for block_bytes in (0, 2**40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "TABLE_BLOCK_BYTES", block_bytes)
            out.append(pso_schedule(tasks, nodes, cfg, seed=seed))
    return out


@settings(max_examples=60, deadline=None)
@given(inst=small_instances(), swarm=st.integers(2, 6), iterations=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_pso_table_does_not_depend_on_block_size(inst, swarm, iterations, seed):
    cfg = PsoConfig(swarm_size=swarm, iterations=iterations)
    one_swarm, whole = _pso_at_block_sizes(inst.tasks, inst.nodes, cfg, seed)
    assert repr(one_swarm) == repr(whole)


def test_pso_golden_table_does_not_depend_on_block_size():
    name, build, cfg, seed, digest = next(c for c in PSO_GOLDEN if c[0] == "table-in-blocks")
    for sched in _pso_at_block_sizes(*build(), cfg, seed):
        assert _pso_digest(sched) == digest


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1.0, 7.0]),
    st.floats(allow_nan=False, allow_subnormal=True))


@settings(max_examples=200, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 9)),
                elements=_EDGE_FLOATS),
       data=st.data())
def test_pso_clamp_is_np_clip_to_the_bit(x, data):
    """The swarm's position clamp, np.minimum(np.maximum(x, 0.0), hi), has
    np.clip(x, 0.0, hi)'s bits on every float but -0.0, and returns no -0.0
    for them. np.clip's sign for a -0.0 input varies with the array's shape;
    the swarm never sees one, since its positions start at +0.0 or above
    and a sum is -0.0 only if both terms are."""
    hi = data.draw(arrays(np.float64, x.shape[1:], elements=st.integers(0, 7).map(float)))
    fast = np.minimum(np.maximum(x, 0.0), hi)
    plain = ~((x == 0.0) & np.signbit(x))
    assert fast[plain].tobytes() == np.clip(x, 0.0, hi)[plain].tobytes()
    assert not np.signbit(fast[plain]).any()


def _no_host_tasks_nodes():
    """Task 3 needs 4 elements and no node has more than 2; the rest fit."""
    nodes = [make_node(id=1, npe_slots=2), make_node(id=2, mips=1500.0)]
    tasks = [make_task(id=i, length=700 + 150 * i, npe=npe, deadline=4.0,
                       submit_time=0.1 * (i % 2))
             for i, npe in zip(range(1, 7), (1, 2, 4, 1, 2, 1))]
    return tasks, nodes


def _rr_wrap_tasks_nodes():
    """Node 3 (the last id) is too small for the npe-2 tasks, so RR skips
    it and wraps to node 1; node 2 is too small for them too."""
    nodes = [make_node(id=3, npe_slots=1, mips=900.0),
             make_node(id=1, npe_slots=2, mips=1300.0),
             make_node(id=2, npe_slots=1, mips=1100.0)]
    npes = [1, 2, 2, 1, 1, 2, 2, 1]
    tasks = [make_task(id=i + 1, length=600 + 90 * i, npe=npe,
                       submit_time=0.02 * i, deadline=3.0)
             for i, npe in enumerate(npes)]
    return tasks, nodes


def _reverse_tie_tasks_nodes():
    """Equal nodes given in descending id order: every equal-start tie
    must still go to the lower id."""
    nodes = [make_node(id=j) for j in (4, 3, 2, 1)]
    tasks = [make_task(id=i, length=1000, deadline=5.0, submit_time=0.5 * (i // 3))
             for i in range(1, 9)]
    return tasks, nodes


def _staggered_multi_slot_tasks_nodes():
    """Submits that arrive after a node's slots free up, on nodes of 2 and
    4 elements, so a start is the submit time as often as a slot time."""
    nodes = [make_node(id=1, npe_slots=4, mips=1200.0),
             make_node(id=2, npe_slots=2, mips=1700.0)]
    npes = [3, 1, 2, 4, 1, 2, 1, 3, 2, 1]
    tasks = [make_task(id=i + 1, length=900 + 211 * (i % 4), npe=npe,
                       submit_time=0.35 * i, deadline=0.35 * i + 2.0)
             for i, npe in enumerate(npes)]
    return tasks, nodes


# Fixed digests of the FCFS, SJF and RR entries and failed lists. The
# hand-built cases pin the failure rule, RR's skip and wrap, the lower-id
# tie and the submit-time clamp; generate() never makes a task no node
# can host.
BASELINE_GOLDEN = [
    ("no-host", _no_host_tasks_nodes,
     {"fcfs": "1026c586e5c4f35f", "sjf": "d70156b0df5b1562", "rr": "b6e2f61b4d76510d"}),
    ("rr-skip-wrap", _rr_wrap_tasks_nodes,
     {"fcfs": "b1263d7bd6d020ee", "sjf": "b1263d7bd6d020ee", "rr": "3dd47145bbe915ce"}),
    ("reverse-id-tie", _reverse_tie_tasks_nodes,
     {"fcfs": "83b0f0e9c6ea157b", "sjf": "83b0f0e9c6ea157b", "rr": "83b0f0e9c6ea157b"}),
    ("staggered-multi-slot", _staggered_multi_slot_tasks_nodes,
     {"fcfs": "5dc1baebe3823a3f", "sjf": "3e046bec36a28df6", "rr": "1f6edd208859ce17"}),
    ("generated", lambda: _generated(n_tasks=40, n_vms=5, seed=21, submit_mode="uniform",
                                     submit_horizon=0.5),
     {"fcfs": "5c465fc1e98c3c03", "sjf": "3728e9503a3ac271", "rr": "0637494456c78ddf"}),
]

LIST_BASELINES = {"fcfs": fcfs_schedule, "sjf": sjf_schedule, "rr": rr_schedule}


@pytest.mark.parametrize("name,build,digests", BASELINE_GOLDEN,
                         ids=[case[0] for case in BASELINE_GOLDEN])
def test_list_baselines_match_golden_digest(name, build, digests):
    tasks, nodes = build()
    got = {}
    for algorithm, schedule in LIST_BASELINES.items():
        sched = schedule(tasks, nodes)
        got[algorithm] = hashlib.sha256(
            repr((sched.entries, sched.failed)).encode()).hexdigest()[:16]
    assert got == digests
