import hashlib
import math
import random

import pytest

from conftest import make_node, make_task
from fogsched.model import DvfsConfig, FaultModel, Schedule, ScheduleEntry
from fogsched.oracle import _level_rows, _place_candidate, exhaustive
from fogsched.reliability import FaultSampler
from fogsched.sim import TaskStatus, run
from fogsched.workload import WorkloadSpec, generate


def test_single_task_single_node():
    tasks = [make_task(length=1000, deadline=5.0)]
    nodes = [make_node()]
    res = exhaustive(tasks, nodes, DvfsConfig((1.0,)))
    assert res.enumerated == 1
    assert res.feasible_count == 1
    assert res.best_energy == pytest.approx(1.44, rel=1e-9)
    assert res.best_assignment == {1: 1}


def test_two_task_instance_confirms_fast_node_requirement():
    t1 = make_task(id=1, length=1000, deadline=2.0)
    t2 = make_task(id=2, length=1500, deadline=1.0)
    nodes = [make_node(id=1, mips=1000), make_node(id=2, mips=2000, f_max=2e9)]
    res = exhaustive([t1, t2], nodes, DvfsConfig((1.0,)))
    assert res.enumerated == 4
    assert res.feasible
    assert res.best_assignment[2] == 2


def test_infeasible_instance():
    tasks = [make_task(length=5000, deadline=1.0)]
    nodes = [make_node(id=1), make_node(id=2)]
    res = exhaustive(tasks, nodes, DvfsConfig((0.6, 1.0)))
    assert not res.feasible
    assert res.best_energy == math.inf
    assert res.feasible_count == 0


def test_size_guard():
    tasks = [make_task(id=i, deadline=100.0) for i in range(30)]
    nodes = [make_node(id=j) for j in range(4)]
    with pytest.raises(ValueError):
        exhaustive(tasks, nodes, DvfsConfig((1.0,)))


def test_empty_tasks_feasible_with_zero_energy():
    res = exhaustive([], [make_node()], DvfsConfig((0.6, 1.0)))
    assert res.feasible
    assert res.best_energy == 0.0


def test_prefers_low_level_on_energy():
    task = make_task(length=600, deadline=10.0)
    node = make_node()
    res = exhaustive([task], [node], DvfsConfig((0.6, 1.0)))
    assert res.best_rho == 0.6


def test_best_schedule_replays_clean_in_simulator():
    """Every oracle-optimal candidate must simulate fault-free within its
    deadlines."""
    rng = random.Random(8)
    dvfs = DvfsConfig((0.6, 0.8, 1.0))
    fm = FaultModel(lambda0=0.0, d=3.0, f_min=0.5)
    checked = 0
    for i in range(25):
        inst = generate(WorkloadSpec(n_tasks=rng.randint(1, 5),
                                     n_vms=rng.randint(1, 3),
                                     submit_mode="uniform", submit_horizon=1.0,
                                     seed=rng.randrange(2**32)),
                        fault_model=fm, dvfs=dvfs)
        res = exhaustive(inst.tasks, inst.nodes, dvfs)
        if not res.feasible:
            continue
        nodes = sorted(inst.nodes, key=lambda nd: nd.id)
        index = {nd.id: j for j, nd in enumerate(nodes)}
        combo = [index[res.best_assignment[t.id]]
                 for t in sorted(inst.tasks, key=lambda t: t.id)]
        (rows,) = _level_rows(inst.tasks, nodes, (res.best_rho,))
        placed = _place_candidate(rows, [nd.npe_slots for nd in nodes], combo)
        assert placed is not None
        sched = Schedule(entries=[ScheduleEntry.make(tid, nodes[j].id, start, ext,
                                                     res.best_rho)
                                  for tid, j, start, ext in placed],
                         selected_rho=res.best_rho)
        trace, rep = run(sched, inst, fm, FaultSampler(i))
        deadlines = {t.id: t.deadline for t in inst.tasks}
        assert all(st is TaskStatus.COMPLETED for st in trace.status.values())
        assert all(trace.completion[t.id] <= deadlines[t.id] for t in inst.tasks)
        assert rep.total_energy == pytest.approx(res.best_energy, rel=1e-9)
        checked += 1
    assert checked > 10


def test_tie_break_is_lexicographic_smallest():
    # Two identical nodes: both single-task assignments cost the same, the
    # enumeration keeps the first (node 1).
    task = make_task(length=500, deadline=10.0)
    nodes = [make_node(id=1), make_node(id=2)]
    res = exhaustive([task], nodes, DvfsConfig((1.0,)))
    assert res.best_assignment == {1: 1}


GOLDEN_DVFS = DvfsConfig((0.6, 0.7, 0.8, 0.9, 1.0))


def _golden_generated(n_tasks, n_vms, seed, **kw):
    inst = generate(WorkloadSpec(n_tasks=n_tasks, n_vms=n_vms, seed=seed,
                                 submit_mode="uniform", **kw), dvfs=GOLDEN_DVFS)
    return inst.tasks, inst.nodes


def _golden_infeasible():
    """The second task cannot finish by its deadline on either node."""
    return ([make_task(id=1, length=500, deadline=4.0),
             make_task(id=2, length=5000, deadline=1.0)],
            [make_node(id=1), make_node(id=2)])


def _golden_deadline_met_exactly():
    """At full speed the first task completes exactly on its deadline."""
    return ([make_task(id=1, length=1000, deadline=1.0),
             make_task(id=2, length=1000, deadline=1.5)],
            [make_node(id=1), make_node(id=2, mips=2000.0, f_max=2e9)])


def _golden_lane_order():
    """On the 3-slot node the second task frees its slot before the first,
    so the 2-slot third task fits only if the lane is kept sorted."""
    return ([make_task(id=1, length=5000, deadline=5.0),
             make_task(id=2, length=1000, deadline=5.2),
             make_task(id=3, length=1000, deadline=5.3, npe=2)],
            [make_node(id=1, npe_slots=3), make_node(id=2)])


def _golden_exact_tie():
    """Twin nodes: mirrored assignments cost exactly the same energy, so the
    first one in enumeration order must win."""
    tasks = [make_task(id=1, length=800, deadline=3.0),
             make_task(id=2, length=600, deadline=3.0, submit_time=0.2),
             make_task(id=3, length=400, deadline=4.0)]
    return tasks, [make_node(id=1), make_node(id=2), make_node(id=3)]


# Fixed digests of exhaustive's (best_energy, best_assignment, best_rho,
# feasible_count, enumerated). A rewrite of the search must reproduce them
# bit for bit, tie-breaks included.
ORACLE_GOLDEN = [
    ("1x1", lambda: _golden_generated(1, 1, seed=11), "a334f6996b3ab6d6"),
    ("2x3", lambda: _golden_generated(2, 3, seed=12, submit_horizon=1.0),
     "d7c0e70d3c2f7876"),
    ("3x2-multi-slot", lambda: _golden_generated(3, 2, seed=13, submit_horizon=0.5,
                                                 npe_range=(1, 4)), "04553f4f413153d3"),
    ("4x3-tight", lambda: _golden_generated(4, 3, seed=17, submit_horizon=0.3,
                                            slack_factor_range=(1.2, 2.0)),
     "ee8daadc60cb8f95"),
    ("5x2", lambda: _golden_generated(5, 2, seed=15, submit_horizon=2.0),
     "487a012445aa9cf1"),
    ("5x3", lambda: _golden_generated(5, 3, seed=16, submit_horizon=1.0,
                                      slack_factor_range=(1.5, 5.0)), "fb19b2a3fc2214aa"),
    ("infeasible", _golden_infeasible, "d95d5baa52b98357"),
    ("exact-tie", _golden_exact_tie, "f4f745af57b1ea21"),
    ("deadline-met-exactly", _golden_deadline_met_exactly, "63332c735d982d9c"),
    ("lane-order", _golden_lane_order, "831e344ba95c71c7"),
]


@pytest.mark.parametrize("name,build,digest", ORACLE_GOLDEN,
                         ids=[case[0] for case in ORACLE_GOLDEN])
def test_exhaustive_matches_golden_digest(name, build, digest):
    res = exhaustive(*build(), GOLDEN_DVFS)
    key = (res.best_energy, sorted(res.best_assignment.items()), res.best_rho,
           res.feasible_count, res.enumerated)
    assert hashlib.sha256(repr(key).encode()).hexdigest()[:16] == digest
