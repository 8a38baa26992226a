import math
import random

import pytest

from conftest import make_node, make_task
from fogsched.model import DvfsConfig, FaultModel, Schedule
from fogsched.oracle import _place_candidate, exhaustive
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
        entries, ok = _place_candidate(inst.tasks, inst.nodes,
                                       res.best_assignment, res.best_rho)
        assert ok
        sched = Schedule(entries=entries, selected_rho=res.best_rho)
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
