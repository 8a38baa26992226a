import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_node, make_task
from fogsched import sim
from fogsched.gap import (GapState, _best_node, backup_table, edf_sort,
                          exec_time, gap_schedule, map_backups, map_primaries,
                          payoff, wgap_schedule)
from fogsched.model import (DvfsConfig, FaultModel, Phase, ScheduleEntry,
                            validate_instance)
from fogsched.oracle import exhaustive
from fogsched.power import schedule_energy
from fogsched.reliability import FaultSampler
from fogsched.workload import WorkloadSpec, generate

REL = 1e-9


def test_exec_time_examples():
    assert exec_time(make_task(length=1000), make_node(mips=1000), 1.0) == 1.0
    assert exec_time(make_task(length=1000), make_node(mips=1000), 0.5) == 2.0
    assert exec_time(make_task(length=2000), make_node(mips=2000), 1.0) == 1.0


def test_edf_sort_orders_by_deadline():
    tasks = [make_task(id=1, deadline=3.0), make_task(id=2, deadline=1.0),
             make_task(id=3, deadline=2.0)]
    assert [t.deadline for t in edf_sort(tasks)] == [1.0, 2.0, 3.0]


def test_edf_sort_tie_break_and_empty():
    tasks = [make_task(id=3, deadline=1.0, submit_time=0.0),
             make_task(id=1, deadline=1.0, submit_time=0.5),
             make_task(id=2, deadline=1.0, submit_time=0.0)]
    assert [t.id for t in edf_sort(tasks)] == [2, 3, 1]
    assert edf_sort([]) == []


def test_edf_sort_is_permutation():
    rng = random.Random(5)
    tasks = [make_task(id=i, deadline=rng.uniform(1, 9)) for i in range(40)]
    assert sorted(t.id for t in edf_sort(tasks)) == list(range(40))


def two_task_instance():
    # EDF order is (t2, t1); only assignments with t2 on the fast node are
    # fully feasible.
    t1 = make_task(id=1, length=1000, deadline=2.0)
    t2 = make_task(id=2, length=1500, deadline=1.0)
    n1 = make_node(id=1, mips=1000)
    n2 = make_node(id=2, mips=2000, f_max=2e9)
    return [t1, t2], [n1, n2]


def assignment(placed):
    return {tid: node_id for tid, node_id, _, _ in placed}


def test_payoff_infeasible_past_deadline():
    task = make_task(length=2000, deadline=1.0)
    node = make_node(mips=1000)
    state = GapState.fresh([node])
    assert payoff(task, node, 1.0, state) == -math.inf


def test_payoff_worked_example():
    # deadline 2, CT 1 at full speed: slack 0.5 minus energy ratio 1 = -0.5.
    task = make_task(length=1000, deadline=2.0)
    node = make_node(mips=1000)
    state = GapState.fresh([node])
    assert payoff(task, node, 1.0, state) == pytest.approx(-0.5, rel=REL)
    # At half speed CT lands on the deadline, so the slack term is 0 and the
    # payoff is minus the energy ratio alone: 0.5^3 power over 2x the time.
    assert payoff(task, node, 0.5, state) == pytest.approx(-0.25, rel=REL)


def test_payoff_prefers_smaller_exec_time():
    task = make_task(length=1000, deadline=3.0)
    slow = make_node(id=1, mips=1000)
    fast = make_node(id=2, mips=2000)  # same electrical profile
    state = GapState.fresh([slow, fast])
    assert payoff(task, fast, 1.0, state) > payoff(task, slow, 1.0, state)


def test_payoff_respects_npe_capacity():
    task = make_task(npe=4)
    node = make_node(npe_slots=2)
    state = GapState.fresh([node])
    assert payoff(task, node, 1.0, state) == -math.inf


def test_map_primaries_two_task_example():
    tasks, nodes = two_task_instance()
    placed, deferred, _ = map_primaries(edf_sort(tasks), nodes, 1.0,
                                        GapState.fresh(nodes))
    assert assignment(placed) == {2: 2, 1: 1}
    completion = {tid: start + ext for tid, _, start, ext in placed}
    assert completion[2] == pytest.approx(0.75, rel=REL)
    assert completion[1] == pytest.approx(1.0, rel=REL)
    assert not deferred

    # Cross-check against exhaustive enumeration: every fully feasible
    # assignment puts t2 on node 2.
    oracle = exhaustive(tasks, nodes, DvfsConfig((1.0,)))
    assert oracle.feasible
    assert oracle.best_assignment[2] == 2


def test_map_primaries_single_task_trivial():
    task = make_task(length=500, deadline=10.0)
    node = make_node()
    placed, _, _ = map_primaries([task], [node], 1.0, GapState.fresh([node]))
    assert assignment(placed) == {1: 1}


def test_map_primaries_impossible_task_joins_backup_queue():
    task = make_task(length=5000, deadline=1.0)  # 5 s on the best node
    nodes = [make_node(id=1), make_node(id=2)]
    placed, deferred, energy = map_primaries([task], nodes, 1.0,
                                             GapState.fresh(nodes))
    assert deferred == [1]
    assert not placed and energy == 0.0


def test_map_primaries_tie_breaks_lower_node_id():
    task = make_task(length=500, deadline=10.0)
    nodes = [make_node(id=2), make_node(id=1)]
    sched = gap_schedule([task], nodes, DvfsConfig((1.0,)))
    assert sched.assignment[1] == 1


def test_map_backups_excludes_primary_node():
    task = make_task(id=1, length=500, deadline=10.0)
    nodes = [make_node(id=1, mips=2000), make_node(id=2)]
    state = GapState.fresh(nodes)
    entry = map_backups(task, backup_table(nodes, 1.0), 1.0, state, 1, 0.0)
    assert entry.node_id == 2
    assert entry.phase is Phase.BACKUP
    assert state.node_free[2] == [entry.completion]


def test_map_backups_single_node_conflict_fails():
    task = make_task(id=1, length=500, deadline=10.0)
    nodes = [make_node(id=1)]
    state = GapState.fresh(nodes)
    assert map_backups(task, backup_table(nodes, 1.0), 1.0, state, 1, 0.0) is None


def test_map_backups_budget_too_small_fails():
    # The 1 s run detected at t=9 would meet the deadline of 10 exactly, but
    # it must fit strictly inside the 1 s left; a moment earlier it does.
    task = make_task(id=1, length=1000, deadline=10.0)
    nodes = [make_node(id=1), make_node(id=2)]
    state = GapState.fresh(nodes)
    assert map_backups(task, backup_table(nodes, 1.0), 1.0, state, 1, 9.0) is None
    entry = map_backups(task, backup_table(nodes, 1.0), 1.0, state, 1, 8.999)
    assert (entry.node_id, entry.start) == (2, 8.999)


def test_map_backups_prefers_greater_computing_power():
    task = make_task(id=1, length=500, deadline=100.0)
    slow = make_node(id=1, mips=1000)
    fast = make_node(id=2, mips=2000)
    state = GapState.fresh([slow, fast])
    table = backup_table([slow, fast], 1.0)
    assert map_backups(task, table, 1.0, state, None, 0.0).node_id == fast.id


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from([500.0, 1000.0, 1500.0, 2000.0]),
                               st.integers(1, 3), st.integers(0, 8)),
                     min_size=1, max_size=6),
       npe=st.integers(1, 3), length=st.integers(500, 4000),
       now=st.integers(0, 8).map(lambda q: q / 4), rho=st.sampled_from([0.6, 1.0]),
       exclude=st.one_of(st.none(), st.integers(1, 6)))
def test_backup_scan_stops_where_the_full_scan_finds_nothing_more(
        rows, npe, length, now, rho, exclude):
    """map_backups' kernel ends its scan at the first node too slow for the
    budget; over a descending-MIPS table that equals scanning only the
    nodes that fit."""
    nodes = [make_node(id=i + 1, mips=mips, npe_slots=slots)
             for i, (mips, slots, _) in enumerate(rows)]
    state = GapState.fresh(nodes)
    for node, (_, slots, busy) in zip(nodes, rows):
        state.occupy(node.id, slots, busy / 4)
    task = make_task(length=length, deadline=4.0, npe=npe)
    budget = task.deadline - now
    table = backup_table(nodes, rho)
    fits = [row for row in table if length / row[2] < budget]
    assert (_best_node(task, table, state, now, exclude, budget)
            == _best_node(task, fits, state, now, exclude))


def test_overflowed_run_time_does_not_end_the_primary_scan():
    # Node 1's run time overflows to inf; with no budget the scan must go on
    # to node 2, although the id-ordered table is not sorted by MIPS.
    task = make_task(id=1, length=1000, deadline=5.0)
    nodes = [make_node(id=1, mips=1e-310), make_node(id=2)]
    placed, deferred, _ = map_primaries([task], nodes, 1.0, GapState.fresh(nodes))
    assert (placed, deferred) == ([(1, 2, 0.0, 1.0)], [])


@settings(max_examples=80, deadline=None)
@given(n_tasks=st.integers(1, 60), n_vms=st.integers(1, 8),
       slack=st.floats(1.05, 3.5), horizon=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_deferred_task_has_no_static_backup(n_tasks, n_vms, slack, horizon, seed):
    """gap_schedule fails every deferred task without a backup pass. That is
    sound only while a deferred task, which missed its deadline on every
    node, cannot be placed as a backup over the lanes its level leaves."""
    inst = generate(WorkloadSpec(n_tasks=n_tasks, n_vms=n_vms,
                                 slack_factor_range=(1.05, slack),
                                 submit_mode="uniform", submit_horizon=horizon,
                                 seed=seed))
    by_id = {t.id: t for t in inst.tasks}
    for rho in inst.dvfs.levels:
        state = GapState.fresh(inst.nodes)
        _, deferred, _ = map_primaries(edf_sort(inst.tasks), inst.nodes, rho, state)
        table = backup_table(inst.nodes, rho)
        for tid in deferred:
            task = by_id[tid]
            assert map_backups(task, table, rho, state, None, task.submit_time) is None


def test_gap_schedule_selects_low_rho_when_feasible():
    task = make_task(length=600, deadline=10.0)
    node = make_node()
    dvfs = DvfsConfig((0.6, 1.0))
    sched = gap_schedule([task], [node], dvfs)
    assert sched.selected_rho == 0.6
    assert not sched.failed and sched.cp == 0


def test_gap_schedule_falls_back_to_full_speed():
    task = make_task(length=1000, deadline=1.05)
    node = make_node()
    sched = gap_schedule([task], [node], DvfsConfig((0.6, 1.0)))
    assert sched.selected_rho == 1.0
    assert not sched.failed and sched.cp == 0


def test_gap_schedule_empty_tasks():
    sched = gap_schedule([], [make_node()], DvfsConfig((0.6, 0.8, 1.0)))
    assert sched.entries == []
    assert sched.selected_rho == 0.6


def test_wgap_equals_gap_with_single_level():
    tasks, nodes = two_task_instance()
    assert wgap_schedule(tasks, nodes) == gap_schedule(tasks, nodes, DvfsConfig((1.0,)))


def test_wgap_energy_at_least_gap():
    task = make_task(length=600, deadline=10.0)
    node = make_node()
    nodes_by_id = {node.id: node}
    g = gap_schedule([task], [node], DvfsConfig((0.6, 1.0)))
    w = wgap_schedule([task], [node])
    assert w.selected_rho == 1.0
    assert schedule_energy(nodes_by_id, g.entries) \
        < schedule_energy(nodes_by_id, w.entries)


def _random_instance(rng, max_tasks=50, max_vms=8, slack=(1.2, 3.5)):
    spec = WorkloadSpec(n_tasks=rng.randint(1, max_tasks),
                        n_vms=rng.randint(1, max_vms),
                        slack_factor_range=slack,
                        submit_mode="uniform",
                        submit_horizon=rng.uniform(0.0, 6.0),
                        seed=rng.randrange(2**32))
    return generate(spec)


def test_deadline_safety_property():
    """No emitted entry may complete past its deadline."""
    rng = random.Random(23)
    for _ in range(60):
        inst = _random_instance(rng)
        for sched in (gap_schedule(inst.tasks, inst.nodes, inst.dvfs),
                      wgap_schedule(inst.tasks, inst.nodes)):
            deadlines = {t.id: t.deadline for t in inst.tasks}
            for e in sched.entries:
                assert e.completion <= deadlines[e.task_id]


def test_counter_consistency_property():
    rng = random.Random(29)
    for _ in range(40):
        inst = _random_instance(rng)
        sched = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
        assert sched.cp == len(sched.backup_list)
        assert sched.cb == len(sched.failed)
        placed = {e.task_id for e in sched.entries}
        assert not placed & set(sched.failed)
        assert placed | set(sched.failed) == {t.id for t in inst.tasks}


def test_phase_one_processes_in_deadline_order():
    rng = random.Random(31)
    tasks = [make_task(id=i, deadline=rng.uniform(5, 50), length=100)
             for i in range(30)]
    nodes = [make_node(id=1, npe_slots=1)]
    placed, _, _ = map_primaries(edf_sort(tasks), nodes, 1.0, GapState.fresh(nodes))
    # Single slot: start order mirrors processing order.
    starts = {tid: start for tid, _, start, _ in placed}
    processed = sorted(starts, key=lambda tid: starts[tid])
    deadlines = [next(t.deadline for t in tasks if t.id == tid) for tid in processed]
    assert deadlines == sorted(deadlines)


def test_idle_uniform_power_choice_minimizes_exec_time():
    """With idle nodes sharing one electrical profile, the payoff argmax is
    the minimum execution time node at every level."""
    rng = random.Random(37)
    for _ in range(20):
        nodes = [make_node(id=j + 1, mips=rng.randint(1000, 2000))
                 for j in range(4)]
        task = make_task(length=rng.randint(1000, 2000), deadline=1e9)
        for rho in (0.6, 0.8, 1.0):
            placed, _, _ = map_primaries([task], nodes, rho, GapState.fresh(nodes))
            chosen = assignment(placed)[task.id]
            best_ext = min(exec_time(task, n, rho) for n in nodes)
            chosen_node = next(n for n in nodes if n.id == chosen)
            assert exec_time(task, chosen_node, rho) == best_ext


def test_dvfs_dominance_property():
    """At equal (failed, deferred) counts the DVFS pick never costs more
    energy than the full-speed pick."""
    rng = random.Random(41)
    for _ in range(30):
        inst = _random_instance(rng, max_tasks=25)
        nodes_by_id = {n.id: n for n in inst.nodes}
        g = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
        w = wgap_schedule(inst.tasks, inst.nodes)
        if (len(g.failed), g.cp) == (len(w.failed), w.cp):
            eg = schedule_energy(nodes_by_id, g.entries)
            ew = schedule_energy(nodes_by_id, w.entries)
            assert eg <= ew * (1 + 1e-12)


def test_scheduling_is_deterministic_under_permutation():
    rng = random.Random(43)
    inst = _random_instance(rng, max_tasks=30)
    sched_a = gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    shuffled = inst.tasks[:]
    rng.shuffle(shuffled)
    nodes = inst.nodes[:]
    rng.shuffle(nodes)
    sched_b = gap_schedule(shuffled, nodes, inst.dvfs)
    assert sched_a == sched_b


def test_map_primaries_agrees_with_scalar_payoff():
    """Replaying the greedy phase with the scalar payoff reference (argmax
    value, ties by energy then node id) must reproduce the mapper's exact
    placements, and its energy must be what power.schedule_energy prices
    for their entries."""
    from fogsched.power import active_power

    rng = random.Random(53)
    for _ in range(20):
        inst = _random_instance(rng, max_tasks=12, max_vms=5)
        for rho in (0.6, 1.0):
            fast, _, total = map_primaries(edf_sort(inst.tasks), inst.nodes, rho,
                                           GapState.fresh(inst.nodes))

            ref_state = GapState.fresh(inst.nodes)
            entries = []
            for task in edf_sort(inst.tasks):
                best = None
                for node in sorted(inst.nodes, key=lambda n: n.id):
                    value = payoff(task, node, rho, ref_state)
                    if value == -math.inf:
                        continue
                    energy = active_power(node, rho) * exec_time(task, node, rho)
                    if best is None or value > best[0] \
                            or (value == best[0] and energy < best[1]):
                        best = (value, energy, node)
                if best is None:
                    continue
                node = best[2]
                lane = ref_state.node_free[node.id][task.npe - 1]
                start = max(lane, task.submit_time)
                ext = exec_time(task, node, rho)
                entries.append((task.id, node.id, start, ext))
                ref_state.occupy(node.id, task.npe, start + ext)
            assert fast == entries
            assert total == schedule_energy(
                {n.id: n for n in inst.nodes},
                [ScheduleEntry.make(tid, node_id, start, ext, rho)
                 for tid, node_id, start, ext in fast])


def test_node_choice_tie_breaks():
    task = make_task(length=1000, deadline=10.0)
    cheap = make_node(id=1, mips=1000, load_cap=1e-9)
    fast = make_node(id=2, mips=2000, load_cap=8e-9)
    # The sooner completion of the faster node wins on slack.
    sched = gap_schedule([task], [cheap, fast], DvfsConfig((1.0,)))
    assert sched.assignment[1] == 2
    # Equal MIPS give equal slack, and at full speed the energy term is 1 on
    # every node (it is normalized per node), so payoffs tie; the
    # absolute-energy tie-break wins over node order and picks the cheaper
    # node with the higher id.
    pricey = make_node(id=1, load_cap=8e-9)
    frugal = make_node(id=2, load_cap=1e-9)
    sched = gap_schedule([task], [pricey, frugal], DvfsConfig((1.0,)))
    assert sched.assignment[1] == 2
    # Fully identical nodes fall through to the lower id.
    twins = [make_node(id=1), make_node(id=2)]
    sched = gap_schedule([task], twins, DvfsConfig((1.0,)))
    assert sched.assignment[1] == 1


def _golden_instance(tasks, nodes, fm, dvfs=DvfsConfig((0.6, 0.7, 0.8, 0.9, 1.0))):
    return validate_instance(tasks, nodes, dvfs, fm)


def _golden_generated(fm=FaultModel(lambda0=1e-6, d=3.0, f_min=0.5), **kw):
    return generate(WorkloadSpec(**kw), fault_model=fm)


def _golden_multi_slot():
    """Nodes of 1, 2, 4 and 8 slots; npe 1-8, so wide tasks fit one node."""
    nodes = [make_node(id=1, mips=1500.0, npe_slots=1),
             make_node(id=2, mips=1100.0, npe_slots=2),
             make_node(id=3, mips=1800.0, npe_slots=4),
             make_node(id=4, mips=1300.0, npe_slots=8)]
    npes = [1, 3, 2, 5, 4, 1, 8, 2, 1, 4, 3, 1, 6, 7]
    tasks = [make_task(id=i + 1, length=1000 + 97 * i, npe=npe,
                       submit_time=0.05 * (i % 4), deadline=1.0 + 0.3 * i)
             for i, npe in enumerate(npes)]
    return _golden_instance(tasks, nodes, FaultModel(1e-3, 3.0, 0.5))


def _golden_all_deferred():
    """No task fits its window on any node at any level."""
    tasks = [make_task(id=i, length=4000 + 10 * i, deadline=1.0 + 0.1 * i)
             for i in range(1, 7)]
    nodes = [make_node(id=1), make_node(id=2, mips=2000.0, f_max=2e9)]
    return _golden_instance(tasks, nodes, FaultModel(1e-3, 3.0, 0.5))


def _golden_budget_met_exactly():
    """A certain fault on a unit primary: detected at its completion (t=1)
    the backup's 1 s run equals the 1 s budget left and is refused, while
    its completion would meet the deadline exactly."""
    tasks = [make_task(id=1, length=1000, deadline=2.0),
             make_task(id=2, length=1000, deadline=4.0)]
    nodes = [make_node(id=1), make_node(id=2)]
    return _golden_instance(tasks, nodes, FaultModel(1e9, 3.0, 0.5))


def _golden_deadline_met_exactly():
    """Completions land exactly on deadlines at full speed."""
    tasks = [make_task(id=1, length=2000, deadline=1.0),
             make_task(id=2, length=1000, deadline=1.0),
             make_task(id=3, length=1000, deadline=1.5)]
    nodes = [make_node(id=1), make_node(id=2, mips=2000.0, f_max=2e9)]
    return _golden_instance(tasks, nodes, FaultModel(1e-6, 3.0, 0.5))


STORM = FaultModel(lambda0=0.5, d=3.0, f_min=0.5)

# Fixed digests of gap_schedule, wgap_schedule and sim.run output (both
# detection modes, so runtime map_backups runs). A rewrite of the payoff
# mapper or the simulator must reproduce them bit for bit.
GAP_GOLDEN = [
    ("one-vm", lambda: _golden_generated(n_tasks=12, n_vms=1, seed=1,
                                         fm=FaultModel(1e-3, 3.0, 0.5)),
     "8ae6b37e8be6a8a9", "131a62f587280d9e"),
    ("multi-slot", _golden_multi_slot, "f08f75b567e5f7a8", "d8645a1d7d403010"),
    ("all-deferred", _golden_all_deferred, "8efdef146e357883", "14b7bff6373f19ef"),
    ("budget-met-exactly", _golden_budget_met_exactly,
     "f6bbf1a0a46648c9", "1e476c2740cf872b"),
    ("deadline-met-exactly", _golden_deadline_met_exactly,
     "dbaf55c321b9dbff", "49cee117e0ea54a3"),
    ("lambda-0.5", lambda: _golden_generated(
        n_tasks=60, n_vms=6, seed=5, submit_mode="uniform", submit_horizon=2.0,
        fm=STORM), "76ab6b6c14bab189", "034d4cef49c93ba1"),
    ("lambda-0.5-tight", lambda: _golden_generated(
        n_tasks=120, n_vms=10, seed=6, submit_mode="uniform",
        submit_horizon=0.4, slack_factor_range=(1.05, 1.6), fm=STORM),
     "a8ea1ae2f4c58bc9", "d1c35336aaec1197"),
    ("default-faults", lambda: _golden_generated(
        n_tasks=40, n_vms=5, seed=7, submit_mode="uniform", submit_horizon=3.0),
     "26c4fcc13fdf8386", "c9a48781a09bbcf5"),
]


def _sched_key(sched):
    return ([(e.task_id, e.node_id, e.start, e.exec_time, e.completion, e.rho,
              e.phase.value) for e in sched.entries],
            sorted(sched.assignment.items()), sched.selected_rho,
            sched.backup_list, sched.failed, sched.cp, sched.cb)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _golden_digests(inst, name):
    scheds = (gap_schedule(inst.tasks, inst.nodes, inst.dvfs, inst.fault_model),
              wgap_schedule(inst.tasks, inst.nodes, inst.fault_model))
    runs = []
    for sched in scheds:
        for detection in sim.DETECTION_MODES:
            trace, rep = sim.run(sched, inst, inst.fault_model,
                                 FaultSampler(f"golden/{name}"), detection)
            runs.append(([(e.time, e.kind.value, e.task_id, e.node_id)
                          for e in trace.events],
                         sorted((t, s.value) for t, s in trace.status.items()),
                         [(s.task_id, s.node_id, s.start, s.exec_time,
                           s.completion, s.phase.value) for s in trace.segments],
                         dataclasses.astuple(rep)))
    return _digest([_sched_key(s) for s in scheds]), _digest(runs)


@pytest.mark.parametrize("name,build,sched_digest,sim_digest", GAP_GOLDEN,
                         ids=[case[0] for case in GAP_GOLDEN])
def test_gap_matches_golden_digest(name, build, sched_digest, sim_digest):
    assert _golden_digests(build(), name) == (sched_digest, sim_digest)
