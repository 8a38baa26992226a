import math

import pytest

from fogsched.workload import (SWEEP_TASK_COUNTS, SWEEP_VM_COUNTS,
                               WorkloadSpec, generate, paper_sweep)


def test_generated_fields_stay_in_ranges():
    inst = generate(WorkloadSpec(n_tasks=10_000, n_vms=50, seed=9))
    assert all(1000 <= t.length <= 2000 for t in inst.tasks)
    assert all(1 <= t.npe <= 8 for t in inst.tasks)
    assert all(1000 <= n.mips <= 2000 for n in inst.nodes)
    assert all(t.deadline > t.submit_time >= 0 for t in inst.tasks)


def test_empty_task_list():
    inst = generate(WorkloadSpec(n_tasks=0, n_vms=3, seed=1))
    assert inst.tasks == [] and len(inst.nodes) == 3


def test_equal_seeds_identical_instances():
    spec = WorkloadSpec(n_tasks=200, n_vms=20, submit_mode="uniform",
                        submit_horizon=5.0, seed=123)
    a, b = generate(spec), generate(spec)
    assert a.tasks == b.tasks and a.nodes == b.nodes


def test_different_seeds_differ():
    a = generate(WorkloadSpec(n_tasks=50, n_vms=5, seed=1))
    b = generate(WorkloadSpec(n_tasks=50, n_vms=5, seed=2))
    assert a.tasks != b.tasks


def test_task_npe_clamped_to_largest_node():
    # One-slot nodes force every task's npe to 1.
    inst = generate(WorkloadSpec(n_tasks=100, n_vms=3, npe_range=(1, 1),
                                 seed=5))
    cap = max(n.npe_slots for n in inst.nodes)
    gen = generate(WorkloadSpec(n_tasks=100, n_vms=3, seed=5))
    assert all(t.npe <= max(n.npe_slots for n in gen.nodes) for t in gen.tasks)
    assert all(n.npe_slots == 1 for n in inst.nodes) and cap == 1


def test_node_profile_constants():
    inst = generate(WorkloadSpec(n_tasks=1, n_vms=5, seed=3))
    for n in inst.nodes:
        assert n.v_max == 1.2
        assert n.activity == 0.5
        assert n.load_cap == 2e-9
        assert n.ram == 256.0
        assert n.bandwidth == 1000.0
        assert n.f_max == n.mips * 1e6


def test_spec_validation():
    with pytest.raises(ValueError):
        generate(WorkloadSpec(n_tasks=-1, n_vms=1))
    with pytest.raises(ValueError):
        generate(WorkloadSpec(n_tasks=1, n_vms=1, npe_range=(5, 2)))
    with pytest.raises(ValueError):
        generate(WorkloadSpec(n_tasks=1, n_vms=1, submit_mode="poisson"))


def test_uniform_submits_respect_horizon():
    inst = generate(WorkloadSpec(n_tasks=500, n_vms=5, submit_mode="uniform",
                                 submit_horizon=4.0, seed=17))
    assert all(0.0 <= t.submit_time <= 4.0 for t in inst.tasks)
    assert max(t.submit_time for t in inst.tasks) > 3.0  # actually spread


def test_length_uniformity_chi_square():
    """Ten near-equal bins over 100,000 lengths; chi-square must not reject
    uniformity at the 0.001 level (critical value 27.877 at 9 dof)."""
    inst = generate(WorkloadSpec(n_tasks=100_000, n_vms=1, seed=99))
    values = 1001  # integers 1000..2000
    edges = [1000 + math.ceil(values * k / 10) for k in range(11)]
    observed = [0] * 10
    for t in inst.tasks:
        for b in range(10):
            if edges[b] <= t.length < edges[b + 1] or (b == 9 and t.length == 2000):
                observed[b] += 1
                break
    expected = [(edges[b + 1] - edges[b]) / values * 100_000 for b in range(10)]
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert chi2 < 27.877, f"chi-square {chi2:.2f} rejects uniformity"


def test_paper_sweep_contents():
    specs = paper_sweep(seeds=10, master_seed=0)
    shapes = {(s.n_tasks, s.n_vms) for s in specs}
    assert (1000, 100) in shapes
    assert len(specs) == (len(SWEEP_TASK_COUNTS) + len(SWEEP_VM_COUNTS)) * 10
    for n in SWEEP_TASK_COUNTS:
        assert (n, 100) in shapes
    for m in SWEEP_VM_COUNTS:
        assert (1000, m) in shapes


def test_paper_sweep_seed_derivation_rule():
    specs = paper_sweep(seeds=2, master_seed=42)
    assert all(str(s.seed).startswith("42/") for s in specs)
    assert all(str(s.seed).endswith(f"/{s.seed_index}") for s in specs)
    assert len({s.seed for s in specs}) == len(specs)


def test_sweep_points_draw_isolated_streams():
    specs = paper_sweep(seeds=2, master_seed=7)
    a = generate(specs[0])
    b = generate(specs[1])
    assert [t.length for t in a.tasks][:20] != [t.length for t in b.tasks][:20]
