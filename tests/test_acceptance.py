"""End-to-end acceptance suite: one test per shipping criterion, each
printing a PASS line with its measured evidence (visible with -s)."""

import hashlib
import math
import statistics
import time

import pytest

from conftest import make_node, make_task, waits_and_completions
from fogsched import checks
from fogsched.cli import ExperimentConfig, run_experiment
from fogsched.gap import edf_sort, exec_time, fresh_lanes, gap_schedule, payoff
from fogsched.model import DvfsConfig, FaultModel, ScheduleEntry
from fogsched.power import dynamic_power, entry_energy, scaled_vf
from fogsched.reliability import (FaultSampler, cpb_exec_time,
                                  fault_probability, fault_rate_freq,
                                  fault_rate_volt, reliability)
from fogsched.sim import run
from fogsched.workload import WorkloadSpec, generate

ALGOS = ("gap", "wgap", "fcfs", "sjf", "rr", "pso")
BASELINES = ("fcfs", "sjf", "rr", "pso")


def note(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


# -- shared full-sweep run (criteria 6, 7, 8, 10) ---------------------------

@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_a")
    cfg = ExperimentConfig(algorithms=ALGOS, sweep="paper", seeds=10,
                           output_dir=str(out), emit=("csv", "svg"), master_seed=2024)
    t0 = time.perf_counter()
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return rows, out / "results.csv", elapsed


# Fixed sha256 prefixes of the sweep's outputs: results.csv with its wall_ms
# column dropped, and each chart. A change that moves every number the same
# way in two runs passes criterion 10 but not this.
SWEEP_GOLDEN = {
    "results.csv": "9e7136440a18cbd8",
    "act_vs_tasks.svg": "d618557631d886b6",
    "act_vs_vms.svg": "a7abd48a4b509a74",
    "awt_vs_tasks.svg": "8499ed6b13355087",
    "awt_vs_vms.svg": "f8a1ce4ba4e3ab7a",
    "energy_vs_tasks.svg": "eb60e41527703b2a",
    "energy_vs_vms.svg": "0c3230ab1b3b2546",
    "power_vs_tasks.svg": "84501aacc4c2ac34",
    "power_vs_vms.svg": "0e1650669cf17063",
}


def _failures(row):
    # reliability = (n - failed) / n with n*reliability exactly representable
    return row["n_tasks"] - round(row["reliability_estimate"] * row["n_tasks"])


def _cells(rows):
    """index rows by (scenario, seed) -> algorithm -> row"""
    cells = {}
    for r in rows:
        cells.setdefault((r["scenario_id"], r["seed"]), {})[r["algorithm"]] = r
    return cells


def _scenario_mean(rows, scenario, algorithm, column):
    vals = [r[column] for r in rows
            if r["scenario_id"] == scenario and r["algorithm"] == algorithm
            and r[column] is not None]
    return statistics.mean(vals)


def test_c01_equation_unit_suite():
    t0 = time.perf_counter()
    node = make_node()  # alpha 0.5, C_L 2e-9, 1.2 V, 1 GHz
    approx = lambda got, want: got == pytest.approx(want, rel=1e-9)

    assert approx(dynamic_power(node, 1.2, 1e9), 1.44)
    assert dynamic_power(make_node(activity=0.0), 1.2, 1e9) == 0.0
    assert approx(dynamic_power(node, *scaled_vf(node, 0.5)), 0.18)
    wide = make_node(v_max=1.2, f_max=2e9)
    assert scaled_vf(wide, 1.0) == (1.2, 2e9)
    assert approx(scaled_vf(wide, 0.8)[0], 0.96)
    assert approx(scaled_vf(wide, 0.8)[1], 1.6e9)
    assert approx(entry_energy(node, ScheduleEntry.make(1, 1, 0.0, 2.0, 1.0)), 2.88)
    assert entry_energy(node, ScheduleEntry.make(1, 1, 0.0, 0.0, 1.0)) == 0.0

    fm = FaultModel(1e-6, 3.0, 0.5)
    assert fault_rate_freq(fm, 1.0) == 1e-6
    assert approx(fault_rate_freq(fm, 0.5), 1e-3)
    assert approx(fault_rate_freq(fm, 0.75), 1e-6 * 10**1.5)
    volt_fm = FaultModel(1e-6, 0.1, 0.5)
    assert fault_rate_volt(volt_fm, node, 1.2) == 1e-6
    assert approx(fault_rate_volt(volt_fm, node, 1.1), 1e-5)
    assert reliability(1.0, 0.0) == 1.0
    assert approx(reliability(1e-3, 1000.0), math.exp(-1))
    assert approx(reliability(math.log(2), 1.0), 0.5)
    assert fault_probability(1.0, 0.0) == 0.0
    assert approx(fault_probability(math.log(2), 1.0), 0.5)
    assert approx(reliability(0.3, 2.0) + fault_probability(0.3, 2.0), 1.0)
    assert cpb_exec_time(1.0, 0.0) == 1.0
    assert approx(cpb_exec_time(0.4, 1.2), 1.6)
    assert cpb_exec_time(0.0, 0.0) == 0.0

    assert exec_time(make_task(length=1000), make_node(mips=1000), 1.0) == 1.0
    assert exec_time(make_task(length=1000), make_node(mips=1000), 0.5) == 2.0
    assert exec_time(make_task(length=2000), make_node(mips=2000), 1.0) == 1.0
    tasks = [make_task(id=i, deadline=d) for i, d in ((1, 3.0), (2, 1.0), (3, 2.0))]
    assert [t.deadline for t in edf_sort(tasks)] == [1.0, 2.0, 3.0]
    task = make_task(length=1000, deadline=2.0)
    assert approx(payoff(task, node, 1.0, fresh_lanes([node])), -0.5)

    # one simulated queue: three unit tasks on one node wait 0, 1, 2 seconds
    q = [make_task(id=i, length=1000, deadline=90.0) for i in (1, 2, 3)]
    from fogsched.baselines import fcfs_schedule
    from fogsched.model import Instance
    inst = Instance(q, [node], DvfsConfig((1.0,)), FaultModel(0.0, 3.0, 0.5))
    trace, rep = run(fcfs_schedule(q, [node]), inst, inst.fault_model, FaultSampler(1))
    assert sorted(waits_and_completions(trace, inst)[0].values()) == [0.0, 1.0, 2.0]
    assert approx(rep.avg_completion, 2.0)
    assert approx(rep.avg_wait, 1.0)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    note(1, f"equation worked examples at 1e-9 relative in {elapsed:.2f} s")


def test_c02_cubic_power_identity():
    t0 = time.perf_counter()
    ev = checks.check_cubic_power()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    note(2, f"{ev['pairs']} random (node, rho) pairs, max rel err {ev['worst']:.2e}, "
            f"{elapsed:.2f} s")


def test_c03_deadline_safety_500_instances():
    t0 = time.perf_counter()
    ev = checks.check_deadline_safety()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    note(3, f"{ev['instances']} instances, {ev['entries']} entries, zero deadline "
            f"violations, {elapsed:.1f} s")


def test_c04_backup_separation_500_fault_runs():
    t0 = time.perf_counter()
    ev = checks.check_backup_separation()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert ev["backups"] > 100  # the fault rate must actually exercise recovery
    note(4, f"{ev['runs']} runs at lambda0=1e-3, {ev['backups']} backup executions, "
            f"all on distinct nodes, {elapsed:.1f} s")


def test_c05_oracle_bounding_200_instances():
    t0 = time.perf_counter()
    ev = checks.check_oracle_bounding()
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert ev["bounded"] > 0
    note(5, f"{ev['instances']} instances: {ev['bounded']} bounded, {ev['partial']} "
            f"with deferred work, median energy ratio {ev['median']:.4f}, "
            f"{elapsed:.1f} s")


@pytest.mark.slow
def test_c06_energy_dominance_on_sweep(sweep):
    rows, _, elapsed = sweep
    assert elapsed < 600.0
    scenarios = sorted({r["scenario_id"] for r in rows})
    cells = _cells(rows)

    # GAP <= WGAP wherever per-cell failure counts match, in every scenario.
    for scenario in scenarios:
        gap_e, wgap_e = [], []
        for (sc, seed), algs in cells.items():
            if sc != scenario:
                continue
            if _failures(algs["gap"]) == _failures(algs["wgap"]):
                gap_e.append(algs["gap"]["total_energy_j"])
                wgap_e.append(algs["wgap"]["total_energy_j"])
        assert gap_e, f"{scenario}: no equal-failure cells to compare"
        assert statistics.mean(gap_e) <= statistics.mean(wgap_e) * (1 + 1e-12), scenario

    # GAP strictly below every baseline in at least 90% of cells.
    shares = {}
    for baseline in BASELINES:
        wins = sum(1 for algs in cells.values()
                   if algs["gap"]["total_energy_j"] < algs[baseline]["total_energy_j"])
        shares[baseline] = wins / len(cells)
        assert shares[baseline] >= 0.90, (baseline, shares[baseline])
    share_txt = ", ".join(f"{b}={100 * s:.0f}%" for b, s in shares.items())
    note(6, f"GAP<=WGAP in {len(scenarios)}/9 scenarios; strict wins: {share_txt}; "
            f"sweep ran {elapsed:.0f} s")


@pytest.mark.slow
def test_c07_wait_time_trend_on_sweep(sweep):
    rows, _, _ = sweep
    scenarios = sorted({r["scenario_id"] for r in rows})
    wins = 0
    reductions = {b: [] for b in BASELINES}
    for scenario in scenarios:
        gap_awt = _scenario_mean(rows, scenario, "gap", "awt_s")
        below_all = True
        for baseline in BASELINES:
            base_awt = _scenario_mean(rows, scenario, baseline, "awt_s")
            reductions[baseline].append(100.0 * (base_awt - gap_awt) / base_awt)
            if gap_awt >= base_awt:
                below_all = False
        wins += below_all
    share = wins / len(scenarios)
    assert share >= 0.90, f"GAP wait below all baselines in only {share:.0%}"
    achieved = {b: statistics.mean(v) for b, v in reductions.items()}
    txt = ", ".join(f"{b}: {v:.0f}%" for b, v in achieved.items())
    note(7, f"GAP mean wait below every baseline in {wins}/{len(scenarios)} "
            f"scenarios; mean reductions {txt} (reference claims: 31-41%)")


@pytest.mark.slow
def test_c08_more_vms_cut_wait_for_every_algorithm(sweep):
    rows, _, _ = sweep
    gaps = {}
    for algorithm in ALGOS:
        few = _scenario_mean(rows, "vms020", algorithm, "awt_s")
        many = _scenario_mean(rows, "vms100", algorithm, "awt_s")
        assert many < few, (algorithm, many, few)
        gaps[algorithm] = (few, many)
    txt = ", ".join(f"{a}: {f:.2f}->{m:.2f}s" for a, (f, m) in gaps.items())
    note(8, f"mean wait at 1000 tasks falls from 20 to 100 VMs for every "
            f"algorithm ({txt})")


def test_c09_scheduling_time_scales_subquadratically():
    t0 = time.perf_counter()
    level = DvfsConfig((1.0,))

    def bench(n):
        spec = WorkloadSpec(n_tasks=n, n_vms=50, slack_factor_range=(6.0, 9.0),
                            submit_mode="uniform", submit_horizon=n / 55.0,
                            seed=f"bench/{n}")
        inst = generate(spec)
        times = []
        for _ in range(5):
            t1 = time.perf_counter()
            gap_schedule(inst.tasks, inst.nodes, level)
            times.append(time.perf_counter() - t1)
        return statistics.median(times)

    t10 = bench(10_000)
    t20 = bench(20_000)
    ratio = t20 / t10
    elapsed = time.perf_counter() - t0
    assert ratio < 3.0, f"doubling tasks scaled time by {ratio:.2f}"
    assert elapsed < 120.0
    note(9, f"per-level scheduling: 10k tasks {t10 * 1e3:.0f} ms, 20k tasks "
            f"{t20 * 1e3:.0f} ms, ratio {ratio:.2f} < 3, {elapsed:.0f} s")


@pytest.mark.slow
def test_c10_sweep_is_byte_deterministic(sweep, tmp_path):
    rows_a, csv_a, first_elapsed = sweep
    cfg = ExperimentConfig(algorithms=ALGOS, sweep="paper", seeds=10,
                           output_dir=str(tmp_path), emit=("csv",),
                           master_seed=2024)
    t0 = time.perf_counter()
    run_experiment(cfg)
    second_elapsed = time.perf_counter() - t0

    def drop_wall(path):
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",wall_ms")
        return ["," .join(line.split(",")[:-1]) for line in lines]

    assert drop_wall(csv_a) == drop_wall(tmp_path / "results.csv")
    total = first_elapsed + second_elapsed
    assert total < 1200.0
    note(10, f"two full sweeps byte-identical outside wall_ms "
             f"({len(rows_a)} rows, {total:.0f} s total)")


@pytest.mark.slow
def test_sweep_matches_golden_digests(sweep):
    _, csv_path, _ = sweep
    out = csv_path.parent
    lines = csv_path.read_text().splitlines()
    assert lines[0].endswith(",wall_ms")
    stable = "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()
    got = {"results.csv": stable}
    got.update((p.name, p.read_bytes()) for p in out.glob("*.svg"))
    assert {name: hashlib.sha256(data).hexdigest()[:16]
            for name, data in got.items()} == SWEEP_GOLDEN
    note(10, f"results.csv outside wall_ms and {len(got) - 1} charts match their "
             "golden digests")


def test_c11_fault_model_statistics():
    t0 = time.perf_counter()
    ev = checks.check_fault_statistics()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    note(11, f"empirical fault frequency within {ev['worst']:.4f} of 1-e^(-lt) at "
             f"{ev['points']} points; reliability exactly 1 at zero fault rate, "
             f"{elapsed:.1f} s")
