"""Named invariant checks behind the `verify` CLI command.

Each check raises CheckFailed naming the first witness of a broken property
and otherwise returns its evidence as a dict. Every check runs at one fixed
scale, the acceptance suite's: deadline safety and backup separation each
take 500 generated instances. Backup separation holds each run to every rule
of `sim.audit`.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable

from . import baselines, gap, oracle, sim
from .model import DvfsConfig, FaultModel, FogNode, Phase
from .power import dynamic_power, scaled_vf, schedule_energy
from .reliability import FaultSampler, fault_probability, fault_rate_freq, reliability
from .workload import LENGTH_RANGE, MIPS_RANGE, WorkloadSpec, generate


class CheckFailed(Exception):
    """A checked property does not hold; the message names the witness."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _random_spec(rng: random.Random, tasks: tuple[int, int],
                 vms: tuple[int, int], slack: tuple[float, float],
                 horizon: float) -> WorkloadSpec:
    """A uniform-arrival spec; draws task count, VM count, horizon, seed."""
    return WorkloadSpec(
        n_tasks=rng.randint(*tasks),
        n_vms=rng.randint(*vms),
        slack_factor_range=slack,
        submit_mode="uniform",
        submit_horizon=rng.uniform(0.0, horizon),
        seed=rng.randrange(2**32),
    )


def check_equation_examples() -> dict:
    node = FogNode(id=1, mips=1000, bandwidth=0, ram=0, npe_slots=1,
                   v_max=1.2, f_max=1e9, activity=0.5, load_cap=2e-9)
    checks = [
        (dynamic_power(node, 1.2, 1e9), 1.44),
        (dynamic_power(node, *scaled_vf(node, 0.5)), 0.18),
        (fault_rate_freq(FaultModel(1e-6, 3.0, 0.5), 0.5), 1e-3),
        (reliability(1e-3, 1000.0), math.exp(-1.0)),
        (fault_probability(math.log(2), 1.0), 0.5),
    ]
    bad = [f"{got} != {want}" for got, want in checks
           if abs(got - want) > 1e-9 * abs(want)]
    _require(not bad, "; ".join(bad))
    return {"examples": len(checks)}


def check_cubic_power() -> dict:
    samples = 1000
    rng = random.Random(4242)
    worst = 0.0
    for _ in range(samples):
        node = FogNode(id=1, mips=1000, bandwidth=0, ram=0, npe_slots=1,
                       v_max=rng.uniform(0.5, 1.5), f_max=rng.uniform(1e8, 4e9),
                       activity=rng.uniform(0.01, 1.0),
                       load_cap=rng.uniform(1e-10, 1e-8))
        rho = rng.uniform(0.02, 1.0)
        full = dynamic_power(node, node.v_max, node.f_max)
        scaled = dynamic_power(node, *scaled_vf(node, rho))
        worst = max(worst, abs(scaled - rho**3 * full) / full)
    _require(worst <= 1e-12, f"max relative error {worst:.3e} above 1e-12")
    return {"pairs": samples, "worst": worst}


def check_deadline_safety() -> dict:
    instances = 500
    rng = random.Random(777)
    entries = 0
    for i in range(instances):
        inst = generate(_random_spec(rng, (1, 50), (1, 8), (1.2, 3.5), 6.0))
        deadlines = {t.id: t.deadline for t in inst.tasks}
        for sched in (gap.gap_schedule(inst.tasks, inst.nodes, inst.dvfs),
                      gap.wgap_schedule(inst.tasks, inst.nodes)):
            for e in sched.entries:
                _require(e.completion <= deadlines[e.task_id],
                         f"instance {i}: task {e.task_id} past deadline")
                entries += 1
            placed = {e.task_id for e in sched.entries}
            _require(not placed & set(sched.failed),
                     f"instance {i}: task both placed and failed")
            _require(placed | set(sched.failed) == set(deadlines),
                     f"instance {i}: task neither placed nor failed")
    return {"instances": instances, "entries": entries}


def check_backup_separation() -> dict:
    runs = 500
    rng = random.Random(888)
    fm = FaultModel(lambda0=1e-3, d=3.0, f_min=0.5)
    backups = 0
    for i in range(runs):
        inst = generate(_random_spec(rng, (2, 30), (2, 6), (1.5, 4.0), 4.0),
                        fault_model=fm)
        sched = gap.gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
        trace, rep = sim.run(sched, inst, fm, FaultSampler(f"acc4/{i}"))
        problems = sim.audit(sched, trace, inst, rep)
        if problems:
            raise CheckFailed(f"run {i}: {problems[0]}")
        backups += sum(s.phase is Phase.BACKUP for s in trace.segments)
    return {"runs": runs, "backups": backups}


def check_oracle_bounding() -> dict:
    instances = 200
    rng = random.Random(999)
    dvfs = DvfsConfig((0.6, 0.8, 1.0))
    ratios = []
    partial = 0
    for i in range(instances):
        inst = generate(_random_spec(rng, (1, 5), (1, 3), (1.5, 5.0), 2.0),
                        dvfs=dvfs)
        best = oracle.exhaustive(inst.tasks, inst.nodes, dvfs)
        sched = gap.gap_schedule(inst.tasks, inst.nodes, dvfs)
        if sched.failed:
            partial += 1  # heuristic dropped work; no energy bound applies
            continue
        _require(best.feasible, f"instance {i}: heuristic feasible, oracle not")
        energy = schedule_energy({n.id: n for n in inst.nodes}, sched.entries)
        _require(energy >= best.best_energy * (1 - 1e-9),
                 f"instance {i}: heuristic energy beat the oracle")
        ratios.append(energy / best.best_energy if best.best_energy > 0 else 1.0)
    ratios.sort()
    median = ratios[len(ratios) // 2] if ratios else float("nan")
    return {"instances": instances, "bounded": len(ratios), "partial": partial,
            "median": median}


def check_fault_statistics() -> dict:
    samples = 100_000
    points = [(1e-3, 250.0), (7e-4, 1000.0), (2.5e-3, 500.0)]
    worst = 0.0
    for k, (lam, t) in enumerate(points):
        p = fault_probability(lam, t)
        sampler = FaultSampler(f"acc11/{k}")
        hits = sum(1 for _ in range(samples) if sampler.sample(p)[0])
        worst = max(worst, abs(hits / samples - p))
    _require(worst <= 0.01, f"max |empirical - model| = {worst:.4f} above 0.01")

    calm = FaultModel(lambda0=0.0, d=3.0, f_min=0.5)
    inst = generate(WorkloadSpec(n_tasks=40, n_vms=8,
                                 slack_factor_range=(3.0, 6.0),
                                 submit_mode="uniform", submit_horizon=8.0,
                                 seed=31),
                    fault_model=calm)
    sched = gap.gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    _require(not sched.failed, "zero-fault workload not fully scheduled")
    _, rep = sim.run(sched, inst, calm, FaultSampler("acc11"))
    _require(rep.reliability_estimate == 1.0,
             f"reliability {rep.reliability_estimate} at zero fault rate")
    return {"points": len(points), "worst": worst}


def check_determinism() -> dict:
    spec = WorkloadSpec(n_tasks=40, n_vms=5, submit_mode="uniform",
                        submit_horizon=3.0, seed=77)
    fm = FaultModel(lambda0=1e-3, d=3.0, f_min=0.5)
    outputs = []
    for _ in range(2):
        inst = generate(spec, fault_model=fm)
        sched = gap.gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
        trace, rep = sim.run(sched, inst, fm, FaultSampler("det"))
        outputs.append((tuple(trace.events), rep))
    _require(outputs[0] == outputs[1], "replay diverged")
    return {"replays": len(outputs)}


def check_workload_ranges() -> dict:
    draws = 10_000
    inst = generate(WorkloadSpec(n_tasks=draws, n_vms=50, seed=9))
    ok = all(LENGTH_RANGE[0] <= t.length <= LENGTH_RANGE[1] for t in inst.tasks) \
        and all(MIPS_RANGE[0] <= n.mips <= MIPS_RANGE[1] for n in inst.nodes) \
        and all(1 <= t.npe <= 8 for t in inst.tasks)
    _require(ok, "value outside configured range")
    return {"draws": draws}


def check_baseline_shapes() -> dict:
    rng = random.Random(505)
    for i in range(20):
        inst = generate(_random_spec(rng, (1, 20), (1, 8), (1.2, 3.5), 6.0))
        for name, build in (
            ("fcfs", baselines.fcfs_schedule), ("sjf", baselines.sjf_schedule),
            ("rr", baselines.rr_schedule),
            ("pso", lambda t, n: baselines.pso_schedule(
                t, n, baselines.PsoConfig(swarm_size=6, iterations=5), seed=i)),
        ):
            sched = build(inst.tasks, inst.nodes)
            _require(len(sched.entries) + len(sched.failed) == len(inst.tasks),
                     f"{name}: not exactly one entry per task")
            _require(all(e.phase is Phase.PRIMARY for e in sched.entries),
                     f"{name}: emitted a backup entry")
            _require(all(e.rho == 1.0 for e in sched.entries),
                     f"{name}: ran below full speed")
    return {"instances": 20}


ALL_CHECKS: list[tuple[str, Callable[[], dict]]] = [
    ("equation-examples", check_equation_examples),
    ("power-cubic-identity", check_cubic_power),
    ("deadline-safety", check_deadline_safety),
    ("backup-separation", check_backup_separation),
    ("oracle-bounding", check_oracle_bounding),
    ("fault-statistics", check_fault_statistics),
    ("replay-determinism", check_determinism),
    ("workload-ranges", check_workload_ranges),
    ("baseline-shapes", check_baseline_shapes),
]


def _evidence(ev: dict) -> str:
    return " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in ev.items())


def run_all() -> list[tuple[str, bool, str, float]]:
    """(name, passed, detail, elapsed seconds) per check, in ALL_CHECKS order."""
    results = []
    for name, fn in ALL_CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = True, _evidence(fn())
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, (str(exc) if isinstance(exc, CheckFailed)
                                     else f"raised {type(exc).__name__}: {exc}")
        results.append((name, passed, detail, time.perf_counter() - t0))
    return results
