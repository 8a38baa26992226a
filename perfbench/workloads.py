"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed in set-up, runs one
timed pass over them in `body`, and audits a pass's outputs outside the
timed region. `body(lap)` calls `lap()` at the end of each unit of work
(a call, schedule, simulation or instance), so the runner can time every unit of a pass; the
units of two passes over the same inputs line up one to one. All calls go
through fogsched module attributes so the traced run can wrap them. One
client runs every pass on one thread: the next cell starts when the
previous one ends.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from fogsched import baselines, cli, gap, oracle, sim, workload
from fogsched.model import (DvfsConfig, FaultModel, dumps_instance, load_instance,
                             save_instance)
from fogsched.reliability import FaultSampler

import audit

DETECTIONS = ("immediate", "at_completion")


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _no_lap() -> None:
    """lap for untimed runs (warm-up)."""


def _balanced(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count values cycling through lo..hi, in seeded order."""
    values = [lo + i % (hi - lo + 1) for i in range(count)]
    rng.shuffle(values)
    return values


def _audit_run_dir(rows, out: Path, charts: list[str], n_rows: int,
                   shapes=None) -> tuple[list[list[str]], str]:
    """Audit one run_experiment call's rows and files, then delete the
    files so that the next pass must write them again. Returns one problem
    list per row and the digest of results.csv without wall_ms."""
    problems = audit.sweep_rows(rows, shapes)
    csv_path = out / "results.csv"
    missing = [p.name for p in [csv_path, *(out / c for c in charts)] if not p.is_file()]
    if missing or len(rows) != n_rows:
        whole = f"{len(rows)} rows; missing files {missing}"
        problems = [p + [whole] for p in problems] or [[whole]]
    digest = audit.results_digest(str(csv_path)) if csv_path.is_file() else ""
    for name in ["results.csv", *charts]:
        (out / name).unlink(missing_ok=True)
    return problems, digest


def _report_key(rep, trace) -> tuple:
    return (rep.total_energy, rep.avg_completion, rep.avg_wait, rep.avg_power,
            rep.cp, rep.cb, rep.missed_deadlines, rep.reliability_estimate,
            len(trace.events))


class PaperSweep:
    """cli.run_experiment on the one-seed paper sweep, all six algorithms,
    writing results.csv and the SVG charts. Units are result rows (cells).

    Not in BENCHMARK.json: the sweep is one call of 20-35 s, too long a
    unit to time steadily on a shared host. Kept for manual runs of the
    sweep users run end to end; mini-sweep times the same path.
    """

    name = "paper-sweep"
    CHARTS = [f"{m}_vs_{f}.svg" for f in ("tasks", "vms")
              for m in ("energy", "act", "awt", "power")]

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out / self.name

    def build(self) -> None:
        self.cfg = cli.ExperimentConfig(
            algorithms=cli.ALGORITHMS, sweep="paper", seeds=1,
            master_seed=self.seed, output_dir=str(self.out / "sweep"),
            emit=("csv", "svg"))

    def warm_up(self) -> None:
        tiny = workload.WorkloadSpec(n_tasks=30, n_vms=5, submit_mode="uniform",
                                     submit_horizon=0.1)
        cli.run_experiment(cli.ExperimentConfig(
            algorithms=cli.ALGORITHMS, workload=tiny, master_seed=self.seed,
            output_dir=str(self.out / "warm-up"), emit=("csv",)))

    def body(self, lap):
        """One unit: the sweep is a single run_experiment call."""
        return cli.run_experiment(self.cfg)

    def audit(self, rows) -> tuple[list[list[str]], str]:
        return _audit_run_dir(rows, Path(self.cfg.output_dir), self.CHARTS,
                              9 * len(cli.ALGORITHMS))

    def input_digest(self) -> str:
        return _sha(dumps_instance(workload.generate(spec))
                    for spec in workload.paper_sweep(1, self.seed))


class MiniSweep:
    """cli.run_experiment on INSTANCES small saved instances, one call each,
    as `fogsched run --instance FILE --emit csv,svg` runs it: all six
    algorithms, results.csv and the four task-axis SVG charts per call. PSO
    does most of the work. Units are calls; audited units are result rows.

    Task counts cycle through 6..13 on n // 5 VMs (at least 1), each once
    per seed, so a call takes about 30 ms: short enough to time steadily,
    where the paper sweep's single call is not.
    """

    name = "mini-sweep"
    INSTANCES = 8
    TASKS = (6, 13)
    CHARTS = [f"{m}_vs_tasks.svg" for m in ("energy", "act", "awt", "power")]

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out / self.name / f"seed{seed}"

    def _configs(self, rng: random.Random, count: int, tag: str) -> list:
        """Saves count instances (file stem tasks<n>, the scenario name the
        charts read their axis from) and returns their configs."""
        cfgs = []
        for i, n in enumerate(_balanced(rng, count, *self.TASKS)):
            inst = workload.generate(workload.WorkloadSpec(
                n_tasks=n, n_vms=max(1, n // 5), submit_mode="uniform",
                submit_horizon=rng.uniform(0.0, 2.0), seed=rng.randrange(2**32)))
            run_dir = self.out / tag / str(i)
            run_dir.mkdir(parents=True, exist_ok=True)
            path = run_dir / f"tasks{n}.json"
            save_instance(inst, str(path))
            cfgs.append(cli.ExperimentConfig(
                instance_path=str(path), output_dir=str(run_dir),
                emit=("csv", "svg"), master_seed=self.seed))
        return cfgs

    def build(self) -> None:
        self.cfgs = self._configs(random.Random(f"{self.seed}/{self.name}"),
                                  self.INSTANCES, "runs")

    def warm_up(self) -> None:
        for cfg in self._configs(random.Random(f"{self.seed}/warm-up"), 2, "warm-up"):
            cli.run_experiment(cfg)

    def body(self, lap):
        outputs = []
        for cfg in self.cfgs:
            outputs.append(cli.run_experiment(cfg))
            lap()
        return outputs

    def audit(self, outputs) -> tuple[list[list[str]], str]:
        problems, digests = [], []
        for cfg, rows in zip(self.cfgs, outputs):
            path = Path(cfg.instance_path)
            inst = load_instance(str(path))
            shapes = {path.stem: (len(inst.tasks), len(inst.nodes))}
            found, digest = _audit_run_dir(rows, path.parent, self.CHARTS,
                                           len(cli.ALGORITHMS), shapes)
            problems += found
            digests.append(digest)
        return problems, _sha(digests)

    def input_digest(self) -> str:
        return _sha(Path(cfg.instance_path).read_text(encoding="utf-8")
                    for cfg in self.cfgs)


class FaultStorm:
    """High-fault instances, COPIES each of 400 tasks on 20 VMs and 800
    tasks on 40 VMs; GAP and FCFS schedules each simulated under both
    fault-detection modes. Units are each schedule and each simulation;
    audited units are (instance, algorithm, detection) cells.

    The sizes keep every unit within tens of milliseconds, so each unit's
    fastest repeat is steady on a shared host, while the simulator's cost
    per event still grows with the task count (ROADMAP item 4). The copies
    even out how many faults a seed draws.
    """

    name = "fault-storm"
    FAULTS = FaultModel(lambda0=0.5, d=3.0, f_min=0.5)
    SIZES = ((400, 20), (800, 40))
    COPIES = 3
    ARRIVALS_PER_SECOND = 300.0

    def __init__(self, seed: int, out: Path):
        self.seed = seed

    def _instances(self, sizes, copies: int, tag: str) -> list:
        return [workload.generate(
            workload.WorkloadSpec(n_tasks=n, n_vms=m, submit_mode="uniform",
                                  submit_horizon=n / self.ARRIVALS_PER_SECOND,
                                  seed=f"{self.seed}/{self.name}/{tag}{n}/{k}"),
            fault_model=self.FAULTS) for n, m in sizes for k in range(copies)]

    def build(self) -> None:
        self.instances = self._instances(self.SIZES, self.COPIES, "")

    def warm_up(self) -> None:
        self._run(self._instances(((100, 5),), 1, "warm-up/"), _no_lap)

    def body(self, lap):
        return self._run(self.instances, lap)

    def _run(self, instances, lap) -> list[tuple]:
        """Units: each schedule, then each simulation."""
        cells = []
        for i, inst in enumerate(instances):
            gap_sched = gap.gap_schedule(inst.tasks, inst.nodes, inst.dvfs,
                                         inst.fault_model)
            lap()
            fcfs_sched = baselines.fcfs_schedule(inst.tasks, inst.nodes)
            lap()
            for algo, sched in (("gap", gap_sched), ("fcfs", fcfs_sched)):
                for detection in DETECTIONS:
                    sampler = FaultSampler(f"{self.seed}/{self.name}/{i}/{algo}/{detection}")
                    trace, rep = sim.run(sched, inst, inst.fault_model, sampler,
                                         detection=detection)
                    cells.append((inst, algo, detection, sched, trace, rep))
                    lap()
        return cells

    def audit(self, cells) -> tuple[list[list[str]], str]:
        problems = []
        for inst, algo, _, sched, trace, rep in cells:
            p = audit.gap_deadlines(inst, sched) if algo == "gap" else []
            problems.append(p + audit.sim_cell(inst, sched, trace, rep))
        digest = _sha((len(inst.tasks), algo, det, _report_key(rep, trace))
                      for inst, algo, det, _, trace, rep in cells)
        return problems, digest

    def input_digest(self) -> str:
        return _sha(dumps_instance(inst) for inst in self.instances)


class AuditSmall:
    """Many tiny instances at the acceptance budgets: 500 instances through
    generate, GAP and WGAP, then the GAP schedule through fault-injected
    sim.run and check_capacity; 200 instances through the exhaustive
    oracle. Units are instances.

    Instance sizes are balanced over their ranges rather than drawn
    independently, so every seed does about the same work; the seed picks
    how sizes pair up, the arrival windows and the instance contents.
    """

    name = "audit-small"
    FAULTS = FaultModel(lambda0=1e-3, d=3.0, f_min=0.5)
    ORACLE_DVFS = DvfsConfig((0.6, 0.8, 1.0))

    def __init__(self, seed: int, out: Path):
        self.seed = seed

    def _specs(self, rng: random.Random, sim_count: int, oracle_count: int):
        sims = [workload.WorkloadSpec(
            n_tasks=n, n_vms=m, slack_factor_range=(1.2, 3.5), submit_mode="uniform",
            submit_horizon=rng.uniform(0.0, 6.0), seed=rng.randrange(2**32))
            for n, m in zip(_balanced(rng, sim_count, 1, 50),
                            _balanced(rng, sim_count, 1, 8))]
        # Oracle cost grows as n_vms ** n_tasks, so the (tasks, VMs) pairs
        # themselves cycle through the grid.
        grid = [(n, m) for n in range(1, 6) for m in range(1, 4)]
        oracles = [workload.WorkloadSpec(
            n_tasks=n, n_vms=m, slack_factor_range=(1.5, 5.0), submit_mode="uniform",
            submit_horizon=rng.uniform(0.0, 2.0), seed=rng.randrange(2**32))
            for n, m in (grid[i % len(grid)] for i in range(oracle_count))]
        return sims, oracles

    def build(self) -> None:
        self.specs = self._specs(random.Random(f"{self.seed}/{self.name}"), 500, 200)

    def warm_up(self) -> None:
        self._run(*self._specs(random.Random(f"{self.seed}/warm-up"), 10, 10), _no_lap)

    def body(self, lap):
        return self._run(*self.specs, lap)

    def _run(self, sim_specs, oracle_specs, lap) -> tuple[list, list]:
        """Units: each instance."""
        sims = []
        for i, spec in enumerate(sim_specs):
            inst = workload.generate(spec, fault_model=self.FAULTS)
            sched = gap.gap_schedule(inst.tasks, inst.nodes, inst.dvfs, inst.fault_model)
            wgap = gap.wgap_schedule(inst.tasks, inst.nodes, inst.fault_model)
            sampler = FaultSampler(f"{self.seed}/{self.name}/{i}")
            trace, rep = sim.run(sched, inst, inst.fault_model, sampler)
            sims.append((inst, sched, wgap, trace, rep, sim.check_capacity(trace, inst)))
            lap()
        oracles = []
        for spec in oracle_specs:
            inst = workload.generate(spec, dvfs=self.ORACLE_DVFS)
            oracles.append((inst, oracle.exhaustive(inst.tasks, inst.nodes,
                                                    self.ORACLE_DVFS)))
            lap()
        return sims, oracles

    def audit(self, outputs) -> tuple[list[list[str]], str]:
        sims, oracles = outputs
        problems, keys = [], []
        for inst, sched, wgap, trace, rep, capacity in sims:
            problems.append(audit.gap_deadlines(inst, sched) + audit.gap_deadlines(inst, wgap)
                            + audit.sim_cell(inst, sched, trace, rep, capacity))
            keys.append((_report_key(rep, trace), wgap.cp, wgap.cb, len(wgap.entries)))
        for inst, best in oracles:
            sched = gap.gap_schedule(inst.tasks, inst.nodes, self.ORACLE_DVFS)
            problems.append(audit.oracle_bound(inst, sched, best))
            keys.append((best.best_energy, best.best_rho, best.feasible_count))
        return problems, _sha(keys)

    def input_digest(self) -> str:
        return _sha(self.specs)


WORKLOADS = {w.name: w for w in (PaperSweep, MiniSweep, FaultStorm, AuditSmall)}
