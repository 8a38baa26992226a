"""Experiment runner and reporting front end.

`fogsched run` loads or generates instances, schedules them with the
selected algorithms, simulates each schedule under seeded fault injection,
and writes results.csv (plus optional SVG charts and event traces) into the
output directory. `fogsched verify` runs the named invariant checks and
prints a pass/fail table.

All state flows through flags and the optional JSON config file;
environment variables are never consulted. Identical (config, master seed)
inputs produce identical output bytes except the wall_ms column.

Exit codes: 0 success, 1 usage error, 2 invariant failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import baselines, charts, checks, gap, sim
from .model import (DvfsConfig, FaultModel, Instance, InvalidInstanceError,
                    Schedule, check_instance, load_instance, record_from_dict,
                    save_instance)
from .reliability import FaultSampler
from .workload import (DEFAULT_DVFS, DEFAULT_FAULT_MODEL, WorkloadSpec,
                       generate, paper_sweep)

ALGORITHMS = ("gap", "wgap", "fcfs", "sjf", "rr", "pso")
EMIT_KINDS = ("csv", "svg", "trace")

CSV_COLUMNS = [
    "scenario_id", "algorithm", "seed", "n_tasks", "n_vms", "selected_rho",
    "total_energy_j", "act_s", "awt_s", "avg_power_w", "cp", "cb",
    "missed_deadlines", "reliability_estimate", "wall_ms",
]

EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_IO = 0, 1, 2, 3


@dataclass
class ExperimentConfig:
    algorithms: tuple[str, ...] = ALGORITHMS
    workload: WorkloadSpec | None = None
    instance_path: str | None = None
    sweep: str | None = None
    fault_model: FaultModel = DEFAULT_FAULT_MODEL
    dvfs: DvfsConfig = DEFAULT_DVFS
    seeds: int = 1
    output_dir: str = "out"
    emit: tuple[str, ...] = ("csv",)
    master_seed: int | str = 0
    pso: baselines.PsoConfig = field(default_factory=baselines.PsoConfig)
    detection: str = "immediate"
    dump_instance: bool = False

    def validate(self) -> None:
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        for e in self.emit:
            if e not in EMIT_KINDS:
                raise ValueError(f"unknown emit kind {e!r}")
        if self.sweep not in (None, "paper"):
            raise ValueError(f"unknown sweep {self.sweep!r}")
        if self.detection not in sim.DETECTION_MODES:
            raise ValueError(f"unknown detection mode {self.detection!r}")
        self.pso.validate()


def _schedule_for(algorithm: str, inst: Instance, cfg: ExperimentConfig,
                  run_seed: str) -> Schedule:
    if algorithm == "gap":
        return gap.gap_schedule(inst.tasks, inst.nodes, inst.dvfs, inst.fault_model)
    if algorithm == "wgap":
        return gap.wgap_schedule(inst.tasks, inst.nodes, inst.fault_model)
    if algorithm == "fcfs":
        return baselines.fcfs_schedule(inst.tasks, inst.nodes)
    if algorithm == "sjf":
        return baselines.sjf_schedule(inst.tasks, inst.nodes)
    if algorithm == "rr":
        return baselines.rr_schedule(inst.tasks, inst.nodes)
    if algorithm == "pso":
        seed = int.from_bytes(run_seed.encode(), "big") % (2**32)
        return baselines.pso_schedule(inst.tasks, inst.nodes, cfg.pso, seed=seed)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _scenarios(cfg: ExperimentConfig) -> list[tuple[str, int, Instance]]:
    """Expand config into (scenario_id, seed_index, instance) work items."""
    items: list[tuple[str, int, Instance]] = []
    if cfg.sweep == "paper":
        for spec in paper_sweep(cfg.seeds, cfg.master_seed):
            inst = generate(spec, fault_model=cfg.fault_model, dvfs=cfg.dvfs)
            items.append((spec.scenario, spec.seed_index, inst))
    elif cfg.instance_path is not None:
        inst = load_instance(cfg.instance_path)
        name = Path(cfg.instance_path).stem
        for k in range(cfg.seeds):
            items.append((name, k, inst))
    else:
        base = cfg.workload or WorkloadSpec(n_tasks=50, n_vms=10)
        for k in range(cfg.seeds):
            spec = replace(base, seed=f"{cfg.master_seed}/single/{k}",
                           scenario="single", seed_index=k)
            inst = generate(spec, fault_model=cfg.fault_model, dvfs=cfg.dvfs)
            items.append(("single", k, inst))
    return items


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Execute every (scenario, algorithm, seed) cell; returns the rows.

    Rows come back in canonical (scenario_id, algorithm, seed) order and are
    written to results.csv when csv is among the emit kinds.
    """
    cfg.validate()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for scenario, k, inst in _scenarios(cfg):
        if cfg.dump_instance:
            save_instance(inst, str(out / f"instance_{scenario}_{k:03d}.json"))
        for algorithm in cfg.algorithms:
            run_seed = f"{cfg.master_seed}/{scenario}/{k}"
            sampler = FaultSampler(run_seed)
            t0 = time.perf_counter()
            sched = _schedule_for(algorithm, inst, cfg, run_seed + "/" + algorithm)
            trace, rep = sim.run(sched, inst, inst.fault_model, sampler,
                                 detection=cfg.detection)
            wall_ms = int(round((time.perf_counter() - t0) * 1000))
            rows.append({
                "scenario_id": scenario, "algorithm": algorithm, "seed": k,
                "n_tasks": len(inst.tasks), "n_vms": len(inst.nodes),
                "selected_rho": sched.selected_rho,
                "total_energy_j": rep.total_energy,
                "act_s": rep.avg_completion, "awt_s": rep.avg_wait,
                "avg_power_w": rep.avg_power, "cp": rep.cp, "cb": rep.cb,
                "missed_deadlines": rep.missed_deadlines,
                "reliability_estimate": rep.reliability_estimate,
                "wall_ms": wall_ms,
            })
            if "trace" in cfg.emit:
                sim.write_trace(trace, str(out / f"trace_{scenario}_{algorithm}_{k:03d}.tsv"))
    rows.sort(key=lambda r: (r["scenario_id"], r["algorithm"], r["seed"]))
    if "csv" in cfg.emit:
        write_rows_csv(rows, str(out / "results.csv"))
    if "svg" in cfg.emit:
        _write_charts(rows, out)
    return rows


def write_rows_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in CSV_COLUMNS) + "\n")


def _scenario_axis(scenario: str) -> tuple[str, float] | None:
    for prefix in ("tasks", "vms"):
        if scenario.startswith(prefix):
            try:
                return prefix, float(scenario[len(prefix):])
            except ValueError:
                return None
    return None


def _write_charts(rows: list[dict], out: Path) -> None:
    """Per-scenario means, normalized by the max across algorithms."""
    metrics = [("total_energy_j", "energy"), ("act_s", "act"),
               ("awt_s", "awt"), ("avg_power_w", "power")]
    algorithms = sorted({r["algorithm"] for r in rows},
                        key=lambda a: ALGORITHMS.index(a) if a in ALGORITHMS else 99)
    for family in ("tasks", "vms"):
        scenarios = sorted({(r["scenario_id"], _scenario_axis(r["scenario_id"])[1])
                            for r in rows
                            if (_scenario_axis(r["scenario_id"]) or ("", 0))[0] == family},
                           key=lambda s: s[1])
        if not scenarios:
            continue
        xs = [x for _, x in scenarios]
        for column, short in metrics:
            series: dict[str, list[float | None]] = {a: [] for a in algorithms}
            for scenario, _ in scenarios:
                means = {}
                for a in algorithms:
                    vals = [r[column] for r in rows
                            if r["scenario_id"] == scenario and r["algorithm"] == a
                            and r[column] is not None]
                    means[a] = sum(vals) / len(vals) if vals else None
                peak = max((v for v in means.values() if v is not None), default=None)
                for a in algorithms:
                    v = means[a]
                    if v is None or peak is None or peak == 0:
                        series[a].append(None if v is None else 0.0)
                    else:
                        series[a].append(v / peak)
            charts.write_chart(
                str(out / f"{short}_vs_{family}.svg"),
                f"normalized {short} vs {family}", family,
                f"{short} / max per scenario", xs, series)


# ---------------------------------------------------------------------------
# configuration file and flag plumbing
# ---------------------------------------------------------------------------

def _config_from_dict(doc: dict) -> ExperimentConfig:
    doc = dict(doc)  # each known key is popped; whatever is left is unknown
    cfg = ExperimentConfig()
    if "algorithms" in doc:
        cfg.algorithms = tuple(doc.pop("algorithms"))
    workload = doc.pop("workload", None)
    if workload is not None:
        w = dict(workload)
        for key in ("length_range", "mips_range", "npe_range", "slack_factor_range"):
            if key in w:
                w[key] = tuple(w[key])
        cfg.workload = WorkloadSpec(**w)
    if "instance" in doc:
        cfg.instance_path = doc.pop("instance")
    if "sweep" in doc:
        cfg.sweep = doc.pop("sweep")
    if "fault_model" in doc:
        cfg.fault_model = record_from_dict(FaultModel, doc.pop("fault_model"))
    if "dvfs" in doc:
        cfg.dvfs = record_from_dict(DvfsConfig, doc.pop("dvfs"))
    if "seeds" in doc:
        cfg.seeds = int(doc.pop("seeds"))
    if "output_dir" in doc:
        cfg.output_dir = doc.pop("output_dir")
    if "emit" in doc:
        cfg.emit = tuple(doc.pop("emit"))
    if "master_seed" in doc:
        cfg.master_seed = doc.pop("master_seed")
    if "pso" in doc:
        cfg.pso = baselines.PsoConfig(**doc.pop("pso"))
    if "detection" in doc:
        cfg.detection = doc.pop("detection")
    if doc:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(doc))}")
    return cfg


def _apply_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.algorithms:
        cfg.algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.seeds is not None:
        cfg.seeds = args.seeds
    if args.out is not None:
        cfg.output_dir = args.out
    if args.emit:
        cfg.emit = tuple(e.strip() for e in args.emit.split(",") if e.strip())
    if args.sweep is not None:
        cfg.sweep = args.sweep
    if args.instance is not None:
        cfg.instance_path = args.instance
    if args.tasks is not None or args.vms is not None:
        base = cfg.workload or WorkloadSpec(n_tasks=50, n_vms=10)
        if args.tasks is not None:
            base.n_tasks = args.tasks
        if args.vms is not None:
            base.n_vms = args.vms
        cfg.workload = base
    if args.dump_instance:
        cfg.dump_instance = True
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fogsched",
                     description="fog task-scheduling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and write artifacts")
    run_p.add_argument("--config", help="JSON experiment config")
    run_p.add_argument("--seed", type=int, help="master seed")
    run_p.add_argument("--seeds", type=int, help="replicas per scenario")
    run_p.add_argument("--algorithms", help="comma list from: " + ",".join(ALGORITHMS))
    run_p.add_argument("--tasks", type=int, help="task count of a single scenario")
    run_p.add_argument("--vms", type=int, help="VM count of a single scenario")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--emit", help="comma list from: csv,svg,trace")
    run_p.add_argument("--sweep", choices=["paper"], help="run the standard sweep")
    run_p.add_argument("--instance", help="instance JSON file instead of a generator")
    run_p.add_argument("--dump-instance", action="store_true",
                       help="write generated instances for replay")

    verify_p = sub.add_parser("verify", help="run the invariant checks")
    verify_p.add_argument("--config", help="JSON experiment config")
    return parser


def _load_config_file(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return _config_from_dict(json.load(fh))


def cmd_run(cfg: ExperimentConfig) -> int:
    try:
        run_experiment(cfg)
    except InvalidInstanceError as exc:
        print(f"fogsched: invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"fogsched: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig) -> int:
    violations = check_instance([], [], cfg.dvfs, cfg.fault_model)
    if violations:
        for v in violations:
            print(f"FAIL config-invariant     {v}")
        print(f"\n{len(violations)} configuration invariant(s) violated")
        return EXIT_INVARIANT
    results = checks.run_all()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{mark} {r.name:<{width}}  {r.detail}")
    print(f"\n{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config_file(args.config)
        if args.command == "run":
            cfg = _apply_flags(cfg, args)
        cfg.validate()
    except OSError as exc:
        print(f"fogsched: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KeyError, TypeError, ValueError) as exc:
        print(f"fogsched: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return cmd_run(cfg) if args.command == "run" else cmd_verify(cfg)


if __name__ == "__main__":
    sys.exit(main())
