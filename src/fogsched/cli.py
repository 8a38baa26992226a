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
import csv
import math
import sys
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

from . import baselines, charts, checks, gap, sim
from .model import (DvfsConfig, FaultModel, Instance, InvalidInstanceError,
                    RecordError, load_instance, read_json, record_from_dict,
                    save_instance, validate_instance)
from .reliability import FaultSampler
from .workload import (DEFAULT_DVFS, DEFAULT_FAULT_MODEL, WorkloadSpec,
                       generate, paper_sweep, run_seed)

# Each algorithm's scheduler call on (instance, config, cell seed). Schedulers
# are looked up on their modules at call time, so a wrapper put there applies.
_SCHEDULERS = {
    "gap": lambda i, cfg, seed: gap.gap_schedule(i.tasks, i.nodes, i.dvfs, i.fault_model),
    "wgap": lambda i, cfg, seed: gap.wgap_schedule(i.tasks, i.nodes, i.fault_model),
    "fcfs": lambda i, cfg, seed: baselines.fcfs_schedule(i.tasks, i.nodes),
    "sjf": lambda i, cfg, seed: baselines.sjf_schedule(i.tasks, i.nodes),
    "rr": lambda i, cfg, seed: baselines.rr_schedule(i.tasks, i.nodes),
    "pso": lambda i, cfg, seed: baselines.pso_schedule(
        i.tasks, i.nodes, cfg.pso, seed=zlib.crc32(seed.encode())),
}
ALGORITHMS = tuple(_SCHEDULERS)
EMIT_KINDS = ("csv", "svg", "trace")

CSV_COLUMNS = [
    "scenario_id", "algorithm", "seed", "n_tasks", "n_vms", "selected_rho",
    "total_energy_j", "act_s", "awt_s", "avg_power_w", "cp", "cb",
    "missed_deadlines", "reliability_estimate", "wall_ms",
]

EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_IO = 0, 1, 2, 3


@dataclass
class ExperimentConfig:
    """One run's settings. The JSON key of each field is its name, except
    `instance` for instance_path; sweep, instance and workload are
    alternative input sources, of which at most one may be set."""

    algorithms: tuple[str, ...] = ALGORITHMS
    workload: WorkloadSpec | None = None
    instance_path: str | None = field(default=None, metadata={"key": "instance"})
    sweep: str | None = None
    fault_model: FaultModel = DEFAULT_FAULT_MODEL
    dvfs: DvfsConfig = DEFAULT_DVFS
    seeds: int = 1
    output_dir: str = "out"
    emit: tuple[str, ...] = ("csv",)
    master_seed: int | str = 0
    pso: baselines.PsoConfig = field(default_factory=baselines.PsoConfig)
    dump_instance: bool = False

    def validate(self) -> None:
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"algorithms repeat a name: {','.join(self.algorithms)}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if not self.emit:
            raise ValueError("emit must be nonempty")
        for e in self.emit:
            if e not in EMIT_KINDS:
                raise ValueError(f"unknown emit kind {e!r}")
        if self.sweep not in (None, "paper"):
            raise ValueError(f"unknown sweep {self.sweep!r}")
        given = {"sweep": self.sweep, "instance": self.instance_path, "workload": self.workload}
        sources = [name for name, value in given.items() if value is not None]
        if len(sources) > 1:
            raise ValueError(f"more than one input source: {', '.join(sources)}")
        if self.workload is not None:
            self.workload.validate()
            for key in ("seed", "scenario", "seed_index"):
                if getattr(self.workload, key) != getattr(WorkloadSpec, key):
                    raise ValueError(f"workload.{key} is set by each run from "
                                     "master_seed; remove it")
        if self.instance_path is not None:
            for key in ("dvfs", "fault_model"):
                if getattr(self, key) != getattr(ExperimentConfig, key):
                    raise ValueError(f"{key} is read from the instance file; remove it")
        self.pso.validate()
        validate_instance([], [], self.dvfs, self.fault_model)


def _scenarios(cfg: ExperimentConfig) -> Iterator[tuple[str, int, Instance]]:
    """The (scenario_id, seed_index, instance) work items of the config.

    An instance file is read here, so a bad one fails before any output
    exists; a generated instance is drawn only when its item is reached.
    """
    if cfg.instance_path is not None:
        inst = load_instance(cfg.instance_path)
        name = Path(cfg.instance_path).stem
        return ((name, k, inst) for k in range(cfg.seeds))
    if cfg.sweep == "paper":
        specs = ((spec.scenario, spec.seed_index, spec)
                 for spec in paper_sweep(cfg.seeds, cfg.master_seed))
    else:
        base = cfg.workload or WorkloadSpec()
        specs = (("single", k, replace(base, seed=run_seed(cfg.master_seed, "single", k)))
                 for k in range(cfg.seeds))
    return ((scenario, k, generate(spec, fault_model=cfg.fault_model, dvfs=cfg.dvfs))
            for scenario, k, spec in specs)


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Execute every (scenario, algorithm, seed) cell; returns the rows.

    Rows come back in canonical (scenario_id, algorithm, seed) order and are
    written to results.csv when csv is among the emit kinds.
    """
    cfg.validate()
    items = _scenarios(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [row for item in items for row in _run_item(cfg, *item)]
    rows.sort(key=lambda r: (r["scenario_id"], r["algorithm"], r["seed"]))
    if "csv" in cfg.emit:
        write_rows_csv(rows, str(out / "results.csv"))
    if "svg" in cfg.emit:
        _write_charts(rows, out)
    return rows


def _run_item(cfg: ExperimentConfig, scenario: str, k: int, inst: Instance) -> list[dict]:
    """Schedule and simulate one work item under each algorithm; returns its
    rows, one per cell, and writes its instance dump and traces."""
    out = Path(cfg.output_dir)
    if cfg.dump_instance:
        save_instance(inst, str(out / f"instance_{scenario}_{k:03d}.json"))
    seed = run_seed(cfg.master_seed, scenario, k)
    rows = []
    for algorithm in cfg.algorithms:
        sampler = FaultSampler(seed)
        t0 = time.perf_counter()
        sched = _SCHEDULERS[algorithm](inst, cfg, f"{seed}/{algorithm}")
        trace, rep = sim.run(sched, inst, inst.fault_model, sampler)
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
    return rows


def write_rows_csv(rows: list[dict], path: str) -> None:
    """None is written as an empty cell and a float as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _scenario_axis(scenario: str) -> tuple[str, float] | None:
    for prefix in ("tasks", "vms"):
        if scenario.startswith(prefix):
            try:
                x = float(scenario[len(prefix):])
            except ValueError:
                return None
            return (prefix, x) if math.isfinite(x) else None
    return None


def _write_charts(rows: list[dict], out: Path) -> None:
    """Per-scenario means, normalized by the max across algorithms."""
    metrics = [("total_energy_j", "energy"), ("act_s", "act"),
               ("awt_s", "awt"), ("avg_power_w", "power")]
    algorithms = sorted({r["algorithm"] for r in rows}, key=ALGORITHMS.index)
    groups: dict[tuple[str, float, str], list[dict]] = {}
    for r in rows:
        axis = _scenario_axis(r["scenario_id"])
        if axis is not None:
            groups.setdefault((*axis, r["algorithm"]), []).append(r)
    for family in ("tasks", "vms"):
        xs = sorted({x for f, x, _ in groups if f == family})
        if not xs:
            continue
        for column, short in metrics:
            series: dict[str, list[float | None]] = {a: [] for a in algorithms}
            for x in xs:
                means = {}
                for a in algorithms:
                    vals = [r[column] for r in groups.get((family, x, a), ())
                            if r[column] is not None]
                    means[a] = sum(vals) / len(vals) if vals else None
                peak = max((v for v in means.values() if v is not None), default=None)
                for a in algorithms:
                    v = means[a]
                    series[a].append(None if v is None else v / peak if peak else 0.0)
            charts.write_chart(
                str(out / f"{short}_vs_{family}.svg"),
                f"normalized {short} vs {family}", family,
                f"{short} / max per scenario", xs, series)


# ---------------------------------------------------------------------------
# configuration: flags and the JSON file are one document
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    """Each flag's dest is its config key; flags not given stay unset."""
    parser = _Parser(prog="fogsched", description="fog task-scheduling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and write artifacts",
                           argument_default=argparse.SUPPRESS)
    run_p.add_argument("--config", help="JSON experiment config")
    run_p.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    run_p.add_argument("--seeds", type=int, help="replicas per scenario")
    run_p.add_argument("--algorithms", type=_csv,
                       help="comma list from: " + ",".join(ALGORITHMS))
    run_p.add_argument("--tasks", dest="n_tasks", type=int,
                       help="task count of a single scenario")
    run_p.add_argument("--vms", dest="n_vms", type=int,
                       help="VM count of a single scenario")
    run_p.add_argument("--out", dest="output_dir", help="output directory")
    run_p.add_argument("--emit", type=_csv, help="comma list from: csv,svg,trace")
    run_p.add_argument("--sweep", choices=["paper"], help="run the standard sweep")
    run_p.add_argument("--instance", help="instance JSON file instead of a generator")
    run_p.add_argument("--dump-instance", action="store_true",
                       help="write generated instances for replay")

    verify_p = sub.add_parser("verify", help="run the invariant checks",
                              argument_default=argparse.SUPPRESS)
    verify_p.add_argument("--config", help="JSON experiment config")
    return parser


def load_config(flags: dict) -> ExperimentConfig:
    """Merge the flags that were set over the --config document (--tasks and
    --vms into its workload block), parse and validate the result."""
    doc = {}
    if "config" in flags:
        doc = read_json(flags.pop("config"))
    workload = {k: flags.pop(k) for k in ("n_tasks", "n_vms") if k in flags}
    doc = {**doc, **flags}
    if workload:
        doc["workload"] = {**(doc.get("workload") or {}), **workload}
    cfg = record_from_dict(ExperimentConfig, doc)
    cfg.validate()
    return cfg


def cmd_run(cfg: ExperimentConfig) -> int:
    try:
        run_experiment(cfg)
    except InvalidInstanceError as exc:
        print(f"fogsched: invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, RecordError) as exc:
        print(f"fogsched: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_verify() -> int:
    results = checks.run_all()
    width = max(len(name) for name, *_ in results)
    failures = 0
    for name, passed, detail, elapsed in results:
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'} {name:<{width}}  {detail}  ({elapsed:.2f} s)")
    print(f"\n{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def main(argv: list[str] | None = None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    try:
        cfg = load_config(flags)
    except OSError as exc:
        print(f"fogsched: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvalidInstanceError as exc:
        print(f"fogsched: invalid config: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (TypeError, ValueError) as exc:  # RecordError and JSONDecodeError too
        print(f"fogsched: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return cmd_run(cfg) if command == "run" else cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
