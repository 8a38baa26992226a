"""Benchmark of the fogsched testbed.

Run from the repository root:

    python3 perfbench/run.py --workload mini-sweep --seed 1 --seconds 30 --trace 0

BENCHMARK.json lists the workloads it runs: mini-sweep, fault-storm and
audit-small. paper-sweep runs by hand (see workloads.py).
A run sets up several times and keeps the median set-up time, then repeats
timed passes over the same inputs, one after another, until the next pass
would end after --seconds (at least one pass). Each pass's outputs are
audited outside the timed body.

Every pass times each unit of its workload (a call, a schedule, a
simulation or an instance) on its own. wall_s is the sum over units of
each unit's fastest time across the run's passes. On a shared VM (a 2-vCPU
x86_64 Xeon guest was measured) speed swings by up to 1.5x in episodes of
milliseconds to minutes; a short unit's fastest repeat tracks the
program's own cost, where a median over passes tracks the neighbours'
load. The record keeps every pass's total as well.

The last stdout line is one JSON object: with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a run whose
passes alternate traced and untraced. A per-layer metric of a layer that
does not run in the workload prints as 0; the run record marks it absent
(null) and lists it under "absent". A run record (and, when traced, the
span log) is written under .perfbench-out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
PROBLEMS_KEPT = 20

IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, fogsched; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_import() -> float:
    """Seconds a fresh interpreter spends importing numpy and fogsched."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def git_commit() -> str | None:
    """HEAD of the repository at ROOT, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def code_digest() -> str:
    """sha256 over the package and benchmark sources; identifies the code
    without git, so stored output digests are only compared for equal code."""
    h = hashlib.sha256()
    paths = [*(SRC / "fogsched").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


class Laps:
    """Host seconds of each unit of one pass; the workload calls it at the
    end of every unit."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._mark = time.perf_counter()

    def __call__(self) -> None:
        now = time.perf_counter()
        self.times.append(now - self._mark)
        self._mark = now


def timed_pass(wl) -> tuple[list[float], object]:
    """Run the workload body once: (host seconds per unit, outputs)."""
    lap = Laps()
    outputs = wl.body(lap)
    lap()  # whatever follows the last unit
    return lap.times, outputs


def best_of(passes: list[list[float]]) -> float:
    """Sum over units of each unit's fastest time across passes."""
    if len({len(units) for units in passes}) != 1:
        raise RuntimeError("passes over the same inputs timed different units")
    return sum(min(times) for times in zip(*passes))


def result_metrics(metrics: dict) -> dict:
    """The result line's metrics: name -> {"value", "unit"}, where a metric
    of an absent layer (value None) prints as 0."""
    return {name: {"value": 0 if value is None else value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}


def write_json(path: Path, doc) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fogsched" / "__init__.py").is_file():
        print(f"perfbench: no fogsched package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fogsched
    if Path(fogsched.__file__).resolve().parent != (SRC / "fogsched").resolve():
        print(f"perfbench: fogsched imported from {fogsched.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy

    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)

    # Set-up: import, input build and warm-up, each repeated; medians kept.
    imports, builds, warms = [], [], []
    for _ in range(SETUP_REPEATS):
        imports.append(time_import())
        t0 = time.perf_counter()
        wl.build()
        t1 = time.perf_counter()
        wl.warm_up()
        builds.append(t1 - t0)
        warms.append(time.perf_counter() - t1)
    setup = {"setup.import_s": statistics.median(imports),
             "setup.build_s": statistics.median(builds),
             "setup.warmup_s": statistics.median(warms)}

    code = code_digest()
    digests_path = OUT / "digests.json"
    stored = load_digests(digests_path)
    digest_key = f"{code}:{wl.name}:{args.seed}"
    reference = stored.get(digest_key)

    recorder = spans.Recorder()
    points = layers.trace_points()
    laps: dict[bool, list[list[float]]] = {False: [], True: []}
    attempted = failed = 0
    problems_kept: list[str] = []
    start = time.perf_counter()
    for index in itertools.count():
        traced = bool(args.trace) and len(laps[True]) <= len(laps[False])
        if traced:
            with recorder.recording(index, points):
                units, outputs = timed_pass(wl)
        else:
            units, outputs = timed_pass(wl)
        laps[traced].append(units)

        problems, digest = wl.audit(outputs)
        del outputs
        if reference is None:
            reference = digest
        if digest != reference:
            note = f"output digest {digest[:16]} differs from {reference[:16]} for this seed"
            problems = [p + [note] for p in problems]
        attempted += len(problems)
        for unit, found in enumerate(problems):
            if found:
                failed += 1
                problems_kept += [f"pass {index} unit {unit}: {p}" for p in found]
        del problems_kept[PROBLEMS_KEPT:]

        # Stop when the next pass, at the mean pass time so far, would end
        # after --seconds; a traced run needs one pass of each kind.
        elapsed = time.perf_counter() - start
        need_both = args.trace and not (laps[True] and laps[False])
        if not need_both and elapsed * (index + 2) / (index + 1) > args.seconds:
            break

    if failed == 0 and digest_key not in stored:
        stored[digest_key] = reference
        write_json(digests_path, stored)

    # metric name -> (value or None when absent, unit, sample count)
    if args.trace:
        n_traced = len(laps[True])
        metrics = {name: (value, unit, n_traced) for name, (value, unit)
                   in layers.layer_metrics(recorder.spans, n_traced).items()}
        metrics.update({name: (value, "s", SETUP_REPEATS)
                        for name, value in setup.items()})
        metrics["trace.overhead_s"] = (
            best_of(laps[True]) - best_of(laps[False]),
            "s", len(laps[True]) + len(laps[False]))
        metrics["trace.spans"] = (len(recorder.spans) / n_traced, "count", n_traced)
        spans.write_spans(recorder.spans, str(OUT / f"{wl.name}-seed{args.seed}-spans.tsv"))
    else:
        metrics = {
            "wall_s": (best_of(laps[False]), "s", len(laps[False])),
            "setup_s": (sum(setup.values()), "s", SETUP_REPEATS),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB", 1),
        }

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "code_sha256": code,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "input_digest": wl.input_digest(), "output_digest": reference,
        "setup_samples": {"import_s": imports, "build_s": builds, "warmup_s": warms},
        "units_per_pass": len(laps[False][0]),
        "pass_wall_s": {"untraced": [sum(u) for u in laps[False]],
                        "traced": [sum(u) for u in laps[True]]},
        "absent": sorted(name for name, (value, _, _) in metrics.items() if value is None),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems_kept,
        "metrics": {name: {"value": value, "unit": unit, "samples": samples}
                    for name, (value, unit, samples) in metrics.items()},
    }
    record_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    write_json(record_path, record)

    print(f"{wl.name} seed {args.seed}: {len(laps[False])} untraced and "
          f"{len(laps[True])} traced passes, failed_frac {failed}/{attempted}, "
          f"record {record_path.relative_to(ROOT)}")
    if record["absent"]:
        print(f"  absent (printed as 0): {', '.join(record['absent'])}")
    for p in problems_kept:
        print(f"  audit: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
