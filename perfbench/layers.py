"""Trace points and per-layer metrics of the traced benchmark run.

Each layer is a fogsched module. Its public functions are wrapped at the
attribute their callers look them up by, so calls made inside the program
(cli -> generate, gap -> map_backups, sim -> gap.map_backups) are recorded
as well as the benchmark's own calls.

Per-layer figures are per traced pass: totals over the traced passes
divided by their number. Every pass of a run executes the same inputs, so
call counts and work counts repeat exactly. A layer with no call in the
traced passes is reported as absent (None), never as 0 s.
"""

from __future__ import annotations

from fogsched import baselines, charts, cli, gap, oracle, sim, workload

from spans import Span, self_times
from workloads import FaultStorm

# Call metrics: each gets <name>.s (busy seconds) and <name>.calls.
CALLS = (
    "workload.generate",
    "gap.gap_schedule", "gap.wgap_schedule", "gap.map_backups.runtime",
    "baselines.fcfs", "baselines.sjf", "baselines.rr", "baselines.pso",
    "sim.run", "sim.check_capacity", "sim.write_trace",
    "oracle.exhaustive",
    "cli.run_experiment", "cli.write_rows_csv", "charts.write_chart",
)

# Task counts of the fault-storm instances, whose simulator cost per event
# is reported per size.
STORM_SIZES = tuple(n for n, _ in FaultStorm.SIZES)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_gap(args, kwargs, sched) -> dict:
    tasks = _arg(args, kwargs, 0, "tasks")
    dvfs = _arg(args, kwargs, 2, "dvfs")
    return {"cp": sched.cp, "cb": sched.cb,
            "task_levels": len(tasks) * len(dvfs.levels)}


def _count_wgap(args, kwargs, sched) -> dict:
    return {"cp": sched.cp, "cb": sched.cb,
            "task_levels": len(_arg(args, kwargs, 0, "tasks"))}


def _count_pso(args, kwargs, sched) -> dict:
    tasks = _arg(args, kwargs, 0, "tasks")
    nodes = _arg(args, kwargs, 1, "nodes")
    cfg = _arg(args, kwargs, 2, "cfg", baselines.PsoConfig())
    # A task is a swarm dimension when some node has enough slots for it.
    widest = max((n.npe_slots for n in nodes), default=0)
    dims = sum(1 for t in tasks if t.npe <= widest)
    return {"task_evals": dims * cfg.swarm_size * (cfg.iterations + 1)}


def _count_sim(args, kwargs, result) -> dict:
    trace, _ = result
    instance = _arg(args, kwargs, 1, "instance")
    dispatch = sim.EventKind.BACKUP_DISPATCH
    via_backup = sim.TaskStatus.COMPLETED_VIA_BACKUP
    return {
        "tasks": len(instance.tasks),
        "events": len(trace.events),
        "faults": len(trace.fault_events),
        # every runtime dispatch attempt logs one event, placed or not
        "dispatches": sum(1 for e in trace.events if e.kind is dispatch),
        "backup_ok": sum(1 for st in trace.status.values() if st is via_backup),
    }


def _count_oracle(args, kwargs, result) -> dict:
    return {"candidates": result.enumerated, "feasible": result.feasible_count}


def trace_points() -> list[tuple]:
    """(module, attribute, span name, counter) for every traced function."""
    return [
        (cli, "generate", "workload.generate", None),
        (workload, "generate", "workload.generate", None),
        (gap, "gap_schedule", "gap.gap_schedule", _count_gap),
        (gap, "wgap_schedule", "gap.wgap_schedule", _count_wgap),
        (gap, "map_backups", "gap.map_backups", None),
        (baselines, "fcfs_schedule", "baselines.fcfs", None),
        (baselines, "sjf_schedule", "baselines.sjf", None),
        (baselines, "rr_schedule", "baselines.rr", None),
        (baselines, "pso_schedule", "baselines.pso", _count_pso),
        (sim, "run", "sim.run", _count_sim),
        (sim, "check_capacity", "sim.check_capacity", None),
        (sim, "write_trace", "sim.write_trace", None),
        (oracle, "exhaustive", "oracle.exhaustive", _count_oracle),
        (cli, "run_experiment", "cli.run_experiment", None),
        (cli, "write_rows_csv", "cli.write_rows_csv", None),
        (charts, "write_chart", "charts.write_chart", None),
    ]


def _call_name(span: Span, by_id: dict[int, Span]) -> str | None:
    """The call metric a span counts toward, or None.

    map_backups counts only as a runtime dispatch (parent sim.run); its
    static calls are GAP's own work. gap_schedule nested in wgap_schedule is
    WGAP's work and counts there.
    """
    parent = by_id[span.parent].name if span.parent is not None else None
    if span.name == "gap.map_backups":
        return "gap.map_backups.runtime" if parent == "sim.run" else None
    if span.name == "gap.gap_schedule" and parent == "gap.wgap_schedule":
        return None
    return span.name


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple]:
    """Metric name -> (value or None when absent, unit), per traced pass."""
    by_id = {s.id: s for s in spans}
    groups: dict[str, list[Span]] = {name: [] for name in CALLS}
    for s in spans:
        name = _call_name(s, by_id)
        if name in groups:
            groups[name].append(s)

    def busy(ss):
        return sum(s.duration for s in ss)

    def total(ss, key):
        return sum(s.counts[key] for s in ss)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else None

    out: dict[str, tuple] = {}
    for name, ss in groups.items():
        out[f"{name}.s"] = (busy(ss) / passes if ss else None, "s")
        out[f"{name}.calls"] = (len(ss) / passes if ss else None, "count")

    runs = groups["cli.run_experiment"]
    selves = self_times(spans)
    out["cli.run_experiment.self_s"] = (
        sum(selves[s.id] for s in runs) / passes if runs else None, "s")

    gaps = groups["gap.gap_schedule"] + groups["gap.wgap_schedule"]
    out["gap.deferred"] = (total(gaps, "cp") / passes if gaps else None, "count")
    out["gap.failed"] = (total(gaps, "cb") / passes if gaps else None, "count")
    out["gap.us_per_task_level"] = (
        ratio(busy(gaps), total(gaps, "task_levels"), 1e6), "us")

    pso = groups["baselines.pso"]
    evals = total(pso, "task_evals")
    out["baselines.pso.task_evals"] = (evals / passes if pso else None, "count")
    out["baselines.pso.ns_per_task_eval"] = (ratio(busy(pso), evals, 1e9), "ns")

    sims = groups["sim.run"]
    events = total(sims, "events")
    dispatches = total(sims, "dispatches")
    for key, name in (("events", "sim.events"), ("faults", "sim.faults"),
                      ("dispatches", "sim.backup_dispatches")):
        out[name] = (total(sims, key) / passes if sims else None, "count")
    out["sim.backup_ok_ratio"] = (ratio(total(sims, "backup_ok"), dispatches), "ratio")
    out["sim.us_per_event"] = (ratio(busy(sims), events, 1e6), "us")
    for n in STORM_SIZES:
        sized = [s for s in sims if s.counts["tasks"] == n]
        out[f"sim.us_per_event.tasks{n}"] = (
            ratio(busy(sized), total(sized, "events"), 1e6), "us")

    orc = groups["oracle.exhaustive"]
    candidates = total(orc, "candidates")
    out["oracle.candidates"] = (candidates / passes if orc else None, "count")
    out["oracle.feasible_ratio"] = (ratio(total(orc, "feasible"), candidates), "ratio")
    return out
