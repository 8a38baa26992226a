"""Output audit behind the benchmark's failed fraction.

Each function inspects one audited unit and returns a list of problems
(empty when the unit is correct). The audit runs outside the timed body.
"""

from __future__ import annotations

import csv
import hashlib
import math

from fogsched import power, sim, workload
from fogsched.cli import ALGORITHMS
from fogsched.model import Instance, MetricsReport, Phase, Schedule
from fogsched.oracle import OracleResult

ENERGY_REL_TOL = 1e-9


def gap_deadlines(inst: Instance, sched: Schedule) -> list[str]:
    """Admitted GAP entries meet their deadlines; every task is placed or
    failed, never both."""
    deadline = {t.id: t.deadline for t in inst.tasks}
    problems = [f"task {e.task_id} completes at {e.completion!r} past its "
                f"deadline {deadline[e.task_id]!r}"
                for e in sched.entries if e.completion > deadline[e.task_id]]
    placed = {e.task_id for e in sched.entries}
    failed = set(sched.failed)
    if placed & failed:
        problems.append(f"tasks both placed and failed: {sorted(placed & failed)}")
    if placed | failed != set(deadline):
        problems.append("tasks neither placed nor failed: "
                        f"{sorted(set(deadline) - placed - failed)}")
    return problems


def sim_cell(inst: Instance, sched: Schedule, trace: sim.RunTrace,
             report: MetricsReport, capacity: list[str] | None = None) -> list[str]:
    """Invariants of one simulated run.

    capacity is sim.check_capacity's result when the caller already has it.
    """
    problems = []
    primary_node = {e.task_id: e.node_id for e in sched.entries
                    if e.phase is Phase.PRIMARY}
    for seg in trace.segments:
        if seg.phase is Phase.BACKUP and primary_node.get(seg.task_id) == seg.node_id:
            problems.append(f"runtime backup of task {seg.task_id} on its "
                            f"primary's node {seg.node_id}")

    if capacity is None:
        capacity = sim.check_capacity(trace, inst)
    problems += capacity

    nodes = {n.id: n for n in inst.nodes}
    summed = math.fsum(power.schedule_energy(nodes, [s]) for s in trace.segments)
    if abs(summed - report.total_energy) > ENERGY_REL_TOL * abs(report.total_energy):
        problems.append(f"segment energies sum to {summed!r}, "
                        f"total_energy is {report.total_energy!r}")

    problems += _terminal_status(inst, trace)
    return problems


def _terminal_status(inst: Instance, trace: sim.RunTrace) -> list[str]:
    """Every task ends exactly once: completed (one completion event) or
    failed (none), and completed via backup exactly when it faulted."""
    ids = {t.id for t in inst.tasks}
    if set(trace.status) != ids:
        return [f"status covers {len(trace.status)} of {len(ids)} tasks"]
    completions: dict[int, int] = {}
    for ev in trace.events:
        if ev.kind is sim.EventKind.COMPLETION:
            completions[ev.task_id] = completions.get(ev.task_id, 0) + 1
    faulted = {f.task_id for f in trace.fault_events}
    problems = []
    for tid, status in trace.status.items():
        done = completions.get(tid, 0)
        if status is sim.TaskStatus.FAILED:
            ok = done == 0
        else:
            via_backup = status is sim.TaskStatus.COMPLETED_VIA_BACKUP
            ok = done == 1 and via_backup == (tid in faulted)
        if not ok:
            problems.append(f"task {tid}: status {status.value} with {done} completions")
    return problems


def oracle_bound(inst: Instance, sched: Schedule, best: OracleResult) -> list[str]:
    """A fully admitted GAP schedule is feasible for the oracle and never
    cheaper than its optimum."""
    if sched.failed or sched.cp:
        return []  # GAP dropped work; no energy bound applies
    if not best.feasible:
        return ["GAP admitted every task but the oracle found no feasible plan"]
    energy = power.schedule_energy({n.id: n for n in inst.nodes}, sched.entries)
    if energy < best.best_energy * (1 - ENERGY_REL_TOL):
        return [f"GAP energy {energy!r} below the oracle optimum {best.best_energy!r}"]
    return []


def _sweep_shapes() -> dict[str, tuple[int, int]]:
    return {spec.scenario: (spec.n_tasks, spec.n_vms)
            for spec in workload.paper_sweep(1, 0)}


def sweep_rows(rows: list[dict], shapes: dict | None = None) -> list[list[str]]:
    """Sanity bounds per results row; one problem list per row. shapes maps
    each scenario to its (tasks, VMs); the paper sweep's by default."""
    shapes = shapes or _sweep_shapes()
    levels = set(workload.DEFAULT_DVFS.levels)
    seen: dict[tuple, int] = {}
    out = []
    for row in rows:
        key = (row["scenario_id"], row["algorithm"], row["seed"])
        seen[key] = seen.get(key, 0) + 1
        out.append(_sweep_row(row, shapes, levels))
    for i, row in enumerate(rows):
        if seen[(row["scenario_id"], row["algorithm"], row["seed"])] > 1:
            out[i].append("duplicate (scenario, algorithm, seed) row")
    return out


def _sweep_row(row: dict, shapes: dict, levels: set) -> list[str]:
    problems = []
    shape = shapes.get(row["scenario_id"])
    if shape is None:
        return [f"unknown scenario {row['scenario_id']!r}"]
    n = row["n_tasks"]
    if (n, row["n_vms"]) != shape:
        problems.append(f"shape ({n}, {row['n_vms']}) != {shape}")
    if row["algorithm"] not in ALGORITHMS:
        problems.append(f"unknown algorithm {row['algorithm']!r}")
    if row["selected_rho"] not in levels or (
            row["algorithm"] != "gap" and row["selected_rho"] != 1.0):
        problems.append(f"selected_rho {row['selected_rho']!r}")
    for col in ("total_energy_j", "avg_power_w"):
        if not (math.isfinite(row[col]) and row[col] > 0):
            problems.append(f"{col} {row[col]!r} not positive")
    act, awt = row["act_s"], row["awt_s"]
    if act is None or awt is None or not 0 <= awt <= act < math.inf:
        problems.append(f"act_s {act!r}, awt_s {awt!r} not 0 <= awt <= act")
    for col in ("cp", "cb", "missed_deadlines"):
        if not 0 <= row[col] <= n:
            problems.append(f"{col} {row[col]} outside [0, {n}]")
    if row["algorithm"] not in ("gap", "wgap") and row["cp"] != 0:
        problems.append(f"baseline deferred {row['cp']} tasks")
    rel = row["reliability_estimate"]
    if not 0.0 <= rel <= 1.0 or abs(rel * n - round(rel * n)) > 1e-6:
        problems.append(f"reliability_estimate {rel!r} is not k/{n}")
    if not (isinstance(row["wall_ms"], int) and row["wall_ms"] >= 0):
        problems.append(f"wall_ms {row['wall_ms']!r}")
    return problems


def results_digest(path: str) -> str:
    """sha256 of results.csv with the wall_ms column removed."""
    h = hashlib.sha256()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        keep = [i for i, col in enumerate(header) if col != "wall_ms"]
        for line in [header, *reader]:
            h.update((",".join(line[i] for i in keep) + "\n").encode())
    return h.hexdigest()
