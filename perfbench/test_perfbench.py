"""Self-tests of the benchmark: the audit catches planted violations, the
span recorder and self-time computation are right, and inputs follow the
seed. Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest

from fogsched import gap, sim, workload
from fogsched.model import FaultModel, Phase
from fogsched.reliability import FaultSampler

import audit
import layers
import run
import spans
import workloads

FAULTS = FaultModel(lambda0=0.5, d=3.0, f_min=0.5)


@pytest.fixture(scope="module")
def cell():
    spec = workload.WorkloadSpec(n_tasks=40, n_vms=4, submit_mode="uniform",
                                 submit_horizon=2.0, seed="perfbench-selftest")
    inst = workload.generate(spec, fault_model=FAULTS)
    sched = gap.gap_schedule(inst.tasks, inst.nodes, inst.dvfs)
    trace, rep = sim.run(sched, inst, FAULTS, FaultSampler("perfbench-selftest"))
    assert trace.fault_events, "the self-test cell must exercise recovery"
    return inst, sched, trace, rep


def _with_segments(trace, extra):
    return replace(trace, segments=trace.segments + extra)


def test_clean_cell_passes_audit(cell):
    inst, sched, trace, rep = cell
    assert audit.gap_deadlines(inst, sched) == []
    assert audit.sim_cell(inst, sched, trace, rep) == []


def test_audit_flags_capacity_overrun(cell):
    inst, sched, trace, rep = cell
    seg = trace.segments[0]
    slots = next(n.npe_slots for n in inst.nodes if n.id == seg.node_id)
    overrun = _with_segments(trace, [seg] * slots)
    problems = audit.sim_cell(inst, sched, overrun, rep)
    assert any(f"node {seg.node_id}" in p and "npe load" in p for p in problems)


def test_audit_flags_backup_on_primary_node(cell):
    inst, sched, trace, rep = cell
    primary = sched.primary_entries()[0]
    backup = replace(primary, phase=Phase.BACKUP)
    problems = audit.sim_cell(inst, sched, _with_segments(trace, [backup]), rep)
    assert (f"runtime backup of task {primary.task_id} on its primary's node "
            f"{primary.node_id}") in problems


def test_audit_flags_energy_mismatch(cell):
    inst, sched, trace, rep = cell
    off = replace(rep, total_energy=rep.total_energy * (1 + 1e-6))
    problems = audit.sim_cell(inst, sched, trace, off)
    assert len(problems) == 1 and problems[0].startswith("segment energies sum to")


def test_audit_flags_missed_gap_deadline(cell):
    inst, sched, _, _ = cell
    late = replace(sched.entries[0], completion=1e9)
    problems = audit.gap_deadlines(inst, replace(sched, entries=[late, *sched.entries[1:]]))
    assert any(f"task {late.task_id} completes at" in p for p in problems)


def test_audit_flags_bad_sweep_row():
    row = {"scenario_id": "tasks0200", "algorithm": "fcfs", "seed": 0,
           "n_tasks": 200, "n_vms": 100, "selected_rho": 1.0,
           "total_energy_j": 10.0, "act_s": 2.0, "awt_s": 1.0, "avg_power_w": 3.0,
           "cp": 0, "cb": 0, "missed_deadlines": 5, "reliability_estimate": 0.5,
           "wall_ms": 4}
    assert audit.sweep_rows([row]) == [[]]
    bad = audit.sweep_rows([{**row, "reliability_estimate": 1.5}, row])
    assert bad[0][0].startswith("reliability_estimate") and len(bad[0]) == 2
    assert bad[1] == ["duplicate (scenario, algorithm, seed) row"]


def test_self_time_on_hand_built_tree():
    tree = [
        spans.Span(0, None, 0, "root", 0.0, 10.0),
        spans.Span(1, 0, 0, "a", 1.0, 4.0),
        spans.Span(2, 0, 0, "b", 3.0, 6.0),    # overlaps a
        spans.Span(3, 0, 0, "c", 8.0, 12.0),   # runs past its parent
        spans.Span(4, 1, 0, "a1", 2.0, 3.0),   # grandchild of root
    ]
    got = spans.self_times(tree)
    assert got[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)


def test_recorder_links_parents_and_restores_functions():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    inner, outer = mod.inner, mod.outer
    rec = spans.Recorder()
    points = [(mod, "outer", "m.outer", None),
              (mod, "inner", "m.inner", lambda a, k, r: {"result": r})]
    with rec.recording(7, points):
        assert mod.outer(1) == 4
    assert mod.inner is inner and mod.outer is outer
    root, out_span, in_span = rec.spans
    assert [s.name for s in rec.spans] == ["bench.pass", "m.outer", "m.inner"]
    assert (out_span.parent, in_span.parent) == (root.id, out_span.id)
    assert {s.trace for s in rec.spans} == {7}
    assert in_span.counts == {"result": 2}
    assert root.start <= out_span.start <= in_span.start <= in_span.end <= out_span.end


def test_best_of_sums_each_units_fastest_pass():
    passes = [[1.0, 5.0, 0.5], [2.0, 4.0, 0.25], [1.5, 6.0, 1.0]]
    assert run.best_of(passes) == pytest.approx(1.0 + 4.0 + 0.25)
    with pytest.raises(RuntimeError):
        run.best_of([[1.0], [1.0, 2.0]])


def test_timed_pass_laps_every_unit():
    class TwoUnits:
        def body(self, lap):
            lap()
            lap()
            return "out"
    units, outputs = run.timed_pass(TwoUnits())
    assert outputs == "out" and len(units) == 3 and all(t >= 0 for t in units)


def test_result_line_holds_only_value_and_unit():
    metrics = {"a.s": (0.5, "s", 2), "b.calls": (None, "count", 2)}
    assert run.result_metrics(metrics) == {"a.s": {"value": 0.5, "unit": "s"},
                                           "b.calls": {"value": 0, "unit": "count"}}


def test_absent_layers_are_none_not_zero():
    metrics = layers.layer_metrics([spans.Span(0, None, 0, "bench.pass", 0.0, 1.0)], 1)
    assert all(value is None for value, _ in metrics.values())


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(layers.layer_metrics([], 1)) | {
        "setup.import_s", "setup.build_s", "setup.warmup_s",
        "trace.overhead_s", "trace.spans"}
    assert {m["name"] for m in doc["per_layer"]} == produced
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    # paper-sweep runs by hand only; see workloads.PaperSweep
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS) - {"paper-sweep"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_digest_follows_seed(name, tmp_path):
    def digest(seed):
        wl = workloads.WORKLOADS[name](seed, tmp_path)
        wl.build()
        return wl.input_digest()
    first = digest(11)
    assert digest(11) == first
    assert digest(12) != first
