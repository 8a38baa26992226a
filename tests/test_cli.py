import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_node, make_task
from fogsched import baselines, checks, cli, sim
from fogsched.baselines import PsoConfig
from fogsched.cli import (ALGORITHMS, CSV_COLUMNS, EXIT_INVARIANT, EXIT_IO, EXIT_OK,
                          EXIT_USAGE, ExperimentConfig, load_config, main,
                          run_experiment)
from fogsched.model import (DvfsConfig, FaultModel, dumps_instance,
                            save_instance, validate_instance)
from fogsched.workload import WorkloadSpec, generate


def small_cfg(out, **kw):
    base = dict(algorithms=("gap",),
                workload=WorkloadSpec(n_tasks=10, n_vms=3),
                seeds=1, output_dir=str(out), emit=("csv",), master_seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_single_run_csv_row_count(tmp_path):
    run_experiment(small_cfg(tmp_path))
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_identical_config_reruns_byte_identical(tmp_path):
    cfg_a = small_cfg(tmp_path / "a", algorithms=("gap", "fcfs", "rr"), seeds=3)
    cfg_b = small_cfg(tmp_path / "b", algorithms=("gap", "fcfs", "rr"), seeds=3)
    run_experiment(cfg_a)
    run_experiment(cfg_b)

    def stable(p):
        lines = (p / "results.csv").read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]  # drop wall_ms

    assert stable(tmp_path / "a") == stable(tmp_path / "b")


# Fixed sha256 prefixes of results.csv with its wall_ms column dropped.
# "all-deferred" has a slack too tight for any admission, so GAP's and
# WGAP's act_s and awt_s cells are empty.
RESULTS_GOLDEN = [
    ("six-algorithms", dict(
        algorithms=ALGORITHMS, seeds=2,
        workload=WorkloadSpec(n_tasks=16, n_vms=4, submit_mode="uniform",
                              submit_horizon=0.5),
        fault_model=FaultModel(lambda0=1e-3, d=3.0, f_min=0.5)), "ca3124e53b998dff"),
    ("all-deferred", dict(
        algorithms=ALGORITHMS, seeds=1,
        workload=WorkloadSpec(n_tasks=12, n_vms=3, slack_factor_range=(0.1, 0.2))),
     "fa0ee50b45180584"),
]


@pytest.mark.parametrize("name,kw,digest", RESULTS_GOLDEN,
                         ids=[case[0] for case in RESULTS_GOLDEN])
def test_results_csv_matches_golden_digest(tmp_path, name, kw, digest):
    run_experiment(small_cfg(tmp_path, **kw))
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0].endswith(",wall_ms")
    stable = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    assert hashlib.sha256(stable.encode()).hexdigest()[:16] == digest


def test_run_generates_each_instance_when_its_cells_run(tmp_path, monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "generate", spy("generate", cli.generate))
    monkeypatch.setattr(sim, "run", spy("run", sim.run))
    run_experiment(small_cfg(tmp_path, seeds=2))
    assert calls == ["generate", "run", "generate", "run"]


def test_every_pso_cell_draws_its_own_seed(tmp_path, monkeypatch):
    """Each (master seed, scenario, replica) cell seeds its own swarm from
    the whole of its seed string, not only from the "/pso" suffix they share."""
    seeds = []

    def record(tasks, nodes, cfg, seed):
        seeds.append(seed)
        return pso_schedule(tasks, nodes, cfg, seed=seed)

    pso_schedule = baselines.pso_schedule
    monkeypatch.setattr(baselines, "pso_schedule", record)
    for master in (1, 2):
        run_experiment(small_cfg(tmp_path / str(master), algorithms=("pso",),
                                 seeds=2, master_seed=master))
    assert len(seeds) == 4 and len(set(seeds)) == 4
    assert all(0 <= seed < 2**32 for seed in seeds)


def test_row_count_matches_grid(tmp_path):
    cfg = small_cfg(tmp_path, algorithms=("gap", "wgap", "fcfs"), seeds=2)
    rows = run_experiment(cfg)
    assert len(rows) == 3 * 2
    # Canonical order: (scenario, algorithm, seed).
    assert [(r["algorithm"], r["seed"]) for r in rows] == [
        ("fcfs", 0), ("fcfs", 1), ("gap", 0), ("gap", 1), ("wgap", 0), ("wgap", 1)]


def test_unknown_algorithm_is_usage_error(tmp_path, capsys):
    code = main(["run", "--algorithms", "gap,quantum", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "quantum" in capsys.readouterr().err


def test_unreadable_instance_is_io_error(tmp_path, capsys):
    code = main(["run", "--instance", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.strip()
    assert not (tmp_path / "o").exists()


def test_malformed_instance_is_io_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not valid json")
    code = main(["run", "--instance", str(bad), "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.strip()


def test_invalid_instance_content_is_invariant_error(tmp_path, capsys):
    doc = {
        "tasks": [{"id": 1, "length": -5, "deadline": 2.0, "submit_time": 0.0,
                   "npe": 1, "role": "primary", "backup_of": None}],
        "nodes": [{"id": 1, "mips": 1000.0, "bandwidth": 1000.0, "ram": 256.0,
                   "npe_slots": 1, "v_max": 1.2, "f_max": 1e9,
                   "activity": 0.5, "load_cap": 2e-9, "static_power": 0.0}],
        "dvfs": {"levels": [1.0]},
        "fault_model": {"lambda0": 0.0, "d": 3.0, "f_min": 0.5},
    }
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--instance", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_INVARIANT
    assert "length" in capsys.readouterr().err


def test_cli_run_writes_results(tmp_path, capsys):
    code = main(["run", "--tasks", "8", "--vms", "2", "--algorithms", "gap,fcfs",
                 "--seed", "3", "--out", str(tmp_path), "--emit", "csv,trace"])
    assert code == 0
    assert (tmp_path / "results.csv").exists()
    traces = list(tmp_path.glob("trace_*.tsv"))
    assert len(traces) == 2
    header = traces[0].read_text().splitlines()[0]
    assert header == "# time\tkind\ttask\tnode"


def test_dump_instance_round_trips(tmp_path):
    cfg = small_cfg(tmp_path, dump_instance=True)
    run_experiment(cfg)
    dumps = list(tmp_path.glob("instance_*.json"))
    assert len(dumps) == 1
    doc = json.loads(dumps[0].read_text())
    assert {"tasks", "nodes", "dvfs", "fault_model"} <= set(doc)
    code = main(["run", "--instance", str(dumps[0]), "--algorithms", "gap",
                 "--out", str(tmp_path / "replay")])
    assert code == 0


def test_instance_runs_under_its_own_fault_model(tmp_path):
    tasks = [make_task(id=i, length=1000, deadline=100.0) for i in range(1, 5)]
    rows = {}
    for name, lambda0 in (("calm", 0.0), ("storm", 1e9)):
        inst = validate_instance(tasks, [make_node(id=1), make_node(id=2)],
                                 DvfsConfig((1.0,)), FaultModel(lambda0, 3.0, 0.5))
        save_instance(inst, str(tmp_path / f"{name}.json"))
        rows[name] = run_experiment(ExperimentConfig(
            algorithms=("fcfs",), instance_path=str(tmp_path / f"{name}.json"),
            output_dir=str(tmp_path / name)))
    assert rows["calm"][0]["reliability_estimate"] == 1.0
    assert rows["storm"][0]["reliability_estimate"] == 0.0


@pytest.mark.parametrize("key, block, value", [
    ("dvfs", {"levels": [1.0]}, DvfsConfig((1.0,))),
    ("fault_model", {"lambda0": 0.9, "d": 3.0, "f_min": 0.5}, FaultModel(0.9, 3.0, 0.5)),
])
def test_instance_beside_a_config_dvfs_or_fault_model_is_usage_error(
        tmp_path, capsys, key, block, value):
    """An instance file carries its own levels and fault model, so a config
    value that the run would ignore beside it exits 1 and names its key,
    from a config file and from a library caller alike."""
    inst = validate_instance([make_task()], [make_node()], DvfsConfig((0.8, 1.0)),
                             FaultModel(0.0, 3.0, 0.5))
    save_instance(inst, str(tmp_path / "inst.json"))
    (tmp_path / "exp.json").write_text(json.dumps({key: block}))
    code = main(["run", "--instance", str(tmp_path / "inst.json"),
                 "--config", str(tmp_path / "exp.json"), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == f"fogsched: bad config: {key} is read from the instance file; remove it\n"
    assert not (tmp_path / "o").exists()
    with pytest.raises(ValueError, match=f"^{key} is read from the instance file"):
        ExperimentConfig(instance_path=str(tmp_path / "inst.json"), **{key: value}).validate()


def test_instance_beside_a_config_that_spells_out_the_defaults_runs(tmp_path):
    inst = validate_instance([make_task()], [make_node()], DvfsConfig((0.8, 1.0)),
                             FaultModel(0.0, 3.0, 0.5))
    save_instance(inst, str(tmp_path / "inst.json"))
    (tmp_path / "exp.json").write_text(json.dumps({
        "dvfs": {"levels": [0.6, 0.7, 0.8, 0.9, 1.0]},
        "fault_model": {"lambda0": 1e-6, "d": 3.0, "f_min": 0.5}}))
    run = ["run", "--instance", str(tmp_path / "inst.json"), "--algorithms", "gap"]
    assert main(run + ["--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(run + ["--out", str(tmp_path / "b")]) == EXIT_OK
    rows = [list(csv.DictReader((tmp_path / d / "results.csv").read_text().splitlines()))
            for d in "ab"]
    for row in rows[0] + rows[1]:
        del row["wall_ms"]
    assert rows[0] == rows[1] and rows[0][0]["selected_rho"] == "0.8"


def test_instance_record_with_bad_keys_is_io_error(tmp_path, capsys):
    inst = validate_instance([make_task()], [make_node()], DvfsConfig((1.0,)),
                             FaultModel(0.0, 3.0, 0.5))
    # Unknown keys are added; a required key is removed.
    for section, key, add in (("fault_model", "dvolt", True), ("dvfs", "lvls", True),
                              ("tasks", "dedline", True), ("nodes", "mps", True),
                              ("fault_model", "lambda0", False)):
        doc = json.loads(dumps_instance(inst))
        record = doc[section][0] if isinstance(doc[section], list) else doc[section]
        if add:
            record[key] = 1.0
        else:
            del record[key]
        path = tmp_path / f"{section}-{key}.json"
        path.write_text(json.dumps(doc))
        code = main(["run", "--instance", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith("fogsched:") and key in err
        assert "Traceback" not in err


def test_svg_charts_emitted_and_well_formed(tmp_path):
    cfg = ExperimentConfig(algorithms=("gap", "fcfs"), sweep="paper", seeds=1,
                           output_dir=str(tmp_path), emit=("csv", "svg"),
                           master_seed=5)
    # Shrink the sweep via a config-file-driven run would be slow; rely on
    # the generated scenarios being small enough at seeds=1.
    rows = run_experiment(cfg)
    assert rows
    svgs = sorted(tmp_path.glob("*.svg"))
    assert {"energy_vs_tasks.svg", "awt_vs_vms.svg"} <= {p.name for p in svgs}
    for p in svgs:
        root = ET.fromstring(p.read_text())
        assert root.tag.endswith("svg")


@pytest.mark.parametrize("stem", ["tasksnan", "tasksinf", "tasks1e400"])
def test_non_finite_scenario_axis_writes_no_chart(tmp_path, stem):
    inst = validate_instance([make_task()], [make_node()], DvfsConfig((1.0,)),
                             FaultModel(0.0, 3.0, 0.5))
    save_instance(inst, str(tmp_path / f"{stem}.json"))
    code = main(["run", "--instance", str(tmp_path / f"{stem}.json"),
                 "--algorithms", "gap", "--emit", "csv,svg",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "results.csv").exists()
    assert not list((tmp_path / "o").glob("*.svg"))


def test_config_file_and_flag_override(tmp_path):
    cfg_doc = {
        "algorithms": ["gap"],
        "workload": {"n_tasks": 6, "n_vms": 2},
        "seeds": 2,
        "output_dir": str(tmp_path / "from_config"),
        "emit": ["csv"],
        "master_seed": 9,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "results.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_verify_broken_dvfs_names_invariant(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"dvfs": {"levels": [0.8, 0.6]}}))
    code = main(["verify", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == EXIT_INVARIANT
    assert "strictly increasing" in err or "contain 1.0" in err


def test_run_with_broken_dvfs_is_invariant_error_before_output(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"dvfs": {"levels": [0.8, 0.6]}}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_INVARIANT
    assert "strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_zero_power_node_instance_is_invariant_error(tmp_path, capsys):
    inst = validate_instance([make_task()], [make_node(id=1), make_node(id=2)],
                             DvfsConfig((1.0,)), FaultModel(0.0, 3.0, 0.5))
    doc = json.loads(dumps_instance(inst))
    doc["nodes"][1]["load_cap"] = 0
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--instance", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_INVARIANT
    assert err.startswith("fogsched: invalid instance:") and "node[2].power" in err
    assert "Traceback" not in err


def _dumped_instance_doc(n_tasks=3, n_vms=1, lambda0=1e-6):
    fm = FaultModel(lambda0=lambda0, d=3.0, f_min=0.5)
    return json.loads(dumps_instance(generate(
        WorkloadSpec(n_tasks=n_tasks, n_vms=n_vms, npe_range=(1, 4), submit_mode="uniform",
                     submit_horizon=0.5, seed=5), fault_model=fm)))


@pytest.mark.parametrize("key,value,lambda0,needle", [
    ("mips", 1e-310, 0.0, "node[1].mips"),  # was a nan-probability traceback
    ("mips", 1e-310, 1e-6, "node[1].mips"),  # ran with inf energy
    ("v_max", 1e200, 1e-6, "v_max"),  # ran with inf energy and power
    # Each task's energy is finite, their sum is not: fsum raised in the report.
    ("mips", 3.3e-305, 1e-6, "node[1].power: the energy of every task run twice"),
])
def test_node_values_that_overflow_a_run_are_invariant_errors(tmp_path, capsys, key,
                                                              value, lambda0, needle):
    doc = _dumped_instance_doc(lambda0=lambda0)
    doc["nodes"][0][key] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--instance", str(path), "--algorithms", "fcfs",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_INVARIANT
    assert err.startswith("fogsched: invalid instance:") and needle in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_fault_rate_that_overflows_is_invariant_error(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "fault_model": {"lambda0": 1e-6, "d": 400, "f_min": 0.5}, "algorithms": ["gap"],
        "workload": {"n_tasks": 5, "n_vms": 3, "slack_factor_range": [4.0, 6.0]}}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_INVARIANT
    assert err.startswith("fogsched: invalid config:") and "fault_model.d" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,key,value", [
    ("tasks", "role", "bogus"),
    ("tasks", "length", "1000"),
    ("tasks", "npe", True),
    ("nodes", "mips", None),
    ("dvfs", "levels", None),
    ("fault_model", None, 5),
    ("tasks", None, {}),
    # json reads NaN and Infinity, and an overflowing 1e400 as inf.
    ("tasks", "deadline", float("nan")),
    ("nodes", "v_max", float("nan")),
    ("fault_model", "lambda0", float("nan")),
    ("nodes", "mips", float("inf")),
    ("nodes", "load_cap", float("inf")),
    # An int field past the float range overflows where it is divided.
    pytest.param("tasks", "length", 10**400, id="tasks-length-10**400"),
    pytest.param("tasks", "length", -10**4000, id="tasks-length--10**4000"),
])
def test_wrong_typed_instance_values_are_io_errors(tmp_path, capsys, section, key, value):
    inst = validate_instance([make_task()], [make_node()], DvfsConfig((1.0,)),
                             FaultModel(0.0, 3.0, 0.5))
    doc = json.loads(dumps_instance(inst))
    if key is None:
        doc[section] = value
    else:
        record = doc[section][0] if isinstance(doc[section], list) else doc[section]
        record[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--instance", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("fogsched:") and (key or section) in err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and len(err) < 200  # one line, never a whole value
    assert not (tmp_path / "o").exists()


def test_integer_literal_past_the_digit_limit_is_io_error(tmp_path, capsys):
    inst = validate_instance([make_task()], [make_node()], DvfsConfig((1.0,)),
                             FaultModel(0.0, 3.0, 0.5))
    text = dumps_instance(inst)
    assert text.count('"npe": 1,') == 1
    path = tmp_path / "long.json"
    path.write_text(text.replace('"npe": 1,', '"npe": ' + "9" * 5000 + ","))
    code = main(["run", "--instance", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("fogsched: I/O failure:") and str(path) in err
    assert "Traceback" not in err and "set_int_max_str_digits" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args,sources", [
    (["--tasks", "50", "--vms", "9"], "instance, workload"),
    (["--sweep", "paper"], "sweep, instance"),
])
def test_two_input_sources_are_usage_error(tmp_path, capsys, args, sources):
    inst = validate_instance([make_task()], [make_node()], DvfsConfig((1.0,)),
                             FaultModel(0.0, 3.0, 0.5))
    save_instance(inst, str(tmp_path / "f.json"))
    code = main(["run", "--instance", str(tmp_path / "f.json"), *args,
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert sources in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_vms_flag_keeps_config_workload_tasks(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"algorithms": ["fcfs"],
                                    "workload": {"n_tasks": 6, "n_vms": 2}}))
    code = main(["run", "--config", str(cfg_path), "--vms", "3",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    row = (tmp_path / "o" / "results.csv").read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("n_tasks")] == "6"
    assert row[CSV_COLUMNS.index("n_vms")] == "3"


def test_readme_example_config_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    assert load_config({"config": str(cfg_path)}) == ExperimentConfig(
        algorithms=("gap", "wgap", "fcfs"),
        workload=WorkloadSpec(n_tasks=200, n_vms=20, slack_factor_range=(1.5, 4.0),
                              submit_mode="uniform", submit_horizon=3.0),
        dvfs=DvfsConfig((0.6, 0.7, 0.8, 0.9, 1.0)),
        fault_model=FaultModel(lambda0=1e-6, d=3.0, f_min=0.5),
        pso=PsoConfig(swarm_size=30, iterations=100),
        seeds=10, master_seed=42, output_dir="out", emit=("csv",))


@pytest.mark.parametrize("doc,needle", [
    ({"pso": {"swarm_size": 1}}, "swarm_size"),
    ({"detection": "bogus"}, "detection"),
    ({"master_sed": 5}, "master_sed"),
    ({"fault_model": {"lambda0": 1e-6, "d": 3.0, "f_min": 0.5, "dvolt": 0.1}},
     "dvolt"),
    ({"dvfs": {"levels": [0.6, 1.0], "lvls": [1.0]}}, "lvls"),
    # Values of the wrong JSON type, at the top level and inside blocks.
    ({"seeds": 2.7}, "seeds"),
    ({"algorithms": "gap"}, "algorithms"),
    ({"emit": ["csv", 3]}, "emit"),
    ({"master_seed": [1]}, "master_seed"),
    ({"dump_instance": "yes"}, "dump_instance"),
    ({"workload": {"n_tasks": "4", "n_vms": 2}}, "n_tasks"),
    ({"workload": {"length_range": [1, 2, 3]}}, "length_range"),
    ({"pso": {"swarm_size": 3.5}}, "swarm_size"),
    ({"fault_model": {"lambda0": "1e-6", "d": 3.0, "f_min": 0.5}}, "lambda0"),
    ({"instance_path": "f.json"}, "instance_path"),  # the key is "instance"
    # Workload ranges that can only generate invalid records.
    ({"workload": {"mips_range": [0, 0]}}, "mips_range"),
    ({"workload": {"length_range": [-5, 0]}}, "length_range"),
    ({"workload": {"npe_range": [0, 3]}}, "npe_range"),
    ({"workload": {"npe_range": [1, 9]}}, "npe_range"),
    ({"workload": {"deadline_base": -100}}, "deadline_base"),
    ({"workload": {"slack_factor_range": [0, 0]}}, "slack_factor_range"),
    ({"workload": {"submit_mode": "uniform", "submit_horizon": -1}}, "submit_horizon"),
    ({"workload": {"submit_horizon": 3.0}}, "submit_horizon"),
    # Keys every run overwrites, a repeated algorithm and an empty emit.
    ({"workload": {"seed": 1}}, "workload.seed"),
    ({"workload": {"scenario": "x"}}, "workload.scenario"),
    ({"workload": {"seed_index": 2}}, "workload.seed_index"),
    ({"algorithms": ["gap", "gap"]}, "algorithms"),
    ({"emit": []}, "emit"),
    # Swarm coefficients are constants, not keys.
    ({"pso": {"inertia": 0.5}}, "inertia"),
    ({"pso": {"cognitive": 2.0}}, "cognitive"),
    ({"pso": {"social": 2.0}}, "social"),
    ({"pso": {"penalty": 0.5}}, "penalty"),
    # Non-finite numbers, which json reads from NaN, Infinity and 1e400.
    ({"workload": {"slack_factor_range": [float("nan"), 2]}}, "slack_factor_range[0]"),
    ({"fault_model": {"lambda0": float("nan"), "d": 3.0, "f_min": 0.5}}, "lambda0"),
    ({"fault_model": {"lambda0": 1e-6, "d": float("inf"), "f_min": 0.5}}, "fault_model.d"),
    ({"dvfs": {"levels": [0.6, float("-inf")]}}, "levels[1]"),
    # A window so short that submit + window rounds back to submit.
    ({"workload": {"slack_factor_range": [1e-300, 1e-300], "submit_mode": "uniform",
                   "submit_horizon": 3.0}}, "slack_factor_range"),
    # A swarm whose arrays could never be allocated.
    ({"pso": {"swarm_size": 2**62}}, "swarm_size"),
    # A swarm that would run for ever.
    ({"pso": {"iterations": 1000000000000}}, "iterations"),
])
def test_bad_model_settings_are_usage_errors(tmp_path, capsys, doc, needle):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"workload": {"n_tasks": 4, "n_vms": 2}, **doc}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("fogsched:") and needle in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus"])
    assert exc.value.code == EXIT_USAGE
    assert "--bogus" in capsys.readouterr().err


def test_unreadable_config_is_io_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("fogsched: cannot read config:")
    assert not (tmp_path / "o").exists()


def test_config_integer_literal_past_the_digit_limit_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text('{"seeds": ' + "9" * 5000 + "}")
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith(f"fogsched: bad config: {cfg_path}: ")
    assert "set_int_max_str_digits" not in err
    assert not (tmp_path / "o").exists()


def test_verify_validates_config_before_any_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(checks, "ALL_CHECKS", [("never", pytest.fail)])
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"pso": {"swarm_size": 1}, "detection": "bogus"}))
    assert main(["verify", "--config", str(cfg_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("fogsched: bad config:")
    assert captured.out == ""


def test_cfg_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(algorithms=()).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(emit=("pdf",)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(sweep="everything").validate()


def test_verify_passes_every_check(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("PASS ") for line in out.splitlines()) == 9
    # The acceptance scale: the numbers criteria 3 and 4 print.
    assert "instances=500 entries=17465" in out
    assert "runs=500 backups=238" in out
    assert "9/9 checks passed" in out


def test_verify_reports_failing_and_crashing_checks(monkeypatch, capsys):
    def witness():
        raise checks.CheckFailed("task 3 past deadline")

    def crash():
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(checks, "ALL_CHECKS",
                        [("witness", witness), ("crash", crash)])
    assert main(["verify"]) == EXIT_INVARIANT
    out = capsys.readouterr().out
    assert "FAIL witness  task 3 past deadline" in out
    assert "FAIL crash    raised ZeroDivisionError: division by zero" in out
    assert "0/2 checks passed" in out
    lines = out.splitlines()[:2]
    assert all(re.fullmatch(r"FAIL .+  \(\d+\.\d\d s\)", line) for line in lines)


# Values that replace one node of an input document. A "raw:" string is
# written into the JSON text as it stands: json.dumps cannot write 1e400 or
# a 5000-digit literal. New values are appended, so the cases of earlier
# ones keep their numbers. No value is a valid large int, so a size key
# (n_tasks, n_vms, seeds, swarm_size, iterations) never asks for a big job.
PALETTE = [float("nan"), float("inf"), float("-inf"), "raw:1e400", 10**400,
           "raw:" + "9" * 5000, -1, 0, True, "a string", None, [], {}, 1e-310, 1e200]


def _nodes(doc, path=()):
    """The path of every key and list item under doc, parents first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def one_edit(draw, doc):
    """doc as JSON text with one node replaced by a palette value, one key
    deleted, or an unknown key added."""
    doc = json.loads(json.dumps(doc))
    paths = list(_nodes(doc))
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        *parent, key = draw(st.sampled_from(paths))
        _at(doc, parent)[key] = json.loads(json.dumps(draw(st.sampled_from(PALETTE))))
    elif action == "delete":
        *parent, key = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del _at(doc, parent)[key]
    else:
        dicts = [()] + [p for p in paths if isinstance(_at(doc, p), dict)]
        _at(doc, draw(st.sampled_from(dicts)))["no_such_key"] = 1
    text = json.dumps(doc)
    for raw in (v for v in PALETTE if isinstance(v, str) and v.startswith("raw:")):
        text = text.replace(json.dumps(raw), raw[4:])
    return text


SMALL_SWARM = {"pso": {"swarm_size": 4, "iterations": 3}}
EDITED_CONFIG = {
    "algorithms": list(ALGORITHMS), "instance": None, "sweep": None, "seeds": 1,
    "workload": {"n_tasks": 5, "n_vms": 3, "npe_range": [1, 4],
                 "slack_factor_range": [1.5, 4.0], "submit_mode": "uniform",
                 "submit_horizon": 0.5},
    "fault_model": {"lambda0": 0.5, "d": 3.0, "f_min": 0.5, "d_volt": None},
    "dvfs": {"levels": [0.6, 0.8, 1.0]}, "master_seed": 0, "output_dir": "out",
    "emit": ["csv", "svg", "trace"], "dump_instance": False, **SMALL_SWARM}


def _assert_main_exits_cleanly(inputs, argv):
    """main(argv), run in a fresh empty directory, returns 0-3 and does not
    raise. An error says so on stderr and leaves the directory empty; a
    success writes only finite or empty numbers to results.csv."""
    work = inputs / "work"
    work.mkdir()
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_IO), err.getvalue()
    if code != EXIT_OK:
        assert err.getvalue().startswith("fogsched:"), err.getvalue()
        assert list(work.iterdir()) == [], err.getvalue()
    for path in work.rglob("results.csv"):
        for row in csv.DictReader(path.read_text(encoding="utf-8").splitlines()):
            assert all(row[c] == "" or math.isfinite(float(row[c]))
                       for c in CSV_COLUMNS[2:]), row


@settings(max_examples=200, deadline=None)
@given(text=one_edit(_dumped_instance_doc(n_tasks=5, n_vms=3, lambda0=0.5)))
def test_no_instance_file_ends_in_a_traceback(tmp_path_factory, text):
    inputs = tmp_path_factory.mktemp("instance")
    (inputs / "inst.json").write_text(text)
    (inputs / "swarm.json").write_text(json.dumps(SMALL_SWARM))
    _assert_main_exits_cleanly(inputs, [
        "run", "--instance", str(inputs / "inst.json"), "--config",
        str(inputs / "swarm.json"), "--emit", "csv,svg,trace", "--out", "out"])


@settings(max_examples=200, deadline=None)
@given(text=one_edit(EDITED_CONFIG))
def test_no_config_ends_in_a_traceback(tmp_path_factory, text):
    inputs = tmp_path_factory.mktemp("config")
    (inputs / "exp.json").write_text(text)
    _assert_main_exits_cleanly(inputs, ["run", "--config", str(inputs / "exp.json")])
