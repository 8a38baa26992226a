import dataclasses
import json
import math
import random

import pytest

from conftest import make_node, make_task
from fogsched.cli import ExperimentConfig
from fogsched.model import (DvfsConfig, FaultModel, Instance, InvalidInstanceError,
                            Phase, RecordError, check_instance, dumps_instance,
                            instance_from_dict, load_instance, record_from_dict,
                            save_instance, validate_instance)


def small_instance():
    tasks = [make_task(id=1, length=1000, deadline=2.0),
             make_task(id=2, length=1500, deadline=1.0)]
    nodes = [make_node(id=1, mips=1000), make_node(id=2, mips=2000)]
    return tasks, nodes, DvfsConfig((0.6, 1.0)), FaultModel(1e-6, 3.0, 0.5)


def test_well_formed_instance_accepted():
    tasks, nodes, dvfs, fm = small_instance()
    inst = validate_instance(tasks, nodes, dvfs, fm)
    assert inst.tasks == tasks and inst.nodes == nodes


def test_deadline_equal_submit_rejected():
    tasks, nodes, dvfs, fm = small_instance()
    tasks[0] = dataclasses.replace(tasks[0], deadline=0.0, submit_time=0.0)
    errors = check_instance(tasks, nodes, dvfs, fm)
    assert errors == ["task[1].deadline: deadline must exceed submit_time"]


def test_dvfs_missing_full_speed_rejected():
    tasks, nodes, _, fm = small_instance()
    errors = check_instance(tasks, nodes, DvfsConfig((0.6, 0.8)), fm)
    assert errors == ["dvfs.levels: levels must contain 1.0"]


def test_validate_raises_with_all_violations():
    tasks, nodes, dvfs, fm = small_instance()
    tasks[0] = dataclasses.replace(tasks[0], length=0)
    nodes[1] = dataclasses.replace(nodes[1], mips=-5.0)
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance(tasks, nodes, dvfs, fm)
    assert len(exc.value.violations) == 2


SINGLE_BREAKS = [
    lambda t, n, d, f: (t[:1] + [dataclasses.replace(t[1], length=0)], n, d, f),
    lambda t, n, d, f: (t[:1] + [dataclasses.replace(t[1], submit_time=-1.0)], n, d, f),
    lambda t, n, d, f: (t[:1] + [dataclasses.replace(t[1], npe=9)], n, d, f),
    lambda t, n, d, f: (t[:1] + [dataclasses.replace(t[1], npe=0)], n, d, f),
    lambda t, n, d, f: (t[:1] + [dataclasses.replace(t[1], backup_of=1)], n, d, f),
    lambda t, n, d, f: (t[:1] + [dataclasses.replace(t[1], role=Phase.BACKUP)], n, d, f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], mips=0.0)], d, f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], v_max=0.0)], d, f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], f_max=-1.0)], d, f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], npe_slots=0)], d, f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], activity=1.5)], d, f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], static_power=-0.1)], d, f),
    lambda t, n, d, f: (t, n, DvfsConfig((0.8, 0.6, 1.0)), f),
    lambda t, n, d, f: (t, n, DvfsConfig((0.6, 0.8)), f),
    lambda t, n, d, f: (t, n, d, FaultModel(-1e-6, 3.0, 0.5)),
    lambda t, n, d, f: (t, n, d, FaultModel(1e-6, 0.0, 0.5)),
    lambda t, n, d, f: (t, n, d, FaultModel(1e-6, 3.0, 1.5)),
    lambda t, n, d, f: (t, n, d, FaultModel(1e-6, 3.0, 0.5, d_volt=-1.0)),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], load_cap=-1e-9)], d, f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], id=1)], d, f),
    lambda t, n, d, f: (t, n, DvfsConfig(()), f),
    lambda t, n, d, f: (t, n, DvfsConfig((0.6, 1.0, 1.2)), f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], activity=0.0)], d, f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], npe_slots=9)], d, f),
    # Finite values whose derived quantities overflow.
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], v_max=1e200)], d, f),
    lambda t, n, d, f: (t, n[:1] + [dataclasses.replace(n[1], mips=1e-310)], d, f),
    lambda t, n, d, f: (t, n, d, FaultModel(1e-6, 400.0, 0.5)),
]


@pytest.mark.parametrize("mutate", SINGLE_BREAKS)
def test_single_broken_invariant_yields_single_error(mutate):
    errors = check_instance(*mutate(*small_instance()))
    assert len(errors) == 1, errors


@pytest.mark.parametrize("node_kw,fm_kw,problem", [
    ({"v_max": 1e200}, {}, "node[1].power: full-speed power must be finite"),
    ({"mips": 1e-310}, {}, "node[1].mips: the longest task's run time (length / mips) "
                           "at DVFS level 0.6 must be finite"),
    ({"mips": 1e-6, "static_power": 1e300}, {},
     "node[1].power: the energy of every task run twice must be finite at every "
     "DVFS level"),
    ({}, {"d": 400.0}, "fault_model.d: the fault rate's growth at the lowest DVFS level"),
    ({}, {"lambda0": 1e307, "d": 30.0}, "fault_model.lambda0: the fault rate"),  # inf, no raise
])
def test_derived_quantities_that_overflow_are_named(node_kw, fm_kw, problem):
    tasks, _, dvfs, fm = small_instance()
    errors = check_instance(tasks, [make_node(**node_kw)], dvfs,
                            dataclasses.replace(fm, **fm_kw))
    assert len(errors) == 1 and errors[0].startswith(problem), errors


@pytest.mark.parametrize("field", ["mips", "v_max", "f_max"])
def test_nan_node_rate_is_named_not_raised(field):
    tasks, _, dvfs, fm = small_instance()
    errors = check_instance(tasks, [make_node(**{field: math.nan})], dvfs, fm)
    assert errors == [f"node[1].{field}: {field} must be > 0"]


NAN_FIELDS = [
    ("task[1].deadline", lambda t, n, f: ([make_task(deadline=math.nan)], n, f)),
    ("task[1].submit_time", lambda t, n, f: ([make_task(submit_time=math.nan)], n, f)),
    ("node[1].load_cap", lambda t, n, f: (t, [make_node(load_cap=math.nan)], f)),
    ("node[1].static_power", lambda t, n, f: (t, [make_node(static_power=math.nan)], f)),
    ("fault_model.lambda0", lambda t, n, f: (t, n, FaultModel(math.nan, 3.0, 0.5))),
    ("fault_model.d", lambda t, n, f: (t, n, FaultModel(1e-6, math.nan, 0.5))),
    ("fault_model.d_volt", lambda t, n, f: (t, n, FaultModel(1e-6, 3.0, 0.5, math.nan))),
]


@pytest.mark.parametrize("field,build", NAN_FIELDS, ids=[case[0] for case in NAN_FIELDS])
def test_nan_field_is_named(field, build):
    tasks, nodes, dvfs, fm = small_instance()
    tasks, nodes, fm = build(tasks, nodes, fm)
    errors = check_instance(tasks, nodes, dvfs, fm)
    assert errors and errors[0].startswith(f"{field}: "), errors


def test_derived_quantities_just_inside_the_float_range_pass():
    tasks, _, dvfs, fm = small_instance()  # longest task 1500 MI, lowest level 0.6
    slow = make_node(mips=1e-300)  # runs 2.5e303 s at 1.44 W at most
    assert check_instance(tasks, [slow], dvfs, dataclasses.replace(fm, d=200.0)) == []


def test_duplicate_ids_flagged():
    tasks, nodes, dvfs, fm = small_instance()
    tasks[1] = dataclasses.replace(tasks[1], id=1)
    errors = check_instance(tasks, nodes, dvfs, fm)
    assert "task[1].id: id must be unique" in errors


def test_level_below_f_min_flagged():
    tasks, nodes, _, fm = small_instance()
    errors = check_instance(tasks, nodes, DvfsConfig((0.4, 1.0)), fm)
    assert errors == ["instance.dvfs.levels: lowest DVFS level is below fault_model.f_min"]


def test_structural_equality():
    a, _, _, _ = small_instance()
    b, _, _, _ = small_instance()
    assert a == b
    assert make_node(id=1) == make_node(id=1)
    assert make_node(id=1) != make_node(id=2)


def test_serialization_round_trips_byte_identical(tmp_path):
    tasks, nodes, dvfs, fm = small_instance()
    inst = validate_instance(tasks, nodes, dvfs, fm)
    first = dumps_instance(inst)
    again = dumps_instance(instance_from_dict(json.loads(first)))
    assert first == again
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    loaded = load_instance(str(path))
    assert dumps_instance(loaded) == first
    assert loaded.tasks == inst.tasks
    assert loaded.nodes == inst.nodes


def test_int_past_the_float_range_is_rejected():
    doc = json.loads(dumps_instance(validate_instance(*small_instance())))
    doc["nodes"][0]["f_max"] = 2**1024  # float() of it overflows
    with pytest.raises(RecordError, match=r"nodes\[0\]\.f_max must be a finite number"):
        instance_from_dict(doc)


def _instance_doc(*edits):
    """small_instance() as a JSON document, with each (path, text) edit
    applied: the value at path becomes the JSON text parsed as json reads it,
    or is deleted when text is None."""
    doc = json.loads(dumps_instance(validate_instance(*small_instance())))
    for (*parent, key), text in edits:
        target = doc
        for step in parent:
            target = target[step]
        if text is None:
            del target[key]
        else:
            target[key] = json.loads(text)
    return doc


# Bad instance and config documents and the exact RecordError text of each.
READER_ERRORS = [
    ("unknown-key", Instance, _instance_doc((("tasks", 1, "color"), '"red"')),
     "Instance.tasks[1]: unknown key(s) color"),
    ("unknown-keys-sorted", Instance, _instance_doc((("zzz",), "1"), (("aaa",), "2")),
     "Instance: unknown key(s) aaa, zzz"),
    ("missing-key", Instance, _instance_doc((("nodes", 0, "mips"), None)),
     "Instance.nodes[0]: missing key(s) mips"),
    ("nested-type", Instance, _instance_doc((("tasks", 1, "npe"), '"2"')),
     "Instance.tasks[1].npe must be int, not '2'"),
    ("nan", Instance, _instance_doc((("nodes", 1, "mips"), "NaN")),
     "Instance.nodes[1].mips must be a finite number, not nan"),
    ("inf", Instance, _instance_doc((("fault_model", "lambda0"), "Infinity")),
     "Instance.fault_model.lambda0 must be a finite number, not inf"),
    ("1e400", Instance, _instance_doc((("tasks", 1, "deadline"), "1e400")),
     "Instance.tasks[1].deadline must be a finite number, not inf"),
    ("10**400", Instance, _instance_doc((("tasks", 0, "length"), "1" + "0" * 400)),
     "Instance.tasks[0].length must be a finite number, not an int past 1.8e+308"),
    ("true-for-int", Instance, _instance_doc((("tasks", 0, "npe"), "true")),
     "Instance.tasks[0].npe must be int, not True"),
    ("bad-role", Instance, _instance_doc((("tasks", 0, "role"), '"spare"')),
     "Instance.tasks[0].role must be Phase, not 'spare'"),
    ("optional-int", Instance, _instance_doc((("tasks", 0, "backup_of"), '"x"')),
     "Instance.tasks[0].backup_of must be int, not 'x'"),
    ("list-item", Instance, _instance_doc((("dvfs", "levels", 1), '"1.0"')),
     "Instance.dvfs.levels[1] must be float, not '1.0'"),
    ("object-for-list", Instance, _instance_doc((("tasks",), "{}")),
     "Instance.tasks must be list[fogsched.model.Task], not {}"),
    ("list-for-record", Instance, _instance_doc((("tasks", 0), "[1]")),
     "Instance.tasks[0] must be Task, not [1]"),
    ("not-an-object", Instance, [], "Instance must be Instance, not []"),
    ("config-unknown-key", ExperimentConfig, {"pso": {"swarm": 3}},
     "ExperimentConfig.pso: unknown key(s) swarm"),
    ("config-missing-keys", ExperimentConfig, {"fault_model": {"lambda0": 1}},
     "ExperimentConfig.fault_model: missing key(s) d, f_min"),
    ("tuple-length", ExperimentConfig, {"workload": {"npe_range": [1, 2, 3]}},
     "ExperimentConfig.workload.npe_range must be tuple[int, int], not [1, 2, 3]"),
    ("tuple-item", ExperimentConfig, {"workload": {"npe_range": [1.0, 2]}},
     "ExperimentConfig.workload.npe_range[0] must be int, not 1.0"),
    ("tuple-item-inf", ExperimentConfig,
     {"workload": {"slack_factor_range": [1.0, json.loads("Infinity")]}},
     "ExperimentConfig.workload.slack_factor_range[1] must be a finite number, not inf"),
    ("config-true-for-int", ExperimentConfig, {"seeds": True},
     "ExperimentConfig.seeds must be int, not True"),
    ("config-big-int", ExperimentConfig, {"pso": {"iterations": 10**400}},
     "ExperimentConfig.pso.iterations must be a finite number, not an int past 1.8e+308"),
    ("scalar-union", ExperimentConfig, {"master_seed": 1.5},
     "ExperimentConfig.master_seed must be int | str, not 1.5"),
    ("key-metadata", ExperimentConfig, {"instance": 3},
     "ExperimentConfig.instance must be str, not 3"),
    ("str-for-tuple", ExperimentConfig, {"algorithms": "gap"},
     "ExperimentConfig.algorithms must be tuple[str, ...], not 'gap'"),
    ("tuple-of-str-item", ExperimentConfig, {"emit": ["csv", 3]},
     "ExperimentConfig.emit[1] must be str, not 3"),
]


@pytest.mark.parametrize("cls,doc,message", [case[1:] for case in READER_ERRORS],
                         ids=[case[0] for case in READER_ERRORS])
def test_reader_error_text(cls, doc, message):
    with pytest.raises(RecordError) as exc:
        record_from_dict(cls, doc)
    assert str(exc.value) == message


def test_random_single_field_mutations(default_fm):
    """Each mutated copy of a valid instance reports exactly one violation."""
    rng = random.Random(11)
    for _ in range(50):
        mutate = rng.choice(SINGLE_BREAKS)
        errors = check_instance(*mutate(*small_instance()))
        assert len(errors) == 1
