"""Domain records shared by every other module: tasks, fog nodes, DVFS and
fault-model configuration, schedules, and metric reports.

Records carry no behaviour beyond construction and (de)serialization.
Invariant checking is centralized in :func:`validate_instance` so that
malformed records can still be built, inspected, and reported on.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import repeat
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints


class Phase(str, Enum):
    """Primary or backup: a task's role and the slot a schedule entry occupies."""

    PRIMARY = "primary"
    BACKUP = "backup"


@dataclass(frozen=True)
class Task:
    """A unit of work.

    length is in million instructions (MI); deadline and submit_time are
    seconds from the time origin; npe is the number of processor elements
    the task occupies while running.
    """

    id: int
    length: int          # MI
    deadline: float      # s
    submit_time: float   # s
    npe: int = 1
    role: Phase = Phase.PRIMARY
    backup_of: int | None = None


@dataclass(frozen=True)
class FogNode:
    """A fog resource (VM) with a DVFS envelope and concurrency slots.

    mips is the processing rate at full frequency; npe_slots is the number
    of processor elements the node can run concurrently; activity and
    load_cap are the switching-activity factor and load capacitance of the
    dynamic power model.
    """

    id: int
    mips: float          # MI/s at full frequency
    bandwidth: float     # B/s, carried as configuration only
    ram: float           # MB, carried as configuration only
    npe_slots: int
    v_max: float         # V
    f_max: float         # Hz
    activity: float      # dimensionless, in [0, 1]
    load_cap: float      # F
    static_power: float = 0.0  # W, drawn per active second


@dataclass(frozen=True)
class DvfsConfig:
    """Ordered voltage/frequency scale factors; the last level is full speed."""

    levels: tuple[float, ...]


@dataclass(frozen=True)
class FaultModel:
    """Transient-fault rate parameters.

    lambda0 is the fault rate (faults/s) at maximum frequency and voltage.
    d is the sensitivity of the frequency-based rate; d_volt the sensitivity
    (in volts) of the voltage-based rate, defaulting to d when unset. The
    two rates are redundant parameterizations when voltage and frequency
    scale together.
    """

    lambda0: float
    d: float
    f_min: float
    d_volt: float | None = None


@dataclass(frozen=True)
class ScheduleEntry:
    """One planned execution of a task on a node at a DVFS factor."""

    task_id: int
    node_id: int
    start: float       # s
    exec_time: float   # s
    completion: float  # s, always start + exec_time
    rho: float
    phase: Phase = Phase.PRIMARY

    @classmethod
    def make(cls, task_id: int, node_id: int, start: float, exec_time: float,
             rho: float, phase: Phase = Phase.PRIMARY) -> "ScheduleEntry":
        return cls(task_id, node_id, start, exec_time, start + exec_time, rho, phase)


@dataclass
class Schedule:
    """The output of a scheduler run.

    backup_list holds tasks deferred because no feasible primary mapping
    existed; failed holds tasks the schedule does not run. cp and cb are
    their lengths.
    """

    entries: list[ScheduleEntry] = field(default_factory=list)
    selected_rho: float = 1.0
    backup_list: list[int] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)

    @property
    def cp(self) -> int:
        return len(self.backup_list)

    @property
    def cb(self) -> int:
        return len(self.failed)

    def primary_entries(self) -> list[ScheduleEntry]:
        return [e for e in self.entries if e.phase is Phase.PRIMARY]


@dataclass
class MetricsReport:
    """Aggregate metrics of one simulated run.

    avg_completion and avg_wait are None when no task executed; avg_power is
    total energy over the makespan (latest completion minus earliest submit).
    """

    total_energy: float = 0.0      # J
    avg_completion: float | None = None  # s
    avg_wait: float | None = None        # s
    avg_power: float = 0.0         # W
    cp: int = 0
    cb: int = 0
    missed_deadlines: int = 0
    reliability_estimate: float = 1.0


class InvalidInstanceError(ValueError):
    """Raised when an instance breaks one or more invariants; carries them all."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        lines = "; ".join(violations)
        super().__init__(f"{len(violations)} invariant violation(s): {lines}")


@dataclass
class Instance:
    """A validated problem instance."""

    tasks: list[Task]
    nodes: list[FogNode]
    dvfs: DvfsConfig
    fault_model: FaultModel


NPE_MAX = 8  # processor-element range is [1, 8] for both tasks and nodes


def check_instance(tasks: list[Task], nodes: list[FogNode], dvfs: DvfsConfig,
                   fault_model: FaultModel) -> list[str]:
    """Return every invariant violation as a "record[id].field: message"
    string (empty when valid).

    Besides each field's range, the quantities every run derives must be
    finite floats: each node's full-speed power, the longest task's run time
    on each node at every DVFS level, the energy of every task run twice (a
    primary and a backup) on each node at every level, which bounds any
    task's energy and any run's total, and the fault rate at the lowest level.
    """
    from .power import active_power  # both import this module
    from .reliability import fault_rate_freq

    out: list[str] = []
    levels = dvfs.levels
    levels_ok = bool(levels) and all(0.0 < r <= 1.0 for r in levels)
    lowest = min(levels) if levels_ok else 1.0
    longest = max((t.length for t in tasks), default=0)
    # A float sum: an int sum past the float range would raise, not be inf.
    twice = 2.0 * sum(float(t.length) for t in tasks)
    seen_task_ids: set[int] = set()
    for t in tasks:
        if t.id in seen_task_ids:
            out.append(f"task[{t.id}].id: id must be unique")
        seen_task_ids.add(t.id)
        if not t.length > 0:  # not "<= 0" and the like, which pass NaN
            out.append(f"task[{t.id}].length: length must be > 0")
        if not t.submit_time >= 0:
            out.append(f"task[{t.id}].submit_time: submit_time must be >= 0")
        elif not t.deadline > t.submit_time:
            out.append(f"task[{t.id}].deadline: deadline must exceed submit_time")
        if not 1 <= t.npe <= NPE_MAX:
            out.append(f"task[{t.id}].npe: npe must be in [1, {NPE_MAX}]")
        if (t.role is Phase.BACKUP) != (t.backup_of is not None):
            out.append(f"task[{t.id}].backup_of: "
                       "backup_of must be set exactly when role is backup")

    seen_node_ids: set[int] = set()
    for n in nodes:
        if n.id in seen_node_ids:
            out.append(f"node[{n.id}].id: id must be unique")
        seen_node_ids.add(n.id)
        if not n.mips > 0:
            out.append(f"node[{n.id}].mips: mips must be > 0")
        if not n.v_max > 0:
            out.append(f"node[{n.id}].v_max: v_max must be > 0")
        if not n.f_max > 0:
            out.append(f"node[{n.id}].f_max: f_max must be > 0")
        if not 1 <= n.npe_slots <= NPE_MAX:
            out.append(f"node[{n.id}].npe_slots: npe_slots must be in [1, {NPE_MAX}]")
        if not 0.0 <= n.activity <= 1.0:
            out.append(f"node[{n.id}].activity: activity must be in [0, 1]")
        if not n.load_cap >= 0:
            out.append(f"node[{n.id}].load_cap: load_cap must be >= 0")
        if not n.static_power >= 0:
            out.append(f"node[{n.id}].static_power: static_power must be >= 0")
        if not (n.v_max > 0 and n.f_max > 0):  # active_power would raise
            continue
        # GAP normalizes each run's energy by the same run at full speed.
        full_power = active_power(n, 1.0)
        if full_power == 0:
            out.append(f"node[{n.id}].power: full-speed power must be > 0 "
                       "(activity and load_cap, or static_power)")
        elif not math.isfinite(full_power):
            out.append(f"node[{n.id}].power: full-speed power must be finite "
                       "(activity * load_cap * v_max^2 * f_max + static_power)")
        elif n.mips > 0 and levels_ok:
            # The longest run time is at the lowest level; past that check
            # no level's speed is zero.
            speed = n.mips * lowest
            if speed == 0 or not math.isfinite(longest / speed):
                out.append(f"node[{n.id}].mips: the longest task's run time "
                           f"(length / mips) at DVFS level {lowest} must be finite")
            elif not all(math.isfinite(active_power(n, r) * (twice / (n.mips * r)))
                         for r in levels):
                out.append(f"node[{n.id}].power: the energy of every task run twice "
                           "must be finite at every DVFS level")

    if not levels:
        out.append("dvfs.levels: levels must be nonempty")
    else:
        if not levels_ok:
            out.append("dvfs.levels: every level must lie in (0, 1]")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            out.append("dvfs.levels: levels must be strictly increasing")
        if 1.0 not in levels:
            out.append("dvfs.levels: levels must contain 1.0")

    fm = fault_model
    if not fm.lambda0 >= 0:
        out.append("fault_model.lambda0: lambda0 must be >= 0")
    if not fm.d > 0:
        out.append("fault_model.d: d must be > 0")
    if not 0.0 < fm.f_min < 1.0:
        out.append("fault_model.f_min: f_min must lie in (0, 1)")
    if fm.d_volt is not None and not fm.d_volt > 0:
        out.append("fault_model.d_volt: d_volt must be > 0")

    # Cross-check: the fault-rate model is only defined for normalized
    # frequencies >= f_min, so every DVFS level must clear it.
    if levels_ok and 0.0 < fm.f_min < 1.0:
        if levels[0] < fm.f_min:
            out.append("instance.dvfs.levels: "
                       "lowest DVFS level is below fault_model.f_min")
        elif fm.lambda0 >= 0 and fm.d > 0:
            # 10^(...) raises when it overflows; lambda0 times it turns inf.
            try:
                rate = fault_rate_freq(fm, levels[0])
            except OverflowError:
                out.append("fault_model.d: the fault rate's growth at the lowest DVFS "
                           "level, 10^(d * (1 - level) / (1 - f_min)), must be finite")
            else:
                if not math.isfinite(rate):
                    out.append("fault_model.lambda0: the fault rate at the lowest DVFS "
                               "level, lambda0 * 10^(d * (1 - level) / (1 - f_min)), "
                               "must be finite")
    return out


def validate_instance(tasks: list[Task], nodes: list[FogNode], dvfs: DvfsConfig,
                      fault_model: FaultModel) -> Instance:
    """Return a validated Instance or raise InvalidInstanceError with every violation."""
    violations = check_instance(tasks, nodes, dvfs, fault_model)
    if violations:
        raise InvalidInstanceError(violations)
    return Instance(list(tasks), list(nodes), dvfs, fault_model)


# ---------------------------------------------------------------------------
# Instance file format (JSON): sections tasks[], nodes[], dvfs, fault_model,
# field names exactly as in the dataclasses above. Serialization is
# deterministic (sorted keys, two-space indent, trailing newline) so a fixed
# instance always round-trips to identical bytes.
# ---------------------------------------------------------------------------

class RecordError(ValueError):
    """A JSON record with an unknown or missing key, or a value of the wrong type."""


def record_from_dict(cls, doc):
    """Build the dataclass record `cls` from a JSON object.

    Every key must name a field of `cls` (its name, or its "key" metadata),
    every field without a default must be present, and every value must
    have its field's type: an int is accepted for a float, a list for a
    tuple or list, an object for a nested record and a value for an enum.
    A number must be finite: json reads NaN and Infinity, 1e400 as inf, and an
    int past the float range, in an int field too, would overflow on first use.
    Otherwise RecordError names the path to the offending key.
    """
    try:
        return _converter(cls)(doc)
    except _Mismatch as exc:
        raise RecordError(cls.__name__ + "".join(reversed(exc.path)) + exc.tail) from None


class _Mismatch(Exception):
    """A value its converter rejects. tail is the message after the value's
    path; each enclosing converter appends its part of the path, innermost
    first, so a path is built only for a value that is rejected."""

    def __init__(self, tail: str):
        self.tail = tail
        self.path: list[str] = []


@cache
def _converter(tp):
    """The function that checks a JSON value against type tp and returns the
    field value, built once per type: fields() and type hints per record
    raised peak RSS, and typing introspection per value cost more than the
    check."""
    origin, args = get_origin(tp), get_args(tp)
    shown = str(tp) if origin else tp.__name__

    def reject(value) -> _Mismatch:
        return _Mismatch(f" must be {shown}, not {value!r}")

    if tp is int or tp is float:
        accepted = (int, float) if tp is float else (int,)

        def number(value):
            if type(value) not in accepted:
                raise reject(value)
            if not abs(value) <= sys.float_info.max:
                # An int's repr can run to thousands of digits, so name the bound.
                bad = (repr(value) if type(value) is float
                       else f"an int past {sys.float_info.max:.2g}")
                raise _Mismatch(f" must be a finite number, not {bad}")
            return value
        return number

    if origin in (Union, UnionType):
        arms = tuple(a for a in args if a is not type(None))
        nullable = len(arms) < len(args)
        if len(arms) == 1:
            arm = _converter(arms[0])
            return lambda value: None if value is None else arm(value)

        def union(value):  # scalar unions such as int | str
            if type(value) in arms or (value is None and nullable):
                return value
            raise reject(value)
        return union

    if origin in (tuple, list):
        fixed = origin is tuple and args[-1] is not Ellipsis
        items = tuple(map(_converter, args if fixed else args[:1]))

        def sequence(value):
            if type(value) is not list or (fixed and len(value) != len(items)):
                raise reject(value)
            out = []
            try:
                for convert, v in zip(items if fixed else repeat(items[0]), value):
                    out.append(convert(v))
            except _Mismatch as exc:
                exc.path.append(f"[{len(out)}]")
                raise
            return origin(out)
        return sequence

    if is_dataclass(tp):
        hints = get_type_hints(tp)
        # {JSON key: (field name, converter)}, in field order.
        plan = {f.metadata.get("key", f.name): (f.name, _converter(hints[f.name]))
                for f in fields(tp)}
        required = [f.metadata.get("key", f.name) for f in fields(tp)
                    if f.default is MISSING and f.default_factory is MISSING]

        def record(value):
            if type(value) is not dict:
                raise reject(value)
            unknown = value.keys() - plan.keys()
            if unknown:
                raise _Mismatch(f": unknown key(s) {', '.join(sorted(unknown))}")
            missing = [k for k in required if k not in value]
            if missing:
                raise _Mismatch(f": missing key(s) {', '.join(missing)}")
            kwargs = {}
            for k, v in value.items():
                name, convert = plan[k]
                try:
                    kwargs[name] = convert(v)
                except _Mismatch as exc:
                    exc.path.append(f".{k}")
                    raise
            return tp(**kwargs)
        return record

    if issubclass(tp, Enum):
        def member(value):
            with suppress(ValueError):
                return tp(value)
            raise reject(value)
        return member

    def exact(value):  # str, bool
        if type(value) is tp:
            return value
        raise reject(value)
    return exact


def instance_from_dict(doc: dict) -> Instance:
    inst = record_from_dict(Instance, doc)
    return validate_instance(inst.tasks, inst.nodes, inst.dvfs, inst.fault_model)


def dumps_instance(inst: Instance) -> str:
    return json.dumps(asdict(inst), sort_keys=True, indent=2) + "\n"


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_instance(inst))


def read_json(path: str):
    """Parse a JSON file; text that is not JSON, or an integer literal past
    Python's digit limit, raises RecordError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            # The digit-limit message ends in advice for programmers to call
            # sys.set_int_max_str_digits(); a user cannot act on it.
            raise RecordError(f"{path}: {str(exc).partition('; use sys.')[0]}") from None


def load_instance(path: str) -> Instance:
    """Read an instance file: read_json, then the strict parser and
    check_instance."""
    return instance_from_dict(read_json(path))
