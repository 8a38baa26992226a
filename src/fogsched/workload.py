"""Seeded random instance generation and the standard experiment sweep.

Task lengths and node MIPS are drawn uniformly (integers, inclusive) from
the fixed ranges LENGTH_RANGE and MIPS_RANGE, processor-element counts from
the spec's npe_range; deadlines are the submit time plus a slack multiple of
the pessimistic execution estimate (length over the slowest possible MIPS).
Node electrical constants come from a fixed host profile so absolute joule
figures are model-relative.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .model import (NPE_MAX, DvfsConfig, FaultModel, FogNode, Instance, Task,
                    validate_instance)

# Task lengths (MI) and node speeds (MI/s at full frequency) of every
# generated instance.
LENGTH_RANGE = (1000, 2000)
MIPS_RANGE = (1000, 2000)

# Per-VM RAM and bandwidth, carried as configuration only.
VM_RAM_MB = 256.0
VM_BANDWIDTH_BPS = 1000.0

# Electrical defaults shared by all generated nodes; f_max maps one MI/s to
# 1e6 Hz so full-speed dynamic power lands on a watt scale.
V_MAX = 1.2
HZ_PER_MIPS = 1e6
ACTIVITY = 0.5
LOAD_CAP = 2e-9

DEFAULT_FAULT_MODEL = FaultModel(lambda0=1e-6, d=3.0, f_min=0.5)
DEFAULT_DVFS = DvfsConfig((0.6, 0.7, 0.8, 0.9, 1.0))

# Sweep shape: task counts at a fixed VM count, then VM counts at a fixed
# task count. Arrivals and deadline slack put every scenario in the
# admission-limited regime (offered load above capacity, slack tight), where
# deadline-aware scheduling separates from the queue-everything baselines.
SWEEP_TASK_COUNTS = (200, 400, 600, 800, 1000)
SWEEP_VM_COUNTS = (20, 50, 80, 100)
SWEEP_FIXED_VMS = 100
SWEEP_FIXED_TASKS = 1000
SWEEP_ARRIVALS_PER_SECOND = 300.0
SWEEP_SLACK = (1.05, 1.6)


@dataclass
class WorkloadSpec:
    """Parameters of one random instance. Equal specs generate equal instances."""

    n_tasks: int = 50
    n_vms: int = 10
    npe_range: tuple[int, int] = (1, 8)
    slack_factor_range: tuple[float, float] = (1.5, 4.0)
    submit_mode: str = "zero"          # "zero" | "uniform"
    submit_horizon: float = 0.0        # upper bound of uniform submits
    seed: int | str = 0
    scenario: str = ""                 # label carried through to reports
    seed_index: int = 0

    def validate(self) -> None:
        if self.n_tasks < 0 or self.n_vms < 0:
            raise ValueError("n_tasks and n_vms must be >= 0")
        for name in ("npe_range", "slack_factor_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must satisfy lo <= hi")
        if self.submit_mode not in ("zero", "uniform"):
            raise ValueError(f"unknown submit_mode {self.submit_mode!r}")
        # Bounds of check_instance on the extreme draws, so a range that can
        # only generate invalid records fails here, naming its key.
        if self.npe_range[0] < 1 or self.npe_range[1] > NPE_MAX:
            raise ValueError(f"npe_range must lie in [1, {NPE_MAX}]")
        if self.submit_horizon < 0 or (self.submit_horizon and self.submit_mode != "uniform"):
            raise ValueError('submit_horizon must be >= 0, and 0 unless submit_mode is "uniform"')
        # The shortest window, slack times an estimate of at least 1.0 s, must
        # survive rounding when added to the latest submit time.
        shortest = self.slack_factor_range[0] * (LENGTH_RANGE[0] / MIPS_RANGE[0])
        if shortest < math.ulp(self.submit_horizon):
            raise ValueError("slack_factor_range must put every deadline "
                             "after its submit time")


def generate(spec: WorkloadSpec,
             fault_model: FaultModel = DEFAULT_FAULT_MODEL,
             dvfs: DvfsConfig = DEFAULT_DVFS) -> Instance:
    """Draw a full instance from the spec's private random stream.

    Task npe is clamped to the largest generated node capacity so every task
    has at least one capable node.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    nodes = []
    for j in range(spec.n_vms):
        mips = rng.randint(*MIPS_RANGE)
        slots = rng.randint(*spec.npe_range)
        nodes.append(FogNode(
            id=j + 1, mips=float(mips), bandwidth=VM_BANDWIDTH_BPS, ram=VM_RAM_MB,
            npe_slots=slots, v_max=V_MAX, f_max=mips * HZ_PER_MIPS,
            activity=ACTIVITY, load_cap=LOAD_CAP, static_power=0.0,
        ))
    npe_cap = max((n.npe_slots for n in nodes), default=spec.npe_range[1])
    tasks = []
    for i in range(spec.n_tasks):
        length = rng.randint(*LENGTH_RANGE)
        npe = min(rng.randint(*spec.npe_range), npe_cap)
        if spec.submit_horizon > 0:  # validate allows it only in "uniform" mode
            submit = rng.uniform(0.0, spec.submit_horizon)
        else:
            submit = 0.0
        slack = rng.uniform(*spec.slack_factor_range)
        estimate = length / MIPS_RANGE[0]  # pessimistic: slowest MIPS
        deadline = submit + estimate * slack
        tasks.append(Task(id=i + 1, length=length, deadline=deadline,
                          submit_time=submit, npe=npe))
    return validate_instance(tasks, nodes, dvfs, fault_model)


def run_seed(master_seed: int | str, scenario: str, k: int) -> str:
    """The seed of replica k of a scenario: its instance draws and fault
    sampler, and, suffixed with "/<algorithm>", the PSO stream."""
    return f"{master_seed}/{scenario}/{k}"


def paper_sweep(seeds: int = 10, master_seed: int | str = 0) -> list[WorkloadSpec]:
    """The standard scenario grid: task counts at 100 VMs, VM counts at
    1000 tasks, `seeds` replicas each.

    Arrivals are uniform over a window proportional to the task count, so
    load per VM rises as VMs are removed. Streams are isolated per
    (master seed, scenario, replica).
    """
    shapes = [(f"tasks{n:04d}", n, SWEEP_FIXED_VMS) for n in SWEEP_TASK_COUNTS]
    shapes += [(f"vms{m:03d}", SWEEP_FIXED_TASKS, m) for m in SWEEP_VM_COUNTS]
    specs = []
    for scenario, n_tasks, n_vms in shapes:
        horizon = n_tasks / SWEEP_ARRIVALS_PER_SECOND
        for k in range(seeds):
            specs.append(WorkloadSpec(
                n_tasks=n_tasks, n_vms=n_vms,
                slack_factor_range=SWEEP_SLACK,
                submit_mode="uniform", submit_horizon=horizon,
                seed=run_seed(master_seed, scenario, k),
                scenario=scenario, seed_index=k,
            ))
    return specs
