"""Fault-rate models, the exponential reliability function, cold
primary/backup time accounting, and seeded fault sampling.

Two redundant fault-rate parameterizations are provided: frequency-based
(wired into the simulator, with the normalized frequency equal to the DVFS
factor) and voltage-based (kept for cross-checks). Lowering either axis
raises the rate exponentially.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .model import FaultModel, FogNode


def fault_rate_freq(fm: FaultModel, f_norm: float) -> float:
    """Fault rate (faults/s) at normalized frequency f_norm in [f_min, 1]."""
    if not fm.f_min <= f_norm <= 1.0:
        raise ValueError(f"f_norm {f_norm} outside [{fm.f_min}, 1]")
    return fm.lambda0 * 10.0 ** (fm.d * (1.0 - f_norm) / (1.0 - fm.f_min))


def fault_rate_volt(fm: FaultModel, node: FogNode, volts: float) -> float:
    """Fault rate (faults/s) at supply voltage volts in (0, v_max]."""
    if not 0.0 < volts <= node.v_max:
        raise ValueError(f"volts {volts} outside (0, {node.v_max}]")
    sensitivity = fm.d if fm.d_volt is None else fm.d_volt
    return fm.lambda0 * 10.0 ** ((node.v_max - volts) / sensitivity)


def reliability(lam: float, t: float) -> float:
    """Probability of surviving t seconds at fault rate lam: e^(-lam*t)."""
    if lam < 0 or t < 0:
        raise ValueError("lambda and t must be >= 0")
    return math.exp(-lam * t)


def fault_probability(lam: float, t: float) -> float:
    """Complement of reliability: probability of at least one fault in t seconds."""
    return 1.0 - reliability(lam, t)


def cpb_exec_time(primary_time: float, backup_time: float) -> float:
    """Total busy time of a task under cold primary/backup.

    For a fault-free task backup_time is 0; for a faulted one primary_time is
    the elapsed time until the fault and backup_time the full backup run.
    """
    if primary_time < 0 or backup_time < 0:
        raise ValueError("execution times must be >= 0")
    return primary_time + backup_time


@dataclass
class FaultSampler:
    """Deterministic fault-decision stream; equal seeds replay identically.

    Seeds may be ints or derived strings; string seeding is stable across
    processes and platforms. Every sample consumes exactly two draws so the
    stream position never depends on outcomes.
    """

    seed: int | str = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def sample(self, p: float) -> tuple[bool, float]:
        """Draw a fault decision with probability p and a position fraction.

        Returns (occurred, elapsed_fraction); the fraction is uniform on
        [0, 1) and only meaningful when occurred is True.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        u = self._rng.random()
        frac = self._rng.random()
        return u < p, frac

