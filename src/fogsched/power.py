"""Dynamic power model, DVFS scaling, and energy accounting.

Dynamic power is activity * load_cap * V^2 * f; scaling both voltage and
frequency by rho therefore scales power by rho^3 while execution time grows
by 1/rho, so energy per task scales by rho^2. Totals are accumulated with
math.fsum so results do not depend on summation order.
"""

from __future__ import annotations

import math
from typing import Iterable

from .model import FogNode, ScheduleEntry


def dynamic_power(node: FogNode, volts: float, hertz: float) -> float:
    """Dynamic power (W) of `node` driven at `volts` / `hertz`."""
    if not 0.0 <= volts <= node.v_max:
        raise ValueError(f"volts {volts} outside [0, {node.v_max}] for node {node.id}")
    if not 0.0 <= hertz <= node.f_max:
        raise ValueError(f"hertz {hertz} outside [0, {node.f_max}] for node {node.id}")
    return node.activity * node.load_cap * volts * volts * hertz


def scaled_vf(node: FogNode, rho: float) -> tuple[float, float]:
    """Operating point (volts, hertz) at scale factor rho in (0, 1]."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho {rho} outside (0, 1]")
    return rho * node.v_max, rho * node.f_max


def active_power(node: FogNode, rho: float) -> float:
    """Total draw (W) while executing at rho: dynamic plus static power."""
    volts, hertz = scaled_vf(node, rho)
    return dynamic_power(node, volts, hertz) + node.static_power


def entry_energy(node: FogNode, entry: ScheduleEntry) -> float:
    """Energy (J) of one executed entry: (dynamic + static power) * time."""
    return active_power(node, entry.rho) * entry.exec_time


def schedule_energy(nodes_by_id: dict[int, FogNode],
                    entries: Iterable[ScheduleEntry]) -> float:
    """Order-independent total energy (J) over entries.

    Each entry costs what entry_energy prices, but the power of each
    (node id, rho) pair is computed once per call: a run has one rho.
    """
    power: dict[tuple[int, float], float] = {}
    terms = []
    for e in entries:
        key = (e.node_id, e.rho)
        p = power.get(key)
        if p is None:
            p = power[key] = active_power(nodes_by_id[e.node_id], e.rho)
        terms.append(p * e.exec_time)
    return math.fsum(terms)
