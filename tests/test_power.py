import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_node
from fogsched.model import ScheduleEntry
from fogsched.power import dynamic_power, entry_energy, scaled_vf, schedule_energy

REL = 1e-9


def test_dynamic_power_worked_example(ref_node):
    assert dynamic_power(ref_node, 1.2, 1e9) == pytest.approx(1.44, rel=REL)


def test_zero_activity_zero_power():
    node = make_node(activity=0.0)
    assert dynamic_power(node, 1.2, 1e9) == 0.0
    assert dynamic_power(node, 0.7, 5e8) == 0.0


def test_half_scale_divides_power_by_eight(ref_node):
    v, f = scaled_vf(ref_node, 0.5)
    assert dynamic_power(ref_node, v, f) == pytest.approx(0.18, rel=REL)


def test_scaled_vf_identity_and_example():
    node = make_node(v_max=1.2, f_max=2e9)
    assert scaled_vf(node, 1.0) == (1.2, 2e9)
    v, f = scaled_vf(node, 0.8)
    assert v == pytest.approx(0.96, rel=REL)
    assert f == pytest.approx(1.6e9, rel=REL)


@pytest.mark.parametrize("rho", [0.0, -0.2, 1.1])
def test_scaled_vf_rejects_out_of_range(ref_node, rho):
    with pytest.raises(ValueError):
        scaled_vf(ref_node, rho)


def test_dynamic_power_rejects_out_of_envelope(ref_node):
    with pytest.raises(ValueError):
        dynamic_power(ref_node, 1.3, 1e9)
    with pytest.raises(ValueError):
        dynamic_power(ref_node, 1.0, 2e9)
    with pytest.raises(ValueError):
        dynamic_power(ref_node, -0.1, 1e9)


def test_entry_energy_worked_example(ref_node):
    entry = ScheduleEntry.make(1, 1, 0.0, 2.0, 1.0)
    assert entry_energy(ref_node, entry) == pytest.approx(2.88, rel=REL)


def test_entry_energy_zero_duration(ref_node):
    entry = ScheduleEntry.make(1, 1, 5.0, 0.0, 1.0)
    assert entry_energy(ref_node, entry) == 0.0


def test_energy_additivity(ref_node):
    entries = [ScheduleEntry.make(i, 1, 0.0, 0.7, 1.0) for i in range(5)]
    total = schedule_energy({1: ref_node}, entries)
    parts = sum(entry_energy(ref_node, e) for e in entries)
    assert total == pytest.approx(parts, rel=REL)


def test_energy_order_independent(ref_node):
    rng = random.Random(3)
    entries = [ScheduleEntry.make(i, 1, 0.0, rng.uniform(0.1, 3.0),
                                  rng.choice([0.6, 0.8, 1.0]))
               for i in range(60)]
    shuffled = entries[:]
    rng.shuffle(shuffled)
    assert schedule_energy({1: ref_node}, entries) \
        == schedule_energy({1: ref_node}, shuffled)


@settings(max_examples=150, deadline=None)
@given(segments=st.lists(
    st.tuples(st.sampled_from([1, 2, 3]),
              st.one_of(st.sampled_from([0.6, 1.0]), st.floats(0.01, 1.0)),
              st.floats(0.0, 10.0)),
    min_size=2, max_size=40))
def test_schedule_energy_prices_each_segment_as_entry_energy(segments):
    """schedule_energy prices each (node, rho) pair once per call, and its
    total is exactly the fsum of the entries' own energies."""
    nodes = {1: make_node(id=1), 2: make_node(id=2, v_max=1.0, static_power=0.3),
             3: make_node(id=3, f_max=2e9, activity=0.3)}
    entries = [ScheduleEntry.make(i, node_id, 0.0, t, rho)
               for i, (node_id, rho, t) in enumerate(segments)]
    assert schedule_energy(nodes, entries) \
        == math.fsum(entry_energy(nodes[e.node_id], e) for e in entries)


@pytest.mark.parametrize("rho", [0.0, -0.2, 1.1, math.nan])
def test_schedule_energy_rejects_rho_outside_range(ref_node, rho):
    entries = [ScheduleEntry.make(1, 1, 0.0, 1.0, 1.0),
               ScheduleEntry.make(2, 1, 0.0, 1.0, rho)]
    with pytest.raises(ValueError):
        schedule_energy({1: ref_node}, entries)


def test_static_power_added_per_active_second():
    node = make_node(static_power=0.5)
    entry = ScheduleEntry.make(1, 1, 0.0, 2.0, 1.0)
    assert entry_energy(node, entry) == pytest.approx((1.44 + 0.5) * 2.0, rel=REL)


def test_scaled_total_never_exceeds_full(ref_node):
    entries = [ScheduleEntry.make(i, 1, 0.0, 1.0, 0.7) for i in range(4)]
    scaled = math.fsum(dynamic_power(ref_node, *scaled_vf(ref_node, e.rho))
                       for e in entries)
    full = math.fsum(dynamic_power(ref_node, ref_node.v_max, ref_node.f_max)
                     for _ in entries)
    assert scaled <= full


def test_monotone_in_volts_and_hertz(ref_node):
    base = dynamic_power(ref_node, 1.0, 5e8)
    assert dynamic_power(ref_node, 1.1, 5e8) > base
    assert dynamic_power(ref_node, 1.0, 6e8) > base


def test_cubic_scaling_identity():
    """Power at scale rho is exactly rho^3 of full power, to 1e-12 relative."""
    rng = random.Random(17)
    for _ in range(1000):
        node = make_node(v_max=rng.uniform(0.6, 1.5), f_max=rng.uniform(1e8, 3e9),
                         activity=rng.uniform(0.01, 1.0),
                         load_cap=rng.uniform(1e-10, 1e-8))
        rho = rng.uniform(0.05, 1.0)
        full = dynamic_power(node, node.v_max, node.f_max)
        scaled = dynamic_power(node, *scaled_vf(node, rho))
        assert scaled == pytest.approx(rho**3 * full, rel=1e-12)

