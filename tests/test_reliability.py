import math

import pytest

from conftest import make_node
from fogsched.model import FaultModel
from fogsched.reliability import (FaultSampler, cpb_exec_time,
                                  fault_probability, fault_rate_freq,
                                  fault_rate_volt, reliability)

REL = 1e-9


def test_fault_rate_freq_at_full_speed_recovers_lambda0(default_fm):
    assert fault_rate_freq(default_fm, 1.0) == default_fm.lambda0


def test_fault_rate_freq_worked_examples():
    fm = FaultModel(lambda0=1e-6, d=3.0, f_min=0.5)
    assert fault_rate_freq(fm, 0.5) == pytest.approx(1e-3, rel=REL)
    assert fault_rate_freq(fm, 0.75) == pytest.approx(1e-6 * 10**1.5, rel=REL)
    assert fault_rate_freq(fm, 0.75) == pytest.approx(3.1623e-5, rel=1e-4)


def test_fault_rate_freq_domain(default_fm):
    with pytest.raises(ValueError):
        fault_rate_freq(default_fm, 0.4)
    with pytest.raises(ValueError):
        fault_rate_freq(default_fm, 1.2)


def test_fault_rate_freq_strictly_decreasing(default_fm):
    rates = [fault_rate_freq(default_fm, f) for f in (0.5, 0.6, 0.8, 0.9, 1.0)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_fault_rate_volt_worked_examples():
    fm = FaultModel(lambda0=1e-6, d=0.1, f_min=0.5)
    node = make_node(v_max=1.2)
    assert fault_rate_volt(fm, node, 1.2) == fm.lambda0
    assert fault_rate_volt(fm, node, 1.1) == pytest.approx(1e-5, rel=REL)
    assert fault_rate_volt(fm, node, 1.0) > fault_rate_volt(fm, node, 1.1)


def test_fault_rate_volt_uses_its_own_sensitivity():
    node = make_node(v_max=1.2)
    fm = FaultModel(lambda0=1e-6, d=3.0, f_min=0.5, d_volt=0.1)
    assert fault_rate_volt(fm, node, 1.1) == pytest.approx(1e-5, rel=REL)


def test_freq_and_volt_rates_agree_when_sensitivities_matched():
    """With d_volt = v_max (1 - f_min) / d the two rate models coincide at
    every scale factor, confirming they parameterize the same curve."""
    node = make_node(v_max=1.2)
    d = 3.0
    f_min = 0.5
    fm = FaultModel(lambda0=1e-6, d=d, f_min=f_min,
                    d_volt=node.v_max * (1 - f_min) / d)
    for rho in (0.5, 0.6, 0.75, 0.9, 1.0):
        assert fault_rate_volt(fm, node, rho * node.v_max) \
            == pytest.approx(fault_rate_freq(fm, rho), rel=REL)


def test_fault_rate_volt_domain(default_fm):
    node = make_node(v_max=1.2)
    with pytest.raises(ValueError):
        fault_rate_volt(default_fm, node, 0.0)
    with pytest.raises(ValueError):
        fault_rate_volt(default_fm, node, 1.3)


def test_reliability_examples():
    assert reliability(1e-3, 0.0) == 1.0
    assert reliability(1e-3, 1000.0) == pytest.approx(math.exp(-1), rel=REL)
    assert reliability(math.log(2), 1.0) == pytest.approx(0.5, rel=REL)
    with pytest.raises(ValueError):
        reliability(-1.0, 1.0)
    with pytest.raises(ValueError):
        reliability(1.0, -1.0)


def test_fault_probability_complements_reliability():
    assert fault_probability(1e-3, 0.0) == 0.0
    assert fault_probability(math.log(2), 1.0) == pytest.approx(0.5, rel=REL)
    for lam, t in ((1e-6, 10.0), (0.3, 2.0), (5.0, 0.4)):
        assert reliability(lam, t) + fault_probability(lam, t) \
            == pytest.approx(1.0, rel=REL)


def test_reliability_monotone_and_bounded(default_fm):
    prev = 1.0
    for t in (0.0, 0.5, 2.0, 10.0, 100.0):
        r = reliability(0.05, t)
        assert 0.0 < r <= 1.0
        assert r <= prev
        prev = r
    assert reliability(0.2, 5.0) <= reliability(0.1, 5.0)


def test_cpb_exec_time():
    assert cpb_exec_time(1.0, 0.0) == 1.0
    assert cpb_exec_time(0.4, 1.2) == pytest.approx(1.6, rel=REL)
    assert cpb_exec_time(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        cpb_exec_time(-0.1, 0.0)


def test_sampler_degenerate_probabilities():
    s = FaultSampler(5)
    assert all(not s.sample(0.0)[0] for _ in range(100))
    assert all(s.sample(1.0)[0] for _ in range(100))
    with pytest.raises(ValueError):
        s.sample(1.5)


def test_equal_seeds_replay_identically():
    a, b = FaultSampler(99), FaultSampler(99)
    seq_a = [a.sample(0.37) for _ in range(10_000)]
    seq_b = [b.sample(0.37) for _ in range(10_000)]
    assert seq_a == seq_b


def test_spawned_streams_differ():
    # Runs derive one string seed each from the master seed.
    c1, c2 = FaultSampler("7/0"), FaultSampler("7/1")
    assert [c1.sample(0.5) for _ in range(50)] != [c2.sample(0.5) for _ in range(50)]


def test_empirical_frequency_tracks_probability():
    s = FaultSampler(123)
    n = 100_000
    hits = sum(1 for _ in range(n) if s.sample(0.3)[0])
    assert abs(hits / n - 0.3) < 0.01


def test_elapsed_fraction_uniform_half_below_half():
    s = FaultSampler(7)
    fracs = [s.sample(1.0)[1] for _ in range(20_000)]
    assert all(0.0 <= f < 1.0 for f in fracs)
    below = sum(1 for f in fracs if f < 0.5) / len(fracs)
    assert abs(below - 0.5) < 0.02
