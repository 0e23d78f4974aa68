"""The closed-form curves themselves: endpoints, shape and domain checks."""

import math

import numpy as np
import pytest

from wtangles.oracles import (
    entropy_one_accel,
    n_ab_const,
    n_d1_abc,
    n_i_d1,
    n_pair_accel_both,
    n_pair_accel_one,
    vanishing_threshold,
)

from . import patterns

R_MAX = math.pi / 4
GRID = np.linspace(0.0, R_MAX, 101)


def test_single_observer_curve_endpoints():
    assert n_d1_abc(0.0) == pytest.approx(patterns.N_ONE_THREE_INERTIAL, abs=1e-15)
    assert n_d1_abc(R_MAX) == pytest.approx(patterns.N_ACCEL_LIMIT, abs=1e-15)
    assert n_d1_abc(0.3) == pytest.approx(patterns.N_ACCEL_AT_03, abs=1e-15)


def test_single_observer_curve_strictly_decreases():
    values = [n_d1_abc(float(r)) for r in GRID]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_constant_pair_value():
    assert n_ab_const() == pytest.approx(patterns.N_PAIR_CONST, abs=1e-16)


def test_mixed_pair_curve_endpoints_and_decay():
    assert n_i_d1(0.0) == pytest.approx(patterns.N_PAIR_CONST, abs=1e-15)
    assert n_i_d1(R_MAX) == 0.0
    values = [n_i_d1(float(r)) for r in GRID]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_pair_curves_agree_where_they_must():
    for r in GRID[::10]:
        r = float(r)
        # a second accelerated partner leaves the mixed-pair form unchanged
        assert n_pair_accel_one(r) == pytest.approx(n_i_d1(r), abs=1e-16)
        # an inertial partner is the r_c = 0 slice of the two-observer form
        assert n_pair_accel_both(0.0, r) == pytest.approx(n_i_d1(r), abs=1e-12)


def test_two_observer_pair_is_symmetric():
    for r_c, r_d in [(0.1, 0.4), (0.2, 0.7), (0.0, 0.3)]:
        assert n_pair_accel_both(r_c, r_d) == pytest.approx(n_pair_accel_both(r_d, r_c), abs=1e-15)


def test_two_observer_pair_vanishes_past_the_threshold():
    r_star = vanishing_threshold()
    assert n_pair_accel_both(r_star - 0.01, r_star - 0.01) > 0.0
    assert n_pair_accel_both(r_star + 0.01, r_star + 0.01) == 0.0


def test_threshold_value():
    r_star = vanishing_threshold()
    assert r_star == pytest.approx(patterns.THRESHOLD_R, abs=1e-9)
    assert abs(r_star - patterns.THRESHOLD_PRINTED) <= 1e-4


def test_entropy_curve():
    assert entropy_one_accel(0.0) == 0.0
    assert entropy_one_accel(R_MAX) == pytest.approx(patterns.ENTROPY_LIMIT_ONE, abs=1e-15)
    assert entropy_one_accel(0.3) == pytest.approx(patterns.ENTROPY_AT_03, abs=1e-15)
    values = [entropy_one_accel(float(r)) for r in GRID]
    assert all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("call", [
    lambda: n_d1_abc(-0.1),
    lambda: n_d1_abc(R_MAX + 0.1),
    lambda: n_i_d1(1.0),
    lambda: n_pair_accel_both(0.2, 0.9),
    lambda: entropy_one_accel(-0.5),
])
def test_domain_validation(call):
    with pytest.raises(ValueError):
        call()
