"""The closed-form curves themselves: endpoints, shape and domain checks."""

import inspect
import math

import numpy as np
import pytest

from wtangles import oracles
from wtangles.oracles import (
    entropy_one_accel,
    n_ab_const,
    n_d1_abc,
    n_i_d1,
    n_pair_accel_both,
    n_pair_accel_one,
    vanishing_threshold,
)

from wtangles.rindler import R_TOL

from . import patterns

R_MAX = math.pi / 4
GRID = np.linspace(0.0, R_MAX, 101)
SQRT2 = math.sqrt(2.0)


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
    # the analytic root itself, to the bit, not a bisection's approximation of it
    r_star = vanishing_threshold()
    assert r_star == patterns.THRESHOLD_R
    assert math.cos(2.0 * r_star) == pytest.approx(2.0 - SQRT2, abs=1e-15)
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


# the closed forms as typed before each trig term was taken once: every cos
# evaluated where it appears, with the same operations in the same order
def _n_i_d1_raw_as_typed(r):
    return (-6.0
            + SQRT2 * math.sqrt(28 * math.cos(2 * r) + 9 * math.cos(4 * r) + 27)
            - 2.0 * math.cos(2 * r)) / 16.0


def _n_pair_accel_both_raw_as_typed(r_c, r_d):
    inner = (22 * math.cos(2 * r_c + 2 * r_d) + 22 * math.cos(2 * r_c - 2 * r_d)
             + 9 * math.cos(4 * r_c) - 16 * math.cos(2 * r_c)
             + 9 * math.cos(4 * r_d) - 16 * math.cos(2 * r_d) + 34)
    return (SQRT2 * math.sqrt(inner)
            - 2 * math.cos(2 * r_c + 2 * r_d) - 2 * math.cos(2 * r_c - 2 * r_d)
            + 2 * math.cos(2 * r_c) + 2 * math.cos(2 * r_d) - 8.0) / 16.0


def _entropy_one_accel_as_typed(r_d):
    lam1 = 0.375 * (1.0 - math.cos(2 * r_d))
    lam2 = (3.0 * math.cos(2 * r_d) + 5.0) / 8.0
    total = 0.0
    for lam in (lam1, lam2):
        if lam > 0.0:
            total -= lam * math.log(lam)
    return total


AS_TYPED = {
    "n_d1_abc": lambda r_d: max((3.0 * math.cos(2 * r_d)
                                 + math.sqrt(1.5) * math.sqrt(4 * math.cos(2 * r_d)
                                                              + 3 * math.cos(4 * r_d) + 25)
                                 - 3.0) / 8.0, 0.0),
    "n_i_d1": lambda r_d: max(_n_i_d1_raw_as_typed(r_d), 0.0),
    "n_pair_accel_one": lambda r_c: max(_n_i_d1_raw_as_typed(r_c), 0.0),
    "n_pair_accel_both": lambda r_c, r_d: max(_n_pair_accel_both_raw_as_typed(r_c, r_d), 0.0),
    "entropy_one_accel": _entropy_one_accel_as_typed,
}
R_STAR = 0.5 * math.acos(2.0 - math.sqrt(2.0))
# dense and random points, both ends, either side of r* and the least subnormal
POINTS = [*np.linspace(0.0, R_MAX, 2001).tolist(),
          *np.random.default_rng(29).uniform(0.0, R_MAX, 4000).tolist(),
          0.0, R_MAX, R_STAR - 1e-9, R_STAR + 1e-9, 5e-324]


def _as_bytes(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", AS_TYPED)
def test_closed_forms_keep_the_bits_of_the_formula_as_typed(name):
    closed_form, as_typed = getattr(oracles, name), AS_TYPED[name]
    if len(inspect.signature(as_typed).parameters) == 1:
        arguments = [(r,) for r in POINTS]
    else:
        line = np.linspace(0.0, R_MAX, 101).tolist()
        pairs = np.random.default_rng(2929).uniform(0.0, R_MAX, (5000, 2)).tolist()
        arguments = [*((r, r) for r in POINTS), *((a, b) for a in line for b in line),
                     *map(tuple, pairs)]
    expected = _as_bytes([as_typed(*args) for args in arguments])
    # one call on arrays, each value the bits of the scalar formula
    columns = [np.array(column) for column in zip(*arguments)]
    values = closed_form(*columns)
    assert type(values) is np.ndarray and values.shape == (len(arguments),)
    assert values.tobytes() == expected
    # arrays of another shape give the same values in that shape
    assert closed_form(*(column.reshape(1, -1) for column in columns)).tobytes() == expected
    # a float argument gives a float, with the same bits
    scalars = [closed_form(*args) for args in arguments]
    assert all(type(value) is float for value in scalars)
    assert _as_bytes(scalars) == expected


@pytest.mark.parametrize("name", AS_TYPED)
def test_a_0d_array_or_numpy_scalar_gives_a_float(name):
    closed_form, as_typed = getattr(oracles, name), AS_TYPED[name]
    arity = len(inspect.signature(as_typed).parameters)
    for r in (0.0, 0.3, R_STAR + 1e-9, R_MAX):
        expected = _as_bytes([as_typed(*[r] * arity)])
        for value in (np.array(r), np.float64(r), np.array([r])[0]):
            out = closed_form(*[value] * arity)
            assert type(out) is float and _as_bytes([out]) == expected


def test_the_shared_raw_form_keeps_the_bits_of_the_formula_as_typed():
    # a private helper of n_i_d1 and n_pair_accel_one, which take its value
    # to a float: it keeps the bits on arrays, of any shape
    expected = _as_bytes([_n_i_d1_raw_as_typed(r) for r in POINTS])
    for shape in ((len(POINTS),), (1, len(POINTS))):
        values = oracles._n_i_d1_raw(np.array(POINTS).reshape(shape))
        assert type(values) is np.ndarray and values.shape == shape
        assert values.tobytes() == expected


# every closed form that takes an r, by name
CLOSED_FORMS = ("n_d1_abc", "n_i_d1", "n_pair_accel_one", "n_pair_accel_both", "entropy_one_accel")


@pytest.mark.parametrize("value", [-1e-11, R_MAX + 2e-12, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_a_closed_form_names_the_r_outside_its_domain(name, value):
    closed_form = getattr(oracles, name)
    parameters = list(inspect.signature(closed_form).parameters)
    for arg in parameters:
        arguments = dict.fromkeys(parameters, 0.3) | {arg: value}
        with pytest.raises(ValueError) as info:
            closed_form(**arguments)
        assert str(info.value) == f"{name}: {arg}={value!r} outside [0, pi/4]"


@pytest.mark.parametrize("value, shown", [
    (0.3 + 0j, "has dtype complex128"),
    (np.array([0.3 + 0j]), "has dtype complex128"),
    (True, "has dtype bool"),
    ("0.3", "has dtype <U3"),
    (None, "has dtype object"),
    ([0.3, False], "mixes a bool into its numbers"),
])
@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_a_closed_form_takes_only_real_numbers(name, value, shown):
    # the r rule of the pipeline: no complex value cast to its real part, no bool read as a number
    closed_form = getattr(oracles, name)
    parameters = list(inspect.signature(closed_form).parameters)
    for arg in parameters:
        with pytest.raises(ValueError) as info:
            closed_form(**dict.fromkeys(parameters, 0.3) | {arg: value})
        assert str(info.value) == f"{name}: {arg} {shown}, want real numbers"


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_a_closed_form_accepts_both_slack_edges(name):
    closed_form = getattr(oracles, name)
    parameters = list(inspect.signature(closed_form).parameters)
    for edge in (-R_TOL, R_MAX + R_TOL):
        for arg in parameters:
            assert math.isfinite(closed_form(**dict.fromkeys(parameters, 0.3) | {arg: edge}))


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_an_array_names_its_first_r_outside_the_domain(name):
    closed_form = getattr(oracles, name)
    parameters = list(inspect.signature(closed_form).parameters)
    # the exact lower edge comes first and is accepted; 2.0 is the first bad value
    bad = np.array([[0.3, -R_TOL, 2.0], [math.nan, -1.0, 0.3]])
    for arg in parameters:
        arguments = dict.fromkeys(parameters, np.full(bad.shape, 0.3)) | {arg: bad}
        with pytest.raises(ValueError) as info:
            closed_form(**arguments)
        assert str(info.value) == f"{name}: {arg}=2.0 outside [0, pi/4]"
