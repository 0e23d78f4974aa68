"""Closed-form reference curves for the accelerated W-state measures.

Each function encodes one analytic expression independently of the numeric
pipeline, so the two routes can be cross-checked.  The negativity curves are
derived as twice the magnitude of a negative eigenvalue; once that eigenvalue
crosses zero the raw expression keeps falling while the physical negativity
stays at zero, so oracle outputs are reported as max(value, 0).

Shorthands below: the accelerated observers C and D carry parameters r_c and
r_d.  For a single accelerated observer only r_d is relevant.

Every closed form, present and future, computes on float64 arrays alone:
rindler.check_r, the one r rule, takes each argument as real numbers in
[0, pi/4], naming the first bad value or dtype, and gives a float64 array,
0-d for a number.  Each distinct term is computed once per call, and the
expression reads it with the operations and left-to-right order of the
formula as written, value by value: cos and log are math's, applied to each
value in turn by rindler._each, as numpy's may round differently; sqrt is
numpy's, correctly rounded as math's is.  A 0-d array's arithmetic runs on
numpy scalars, as a float's, and _out turns a 0-d result into a float once,
at the end.  So an array gives an array of its shape, a number (float, 0-d
array or numpy scalar) a float, and every value the bits of the formula
typed on floats.
"""

from __future__ import annotations

import math

import numpy as np

from .rindler import _each, check_r

SQRT2 = math.sqrt(2.0)
# what a closed form takes for each r, and returns: a float, or a float array
Values = float | np.ndarray


def _out(value) -> Values:
    """A closed form's value: a float for a 0-d array or numpy scalar, else the array."""
    return float(value) if np.ndim(value) == 0 else value


def _clipped(value) -> Values:
    """max(value, 0.0), value by value."""
    return _out(np.where(value < 0.0, 0.0, value))


def _xlogx(lam: float) -> float:
    """The entropy term lam ln lam, or +0.0 for lam <= 0, taking 0 ln 0 = 0."""
    return lam * math.log(lam) if lam > 0.0 else 0.0


def n_d1_abc(r_d: Values) -> Values:
    """1-3 tangle of the accelerated observer against the three inertial ones.

    (1/8) [3 cos 2r + sqrt(3/2) sqrt(4 cos 2r + 3 cos 4r + 25) - 3]
    """
    r_d = check_r(r_d, "n_d1_abc: r_d")
    c2 = _each(math.cos, 2 * r_d)
    return _clipped((3.0 * c2 + math.sqrt(1.5) * np.sqrt(4 * c2 + 3 * _each(math.cos, 4 * r_d) + 25)
                     - 3.0) / 8.0)


def n_ab_const() -> float:
    """Pair negativity between two inertial observers: (sqrt(2) - 1) / 2.

    Independent of every acceleration, including the infinite limit.
    """
    return (SQRT2 - 1.0) / 2.0


def _n_i_d1_raw(r: np.ndarray) -> np.ndarray:
    c2 = _each(math.cos, 2 * r)
    return (-6.0 + SQRT2 * np.sqrt(28 * c2 + 9 * _each(math.cos, 4 * r) + 27) - 2.0 * c2) / 16.0


def n_i_d1(r_d: Values) -> Values:
    """Pair negativity between an inertial and the accelerated observer.

    (1/16) [-6 + sqrt(2) sqrt(28 cos 2r + 9 cos 4r + 27) - 2 cos 2r];
    starts at (sqrt(2)-1)/2 and falls to 0 at r = pi/4.
    """
    return _clipped(_n_i_d1_raw(check_r(r_d, "n_i_d1: r_d")))


def n_pair_accel_one(r_c: Values) -> Values:
    """Pair negativity of an inertial observer with one of two accelerated ones.

    Same functional form as n_i_d1, evaluated in that observer's own
    parameter; the other acceleration drops out entirely.
    """
    return _clipped(_n_i_d1_raw(check_r(r_c, "n_pair_accel_one: r_c")))


def n_pair_accel_both(r_c: Values, r_d: Values) -> Values:
    """Pair negativity of the two accelerated observers.

    Symmetric in (r_c, r_d); clipped to 0 on the plateau where the underlying
    eigenvalue has turned nonnegative (beyond r ~ 0.4725 on the diagonal).
    """
    r_c, r_d = check_r(r_c, "n_pair_accel_both: r_c"), check_r(r_d, "n_pair_accel_both: r_d")
    plus, minus = _each(math.cos, 2 * r_c + 2 * r_d), _each(math.cos, 2 * r_c - 2 * r_d)
    c2, d2 = _each(math.cos, 2 * r_c), _each(math.cos, 2 * r_d)
    inner = (22 * plus + 22 * minus + 9 * _each(math.cos, 4 * r_c) - 16 * c2
             + 9 * _each(math.cos, 4 * r_d) - 16 * d2 + 34)
    return _clipped((SQRT2 * np.sqrt(inner) - 2 * plus - 2 * minus + 2 * c2 + 2 * d2 - 8.0) / 16.0)


def vanishing_threshold() -> float:
    """Diagonal r at which the accelerated-pair negativity reaches zero.

    With x = cos 2r the raw diagonal curve's zero condition factors as
    (x^2 - 4x + 2)(x + 1)^2 = 0; its one root with r in [0, pi/4] is
    x = 2 - sqrt(2), so r* = arccos(2 - sqrt(2)) / 2 = 0.47247312...
    """
    return 0.5 * math.acos(2.0 - SQRT2)


def entropy_one_accel(r_d: Values) -> Values:
    """Entropy of the observed state with one accelerated observer.

    Only two eigenvalues are nonzero: lambda_1 = (3/8)(1 - cos 2r) and
    lambda_2 = (1/8)(3 cos 2r + 5); S = -sum(lambda ln lambda) with
    0 ln 0 = 0.  Subtracting the +0.0 of a zero eigenvalue leaves every bit
    of the sum as it is.
    """
    c2 = _each(math.cos, 2 * check_r(r_d, "entropy_one_accel: r_d"))
    lam1 = 0.375 * (1.0 - c2)
    lam2 = (3.0 * c2 + 5.0) / 8.0
    return _out(0.0 - _each(_xlogx, lam1) - _each(_xlogx, lam2))
