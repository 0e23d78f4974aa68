"""Closed-form reference curves for the accelerated W-state measures.

Each function encodes one analytic expression independently of the numeric
pipeline, so the two routes can be cross-checked.  The negativity curves are
derived as twice the magnitude of a negative eigenvalue; once that eigenvalue
crosses zero the raw expression keeps falling while the physical negativity
stays at zero, so oracle outputs are reported as max(value, 0).

Shorthands below: the accelerated observers C and D carry parameters r_c and
r_d.  For a single accelerated observer only r_d is relevant.

Every closed form, present and future, keeps one array convention.  It
takes floats, for which it returns a float, or float arrays of one shape,
for which it returns an array of that shape.  Each argument is checked by
_r, that is by rindler.check_r, the one domain rule, whose first bad value
the message names.  Each distinct term is computed once per call, and
the expression then reads it with the operations and left-to-right order of
the formula as written, value by value: cos and log are math's, applied to
each value in turn, because numpy's may round differently; sqrt may be
numpy's, since both are correctly rounded.  So every value keeps the bits of
the formula evaluated term by term on floats.
"""

from __future__ import annotations

import math

import numpy as np

from .rindler import check_r

SQRT2 = math.sqrt(2.0)
# what a closed form takes for each r, and returns: a float, or a float array
Values = float | np.ndarray


def _r(name: str, arg: str, value) -> Values:
    """value, a number or an array, as a float or a float array once check_r clears it."""
    check_r(value, f"{name}: {arg}")
    return float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)


def _each(f, x: Values) -> Values:
    """f of a float, or of each value of a float array in turn, as an array of its shape."""
    if isinstance(x, float):
        return f(x)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _sqrt(x: Values) -> Values:
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _clipped(value: Values) -> Values:
    """max(value, 0.0), value by value."""
    return max(value, 0.0) if isinstance(value, float) else np.where(value < 0.0, 0.0, value)


def _xlogx(lam: float) -> float:
    """The entropy term lam ln lam, or +0.0 for lam <= 0, taking 0 ln 0 = 0."""
    return lam * math.log(lam) if lam > 0.0 else 0.0


def n_d1_abc(r_d: Values) -> Values:
    """1-3 tangle of the accelerated observer against the three inertial ones.

    (1/8) [3 cos 2r + sqrt(3/2) sqrt(4 cos 2r + 3 cos 4r + 25) - 3]
    """
    r_d = _r("n_d1_abc", "r_d", r_d)
    c2 = _each(math.cos, 2 * r_d)
    return _clipped((3.0 * c2 + math.sqrt(1.5) * _sqrt(4 * c2 + 3 * _each(math.cos, 4 * r_d) + 25)
                     - 3.0) / 8.0)


def n_ab_const() -> float:
    """Pair negativity between two inertial observers: (sqrt(2) - 1) / 2.

    Independent of every acceleration, including the infinite limit.
    """
    return (SQRT2 - 1.0) / 2.0


def _n_i_d1_raw(r: Values) -> Values:
    c2 = _each(math.cos, 2 * r)
    return (-6.0 + SQRT2 * _sqrt(28 * c2 + 9 * _each(math.cos, 4 * r) + 27) - 2.0 * c2) / 16.0


def n_i_d1(r_d: Values) -> Values:
    """Pair negativity between an inertial and the accelerated observer.

    (1/16) [-6 + sqrt(2) sqrt(28 cos 2r + 9 cos 4r + 27) - 2 cos 2r];
    starts at (sqrt(2)-1)/2 and falls to 0 at r = pi/4.
    """
    return _clipped(_n_i_d1_raw(_r("n_i_d1", "r_d", r_d)))


def n_pair_accel_one(r_c: Values) -> Values:
    """Pair negativity of an inertial observer with one of two accelerated ones.

    Same functional form as n_i_d1, evaluated in that observer's own
    parameter; the other acceleration drops out entirely.
    """
    return _clipped(_n_i_d1_raw(_r("n_pair_accel_one", "r_c", r_c)))


def _n_pair_accel_both_raw(r_c: Values, r_d: Values) -> Values:
    plus, minus = _each(math.cos, 2 * r_c + 2 * r_d), _each(math.cos, 2 * r_c - 2 * r_d)
    c2, d2 = _each(math.cos, 2 * r_c), _each(math.cos, 2 * r_d)
    inner = (22 * plus + 22 * minus + 9 * _each(math.cos, 4 * r_c) - 16 * c2
             + 9 * _each(math.cos, 4 * r_d) - 16 * d2 + 34)
    return (SQRT2 * _sqrt(inner) - 2 * plus - 2 * minus + 2 * c2 + 2 * d2 - 8.0) / 16.0


def n_pair_accel_both(r_c: Values, r_d: Values) -> Values:
    """Pair negativity of the two accelerated observers.

    Symmetric in (r_c, r_d); clipped to 0 on the plateau where the underlying
    eigenvalue has turned nonnegative (beyond r ~ 0.4725 on the diagonal).
    """
    return _clipped(_n_pair_accel_both_raw(_r("n_pair_accel_both", "r_c", r_c),
                                           _r("n_pair_accel_both", "r_d", r_d)))


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
    c2 = _each(math.cos, 2 * _r("entropy_one_accel", "r_d", r_d))
    lam1 = 0.375 * (1.0 - c2)
    lam2 = (3.0 * c2 + 5.0) / 8.0
    return 0.0 - _each(_xlogx, lam1) - _each(_xlogx, lam2)
