"""Closed-form reference curves for the accelerated W-state measures.

Each function encodes one analytic expression independently of the numeric
pipeline, so the two routes can be cross-checked.  The negativity curves are
derived as twice the magnitude of a negative eigenvalue; once that eigenvalue
crosses zero the raw expression keeps falling while the physical negativity
stays at zero, so oracle outputs are reported as max(value, 0).

Shorthands below: the accelerated observers C and D carry parameters r_c and
r_d.  For a single accelerated observer only r_d is relevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .rindler import R_MAX, R_TOL

SQRT2 = math.sqrt(2.0)

THRESHOLD_BRACKET = (0.4, 0.55)
THRESHOLD_XTOL = 1e-10


def _check_domain(name: str, **r_args: float) -> None:
    for arg, value in r_args.items():
        if not -R_TOL <= value <= R_MAX + R_TOL:
            raise ValueError(f"{name}: {arg}={value!r} outside [0, pi/4]")


def n_d1_abc(r_d: float) -> float:
    """1-3 tangle of the accelerated observer against the three inertial ones.

    (1/8) [3 cos 2r + sqrt(3/2) sqrt(4 cos 2r + 3 cos 4r + 25) - 3]
    """
    _check_domain("n_d1_abc", r_d=r_d)
    value = (3.0 * math.cos(2 * r_d)
             + math.sqrt(1.5) * math.sqrt(4 * math.cos(2 * r_d) + 3 * math.cos(4 * r_d) + 25)
             - 3.0) / 8.0
    return max(value, 0.0)


def n_ab_const() -> float:
    """Pair negativity between two inertial observers: (sqrt(2) - 1) / 2.

    Independent of every acceleration, including the infinite limit.
    """
    return (SQRT2 - 1.0) / 2.0


def _n_i_d1_raw(r: float) -> float:
    return (-6.0
            + SQRT2 * math.sqrt(28 * math.cos(2 * r) + 9 * math.cos(4 * r) + 27)
            - 2.0 * math.cos(2 * r)) / 16.0


def n_i_d1(r_d: float) -> float:
    """Pair negativity between an inertial and the accelerated observer.

    (1/16) [-6 + sqrt(2) sqrt(28 cos 2r + 9 cos 4r + 27) - 2 cos 2r];
    starts at (sqrt(2)-1)/2 and falls to 0 at r = pi/4.
    """
    _check_domain("n_i_d1", r_d=r_d)
    return max(_n_i_d1_raw(r_d), 0.0)


def n_pair_accel_one(r_c: float) -> float:
    """Pair negativity of an inertial observer with one of two accelerated ones.

    Same functional form as n_i_d1, evaluated in that observer's own
    parameter; the other acceleration drops out entirely.
    """
    _check_domain("n_pair_accel_one", r_c=r_c)
    return max(_n_i_d1_raw(r_c), 0.0)


def _n_pair_accel_both_raw(r_c: float, r_d: float) -> float:
    inner = (22 * math.cos(2 * r_c + 2 * r_d) + 22 * math.cos(2 * r_c - 2 * r_d)
             + 9 * math.cos(4 * r_c) - 16 * math.cos(2 * r_c)
             + 9 * math.cos(4 * r_d) - 16 * math.cos(2 * r_d) + 34)
    return (SQRT2 * math.sqrt(inner)
            - 2 * math.cos(2 * r_c + 2 * r_d) - 2 * math.cos(2 * r_c - 2 * r_d)
            + 2 * math.cos(2 * r_c) + 2 * math.cos(2 * r_d) - 8.0) / 16.0


def n_pair_accel_both(r_c: float, r_d: float) -> float:
    """Pair negativity of the two accelerated observers.

    Symmetric in (r_c, r_d); clipped to 0 on the plateau where the underlying
    eigenvalue has turned nonnegative (beyond r ~ 0.4725 on the diagonal).
    """
    _check_domain("n_pair_accel_both", r_c=r_c, r_d=r_d)
    return max(_n_pair_accel_both_raw(r_c, r_d), 0.0)


def vanishing_threshold() -> float:
    """Diagonal r at which the accelerated-pair negativity reaches zero.

    Found by bisection on the raw (unclipped) diagonal curve over the bracket
    [0.4, 0.55] to an interval of 1e-10.  With x = cos 2r the zero condition
    factors as (x^2 - 4x + 2)(x + 1)^2 = 0, so the root is at
    r = arccos(2 - sqrt(2)) / 2 = 0.47247312...
    """
    lo, hi = THRESHOLD_BRACKET
    f_lo = _n_pair_accel_both_raw(lo, lo)
    f_hi = _n_pair_accel_both_raw(hi, hi)
    if not (f_lo > 0.0 > f_hi):
        raise RuntimeError("threshold bracket does not straddle the zero crossing")
    while hi - lo > THRESHOLD_XTOL:
        mid = 0.5 * (lo + hi)
        if _n_pair_accel_both_raw(mid, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_one_accel(r_d: float) -> float:
    """Entropy of the observed state with one accelerated observer.

    Only two eigenvalues are nonzero: lambda_1 = (3/8)(1 - cos 2r) and
    lambda_2 = (1/8)(3 cos 2r + 5); S = -sum(lambda ln lambda) with
    0 ln 0 = 0.
    """
    _check_domain("entropy_one_accel", r_d=r_d)
    lam1 = 0.375 * (1.0 - math.cos(2 * r_d))
    lam2 = (3.0 * math.cos(2 * r_d) + 5.0) / 8.0
    total = 0.0
    for lam in (lam1, lam2):
        if lam > 0.0:
            total -= lam * math.log(lam)
    return total


@dataclass(frozen=True)
class OracleCurve:
    """A named closed form with its number of r arguments."""

    name: str
    arity: int
    evaluator: Callable[..., float]


ORACLES: dict[str, OracleCurve] = {curve.name: curve for curve in (
    OracleCurve("n_d1_abc", 1, n_d1_abc),
    OracleCurve("n_ab_const", 0, n_ab_const),
    OracleCurve("n_i_d1", 1, n_i_d1),
    OracleCurve("n_pair_accel_one", 1, n_pair_accel_one),
    OracleCurve("n_pair_accel_both", 2, n_pair_accel_both),
    OracleCurve("entropy_one_accel", 1, entropy_one_accel),
)}
