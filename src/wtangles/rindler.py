"""Minkowski to Rindler mode transformation for accelerated observers.

Seen from a uniformly accelerated frame, a single fermionic Minkowski mode
splits into a pair of Rindler modes, one in each wedge:

    |0>_M -> cos r |0_I 0_II> + sin r |1_I 1_II>
    |1>_M -> |1_I 0_II>

with cos r = (exp(-2 pi omega c / a) + 1)**(-1/2) for a mode of frequency
omega, so the parameter r runs over [0, pi/4] as the proper acceleration a
runs from 0 to infinity.  The transformation is applied as a plain linear
map on the occupation tensor; no anticommutation sign convention is
introduced.  The region-I mode keeps the observer's position in the
register A, B, C, D and the region-II mode is appended last, so the four
accessible modes stay contiguous.

The region-II wedge is causally disconnected, so the observed state traces
out every region-II mode.  With the k appended region-II modes last, the
amplitudes reshape to a (16, 2^k) matrix V, and rho is the sum of the outer
products of V's columns, added in column (index) order.

The initial state is always |W4> (fock.W4): observed_densities takes its
amplitudes as psi0 only to check, once and before anything is built, that
they are W4's, and raises one ValueError for any other.  Its amplitudes are
real (Alsing et al., PRA 74, 032326, 2006, for the real single-mode map),
and cos r and sin r are real, so V and rho are real: they are built in
float64, and the DensityMatrix keeps them float64.  Only the eigensolve
casts to complex128 (linalg), and that cast is the bits of the complex
build, whose x * conj(y) has real part x*y and imaginary part +0 for real
x and y.

The map conserves N_I - N_II, so V and rho are sparse: with C and D split,
|W4> gives 12 nonzero amplitudes and 37 nonzero rho entries out of 256, 25
with one observer.  rho is built from that support, not from dense outer
products.  _support lists it by the rule above, once per set of split modes
(for W4's nonzero pattern, unless a builder names another): a split mode
that is occupied keeps its bit and leaves region II empty, and an empty
one branches into cos r (both wedges empty) and sin r (both occupied).
That gives each nonzero amplitude's source and factors, and each nonzero
rho entry's products in region-II index order.  Per point, each amplitude is the initial one times
its factors in split order (x 1.0 is exact where a split leaves it), and
each entry adds its products, in order, onto the +0.0 of a zeroed rho.
That is the dense sum's arithmetic with its exact-zero terms left out, and
those change no bit: adding +-0.0 leaves a nonzero sum as it is and keeps a
zero one +0.0, since a sum that starts at +0.0 never becomes -0.0.  So each
entry is the same bytes as the dense build's.

observed_densities does this for N points at once: the amplitudes are an
(N, M) stack scaled by per-point cos r and sin r columns, and rho is an
(N, 16, 16) stack, validated once and held as built, with no copy.
observed_density is the batch of one.  The checks of its points
(_checked) and the build from the support table (_built) are two steps, so
that measures.evaluate_points checks a call's points once and then builds
each slice of CHUNK rows, each validated as a state.  _checked also takes
cos r and sin r of every point once per call, into a table of each point's
split factors [1.0, cos r, sin r], with math's cos and sin applied to each
value in turn (numpy's vector loops may round differently); _built indexes
its slice's rows of that table, so each factor keeps math's bits and the
x 1.0 stays exact.  check_observers is the one rule for a list of observers,
here, in sweep's axes and in the observer a matrix dump transposes; check_r
is the one rule for r, here, in sweep's axes and in every closed form of
oracles.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .fock import OBSERVERS, W4, DensityMatrix

R_MAX = math.pi / 4
# slack on the r domain, so endpoints that carry roundoff are still accepted
R_TOL = 1e-12
# the r accepted, both ends included
R_LO, R_HI = -R_TOL, R_MAX + R_TOL
# the indices of W4's nonzero amplitudes, which every public build splits
_NONZERO = tuple(np.flatnonzero(W4).tolist())


class ConfigError(ValueError):
    """Raised for a bad name list, observer list, r or sweep configuration, naming it."""


def check_observers(observers: Sequence[str], what: str) -> None:
    """Reject an unknown observer, or one given twice, in a ConfigError that names what."""
    for j, obs in enumerate(observers):
        if obs not in OBSERVERS:
            raise ConfigError(f"{what}: unknown observer {obs!r}; known: {', '.join(OBSERVERS)}")
        if obs in observers[:j]:
            raise ConfigError(f"{what}: observer {obs!r} given twice")


def out_of_domain(r) -> float | None:
    """The first value of r, a number or an array, outside [0, pi/4] (NaN too), or None."""
    r = np.asarray(r, dtype=float)
    # one min and one max clear a whole array; a NaN makes both NaN, failing either test
    if r.size == 0 or (r.min() >= R_LO and r.max() <= R_HI):
        return None
    return next(x for x in r.ravel().tolist() if not R_LO <= x <= R_HI)


def check_r(r, what: str) -> None:
    """Reject a value of r, a number or an array, outside [0, pi/4] (NaN too).

    The ConfigError names what and the first bad value, as in
    'accel: D=nan outside [0, pi/4]' or 'n_i_d1: r_d=1.0 outside [0, pi/4]'.
    """
    if (bad := out_of_domain(r)) is not None:
        raise ConfigError(f"{what}={bad!r} outside [0, pi/4]")


@lru_cache
def _support(positions: tuple[int, ...], nonzero: tuple[int, ...] = _NONZERO):
    """The nonzero amplitudes of the split states and the products of their rho.

    positions are the split modes, in register order, and nonzero the
    indices of the nonzero initial amplitudes, W4's unless a builder of
    other amplitudes names them.  Each is split by the map's rule, one mode
    at a time.  The amplitudes are listed by flat index, region-I pattern
    << k | region-II pattern, with the first split's region-II bit the most
    significant.  The table holds
    - source: (M,) the initial amplitude of each nonzero split amplitude;
    - factors: k (M,) arrays, what split j multiplies each by: 0 nothing,
      1 cos r, 2 sin r;
    - rounds: (3, n) index arrays of entries, left and right; round s adds,
      to each flat rho entry with more than s products, its product number s
      in region-II index order, amplitude left times amplitude right.
    """
    k = len(positions)
    # (region-I pattern, region-II pattern, source, factors) of each nonzero amplitude
    amplitudes = [(source, 0, source, ()) for source in nonzero]
    for pos in positions:
        bit = 8 >> pos
        split = []
        for row, pattern, source, factors in amplitudes:
            if row & bit:
                # |1> -> |1_I 0_II>
                split.append((row, pattern << 1, source, factors + (0,)))
            else:
                # |0> -> cos r |0_I 0_II> + sin r |1_I 1_II>
                split.append((row, pattern << 1, source, factors + (1,)))
                split.append((row | bit, pattern << 1 | 1, source, factors + (2,)))
        amplitudes = split
    # (row, pattern) order is flat index order, and no two amplitudes share an index
    amplitudes.sort()
    source = np.array([a[2] for a in amplitudes], dtype=np.intp)
    factors = [np.array([a[3][j] for a in amplitudes], dtype=np.intp) for j in range(k)]
    terms: dict[int, list[tuple[int, int]]] = {}
    for t in range(1 << k):
        at_t = [(a, row) for a, (row, pattern, _, _) in enumerate(amplitudes) if pattern == t]
        for a, row_a in at_t:
            for b, row_b in at_t:
                terms.setdefault(16 * row_a + row_b, []).append((a, b))
    rounds = [np.array([(e, *products[s]) for e, products in terms.items() if len(products) > s],
                       dtype=np.intp).T
              for s in range(max(map(len, terms.values()), default=0))]
    return source, factors, rounds


def _checked(observers: Sequence[str], r):
    """observed_densities' checks of its points, in its order, on all N points at once.

    Returns each point's split factors, an (N, k, 3) array whose [p, j] is
    [1.0, cos r, sin r] for r[p, j], and the table the build reads: W4's
    amplitudes, the split order and the support.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[1] != len(observers) or not len(r):
        raise ValueError(f"r has shape {r.shape}, want (points >= 1, {len(observers)})")
    if out_of_domain(r) is not None:
        for obs, column in zip(observers, r.T):
            check_r(column, f"accel: {obs}")
    check_observers(observers, "observers")
    # region-II axes go after every accessible one, so a mode's position holds
    order = sorted((OBSERVERS.index(obs), j) for j, obs in enumerate(observers))
    support = _support(tuple(pos for pos, _ in order))
    # math's cos and sin, value by value, once per call; numpy's vector loops may round differently
    values, split = r.ravel().tolist(), np.ones((r.size, 3))
    split[:, 1] = np.fromiter(map(math.cos, values), float, r.size)
    split[:, 2] = np.fromiter(map(math.sin, values), float, r.size)
    return split.reshape(r.shape + (3,)), (W4, order, support)


def _built(split: np.ndarray, table) -> DensityMatrix:
    """The validated rho stack of checked points, from their rows of _checked's split factors."""
    psi0, order, (source, factors, rounds) = table
    points = len(split)
    # one row of source amplitudes, which the first split's factors, or rho's
    # sums with no split, broadcast over the points
    amp = psi0[source][None]
    for (_, j), factor in zip(order, factors):
        # x 1.0 where the split leaves an amplitude as it is: exact
        amp = amp * split[:, j, factor]
    # added, never assigned: each sum starts at +0.0, as the dense sum did, so a
    # -0.0 product lands as +0.0
    rho = np.zeros((points, 256))
    for entries, left, right in rounds:
        rho[:, entries] += amp[:, left] * amp[:, right]
    return DensityMatrix._owning(rho.reshape(points, 16, 16))


def observed_densities(psi0: np.ndarray, observers: Sequence[str], r) -> DensityMatrix:
    """Observed states at N >= 1 points, as one validated (N, 16, 16) stack.

    psi0 must equal w_state(4), the amplitudes of |W4> on the register A, B,
    C, D; any other array-like raises one ValueError before anything is
    built.  r is an (N, k) array: r[p, j] is the parameter of observers[j]
    at point p.  The observers' modes are split in register order and the
    region-II modes are traced out of the pure states directly.
    """
    if not np.array_equal(psi0, W4):
        raise ValueError("observed states start from |W4>: psi0 must equal w_state(4)")
    return _built(*_checked(observers, r))


def observed_density(psi0: np.ndarray, scenario: Mapping[str, float] | None) -> DensityMatrix:
    """Density matrix seen after acceleration: transform, then drop region II.

    scenario maps each accelerated observer to its r; None means nobody
    accelerates.  This is observed_densities at one point.
    """
    params = dict(scenario or {})
    return observed_densities(psi0, tuple(params), [list(params.values())])[0]
