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
(for W4's amplitudes, unless a builder names others): a split mode that is
occupied keeps its bit and leaves region II empty, and an empty one
branches into cos r (both wedges empty) and sin r (both occupied).  That
gives one table: the row of initial amplitudes that the nonzero split
amplitudes come from, each one's factors in split order, each nonzero rho
entry's products in region-II index order, and rho's compact layout
(fock.Layout), an (n, E + 1) array of the support entries in flat order
and one +0.0 column, with structural blocks of 4 and 3 plus nine 1x1 with
D accelerated, and 5, 4 and 2 plus five 1x1 with C and D.  Per point, each
amplitude is its initial one times its factors (x 1.0 is exact where a
split leaves it), and each entry adds its products, in order, onto the
+0.0 of a zeroed column.  That is the dense sum's arithmetic with its
exact-zero terms left out, and those change no bit: adding +-0.0 leaves a
nonzero sum as it is and keeps a zero one +0.0, since a sum that starts at
+0.0 never becomes -0.0.  So each entry, and the +0.0 off the support, is
the same bytes as the dense build's.

Every observed rho comes through _checked, which checks a call's points,
and _chunks: that takes math's cos r and sin r of each point once, so each
factor keeps math's bits and the x 1.0 stays exact, then hands back rho's
layout and the chunks, CHUNK points each, that it builds and checks in
that layout (fock._validate_compact) only as they are read.  The matrix
command calls _chunks alone, once sweep.check_axes has checked its axes.
measures.evaluate_points plans its request between the checks and the
build, so a bad measure name fails before any state is built, and gathers
every matrix it solves from each chunk.  observed_densities takes a single
chunk as it is, or joins the chunks, and returns their dense (N, 16, 16)
view, with no second check; observed_density is the batch of one.  A chunk
is the most any check is handed, which bounds its temporaries.

check_observers is the one rule for a list of observers, here, in sweep's
axes and in the observer a matrix dump transposes.  check_r is the one
rule for r: here, in sweep's axes and in every closed form of oracles.
_checked clears all of a call's r, and sweep.check_axes all of its axes'
bounds, with one check_r pass (_clears); only when that pass fails do they
check again observer by observer, or axis by axis, so that the message
names the first bad value of the first bad part, as a check of each part
in turn would.  _each is the one per-value map, a Python float function
applied to each value in turn, as numpy's vector loops may round
differently: cos r and sin r here, the squares and fourth roots in
measures, and the closed forms' cos and log.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import lru_cache

import numpy as np

from .fock import OBSERVERS, W4, ConfigError, DensityMatrix, Layout, _validate_compact

R_MAX = math.pi / 4
# slack on the r domain, so endpoints that carry roundoff are still accepted
R_TOL = 1e-12
# the r accepted, both ends included
R_LO, R_HI = -R_TOL, R_MAX + R_TOL
# points built and checked per stack: large enough that per-stack Python and
# numpy overhead is small next to measures' eigensolves, small enough that a
# stack of 1-3 transposes stays about 1 MiB (CHUNK 256 measured slower than 64)
CHUNK = 64


def check_observers(observers: Sequence[str], what: str) -> None:
    """Reject an unknown observer, or one given twice, in a ConfigError that names what."""
    for j, obs in enumerate(observers):
        if obs not in OBSERVERS:
            raise ConfigError(f"{what}: unknown observer {obs!r}; known: {', '.join(OBSERVERS)}")
        if obs in observers[:j]:
            raise ConfigError(f"{what}: observer {obs!r} given twice")


def _real(r, what: str) -> np.ndarray:
    """r as an array of an integer or float dtype, else a ConfigError that names what."""
    if (array := np.asarray(r)).dtype.kind not in "iuf":
        raise ConfigError(f"{what} has dtype {array.dtype}, want real numbers")
    # numpy reads a bool that a list mixes into numbers as a number; an ndarray has one dtype
    if array is not r and any(isinstance(x, (bool, np.bool_)) for x in np.array(r, object).flat):
        raise ConfigError(f"{what} mixes a bool into its numbers, want real numbers")
    return array


def check_r(r, what: str) -> np.ndarray:
    """r, real numbers (_real), as a float64 array, 0-d for a number, once all lie in [0, pi/4].

    A ConfigError names what and the first bad value, NaN too, as in
    'accel: D=nan outside [0, pi/4]' or 'n_i_d1: r_d=1.0 outside [0, pi/4]'.
    """
    r = np.asarray(_real(r, what), dtype=float)
    # one min and one max clear a whole array; a NaN makes both NaN, failing either test
    if r.size and not (r.min() >= R_LO and r.max() <= R_HI):
        bad = next(x for x in r.ravel().tolist() if not R_LO <= x <= R_HI)
        raise ConfigError(f"{what}={bad!r} outside [0, pi/4]")
    return r


def _clears(r) -> bool:
    """Whether one check_r pass clears all of r, the values of several parts.

    A ValueError of that pass, a bad value or dtype (ConfigError) or numpy's
    ragged layout, is False: the caller then checks part by part, in order,
    and raises what that part's own check raises, outside this handler, so
    no error is chained to it.
    """
    try:
        check_r(r, "accel")
    except ValueError:
        return False
    return True


def _each(f, x) -> np.ndarray:
    """f of each value of x, an array or a number, in turn, as a float64 array of its shape."""
    x = np.asarray(x)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


@lru_cache
def _support(positions: tuple[int, ...], psi0: tuple[float, ...] = tuple(W4.tolist())):
    """The nonzero amplitudes of the split states and the products of their rho.

    positions are the split modes, in register order, and psi0 the 16 real
    initial amplitudes, W4's unless a builder of other amplitudes names them.
    Each nonzero one is split by the map's rule, one mode at a time.
    The amplitudes are listed by flat index, region-I pattern << k |
    region-II pattern, with the first split's region-II bit the most
    significant.  The table holds
    - initial: a (1, M) row, the initial amplitude each nonzero split
      amplitude comes from;
    - factors: k (M,) arrays, what split j multiplies each by: 0 nothing,
      1 cos r, 2 sin r;
    - rounds: (3, n) index arrays of entries, left and right; round s adds,
      to each rho entry with more than s products, its product number s in
      region-II index order, amplitude left times amplitude right; an entry
      is its column in layout;
    - layout: rho's compact fock.Layout, whose support is the entries that
      round 0 adds to.
    """
    k = len(positions)
    # (region-I pattern, region-II pattern, source, factors) of each nonzero amplitude
    amplitudes = [(source, 0, source, ()) for source, x in enumerate(psi0) if x]
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
    initial = np.array([[psi0[a[2]] for a in amplitudes]])
    factors = [np.array([a[3][j] for a in amplitudes], dtype=np.intp) for j in range(k)]
    terms: dict[int, list[tuple[int, int]]] = {}
    for t in range(1 << k):
        at_t = [(a, row) for a, (row, pattern, _, _) in enumerate(amplitudes) if pattern == t]
        for a, row_a in at_t:
            for b, row_b in at_t:
                terms.setdefault(16 * row_a + row_b, []).append((a, b))
    layout = Layout(terms, 16)
    rounds = [np.array([(layout.column[e], *products[s]) for e, products in terms.items()
                        if len(products) > s], dtype=np.intp).T
              for s in range(max(map(len, terms.values()), default=0))]
    return initial, factors, rounds, layout


def _checked(observers: Sequence[str], r):
    """observed_densities' checks, in order: dtype, shape, observers, then r's domain, of all N.

    One check_r pass clears the whole (N, k) r; only if it fails is each
    observer's column checked in turn, to name the first bad value of the
    first bad observer, 'accel: D=1.0 outside [0, pi/4]'.  A bare str or
    bytes of observers is one name, as measures.select_names reads it,
    anything else not iterable a ConfigError, and r must be real (_real).

    Returns _chunks of the checked observers and r.
    """
    try:
        observers = (observers,) if isinstance(observers, (str, bytes)) else tuple(observers)
    except TypeError:
        raise ConfigError(f"observers: expected names as str, got {observers!r}") from None
    r = _real(r, "r")
    if r.ndim != 2 or r.shape[1] != len(observers) or not len(r):
        raise ValueError(f"r has shape {r.shape}, want (points >= 1, {len(observers)})")
    check_observers(observers, "observers")
    if not _clears(r):
        for obs, column in zip(observers, r.T):
            check_r(column, f"accel: {obs}")
    return _chunks(observers, r)


def _chunks(observers: tuple[str, ...], r: np.ndarray):
    """rho's compact layout, and an iterator over the states at checked observers and (N, k) r.

    The iterator builds and checks the states CHUNK points at a time
    (_built), in order, each an (n, E + 1) array; nothing is built before it
    is read.  Each point's split factors, [1.0, cos r, sin r] of its r of
    each split mode in register order, are taken here, once.
    """
    # region-II axes go after every accessible one, so a mode's position holds
    order = sorted((OBSERVERS.index(obs), j) for j, obs in enumerate(observers))
    columns = [j for _, j in order]
    # a sweep's observers come in register order, and r's columns are read as they are
    values = r if columns == sorted(columns) else r[:, columns]
    split = np.ones(r.shape + (3,))
    split[..., 1], split[..., 2] = _each(math.cos, values), _each(math.sin, values)
    table = _support(tuple(pos for pos, _ in order))
    return table[-1], (_built(split[start:start + CHUNK], table)
                       for start in range(0, len(split), CHUNK))


def _built(split: np.ndarray, table) -> np.ndarray:
    """The checked (n, E + 1) states of checked points, from their split factors and table."""
    # amp starts as the row of initial amplitudes, which the first split's
    # factors, or rho's sums with no split, broadcast over the points
    amp, factors, rounds, layout = table
    for j, factor in enumerate(factors):
        # x 1.0 where the split leaves an amplitude as it is: exact
        amp = amp * split[:, j, factor]
    # added, never assigned: each sum starts at +0.0, as the dense sum did, so a
    # -0.0 product lands as +0.0; the last column stays +0.0
    values = layout.zeros(len(split))
    for entries, left, right in rounds:
        values[:, entries] += amp[:, left] * amp[:, right]
    _validate_compact(values, layout)
    return values


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
    layout, chunks = _checked(observers, r)
    # one chunk's values as they are; more are joined, and the chunks freed
    values = [*chunks]
    values = values[0] if len(values) == 1 else np.concatenate(values)
    return DensityMatrix._owning(layout.dense(values))


def observed_density(psi0: np.ndarray, scenario: Mapping[str, float] | None) -> DensityMatrix:
    """Density matrix seen after acceleration: transform, then drop region II.

    scenario is a mapping of each accelerated observer to its r, or None for
    no acceleration.  This is observed_densities at one point.
    """
    if scenario is not None and not isinstance(scenario, Mapping):
        raise ConfigError(f"scenario: expected a mapping or None, got {scenario!r}")
    params = dict(scenario or {})
    return observed_densities(psi0, tuple(params), [list(params.values())])[0]
