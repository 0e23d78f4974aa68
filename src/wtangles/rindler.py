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

The initial amplitudes must be real, as those of |W4> are (Alsing et al.,
PRA 74, 032326, 2006, for the real single-mode map), and cos r and sin r are
real, so V and rho are real: they are built in float64, each outer product
through one reused buffer, and the DensityMatrix keeps them float64.  Only
the eigensolve casts to complex128 (linalg), and that cast is the bits of
the complex build, whose x * conj(y) has real part x*y and imaginary part +0
for real x and y.  Fresh arrays per chunk let glibc trim the top of the
heap and fault it back on every chunk, so the build makes none it can
avoid: a fresh process running run_check takes about 2,300 minor page
faults per pass (the README Notes give the history).

observed_densities does this for N points at once: the amplitudes are an
(N, 16) stack split by per-point cos r and sin r columns, and rho is an
(N, 16, 16) stack, validated once.  observed_density is the batch of one.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .fock import OBSERVERS, DensityMatrix

R_MAX = math.pi / 4
# slack on the r domain, so endpoints that carry roundoff are still accepted
R_TOL = 1e-12


def out_of_domain(r) -> float | None:
    """The first value of r, a number or an array, outside [0, pi/4] (NaN too), or None."""
    lo, hi = -R_TOL, R_MAX + R_TOL
    # a lone float skips numpy, whose call overhead would dominate the oracles' checks
    if isinstance(r, float):
        return None if lo <= r <= hi else r
    r = np.asarray(r, dtype=float)
    # one min and one max clear a whole array; a NaN makes both NaN, failing either test
    if r.size == 0 or (r.min() >= lo and r.max() <= hi):
        return None
    return next(x for x in r.ravel().tolist() if not lo <= x <= hi)


def _split(amp: np.ndarray, pos: int, cos_r: np.ndarray, sin_r: np.ndarray) -> np.ndarray:
    """Split mode pos of each (N, 2^n) amplitude row; region II is appended last.

    The result keeps amp's dtype.
    """
    points = len(amp)
    # axes (point, modes left of pos, mode pos, modes right of pos)
    src = amp.reshape(points, 1 << pos, 2, -1)
    out = np.zeros(src.shape + (2,), dtype=amp.dtype)
    out[:, :, 0, :, 0] = cos_r.reshape(points, 1, 1) * src[:, :, 0]
    out[:, :, 1, :, 1] = sin_r.reshape(points, 1, 1) * src[:, :, 0]
    out[:, :, 1, :, 0] = src[:, :, 1]
    return out.reshape(points, -1)


def observed_densities(psi0: np.ndarray, observers: Sequence[str], r) -> DensityMatrix:
    """Observed states at N >= 1 points, as one validated (N, 16, 16) stack.

    psi0 is array-like: the 16 real amplitudes of the register A, B, C, D,
    as w_state(4) gives them; a nonzero imaginary part raises ValueError.
    Its norm is left to rho's trace check: the split preserves the norm, so
    tr rho = |psi0|^2.  r is an (N, k) array: r[p, j] is the parameter of
    observers[j] at point p.  The observers' modes are split in register
    order and the region-II modes are traced out of the pure states directly.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[1] != len(observers) or not len(r):
        raise ValueError(f"r has shape {r.shape}, want (points >= 1, {len(observers)})")
    bad = out_of_domain(r)
    if bad is not None:
        raise ValueError(f"acceleration parameter r={bad!r} outside [0, pi/4]")
    psi0 = np.asarray(psi0)
    if psi0.shape != (16,):
        got = len(psi0) if psi0.ndim == 1 else f"shape {psi0.shape}"
        raise ValueError(f"observed states need the 16 amplitudes of A, B, C, D, got {got}")
    if psi0.imag.any():
        raise ValueError("observed states need real amplitudes")
    for j, obs in enumerate(observers):
        if obs not in OBSERVERS:
            raise ValueError(f"unknown observer {obs!r}")
        if obs in observers[:j]:
            raise ValueError(f"observer {obs!r} is already transformed")
    points = len(r)
    # float64 amplitudes are read in place: even this small a per-chunk temporary
    # moved heap trimming (see the module docstring)
    amp = np.asarray(psi0.real, dtype=float)[None].repeat(points, axis=0)
    # region-II axes go after every accessible one, so a mode's position holds
    for pos, j in sorted((OBSERVERS.index(obs), j) for j, obs in enumerate(observers)):
        # math's cos and sin, value by value; numpy's vector loops may round differently
        column = r[:, j].tolist()
        amp = _split(amp, pos, np.array([math.cos(x) for x in column]),
                     np.array([math.sin(x) for x in column]))
    # rows: the accessible modes; columns: the region-II patterns, appended last
    v = amp.reshape(points, 16, -1)
    rho = np.zeros((points, 16, 16))
    # one reused product buffer; see the module docstring
    term = np.empty_like(rho)
    for t in range(v.shape[2]):
        rho += np.multiply(v[:, :, t, None], v[:, None, :, t], out=term)
    return DensityMatrix(rho)


def observed_density(psi0: np.ndarray, scenario: Mapping[str, float] | None) -> DensityMatrix:
    """Density matrix seen after acceleration: transform, then drop region II.

    scenario maps each accelerated observer to its r; None means nobody
    accelerates.  This is observed_densities at one point.
    """
    params = dict(scenario or {})
    return observed_densities(psi0, tuple(params), [list(params.values())])[0]
