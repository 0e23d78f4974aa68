"""Minkowski to Rindler mode transformation for accelerated observers.

Seen from a uniformly accelerated frame, a single fermionic Minkowski mode
splits into a pair of Rindler modes, one in each wedge:

    |0>_M -> cos r |0_I 0_II> + sin r |1_I 1_II>
    |1>_M -> |1_I 0_II>

with cos r = (exp(-2 pi omega c / a) + 1)**(-1/2) for a mode of frequency
omega, so the parameter r runs over [0, pi/4] as the proper acceleration a
runs from 0 to infinity.  The transformation is applied as a plain linear
map on the occupation tensor; no anticommutation sign convention is
introduced.  The region-I mode keeps the original mode's position and the
region-II mode is appended last, so the accessible modes stay contiguous.

Region II is causally disconnected, so the observed state traces out every
region-II mode.  With the k appended region-II modes last, the amplitudes
reshape to a (2^n, 2^k) matrix V, and rho is the sum of the outer products
of V's columns with their conjugates, added in column (index) order.

observed_densities does this for N points at once: the amplitudes are an
(N, 2^n) stack split by per-point cos r and sin r columns, and rho is an
(N, 2^n, 2^n) stack, validated once.  observed_density is the batch of one.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .fock import DensityMatrix, Mode, ModeLayout, Region, StateVector

R_MAX = math.pi / 4
# slack on the r domain, so endpoints that carry roundoff are still accepted
R_TOL = 1e-12


def _split(amp: np.ndarray, pos: int, cos_r: np.ndarray, sin_r: np.ndarray) -> np.ndarray:
    """Split mode pos of each (N, 2^n) amplitude row; region II is appended last."""
    points = len(amp)
    # axes (point, modes left of pos, mode pos, modes right of pos)
    src = amp.reshape(points, 1 << pos, 2, -1)
    out = np.zeros(src.shape + (2,), dtype=complex)
    out[:, :, 0, :, 0] = cos_r.reshape(points, 1, 1) * src[:, :, 0]
    out[:, :, 1, :, 1] = sin_r.reshape(points, 1, 1) * src[:, :, 0]
    out[:, :, 1, :, 0] = src[:, :, 1]
    return out.reshape(points, -1)


def observed_densities(psi0: StateVector, observers: Sequence[str], r) -> DensityMatrix:
    """Observed states at N points, as one validated (N, dim, dim) stack.

    r is an (N, k) array: r[p, j] is the parameter of observers[j] at point
    p.  The observers' modes are split in ascending layout position and the
    region-II modes are traced out of the pure states directly.  For the
    four-mode W register each state is the A,B,C,D_I or A,B,C_I,D_I state,
    with inertial observers untouched.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[1] != len(observers):
        raise ValueError(f"r has shape {r.shape}, want (points, {len(observers)})")
    if r.size and not (r.min() >= -R_TOL and r.max() <= R_MAX + R_TOL):
        bad = next(x for x in r.ravel().tolist() if not -R_TOL <= x <= R_MAX + R_TOL)
        raise ValueError(f"acceleration parameter r={bad!r} outside [0, pi/4]")
    layout = psi0.layout
    if any(m.region is not Region.MINKOWSKI for m in layout.modes):
        raise ValueError("observed_density expects an all-Minkowski input state")
    known = {m.observer for m in layout.modes}
    for j, obs in enumerate(observers):
        if obs not in known:
            raise ValueError(f"unknown observer {obs!r}")
        if obs in observers[:j]:
            raise ValueError(f"observer {obs!r} is already transformed")
    points = len(r)
    amp = psi0.amplitudes[None].repeat(points, axis=0)
    # region-II axes go after every accessible one, so a mode's position holds
    for pos, j in sorted((layout.position(obs), j) for j, obs in enumerate(observers)):
        # math's cos and sin, value by value; numpy's vector loops may round differently
        column = r[:, j].tolist()
        amp = _split(amp, pos, np.array([math.cos(x) for x in column]),
                     np.array([math.sin(x) for x in column]))
    # rows: the accessible modes; columns: the region-II patterns, appended last
    v = amp.reshape(points, layout.dim, -1)
    rho = np.zeros((points, layout.dim, layout.dim), dtype=complex)
    for t in range(v.shape[2]):
        rho += v[:, :, t, None] * v[:, None, :, t].conj()
    observed = tuple(Mode(m.observer, Region.RINDLER_I) if m.observer in observers else m
                     for m in layout.modes)
    return DensityMatrix(ModeLayout(observed), rho)


def observed_density(psi0: StateVector, scenario: Mapping[str, float] | None) -> DensityMatrix:
    """Density matrix seen after acceleration: transform, then drop region II.

    scenario maps each accelerated observer to its r; None means nobody
    accelerates.  This is observed_densities at one point.
    """
    params = dict(scenario or {})
    return observed_densities(psi0, tuple(params), [list(params.values())])[0]
