"""Minkowski to Rindler mode transformation for accelerated observers.

Seen from a uniformly accelerated frame, a single fermionic Minkowski mode
splits into a pair of Rindler modes, one in each wedge:

    |0>_M -> cos r |0_I 0_II> + sin r |1_I 1_II>
    |1>_M -> |1_I 0_II>

with cos r = (exp(-2 pi omega c / a) + 1)**(-1/2), so the parameter r runs
over [0, pi/4] as the proper acceleration a runs from 0 to infinity.  The
transformation is applied as a plain linear map on the occupation tensor; no
anticommutation sign convention is introduced.  The amplitudes are viewed
with the split mode's axis between the modes before and after it, a
region-II axis is appended, and three slice assignments fill the 00, 11 and
10 entries of the new (I, II) pair.  In the enlarged layout the region-I
mode takes the original mode's position and the region-II mode is appended
at the end, which keeps the accessible modes contiguous.

Region II is causally disconnected, so the observed state traces out every
region-II mode.  With the k appended region-II modes last, the amplitudes
reshape to a (2^n, 2^k) matrix V, and rho is the sum of the outer products
of V's columns with their conjugates, added in column (index) order (a plain
V V^dagger rounds differently).

observed_densities does this for N points at once: the amplitudes are an
(N, 2^n) stack split by per-point cos r and sin r columns, rho is an
(N, 2^n, 2^n) stack formed by the same ordered column sum, and the stack is
validated once.  cos r and sin r come from math.cos and math.sin, value by
value, so a point's state does not depend on which stack it is in.
observed_density is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .fock import DensityMatrix, Mode, ModeLayout, Region, StateVector

R_MAX = math.pi / 4
# slack on the r domain, so endpoints that carry roundoff are still accepted
R_TOL = 1e-12


@dataclass(frozen=True)
class AccelerationParam:
    """Rindler parameter r in [0, pi/4]."""

    r: float

    def __post_init__(self) -> None:
        if not -R_TOL <= self.r <= R_MAX + R_TOL:
            raise ValueError(f"acceleration parameter r={self.r!r} outside [0, pi/4]")

    @property
    def sin_r(self) -> float:
        return math.sin(self.r)

    @property
    def cos_r(self) -> float:
        return math.cos(self.r)


ParamLike = Union[AccelerationParam, float]


def acceleration_to_r(acceleration: float, frequency: float, light_speed: float = 1.0) -> AccelerationParam:
    """Rindler parameter for a proper acceleration and mode frequency.

    r = arccos((exp(-2 pi omega c / a) + 1)**(-1/2)); monotone in a, with
    r -> 0 as a -> 0 and r -> pi/4 as a -> infinity (infinity is accepted).
    """
    if acceleration < 0 or frequency <= 0 or light_speed <= 0:
        raise ValueError("need acceleration >= 0 and frequency, light_speed > 0")
    if acceleration == 0:
        r = 0.0
    else:
        exponent = -2.0 * math.pi * frequency * light_speed / acceleration
        r = math.acos(1.0 / math.sqrt(math.exp(exponent) + 1.0))
    return AccelerationParam(r)


def _split_layout(layout: ModeLayout, observer: str) -> tuple[int, ModeLayout]:
    """Position of the observer's Minkowski mode and the layout after its split."""
    candidates = [i for i, m in enumerate(layout.modes)
                  if m.observer == observer and m.region is Region.MINKOWSKI]
    if not candidates:
        if any(m.observer == observer for m in layout.modes):
            raise ValueError(f"observer {observer!r} is already transformed")
        raise ValueError(f"unknown observer {observer!r}")
    pos = candidates[0]
    modes = list(layout.modes)
    modes[pos] = Mode(observer, Region.RINDLER_I)
    modes.append(Mode(observer, Region.RINDLER_II))
    return pos, ModeLayout(tuple(modes))


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


def apply_rindler(psi: StateVector, observer: str, param: ParamLike) -> StateVector:
    """Split one observer's Minkowski mode into region I and region II.

    The region-I mode keeps the original layout position; the region-II mode
    is appended at the end.  Norm is preserved for any input state.
    """
    if not isinstance(param, AccelerationParam):
        param = AccelerationParam(float(param))
    pos, layout = _split_layout(psi.layout, observer)
    amp = _split(psi.amplitudes[None], pos, np.array([param.cos_r]), np.array([param.sin_r]))
    return StateVector(layout, amp[0])


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
        for value in r.ravel().tolist():
            AccelerationParam(value)  # raises at the first value outside the domain
    layout = psi0.layout
    if any(m.region is not Region.MINKOWSKI for m in layout.modes):
        raise ValueError("observed_density expects an all-Minkowski input state")
    known = {m.observer for m in layout.modes}
    for obs in observers:
        if obs not in known:
            raise ValueError(f"unknown observer {obs!r}")
    points = len(r)
    amp = psi0.amplitudes[None].repeat(points, axis=0)
    split = layout
    for j in sorted(range(len(observers)), key=lambda j: layout.position(observers[j])):
        pos, split = _split_layout(split, observers[j])
        column = r[:, j].tolist()
        amp = _split(amp, pos, np.array([math.cos(x) for x in column]),
                     np.array([math.sin(x) for x in column]))
    # rows: the accessible modes; columns: the region-II patterns, appended last
    v = amp.reshape(points, layout.dim, -1)
    rho = np.zeros((points, layout.dim, layout.dim), dtype=complex)
    for t in range(v.shape[2]):
        rho += v[:, :, t, None] * v[:, None, :, t].conj()
    return DensityMatrix(ModeLayout(split.modes[:layout.n]), rho)


def observed_density(psi0: StateVector,
                     scenario: Mapping[str, ParamLike] | None) -> DensityMatrix:
    """Density matrix seen after acceleration: transform, then drop region II.

    scenario maps each accelerated observer to its r (a float or an
    AccelerationParam); None means nobody accelerates.  This is
    observed_densities at one point.
    """
    params = dict(scenario or {})
    r = [[float(p.r if isinstance(p, AccelerationParam) else p) for p in params.values()]]
    return observed_densities(psi0, tuple(params), r)[0]
