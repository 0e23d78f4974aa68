"""Minkowski to Rindler mode transformation for accelerated observers.

Seen from a uniformly accelerated frame, a single fermionic Minkowski mode
splits into a pair of Rindler modes, one in each wedge:

    |0>_M -> cos r |0_I 0_II> + sin r |1_I 1_II>
    |1>_M -> |1_I 0_II>

with cos r = (exp(-2 pi omega c / a) + 1)**(-1/2), so the parameter r runs
over [0, pi/4] as the proper acceleration a runs from 0 to infinity.  The
transformation is applied as a plain linear map on the occupation tensor; no
anticommutation sign convention is introduced.  The split mode's axis is
moved last and gains a region-II axis, with three slice assignments filling
the 00, 11 and 10 entries of the new (I, II) pair.  In the enlarged layout
the region-I mode takes the original mode's position and the region-II mode
is appended at the end, which keeps the accessible modes contiguous.

Region II is causally disconnected, so the observed state traces out every
region-II mode.  With the k appended region-II modes last, the amplitudes
reshape to a (2^n, 2^k) matrix V, and rho is the sum of the outer products
of V's columns with their conjugates, added in column (index) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

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


def apply_rindler(psi: StateVector, observer: str, param: ParamLike) -> StateVector:
    """Split one observer's Minkowski mode into region I and region II.

    The region-I mode keeps the original layout position; the region-II mode
    is appended at the end.  Norm is preserved for any input state.
    """
    if not isinstance(param, AccelerationParam):
        param = AccelerationParam(float(param))
    layout = psi.layout
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
    # the split mode's axis goes last, then gains the region-II axis
    src = np.moveaxis(psi.amplitudes.reshape((2,) * layout.n), pos, -1)
    out = np.zeros(src.shape + (2,), dtype=complex)
    out[..., 0, 0] = param.cos_r * src[..., 0]
    out[..., 1, 1] = param.sin_r * src[..., 0]
    out[..., 1, 0] = src[..., 1]
    return StateVector(ModeLayout(tuple(modes)), np.moveaxis(out, -2, pos).reshape(-1))


def observed_density(psi0: StateVector,
                     scenario: Mapping[str, ParamLike] | None) -> DensityMatrix:
    """Density matrix seen after acceleration: transform, then drop region II.

    scenario maps each accelerated observer to its r (a float or an
    AccelerationParam); None means nobody accelerates.  Each accelerated
    observer's mode is split (in ascending layout position) and the
    region-II modes are traced out of the pure state directly.  For the
    four-mode W register the result is the A,B,C,D_I or A,B,C_I,D_I state,
    with inertial observers untouched.
    """
    params = {obs: p if isinstance(p, AccelerationParam) else AccelerationParam(float(p))
              for obs, p in (scenario or {}).items()}
    layout = psi0.layout
    if any(m.region is not Region.MINKOWSKI for m in layout.modes):
        raise ValueError("observed_density expects an all-Minkowski input state")
    known = {m.observer for m in layout.modes}
    for obs in params:
        if obs not in known:
            raise ValueError(f"unknown observer {obs!r}")
    psi = psi0
    for obs in sorted(params, key=layout.position):
        psi = apply_rindler(psi, obs, params[obs])
    # rows: the accessible modes; columns: the region-II patterns, appended last
    v = psi.amplitudes.reshape(layout.dim, -1)
    rho = np.zeros((layout.dim, layout.dim), dtype=complex)
    for t in range(v.shape[1]):
        rho += np.outer(v[:, t], v[:, t].conj())
    return DensityMatrix(ModeLayout(psi.layout.modes[:layout.n]), rho)
