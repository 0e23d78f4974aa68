"""Minkowski to Rindler mode transformation for accelerated observers.

Seen from a uniformly accelerated frame, a single fermionic Minkowski mode
splits into a pair of Rindler modes, one in each wedge:

    |0>_M -> cos r |0_I 0_II> + sin r |1_I 1_II>
    |1>_M -> |1_I 0_II>

with cos r = (exp(-2 pi omega c / a) + 1)**(-1/2), so the parameter r runs
over [0, pi/4] as the proper acceleration a runs from 0 to infinity.  The
transformation is applied as a plain linear map on occupation patterns; no
anticommutation sign convention is introduced.  In the enlarged layout the
region-I mode takes the original mode's position and the region-II mode is
appended at the end, which keeps the accessible modes contiguous.  Region II
is causally disconnected, so the observed state is obtained by tracing out
every region-II mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .fock import (
    DensityMatrix,
    Mode,
    ModeLayout,
    Region,
    StateVector,
    partial_trace,
    pure_to_density,
)

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


@dataclass(frozen=True)
class Scenario:
    """Which observers accelerate, and how fast, as (label, parameter) pairs."""

    accelerated: tuple[tuple[str, AccelerationParam], ...] = ()

    @classmethod
    def of(cls, accelerated: Mapping[str, ParamLike] | None = None, **by_label: ParamLike) -> "Scenario":
        """Build from a mapping or keywords; bare floats are wrapped as r values."""
        merged: dict[str, AccelerationParam] = {}
        for source in (accelerated or {}, by_label):
            for obs, param in source.items():
                if not isinstance(param, AccelerationParam):
                    param = AccelerationParam(float(param))
                merged[obs] = param
        return cls(tuple(sorted(merged.items())))

    def params(self) -> dict[str, AccelerationParam]:
        return dict(self.accelerated)


ScenarioLike = Union[Scenario, Mapping[str, ParamLike], None]


def as_scenario(scenario: ScenarioLike) -> Scenario:
    """Coerce a Scenario, mapping or None into a Scenario."""
    if scenario is None:
        return Scenario()
    if isinstance(scenario, Scenario):
        return scenario
    return Scenario.of(scenario)


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
    n = layout.n
    modes = list(layout.modes)
    modes[pos] = Mode(observer, Region.RINDLER_I)
    modes.append(Mode(observer, Region.RINDLER_II))
    out = np.zeros(1 << (n + 1), dtype=complex)
    # appending the region-II mode shifts every old bit up by one
    region_i_bit = 1 << (n - pos)
    src = psi.amplitudes
    cos_r, sin_r = param.cos_r, param.sin_r
    for index in np.flatnonzero(src):
        index = int(index)
        base = index << 1
        if (index >> (n - 1 - pos)) & 1:
            out[base] += src[index]
        else:
            out[base] += cos_r * src[index]
            out[base | region_i_bit | 1] += sin_r * src[index]
    return StateVector(ModeLayout(tuple(modes)), out)


def observed_density(psi0: StateVector, scenario: ScenarioLike) -> DensityMatrix:
    """Density matrix seen after acceleration: transform, then drop region II.

    Each accelerated observer's mode is split (in ascending layout position),
    the pure density is formed, and all region-II modes are traced out.  For
    the four-mode W register the result is the A,B,C,D_I or A,B,C_I,D_I
    state, with inertial observers untouched.
    """
    params = as_scenario(scenario).params()
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
    rho = pure_to_density(psi)
    hidden = set(psi.layout.positions(Region.RINDLER_II))
    if not hidden:
        return rho
    return partial_trace(rho, [p for p in range(psi.layout.n) if p not in hidden])
