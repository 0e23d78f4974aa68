"""Entanglement measures computed from density matrices.

Negativity is twice the summed magnitude of the negative eigenvalues of a
partial transpose, equivalently its trace norm minus one.  On a four-mode
state the 1-3 tangle transposes a single mode and the 1-1 tangle first traces
two modes away.  The residual tangle of mode k subtracts its three squared
pairwise negativities from its squared 1-3 tangle; pi4 and Pi4 are the
arithmetic and geometric means of the four residuals, and the von Neumann
entropy -sum(lambda ln lambda) measures how mixed the observed state is.

MEASURES is the one table of measures: it maps each CSV column name to a
function (rho, get) -> float, where get returns another column at the same
point.  evaluate computes the requested columns, each at most once.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Mapping

import numpy as np

from .fock import DensityMatrix, partial_trace, partial_transpose
from .linalg import hermitian_eigenvalues, negative_eigenvalue_sum

RESIDUAL_CLIP = -1e-10
PAIR_SYMMETRY_TOL = 1e-12
OBSERVERS = ("A", "B", "C", "D")

Measure = Callable[[DensityMatrix, Callable[[str], float]], float]


def negativity(rho: DensityMatrix, part: Iterable[int]) -> float:
    """Negativity of rho across the partition given by mode positions."""
    return negative_eigenvalue_sum(partial_transpose(rho, part))


def big_pi4_tangle(pi_k: Mapping[str, float]) -> float:
    """Geometric mean of the four residual tangles.

    Residuals in [-1e-10, 0) are treated as roundoff and clipped to 0; any
    residual below that is a pipeline defect and raises.
    """
    if len(pi_k) != 4:
        raise ValueError(f"big_pi4_tangle needs 4 residuals, got {len(pi_k)}")
    product = 1.0
    for obs, value in pi_k.items():
        if value < RESIDUAL_CLIP:
            raise ValueError(f"residual tangle {obs}={value:.3e} is negative beyond roundoff")
        product *= max(value, 0.0)
    return product ** 0.25


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -sum(lambda ln lambda) over the spectrum, with 0 ln 0 = 0."""
    w = hermitian_eigenvalues(rho.matrix)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def _one_three(k: int) -> Measure:
    return lambda rho, get: negativity(rho, [k])


def _pair(i: int, j: int) -> Measure:
    def measure(rho: DensityMatrix, get: Callable[[str], float]) -> float:
        reduced = partial_trace(rho, [i, j])
        value = negativity(reduced, [0])
        mirror = negativity(reduced, [1])
        # transposing either side of a pair must give the same negativity
        if abs(value - mirror) > PAIR_SYMMETRY_TOL:
            raise ValueError(
                f"pair negativity asymmetry {abs(value - mirror):.3e} for positions ({i},{j})")
        return value
    return measure


def _residual(obs: str) -> Measure:
    pairs = ["N_" + "".join(sorted(obs + other)) for other in OBSERVERS if other != obs]
    return lambda rho, get: get(f"N_{obs}_rest") ** 2 - sum(get(pair) ** 2 for pair in pairs)


MEASURES: dict[str, Measure] = {
    **{f"N_{obs}_rest": _one_three(k) for k, obs in enumerate(OBSERVERS)},
    **{f"N_{OBSERVERS[i]}{OBSERVERS[j]}": _pair(i, j) for i, j in combinations(range(4), 2)},
    **{f"pi_{obs}": _residual(obs) for obs in OBSERVERS},
    "pi4": lambda rho, get: sum(get(f"pi_{obs}") for obs in OBSERVERS) / 4.0,
    "Pi4": lambda rho, get: big_pi4_tangle({obs: get(f"pi_{obs}") for obs in OBSERVERS}),
    "S": lambda rho, get: von_neumann_entropy(rho),
}
COLUMNS = tuple(MEASURES)


def evaluate(rho: DensityMatrix, columns: Iterable[str]) -> dict[str, float]:
    """The requested columns at one four-mode state, in request order."""
    if rho.layout.n != 4:
        raise ValueError(f"measures need a four-mode state, got {rho.layout.n} modes")
    values: dict[str, float] = {}

    def get(column: str) -> float:
        if column not in values:
            if column not in MEASURES:
                raise ValueError(f"unknown measure column {column!r}")
            values[column] = MEASURES[column](rho, get)
        return values[column]

    return {column: get(column) for column in columns}


def tangle_report(rho: DensityMatrix) -> dict[str, float]:
    """Every measure column for one four-mode density matrix."""
    return evaluate(rho, COLUMNS)
