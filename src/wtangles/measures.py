"""Entanglement measures computed from density matrices.

Negativity is twice the summed magnitude of the negative eigenvalues of a
partial transpose, equivalently its trace norm minus one.  On a four-mode
state the 1-3 tangle transposes a single mode and the 1-1 tangle first traces
two modes away.  The residual tangle of mode k subtracts its three squared
pairwise negativities from its squared 1-3 tangle; pi4 and Pi4 are the
arithmetic and geometric means of the four residuals, and the von Neumann
entropy -sum(lambda ln lambda) measures how mixed the observed state is.

MEASURES is the one table of measures: it maps each CSV column name to a
function (rho, get) -> (N,) array over a stack of N states, where get returns
another column over the same stack.  evaluate computes the requested columns,
each at most once, taking one eigvalsh call per spectrum and stack; a single
state is a stack of one.  evaluate_points is the evaluation core of sweeps and
checks: it builds the observed |W4> states of N points CHUNK points at a
time and evaluates each stack.

A point's values do not depend on how it is stacked.  Residuals, pi4 and
Pi4 are assembled point by point in Python floats, because numpy's x**2 and
x**0.25 can round differently from Python's, and their sums run left to
right, because builtin sum() is compensated from Python 3.12 on.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .fock import DensityMatrix, partial_trace, partial_transpose, w_state
from .linalg import hermitian_eigenvalues, negative_eigenvalue_sum
from .rindler import observed_densities

RESIDUAL_CLIP = -1e-10
PAIR_SYMMETRY_TOL = 1e-12
OBSERVERS = ("A", "B", "C", "D")
_PI_K = tuple(f"pi_{obs}" for obs in OBSERVERS)
# points per stack in evaluate_points: small stacks keep peak memory flat
CHUNK = 16
_W4 = w_state(4)

Measure = Callable[[DensityMatrix, Callable[[str], np.ndarray]], np.ndarray]


def _sum_left(terms: Iterable[float]) -> float:
    """Plain left-to-right sum, the same on every Python."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


def _per_point(get: Callable[[str], np.ndarray], columns: Sequence[str]):
    """The values of the columns, one tuple of Python floats per point."""
    return zip(*(get(column).tolist() for column in columns))


def negativity(rho: DensityMatrix, part: Iterable[int]) -> float | np.ndarray:
    """Negativity of each state of rho across the partition given by mode positions."""
    return negative_eigenvalue_sum(partial_transpose(rho, part))


def big_pi4_tangle(pi_k: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
    """Geometric mean of the four residual tangles, point by point.

    The residuals are floats, or arrays with one value per point.  Residuals
    in [-1e-10, 0) are treated as roundoff and clipped to 0; any residual
    below that is a pipeline defect and raises, naming the most negative one.
    """
    if len(pi_k) != 4:
        raise ValueError(f"big_pi4_tangle needs 4 residuals, got {len(pi_k)}")
    values = np.array(list(pi_k.values()), dtype=float)
    rows = values.reshape(4, -1)
    for obs, worst in zip(pi_k, rows.min(axis=1).tolist()):
        if not worst >= RESIDUAL_CLIP:
            raise ValueError(f"residual tangle {obs}={worst:.3e} is negative beyond roundoff")
    means = []
    for point in rows.T.tolist():
        product = 1.0
        for value in point:
            product *= max(value, 0.0)
        means.append(product ** 0.25)
    out = np.array(means).reshape(values.shape[1:])
    return out if out.ndim else float(out)


def von_neumann_entropy(rho: DensityMatrix) -> float | np.ndarray:
    """S = -sum(lambda ln lambda) over each state's spectrum, with 0 ln 0 = 0."""
    spectra = hermitian_eigenvalues(rho.matrix)
    entropies = []
    for w in spectra.reshape(-1, spectra.shape[-1]):
        w = w[w > 0.0]
        entropies.append(float(-(w * np.log(w)).sum()))
    out = np.array(entropies).reshape(spectra.shape[:-1])
    return out if out.ndim else float(out)


def _one_three(k: int) -> Measure:
    return lambda rho, get: negativity(rho, [k])


def _pair(i: int, j: int) -> Measure:
    def measure(rho: DensityMatrix, get: Callable[[str], np.ndarray]) -> np.ndarray:
        transposed = partial_transpose(partial_trace(rho, [i, j]), [0])
        # transposing either side of a pair must give the same negativity; the
        # other side's partial transpose is the full transpose of this one
        both = negative_eigenvalue_sum(np.concatenate([transposed, transposed.swapaxes(1, 2)]))
        value, mirror = both[:len(rho.matrix)], both[len(rho.matrix):]
        asymmetry = float(np.abs(value - mirror).max())
        if not asymmetry <= PAIR_SYMMETRY_TOL:
            raise ValueError(
                f"pair negativity asymmetry {asymmetry:.3e} for positions ({i},{j})")
        return value
    return measure


def _residual(obs: str) -> Measure:
    terms = [f"N_{obs}_rest"] + ["N_" + "".join(sorted(obs + other))
                                 for other in OBSERVERS if other != obs]

    def measure(rho: DensityMatrix, get: Callable[[str], np.ndarray]) -> np.ndarray:
        return np.array([rest ** 2 - _sum_left(n ** 2 for n in pairs)
                         for rest, *pairs in _per_point(get, terms)])
    return measure


MEASURES: dict[str, Measure] = {
    **{f"N_{obs}_rest": _one_three(k) for k, obs in enumerate(OBSERVERS)},
    **{f"N_{OBSERVERS[i]}{OBSERVERS[j]}": _pair(i, j) for i, j in combinations(range(4), 2)},
    **{f"pi_{obs}": _residual(obs) for obs in OBSERVERS},
    "pi4": lambda rho, get: np.array([_sum_left(pi_k) / 4.0 for pi_k in _per_point(get, _PI_K)]),
    "Pi4": lambda rho, get: big_pi4_tangle(dict(zip(OBSERVERS, map(get, _PI_K)))),
    "S": lambda rho, get: von_neumann_entropy(rho),
}
COLUMNS = tuple(MEASURES)


class _Columns(dict):
    """Measure columns over one stack, each computed on first lookup.

    Not a closure that calls itself: that is a reference cycle, which keeps
    every stack alive until the cyclic garbage collector runs.
    """

    def __init__(self, rho: DensityMatrix) -> None:
        super().__init__()
        self.rho = rho

    def __missing__(self, column: str) -> np.ndarray:
        if column not in MEASURES:
            raise ValueError(f"unknown measure column {column!r}")
        value = self[column] = MEASURES[column](self.rho, self.__getitem__)
        return value


def evaluate(rho: DensityMatrix, columns: Iterable[str]) -> dict[str, float | np.ndarray]:
    """The requested columns, in request order.

    rho is one four-mode state, giving a float per column, or a stack of N
    states, giving an (N,) array per column.
    """
    if rho.layout.n != 4:
        raise ValueError(f"measures need a four-mode state, got {rho.layout.n} modes")
    single = rho.matrix.ndim == 2
    if not single and rho.matrix.ndim != 3:
        raise ValueError(f"evaluate takes one state or a stack, got shape {rho.matrix.shape}")
    values = _Columns(rho[None] if single else rho)
    out = {column: values[column] for column in columns}
    return {column: float(v[0]) for column, v in out.items()} if single else out


def evaluate_points(observers: Sequence[str], points: Iterable[Sequence[float]],
                    columns: Sequence[str]) -> dict[str, np.ndarray]:
    """The columns of the observed |W4> at N >= 1 points, as (N,) arrays.

    Each point holds the r of each observer, in order.  The points may come
    lazily: they are read CHUNK at a time, and each chunk of states is built
    and evaluated as one stack.
    """
    points = iter(points)
    chunks = []
    while chunk := list(islice(points, CHUNK)):
        chunks.append(evaluate(observed_densities(_W4, observers, chunk), columns))
    if len(chunks) == 1:
        return chunks[0]
    return {column: np.concatenate([chunk[column] for chunk in chunks]) for column in columns}


def tangle_report(rho: DensityMatrix) -> dict[str, float]:
    """Every measure column for one four-mode density matrix."""
    return evaluate(rho, COLUMNS)
