"""Entanglement measures computed from density matrices.

Negativity is twice the summed magnitude of the negative eigenvalues of a
partial transpose, equivalently its trace norm minus one.  On a four-mode
state the 1-3 tangle transposes a single mode and the 1-1 tangle first traces
two modes away.  The residual tangle of mode k subtracts its three squared
pairwise negativities from its squared 1-3 tangle; pi4 and Pi4 are the
arithmetic and geometric means of the four residuals, and the von Neumann
entropy -sum(lambda ln lambda) measures how mixed the observed state is.

Each CSV column is of one of three kinds.  ONE_THREE maps each 1-3 tangle
to the mode it transposes and PAIRS each 1-1 tangle to the pair of modes it
keeps; these are read off spectra.  MEASURES maps every other column to a
function (rho, get) -> (N,) array over a stack of N states, where get returns
another column over the same stack, and REQUIRES names the columns that each
residual and mean reads.

evaluate plans a request once per column tuple (the plan is cached): from
REQUIRES it works out which 1-3 transposes and which pairs the request
needs, with flat index tables to gather them.  Each stack then takes at most
three eigvalsh calls: every needed rho^{T_k} at once, every reduced pair
state at once (to validate it), and both partial transposes of every pair at
once, whose negativities must agree.  S reads the spectra that rho's own
validation computed.  evaluate is the one place that tells a single state
from a stack: it evaluates a single state as a stack of one and returns
floats.  evaluate_points, the core of sweeps and checks, evaluates CHUNK
points per stack.  Residuals, pi4 and Pi4 are assembled point by point in
Python floats with sums run left to right, which keeps a point's values
independent of its stack (see the README Notes).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .fock import (
    DensityMatrix,
    _add_blocks,
    _trace_blocks,
    _transposed,
    validate_density,
    w_state,
)
from .linalg import negative_eigenvalue_sum
from .rindler import observed_densities

RESIDUAL_CLIP = -1e-10
PAIR_SYMMETRY_TOL = 1e-12
OBSERVERS = ("A", "B", "C", "D")
RESIDUALS = tuple(f"pi_{obs}" for obs in OBSERVERS)
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


def big_pi4_tangle(pi_k: Mapping[str, float | np.ndarray]) -> np.ndarray:
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
    return np.array(means).reshape(values.shape[1:])


def von_neumann_entropy(rho: DensityMatrix) -> np.ndarray:
    """S = -sum(lambda ln lambda) over each state's spectrum, with 0 ln 0 = 0.

    The spectra are those rho's validation computed, so S takes no eigensolve.
    """
    spectra = rho.spectra
    entropies = []
    for w in spectra.reshape(-1, spectra.shape[-1]):
        w = w[w > 0.0]
        entropies.append(float(-(w * np.log(w)).sum()))
    return np.array(entropies).reshape(spectra.shape[:-1])


# the spectral columns: the mode each 1-3 tangle transposes and the pair of
# modes each 1-1 tangle keeps
ONE_THREE = {f"N_{obs}_rest": k for k, obs in enumerate(OBSERVERS)}
PAIRS = {f"N_{OBSERVERS[i]}{OBSERVERS[j]}": (i, j) for i, j in combinations(range(4), 2)}
# the columns that each column assembled from other columns reads
REQUIRES = {
    **{f"pi_{obs}": (f"N_{obs}_rest", *(column for column, pair in PAIRS.items() if k in pair))
       for k, obs in enumerate(OBSERVERS)},
    "pi4": RESIDUALS,
    "Pi4": RESIDUALS,
}


def _residual(column: str) -> Measure:
    terms = REQUIRES[column]

    def measure(rho: DensityMatrix, get: Callable[[str], np.ndarray]) -> np.ndarray:
        return np.array([rest ** 2 - _sum_left(n ** 2 for n in pairs)
                         for rest, *pairs in _per_point(get, terms)])
    return measure


# the columns computed from other columns or from rho's spectra
MEASURES: dict[str, Measure] = {
    **{column: _residual(column) for column in RESIDUALS},
    "pi4": lambda rho, get: np.array([_sum_left(pi_k) / 4.0
                                      for pi_k in _per_point(get, REQUIRES["pi4"])]),
    "Pi4": lambda rho, get: big_pi4_tangle(dict(zip(OBSERVERS, map(get, REQUIRES["Pi4"])))),
    "S": lambda rho, get: von_neumann_entropy(rho),
}
COLUMNS = (*ONE_THREE, *PAIRS, *MEASURES)

# flat index tables into a (16, 16) matrix, from fock's own kernels: the
# entries of each rho^{T_k}, the traced blocks of each pair's reduced state,
# and the two partial transposes of a (4, 4) pair state
_FLAT = np.arange(256).reshape(16, 16)
_TRANSPOSED = {column: _transposed(_FLAT, 4, [k]) for column, k in ONE_THREE.items()}
_TRACED = {column: _trace_blocks(_FLAT, 4, list(pair)) for column, pair in PAIRS.items()}
_BOTH_SIDES = np.stack([_transposed(np.arange(16).reshape(4, 4), 2, [side]) for side in (0, 1)])


class _Plan(NamedTuple):
    """The spectra a set of columns takes: which 1-3 tangles and which pairs."""

    one_three: tuple[str, ...]
    transposed: np.ndarray      # (K, 16, 16) flat indices of their rho^{T_k}
    pairs: tuple[str, ...]
    traced: np.ndarray          # (P, 4, 4, 4) flat indices of their traced blocks


@lru_cache(maxsize=64)
def _plan(columns: tuple[str, ...]) -> _Plan:
    for column in columns:
        if column not in COLUMNS:
            raise ValueError(f"unknown measure column {column!r}")
    needed, todo = set(), list(columns)
    while todo:
        column = todo.pop()
        if column not in needed:
            needed.add(column)
            todo.extend(REQUIRES.get(column, ()))
    one_three = tuple(column for column in ONE_THREE if column in needed)
    pairs = tuple(column for column in PAIRS if column in needed)
    return _Plan(one_three, np.array([_TRANSPOSED[column] for column in one_three]),
                 pairs, np.array([_TRACED[column] for column in pairs]))


def _spectral_columns(rho: DensityMatrix, plan: _Plan) -> dict[str, np.ndarray]:
    """The plan's 1-3 and 1-1 tangles over a stack of N states, as (N,) arrays.

    All 1-3 transposes are one (N, K, 16, 16) stack and one eigvalsh call.
    The pair states are gathered into one (N, P, 4, 4) stack, validated with
    one eigvalsh call, and both partial transposes of every pair take one
    more: the two sides must give the same negativity.
    """
    flat = rho.matrix.reshape(len(rho.matrix), -1)
    out = {}
    if plan.one_three:
        transposed = np.take(flat, plan.transposed, axis=1)
        out.update(zip(plan.one_three, negative_eigenvalue_sum(transposed, overwrite=True).T))
    if plan.pairs:
        reduced = _add_blocks(np.take(flat, plan.traced, axis=1))
        validate_density(reduced)
        sides = negative_eigenvalue_sum(
            np.take(reduced.reshape(reduced.shape[:2] + (16,)), _BOTH_SIDES, axis=2), overwrite=True)
        values = sides[..., 0]
        asymmetry = np.abs(values - sides[..., 1])
        worst = int(asymmetry.argmax())
        if not asymmetry.max() <= PAIR_SYMMETRY_TOL:
            i, j = PAIRS[plan.pairs[worst % len(plan.pairs)]]
            raise ValueError(f"pair negativity asymmetry {float(asymmetry.flat[worst]):.3e} "
                             f"for positions ({i},{j})")
        out.update(zip(plan.pairs, values.T))
    return out


class _Columns(dict):
    """Measure columns over one stack, each computed on first lookup.

    Not a closure that calls itself: that is a reference cycle, which keeps
    every stack alive until the cyclic garbage collector runs.
    """

    def __init__(self, rho: DensityMatrix) -> None:
        super().__init__()
        self.rho = rho

    def __missing__(self, column: str) -> np.ndarray:
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
    columns = tuple(columns)
    plan = _plan(columns)
    values = _Columns(rho[None] if single else rho)
    values.update(_spectral_columns(values.rho, plan))
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
    return {column: np.concatenate([chunk[column] for chunk in chunks]) for column in columns}


def tangle_report(rho: DensityMatrix) -> dict[str, float | np.ndarray]:
    """Every measure column for one four-mode state, or for a stack of them."""
    return evaluate(rho, COLUMNS)
