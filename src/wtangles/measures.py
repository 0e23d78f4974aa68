"""Entanglement measures computed from density matrices.

Negativity is twice the summed magnitude of the negative eigenvalues of a
partial transpose, equivalently its trace norm minus one.  On a four-mode
state the 1-3 tangle transposes a single mode and the 1-1 tangle first traces
two modes away.  The residual tangle of mode k subtracts its three squared
pairwise negativities from its squared 1-3 tangle; pi4 and Pi4 are the
arithmetic and geometric means of the four residuals, and the von Neumann
entropy -sum(lambda ln lambda) measures how mixed the observed state is.

The columns form a fixed chain.  ONE_THREE maps each 1-3 tangle to the mode
it transposes and PAIRS each 1-1 tangle to the pair of modes it keeps; these
are read off spectra.  TERMS maps each residual to the 1-3 tangle and the
three pairs it reads; pi4 and Pi4 read all four residuals, and S reads rho's
own spectra.

evaluate plans a request once per column tuple (the plan is cached): which
residuals it needs (all four for pi4 or Pi4), and from them which 1-3
transposes and which pairs, with flat index tables to gather them.  Each
stack then takes at most three eigvalsh calls: every needed rho^{T_k} at
once, every reduced pair state at once (to validate it), and both partial
transposes of every pair at once, whose negativities must agree.  evaluate
then fills the planned residuals, pi4, Pi4 and S in that order.  Squares
and fourth roots are taken value by value in Python floats, and sums run
left to right over whole arrays, which keeps a point's values independent
of its stack (see the README Notes).  evaluate is the one place that tells
a single state from a stack: it evaluates a single state as a stack of one
and returns floats.  evaluate_points, the core of sweeps and checks,
evaluates CHUNK points per stack.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .fock import (
    OBSERVERS,
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
RESIDUALS = tuple(f"pi_{obs}" for obs in OBSERVERS)
# points per stack in evaluate_points: large enough that per-stack Python and
# numpy overhead is small next to the eigensolves, small enough that a stack
# of 1-3 transposes stays about 1 MiB (CHUNK 256 measured slower than 64)
CHUNK = 64
_W4 = w_state(4)


def _sum_left(terms: Iterable):
    """Plain left-to-right sum of floats or of arrays, the same on every Python."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


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
    product = 1.0
    for row in rows:
        product = product * np.maximum(row, 0.0)
    return np.array([p ** 0.25 for p in product.tolist()]).reshape(values.shape[1:])


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
# each residual's terms: its 1-3 tangle, then the three pairs that hold its mode
TERMS = {f"pi_{obs}": (f"N_{obs}_rest", *(column for column, pair in PAIRS.items() if k in pair))
         for k, obs in enumerate(OBSERVERS)}
COLUMNS = (*ONE_THREE, *PAIRS, *RESIDUALS, "pi4", "Pi4", "S")

# flat index tables into a (16, 16) matrix, from fock's own kernels: the
# entries of each rho^{T_k}, the traced blocks of each pair's reduced state,
# and the two partial transposes of a (4, 4) pair state
_FLAT = np.arange(256).reshape(16, 16)
_TRANSPOSED = {column: _transposed(_FLAT, 4, [k]) for column, k in ONE_THREE.items()}
_TRACED = {column: _trace_blocks(_FLAT, 4, list(pair)) for column, pair in PAIRS.items()}
_BOTH_SIDES = np.stack([_transposed(np.arange(16).reshape(4, 4), 2, [side]) for side in (0, 1)])


class _Plan(NamedTuple):
    """What a set of columns takes: its residuals, 1-3 tangles and pairs."""

    one_three: tuple[str, ...]
    transposed: np.ndarray      # (K, 16, 16) flat indices of their rho^{T_k}
    pairs: tuple[str, ...]
    traced: np.ndarray          # (P, 4, 4, 4) flat indices of their traced blocks
    residuals: tuple[str, ...]


@lru_cache(maxsize=64)
def _plan(columns: tuple[str, ...]) -> _Plan:
    for column in columns:
        if column not in COLUMNS:
            raise ValueError(f"unknown measure column {column!r}")
    means = "pi4" in columns or "Pi4" in columns
    residuals = tuple(column for column in RESIDUALS if means or column in columns)
    needed = set(columns).union(*(TERMS[column] for column in residuals))
    one_three = tuple(column for column in ONE_THREE if column in needed)
    pairs = tuple(column for column in PAIRS if column in needed)
    return _Plan(one_three, np.array([_TRANSPOSED[column] for column in one_three]),
                 pairs, np.array([_TRACED[column] for column in pairs]), residuals)


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
        # the (N, K, 16, 16) stack is a temporary, freed before the pair stage
        negativities = negative_eigenvalue_sum(np.take(flat, plan.transposed, axis=1))
        out.update(zip(plan.one_three, negativities.T))
    if plan.pairs:
        reduced = _add_blocks(np.take(flat, plan.traced, axis=1))
        validate_density(reduced)
        sides = negative_eigenvalue_sum(
            np.take(reduced.reshape(reduced.shape[:2] + (16,)), _BOTH_SIDES, axis=2))
        values = sides[..., 0]
        asymmetry = np.abs(values - sides[..., 1])
        worst = int(asymmetry.argmax())
        if not asymmetry.max() <= PAIR_SYMMETRY_TOL:
            i, j = PAIRS[plan.pairs[worst % len(plan.pairs)]]
            raise ValueError(f"pair negativity asymmetry {float(asymmetry.flat[worst]):.3e} "
                             f"for positions ({i},{j})")
        out.update(zip(plan.pairs, values.T))
    return out


def evaluate(rho: DensityMatrix, columns: Iterable[str]) -> dict[str, float | np.ndarray]:
    """The requested columns, in request order.

    rho is one four-mode state, giving a float per column, or a stack of N
    states, giving an (N,) array per column.
    """
    shape = rho.matrix.shape
    if shape[-2:] != (16, 16):
        raise ValueError(f"measures need a four-mode state, got shape {shape}")
    single = len(shape) == 2
    if not single and len(shape) != 3:
        raise ValueError(f"evaluate takes one state or a stack, got shape {shape}")
    columns = tuple(columns)
    plan = _plan(columns)
    if single:
        rho = rho[None]
    values = _spectral_columns(rho, plan)
    # each square once, value by value in Python floats; the sums then run
    # over whole (N,) arrays, which round each element as the float sums do
    squares = {column: np.array([n ** 2 for n in values[column].tolist()])
               for column in {term for residual in plan.residuals for term in TERMS[residual]}}
    for residual in plan.residuals:
        rest, *pairs = TERMS[residual]
        values[residual] = squares[rest] - _sum_left(squares[column] for column in pairs)
    if "pi4" in columns:
        values["pi4"] = _sum_left(values[column] for column in RESIDUALS) / 4.0
    if "Pi4" in columns:
        values["Pi4"] = big_pi4_tangle({obs: values[f"pi_{obs}"] for obs in OBSERVERS})
    if "S" in columns:
        values["S"] = von_neumann_entropy(rho)
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
