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
own spectra, which nothing else needs.

select_names is the one rule that reads a list of names, here and in
sweeps, figures and checks: a bare str is one name, each name is stripped
and an empty one dropped, all stands for every known name, a name given
twice is kept once, and an unknown name or none at all is a ConfigError.
evaluate reads a request by it and plans the request once (the plan is
cached): its columns, which residuals they need (all four for pi4 or Pi4),
and from them which 1-3 tangles and which pairs, all by name.  Each needed
matrix is gathered by its column's flat index table.  Each stack of states
then takes at most three eigvalsh calls: every needed rho^{T_k} at once,
the partial transpose on the first mode of every distinct pair state at
once, and rho for S.  The observed rho is real, and the pair states and
their transposes stay real; the 1-3 stack, the largest, is gathered
straight into complex128.  A pair's negativity is taken from the first side
alone: the partial transpose on the second mode is the transpose of the
first, with the same spectrum.  The pair states are validated here, at once
and with no spectrum (fock.validate_density).  Pairs whose states are the
same bytes over the stack, as the exchange symmetry of |W4> makes them
(with D accelerated, rho_AB = rho_AC = rho_BC), get the same verdict and
spectrum: only the first of each is validated and solved, and the others
read its values, which moves no bit and assumes no symmetry.  evaluate then
fills the planned residuals from TERMS, pi4, Pi4 and S in that order.
Squares and fourth roots are taken value by value in Python floats, and
sums run left to right over whole arrays, which keeps a point's values
independent of its stack (see the README Notes).
evaluate is the one place that tells a single state from a stack: it
evaluates a single state as a stack of one and returns floats.
evaluate_points, the core of sweeps and checks, takes the points as one
(N, k) array of r values, checks them once (rindler._checked: the shape,
the r domain, the observers and the support lookup of
rindler.observed_densities), reads the request once, then builds the
observed |W4>, validates it as states and evaluates it CHUNK rows per
stack.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .fock import (
    OBSERVERS,
    DensityMatrix,
    _add_blocks,
    _trace_blocks,
    _transposed,
    validate_density,
)
from .linalg import _eigvalsh, negative_eigenvalue_sum
from .rindler import ConfigError, _built, _checked

RESIDUAL_CLIP = -1e-10
RESIDUALS = tuple(f"pi_{obs}" for obs in OBSERVERS)
# points per stack in evaluate_points: large enough that per-stack Python and
# numpy overhead is small next to the eigensolves, small enough that a stack
# of 1-3 transposes stays about 1 MiB (CHUNK 256 measured slower than 64)
CHUNK = 64


def big_pi4_tangle(pi_k: Mapping[str, float | np.ndarray]) -> np.ndarray:
    """Geometric mean of the four residual tangles, point by point.

    The residuals are floats, or arrays with one value per point.  Residuals
    in [-1e-10, 0) are treated as roundoff and clipped to 0; any residual
    below that, or NaN, is a pipeline defect and raises, naming the most
    negative one or the one that is not a number.
    """
    if len(pi_k) != 4:
        raise ValueError(f"big_pi4_tangle needs 4 residuals, got {len(pi_k)}")
    values = np.array(list(pi_k.values()), dtype=float)
    rows = values.reshape(4, -1)
    for obs, worst in zip(pi_k, rows.min(axis=1).tolist()):
        if np.isnan(worst):
            raise ValueError(f"residual tangle {obs} is not a number")
        if worst < RESIDUAL_CLIP:
            raise ValueError(f"residual tangle {obs}={worst:.3e} is negative beyond roundoff")
    product = 1.0
    for row in rows:
        product = product * np.maximum(row, 0.0)
    return np.array([p ** 0.25 for p in product.tolist()]).reshape(values.shape[1:])


def von_neumann_entropy(rho: DensityMatrix) -> np.ndarray:
    """S = -sum(lambda ln lambda) over each state's spectrum, with 0 ln 0 = 0.

    One eigvalsh call over rho's states gives the spectra, ascending, so a
    state's k positive eigenvalues are its last k: the states with the same
    k are one (n, k) array and one reduction, whose rows are summed as a
    single spectrum's k values would be.
    """
    spectra = _eigvalsh(rho.matrix)
    rows = spectra.reshape(-1, spectra.shape[-1])
    positive = (rows > 0.0).sum(axis=1)
    sizes = set(positive.tolist())
    entropies = np.empty(len(rows))
    for k in sizes:
        # a stack with one k, a single state among them, needs no mask
        group = positive == k if len(sizes) > 1 else slice(None)
        w = rows[group, rows.shape[1] - k:]
        entropies[group] = -(w * np.log(w)).sum(axis=1)
    return entropies.reshape(spectra.shape[:-1])


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
# and the partial transpose of a (4, 4) pair state on its first mode
_FLAT = np.arange(256).reshape(16, 16)
_TRANSPOSED = {column: _transposed(_FLAT, 4, [k]) for column, k in ONE_THREE.items()}
_TRACED = {column: _trace_blocks(_FLAT, 4, list(pair)) for column, pair in PAIRS.items()}
_PAIR_TRANSPOSED = _transposed(np.arange(16).reshape(4, 4), 2, [0])


def select_names(tokens: Iterable[str], known: Collection[str], what: str) -> tuple[str, ...]:
    """The known names in tokens, all expanded, each once where it first appears.

    A bare str is one token, not a sequence of one-letter names.  Each token
    is stripped and an empty one dropped.  The first unknown name, or no name
    at all, raises a ConfigError naming what is selected.
    """
    if isinstance(tokens, str):
        tokens = (tokens,)
    stripped = (token.strip() for token in tokens)
    names = [name for token in stripped if token
             for name in (known if token == "all" else (token,))]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r}; known: {', '.join(known)}, or all")
    if not names:
        raise ConfigError(f"{what}: empty selection")
    return tuple(dict.fromkeys(names))


@lru_cache(maxsize=64)
def _plan(request: str | tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """A request's columns, then the 1-3 tangles, pairs and residuals they take."""
    columns = select_names(request, COLUMNS, "measure")
    means = "pi4" in columns or "Pi4" in columns
    residuals = tuple(column for column in RESIDUALS if means or column in columns)
    needed = set(columns).union(*(TERMS[column] for column in residuals))
    one_three = tuple(column for column in ONE_THREE if column in needed)
    pairs = tuple(column for column in PAIRS if column in needed)
    return columns, one_three, pairs, residuals


def _spectral_columns(rho: DensityMatrix, one_three: tuple[str, ...],
                      pairs: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The named 1-3 and 1-1 tangles over a stack of N states, as (N,) arrays.

    All 1-3 transposes are one (N, K, 16, 16) stack and one eigvalsh call.
    The pair states are gathered into one (N, P, 4, 4) stack, in rho's dtype,
    each keyed by its bytes; the first state of each key is validated, all
    at once, and their partial transposes on the first mode take one
    eigvalsh call and give each key's values.
    """
    flat = rho.matrix.reshape(len(rho.matrix), -1)
    out = {}
    if one_three:
        # gathered table by table into the complex128 stack eigvalsh takes, so
        # no real copy of the whole stack is alive next to it; the stack is
        # freed before the pair stage
        stack = np.empty((len(flat), len(one_three), 16, 16), dtype=complex)
        for k, column in enumerate(one_three):
            stack[:, k] = np.take(flat, _TRANSPOSED[column], axis=1)
        out.update(zip(one_three, negative_eigenvalue_sum(stack).T))
        del stack
    if pairs:
        reduced = _add_blocks(np.take(flat, [_TRACED[column] for column in pairs], axis=1))
        # equal bytes give one verdict and one spectrum; the stack is sliced
        # only when a key repeats
        keys = [reduced[:, p].tobytes() for p in range(len(pairs))]
        distinct = list(dict.fromkeys(keys))
        repeated = len(distinct) < len(keys)
        if repeated:
            reduced = reduced[:, [keys.index(key) for key in distinct]]
        validate_density(reduced)
        transposed = np.take(reduced.reshape(reduced.shape[:2] + (16,)), _PAIR_TRANSPOSED, axis=2)
        solved = negative_eigenvalue_sum(transposed)
        if repeated:
            # each pair's values in a column of its own, so no two share memory
            solved = solved[:, [distinct.index(key) for key in keys]]
        out.update(zip(pairs, solved.T))
    return out


def evaluate(rho: DensityMatrix, columns: Iterable[str]) -> dict[str, float | np.ndarray]:
    """The requested columns, read by select_names, in request order.

    rho is one four-mode state, giving a float per column, or a stack of N
    states, giving an (N,) array per column.
    """
    shape = rho.matrix.shape
    if shape[-2:] != (16, 16):
        raise ValueError(f"measures need a four-mode state, got shape {shape}")
    single = len(shape) == 2
    if not single and len(shape) != 3:
        raise ValueError(f"evaluate takes one state or a stack, got shape {shape}")
    if not shape[0]:
        raise ValueError("evaluate needs at least one state, got an empty stack")
    columns, one_three, pairs, residuals = _plan(
        columns if isinstance(columns, str) else tuple(columns))
    if single:
        rho = rho[None]
    values = _spectral_columns(rho, one_three, pairs)
    if residuals:
        # each value squared once in Python floats; sums run left to right
        # over whole (N,) arrays, which round each element as the float sums do
        squares = {column: np.array([n ** 2 for n in values[column].tolist()])
                   for column in one_three + pairs}
        for column in residuals:
            whole, first, second, third = (squares[term] for term in TERMS[column])
            values[column] = whole - ((first + second) + third)
        if "pi4" in columns:
            a, b, c, d = (values[column] for column in RESIDUALS)
            values["pi4"] = (((a + b) + c) + d) / 4.0
        if "Pi4" in columns:
            values["Pi4"] = big_pi4_tangle(dict(zip(OBSERVERS, map(values.get, RESIDUALS))))
    if "S" in columns:
        values["S"] = von_neumann_entropy(rho)
    out = {column: values[column] for column in columns}
    return {column: float(v[0]) for column, v in out.items()} if single else out


def evaluate_points(observers: Sequence[str], r, columns: Iterable[str]) -> dict[str, np.ndarray]:
    """The columns of the observed |W4> at N >= 1 points, as (N,) arrays.

    r is an (N, k) array: r[p, j] is the parameter of observers[j] at point
    p.  Its points are checked, and their cos r and sin r taken, once, as
    observed_densities does (an r with no point gets its shape message), and
    then its columns are read once; the points are then built, validated as
    states and evaluated in slices of CHUNK rows, each as one stack.
    """
    split, table = _checked(observers, r)
    # read once, before any state is built; each chunk's plan is then a cache hit
    columns = _plan(columns if isinstance(columns, str) else tuple(columns))[0]
    # each chunk's columns as the rows of one (C, n) array, joined into (C, N)
    chunks = [np.array(list(evaluate(_built(split[start:start + CHUNK], table), columns).values()))
              for start in range(0, len(split), CHUNK)]
    return dict(zip(columns, np.concatenate(chunks, axis=1)))


def tangle_report(rho: DensityMatrix) -> dict[str, float | np.ndarray]:
    """Every measure column for one four-mode state, or for a stack of them."""
    return evaluate(rho, COLUMNS)
