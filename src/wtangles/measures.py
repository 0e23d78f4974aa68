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
sweeps, figures and checks.  evaluate and evaluate_points plan a request
once per call, uncached: its columns, which residuals they need (all four
for pi4 or Pi4), and from them which 1-3 tangles and which pairs.  Each
needed matrix is gathered by its column's flat index table, composed once
per observer set with the map of rho's compact layout (_gathers), so each
stack of evaluate_points is one gather from one of rindler's compact
chunks; evaluate runs the same code on a flat (N, 256) stack, with the
identity map.

Each stack then takes at most three eigvalsh calls: every needed rho^{T_k}
at once, the partial transpose on the first mode of every distinct pair
state at once, and rho for S.  The observed rho is real, and the pair
states and their transposes stay real; the 1-3 stack, the largest, is
gathered straight into complex128.  A pair's negativity is taken from the
first side alone: the partial transpose on the second mode is the
transpose of the first, with the same spectrum.  The pair states are
checked here on their charge blocks, with no LAPACK call, and any stack
that fails that check, or is complex, by fock.validate_density
(fock._validate_pairs).  Pairs whose states are the same bytes over the
stack, as the exchange symmetry of |W4> makes them (with D accelerated,
rho_AB = rho_AC = rho_BC), are checked and solved once, which moves no bit
and assumes no symmetry.

The residual chain is one stacked pass.  Squares and fourth roots are
taken value by value in Python floats (rindler._each), and sums run left
to right over whole arrays, which keeps a point's values independent of
its stack and of how many columns it is stacked with (see the README
Notes).  evaluate is the one place that tells a single state from a stack:
it evaluates a single state as a stack of one and returns floats.
evaluate_points, the core of sweeps and checks, reads rindler's chunks
(rindler._checked): its points are checked first, then its request is
planned, then each chunk is built, checked and evaluated.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import combinations

import numpy as np

from .fock import (
    OBSERVERS,
    DensityMatrix,
    Layout,
    _add_blocks,
    _state,
    _trace_blocks,
    _transposed,
    _validate_pairs,
)
from .linalg import _eigvalsh, negative_eigenvalue_sum
from .rindler import ConfigError, _checked, _each

RESIDUAL_CLIP = -1e-10
RESIDUALS = tuple(f"pi_{obs}" for obs in OBSERVERS)


def big_pi4_tangle(pi_k: Mapping[str, float | np.ndarray]) -> np.ndarray:
    """Geometric mean of the four residual tangles, point by point.

    The residuals are floats, or arrays with one value per point.  Residuals
    in [-1e-10, 0) are treated as roundoff and clipped to 0; any residual
    below that, or NaN, is a pipeline defect and raises, naming the most
    negative one or the one that is not a number.  pi_k must be a mapping:
    anything else is one ConfigError.
    """
    if not isinstance(pi_k, Mapping):
        raise ConfigError(f"pi_k: expected a mapping of residuals, got {type(pi_k).__name__}")
    if len(pi_k) != 4:
        raise ValueError(f"big_pi4_tangle needs 4 residuals, got {len(pi_k)}")
    values = np.array(list(pi_k.values()), dtype=float)
    return _geometric_mean(pi_k, values.reshape(4, -1)).reshape(values.shape[1:])


def _geometric_mean(names: Iterable[str], rows: np.ndarray) -> np.ndarray:
    """big_pi4_tangle of (4, N) residual rows, named by names in the messages, as an (N,) array.

    One min clears the whole array; only if it fails, a NaN making it NaN,
    is each row's minimum read, in order, to name the first bad residual.
    """
    if not rows.min() >= RESIDUAL_CLIP:
        for obs, worst in zip(names, rows.min(axis=1).tolist()):
            if np.isnan(worst):
                raise ValueError(f"residual tangle {obs} is not a number")
            if worst < RESIDUAL_CLIP:
                raise ValueError(f"residual tangle {obs}={worst:.3e} is negative beyond roundoff")
    # the product of the clipped rows, left to right, as 1.0 * a * b * c * d rounds it
    a, b, c, d = np.maximum(rows, 0.0)
    return _each(lambda p: p ** 0.25, ((a * b) * c) * d)


def von_neumann_entropy(rho: DensityMatrix) -> np.ndarray:
    """S = -sum(lambda ln lambda) over each state's spectrum, with 0 ln 0 = 0.

    One eigvalsh call over rho's states gives the spectra, ascending, so a
    state's k positive eigenvalues are its last k: the states with the same
    k are one (n, k) array and one reduction, whose rows are summed as a
    single spectrum's k values would be.  rho is a DensityMatrix, or an
    object whose matrix is an array; anything else is one ConfigError.
    """
    return _entropy(_state(rho))


def _entropy(m: np.ndarray) -> np.ndarray:
    """von_neumann_entropy of each matrix of a (..., d, d) stack."""
    spectra = _eigvalsh(m)
    rows = spectra.reshape(-1, spectra.shape[-1])
    positive = (rows > 0.0).sum(axis=1)
    entropies = np.empty(len(rows))
    for k in set(positive.tolist()):
        group = positive == k
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
# entries of each rho^{T_k}, one (4, 16, 16) table in ONE_THREE order, the
# traced blocks of each pair's reduced state, one (6, 4, 4, 4) table in PAIRS
# order, and the partial transpose of a (4, 4) pair state on its first mode
_FLAT = np.arange(256).reshape(16, 16)
_TRANSPOSED = np.stack([_transposed(_FLAT, 4, [k]) for k in ONE_THREE.values()])
_TRACED = np.stack([_trace_blocks(_FLAT, 4, list(pair)) for pair in PAIRS.values()])
_PAIR_TRANSPOSED = _transposed(np.arange(16).reshape(4, 4), 2, [0])


@lru_cache
def _gathers(layout: Layout | None = None):
    """The tables above, and the dense one for S, composed with layout's column map (None: flat)."""
    column = _FLAT.ravel() if layout is None else layout.column
    return column[_TRANSPOSED], column[_TRACED], column.reshape(16, 16)


def select_names(tokens: Iterable[str], known: Collection[str], what: str) -> tuple[str, ...]:
    """The known names in tokens, all expanded, each once where it first appears.

    A bare str, bytes, None or anything else not iterable is one token, not a
    sequence of letters or bytes.  Each token is stripped and an empty one
    dropped.  The first token that is not a str, the first unknown name, or
    no name at all, raises a ConfigError naming what is selected.
    """
    one = isinstance(tokens, (str, bytes)) or not isinstance(tokens, Iterable)
    tokens = (tokens,) if one else tuple(tokens)
    if bad := [token for token in tokens if not isinstance(token, str)]:
        raise ConfigError(f"{what}: expected names as str, got {bad[0]!r}")
    stripped = (token.strip() for token in tokens)
    names = [name for token in stripped if token
             for name in (known if token == "all" else (token,))]
    if unknown := [name for name in names if name not in known]:
        raise ConfigError(f"unknown {what} {unknown[0]!r}; known: {', '.join(known)}, or all")
    if not names:
        raise ConfigError(f"{what}: empty selection")
    return tuple(dict.fromkeys(names))


def _plan(request: Iterable[str]) -> tuple[tuple[str, ...], ...]:
    """A request's columns, then the 1-3 tangles, pairs and residuals they take."""
    columns = select_names(request, COLUMNS, "measure")
    means = "pi4" in columns or "Pi4" in columns
    residuals = tuple(column for column in RESIDUALS if means or column in columns)
    needed = set(columns).union(*(TERMS[column] for column in residuals))
    one_three = tuple(column for column in ONE_THREE if column in needed)
    pairs = tuple(column for column in PAIRS if column in needed)
    return columns, one_three, pairs, residuals


def _spectral_columns(values: np.ndarray, gathers, one_three: tuple[str, ...],
                      pairs: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The named 1-3 and 1-1 tangles over a stack of N states, as (N,) arrays.

    values holds the states as the tables of gathers (_gathers) read them.
    All 1-3 transposes are one (N, K, 16, 16) stack and one eigvalsh call.
    The pair states are gathered into one (N, P, 4, 4) stack, in rho's dtype,
    each keyed by its bytes, and the stack is indexed by its distinct keys
    where two share one; those states are checked, all at once, and their
    partial transposes on the first mode take one eigvalsh call and give
    each key's values, a column of its own for each pair.
    """
    transposed_at, traced_at, _ = gathers
    out = {}
    if one_three:
        # gathered table by table into the complex128 stack eigvalsh takes, so
        # no real copy of the whole stack is alive next to it; the stack is
        # freed before the pair stage
        stack = np.empty((len(values), len(one_three), 16, 16), dtype=complex)
        for k, column in enumerate(one_three):
            stack[:, k] = np.take(values, transposed_at[ONE_THREE[column]], axis=1)
        out.update(zip(one_three, negative_eigenvalue_sum(stack).T))
        del stack
    if pairs:
        numbers = [*map(list(PAIRS).index, pairs)]
        reduced = _add_blocks(np.take(values, traced_at[numbers], axis=1))
        # equal bytes give one verdict and one spectrum
        keys = [reduced[:, p].tobytes() for p in range(len(pairs))]
        distinct = list(dict.fromkeys(keys))
        shared = len(distinct) < len(keys)
        if shared:
            reduced = reduced[:, [keys.index(key) for key in distinct]]
        _validate_pairs(reduced)
        transposed = np.take(reduced.reshape(reduced.shape[:2] + (16,)), _PAIR_TRANSPOSED, axis=2)
        solved = negative_eigenvalue_sum(transposed)
        if shared:
            solved = solved[:, [distinct.index(key) for key in keys]]
        out.update(zip(pairs, solved.T))
    return out


def _stack_values(states: np.ndarray, gathers,
                  plan: tuple[tuple[str, ...], ...]) -> list[np.ndarray]:
    """The planned columns over N states, held as gathers reads them, as (N,) arrays in order."""
    columns, one_three, pairs, residuals = plan
    values = _spectral_columns(states, gathers, one_three, pairs)
    if residuals:
        # every spectral value squared once in Python floats, as one (C, N) array;
        # whole, first, second and third are (R, N) arrays, row i the terms of
        # residuals[i], and sums run left to right over whole arrays, which
        # round each element as the float sums do
        squares = dict(zip(values, _each(lambda n: n ** 2, list(values.values()))))
        whole, first, second, third = (np.array([squares[term] for term in terms])
                                       for terms in zip(*map(TERMS.get, residuals)))
        rows = whole - ((first + second) + third)
        values.update(zip(residuals, rows))
        if "pi4" in columns:
            a, b, c, d = rows
            values["pi4"] = (((a + b) + c) + d) / 4.0
        if "Pi4" in columns:
            values["Pi4"] = _geometric_mean(OBSERVERS, rows)
    if "S" in columns:
        values["S"] = _entropy(np.take(states, gathers[2], axis=1))
    return [values[column] for column in columns]


def evaluate(rho: DensityMatrix, columns: Iterable[str]) -> dict[str, float | np.ndarray]:
    """The requested columns, read by select_names, in request order.

    rho is one four-mode state, giving a float per column, or a stack of N
    states, giving an (N,) array per column; a bare array or anything else
    that is no DensityMatrix is one ConfigError.
    """
    matrix = _state(rho)
    shape = matrix.shape
    if shape[-2:] != (16, 16):
        raise ValueError(f"measures need a four-mode state, got shape {shape}")
    single = len(shape) == 2
    if not single and len(shape) != 3:
        raise ValueError(f"evaluate takes one state or a stack, got shape {shape}")
    if not shape[0]:
        raise ValueError("evaluate needs at least one state, got an empty stack")
    plan = _plan(columns)
    values = dict(zip(plan[0], _stack_values(matrix.reshape(-1, 256), _gathers(), plan)))
    return {column: float(v[0]) for column, v in values.items()} if single else values


def evaluate_points(observers: Sequence[str], r, columns: Iterable[str]) -> dict[str, np.ndarray]:
    """The columns of the observed |W4> at N >= 1 points, as (N,) arrays.

    r is an (N, k) array: r[p, j] is the parameter of observers[j] at point
    p.  Its points are checked, and their cos r and sin r taken, once, as
    observed_densities does (an r with no point gets its shape message), and
    then its columns are planned once per call, not cached; the points are
    then built, checked as states and evaluated rindler.CHUNK rows per
    stack, each in rho's compact layout (rindler._checked).
    """
    layout, chunks = _checked(observers, r)
    # planned once, before any state is built
    plan, gathers = _plan(columns), _gathers(layout)
    stacks = [_stack_values(values, gathers, plan) for values in chunks]
    # one chunk's columns as they are; more, each chunk's as the rows of a (C, n) array, joined
    return dict(zip(plan[0], stacks[0] if len(stacks) == 1 else np.concatenate(stacks, axis=1)))


def tangle_report(rho: DensityMatrix) -> dict[str, float | np.ndarray]:
    """Every measure column for one four-mode state, or for a stack of them."""
    return evaluate(rho, COLUMNS)
