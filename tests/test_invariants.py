"""Exact structural invariants of the observed states and the stacks diagonalized.

Two facts make the pipeline's shortcuts bit-neutral, and both are asserted
here with exact 0.0, not with a tolerance:

* Every stack handed to eigvalsh or to the positivity factorization
  (np.linalg.cholesky) is exactly Hermitian.  rho is an ordered sum of outer
  products v v^H; a partial transpose moves each entry together with its
  adjoint partner, a reduced pair state adds Hermitian blocks, and the
  factorization's diagonal shift is real.  So the Hermiticity check, which
  never symmetrizes, hands both the bits that 0.5 * (m + m^H) would give, and
  no production stack needs a repair.
* The Rindler map conserves Q = N_I - N_II and has real amplitudes, so rho is
  real and block-diagonal in the region-I occupation N_I, and each rho^{T_k}
  is block-diagonal in q = N_rest - n_k, with blocks of 1 + 4 + 6 + 4 + 1.
"""

import functools
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtangles import fock, measures, sweep
from wtangles.fock import OBSERVERS, DensityMatrix, _add_blocks, partial_transpose, w_state
from wtangles.measures import CHUNK, COLUMNS, evaluate_points
from wtangles.rindler import R_MAX, observed_densities
from wtangles.sweep import PRESETS

seeds = st.integers(min_value=0, max_value=2**32 - 1)
observer_sets = st.sampled_from([("D",), ("C", "D"), ("A",), ("B", "D"), ("D", "A", "C"),
                                 ("A", "B", "C", "D")])

# the region-I occupation of each basis index, and the bit of mode k in it
OCCUPATION = np.array([bin(i).count("1") for i in range(16)])
MODE_BITS = [(np.arange(16) >> (3 - k)) & 1 for k in range(4)]
# q = N_rest - n_k of each basis index, for the transpose of mode k
Q = [OCCUPATION - 2 * bits for bits in MODE_BITS]


def _deviation(m):
    """The largest |m - m^H| entry of a stack; NaN if any entry is NaN."""
    return float(np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max())


def _off_block(m, charge):
    """The largest |entry| of a stack that joins two different charges."""
    return float(np.abs(m[..., charge[:, None] != charge[None, :]]).max())


@functools.cache
def _preset_points(name):
    """The observers and (N, k) r array that run_sweep evaluates for a preset."""
    seen = {}

    def capture(observers, points, columns):
        seen["observers"], seen["r"] = tuple(observers), np.array(list(points))
        return {column: np.zeros(len(seen["r"])) for column in columns}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "evaluate_points", capture)
        sweep.run_sweep(PRESETS[name])
    return seen["observers"], seen["r"]


def _stack_kind(m, validating):
    """rho (N, 16, 16), 1-3 transposes (N, K, 16, 16), pair states (N, P, 4, 4),
    which measures validates, and their side 0 (N, P, 4, 4)."""
    if m.shape[-1] == 16:
        return "rho" if m.ndim == 3 else "one-three"
    return "pair states" if validating else "pair sides"


def _deviations_seen(monkeypatch, run):
    """The Hermiticity deviation of every stack that eigvalsh and the positivity
    factorization get while run() runs, by route and kind."""
    seen = {}
    validating = []

    def recording(route, function):
        def recorded(m):
            seen.setdefault((route, _stack_kind(m, bool(validating))), []).append(_deviation(m))
            return function(m)
        return recorded

    def validating_pairs(m, validate=measures.validate_density):
        validating.append(m)
        try:
            return validate(m)
        finally:
            validating.pop()
    for route in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, route, recording(route, getattr(np.linalg, route)))
    monkeypatch.setattr(measures, "validate_density", validating_pairs)
    run()
    monkeypatch.undo()
    return seen


def _kinds_taken(columns):
    """The (route, kind) of each stack a chunk hands to eigvalsh or the factorization.

    rho and the pair states are validated by the factorization alone; rho
    is diagonalized only for S.
    """
    plan = measures._plan(tuple(columns))
    kinds = {("cholesky", "rho")}
    if "S" in columns:
        kinds.add(("eigvalsh", "rho"))
    if plan.one_three:
        kinds.add(("eigvalsh", "one-three"))
    if plan.pairs:
        kinds.update((("cholesky", "pair states"), ("eigvalsh", "pair sides")))
    return kinds


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_stack_is_exactly_hermitian(name, monkeypatch):
    # rho, each rho^{T_k}, each pair state and side 0 of each pair, as the
    # sweep hands them to eigvalsh or the factorization: all have rho's
    # deviation, exactly 0.0
    seen = _deviations_seen(monkeypatch, lambda: sweep.run_sweep(PRESETS[name]))
    assert set(seen) == _kinds_taken(sweep.normalize_measures(PRESETS[name].measures))
    assert {kind: max(deviations) for kind, deviations in seen.items()} == dict.fromkeys(seen, 0.0)


@settings(max_examples=20)
@given(seed=seeds, points=st.integers(min_value=1, max_value=CHUNK + 1), observers=observer_sets)
def test_every_stack_at_random_points_is_exactly_hermitian(seed, points, observers):
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    with pytest.MonkeyPatch.context() as patch:
        seen = _deviations_seen(patch, lambda: evaluate_points(observers, r, COLUMNS))
    assert set(seen) == _kinds_taken(COLUMNS)
    assert {kind: max(deviations) for kind, deviations in seen.items()} == dict.fromkeys(seen, 0.0)


def _side_stacks(run):
    """The shape of every 4x4 stack whose negativities measures takes while run() runs."""
    shapes = []
    original = measures.negative_eigenvalue_sum

    def recording(m):
        if m.shape[-1] == 4:
            shapes.append(m.shape)
        return original(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "negative_eigenvalue_sum", recording)
        run()
    return shapes


@pytest.mark.parametrize("observers", [observers for k in range(1, 5)
                                       for observers in combinations(OBSERVERS, k)])
@settings(max_examples=5)
@given(seed=seeds, points=st.integers(min_value=1, max_value=CHUNK + 1))
def test_real_pair_states_never_solve_side_one(observers, seed, points):
    # every chunk solves side 0 of its six pairs, one (n, 6, 4, 4) stack, and
    # no other 4x4 negativity
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    shapes = _side_stacks(lambda: evaluate_points(observers, r, COLUMNS))
    assert shapes == [(len(r[start:start + CHUNK]), 6, 4, 4) for start in range(0, points, CHUNK)]


@settings(max_examples=30)
@given(seed=seeds, points=st.integers(min_value=1, max_value=8),
       scale=st.sampled_from([0.0, 1e-14, 1.0]))
def test_gathered_transposes_keep_their_parents_deviation(seed, points, scale):
    # any stack, Hermitian or not: the gathered rho^{T_k} and side 0 of a pair
    # state deviate from Hermiticity exactly as much as their parent, so the
    # check of the parent covers them
    rng = np.random.default_rng(seed)

    def stack(*shape):
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return g + g.conj().swapaxes(-1, -2) + scale * rng.standard_normal(shape)
    rho = stack(points, 16, 16)
    parent = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    flat = rho.reshape(points, -1)
    for table in measures._TRANSPOSED.values():
        transposed = np.take(flat, table, axis=1)
        assert np.array_equal(np.abs(transposed - transposed.conj().swapaxes(-1, -2))
                              .max(axis=(-2, -1)), parent)
    pair = stack(points, 4, 4)
    parent = np.abs(pair - pair.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    side = np.take(pair.reshape(points, 16), measures._PAIR_TRANSPOSED, axis=1)
    assert np.array_equal(np.abs(side - side.conj().swapaxes(-1, -2)).max(axis=(-2, -1)), parent)
    if scale == 0.0:
        # an exactly Hermitian parent gives exactly Hermitian reduced pair states
        for table in measures._TRACED.values():
            assert _deviation(_add_blocks(np.take(flat, table, axis=1))) == 0.0


@settings(max_examples=10)
@given(seed=seeds, points=st.integers(min_value=1, max_value=CHUNK), observers=observer_sets)
def test_a_chunk_checks_hermiticity_where_its_states_are_made(seed, points, observers):
    # one chunk checks rho when it is built and its six pair states, and no
    # partial transpose: each has its parent's deviation (the test above)
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    shapes, check = [], fock.validate_density

    def recording(m):
        shapes.append(m.shape)
        return check(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "validate_density", recording)
        patch.setattr(measures, "validate_density", recording)
        evaluate_points(observers, r, COLUMNS)
    assert shapes == [(points, 16, 16), (points, 6, 4, 4)]


def test_charge_labels_give_the_expected_blocks():
    assert np.bincount(OCCUPATION).tolist() == [1, 4, 6, 4, 1]
    for q in Q:
        assert np.unique(q, return_counts=True)[1].tolist() == [1, 4, 6, 4, 1]


def _assert_charge_blocks(rho):
    assert float(np.abs(rho.matrix.imag).max()) == 0.0
    assert _off_block(rho.matrix, OCCUPATION) == 0.0
    for k in range(4):
        assert _off_block(partial_transpose(rho, [k]), Q[k]) == 0.0


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_states_are_real_and_charge_block_diagonal(name):
    observers, r = _preset_points(name)
    for start in range(0, len(r), CHUNK):
        _assert_charge_blocks(observed_densities(w_state(4), observers, r[start:start + CHUNK]))


@settings(max_examples=40)
@given(seed=seeds, points=st.integers(min_value=1, max_value=8), observers=observer_sets)
def test_random_states_are_real_and_charge_block_diagonal(seed, points, observers):
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    _assert_charge_blocks(observed_densities(w_state(4), observers, r))


def _d_split_state(r, occupied):
    """rho of w_state(4) with D split, built on its own: v[i, t] is the
    amplitude of region-I pattern i and D_II = t, |0>_M of pattern i goes to
    cos r |0_I 0_II> + sin r |1_I 1_II>, and |1>_M to v[occupied(i)]."""
    v = np.zeros((16, 2))
    for i, value in enumerate(w_state(4).tolist()):
        if i & 1:
            v[occupied(i)] += value
        else:
            v[i, 0] += math.cos(r) * value
            v[i | 1, 1] += math.sin(r) * value
    return DensityMatrix(v @ v.T)


def test_misplaced_split_amplitude_breaks_the_charge_blocks():
    # |1>_M sent to |1_I 0_II> is the pipeline's state
    placed = _d_split_state(0.3, lambda i: (i, 0))
    assert np.array_equal(placed.matrix, observed_densities(w_state(4), ["D"], [[0.3]]).matrix[0])
    # sent to |0_I 1_II> instead: still an isometry, and the state still
    # passes every DensityMatrix check: trace, Hermiticity, positivity
    rho = _d_split_state(0.3, lambda i: (i & ~1, 1))
    assert float(np.abs(rho.matrix.imag).max()) == 0.0
    assert _off_block(rho.matrix, OCCUPATION) > 0.0
    with pytest.raises(AssertionError):
        _assert_charge_blocks(rho)
