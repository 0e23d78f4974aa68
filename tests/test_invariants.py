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

The stacks are recorded where numpy gets them (tests/lapack.py), and each
preset's sweep hands on exactly the matrices of a hand-typed work table.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtangles import measures, sweep
from wtangles.fock import (
    OBSERVERS,
    DensityMatrix,
    _add_blocks,
    _trace_blocks,
    partial_transpose,
    w_state,
)
from wtangles.measures import COLUMNS, evaluate_points
from wtangles.rindler import CHUNK, R_MAX, _checked, _support, observed_densities
from wtangles.sweep import PRESETS

from . import reference
from .lapack import charge_blocks, factored_blocks, recorded, shifted, work

seeds = st.integers(min_value=0, max_value=2**32 - 1)
observer_sets = st.sampled_from([("D",), ("C", "D"), ("A",), ("B", "D"), ("D", "A", "C"),
                                 ("A", "B", "C", "D")])
EVERY_OBSERVER_SET = [observers for k in range(1, 5) for observers in combinations(OBSERVERS, k)]

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


def _work(points, blocks, one_three, pair_states, entropy):
    """The matrices of each kind that a sweep over points hands LAPACK.

    rho, on its blocks of more than one index, and the distinct pair states
    are validated by the factorization alone; rho is diagonalized only for
    S, and each distinct pair state is solved on one side.
    """
    work = {"rho blocks": points * blocks, "rho diagonalized": points * entropy,
            "1-3 transposes": points * one_three, "pair states": pair_states,
            "pair sides": pair_states}
    return {kind: count for kind, count in work.items() if count}


def _pair_states(rho):
    """The (n, 4, 4) state of each pair of an (n, 16, 16) stack, in order, by fock's kernels."""
    return [_add_blocks(_trace_blocks(rho, 4, list(pair))) for pair in measures.PAIRS.values()]


def _distinct_pairs(observers, r):
    """(points, distinct pair states) of each CHUNK of the points, in order.

    The six pair states of a chunk are built each on its own, and the
    distinct ones are those that differ in bytes over the whole chunk.
    """
    chunks = [observed_densities(w_state(4), observers, r[start:start + CHUNK]).matrix
              for start in range(0, len(r), CHUNK)]
    return [(len(rho), len({state.tobytes() for state in _pair_states(rho)})) for rho in chunks]


# each preset's points, rho's blocks of more than one index per point (2
# with D accelerated, 3 with C and D), 1-3 transposes, distinct pair states
# per point and whether it asks for S; in all, 31,571 rho blocks factored for
# 10,692 points, 1,782 rho diagonalized, 20,980 1-3 transposes and 17,719
# pair states and as many pair sides.  With D accelerated rho_AB = rho_AC =
# rho_BC and rho_AD = rho_BD = rho_CD; with C and D, rho_AC = rho_BC and
# rho_AD = rho_BD
PRESET_WORK = {
    "fig1a": (101, 2, 2, 0, False),
    "fig1b": (101, 2, 0, 2, False),
    "fig2": (101, 2, 2, 2, False),
    "fig3": (101, 2, 4, 2, False),
    "fig4a": (1681, 3, 2, 0, False),
    "fig4b": (1681, 3, 2, 0, False),
    "fig5": (101, 3, 0, 3, False),
    "fig6a": (1681, 3, 2, 3, False),
    "fig6b": (1681, 3, 2, 3, False),
    "fig7": (1681, 3, 4, 4, False),
    "fig8": (101, 2, 0, 0, True),
    "fig9": (1681, 3, 0, 0, True),
}


def _deviations(calls):
    """The kind and the Hermiticity deviation of each recorded stack; a NaN matches nothing."""
    return {(call.kind, _deviation(call.array)) for call in calls}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_stack_is_exactly_hermitian(name):
    # rho's blocks, rho, each rho^{T_k}, each pair state and side 0 of each
    # pair, as the sweep hands them to eigvalsh or the factorization: all
    # have rho's deviation, exactly 0.0; and the preset hands on the matrices
    # of its work, no more
    points, blocks, one_three, pairs, entropy = PRESET_WORK[name]
    with recorded() as calls:
        sweep.run_sweep(PRESETS[name])
    assert work(calls) == _work(points, blocks, one_three, points * pairs, entropy)
    assert _deviations(calls) == {(kind, 0.0) for kind in work(calls)}


@settings(max_examples=20)
@given(seed=seeds, points=st.integers(min_value=1, max_value=CHUNK + 1), observers=observer_sets)
def test_every_stack_at_random_points_is_exactly_hermitian(seed, points, observers):
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    with recorded() as calls:
        evaluate_points(observers, r, COLUMNS)
    pair_states = sum(n * distinct for n, distinct in _distinct_pairs(observers, r))
    blocks = len(charge_blocks(observers))
    assert work(calls) == _work(points, blocks, 4, pair_states, True)
    assert _deviations(calls) == {(kind, 0.0) for kind in work(calls)}


@pytest.mark.parametrize("observers", EVERY_OBSERVER_SET)
@settings(max_examples=5)
@given(seed=seeds, points=st.integers(min_value=1, max_value=CHUNK + 1))
def test_real_pair_states_never_solve_side_one(observers, seed, points):
    # every chunk solves side 0 of its distinct pair states, one (n, P, 4, 4)
    # stack, and no other 4x4 negativity
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    with recorded() as calls:
        evaluate_points(observers, r, COLUMNS)
    shapes = [call.array.shape for call in calls if call.kind == "pair sides"]
    assert shapes == [(n, distinct, 4, 4) for n, distinct in _distinct_pairs(observers, r)]


def _symmetric_pairs(observers):
    """The pair columns grouped by the exchange symmetry of the W state.

    rho_XY depends on r_X and r_Y alone, so two pairs are equal where their
    modes carry the same accelerated observers, or none, in order.
    """
    labels = [obs if obs in observers else None for obs in OBSERVERS]
    groups = {}
    for column, (i, j) in measures.PAIRS.items():
        groups.setdefault((labels[i], labels[j]), []).append(column)
    return list(groups.values())


# equal pairs that roundoff parts: with A and C accelerated, rho_AB traces C
# before the inertial D and rho_AD the inertial B before C, so their blocks
# add in another order; likewise rho_AD and rho_CD with B and D
PARTED = {("A", "C"): ["N_AB", "N_AD"], ("B", "D"): ["N_AD", "N_CD"]}


@pytest.mark.parametrize("observers", EVERY_OBSERVER_SET)
def test_byte_equal_pair_states_are_the_symmetric_ones(observers):
    # over a chunk of random points, the pairs whose states share bytes are
    # the symmetric ones, but for the two sets where the trace-out order
    # parts them
    r = np.random.default_rng(7).uniform(0.0, R_MAX, (CHUNK, len(observers)))
    rho = observed_densities(w_state(4), observers, r).matrix
    groups = {}
    for column, state in zip(measures.PAIRS, _pair_states(rho)):
        groups.setdefault(state.tobytes(), []).append(column)
    parted = PARTED.get(observers, [])
    expected = [group for group in _symmetric_pairs(observers) if group != parted]
    assert sorted(groups.values()) == sorted(expected + [[column] for column in parted])


@settings(max_examples=30)
@given(seed=seeds, points=st.integers(min_value=1, max_value=CHUNK + 1),
       observers=st.sampled_from(EVERY_OBSERVER_SET), tied=st.floats(0.0, 1.0))
def test_solving_each_distinct_pair_state_once_moves_no_bit(seed, points, observers, tied):
    # the first two observers share one r at a random share of the points, so
    # two pair states can agree at some points of a chunk and not at others
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, R_MAX, (points, len(observers)))
    if len(observers) > 1:
        ties = rng.random(points) < tied
        r[ties, 1] = r[ties, 0]
    with recorded() as calls:
        values = evaluate_points(observers, r, COLUMNS)
    for column in measures.PAIRS:
        # each pair's state solved alone
        assert np.array_equal(values[column], evaluate_points(observers, r, column)[column])
    sides = [call.array for call in calls if call.kind == "pair sides"]
    # side 0 of a side is its state: the stacks validated, chunk by chunk,
    # whose blocks the factorization got shifted
    states = [np.take(side.real.reshape(side.shape[:2] + (16,)), measures._PAIR_TRANSPOSED,
                      axis=2).reshape(side.shape) for side in sides]
    factored = np.concatenate([call.array for call in calls if call.kind == "pair states"])
    assert factored.tobytes() == b"".join(shifted(stack).tobytes() for stack in states)
    for stack in sides + states:
        assert len({stack[:, p].tobytes() for p in range(stack.shape[1])}) == stack.shape[1]


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
    # one chunk checks rho when it is built and its distinct pair states, and
    # no partial transpose: each has its parent's deviation (the test above)
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    with recorded() as calls:
        evaluate_points(observers, r, COLUMNS)
    # the check runs on exactly the blocks the factorization gets: rho's in
    # one call, each state's blocks shifted and padded
    factored = [call for call in calls if call.route == "cholesky"]
    [(_, distinct)] = _distinct_pairs(observers, r)
    blocks = factored_blocks(observed_densities(w_state(4), observers, r).matrix, observers)
    assert factored[0].array.tobytes() == blocks.tobytes()
    assert list(work(factored).items()) == [("rho blocks", points * blocks.shape[1]),
                                            ("pair states", distinct * points)]


def test_charge_labels_give_the_expected_blocks():
    assert np.bincount(OCCUPATION).tolist() == [1, 4, 6, 4, 1]
    for q in Q:
        assert np.unique(q, return_counts=True)[1].tolist() == [1, 4, 6, 4, 1]


def _layout(observers):
    """rho's compact layout with observers accelerated, as rindler builds it."""
    return _support(tuple(sorted(map(OBSERVERS.index, observers))))[-1]


def _indices(layout, columns):
    """The indices whose diagonal entry is held in one of columns, in index order."""
    return [i for i in range(16) if layout.column[17 * i] in columns[columns < layout.zero]]


@pytest.mark.parametrize("observers", [(), *EVERY_OBSERVER_SET])
def test_block_plan_is_the_charge_components_of_the_support(observers):
    # the blocks of the layout, read from the support's entries alone, are
    # its populated indices joined by their region-I occupation, and each
    # populated index alone in its occupation is a 1x1 block on the support
    layout = _layout(observers)
    populated = np.flatnonzero(layout.column[::17] < layout.zero)
    charges = [populated[OCCUPATION[populated] == q].tolist() for q in range(5)]
    assert [_indices(layout, block.diagonal()) for block in layout.blocks] == sorted(
        group for group in charges if len(group) > 1)
    in_blocks = {i for block in layout.blocks for i in _indices(layout, block.diagonal())}
    assert sorted(set(populated.tolist()) - in_blocks) == sorted(
        i for group in charges if len(group) == 1 for i in group)
    # the populated indices are those of the reference build, which zeroes
    # no amplitude at r = 0.3
    dense = reference.observed_dense(w_state(4), observers, [[0.3] * len(observers)])[0]
    assert populated.tolist() == np.flatnonzero(np.diagonal(dense)).tolist()
    assert layout.blocks.shape[0] == len(charge_blocks(observers))


@pytest.mark.parametrize("observers", [(), *EVERY_OBSERVER_SET])
def test_dense_views_hold_plus_zero_off_the_support_and_the_compact_trace(observers):
    # random points and r = 0 and pi/4, where sin r or cos r products are
    # signed zeros: each entry off the support is +0.0, and the trace over
    # the compact diagonal has the bits of the dense trace
    rng = np.random.default_rng(len(observers))
    r = np.concatenate([rng.uniform(0.0, R_MAX, (CHUNK, len(observers))),
                        np.zeros((1, len(observers))), np.full((1, len(observers)), R_MAX)])
    layout, chunks = _checked(observers, r)
    for values in chunks:
        dense = layout.dense(values)
        off = dense.reshape(len(dense), 256)[:, layout.column == layout.zero]
        assert off.tobytes() == bytes(off.nbytes)
        traces = np.take(values, layout.diagonal, axis=1).sum(axis=1)
        assert traces.tobytes() == dense.real.trace(axis1=-2, axis2=-1).tobytes()


def _assert_charge_blocks(rho):
    assert float(np.abs(rho.matrix.imag).max()) == 0.0
    assert _off_block(rho.matrix, OCCUPATION) == 0.0
    for k in range(4):
        assert _off_block(partial_transpose(rho, [k]), Q[k]) == 0.0


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_states_are_real_and_charge_block_diagonal(name):
    # the points run_sweep evaluates
    observers, r = sweep.sweep_points(PRESETS[name])
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
