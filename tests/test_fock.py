"""Register bookkeeping: state containers, trace and transpose."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtangles.fock import (
    HERMITICITY_TOL,
    MIN_EIGENVALUE,
    TRACE_TOL,
    DensityMatrix,
    _add_blocks,
    _trace_blocks,
    _validate_compact,
    partial_transpose,
    validate_density,
    w_state,
)
from wtangles.rindler import CHUNK, _checked, observed_densities, observed_density
from wtangles.sweep import PRESETS, sweep_points

from . import patterns, reference
from .lapack import recorded

# |W4><W4|, as the pipeline builds it for an all-inertial observation
W4 = observed_density(w_state(4), None)


def _traced(m, n, keep):
    """The pipeline's trace-out of every mode but keep: its two kernels in a row."""
    return _add_blocks(_trace_blocks(m, n, keep))


def test_w_state_amplitudes():
    amp = w_state(4)
    assert amp.dtype == np.float64 and amp.shape == (16,)
    hot = {8, 4, 2, 1}
    for index in range(16):
        assert amp[index] == pytest.approx(0.5 if index in hot else 0.0)


def test_w_state_normalized():
    amp = w_state(4)
    assert np.vdot(amp, amp).real == pytest.approx(1.0, abs=1e-14)
    assert np.count_nonzero(amp) == 4
    assert np.array_equal(amp, reference.w_amplitudes(4))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13])
def test_w_state_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        w_state(n)


def test_state_vector_validation():
    # the register is only ever |W4>: any other amplitudes, a wrong size, a
    # non-vector, another norm, a NaN or a phase, get one message
    unknown, phased = reference.w_amplitudes(4), reference.w_amplitudes(4)
    unknown[4] = np.nan
    phased[8] = 0.5j
    for amplitudes in (np.eye(1, 3)[0], np.eye(1, 1)[0], np.eye(1, 4).reshape(2, 2),
                       np.zeros((4, 4)), 0.5, 2 * w_state(4), unknown, phased):
        for scenario in (None, {"D": 0.3}, {"C": 0.2, "D": 0.6}):
            with pytest.raises(ValueError) as info:
                observed_density(amplitudes, scenario)
            assert str(info.value) == patterns.W4_ONLY


def test_state_vector_amplitudes_read_only():
    amp = w_state(4)
    with pytest.raises(ValueError):
        amp[0] = 1.0


def test_density_matrix_validation():
    for shape in [(1, 1), (2,), (2, 4), (3, 3)]:    # not (..., 2^n, 2^n) with n >= 1
        with pytest.raises(ValueError, match=r"want \(\.\.\., 2\^n, 2\^n\) with n >= 1"):
            DensityMatrix(np.eye(1, np.prod(shape)).reshape(shape))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="Hermiticity by nan"):
        DensityMatrix(np.array([[np.nan, 0.0], [0.0, 0.5]]))


def test_pure_to_density_is_projector():
    m = W4.matrix
    np.testing.assert_allclose(m @ m, m, atol=1e-14)
    assert float(m.trace().real) == pytest.approx(1.0)
    assert np.array_equal(m, reference.projector(w_state(4)))


def test_partial_trace_factorizes_product_state():
    a = np.array([np.cos(0.4), np.sin(0.4)])
    b = np.array([0.6, 0.8j])
    m = reference.projector(np.kron(a, b))
    np.testing.assert_allclose(_traced(m, 2, [0]), np.outer(a, a.conj()), atol=1e-14)
    np.testing.assert_allclose(_traced(m, 2, [1]), np.outer(b, b.conj()), atol=1e-14)


def test_partial_trace_single_mode_of_w4():
    for pos in range(4):
        np.testing.assert_allclose(_traced(W4.matrix, 4, [pos]), np.diag([0.75, 0.25]), atol=1e-14)


def test_partial_trace_sequential_matches_direct():
    direct = _traced(W4.matrix, 4, [0, 1])
    stepwise = _traced(_traced(W4.matrix, 4, [0, 1, 2]), 3, [0, 1])
    np.testing.assert_allclose(stepwise, direct, atol=1e-14)


def test_partial_trace_keep_all_is_identity():
    np.testing.assert_allclose(_traced(W4.matrix, 4, [0, 1, 2, 3]), W4.matrix)


def test_partial_transpose_on_product_state():
    a = np.array([[0.7, 0.3j], [-0.3j, 0.3]])
    b = np.diag([0.2, 0.8])
    rho = DensityMatrix(np.kron(a, b))
    once = partial_transpose(rho, [0])
    np.testing.assert_allclose(once, np.kron(a.T, b), atol=1e-15)
    # transposing the same part again restores the original
    twice = partial_transpose(DensityMatrix(once), [0])
    np.testing.assert_allclose(twice, rho.matrix, atol=1e-15)


def test_partial_transpose_all_modes_is_plain_transpose():
    v = np.array([0.5, 0.5j, 0.5, -0.5j])
    rho = DensityMatrix(reference.projector(v))
    np.testing.assert_allclose(partial_transpose(rho, [0, 1]), rho.matrix.T, atol=1e-15)


def test_partial_transpose_of_w4_spectrum():
    m = partial_transpose(W4, [0])
    np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
    assert float(np.trace(m).real) == pytest.approx(1.0)
    w = np.linalg.eigvalsh(m)
    nonzero = np.sort(w[np.abs(w) > 1e-12])
    np.testing.assert_allclose(nonzero, patterns.PT_SPECTRUM_INERTIAL, atol=1e-12)
    assert float(np.abs(w).sum()) == pytest.approx(patterns.TRACE_NORM_INERTIAL_PT, abs=1e-12)


def test_partial_transpose_validation():
    rho = DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        partial_transpose(rho, [])
    with pytest.raises(ValueError):
        partial_transpose(rho, [5])


def _three_states():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def test_stack_validation_names_the_worst_state():
    good = _three_states()
    stack = DensityMatrix(good)
    assert stack.matrix.shape == (3, 4, 4)
    asymmetric = good.copy()
    asymmetric[1, 0, 1] += 1e-6
    asymmetric[2, 0, 1] += 1e-9
    with pytest.raises(ValueError, match=r"density matrix deviates from Hermiticity by 1\.0+e-06"):
        DensityMatrix(asymmetric)
    scaled = good.copy()
    scaled[2] *= 1.5
    with pytest.raises(ValueError, match=r"density matrix trace is 1\.5, expected 1"):
        DensityMatrix(scaled)
    negative = good.copy()
    negative[0] = np.diag([1.25, 0.0, 0.0, -0.25])
    with pytest.raises(ValueError, match=r"density matrix has eigenvalue -2\.500e-01 below"):
        DensityMatrix(negative)
    with pytest.raises(ValueError, match=r"shape \(3, 3, 3\), want"):
        DensityMatrix(good[:, :3, :3])
    one_nan = good.copy()
    one_nan[1, 2, 2] = np.nan
    with pytest.raises(ValueError, match="Hermiticity by nan"):
        DensityMatrix(one_nan)
    # the reduced pair states of a (points, pairs) stack, as measures checks them
    pairs = np.stack([good, good[::-1]])
    validate_density(pairs)
    # a nested list is read as the array it spells; a ragged one is numpy's one-line error
    validate_density(pairs.tolist())
    with pytest.raises(ValueError, match="inhomogeneous") as info:
        validate_density([[0.5, 0.0], [0.5]])
    assert "\n" not in str(info.value)
    corrupted = pairs.copy()
    corrupted[1, 2] = np.diag([1.25, 0.0, 0.0, -0.25])
    with pytest.raises(ValueError, match=r"density matrix has eigenvalue -2\.500e-01 below"):
        validate_density(corrupted)
    corrupted[0, 1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"density matrix deviates from Hermiticity by 1\.0+e-06"):
        validate_density(corrupted)
    # an empty stack is named, not left to numpy's empty-reduction error
    with pytest.raises(ValueError, match=r"^density matrix stack is empty: shape \(0, 16, 16\)$"):
        DensityMatrix(np.zeros((0, 16, 16)))
    with pytest.raises(ValueError, match=r"^density matrix stack is empty: shape \(2, 0, 4, 4\)$"):
        validate_density(np.zeros((2, 0, 4, 4)))


def test_stack_indexing_selects_states():
    stack = DensityMatrix(_three_states())
    assert np.array_equal(stack[1].matrix, stack.matrix[1])
    assert stack[1][None].matrix.shape == (1, 4, 4)
    assert np.array_equal(_traced(stack.matrix, 2, [1])[2], _traced(stack[2].matrix, 2, [1]))
    assert np.array_equal(partial_transpose(stack, [0])[0], partial_transpose(stack[0], [0]))
    with pytest.raises(IndexError):
        stack[0][0]


def _diagonal_state(smallest, dim=4):
    """A unit-trace diagonal state with the given smallest eigenvalue."""
    w = np.zeros(dim)
    w[0], w[-1] = smallest, 1.0 - smallest
    return np.diag(w)


def _routes(calls):
    """The route of each recorded call, with whether it raised."""
    return [(call.route, "raised" if call.raised else "returned") for call in calls]


@pytest.mark.parametrize("smallest, routes", [
    # shifted by 0.999e-10 the state is positive definite, and factors
    (-0.9e-10, [("cholesky", "returned")]),
    # shifted it is still indefinite: the factorization fails and the spectrum accepts
    (-0.9995e-10, [("cholesky", "raised"), ("eigvalsh", "returned")]),
])
def test_positivity_near_the_threshold_is_accepted(smallest, routes):
    with recorded() as calls:
        validate_density(_diagonal_state(smallest))
    assert _routes(calls) == routes
    with recorded() as calls:
        DensityMatrix(_diagonal_state(smallest, 16))
    assert _routes(calls) == routes


def test_eigenvalue_below_the_threshold_is_rejected():
    message = r"^density matrix has eigenvalue -1\.001e-10 below -1e-10$"
    with recorded() as calls, pytest.raises(ValueError, match=message):
        validate_density(_diagonal_state(-1.001e-10))
    assert _routes(calls) == [("cholesky", "raised"), ("eigvalsh", "returned")]


def test_large_states_take_their_spectra():
    # above 16x16 the factorization's margin is not proven: eigvalsh decides
    with recorded() as calls:
        DensityMatrix(_diagonal_state(-0.9e-10, 32))
    assert _routes(calls) == [("eigvalsh", "returned")]


@settings(max_examples=200)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), dim=st.sampled_from([2, 4, 16]),
       states=st.integers(min_value=1, max_value=4), complex_=st.booleans(),
       smallest=st.lists(st.floats(min_value=-1.01e-10, max_value=-0.98e-10), min_size=4, max_size=4))
def test_positivity_verdict_is_that_of_the_spectrum(seed, dim, states, complex_, smallest):
    # random exactly Hermitian unit-trace stacks, each state with its smallest
    # eigenvalue near both the shift and the threshold: the verdict and the
    # message are those of a validation by eigvalsh alone
    rng = np.random.default_rng(seed)
    stack = []
    for k in range(states):
        g = rng.standard_normal((dim, dim))
        if complex_:
            g = g + 1j * rng.standard_normal((dim, dim))
        u = np.linalg.qr(g)[0]
        w = np.concatenate([[smallest[k]], rng.dirichlet(np.ones(dim - 1)) * (1.0 - smallest[k])])
        m = (u * w) @ u.conj().T
        stack.append(0.5 * (m + m.conj().T))
    stack = np.array(stack)
    expected = reference.density_rejection(stack)
    if expected is None:
        validate_density(stack)
    else:
        with pytest.raises(ValueError) as info:
            validate_density(stack)
        assert str(info.value) == expected


def test_density_matrix_keeps_real_states_real():
    # a real input is stored as float64 and a complex one as complex128
    state = np.eye(4) / 4
    for matrix, dtype in [(state, np.float64), (state.tolist(), np.float64),
                          (state.astype(np.float32), np.float64),
                          (state + 0j, np.complex128), (state.astype(np.complex64), np.complex128)]:
        rho = DensityMatrix(matrix)
        assert rho.matrix.dtype == dtype
        assert np.array_equal(rho.matrix, state)
    assert observed_density(w_state(4), {"C": 0.3, "D": 0.5}).matrix.dtype == np.float64


def test_density_matrix_copies_a_callers_array():
    # the caller's array stays writeable, and changing it leaves the state as it was
    for state in (np.eye(4) / 4, np.eye(4) / 4 + 0j, np.stack([np.eye(2) / 2] * 3)):
        before = state.copy()
        rho = DensityMatrix(state)
        assert state.flags.writeable and not rho.matrix.flags.writeable
        assert not np.shares_memory(rho.matrix, state)
        state[..., 0, 0] = 7.0
        assert rho.matrix.tobytes() == before.tobytes()


def test_observed_states_hold_the_stack_they_built():
    # the package's own stack, checked where it is built, is held read-only
    # without a copy or a second check; a caller's matrix is validated
    rho = observed_densities(w_state(4), ["C", "D"], [[0.2, 0.6], [0.4, 0.1]])
    assert rho.matrix.base.shape == (2, 256) and not rho.matrix.flags.writeable
    with pytest.raises(ValueError, match=r"want \(\.\.\., 2\^n, 2\^n\) with n >= 1"):
        DensityMatrix._owning(np.eye(3))
    with pytest.raises(ValueError, match=r"want \(\.\.\., 2\^n, 2\^n\) with n >= 1"):
        DensityMatrix(np.eye(3) / 3)
    with pytest.raises(ValueError, match="^density matrix trace is 2.0, expected 1$"):
        DensityMatrix(np.eye(2))
    held = np.eye(2) / 2
    assert DensityMatrix._owning(held).matrix is held and not held.flags.writeable


def _rejection(m):
    """The message validate_density rejects m with, or None if it passes."""
    try:
        validate_density(m)
    except ValueError as exc:
        return str(exc)
    return None


_EDGES = st.floats(min_value=0.99, max_value=1.01) | st.sampled_from([0.999, 1.0, 1.001])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), dim=st.sampled_from([2, 4, 16]),
       states=st.integers(min_value=1, max_value=3), smallest=_EDGES, asymmetry=_EDGES,
       trace_shift=st.sampled_from([-1.0, 0.0, 1.0]), trace_edge=_EDGES)
# each check just inside and just outside its tolerance
@example(seed=1, dim=16, states=2, smallest=0.5, asymmetry=0.999, trace_shift=0.0, trace_edge=1.0)
@example(seed=1, dim=16, states=2, smallest=0.5, asymmetry=1.001, trace_shift=0.0, trace_edge=1.0)
@example(seed=2, dim=4, states=3, smallest=0.5, asymmetry=0.0, trace_shift=1.0, trace_edge=0.999)
@example(seed=2, dim=4, states=3, smallest=0.5, asymmetry=0.0, trace_shift=-1.0, trace_edge=1.001)
@example(seed=3, dim=16, states=1, smallest=0.999, asymmetry=0.0, trace_shift=0.0, trace_edge=1.0)
@example(seed=3, dim=16, states=1, smallest=1.001, asymmetry=0.0, trace_shift=0.0, trace_edge=1.0)
def test_real_and_complex_stacks_get_one_verdict(seed, dim, states, smallest, asymmetry,
                                                 trace_shift, trace_edge):
    # random real symmetric unit-trace stacks, whose last state's smallest
    # eigenvalue, Hermiticity deviation and trace deviation each sit at a
    # multiple near 1 of MIN_EIGENVALUE, HERMITICITY_TOL and TRACE_TOL: the
    # stack and its complex128 cast get the same verdict and message
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(states):
        u = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        w = np.concatenate([[smallest * MIN_EIGENVALUE], rng.dirichlet(np.ones(dim - 1))])
        m = (u * (w / w.sum())) @ u.T
        stack.append(0.5 * (m + m.T))
    real = np.array(stack)
    real[-1, 0, 1] += asymmetry * HERMITICITY_TOL
    real[-1, 1, 1] += trace_shift * trace_edge * TRACE_TOL
    assert real.dtype == np.float64
    expected = _rejection(real)
    assert _rejection(real.astype(complex)) == expected
    if expected is None:
        assert DensityMatrix(real).matrix.dtype == np.float64
        assert DensityMatrix(real.astype(complex)).matrix.dtype == np.complex128


def _compact_rejection(values, layout):
    """The message the compact check rejects values in layout with, or None if it passes."""
    try:
        _validate_compact(values, layout)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_compact_check_accepts_every_preset_point_on_its_own(name):
    # each chunk's built values pass the compact check with no dense
    # fallback, and validate_density passes their dense view
    observers, r = sweep_points(PRESETS[name])
    layout, chunks = _checked(observers, r)
    for start in range(0, len(r), CHUNK):
        with recorded() as calls:
            values = next(chunks)
        assert {call.kind for call in calls} == {"rho blocks"}
        assert _compact_rejection(values, layout) is _rejection(layout.dense(values)) is None
    assert next(chunks, None) is None


def _cell(layout, i, j):
    """The compact column of rho's entry (i, j)."""
    return layout.column[16 * i + j]


def _eigenvalue(i, j, target):
    """Give rho the eigenvalue target on the rank-one 2x2 block of indices i and j.

    Both hold one region-II pattern's amplitudes, so that block is a a^T and
    its null vector u is one of rho's: the block gains target (u u^T - v v^T),
    with v = a / |a|, which keeps the trace and every other eigenvalue >= 0.
    """
    def corrupt(values, layout):
        cells = layout.column[[[17 * i, 16 * i + j], [16 * j + i, 17 * j]]]
        u, v = np.linalg.eigh(values[0, cells])[1].T
        values[0, cells] += target * (np.outer(u, u) - np.outer(v, v))
    return corrupt


def _diagonal(i, target):
    """Set rho's diagonal entry (i, i) to target, the population it loses added to |1000>'s."""
    def corrupt(values, layout):
        values[0, _cell(layout, 8, 8)] += values[0, _cell(layout, i, i)] - target
        values[0, _cell(layout, i, i)] = target
    return corrupt


def _set(i, j, value, add=False):
    """Set rho's entry (i, j) alone to value, or add value to it."""
    def corrupt(values, layout):
        values[0, _cell(layout, i, j)] = value + (values[0, _cell(layout, i, j)] if add else 0.0)
    return corrupt


def _inf_pair(values, layout):
    # a pair that the factorization lets through: inf * 0 makes its pivots NaN
    values[0, [_cell(layout, 8, 1), _cell(layout, 1, 8)]] = np.inf


BLOCK_EIGENVALUE = "density matrix has eigenvalue -1.001e-10 below -1e-10"
CORRUPTIONS = {
    # an eigenvalue that factors, one that is accepted by its spectrum, and one rejected
    **{f"{block}-eigenvalue-{-target:g}": (point, _eigenvalue(i, j, target), message)
       for block, point, i, j in (("4-block", {"D": 0.3}, 4, 8),
                                  ("5-block", {"C": 0.3, "D": 0.4}, 5, 9))
       for target, message in ((-0.9e-10, None), (-0.9995e-10, None),
                               (-1.001e-10, BLOCK_EIGENVALUE))},
    # with three observers |1111> is populated alone, a 1x1 block on the support
    **{f"1x1-eigenvalue-{-target:g}": ({"A": 0.3, "B": 0.3, "C": 0.3}, _diagonal(15, target),
                                       message)
       for target, message in ((-0.9e-10, None), (-0.9995e-10, None),
                               (-1.001e-10, BLOCK_EIGENVALUE))},
    # a negative diagonal in a multi-entry block, |0100>'s: inside the diagonal
    # pre-test's -_CHOLESKY_SHIFT, left to the block's factorization, and past it
    **{f"{label}-block-diagonal-{-target:g}": (point, _diagonal(4, target),
                                               "density matrix has eigenvalue -")
       for label, point in (("D", {"D": 0.3}), ("CD", {"C": 0.3, "D": 0.4}))
       for target in (-0.9e-10, -1.001e-10, -1e-3)},
    # (9, 5) is 0.0 at r = 0: off its mirror by exactly the value it is set to
    **{f"{label}-mirror-{delta:g}": (point, _set(9, 5, delta), message)
       for label, point in (("D", {"D": 0.0}), ("CD", {"C": 0.0, "D": 0.0}))
       for delta, message in ((1e-12, None),
                              (1.01e-12, "density matrix deviates from Hermiticity by 1.010e-12"))},
    **{f"{label}-{name}": (point, corrupt, message)
       for label, point in (("D", {"D": 0.3}), ("CD", {"C": 0.3, "D": 0.4}))
       for name, corrupt, message in (
           ("inf-pair", _inf_pair, "density matrix deviates from Hermiticity by nan"),
           ("nan", _set(4, 2, np.nan), "density matrix deviates from Hermiticity by nan"),
           ("trace-up", _set(8, 8, 1.01e-10, add=True), "density matrix trace is 1.0000000001"),
           ("trace-down", _set(8, 8, -1.01e-10, add=True),
            "density matrix trace is 0.9999999998"))},
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_compact_check_gives_validate_densitys_verdict_at_the_edges(case):
    # built values, corrupted at one point: the compact check's verdict and
    # message are validate_density's on the dense view, and that verdict is
    # the one each corruption sits just inside or just outside of
    point, corrupt, message = CORRUPTIONS[case]
    layout, chunks = _checked(tuple(point), [list(point.values())])
    values = np.concatenate([next(chunks)] * 2)
    corrupt(values, layout)
    expected = _rejection(layout.dense(values))
    assert _compact_rejection(values, layout) == expected
    assert expected is None if message is None else expected.startswith(message)


@pytest.mark.parametrize("point", [{"D": 0.3}, {"C": 0.3, "D": 0.4}, dict.fromkeys("ABCD", 0.3)])
def test_observed_densities_factors_a_long_stack_chunk_by_chunk(point, monkeypatch):
    # each chunk of CHUNK points is one factorization, the last one of a
    # single point, and a block that fails in the last chunk gets
    # validate_density's message
    r = [list(point.values())] * (2 * CHUNK + 1)
    with recorded() as calls:
        observed_densities(w_state(4), tuple(point), r)
    assert [(call.kind, len(call.array)) for call in calls] == [
        ("rho blocks", CHUNK)] * 2 + [("rho blocks", 1)]
    expected = []

    def corrupted(values, layout):
        if len(values) == 1:
            _eigenvalue(4, 8, -1.001e-10)(values, layout)
            expected.append(_rejection(layout.dense(values)))
        _validate_compact(values, layout)

    monkeypatch.setattr("wtangles.rindler._validate_compact", corrupted)
    with pytest.raises(ValueError) as info:
        observed_densities(w_state(4), tuple(point), r)
    [message] = expected
    assert message.startswith(BLOCK_EIGENVALUE) and str(info.value) == message
