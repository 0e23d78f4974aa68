"""Register bookkeeping: state containers, trace and transpose."""

import numpy as np
import pytest

from wtangles.fock import (
    DensityMatrix,
    StateVector,
    _add_blocks,
    _trace_blocks,
    partial_transpose,
    validate_density,
    w_state,
)
from wtangles.linalg import hermitian_eigenvalues
from wtangles.rindler import observed_density

from . import patterns, reference

# |W4><W4|, as the pipeline builds it for an all-inertial observation
W4 = observed_density(w_state(4), None)


def _traced(m, n, keep):
    """The pipeline's trace-out of every mode but keep: its two kernels in a row."""
    return _add_blocks(_trace_blocks(m, n, keep))


def test_w_state_amplitudes():
    amp = w_state(4).amplitudes
    hot = {8, 4, 2, 1}
    for index in range(16):
        assert amp[index] == pytest.approx(0.5 if index in hot else 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_w_state_normalized(n):
    # only w_state(4) is built by the package; other sizes check that
    # StateVector accepts and keeps an n-mode W state built entrywise
    if n == 4:
        psi = w_state(4)
    else:
        psi = StateVector(reference.w_amplitudes(n))
    amp = psi.amplitudes
    assert np.vdot(amp, amp).real == pytest.approx(1.0, abs=1e-14)
    assert np.count_nonzero(amp) == n
    assert np.array_equal(amp, reference.w_amplitudes(n))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13])
def test_w_state_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        w_state(n)


def test_state_vector_validation():
    for shape in [(3,), (1,), (2, 2)]:    # not 2^n amplitudes with n >= 1
        with pytest.raises(ValueError, match=r"want \(2\^n,\) with n >= 1"):
            StateVector(np.eye(1, np.prod(shape)).reshape(shape))
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))        # norm 2
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.array([np.nan, 1.0]))


def test_state_vector_amplitudes_read_only():
    psi = w_state(4)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0


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
    assert np.array_equal(m, reference.projector(w_state(4).amplitudes))


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
    assert np.array_equal(validate_density(pairs), hermitian_eigenvalues(pairs))
    corrupted = pairs.copy()
    corrupted[1, 2] = np.diag([1.25, 0.0, 0.0, -0.25])
    with pytest.raises(ValueError, match=r"density matrix has eigenvalue -2\.500e-01 below"):
        validate_density(corrupted)
    corrupted[0, 1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"density matrix deviates from Hermiticity by 1\.0+e-06"):
        validate_density(corrupted)


def test_stack_indexing_selects_states():
    stack = DensityMatrix(_three_states())
    assert np.array_equal(stack[1].matrix, stack.matrix[1])
    assert stack[1][None].matrix.shape == (1, 4, 4)
    assert np.array_equal(_traced(stack.matrix, 2, [1])[2], _traced(stack[2].matrix, 2, [1]))
    assert np.array_equal(partial_transpose(stack, [0])[0], partial_transpose(stack[0], [0]))
    with pytest.raises(IndexError):
        stack[0][0]


def test_spectra_are_kept_from_validation():
    stack = DensityMatrix(_three_states())
    assert np.array_equal(stack.spectra, hermitian_eigenvalues(stack.matrix))
    assert np.array_equal(stack[2].spectra, stack.spectra[2])
    assert np.array_equal(stack[1:][None].spectra, stack.spectra[None, 1:])
    assert np.array_equal(W4.spectra, hermitian_eigenvalues(W4.matrix))
    assert W4[None].spectra.shape == (1, 16)
    reduced = DensityMatrix(_traced(stack.matrix, 2, [0]))
    assert np.array_equal(reduced.spectra, hermitian_eigenvalues(reduced.matrix))
