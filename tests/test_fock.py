"""Register bookkeeping: layouts, state containers, trace and transpose."""

import numpy as np
import pytest

from wtangles.fock import (
    DensityMatrix,
    Mode,
    ModeLayout,
    Region,
    StateVector,
    partial_trace,
    partial_transpose,
    pure_to_density,
    validate_density,
    w_state,
)
from wtangles.linalg import hermitian_eigenvalues

from . import patterns


def test_layout_labels_and_positions():
    layout = ModeLayout.inertial("A", "B", "C", "D")
    assert layout.n == 4
    assert layout.dim == 16
    assert layout.labels() == ("A", "B", "C", "D")
    assert layout.position("C") == 2
    with pytest.raises(ValueError):
        layout.position("E")


def test_layout_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        ModeLayout((Mode("A"), Mode("A")))
    with pytest.raises(ValueError):
        ModeLayout(())


def test_layout_region_disambiguation():
    layout = ModeLayout((Mode("A"), Mode("D", Region.RINDLER_I), Mode("D", Region.RINDLER_II)))
    assert layout.labels() == ("A", "D_I", "D_II")
    with pytest.raises(ValueError):
        layout.position("D")            # two D modes, region required
    assert layout.position("D", Region.RINDLER_I) == 1
    assert layout.positions(Region.RINDLER_II) == (2,)
    assert layout.positions(Region.MINKOWSKI) == (0,)


def test_w_state_amplitudes():
    psi = w_state(4)
    assert psi.layout.labels() == ("A", "B", "C", "D")
    amp = psi.amplitudes
    hot = {8, 4, 2, 1}
    for index in range(16):
        assert amp[index] == pytest.approx(0.5 if index in hot else 0.0)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_w_state_normalized(n):
    amp = w_state(n).amplitudes
    assert np.vdot(amp, amp).real == pytest.approx(1.0, abs=1e-14)
    assert np.count_nonzero(amp) == n


@pytest.mark.parametrize("n", [0, 1, 13])
def test_w_state_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        w_state(n)


def test_state_vector_validation():
    layout = ModeLayout.inertial("A")
    with pytest.raises(ValueError):
        StateVector(layout, np.array([1.0, 0.0, 0.0]))   # wrong length
    with pytest.raises(ValueError):
        StateVector(layout, np.array([1.0, 1.0]))        # norm 2
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(layout, np.array([np.nan, 1.0]))


def test_state_vector_amplitudes_read_only():
    psi = w_state(2)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0


def test_density_matrix_validation():
    layout = ModeLayout.inertial("A")
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="Hermiticity by nan"):
        DensityMatrix(layout, np.array([[np.nan, 0.0], [0.0, 0.5]]))


def test_pure_to_density_is_projector():
    rho = pure_to_density(w_state(4))
    m = rho.matrix
    np.testing.assert_allclose(m @ m, m, atol=1e-14)
    assert float(m.trace().real) == pytest.approx(1.0)


def test_partial_trace_factorizes_product_state():
    a = np.array([np.cos(0.4), np.sin(0.4)])
    b = np.array([0.6, 0.8j])
    psi = StateVector(ModeLayout.inertial("A", "B"), np.kron(a, b))
    rho = pure_to_density(psi)
    np.testing.assert_allclose(partial_trace(rho, [0]).matrix, np.outer(a, a.conj()), atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, [1]).matrix, np.outer(b, b.conj()), atol=1e-14)


def test_partial_trace_single_mode_of_w4():
    rho = pure_to_density(w_state(4))
    for pos in range(4):
        reduced = partial_trace(rho, [pos])
        np.testing.assert_allclose(reduced.matrix, np.diag([0.75, 0.25]), atol=1e-14)
        assert reduced.layout.n == 1


def test_partial_trace_sequential_matches_direct():
    rho = pure_to_density(w_state(4))
    direct = partial_trace(rho, [0, 1])
    stepwise = partial_trace(partial_trace(rho, [0, 1, 2]), [0, 1])
    np.testing.assert_allclose(stepwise.matrix, direct.matrix, atol=1e-14)
    assert stepwise.layout.labels() == ("A", "B")


def test_partial_trace_keep_all_is_identity():
    rho = pure_to_density(w_state(3))
    np.testing.assert_allclose(partial_trace(rho, [0, 1, 2]).matrix, rho.matrix)


def test_partial_trace_validation():
    rho = pure_to_density(w_state(2))
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [2])


def test_partial_transpose_on_product_state():
    a = np.array([[0.7, 0.3j], [-0.3j, 0.3]])
    b = np.diag([0.2, 0.8])
    layout = ModeLayout.inertial("A", "B")
    rho = DensityMatrix(layout, np.kron(a, b))
    once = partial_transpose(rho, [0])
    np.testing.assert_allclose(once, np.kron(a.T, b), atol=1e-15)
    # transposing the same part again restores the original
    twice = partial_transpose(DensityMatrix(layout, once), [0])
    np.testing.assert_allclose(twice, rho.matrix, atol=1e-15)


def test_partial_transpose_all_modes_is_plain_transpose():
    v = np.array([0.5, 0.5j, 0.5, -0.5j])
    rho = pure_to_density(StateVector(ModeLayout.inertial("A", "B"), v))
    np.testing.assert_allclose(partial_transpose(rho, [0, 1]), rho.matrix.T, atol=1e-15)


def test_partial_transpose_of_w4_spectrum():
    rho = pure_to_density(w_state(4))
    m = partial_transpose(rho, [0])
    np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
    assert float(np.trace(m).real) == pytest.approx(1.0)
    w = np.linalg.eigvalsh(m)
    nonzero = np.sort(w[np.abs(w) > 1e-12])
    np.testing.assert_allclose(nonzero, patterns.PT_SPECTRUM_INERTIAL, atol=1e-12)
    assert float(np.abs(w).sum()) == pytest.approx(patterns.TRACE_NORM_INERTIAL_PT, abs=1e-12)


def test_partial_transpose_validation():
    rho = pure_to_density(w_state(2))
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
    layout = ModeLayout.inertial("A", "B")
    good = _three_states()
    stack = DensityMatrix(layout, good)
    assert stack.matrix.shape == (3, 4, 4)
    asymmetric = good.copy()
    asymmetric[1, 0, 1] += 1e-6
    asymmetric[2, 0, 1] += 1e-9
    with pytest.raises(ValueError, match=r"density matrix deviates from Hermiticity by 1\.0+e-06"):
        DensityMatrix(layout, asymmetric)
    scaled = good.copy()
    scaled[2] *= 1.5
    with pytest.raises(ValueError, match=r"density matrix trace is 1\.5, expected 1"):
        DensityMatrix(layout, scaled)
    negative = good.copy()
    negative[0] = np.diag([1.25, 0.0, 0.0, -0.25])
    with pytest.raises(ValueError, match=r"density matrix has eigenvalue -2\.500e-01 below"):
        DensityMatrix(layout, negative)
    with pytest.raises(ValueError, match="layout wants"):
        DensityMatrix(layout, good[:, :2, :2])
    one_nan = good.copy()
    one_nan[1, 2, 2] = np.nan
    with pytest.raises(ValueError, match="Hermiticity by nan"):
        DensityMatrix(layout, one_nan)
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
    layout = ModeLayout.inertial("A", "B")
    stack = DensityMatrix(layout, _three_states())
    assert np.array_equal(stack[1].matrix, stack.matrix[1])
    assert stack[1].layout == layout
    assert stack[1][None].matrix.shape == (1, 4, 4)
    assert np.array_equal(partial_trace(stack, [1]).matrix[2], partial_trace(stack[2], [1]).matrix)
    assert np.array_equal(partial_transpose(stack, [0])[0], partial_transpose(stack[0], [0]))
    with pytest.raises(IndexError):
        stack[0][0]


def test_spectra_are_kept_from_validation():
    stack = DensityMatrix(ModeLayout.inertial("A", "B"), _three_states())
    assert np.array_equal(stack.spectra, hermitian_eigenvalues(stack.matrix))
    assert np.array_equal(stack[2].spectra, stack.spectra[2])
    assert np.array_equal(stack[1:][None].spectra, stack.spectra[None, 1:])
    rho = pure_to_density(w_state(4))
    assert np.array_equal(rho.spectra, hermitian_eigenvalues(rho.matrix))
    assert rho[None].spectra.shape == (1, 16)
    reduced = partial_trace(stack, [0])
    assert np.array_equal(reduced.spectra, hermitian_eigenvalues(reduced.matrix))
