import math

import numpy as np
import pytest

from wtangles import fock
from wtangles.fock import validate_density
from wtangles.linalg import negative_eigenvalue_sum


def _trace_norm(m):
    """The sum of the absolute eigenvalues, straight from numpy."""
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def test_eigenvalues_known_pair():
    w = np.linalg.eigvalsh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)


def test_eigenvalues_real_and_ascending():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = np.linalg.eigvalsh(g + g.conj().T)
    assert w.dtype == np.float64
    assert np.all(np.diff(w) >= 0.0)


NAN = np.array([[np.nan, 0.0], [0.0, 0.5]])


def _states(rng, *shape):
    """A stack of random exactly Hermitian, unit-trace, positive (d, d) states."""
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = g @ g.conj().swapaxes(-1, -2)
    m = m + m.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


# each input and the one-line message validate_density rejects it with
@pytest.mark.parametrize("bad", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), r"matrix deviates from Hermiticity by 1\.000e\+00"),
    (np.array([[0.0, 1.0j], [1.0j, 0.0]]), r"matrix deviates from Hermiticity by 2\.000e\+00"),
    (np.ones((2, 3)), r"expected a square matrix, got shape \(2, 3\)"),
    (NAN, "matrix deviates from Hermiticity by nan"),
    # one NaN matrix fails its stack
    (np.stack([np.eye(2) / 2.0, NAN, np.eye(2) / 2.0]), "matrix deviates from Hermiticity by nan"),
])
def test_non_hermitian_input_rejected(bad):
    m, message = bad
    with pytest.raises(ValueError, match=f"^density {message}$"):
        validate_density(m)


def test_error_types_subclass_builtins():
    # numpy's LinAlgError reaches callers as it is, and they may catch plain
    # ValueError; a shape error is named as one, not as a failed convergence
    assert issubclass(np.linalg.LinAlgError, ValueError)
    for m in (np.ones((2, 3)), np.ones(4)):
        with pytest.raises(np.linalg.LinAlgError, match="must be square|at least two-dimensional"):
            negative_eigenvalue_sum(m)


def test_trace_norm_mixed_sign_spectrum():
    m = np.diag([0.75, 0.75, -0.5])
    assert _trace_norm(m) == pytest.approx(2.0, abs=1e-15)
    assert negative_eigenvalue_sum(m) == pytest.approx(1.0, abs=1e-15)


def test_negative_sum_of_psd_matrix_is_plus_zero():
    value = negative_eigenvalue_sum(np.diag([0.5, 0.5]))
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0


def test_trace_norm_minus_trace_identity():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((10, 10))
    h = g + g.T
    lhs = _trace_norm(h) - float(np.trace(h))
    assert lhs == pytest.approx(negative_eigenvalue_sum(h), abs=1e-10)


def test_stacks_are_diagonalized_matrix_by_matrix():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    stack = g + g.conj().swapaxes(1, 2)
    spectra = np.linalg.eigvalsh(stack)
    negative = negative_eigenvalue_sum(stack)
    assert spectra.shape == (5, 6) and negative.shape == (5,)
    for k, m in enumerate(stack):
        assert np.array_equal(spectra[k], np.linalg.eigvalsh(m))
        assert negative[k] == negative_eigenvalue_sum(m)


def test_large_stacks_are_checked_block_by_block():
    # 40 16x16 complex matrices span three blocks of the Hermiticity check
    stack = _states(np.random.default_rng(9), 2, 20, 16, 16)
    spectra = validate_density(stack)
    assert spectra.shape == (2, 20, 16)
    assert np.array_equal(spectra[1, 19], np.linalg.eigvalsh(stack[1, 19]))
    bad = stack.copy()
    bad[0, 3, 0, 1] += 2e-6       # first block
    bad[1, 19, 0, 1] += 3e-6      # last block: the worst names the stack
    with pytest.raises(ValueError, match=r"by 3\.000e-06"):
        validate_density(bad)
    bad[1, 0, 2, 2] = np.nan      # a NaN in a middle block is worse than any number
    with pytest.raises(ValueError, match="by nan"):
        validate_density(bad)


def _seen_by_eigvalsh(monkeypatch, m):
    """The array validate_density hands to numpy's eigvalsh for m."""
    seen, eigvalsh = [], np.linalg.eigvalsh

    def spy(h):
        seen.append(h)
        return eigvalsh(h)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    validate_density(m)
    monkeypatch.undo()
    return seen[0]


def test_stacks_within_tolerance_reach_eigvalsh_as_given(monkeypatch):
    # 40 16x16 matrices, so the check spans several blocks
    exact = _states(np.random.default_rng(11), 40, 16, 16)
    assert np.abs(exact - exact.conj().swapaxes(-1, -2)).max() == 0.0
    assert _seen_by_eigvalsh(monkeypatch, exact) is exact
    # roundoff-asymmetric stacks, complex and real, deviating by up to the tolerance
    inexact = exact.copy()
    inexact[0, 0, 1] += 9e-13
    inexact[39, 15, 2] -= 5e-13j
    real = exact.real.copy()
    real[3, 4, 5] += 9e-13
    for m in (inexact, real):
        deviation = float(np.abs(m - m.conj().swapaxes(-1, -2)).max())
        assert 0.0 < deviation <= fock.HERMITICITY_TOL
        before = m.copy()
        # checked, never symmetrized: eigvalsh gets the input itself, unchanged
        assert _seen_by_eigvalsh(monkeypatch, m) is m
        assert m.tobytes() == before.tobytes()
        # eigvalsh reads one triangle, so the spectra move by at most the deviation
        symmetrized = np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))
        assert np.abs(validate_density(m) - symmetrized).max() <= deviation
    # NaN is never within the tolerance, and fails the check
    bad = exact.copy()
    bad[20, 3, 3] = np.nan
    with pytest.raises(ValueError, match="by nan"):
        validate_density(bad)
