import math

import numpy as np
import pytest

from wtangles.linalg import (
    NoConvergenceError,
    NotHermitianError,
    hermitian_eigenvalues,
    negative_eigenvalue_sum,
    trace_norm,
)


def test_eigenvalues_known_pair():
    w = hermitian_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)


def test_eigenvalues_real_and_ascending():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = hermitian_eigenvalues(g + g.conj().T)
    assert w.dtype == np.float64
    assert np.all(np.diff(w) >= 0.0)


@pytest.mark.parametrize("bad", [
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[0.0, 1.0j], [1.0j, 0.0]]),
    np.ones((2, 3)),
])
def test_non_hermitian_input_rejected(bad):
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(bad)


def test_error_types_subclass_builtins():
    # callers may catch plain ValueError / RuntimeError
    assert issubclass(NotHermitianError, ValueError)
    assert issubclass(NoConvergenceError, RuntimeError)


def test_trace_norm_mixed_sign_spectrum():
    m = np.diag([0.75, 0.75, -0.5])
    assert trace_norm(m) == pytest.approx(2.0, abs=1e-15)
    assert negative_eigenvalue_sum(m) == pytest.approx(1.0, abs=1e-15)


def test_negative_sum_of_psd_matrix_is_plus_zero():
    value = negative_eigenvalue_sum(np.diag([0.5, 0.5]))
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0


def test_trace_norm_minus_trace_identity():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((10, 10))
    h = g + g.T
    lhs = trace_norm(h) - float(np.trace(h))
    assert lhs == pytest.approx(negative_eigenvalue_sum(h), abs=1e-10)
