"""Dense Hermitian matrix helpers for the entanglement pipeline.

Matrices are plain numpy arrays (real or complex), either one (d, d) matrix
or a stack of shape (..., d, d); spectra are real arrays sorted ascending
along the last axis, and a stack is diagonalized by one eigvalsh call.
Problem sizes stay at or below 64x64, so everything is dense double
precision.  Tolerance tests are written as "not value <= tol", so a NaN
anywhere in a stack fails them.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
ZERO_EIGENVALUE_TOL = 1e-12


class NotHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix and gets none."""


class NoConvergenceError(RuntimeError):
    """Raised when the eigenvalue iteration fails to converge."""


def _per_matrix(values: np.ndarray) -> np.ndarray | float:
    # one matrix gives a float, a stack an array over its leading axes
    return values if values.ndim else float(values)


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    adjoint = m.conj().swapaxes(-1, -2)
    deviation = float(np.abs(m - adjoint).max()) if m.size else 0.0
    if not deviation <= HERMITICITY_TOL:
        raise NotHermitianError(f"matrix deviates from Hermiticity by {deviation:.3e}")
    # symmetrize to suppress roundoff asymmetry before diagonalizing
    return 0.5 * (m + adjoint)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All real eigenvalues of each Hermitian matrix, sorted ascending."""
    h = _require_hermitian(m)
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def trace_norm(m: np.ndarray) -> np.ndarray | float:
    """Sum of absolute eigenvalues of each Hermitian matrix."""
    return _per_matrix(np.abs(hermitian_eigenvalues(m)).sum(axis=-1))


def negative_eigenvalue_sum(m: np.ndarray) -> np.ndarray | float:
    """Twice the summed magnitude of the negative eigenvalues of each matrix.

    Equals trace_norm(m) - trace(m) for Hermitian m.  The spectrum is
    ascending, so a running sum of |min(w, 0)| adds the negative eigenvalues
    left to right and then only zeros.
    """
    w = hermitian_eigenvalues(m)
    if not w.shape[-1]:
        return _per_matrix(np.zeros(w.shape[:-1]))
    return _per_matrix(2.0 * np.abs(np.minimum(w, 0.0)).cumsum(axis=-1)[..., -1])
