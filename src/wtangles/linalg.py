"""Dense Hermitian matrix helpers for the entanglement pipeline.

Matrices are plain numpy arrays (real or complex); spectra are real arrays
sorted ascending.  Problem sizes stay at or below 64x64, so everything is
dense double precision.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
ZERO_EIGENVALUE_TOL = 1e-12


class NotHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix and gets none."""


class NoConvergenceError(RuntimeError):
    """Raised when the eigenvalue iteration fails to converge."""


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    deviation = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if deviation > HERMITICITY_TOL:
        raise NotHermitianError(f"matrix deviates from Hermiticity by {deviation:.3e}")
    # symmetrize to suppress roundoff asymmetry before diagonalizing
    return 0.5 * (m + m.conj().T)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, sorted ascending."""
    h = _require_hermitian(m)
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())


def negative_eigenvalue_sum(m: np.ndarray) -> float:
    """Twice the summed magnitude of negative eigenvalues.

    Equals trace_norm(m) - trace(m) for Hermitian m.
    """
    w = hermitian_eigenvalues(m)
    return float(2.0 * np.abs(w[w < 0.0]).sum())
