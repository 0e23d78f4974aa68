"""Dense Hermitian matrix helpers for the entanglement pipeline.

Matrices are plain numpy arrays (real or complex), either one (d, d) matrix
or a stack of shape (..., d, d); spectra are real arrays sorted ascending
along the last axis, results are arrays over the leading axes, and a stack
is diagonalized by one eigvalsh call.  Problem sizes stay at or below
64x64, so everything is dense double precision.  Tolerance tests are
written as "not value <= tol", so a NaN anywhere in a stack fails them.
The Hermiticity check before each eigvalsh runs block by block over a
stack, so a large stack costs little more memory than itself.  It only
checks: a stack within HERMITICITY_TOL goes to eigvalsh as it is, never
symmetrized or copied.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-12
# stack bytes that the Hermiticity check handles at once
_BLOCK_BYTES = 1 << 16


class NotHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix and gets none."""


class NoConvergenceError(RuntimeError):
    """Raised when the eigenvalue iteration fails to converge."""


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """m as it is, after checking each matrix is Hermitian within HERMITICITY_TOL.

    The check runs over the stack in blocks of about _BLOCK_BYTES, so its
    temporaries stay small however large the stack is.  m is never
    symmetrized: eigvalsh reads one triangle, so a deviation d moves the
    eigenvalues by up to about d.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    stack = m.reshape((math.prod(m.shape[:-2]),) + m.shape[-2:])
    step = max(1, _BLOCK_BYTES // max(1, m.itemsize * m.shape[-1] ** 2))
    deviation = 0.0
    for start in range(0, len(stack), step):
        block = stack[start:start + step]
        difference = block - np.conjugate(block.swapaxes(1, 2), order="C")
        # any() is cheaper than the moduli, and true for a NaN too
        worst = float(np.abs(difference).max()) if difference.any() else 0.0
        if worst > deviation or worst != worst:     # a NaN stays the worst
            deviation = worst
    if not deviation <= HERMITICITY_TOL:
        raise NotHermitianError(f"matrix deviates from Hermiticity by {deviation:.3e}")
    return m


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All real eigenvalues of each Hermitian matrix, sorted ascending."""
    h = _require_hermitian(m)
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def negative_eigenvalue_sum(m: np.ndarray) -> np.ndarray:
    """Twice the summed magnitude of the negative eigenvalues of each matrix.

    Equals the trace norm minus the trace for Hermitian m.  The spectrum is
    ascending, so a running sum of |min(w, 0)| adds the negative eigenvalues
    left to right and then only zeros.
    """
    w = hermitian_eigenvalues(m)
    return 2.0 * np.abs(np.minimum(w, 0.0)).cumsum(axis=-1)[..., -1]
