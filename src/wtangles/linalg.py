"""Dense Hermitian matrix helpers for the entanglement pipeline.

Matrices are plain numpy arrays (real or complex), either one (d, d) matrix
or a stack of shape (..., d, d); spectra are real arrays sorted ascending
along the last axis, results are arrays over the leading axes, and a stack
is diagonalized by one eigvalsh call.  Problem sizes stay at or below
64x64, so everything is dense double precision.  Tolerance tests are
written as "not value <= tol", so a NaN anywhere in a stack fails them.
The Hermiticity check and symmetrization before each eigvalsh run block by
block over a stack, and may work in place on a scratch stack
(overwrite=True), so a large stack costs little more memory than itself.
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


def _require_hermitian(m: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """m symmetrized as 0.5 * (m + m^H), after checking each matrix is Hermitian.

    The check and the symmetrization run over the stack in blocks of about
    _BLOCK_BYTES, so their temporaries stay small however large the stack
    is.  With overwrite=True the symmetrized blocks may replace m's own.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    stack = m.reshape((math.prod(m.shape[:-2]),) + m.shape[-2:])
    dtype = np.result_type(m, 0.5)
    if overwrite and stack.dtype == dtype and stack.flags.writeable:
        out = stack
    else:
        out = np.empty(stack.shape, dtype)
    step = max(1, _BLOCK_BYTES // max(1, m.itemsize * m.shape[-1] ** 2))
    deviation = 0.0
    for start in range(0, len(stack), step):
        block = stack[start:start + step]
        adjoint = np.conjugate(block.swapaxes(1, 2), order="C")
        worst = float(np.abs(block - adjoint).max()) if block.size else 0.0
        if worst > deviation or worst != worst:     # a NaN stays the worst
            deviation = worst
        # symmetrize to suppress roundoff asymmetry before diagonalizing
        np.multiply(0.5, block + adjoint, out=out[start:start + step])
    if not deviation <= HERMITICITY_TOL:
        raise NotHermitianError(f"matrix deviates from Hermiticity by {deviation:.3e}")
    return out.reshape(m.shape)


def hermitian_eigenvalues(m: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """All real eigenvalues of each Hermitian matrix, sorted ascending.

    overwrite=True lets the call symmetrize m in place, when m is scratch.
    """
    h = _require_hermitian(m, overwrite)
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def negative_eigenvalue_sum(m: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Twice the summed magnitude of the negative eigenvalues of each matrix.

    Equals the trace norm minus the trace for Hermitian m.  The spectrum is
    ascending, so a running sum of |min(w, 0)| adds the negative eigenvalues
    left to right and then only zeros.  overwrite is as for
    hermitian_eigenvalues.
    """
    w = hermitian_eigenvalues(m, overwrite)
    return 2.0 * np.abs(np.minimum(w, 0.0)).cumsum(axis=-1)[..., -1]
