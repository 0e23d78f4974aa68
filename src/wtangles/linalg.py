"""The negativity kernel: the negative eigenvalues of Hermitian matrices.

Matrices are plain numpy arrays (real or complex), either one (d, d) matrix
or a stack of shape (..., d, d); results are arrays over the leading axes,
and a stack is diagonalized by one numpy eigvalsh call.  Problem sizes stay
at or below 64x64, so everything is dense double precision.  This is the
bare eigensolve: the input must be Hermitian, and nothing here checks it.
eigvalsh reads one triangle, so a matrix that is not Hermitian gets the
spectrum of that triangle's Hermitian completion.  A failed eigensolve or
a non-square input raises numpy's LinAlgError, a ValueError, as it is.

The observed states and everything gathered from them are real, and stay
float64 up to here; _eigvalsh is the one place a real stack is cast to
complex128.  Every spectrum is the complex solver's (zheevd), whose bits the
golden outputs pin: the real solver (dsyevd) is faster, but it rounds
differently, and most negativities would not keep their bits.  The cast
adds imaginary parts +0, so each input is the same bytes as a complex build
of the same matrices.
"""

from __future__ import annotations

import numpy as np


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """The ascending spectra of each Hermitian matrix of m, from its complex128 cast."""
    return np.linalg.eigvalsh(np.asarray(m, dtype=complex))


def negative_eigenvalue_sum(m: np.ndarray) -> np.ndarray:
    """Twice the summed magnitude of the negative eigenvalues of each matrix.

    m must be Hermitian.  This equals its trace norm minus its trace.  The
    spectrum is ascending, so a running sum of |min(w, 0)| adds the negative
    eigenvalues left to right and then only zeros.
    """
    w = _eigvalsh(m)
    return 2.0 * np.abs(np.minimum(w, 0.0)).cumsum(axis=-1)[..., -1]
