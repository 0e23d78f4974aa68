"""Dense Hermitian eigensolves for the entanglement pipeline.

Matrices are plain numpy arrays (real or complex), either one (d, d) matrix
or a stack of shape (..., d, d); spectra are real arrays sorted ascending
along the last axis, results are arrays over the leading axes, and a stack
is diagonalized by one eigvalsh call.  Problem sizes stay at or below
64x64, so everything is dense double precision.  These are the bare
eigensolves: the input must be Hermitian, and nothing here checks it.
eigvalsh reads one triangle, so a matrix that is not Hermitian gets the
spectrum of that triangle's Hermitian completion.  Hermiticity is checked
where a state is made (fock.validate_density); a partial transpose
deviates from Hermiticity exactly as much as its state, so nothing is
checked again on the way to eigvalsh.
"""

from __future__ import annotations

import numpy as np


class NoConvergenceError(RuntimeError):
    """Raised when the eigenvalue iteration fails to converge."""


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All real eigenvalues of each Hermitian matrix, sorted ascending.

    m must be Hermitian; it goes to eigvalsh as it is, unchecked and uncopied.
    """
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def negative_eigenvalue_sum(m: np.ndarray) -> np.ndarray:
    """Twice the summed magnitude of the negative eigenvalues of each matrix.

    m must be Hermitian.  This equals its trace norm minus its trace.  The
    spectrum is ascending, so a running sum of |min(w, 0)| adds the negative
    eigenvalues left to right and then only zeros.
    """
    w = hermitian_eigenvalues(m)
    return 2.0 * np.abs(np.minimum(w, 0.0)).cumsum(axis=-1)[..., -1]
