"""One recorder at numpy's boundary: the arrays the package hands to LAPACK.

The package reaches LAPACK through two numpy functions alone: eigvalsh for
every spectrum and cholesky for every positivity test.  recorded() wraps
those two and records each array they get, with its route and whether the
call raised.  It patches no name in the package, so a refactor inside it
that hands LAPACK the same arrays leaves every record as it was.

A record's kind follows from its route and shape alone:

    rho factored      cholesky (b, 16, 16)     a block of rho, shifted
    rho diagonalized  eigvalsh (N, 16, 16)     rho, for S
    1-3 transposes    eigvalsh (N, K, 16, 16)  every needed rho^{T_k}
    pair states       cholesky (b, 4, 4)       a block of the (N, P, 4, 4)
                                               pair states, shifted
    pair sides        eigvalsh (N, P, 4, 4)    each pair's transpose on its
                                               first mode

A spectrum that decides a rejected factorization has the shape of rho or
of a pair side, and counts as one; any other shape has no kind (None).
"""

import contextlib
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from wtangles import fock

ROUTES = ("eigvalsh", "cholesky")
# (route, ndim, matrix size) -> kind
KINDS = {
    ("cholesky", 3, 16): "rho factored",
    ("eigvalsh", 3, 16): "rho diagonalized",
    ("eigvalsh", 4, 16): "1-3 transposes",
    ("cholesky", 3, 4): "pair states",
    ("eigvalsh", 4, 4): "pair sides",
}


class Call(NamedTuple):
    """One call of eigvalsh or cholesky, with the array as it got it."""

    route: str
    array: np.ndarray
    raised: bool

    @property
    def kind(self):
        return KINDS.get((self.route, self.array.ndim, self.array.shape[-1]))


@contextlib.contextmanager
def recorded():
    """Yield the list of calls that eigvalsh and cholesky get in the block, in order."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for route in ROUTES:
            def recording(m, route=route, function=getattr(np.linalg, route)):
                raised = True
                try:
                    out = function(m)
                    raised = False
                    return out
                finally:
                    calls.append(Call(route, m, raised))
            patch.setattr(np.linalg, route, recording)
        yield calls


def work(calls):
    """The matrices of each kind in calls, in the order the kinds first came."""
    counts = Counter()
    for call in calls:
        counts[call.kind] += math.prod(call.array.shape[:-2])
    return dict(counts)


def shifted(m):
    """m shifted on its diagonal, as the positivity factorization takes it."""
    return m + fock._CHOLESKY_SHIFT * np.eye(m.shape[-1])
