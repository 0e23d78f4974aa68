"""One recorder at numpy's boundary: the arrays the package hands to LAPACK.

The package reaches LAPACK through two numpy functions alone: eigvalsh for
every spectrum and cholesky for every positivity test.  recorded() wraps
those two and records each array they get, with its route and whether the
call raised.  It patches no name in the package, so a refactor inside it
that hands LAPACK the same arrays leaves every record as it was.

A record's kind follows from its route and shape alone:

    rho blocks        cholesky (b, B, m, m)    rho's B multi-entry structural
                                               blocks, shifted and padded to
                                               the largest, m (4, 5 or 6), of
                                               a chunk or a step of a stack
    rho factored      cholesky (b, 16, 16)     a block of a dense rho,
                                               shifted: a DensityMatrix's own
                                               check, or a compact check's
                                               failure checked again
    rho diagonalized  eigvalsh (N, 16, 16)     rho, for S
    1-3 transposes    eigvalsh (N, K, 16, 16)  every needed rho^{T_k}
    pair states       cholesky (b, 4, 4)       a block of the (N, P, 4, 4)
                                               distinct pair states, shifted,
                                               only where their charge-block
                                               check falls back to
                                               validate_density: a complex
                                               stack, or one failing a test
    pair sides        eigvalsh (N, P, 4, 4)    each distinct pair state's
                                               transpose on its first mode

B counts rho's structural blocks of more than one index (charge_blocks):
one with no observer accelerated, two with one, three with two or more.  P
counts the distinct pair states: the needed pairs whose (N, 4, 4) states
differ in bytes over the stack.  A spectrum that decides a rejected
factorization has the shape of rho or of a pair side, and counts as one;
any other shape has no kind (None).

blas_build() names the numpy and the OpenBLAS kernel a run uses, for the
messages of the tests that pin output bytes: the 16x16 spectra round
differently in each of OpenBLAS's run-time kernels, and the pins were made
on PINNED_BUILD.
"""

import contextlib
import ctypes
import math
import pathlib
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from wtangles import fock

from . import reference

ROUTES = ("eigvalsh", "cholesky")
PINNED_BUILD = "numpy 2.4.6, scipy-openblas 0.3.31, SkylakeX"
# (route, ndim, matrix size) -> kind
KINDS = {
    **{("cholesky", 4, size): "rho blocks" for size in (4, 5, 6)},
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


def charge_blocks(observers):
    """rho's structural blocks of more than one index with observers accelerated.

    The indices whose population is on rho's support, read off the reference
    build at a point where no amplitude vanishes, joined by their region-I
    occupation, the charge the map conserves; each block in index order, and
    the blocks by their first index.
    """
    rho = reference.observed_dense(fock.W4, observers, [[0.3] * len(observers)])[0]
    blocks = {}
    for i in np.flatnonzero(np.diagonal(rho)).tolist():
        blocks.setdefault(bin(i).count("1"), []).append(i)
    return sorted(block for block in blocks.values() if len(block) > 1)


def factored_blocks(stack, observers):
    """The blocks of each state of an (N, 16, 16) stack, as the factorization of rho takes them.

    An (N, B, m, m) array: block b of charge_blocks, shifted on its
    diagonal, then 1.0 on the diagonal of its padding up to the largest m.
    """
    blocks = charge_blocks(observers)
    size = max(map(len, blocks))
    out = np.zeros((len(stack), len(blocks), size, size))
    for b, block in enumerate(blocks):
        out[:, b, :len(block), :len(block)] = shifted(stack[:, block][:, :, block])
        out[:, b, range(len(block), size), range(len(block), size)] = 1.0
    return out


def blas_build():
    """The numpy version, the OpenBLAS config and the run-time OpenBLAS core.

    The last two are read with ctypes from the OpenBLAS that numpy's wheel
    bundles; either is "unknown" where that library or its symbol is missing.
    """
    root = pathlib.Path(np.__file__).parent
    # the Linux wheels' numpy.libs, next to the package, or the macOS wheels' .dylibs
    libraries = sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")])
    values = []
    for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"):
        try:
            function = getattr(ctypes.CDLL(str(libraries[0])), symbol)
        except (IndexError, OSError, AttributeError):
            values.append("unknown")
            continue
        function.argtypes, function.restype = [], ctypes.c_char_p
        values.append(function().decode().strip())
    return (np.__version__, *values)


def pinned_on():
    """Where the byte pins were made and what this run uses, for a failed pin's message."""
    version, config, core = blas_build()
    return f"pins made on {PINNED_BUILD}; this run: numpy {version}, {config}, core {core}"
