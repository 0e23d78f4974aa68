"""Occupation-number bookkeeping for a register of fermionic qubit modes.

The register holds one mode per observer, in the order OBSERVERS: A, B, C,
D.  An accelerated observer's mode, as observed, keeps its position.  Basis
indexing is big-endian: the first mode is the most significant bit of the
index, so the pattern |0001> sits at index 1 and |1000> at 8.  That is
exactly the C-order reshape of an amplitude vector to the (2,)*n occupation
tensor, with axis p holding mode p, and of a density matrix to (2,)*2n,
with row axes 0..n-1 and column axes n..2n-1.

Partial transposes and partial traces are axis permutations of that tensor:
a partial transpose swaps the row and column axes of the transposed modes,
and a partial trace moves the traced axes aside and sums the diagonal blocks
one traced pattern at a time, in index order.  Their bare-array kernels
(_transposed, _trace_blocks and _add_blocks) act on any (..., 2^n, 2^n)
array; run on np.arange they give the flat index tables with which measures
gathers the transposes and reduced states of a stack.

The register is only ever |W4>: W4 holds its amplitudes, one read-only
array, which w_state(4) returns.  rindler observes no other state, and
checks that a caller's amplitudes are W4's once, where they are handed in.

A DensityMatrix holds one state or a (..., 2^n, 2^n) stack of states, with
n >= 1, and validates Hermiticity, unit trace and positivity on construction
(validate_density); violations raise instead of being clipped.  It holds a
read-only copy of a caller's array; a stack the package has just built
(rindler) is validated and held as it is, read-only, with no copy.  Indexing
selects states without checking them again: rho[p] is state p of a stack and
rho[None] a stack of one.

A real matrix is stored as float64 and a complex one as complex128.
validate_density runs on either dtype, and a real stack and its complex128
cast get the same verdict and message: the trace sums the real parts, and a
spectrum is always that of the complex128 cast.

validate_density is the one place Hermiticity is checked: on rho when it is
built, and on the reduced pair states measures gathers.  A partial transpose
moves each entry together with its adjoint partner, so it deviates from
Hermiticity exactly as much as its state, and is not checked again.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import _eigvalsh

HERMITICITY_TOL = 1e-12
# stack bytes that validate_density checks at once
_BLOCK_BYTES = 1 << 16
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-10
# positivity factors m + _CHOLESKY_SHIFT * I: up to 16x16 its backward error,
# at most about 3e-14 at unit trace, fits in the 1e-13 margin below 1e-10
_CHOLESKY_SHIFT = -0.999 * MIN_EIGENVALUE
# _CHOLESKY_SHIFT * I of each size up to 16, built once, as read-only views
_SHIFTS = tuple(np.broadcast_to(_CHOLESKY_SHIFT * np.eye(dim), (dim, dim)) for dim in range(17))
OBSERVERS = ("A", "B", "C", "D")
# |W4>: amplitude 1/2 on each single-excitation pattern, 8, 4, 2 and 1
W4 = np.zeros(16)
W4[[8, 4, 2, 1]] = 0.5
W4.setflags(write=False)


def validate_density(m: np.ndarray) -> None:
    """Check a nonempty (..., dim, dim) stack of density matrices.

    Each matrix must be Hermitian, of unit trace and positive semidefinite
    within the module tolerances; a failed check raises, naming the worst
    value in the stack.  m may be any array-like, real or complex, and is
    checked in its own dtype; a ragged one raises numpy's ValueError.

    The stack is cut, in order, into (b, dim, dim) blocks of about
    _BLOCK_BYTES; the Hermiticity check and then the positivity test run
    block by block, so no temporary is large enough for glibc to trim the
    top of the heap after each chunk and fault it back on the next.  The
    deviation is the largest |m - m^H| entry, but it is computed only for a
    block where an exact comparison finds an entry unequal to its adjoint
    partner (a NaN is unequal to itself) or where the sum of the squared
    moduli is not finite; elsewhere it is exactly 0.  That second test
    catches an inf equal to its partner, whose difference is NaN, and which
    the factorization below can let through; so each block gets the
    deviation, and the message, of the full subtraction.  m is
    never symmetrized: eigvalsh reads one triangle, so a deviation d moves
    the eigenvalues by up to about d.  Positivity is a Cholesky test of each
    block shifted by _CHOLESKY_SHIFT on its diagonal; each matrix is
    factored on its own, so the verdict is that of one call over the whole
    stack.  Only a stack with a rejected block, or one above 16x16, is
    diagonalized, whole, as its complex128 cast, and its smallest eigenvalue
    decides.  A failed eigensolve raises numpy's LinAlgError, a ValueError.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"density expected a square matrix, got shape {m.shape}")
    stack = m.reshape((math.prod(m.shape[:-2]),) + m.shape[-2:])
    if not len(stack):
        raise ValueError(f"density matrix stack is empty: shape {m.shape}")
    step = max(1, _BLOCK_BYTES // max(1, m.itemsize * m.shape[-1] ** 2))
    blocks = [stack[start:start + step] for start in range(0, len(stack), step)]
    deviation = 0.0
    for block in blocks:
        # conj() of a real block is the block itself, so it compares the transposed view
        adjoint = block.swapaxes(1, 2).conj()
        # != needs only a boolean temporary and is true for a NaN; an inf equal
        # to its partner is not, but makes the sum of squares inf or NaN
        if (block != adjoint).any() or not math.isfinite(np.vdot(block, block).real):
            # inf - inf is a NaN, and np.maximum keeps a NaN as the worst
            with np.errstate(invalid="ignore"):
                deviation = np.maximum(deviation, np.abs(block - adjoint).max())
    if not deviation <= HERMITICITY_TOL:
        raise ValueError(f"density matrix deviates from Hermiticity by {deviation:.3e}")
    # the real parts' trace: a complex trace sums in another order
    traces = m.real.trace(axis1=-2, axis2=-1)
    deviations = np.abs(traces - 1.0)
    if not deviations.max() <= TRACE_TOL:
        worst = float(np.ravel(traces)[np.ravel(deviations).argmax()])
        raise ValueError(f"density matrix trace is {worst!r}, expected 1")
    if m.shape[-1] <= 16:
        shift = _SHIFTS[m.shape[-1]]
        with contextlib.suppress(np.linalg.LinAlgError):
            for block in blocks:
                np.linalg.cholesky(block + shift)
            return
    smallest = float(_eigvalsh(m)[..., 0].min())
    if not smallest >= MIN_EIGENVALUE:
        raise ValueError(f"density matrix has eigenvalue {smallest:.3e} below {MIN_EIGENVALUE}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator(s) over n >= 1 modes."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        # a copy, so that the caller's array stays the caller's to change
        self._hold(np.array(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float))

    @classmethod
    def _owning(cls, m: np.ndarray) -> "DensityMatrix":
        """Validate and hold m, a float64 or complex128 array the package built, without a copy.

        m becomes read-only; no one else may hold it writeable.
        """
        rho = object.__new__(cls)
        rho._hold(m)
        return rho

    def _hold(self, m: np.ndarray) -> None:
        if m.ndim < 2 or m.shape[-2] != (dim := m.shape[-1]) or dim < 2 or dim & (dim - 1):
            raise ValueError(f"matrix has shape {m.shape}, want (..., 2^n, 2^n) with n >= 1")
        validate_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __getitem__(self, index) -> "DensityMatrix":
        """The states at index of the stack, already validated with it."""
        matrix = self.matrix[index]
        if matrix.shape[-2:] != self.matrix.shape[-2:]:
            raise IndexError("a DensityMatrix index selects whole states")
        view = object.__new__(DensityMatrix)
        object.__setattr__(view, "matrix", matrix)
        return view


def w_state(n: int) -> np.ndarray:
    """|W4>: equal superposition of the four single-excitation patterns.

    The observers are A, B, C and D, so w_state(4) is W4, amplitude 1/2 on
    indices 8, 4, 2 and 1, in a read-only float64 (16,) array.  Every
    measure is four-mode, so n must be 4.
    """
    if n != 4:
        raise ValueError(f"w_state supports only the four-mode W state, got n={n}")
    return W4


def _transposed(m: np.ndarray, n: int, part: Iterable[int]) -> np.ndarray:
    """Each (..., 2^n, 2^n) matrix of m with the row and column axes of part swapped."""
    shape = m.shape
    lead = len(shape) - 2
    axes = list(range(lead + 2 * n))
    for p in part:
        axes[lead + p], axes[lead + n + p] = lead + n + p, lead + p
    return m.reshape(shape[:-2] + (2,) * 2 * n).transpose(axes).reshape(shape)


def _trace_blocks(m: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """The diagonal blocks that tracing all modes but keep adds up.

    m is (..., 2^n, 2^n) and keep sorted; the result is (..., dt, dk, dk),
    with block t that of traced pattern t.
    """
    traced = [p for p in range(n) if p not in keep]
    dk, dt = 1 << len(keep), 1 << len(traced)
    lead = m.shape[:-2]
    order = [len(lead) + p for p in keep + traced]
    axes = list(range(len(lead))) + order + [n + a for a in order]
    blocks = m.reshape(lead + (2,) * 2 * n).transpose(axes).reshape(lead + (dk, dt, dk, dt))
    return np.moveaxis(blocks.diagonal(axis1=-3, axis2=-1), -1, -3)


def _add_blocks(blocks: np.ndarray) -> np.ndarray:
    """The sum over axis -3 of (..., t, d, d) blocks, added in index order, in their dtype."""
    out = np.zeros(blocks.shape[:-3] + blocks.shape[-2:], dtype=blocks.dtype)
    for t in range(blocks.shape[-3]):
        out += blocks[..., t, :, :]
    return out


def partial_transpose(rho: DensityMatrix, part: Iterable[int]) -> np.ndarray:
    """Transpose the indices of the given modes only; returns a bare matrix.

    Entry <i_part i_rest| M |j_part j_rest> = <j_part i_rest| rho |i_part j_rest>.
    Transposing all modes gives the ordinary transpose; applying the same
    partial transpose twice returns the original matrix.
    """
    part_sorted = sorted(set(part))
    if not part_sorted:
        raise ValueError("partial transpose needs a nonempty mode subset")
    n = rho.matrix.shape[-1].bit_length() - 1
    if part_sorted[0] < 0 or part_sorted[-1] >= n:
        raise ValueError(f"transpose positions {part_sorted} out of range for {n} modes")
    return _transposed(rho.matrix, n, part_sorted)
