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
read-only copy of a caller's array, cast to float64 or complex128 only once
it passes validate_density's dtype rule (_numbers): a bool, str or object
array is one ConfigError, as there, and is never read as numbers.  _state
is the one rule for what is a state: partial_transpose and measures'
evaluate and von_neumann_entropy take rho's matrix through it, and anything
without an array as its matrix, a bare array or None, is one ConfigError
before any work.  A stack that rindler has built and checked, chunk by
chunk, in its compact layout (Layout, _validate_compact), and the states
that index a held stack, rho[p] or rho[None], are held by _owning: as they
are, read-only, with no copy and no second check.

A real matrix is stored as float64 and a complex one as complex128.
validate_density runs on either dtype, and a real stack and its complex128
cast get the same verdict and message: the trace sums the real parts, and a
spectrum is always that of the complex128 cast.

Hermiticity is checked where a state is made: on rho when rindler builds
it, in its compact Layout (_validate_compact, with validate_density's
verdicts and messages), and by validate_density on a caller's
DensityMatrix and on the reduced pair states measures gathers.  A partial
transpose moves each entry together with its adjoint partner, so it
deviates from Hermiticity exactly as much as its state, and is not checked
again.  ConfigError, the one error for an input of a wrong kind or a bad
name, r or sweep, is defined here, in the lowest module that raises it.
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


class ConfigError(ValueError):
    """Raised for an input of the wrong kind, or a bad name list, observer list, r or sweep."""


def _numbers(m) -> np.ndarray:
    """m as an array of an integer, float or complex dtype, else a ConfigError."""
    if (m := np.asarray(m)).dtype.kind not in "iufc":
        raise ConfigError(f"density matrix has dtype {m.dtype}, want real or complex numbers")
    return m


def _state(rho) -> np.ndarray:
    """rho's matrix, if rho is a DensityMatrix or holds an array as its matrix.

    Anything else, such as a bare array or None, is a ConfigError.  The
    attribute is read, not the class, so an object holding spectra passes.
    """
    if not isinstance(matrix := getattr(rho, "matrix", None), np.ndarray):
        raise ConfigError(f"rho: expected a DensityMatrix, got {type(rho).__name__}")
    return matrix


def validate_density(m: np.ndarray) -> None:
    """Check a nonempty (..., dim, dim) stack of density matrices.

    Each matrix must be Hermitian, of unit trace and positive semidefinite
    within the module tolerances; a failed check raises, naming the worst
    value in the stack.  m may be any array-like, real or complex, and is
    checked in its own dtype; a ragged one raises numpy's ValueError, and
    one of any other dtype (bool, str, object) a ConfigError.

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
    m = _numbers(m)
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


class Layout:
    """The compact layout of (dim, dim) matrices whose support is the symmetric flat entries.

    A stack in this layout is an (n, E + 1) array: each matrix's E support
    entries in flat order, then one +0.0 column.  Everything here is read
    from the entries alone: column maps each flat position to its compact
    column, the zero column E off the support, mirror each entry to its
    transposed one's, and diagonal holds the diagonal's columns.  The
    structural blocks are the connected components of the support's index
    graph: blocks holds the columns of the multi-entry ones, each padded to
    the largest with the zero column, shifts _CHOLESKY_SHIFT on their
    diagonals and 1.0 on the padding's.
    """

    def __init__(self, entries: Iterable[int], dim: int) -> None:
        entries = np.array(sorted(entries), dtype=np.intp)
        self.zero = zero = len(entries)
        self.column = column = np.full(dim * dim, zero)
        column[entries] = np.arange(zero)
        rows, columns = np.divmod(entries, dim)
        self.mirror, self.diagonal = column[columns * dim + rows], column[::dim + 1]
        # each index's block, named by its smallest index: an entry joins its row's and column's
        label = list(range(dim))
        for i, j in zip(rows.tolist(), columns.tolist()):
            joined = (label[i], label[j])
            label = [min(joined) if x in joined else x for x in label]
        groups = [[i for i in range(dim) if label[i] == b] for b in sorted(set(label))]
        multi = [np.array(group) for group in groups if len(group) > 1]
        size = max(map(len, multi), default=0)
        self.blocks = np.full((len(multi), size, size), zero)
        for b, group in enumerate(multi):
            self.blocks[b, :len(group), :len(group)] = column[np.add.outer(group * dim, group)]
        # a block's own diagonal is on the support, its padding's is the zero column
        self.shifts = np.where(self.blocks == zero, 1.0, _CHOLESKY_SHIFT) * np.eye(size)

    def zeros(self, n: int) -> np.ndarray:
        """An (n, E + 1) stack of +0.0 in this layout."""
        return np.zeros((n, self.zero + 1))

    def dense(self, values: np.ndarray) -> np.ndarray:
        """The (n, dim, dim) stack that the (n, E + 1) values hold, off-support entries +0.0."""
        dim = math.isqrt(len(self.column))
        return np.take(values, self.column, axis=1).reshape(len(values), dim, dim)


def _validate_compact(values: np.ndarray, layout: Layout) -> None:
    """validate_density of the real stack that values hold in layout, without building it.

    Each entry equals its mirror and np.vdot is finite, so the stack is
    exactly Hermitian; the trace sums the diagonal as m.real.trace does, to
    the same bits; every diagonal entry d has d + _CHOLESKY_SHIFT > 0, the
    pivot of a 1x1 block in the whole matrix's factorization (one off the
    support is +0.0, and one at or below -_CHOLESKY_SHIFT fails a larger
    block's factorization too), tested on the smallest, as rounding is
    monotonic; and the shifted multi-entry blocks factor, in one
    np.linalg.cholesky call.  values is one chunk of at most rindler.CHUNK
    matrices, so its padded blocks stay a few _BLOCK_BYTES.  If any test
    fails, validate_density runs on the dense view and gives the verdict.
    """
    diagonal = values[:, layout.diagonal]
    # each test runs once those before it pass, so none meets an inf or a NaN;
    # np.add.reduce and np.minimum.reduce are ndarray.sum and min without
    # their Python wrappers
    if (math.isfinite(np.vdot(values, values))
            and not (values[:, :-1] != values[:, layout.mirror]).any()
            and np.abs(np.add.reduce(diagonal, axis=1) - 1.0).max() <= TRACE_TOL
            and np.minimum.reduce(diagonal, axis=None) + _CHOLESKY_SHIFT > 0.0):
        with contextlib.suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(np.take(values, layout.blocks, axis=1) + layout.shifts)
            return
    validate_density(layout.dense(values))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator(s) over n >= 1 modes."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        # a copy, so that the caller's array stays the caller's to change
        m = _numbers(self.matrix)
        self._hold(np.array(m, dtype=complex if m.dtype.kind == "c" else float))
        validate_density(self.matrix)

    @classmethod
    def _owning(cls, m: np.ndarray) -> "DensityMatrix":
        """Hold m, a float64 or complex128 stack already checked, without a copy.

        m is rindler's stack, checked in its compact layout, or states that
        index a held stack, and is not validated again.  It becomes
        read-only; no one else may hold it writeable.
        """
        rho = object.__new__(cls)
        rho._hold(m)
        return rho

    def _hold(self, m: np.ndarray) -> None:
        if m.ndim < 2 or m.shape[-2] != (dim := m.shape[-1]) or dim < 2 or dim & (dim - 1):
            raise ValueError(f"matrix has shape {m.shape}, want (..., 2^n, 2^n) with n >= 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __getitem__(self, index) -> "DensityMatrix":
        """The states at index of the stack, already validated with it."""
        matrix = self.matrix[index]
        if matrix.shape[-2:] != self.matrix.shape[-2:]:
            raise IndexError("a DensityMatrix index selects whole states")
        return self._owning(matrix)


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
    partial transpose twice returns the original matrix.  rho is a state
    (_state) and part an iterable of positions, each a Python or numpy
    integer and not a bool; anything else is one ConfigError, raised before
    any work.
    """
    n = _state(rho).shape[-1].bit_length() - 1
    if isinstance(part, (str, bytes)) or not np.iterable(part):
        raise ConfigError(f"part: want an iterable of mode positions, got {type(part).__name__}")
    part = list(part)
    if bad := [p for p in part if isinstance(p, bool) or not isinstance(p, (int, np.integer))]:
        raise ConfigError(f"part: want mode positions as ints, got {type(bad[0]).__name__}")
    part_sorted = sorted(set(part))
    if not part_sorted:
        raise ValueError("partial transpose needs a nonempty mode subset")
    if part_sorted[0] < 0 or part_sorted[-1] >= n:
        raise ValueError(f"transpose positions {part_sorted} out of range for {n} modes")
    return _transposed(rho.matrix, n, part_sorted)
