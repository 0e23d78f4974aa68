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

A DensityMatrix holds one state or a (..., 2^n, 2^n) stack of states, with
n >= 1, and validates Hermiticity, unit trace and positivity on construction
(validate_density); violations raise instead of being clipped.  The spectra
this computes are kept as rho.spectra, ascending.  Indexing selects states
and their spectra without checking them again: rho[p] is state p of a stack
and rho[None] a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .linalg import NotHermitianError, hermitian_eigenvalues

NORM_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-10
OBSERVERS = ("A", "B", "C", "D")


def _is_register(dim: int) -> bool:
    """Whether dim is 2^n for some n >= 1."""
    return dim >= 2 and dim & (dim - 1) == 0


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over the occupation basis of n >= 1 modes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or not _is_register(len(amp)):
            raise ValueError(f"amplitude vector has shape {amp.shape}, want (2^n,) with n >= 1")
        norm_sq = float(np.vdot(amp, amp).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector is not normalized: |psi|^2 = {norm_sq!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


def validate_density(m: np.ndarray) -> np.ndarray:
    """The spectra of a (..., dim, dim) stack of density matrices, ascending.

    Each matrix must be Hermitian, of unit trace and positive semidefinite
    within the module tolerances; a failed check raises, naming the worst
    value in the stack.
    """
    try:
        spectra = hermitian_eigenvalues(m)
    except NotHermitianError as exc:
        # the same test and tolerance, reported as a defect of the density matrix
        raise ValueError(f"density {exc}") from None
    traces = m.trace(axis1=-2, axis2=-1).real
    deviations = np.abs(traces - 1.0)
    if not deviations.max() <= TRACE_TOL:
        worst = float(np.ravel(traces)[np.ravel(deviations).argmax()])
        raise ValueError(f"density matrix trace is {worst!r}, expected 1")
    smallest = float(spectra[..., 0].min())
    if not smallest >= MIN_EIGENVALUE:
        raise ValueError(f"density matrix has eigenvalue {smallest:.3e} below {MIN_EIGENVALUE}")
    return spectra


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator(s) over n >= 1 modes."""

    matrix: np.ndarray
    # the eigenvalues of each state, ascending, as validation computed them
    spectra: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1] or not _is_register(m.shape[-1]):
            raise ValueError(f"matrix has shape {m.shape}, want (..., 2^n, 2^n) with n >= 1")
        spectra = validate_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectra", spectra)

    def __getitem__(self, index) -> "DensityMatrix":
        """The states at index of the stack, already validated with it."""
        matrix = self.matrix[index]
        if matrix.shape[-2:] != self.matrix.shape[-2:]:
            raise IndexError("a DensityMatrix index selects whole states")
        view = object.__new__(DensityMatrix)
        object.__setattr__(view, "matrix", matrix)
        object.__setattr__(view, "spectra", self.spectra[index])
        return view


def w_state(n: int) -> StateVector:
    """|W4>: equal superposition of the four single-excitation patterns.

    The observers are A, B, C and D, so w_state(4) puts amplitude 1/2 on
    indices 8, 4, 2 and 1.  Every measure is four-mode, so n must be 4.
    """
    if n != 4:
        raise ValueError(f"w_state supports only the four-mode W state, got n={n}")
    amplitudes = np.zeros(16, dtype=complex)
    amplitudes[[8, 4, 2, 1]] = 0.5
    return StateVector(amplitudes)


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
    """The sum over axis -3 of (..., t, d, d) blocks, added in index order."""
    out = np.zeros(blocks.shape[:-3] + blocks.shape[-2:], dtype=complex)
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
