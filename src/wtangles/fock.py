"""Occupation-number bookkeeping for a register of fermionic qubit modes.

A layout is an ordered register of modes, each tagged with an observer label
and a Rindler region (Minkowski for inertial observers, region I or II after
the mode has been split by acceleration).  Basis indexing is big-endian: the
first mode of the layout is the most significant bit of the index, so for the
four-mode layout A,B,C,D the pattern |0001> sits at index 1 and |1000> at 8.

State vectors and density matrices carry their layout, which lets partial
traces and partial transposes be requested by mode position.  Density
matrices validate Hermiticity, unit trace and positivity on construction;
violations raise instead of being clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .linalg import HERMITICITY_TOL, hermitian_eigenvalues

MAX_MODES = 12
NORM_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-10


class Region(Enum):
    """Which wedge a mode belongs to; region II is causally inaccessible."""

    MINKOWSKI = "M"
    RINDLER_I = "I"
    RINDLER_II = "II"


@dataclass(frozen=True)
class Mode:
    observer: str
    region: Region = Region.MINKOWSKI

    def label(self) -> str:
        """Human-readable tag such as A, D_I or D_II."""
        if self.region is Region.MINKOWSKI:
            return self.observer
        return f"{self.observer}_{self.region.value}"


@dataclass(frozen=True)
class ModeLayout:
    """Ordered register of modes; positions are 0-based from the left."""

    modes: tuple[Mode, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.modes) <= MAX_MODES:
            raise ValueError(f"layout needs 1..{MAX_MODES} modes, got {len(self.modes)}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate (observer, region) pair in layout")

    @classmethod
    def inertial(cls, *observers: str) -> "ModeLayout":
        """Layout with one Minkowski mode per observer, in the given order."""
        return cls(tuple(Mode(obs) for obs in observers))

    @property
    def n(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return 1 << len(self.modes)

    def labels(self) -> tuple[str, ...]:
        return tuple(m.label() for m in self.modes)

    def position(self, observer: str, region: Region | None = None) -> int:
        """Position of the unique mode matching observer (and region if given)."""
        hits = [i for i, m in enumerate(self.modes)
                if m.observer == observer and (region is None or m.region is region)]
        if not hits:
            raise ValueError(f"no mode for observer {observer!r} in layout")
        if len(hits) > 1:
            raise ValueError(f"observer {observer!r} is ambiguous here; pass a region")
        return hits[0]

    def positions(self, region: Region) -> tuple[int, ...]:
        """All positions whose mode lives in the given region."""
        return tuple(i for i, m in enumerate(self.modes) if m.region is region)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over the occupation basis of a layout."""

    layout: ModeLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, layout wants ({self.layout.dim},)")
        norm_sq = float(np.vdot(amp, amp).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state vector is not normalized: |psi|^2 = {norm_sq!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator over a layout."""

    layout: ModeLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        dim = self.layout.dim
        if m.shape != (dim, dim):
            raise ValueError(f"matrix has shape {m.shape}, layout wants ({dim}, {dim})")
        herm_dev = float(np.abs(m - m.conj().T).max())
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"density matrix deviates from Hermiticity by {herm_dev:.3e}")
        trace = float(m.trace().real)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {trace!r}, expected 1")
        smallest = float(hermitian_eigenvalues(m)[0])
        if smallest < MIN_EIGENVALUE:
            raise ValueError(f"density matrix has eigenvalue {smallest:.3e} below {MIN_EIGENVALUE}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def basis_index(occupations: Sequence[int], layout: ModeLayout) -> int:
    """Big-endian basis index of an occupation pattern (first mode = MSB)."""
    if len(occupations) != layout.n:
        raise ValueError(
            f"occupation list has length {len(occupations)}, layout has {layout.n} modes")
    index = 0
    for bit in occupations:
        if bit not in (0, 1):
            raise ValueError(f"occupations must be 0 or 1, got {bit!r}")
        index = (index << 1) | bit
    return index


def w_state(n: int) -> StateVector:
    """|W_n>: equal superposition of the n single-excitation patterns.

    Observers are labelled with the first n uppercase letters, so w_state(4)
    puts amplitude 1/2 on indices 8, 4, 2 and 1 of the A,B,C,D register.
    """
    if n < 2:
        raise ValueError(f"w_state needs at least 2 modes, got {n}")
    if n > MAX_MODES:
        raise ValueError(f"w_state supports at most {MAX_MODES} modes, got {n}")
    labels = "ABCDEFGHIJKL"[:n]
    amplitudes = np.zeros(1 << n, dtype=complex)
    for k in range(n):
        amplitudes[1 << (n - 1 - k)] = 1.0 / np.sqrt(n)
    return StateVector(ModeLayout.inertial(*labels), amplitudes)


def pure_to_density(psi: StateVector) -> DensityMatrix:
    """Rank-1 projector |psi><psi| as a DensityMatrix."""
    amp = psi.amplitudes
    norm_sq = float(np.vdot(amp, amp).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state vector is not normalized: |psi|^2 = {norm_sq!r}")
    return DensityMatrix(psi.layout, np.outer(amp, amp.conj()))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every mode not in keep; kept modes stay in original order.

    Implemented by direct index summation: for each occupation pattern of the
    traced modes, the matching rows and columns of the full matrix are
    gathered and accumulated.
    """
    keep_sorted = sorted(set(keep))
    if not keep_sorted:
        raise ValueError("keep set must not be empty")
    n = rho.layout.n
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"keep positions {keep_sorted} out of range for a {n}-mode layout")
    traced = [p for p in range(n) if p not in keep_sorted]
    k = len(keep_sorted)
    sub = np.arange(1 << k)
    kept_bits = np.zeros(1 << k, dtype=np.intp)
    for j, p in enumerate(keep_sorted):
        kept_bits |= ((sub >> (k - 1 - j)) & 1) << (n - 1 - p)
    out = np.zeros((1 << k, 1 << k), dtype=complex)
    for pattern in range(1 << len(traced)):
        traced_bits = 0
        for j, p in enumerate(traced):
            traced_bits |= ((pattern >> (len(traced) - 1 - j)) & 1) << (n - 1 - p)
        rows = kept_bits + traced_bits
        out += rho.matrix[np.ix_(rows, rows)]
    sub_layout = ModeLayout(tuple(rho.layout.modes[p] for p in keep_sorted))
    return DensityMatrix(sub_layout, out)


def partial_transpose(rho: DensityMatrix, part: Iterable[int]) -> np.ndarray:
    """Transpose the indices of the given modes only; returns a bare matrix.

    Entry <i_part i_rest| M |j_part j_rest> = <j_part i_rest| rho |i_part j_rest>.
    Transposing all modes gives the ordinary transpose; applying the same
    partial transpose twice returns the original matrix.
    """
    part_sorted = sorted(set(part))
    if not part_sorted:
        raise ValueError("partial transpose needs a nonempty mode subset")
    n = rho.layout.n
    if part_sorted[0] < 0 or part_sorted[-1] >= n:
        raise ValueError(f"transpose positions {part_sorted} out of range for a {n}-mode layout")
    mask = 0
    for p in part_sorted:
        mask |= 1 << (n - 1 - p)
    dim = rho.layout.dim
    rows = np.arange(dim)[:, None]
    cols = np.arange(dim)[None, :]
    src_rows = (rows & ~mask) | (cols & mask)
    src_cols = (cols & ~mask) | (rows & mask)
    return rho.matrix[src_rows, src_cols]
