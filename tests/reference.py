"""Brute-force references: the trace-out, the partial transpose, the Rindler
split, the dense observed states, a pure projector, the n-mode W state, the
pair negativities, the density-matrix checks by spectrum and the matrix
printout.

Each is written entry by entry from its definition over occupation patterns
and imports nothing from wtangles, so a bookkeeping bug in the pipeline's
axis permutations cannot cancel against the same bug here.  The exception is
trace_out_complex, the stacked region-II trace-out in complex arithmetic,
against which the pipeline's float64 build is held byte for byte.  Basis indexing
is big-endian, as in the pipeline: the first mode is the most significant
bit.  Traced patterns are summed in index order and the split multiplies each
amplitude once, so on real amplitudes, such as those of the split |W4>, these
give the pipeline's values bit for bit.  On complex amplitudes numpy's scalar
and vector complex products can differ in the last bit.
"""

import math
from itertools import combinations, product

import numpy as np


def _index(bits):
    # big-endian: the first mode is the most significant bit
    return int("".join(map(str, bits)), 2)


def _merge(n, chosen, chosen_bits, rest_bits):
    """Occupation pattern with chosen_bits on the chosen positions, rest_bits elsewhere."""
    chosen_it, rest_it = iter(chosen_bits), iter(rest_bits)
    return [next(chosen_it) if p in chosen else next(rest_it) for p in range(n)]


def partial_trace(m, n, keep):
    """Trace every mode of an n-mode matrix but the sorted positions keep."""
    k = len(keep)
    out = np.zeros((1 << k, 1 << k), dtype=complex)
    for t in product((0, 1), repeat=n - k):
        for a in product((0, 1), repeat=k):
            for b in product((0, 1), repeat=k):
                out[_index(a), _index(b)] += m[_index(_merge(n, keep, a, t)),
                                               _index(_merge(n, keep, b, t))]
    return out


def partial_transpose(m, n, part):
    """Transpose the row and column bits of the modes in part only."""
    out = np.zeros_like(m)
    for a in product((0, 1), repeat=n):
        for b in product((0, 1), repeat=n):
            # <a_part a_rest| M |b_part b_rest> = <b_part a_rest| rho |a_part b_rest>
            row = [b[p] if p in part else a[p] for p in range(n)]
            col = [a[p] if p in part else b[p] for p in range(n)]
            out[_index(a), _index(b)] = m[_index(row), _index(col)]
    return out


def projector(amp):
    """|psi><psi| of an amplitude vector: entry (i, j) is amp[i] conj(amp[j])."""
    dim = len(amp)
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = amp[i] * np.conj(amp[j])
    return out


def pair_negativities(m):
    """Both sides of N_XY for each pair of modes of a (16, 16) state, in column order.

    Each pair state is traced entry by entry, both of its partial transposes
    are written entry by entry and diagonalized one matrix at a time, and
    each negativity adds |min(w, 0)| over the ascending spectrum left to
    right.  Returns one (side 0, side 1) tuple per pair (i, j), i < j.
    """
    out = []
    for keep in combinations(range(4), 2):
        pair = partial_trace(m, 4, keep)
        sides = []
        for part in ([0], [1]):
            total = 0.0
            for w in np.linalg.eigvalsh(partial_transpose(pair, 2, part)).tolist():
                total += abs(min(w, 0.0))
            sides.append(2.0 * total)
        out.append(tuple(sides))
    return out


def density_rejection(m):
    """The message that rejects a stack of density matrices, or None if it passes.

    The checks and messages of the pipeline's density validation, in its
    order (Hermiticity within 1e-12, trace within 1e-10, then no eigenvalue
    below -1e-10), with positivity read from numpy's eigvalsh alone.  Real and
    complex stacks are judged alike: the trace sums the real parts, and the
    spectrum is that of the complex128 cast, as every eigensolve's is.
    """
    m = np.asarray(m)
    deviation = float(np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max())
    if not deviation <= 1e-12:
        return f"density matrix deviates from Hermiticity by {deviation:.3e}"
    traces = np.trace(m.real, axis1=-2, axis2=-1).ravel()
    worst = float(traces[np.abs(traces - 1.0).argmax()])
    if not abs(worst - 1.0) <= 1e-10:
        return f"density matrix trace is {worst!r}, expected 1"
    smallest = float(np.linalg.eigvalsh(m.astype(complex))[..., 0].min())
    if not smallest >= -1e-10:
        return f"density matrix has eigenvalue {smallest:.3e} below -1e-10"
    return None


def rindler_split(amp, n, pos, r):
    """Split mode pos of an n-mode amplitude vector, appending its region-II mode last.

    Pattern by pattern, mode pos maps |0> -> cos r |0_I 0_II> + sin r |1_I 1_II>
    and |1> -> |1_I 0_II>; every other mode keeps its bit.
    """
    out = np.zeros(2 * len(amp), dtype=complex)
    for bits in product((0, 1), repeat=n):
        value = amp[_index(bits)]
        if bits[pos]:
            out[_index(bits + (0,))] = value
        else:
            occupied = bits[:pos] + (1,) + bits[pos + 1:]
            out[_index(bits + (0,))] = math.cos(r) * value
            out[_index(occupied + (1,))] = math.sin(r) * value
    return out


def trace_out_complex(amp):
    """The region-I states of an (N, 16 * 2^k) stack of split amplitudes, in complex128.

    Region II is the last k modes.  rho is the sum, over the region-II
    patterns in index order, of each amplitude column times the conjugate of
    each column, every product and sum taken in complex arithmetic.
    """
    v = np.asarray(amp, dtype=complex).reshape(len(amp), 16, -1)
    rho = np.zeros((len(amp), 16, 16), dtype=complex)
    for t in range(v.shape[2]):
        rho += v[:, :, t, None] * v[:, None, :, t].conj()
    return rho


def observed_dense(psi0, observers, r):
    """The observed states of real amplitudes psi0 at each row of r, in float64.

    The dense route, one point at a time: the modes of observers (r[p][j] is
    the parameter of observers[j]) are split in register order with
    rindler_split, whose real part is the float64 product for real input,
    and rho is the sum of the outer products of the amplitudes' (16, 2^k)
    columns, added in region-II index order into zeros.
    """
    splits = sorted(("ABCD".index(obs), j) for j, obs in enumerate(observers))
    out = np.zeros((len(r), 16, 16))
    for p, row in enumerate(r):
        amp = np.asarray(psi0, dtype=float)
        for n, (pos, j) in enumerate(splits, start=4):
            amp = rindler_split(amp, n, pos, row[j]).real
        v = amp.reshape(16, -1)
        for t in range(v.shape[1]):
            out[p] += np.outer(v[:, t], v[:, t])
    return out


def w_amplitudes(n):
    """|W_n>: amplitude 1/sqrt(n) on each pattern with exactly one occupied mode."""
    out = np.zeros(1 << n, dtype=complex)
    for bits in product((0, 1), repeat=n):
        if sum(bits) == 1:
            out[_index(bits)] = 1 / math.sqrt(n)
    return out


def render_matrix(matrix, accelerated, transpose):
    """The `matrix` printout's grid, formatted value by value.

    accelerated holds the accelerated observers among A, B, C, D, and
    transpose the observer of the partial transpose, or None.
    """
    labels = (f"{obs}_I" if obs in accelerated else obs for obs in "ABCD")
    lines = [f"layout: {', '.join(labels)}"]
    if transpose is not None:
        lines.append(f"partial transpose over: {transpose}")
    for row in matrix:
        lines.append(" ".join(f"{value.real: .5f}" for value in row))
    return "\n".join(lines)
