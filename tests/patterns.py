"""Reference matrices and frozen values shared by the test modules.

The pattern builders reconstruct the observed density matrices entry by
entry from the trig shorthands alpha = sin r_c, beta = sin r_d,
gamma = cos r_c, delta = cos r_d, with a global prefactor 1/4.  They share
no code with the pipeline: entries are placed by hand-enumerated index
pairs, so a bookkeeping bug in the transformation or the trace-out cannot
cancel against the same bug here.

The frozen constants were computed once through an independent brute-force
route and are written out as decimal literals.
"""

import numpy as np

# one accelerated observer (D), layout A,B,C,D_I
N_ONE_THREE_INERTIAL = 0.8660254037844386      # sqrt(3)/2
TRACE_NORM_INERTIAL_PT = 1.8660254037844386    # 1 + sqrt(3)/2
PT_SPECTRUM_INERTIAL = (-0.4330127018922193, 0.25, 0.4330127018922193, 0.75)
N_PAIR_CONST = 0.20710678118654757             # (sqrt(2) - 1)/2
N_ONE_TWO_INERTIAL = 0.5
N_ACCEL_LIMIT = 0.3430703308172536             # (sqrt(33) - 3)/8
N_ACCEL_AT_03 = 0.7644351864326866
RESIDUAL_INERTIAL = 0.6213203435596427         # (3/2)(sqrt(2) - 1)
THRESHOLD_R = 0.4724731279337255               # arccos(2 - sqrt(2))/2
THRESHOLD_PRINTED = 0.472473
ENTROPY_LIMIT_ONE = 0.6615632381579821         # -(3/8)ln(3/8) - (5/8)ln(5/8)
ENTROPY_LIMIT_TWO = 1.2554823251787535         # (1/4)ln 8 + (3/4)ln(8/3)
ENTROPY_AT_03 = 0.2418378551709358
ONE_ACCEL_LIMIT_EIGS = (0.375, 0.625)
TWO_ACCEL_LIMIT_EIGS = (0.125, 0.125, 0.375, 0.375)
# the one message for initial amplitudes other than those of |W4>
W4_ONLY = "observed states start from |W4>: psi0 must equal w_state(4)"


def _mirror(entries, dim=16):
    m = np.zeros((dim, dim))
    for (i, j), value in entries.items():
        m[i, j] = value
        m[j, i] = value
    return m / 4.0


def one_accelerated(r_d):
    """16x16 observed matrix for scenario {D: r_d} on the A,B,C,D_I register."""
    b2 = np.sin(r_d) ** 2
    d = np.cos(r_d)
    d2 = d * d
    return _mirror({
        (1, 1): 1.0, (1, 2): d, (1, 4): d, (1, 8): d,
        (2, 2): d2, (2, 4): d2, (2, 8): d2,
        (3, 3): b2, (3, 5): b2, (3, 9): b2,
        (4, 4): d2, (4, 8): d2,
        (5, 5): b2, (5, 9): b2,
        (8, 8): d2, (9, 9): b2,
    })


def one_accelerated_pt_inertial(r_d):
    """Partial transpose of one_accelerated over the first (inertial) mode."""
    b2 = np.sin(r_d) ** 2
    d = np.cos(r_d)
    d2 = d * d
    return _mirror({
        (1, 1): 1.0, (1, 2): d, (1, 4): d, (0, 9): d,
        (2, 2): d2, (2, 4): d2, (0, 10): d2,
        (3, 3): b2, (3, 5): b2, (1, 11): b2,
        (4, 4): d2, (0, 12): d2,
        (5, 5): b2, (1, 13): b2,
        (8, 8): d2, (9, 9): b2,
    })


def one_accelerated_pt_accelerated(r_d):
    """Partial transpose of one_accelerated over the D_I mode."""
    b2 = np.sin(r_d) ** 2
    d = np.cos(r_d)
    d2 = d * d
    return _mirror({
        (1, 1): 1.0, (0, 3): d, (0, 5): d, (0, 9): d,
        (2, 2): d2, (2, 4): d2, (2, 8): d2,
        (3, 3): b2, (3, 5): b2, (3, 9): b2,
        (4, 4): d2, (4, 8): d2,
        (5, 5): b2, (5, 9): b2,
        (8, 8): d2, (9, 9): b2,
    })


def two_accelerated(r_c, r_d):
    """16x16 observed matrix for scenario {C: r_c, D: r_d}, register A,B,C_I,D_I."""
    a2 = np.sin(r_c) ** 2
    b2 = np.sin(r_d) ** 2
    g = np.cos(r_c)
    d = np.cos(r_d)
    g2, d2 = g * g, d * d
    return _mirror({
        (1, 1): g2, (1, 2): g * d, (1, 4): g2 * d, (1, 8): g2 * d,
        (2, 2): d2, (2, 4): g * d2, (2, 8): g * d2,
        (3, 3): a2 + b2, (3, 5): b2 * g, (3, 6): a2 * d, (3, 9): b2 * g, (3, 10): a2 * d,
        (4, 4): g2 * d2, (4, 8): g2 * d2,
        (5, 5): b2 * g2, (5, 9): b2 * g2,
        (6, 6): a2 * d2, (6, 10): a2 * d2,
        (7, 7): a2 * b2, (7, 11): a2 * b2,
        (8, 8): g2 * d2, (9, 9): b2 * g2, (10, 10): a2 * d2, (11, 11): a2 * b2,
    })


# reduced pair of two inertial observers, already partially transposed;
# the same 4x4 holds for every acceleration of the other two modes
PAIR_INERTIAL_PT = np.array([
    [2.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
]) / 4.0


def pair_mixed_pt(r_d):
    """Inertial-accelerated pair, transposed over the inertial side."""
    b2 = np.sin(r_d) ** 2
    d = np.cos(r_d)
    d2 = d * d
    return np.array([
        [2.0 * d2, 0.0, 0.0, d],
        [0.0, 2.0 * b2 + 1.0, 0.0, 0.0],
        [0.0, 0.0, d2, 0.0],
        [d, 0.0, 0.0, b2],
    ]) / 4.0
