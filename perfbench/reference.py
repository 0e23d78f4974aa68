"""Independent reference route for the W-state measures, numpy only.

Nothing here imports wtangles.  Every quantity is built by brute force over
a batch of points: the |W4> amplitudes as a (2, 2, 2, 2) tensor, the 2 -> 4
Rindler isometry applied to each accelerated mode, region II traced out with
einsum, partial transposes by swapping tensor axes, then eigvalsh.

Mode order is A, B, C, D with A the most significant bit, matching the
program's layout; the observed state of an accelerated observer is its
region-I mode in the original position.
"""

from __future__ import annotations

import math

import numpy as np

OBSERVERS = ("A", "B", "C", "D")
PAIRS = (("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D"))
R_MAX = math.pi / 4
R_STAR = 0.5 * math.acos(2.0 - math.sqrt(2.0))
N_AB_CONST = (math.sqrt(2.0) - 1.0) / 2.0
N_REST_INERTIAL = math.sqrt(3.0) / 2.0
S_BOTH_INFINITE = 0.25 * math.log(8.0) + 0.75 * math.log(8.0 / 3.0)
COLUMNS = (tuple(f"N_{o}_rest" for o in OBSERVERS)
           + tuple(f"N_{a}{b}" for a, b in PAIRS)
           + tuple(f"pi_{o}" for o in OBSERVERS)
           + ("pi4", "Pi4", "S"))


def _w4() -> np.ndarray:
    psi = np.zeros((2, 2, 2, 2))
    for k in range(4):
        index = [0, 0, 0, 0]
        index[k] = 1
        psi[tuple(index)] = 0.5
    return psi


def observed_rho(r_c: np.ndarray, r_d: np.ndarray) -> np.ndarray:
    """Observed A,B,C,D density tensors, shape (n, 2,2,2,2, 2,2,2,2).

    r_c and r_d are arrays of Rindler parameters; 0 means inertial, which the
    isometry reduces to the identity on the observed mode.
    """
    r_c = np.atleast_1d(np.asarray(r_c, dtype=float))
    r_d = np.atleast_1d(np.asarray(r_d, dtype=float))
    n = r_c.shape[0]

    def isometry(r: np.ndarray) -> np.ndarray:
        # u[n, region I, region II, Minkowski]
        u = np.zeros((r.shape[0], 2, 2, 2))
        u[:, 0, 0, 0] = np.cos(r)
        u[:, 1, 1, 0] = np.sin(r)
        u[:, 1, 0, 1] = 1.0
        return u

    psi = np.broadcast_to(_w4(), (n, 2, 2, 2, 2))
    # psi[n, a, b, cI, dI, cII, dII]
    psi = np.einsum("nabcd,nxyc,nuvd->nabxuyv", psi, isometry(r_c), isometry(r_d))
    return np.einsum("nabcdyv,nefghyv->nabcdefgh", psi, psi.conj())


def _matrix(tensor: np.ndarray, k: int) -> np.ndarray:
    return tensor.reshape(tensor.shape[0], 1 << k, 1 << k)


def _negativity(tensor: np.ndarray, modes: int, part: int) -> np.ndarray:
    """2 * sum |negative eigenvalues| of the transpose over one mode."""
    axes = list(range(1 + 2 * modes))
    axes[1 + part], axes[1 + modes + part] = axes[1 + modes + part], axes[1 + part]
    w = np.linalg.eigvalsh(_matrix(tensor.transpose(axes), modes))
    return 2.0 * np.abs(np.where(w < 0.0, w, 0.0)).sum(axis=1)


def _pair_state(rho: np.ndarray, i: int, j: int) -> np.ndarray:
    row = "abcd"
    col = "efgh"
    keep_row = row[i] + row[j]
    keep_col = col[i] + col[j]
    col_traced = "".join(col[k] if k in (i, j) else row[k] for k in range(4))
    return np.einsum(f"n{row}{col_traced}->n{keep_row}{keep_col}", rho)


def measures(r_c, r_d) -> dict[str, np.ndarray]:
    """Every sweep column at each (r_c, r_d), keyed by column name."""
    rho = observed_rho(r_c, r_d)
    out: dict[str, np.ndarray] = {}
    for k, obs in enumerate(OBSERVERS):
        out[f"N_{obs}_rest"] = _negativity(rho, 4, k)
    for a, b in PAIRS:
        out[f"N_{a}{b}"] = _negativity(_pair_state(rho, OBSERVERS.index(a), OBSERVERS.index(b)), 2, 0)
    for obs in OBSERVERS:
        pairs = sum(out["N_" + "".join(sorted(obs + other))] ** 2
                    for other in OBSERVERS if other != obs)
        out[f"pi_{obs}"] = out[f"N_{obs}_rest"] ** 2 - pairs
    pis = np.stack([out[f"pi_{obs}"] for obs in OBSERVERS])
    out["pi4"] = pis.mean(axis=0)
    out["Pi4"] = np.prod(np.maximum(pis, 0.0), axis=0) ** 0.25
    w = np.linalg.eigvalsh(_matrix(rho, 4))
    safe = np.where(w > 0.0, w, 1.0)
    out["S"] = -(np.where(w > 0.0, w * np.log(safe), 0.0)).sum(axis=1)
    return out


def density_matrix(r_c: float, r_d: float) -> np.ndarray:
    """Observed 16x16 density matrix at one point."""
    return _matrix(observed_rho([r_c], [r_d]), 4)[0]


def accelerated_pair_min_eigenvalue(r: float) -> float:
    """Smallest eigenvalue of the C-transposed C,D state on the diagonal."""
    pair = _pair_state(observed_rho([r], [r]), 2, 3)
    axes = [0, 3, 2, 1, 4]
    return float(np.linalg.eigvalsh(_matrix(pair.transpose(axes), 2))[0, 0])


def vanishing_threshold(lo: float = 0.4, hi: float = 0.55, xtol: float = 1e-13) -> float:
    """Diagonal r where the accelerated pair stops being entangled, by bisection."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if accelerated_pair_min_eigenvalue(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
