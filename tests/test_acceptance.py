"""End-to-end checks of the headline numbers, one summary line per criterion.

Each test computes everything first, records a [PASS]/[FAIL] line with the
worst deviation and its tolerance, then asserts.  The lines are printed
after the run by the terminal-summary hook in conftest.
"""

import math
import time

import numpy as np

from wtangles.checks import run_check
from wtangles.fock import _add_blocks, _trace_blocks, partial_transpose, w_state
from wtangles.fock import DensityMatrix
from wtangles.linalg import hermitian_eigenvalues, negative_eigenvalue_sum
from wtangles.measures import evaluate, tangle_report, von_neumann_entropy
from wtangles.oracles import vanishing_threshold
from wtangles.rindler import observed_density

from . import patterns, reference

R_MAX = math.pi / 4
CRITERION_LINES: list[str] = []

CURVE_CHECKS = ("n_d1_abc", "n_ab_const", "n_i_d1", "n_pair_accel_one", "n_pair_accel_both")


def _record(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    CRITERION_LINES.append(f"[{status}] criterion {number:02d} {name}: {detail}")
    assert passed, f"criterion {number:02d} {name}: {detail}"


def test_criterion_01_matrix_reconstruction():
    start = time.perf_counter()
    dev = 0.0
    for r_d in (0.0, 0.3, 0.6, R_MAX):
        rho = observed_density(w_state(4), {"D": r_d})
        dev = max(dev, float(np.abs(rho.matrix - patterns.one_accelerated(r_d)).max()))
    for r_c in np.linspace(0.0, R_MAX, 4):
        for r_d in np.linspace(0.0, R_MAX, 4):
            rho = observed_density(w_state(4), {"C": float(r_c), "D": float(r_d)})
            dev = max(dev, float(np.abs(rho.matrix - patterns.two_accelerated(r_c, r_d)).max()))
    elapsed = time.perf_counter() - start
    passed = dev <= 1e-12 and elapsed < 1.0
    _record(1, "matrix reconstruction", passed,
            f"entrywise max dev {dev:.2e} (tol 1e-12), {elapsed:.2f} s (limit 1 s)")


def test_criterion_02_closed_form_agreement():
    start = time.perf_counter()
    results = run_check(CURVE_CHECKS)
    elapsed = time.perf_counter() - start
    worst = max(result.max_dev for result in results)
    passed = all(result.passed for result in results) and elapsed < 30.0
    _record(2, "closed-form negativity agreement", passed,
            f"5 curves on 101 / 21x21 grids, worst dev {worst:.2e} (tol 1e-10), "
            f"{elapsed:.1f} s (limit 30 s)")


def test_criterion_03_constant_inertial_pair():
    expected = patterns.N_PAIR_CONST
    dev = 0.0
    for r in np.linspace(0.0, R_MAX, 26):
        rho = observed_density(w_state(4), {"D": float(r)})
        dev = max(dev, abs(evaluate(rho, ["N_AB"])["N_AB"] - expected))
    for r_c in np.linspace(0.0, R_MAX, 6):
        for r_d in np.linspace(0.0, R_MAX, 6):
            rho = observed_density(w_state(4), {"C": float(r_c), "D": float(r_d)})
            dev = max(dev, abs(evaluate(rho, ["N_AB"])["N_AB"] - expected))
    _record(3, "constant inertial pair", dev <= 1e-12,
            f"max dev {dev:.2e} (tol 1e-12), both scenarios up to r = pi/4")


def test_criterion_04_infinite_acceleration_endpoints():
    rho = observed_density(w_state(4), {"D": R_MAX})
    values = evaluate(rho, ["N_AD", "N_D_rest"])
    dev_pair = abs(values["N_AD"])
    dev_13 = abs(values["N_D_rest"] - patterns.N_ACCEL_LIMIT)
    passed = dev_pair <= 1e-10 and dev_13 <= 1e-10
    _record(4, "infinite-acceleration endpoints", passed,
            f"mixed pair residue {dev_pair:.2e}, 1-3 limit dev {dev_13:.2e} (tol 1e-10)")


def test_criterion_05_vanishing_threshold():
    r_star = vanishing_threshold()
    analytic = 0.5 * math.acos(2.0 - math.sqrt(2.0))
    dev = abs(r_star - analytic)
    printed_dev = abs(r_star - patterns.THRESHOLD_PRINTED)
    passed = dev <= 1e-6 and printed_dev <= 1e-4
    _record(5, "vanishing threshold", passed,
            f"r* = {r_star:.10f}, formula dev {dev:.2e} (tol 1e-6), "
            f"printed-value dev {printed_dev:.2e} (tol 1e-4)")


def test_criterion_06_inertial_whole_entanglement():
    report = tangle_report(observed_density(w_state(4), None))
    dev_pi = max(abs(report[f"pi_{obs}"] - patterns.RESIDUAL_INERTIAL) for obs in "ABCD")
    dev_means = abs(report["pi4"] - report["Pi4"])
    passed = dev_pi <= 1e-10 and dev_means <= 1e-10
    _record(6, "inertial whole entanglement", passed,
            f"pi_k dev {dev_pi:.2e}, |pi4 - Pi4| = {dev_means:.2e} (tol 1e-10)")


def test_criterion_07_mean_ordering():
    worst = math.inf
    for r in np.linspace(0.0, R_MAX, 101):
        means = evaluate(observed_density(w_state(4), {"D": float(r)}), ["pi4", "Pi4"])
        worst = min(worst, means["pi4"] - means["Pi4"])
    grid = np.linspace(0.0, R_MAX, 21)
    for r_c in grid:
        for r_d in grid:
            rho = observed_density(w_state(4), {"C": float(r_c), "D": float(r_d)})
            means = evaluate(rho, ["pi4", "Pi4"])
            worst = min(worst, means["pi4"] - means["Pi4"])
    _record(7, "arithmetic vs geometric mean", worst >= -1e-10,
            f"min(pi4 - Pi4) = {worst:.2e} (slack 1e-10) over 101 + 21x21 points")


def test_criterion_08_entropy():
    curve = run_check(["entropy_one_accel"])[0]
    s_zero = von_neumann_entropy(observed_density(w_state(4), None))
    s_limit = von_neumann_entropy(observed_density(w_state(4), {"D": R_MAX}))
    dev_limit = abs(s_limit - patterns.ENTROPY_LIMIT_ONE)
    eigs_one = hermitian_eigenvalues(observed_density(w_state(4), {"D": 0.4}).matrix)
    eigs_two = hermitian_eigenvalues(observed_density(w_state(4), {"C": 0.3, "D": 0.5}).matrix)
    rank_one = int((eigs_one > 1e-12).sum())
    rank_two = int((eigs_two > 1e-12).sum())
    passed = (curve.passed and abs(s_zero) <= 1e-12 and dev_limit <= 1e-9
              and rank_one == 2 and rank_two == 4)
    _record(8, "entropy curve, limits and ranks", passed,
            f"grid dev {curve.max_dev:.2e} (tol 1e-10), S(0) = {s_zero:.1e}, "
            f"limit dev {dev_limit:.2e} (tol 1e-9), ranks {rank_one}/{rank_two} (want 2/4)")


def test_criterion_09_symmetry_suite():
    dev_trio = 0.0
    for r in np.linspace(0.0, R_MAX, 26):
        trio = evaluate(observed_density(w_state(4), {"D": float(r)}),
                        ["N_A_rest", "N_B_rest", "N_C_rest"]).values()
        dev_trio = max(dev_trio, max(trio) - min(trio))
    dev_pair = 0.0
    dev_swap = 0.0
    grid = np.linspace(0.0, R_MAX, 6)
    for r_c in grid:
        for r_d in grid:
            rho = observed_density(w_state(4), {"C": float(r_c), "D": float(r_d)})
            here = evaluate(rho, ["N_A_rest", "N_B_rest", "pi_C"])
            dev_pair = max(dev_pair, abs(here["N_A_rest"] - here["N_B_rest"]))
            mirror = observed_density(w_state(4), {"C": float(r_d), "D": float(r_c)})
            pi_mirror = evaluate(mirror, ["pi_D"])["pi_D"]
            dev_swap = max(dev_swap, abs(here["pi_C"] - pi_mirror))
    passed = max(dev_trio, dev_pair, dev_swap) <= 1e-10
    _record(9, "symmetry suite", passed,
            f"inertial trio spread {dev_trio:.2e}, A/B dev {dev_pair:.2e}, "
            f"C/D exchange dev {dev_swap:.2e} (tol 1e-10)")


def test_criterion_10_randomized_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    worst = {"eigensystem": 0.0, "kron": 0.0, "ptrace": 0.0, "ptranspose": 0.0, "schmidt": 0.0}

    def hermitian(dim):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return g + g.conj().T

    labels = "ABCD"
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        h = hermitian(dim)
        w, v = np.linalg.eigh(h)
        worst["eigensystem"] = max(worst["eigensystem"],
                                   float(np.abs(v @ np.diag(w) @ v.conj().T - h).max()))

        a, b = hermitian(3), hermitian(2)
        target = np.sort(np.outer(hermitian_eigenvalues(a), hermitian_eigenvalues(b)).ravel())
        worst["kron"] = max(worst["kron"],
                            float(np.abs(hermitian_eigenvalues(np.kron(a, b)) - target).max()))

        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        direct = _add_blocks(_trace_blocks(rho.matrix, 4, [0, 2]))
        step = _add_blocks(_trace_blocks(_add_blocks(_trace_blocks(rho.matrix, 4, [0, 2, 3])),
                                         3, [0, 1]))
        worst["ptrace"] = max(worst["ptrace"],
                              float(np.abs(direct - step).max()),
                              abs(float(direct.trace().real) - 1.0))

        pt = partial_transpose(rho, [0])
        mirror_spec = hermitian_eigenvalues(partial_transpose(rho, [1, 2, 3]))
        worst["ptranspose"] = max(worst["ptranspose"],
                                  float(np.abs(pt - pt.conj().T).max()),
                                  abs(float(np.trace(pt).real) - 1.0),
                                  float(np.abs(hermitian_eigenvalues(pt) - mirror_spec).max()))

        v3 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v3 /= np.linalg.norm(v3)
        cut = int(rng.integers(1, 3))
        schmidt = np.linalg.svd(v3.reshape(1 << cut, 1 << (3 - cut)), compute_uv=False)
        expected = float(schmidt.sum() ** 2 - 1.0)
        pure = DensityMatrix(reference.projector(v3))
        value = negative_eigenvalue_sum(partial_transpose(pure, list(range(cut))))
        worst["schmidt"] = max(worst["schmidt"], abs(value - expected))

    elapsed = time.perf_counter() - start
    tol = {"eigensystem": 1e-11, "kron": 1e-8, "ptrace": 1e-12, "ptranspose": 1e-10,
           "schmidt": 1e-9}
    passed = all(worst[name] <= tol[name] for name in worst) and elapsed < 120.0
    detail = ", ".join(f"{name} {worst[name]:.1e}/{tol[name]:g}" for name in worst)
    _record(10, "randomized property suite", passed,
            f"100 rounds, worst dev/tol: {detail}, {elapsed:.1f} s (limit 120 s)")
