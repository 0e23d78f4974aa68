"""Randomized invariants of the linear-algebra and state machinery."""

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtangles.fock import (
    DensityMatrix,
    _add_blocks,
    _trace_blocks,
    partial_transpose,
    w_state,
)
from wtangles.linalg import negative_eigenvalue_sum
from wtangles.measures import (
    COLUMNS,
    RESIDUALS,
    TERMS,
    evaluate,
    evaluate_points,
    tangle_report,
    von_neumann_entropy,
)
from wtangles.rindler import CHUNK, R_MAX, observed_densities, observed_density

from . import reference

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=8)
mode_counts = st.integers(min_value=2, max_value=4)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


def random_density(rng, n_modes):
    dim = 1 << n_modes
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m)


def random_amplitudes(rng, n_modes):
    v = rng.standard_normal(1 << n_modes) + 1j * rng.standard_normal(1 << n_modes)
    return v / np.linalg.norm(v)


def traced(rho, keep):
    """The pipeline's trace-out of every mode of rho but the sorted positions keep."""
    return _add_blocks(_trace_blocks(rho.matrix, rho.matrix.shape[-1].bit_length() - 1, keep))


def random_qubit_density(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


@given(seed=seeds, dim=dims)
def test_eigenvalue_sum_equals_trace(seed, dim):
    h = random_hermitian(np.random.default_rng(seed), dim)
    assert abs(np.linalg.eigvalsh(h).sum() - np.trace(h).real) < 1e-9 * dim


@given(seed=seeds, dim=dims)
def test_trace_norm_decomposition(seed, dim):
    h = random_hermitian(np.random.default_rng(seed), dim)
    trace_norm = np.abs(np.linalg.eigvalsh(h)).sum()
    assert abs(trace_norm - np.trace(h).real - negative_eigenvalue_sum(h)) < 1e-9 * dim


@given(seed=seeds)
def test_kron_spectrum_is_product_of_spectra(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 4)
    target = np.sort(np.outer(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)).ravel())
    np.testing.assert_allclose(np.linalg.eigvalsh(np.kron(a, b)), target, atol=1e-8)


@given(seed=seeds, n_modes=mode_counts)
def test_partial_trace_yields_a_valid_state(seed, n_modes):
    rho = random_density(np.random.default_rng(seed), n_modes)
    # construction validates Hermiticity, unit trace and positivity
    DensityMatrix(traced(rho, [0]))


@given(seed=seeds)
def test_partial_trace_stepwise_matches_direct(seed):
    rho = random_density(np.random.default_rng(seed), 4)
    direct = traced(rho, [1, 3])
    step = _add_blocks(_trace_blocks(traced(rho, [1, 2, 3]), 3, [0, 2]))
    np.testing.assert_allclose(step, direct, atol=1e-12)


@settings(max_examples=40)
@given(seed=seeds, n_modes=st.integers(min_value=1, max_value=6))
def test_trace_and_transpose_match_entrywise_definitions(seed, n_modes):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n_modes)
    subset = sorted(int(p) for p in rng.choice(
        n_modes, size=rng.integers(1, n_modes + 1), replace=False))
    assert np.array_equal(partial_transpose(rho, subset),
                          reference.partial_transpose(rho.matrix, n_modes, subset))
    expected = reference.partial_trace(rho.matrix, n_modes, subset)
    assert np.abs(traced(rho, subset) - expected).max() <= 1e-15


@given(seed=seeds, n_modes=mode_counts)
def test_partial_transpose_keeps_hermiticity_and_trace(seed, n_modes):
    rho = random_density(np.random.default_rng(seed), n_modes)
    m = partial_transpose(rho, [n_modes - 1])
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    assert abs(np.trace(m).real - 1.0) < 1e-12


@given(seed=seeds, n_modes=mode_counts)
def test_partial_transpose_spectrum_is_side_invariant(seed, n_modes):
    rho = random_density(np.random.default_rng(seed), n_modes)
    left = np.linalg.eigvalsh(partial_transpose(rho, [0]))
    right = np.linalg.eigvalsh(partial_transpose(rho, list(range(1, n_modes))))
    np.testing.assert_allclose(left, right, atol=1e-10)


@given(seed=seeds)
def test_partial_transpose_involution_on_separable_state(seed):
    rng = np.random.default_rng(seed)
    a = random_qubit_density(rng)
    b = random_qubit_density(rng)
    rho = DensityMatrix(np.kron(a, b))
    once = partial_transpose(rho, [0])
    np.testing.assert_allclose(once, np.kron(a.T, b), atol=1e-12)
    twice = partial_transpose(DensityMatrix(once), [0])
    np.testing.assert_allclose(twice, rho.matrix, atol=1e-12)
    assert negative_eigenvalue_sum(once) < 1e-10     # product states stay positive under PT


@given(seed=seeds)
def test_entropy_is_additive_on_product_states(seed):
    rng = np.random.default_rng(seed)
    a = random_qubit_density(rng)
    b = random_qubit_density(rng)
    joint = DensityMatrix(np.kron(a, b))
    s_a = von_neumann_entropy(DensityMatrix(a))
    s_b = von_neumann_entropy(DensityMatrix(b))
    assert abs(von_neumann_entropy(joint) - s_a - s_b) < 1e-9


@given(seed=seeds, n_modes=st.integers(min_value=2, max_value=4),
       cut=st.integers(min_value=1, max_value=3))
def test_pure_state_negativity_matches_schmidt_formula(seed, n_modes, cut):
    cut = min(cut, n_modes - 1)
    amp = random_amplitudes(np.random.default_rng(seed), n_modes)
    schmidt = np.linalg.svd(amp.reshape(1 << cut, 1 << (n_modes - cut)), compute_uv=False)
    expected = float(schmidt.sum() ** 2 - 1.0)
    rho = DensityMatrix(reference.projector(amp))
    value = negative_eigenvalue_sum(partial_transpose(rho, list(range(cut))))
    assert abs(value - expected) < 1e-9


@settings(max_examples=20)
@given(seed=seeds, points=st.integers(min_value=1, max_value=2 * CHUNK + 3),
       observers=st.sampled_from([(), ("D",), ("C", "D"), ("D", "A"), ("A", "B", "C", "D")]))
@example(seed=0, points=CHUNK + 1, observers=("C", "D"))
def test_stacked_columns_equal_single_points(seed, points, observers):
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    columns = evaluate_points(observers, r, COLUMNS)
    for p in range(points):
        single = evaluate(observed_density(w_state(4), dict(zip(observers, r[p]))), COLUMNS)
        assert all(np.array_equal(columns[c][p], single[c]) for c in COLUMNS)


@settings(max_examples=30)
@given(seed=seeds, points=st.integers(min_value=1, max_value=CHUNK + 1),
       columns=st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=6, unique=True))
@example(seed=1, points=CHUNK + 1, columns=["pi_C", "N_AB", "S"])
def test_column_subsets_equal_the_full_report(seed, points, columns):
    # a subset takes fewer, differently grouped spectra; no value may change by a bit
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, 2))
    stack = observed_densities(w_state(4), ["C", "D"], r)
    report = tangle_report(stack)
    subset = evaluate(stack, columns)
    assert list(subset) == columns
    assert all(np.array_equal(subset[c], report[c]) for c in columns)


def per_point_assembly(columns):
    """Residuals, pi4 and Pi4 assembled point by point in Python floats.

    The reference for the array-wise assembly: each square taken per value,
    each sum folded left to right from 0.0, and the geometric mean clipped
    and multiplied value by value.
    """
    rows = []
    for p in range(len(columns["N_A_rest"])):
        residuals = []
        for residual in RESIDUALS:
            rest, *pairs = (float(columns[c][p]) for c in TERMS[residual])
            total = 0.0
            for n in pairs:
                total = total + n ** 2
            residuals.append(rest ** 2 - total)
        total, product = 0.0, 1.0
        for value in residuals:
            total = total + value
            product *= max(value, 0.0)
        rows.append((*residuals, total / 4.0, product ** 0.25))
    return dict(zip((*RESIDUALS, "pi4", "Pi4"), np.array(rows).T))


@settings(max_examples=20)
@given(seed=seeds, points=st.integers(min_value=1, max_value=CHUNK + 1),
       observers=st.sampled_from([(), ("D",), ("C", "D"), ("A", "B", "C", "D")]))
def test_array_assembly_equals_per_point_floats(seed, points, observers):
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    report = tangle_report(observed_densities(w_state(4), observers, r))
    for column, values in per_point_assembly(report).items():
        assert report[column].tobytes() == values.tobytes(), column


def test_failing_property_reports_its_example(tmp_path):
    # the suite's pytest settings must not turn a hypothesis failure into an
    # INTERNALERROR that swallows the falsifying example and the FAILED line
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "FAILED test_fails.py::test_fails" in output
    assert "INTERNALERROR" not in output
