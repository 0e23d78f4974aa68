"""Randomized invariants of the linear-algebra and state machinery."""

from itertools import product

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtangles.fock import (
    DensityMatrix,
    ModeLayout,
    StateVector,
    partial_trace,
    partial_transpose,
    pure_to_density,
    w_state,
)
from wtangles.linalg import hermitian_eigenvalues, negative_eigenvalue_sum, trace_norm
from wtangles.measures import (
    CHUNK,
    COLUMNS,
    evaluate,
    evaluate_points,
    negativity,
    tangle_report,
    von_neumann_entropy,
)
from wtangles.rindler import R_MAX, apply_rindler, observed_densities, observed_density

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=8)
mode_counts = st.integers(min_value=2, max_value=4)
r_values = st.floats(min_value=0.0, max_value=R_MAX)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


def random_density(rng, n_modes):
    dim = 1 << n_modes
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(ModeLayout.inertial(*"ABCDEF"[:n_modes]), m)


def random_state(rng, n_modes):
    v = rng.standard_normal(1 << n_modes) + 1j * rng.standard_normal(1 << n_modes)
    return StateVector(ModeLayout.inertial(*"ABCDEF"[:n_modes]), v / np.linalg.norm(v))


def random_qubit_density(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


@given(seed=seeds, dim=dims)
def test_eigenvalue_sum_equals_trace(seed, dim):
    h = random_hermitian(np.random.default_rng(seed), dim)
    assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-9 * dim


@given(seed=seeds, dim=dims)
def test_trace_norm_decomposition(seed, dim):
    h = random_hermitian(np.random.default_rng(seed), dim)
    assert abs(trace_norm(h) - np.trace(h).real - negative_eigenvalue_sum(h)) < 1e-9 * dim


@given(seed=seeds)
def test_kron_spectrum_is_product_of_spectra(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 4)
    target = np.sort(np.outer(hermitian_eigenvalues(a), hermitian_eigenvalues(b)).ravel())
    np.testing.assert_allclose(hermitian_eigenvalues(np.kron(a, b)), target, atol=1e-8)


@given(seed=seeds, n_modes=mode_counts)
def test_partial_trace_yields_a_valid_state(seed, n_modes):
    rho = random_density(np.random.default_rng(seed), n_modes)
    # construction re-validates Hermiticity, unit trace and positivity
    reduced = partial_trace(rho, [0])
    assert reduced.layout.n == 1


@given(seed=seeds)
def test_partial_trace_stepwise_matches_direct(seed):
    rho = random_density(np.random.default_rng(seed), 4)
    direct = partial_trace(rho, [1, 3])
    step = partial_trace(partial_trace(rho, [1, 2, 3]), [0, 2])
    np.testing.assert_allclose(step.matrix, direct.matrix, atol=1e-12)


def _index(bits):
    # big-endian: the first mode is the most significant bit
    return int("".join(map(str, bits)), 2)


def _merge(n, chosen, chosen_bits, rest_bits):
    """Occupation pattern with chosen_bits on the chosen positions, rest_bits elsewhere."""
    chosen_it, rest_it = iter(chosen_bits), iter(rest_bits)
    return [next(chosen_it) if p in chosen else next(rest_it) for p in range(n)]


def reference_partial_trace(m, n, keep):
    k = len(keep)
    out = np.zeros((1 << k, 1 << k), dtype=complex)
    for t in product((0, 1), repeat=n - k):
        for a in product((0, 1), repeat=k):
            for b in product((0, 1), repeat=k):
                out[_index(a), _index(b)] += m[_index(_merge(n, keep, a, t)),
                                               _index(_merge(n, keep, b, t))]
    return out


def reference_partial_transpose(m, n, part):
    out = np.zeros_like(m)
    for a in product((0, 1), repeat=n):
        for b in product((0, 1), repeat=n):
            # <a_part a_rest| M |b_part b_rest> = <b_part a_rest| rho |a_part b_rest>
            row = [b[p] if p in part else a[p] for p in range(n)]
            col = [a[p] if p in part else b[p] for p in range(n)]
            out[_index(a), _index(b)] = m[_index(row), _index(col)]
    return out


@settings(max_examples=40)
@given(seed=seeds, n_modes=st.integers(min_value=1, max_value=6))
def test_trace_and_transpose_match_entrywise_definitions(seed, n_modes):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n_modes)
    subset = sorted(int(p) for p in rng.choice(
        n_modes, size=rng.integers(1, n_modes + 1), replace=False))
    assert np.array_equal(partial_transpose(rho, subset),
                          reference_partial_transpose(rho.matrix, n_modes, subset))
    reduced = partial_trace(rho, subset)
    assert reduced.layout.n == len(subset)
    expected = reference_partial_trace(rho.matrix, n_modes, subset)
    assert np.abs(reduced.matrix - expected).max() <= 1e-15


@given(seed=seeds, n_modes=mode_counts)
def test_partial_transpose_keeps_hermiticity_and_trace(seed, n_modes):
    rho = random_density(np.random.default_rng(seed), n_modes)
    m = partial_transpose(rho, [n_modes - 1])
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    assert abs(np.trace(m).real - 1.0) < 1e-12


@given(seed=seeds, n_modes=mode_counts)
def test_partial_transpose_spectrum_is_side_invariant(seed, n_modes):
    rho = random_density(np.random.default_rng(seed), n_modes)
    left = hermitian_eigenvalues(partial_transpose(rho, [0]))
    right = hermitian_eigenvalues(partial_transpose(rho, list(range(1, n_modes))))
    np.testing.assert_allclose(left, right, atol=1e-10)


@given(seed=seeds)
def test_partial_transpose_involution_on_separable_state(seed):
    rng = np.random.default_rng(seed)
    a = random_qubit_density(rng)
    b = random_qubit_density(rng)
    layout = ModeLayout.inertial("A", "B")
    rho = DensityMatrix(layout, np.kron(a, b))
    once = partial_transpose(rho, [0])
    np.testing.assert_allclose(once, np.kron(a.T, b), atol=1e-12)
    twice = partial_transpose(DensityMatrix(layout, once), [0])
    np.testing.assert_allclose(twice, rho.matrix, atol=1e-12)
    assert negativity(rho, [0]) < 1e-10     # product states stay positive under PT


@settings(max_examples=40)
@given(seed=seeds, n_modes=st.integers(min_value=1, max_value=3), r=r_values,
       which=st.integers(min_value=0, max_value=2))
def test_rindler_split_preserves_norm(seed, n_modes, r, which):
    psi = random_state(np.random.default_rng(seed), n_modes)
    observer = psi.layout.modes[which % n_modes].observer
    out = apply_rindler(psi, observer, r)
    assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < 1e-12
    assert out.layout.n == n_modes + 1


@given(seed=seeds)
def test_entropy_is_additive_on_product_states(seed):
    rng = np.random.default_rng(seed)
    a = random_qubit_density(rng)
    b = random_qubit_density(rng)
    joint = DensityMatrix(ModeLayout.inertial("A", "B"), np.kron(a, b))
    s_a = von_neumann_entropy(DensityMatrix(ModeLayout.inertial("A"), a))
    s_b = von_neumann_entropy(DensityMatrix(ModeLayout.inertial("B"), b))
    assert abs(von_neumann_entropy(joint) - s_a - s_b) < 1e-9


@given(seed=seeds, n_modes=st.integers(min_value=2, max_value=4),
       cut=st.integers(min_value=1, max_value=3))
def test_pure_state_negativity_matches_schmidt_formula(seed, n_modes, cut):
    cut = min(cut, n_modes - 1)
    psi = random_state(np.random.default_rng(seed), n_modes)
    amp = psi.amplitudes.reshape(1 << cut, 1 << (n_modes - cut))
    schmidt = np.linalg.svd(amp, compute_uv=False)
    expected = float(schmidt.sum() ** 2 - 1.0)
    value = negativity(pure_to_density(psi), list(range(cut)))
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
