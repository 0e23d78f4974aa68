"""Splitting modes under acceleration, and the observed (region-I) state."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtangles.fock import (
    OBSERVERS,
    DensityMatrix,
    _add_blocks,
    _trace_blocks,
    partial_transpose,
    w_state,
)
from wtangles.measures import CHUNK
from wtangles.rindler import R_MAX, _split, _support, observed_densities, observed_density

from . import patterns, reference


def _split_one(amp, pos, r):
    """The pipeline's split of mode pos of one amplitude vector."""
    return _split(np.asarray(amp, dtype=complex)[None], pos,
                  np.array([math.cos(r)]), np.array([math.sin(r)]))[0]


def _reduced_pair(rho, pair):
    """The pipeline's reduced state of a pair of modes of a four-mode state."""
    return DensityMatrix(_add_blocks(_trace_blocks(rho.matrix, 4, list(pair))))


def test_parameter_range_validation():
    observed_densities(w_state(4), ["D"], [[0.0], [R_MAX]])
    for r in (-0.01, R_MAX + 0.01):
        with pytest.raises(ValueError, match=r"acceleration parameter r=.* outside \[0, pi/4\]"):
            observed_densities(w_state(4), ["D"], [[r]])


def test_vacuum_mode_splits_into_both_wedges():
    amp = _split_one([1.0, 0.0], 0, 0.3)
    assert amp[0] == pytest.approx(math.cos(0.3))    # |0_I 0_II>
    assert amp[3] == pytest.approx(math.sin(0.3))    # |1_I 1_II>
    assert amp[1] == amp[2] == 0.0
    assert np.array_equal(amp, reference.rindler_split(np.array([1.0, 0.0]), 1, 0, 0.3))


def test_occupied_mode_stays_in_region_one():
    amp = _split_one([0.0, 1.0], 0, 0.3)
    assert amp[2] == pytest.approx(1.0)              # |1_I 0_II>
    assert amp[0] == amp[1] == amp[3] == 0.0
    assert np.array_equal(amp, reference.rindler_split(np.array([0.0, 1.0]), 1, 0, 0.3))


def test_w4_splits_into_seven_terms():
    r = 0.4
    psi = w_state(4)
    amp = reference.rindler_split(psi, 4, 3, r)     # A,B,C,D_I,D_II
    for index in (16, 8, 4):
        assert amp[index] == pytest.approx(0.5 * math.cos(r))
    for index in (19, 11, 7):
        assert amp[index] == pytest.approx(0.5 * math.sin(r))
    assert amp[2] == pytest.approx(0.5)
    assert np.count_nonzero(amp) == 7
    assert np.array_equal(_split_one(psi, 3, r), amp)


def test_split_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(8):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = _split_one(v / np.linalg.norm(v), 1, float(rng.uniform(0.0, R_MAX)))
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-12)


def test_observed_density_inertial_is_pure():
    rho = observed_density(w_state(4), None)
    w = np.linalg.eigvalsh(rho.matrix)
    assert w[-1] == pytest.approx(1.0, abs=1e-12)


def test_observed_density_layouts():
    # each observer's mode is split at its own position in the register A, B, C, D
    for pos, obs in enumerate(OBSERVERS):
        amp = reference.rindler_split(w_state(4), 4, pos, 0.2)
        expected = reference.partial_trace(reference.projector(amp), 5, [0, 1, 2, 3])
        assert np.array_equal(observed_density(w_state(4), {obs: 0.2}).matrix, expected)


def test_observed_density_rejects_bad_input():
    with pytest.raises(ValueError):
        observed_density(w_state(4), {"X": 0.1})
    with pytest.raises(ValueError, match="outside"):
        observed_density(w_state(4), {"D": 1.0})
    # the register is A, B, C, D: three or five modes are not it
    for n in (3, 5):
        with pytest.raises(ValueError, match=f"16 amplitudes of A, B, C, D, got {1 << n}"):
            observed_density(reference.w_amplitudes(n), {"C": 0.1})
    # a relative phase: still a normalized state, but the build is real
    phased = reference.w_amplitudes(4)
    phased[8] = 0.5j
    for scenario in (None, {"D": 0.3}):
        with pytest.raises(ValueError) as info:
            observed_density(phased, scenario)
        assert str(info.value) == "observed states need real amplitudes"
    # no points: the shape check names it, not numpy's reshape
    with pytest.raises(ValueError) as info:
        observed_densities(w_state(4), ["D"], np.empty((0, 1)))
    assert str(info.value) == "r has shape (0, 1), want (points >= 1, 1)"


@pytest.mark.parametrize("r", [0.0, 0.3, patterns.THRESHOLD_R, math.pi / 4])
@pytest.mark.parametrize("scenario_at", [
    lambda r: {"D": r}, lambda r: {"C": r, "D": r}, lambda r: {"C": R_MAX, "D": r},
], ids=["D", "C=D", "C=pi/4"])
def test_observed_density_equals_trace_of_split_projector(r, scenario_at):
    # reference route: split pattern by pattern, the full pure projector, then
    # the region-II trace-out, entry by entry
    scenario = scenario_at(r)
    amp, n = w_state(4), 4
    for obs in sorted(scenario):
        amp = reference.rindler_split(amp, n, "ABCD".index(obs), scenario[obs])
        n += 1
    expected = reference.partial_trace(reference.projector(amp), n, [0, 1, 2, 3])
    assert np.array_equal(observed_density(w_state(4), scenario).matrix, expected)


def test_observed_stack_equals_points_one_by_one():
    r = np.array([[0.6, 0.2], [0.0, R_MAX], [patterns.THRESHOLD_R, 0.3], [R_MAX, 0.0]])
    # the observers' order in the call does not matter, only the register order
    stack = observed_densities(w_state(4), ["D", "C"], r)
    assert stack.matrix.shape == (4, 16, 16)
    for p, (r_d, r_c) in enumerate(r):
        single = observed_density(w_state(4), {"C": r_c, "D": r_d})
        assert np.array_equal(stack.matrix[p], single.matrix)
    inertial = observed_densities(w_state(4), [], np.empty((2, 0)))
    assert np.array_equal(inertial.matrix[1], observed_density(w_state(4), None).matrix)


def _assert_complex_build_bytes(observers, r):
    """observed_densities gives the bytes of the complex build, chunk by chunk.

    The complex build splits the amplitudes of w_state(4), as complex128, with
    _split, which keeps their dtype, and traces region II out with
    reference.trace_out_complex.  The observed states stay float64, and their
    complex128 cast, the bytes eigvalsh sees, is compared.  Comparing tobytes
    counts signed zeros too.
    """
    r = np.asarray(r, dtype=float)
    for start in range(0, len(r), CHUNK):
        chunk = r[start:start + CHUNK]
        amp = w_state(4).astype(complex)[None].repeat(len(chunk), axis=0)
        for pos, j in sorted((OBSERVERS.index(obs), j) for j, obs in enumerate(observers)):
            column = chunk[:, j].tolist()
            amp = _split(amp, pos, np.array([math.cos(x) for x in column]),
                         np.array([math.sin(x) for x in column]))
        expected = reference.trace_out_complex(amp)
        matrix = observed_densities(w_state(4), observers, chunk).matrix
        assert matrix.dtype == np.float64 and expected.dtype == np.complex128
        assert matrix.astype(complex).tobytes() == expected.tobytes()


def test_float64_build_equals_complex_build_on_the_preset_grid():
    line = np.linspace(0.0, R_MAX, 41).tolist()
    _assert_complex_build_bytes(["C", "D"], list(product(line, repeat=2)))


@pytest.mark.parametrize("observer", OBSERVERS)
def test_float64_build_equals_complex_build_on_each_observer_line(observer):
    # the 101-point line of the one-observer presets; for D it is their line
    line = np.linspace(0.0, R_MAX, 101).tolist()
    _assert_complex_build_bytes([observer], [[x] for x in line])


KINK_R = (0.0, patterns.THRESHOLD_R, R_MAX)


@settings(max_examples=40, deadline=None)
@given(observers=st.lists(st.sampled_from(OBSERVERS), unique=True, max_size=4),
       rows=st.lists(st.lists(st.floats(0.0, R_MAX) | st.sampled_from(KINK_R),
                              min_size=4, max_size=4),
                     min_size=1, max_size=CHUNK + 1))
@example(observers=["C", "D"], rows=[[a, b, 0.0, 0.0] for a in KINK_R for b in KINK_R])
@example(observers=list(OBSERVERS), rows=[[x] * 4 for x in KINK_R])
def test_float64_build_equals_complex_build_at_random_points(observers, rows):
    _assert_complex_build_bytes(observers, [row[:len(observers)] for row in rows])


# real amplitudes of both signs, with exact zeros of both signs
_AMPLITUDE = st.sampled_from((0.0, -0.0)) | st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)


@settings(max_examples=60, deadline=None)
@given(psi0=st.lists(_AMPLITUDE, min_size=16, max_size=16).filter(any),
       observers=st.lists(st.sampled_from(OBSERVERS), unique=True, min_size=1, max_size=4),
       rows=st.lists(st.lists(st.floats(0.0, R_MAX) | st.sampled_from((0.0, R_MAX)),
                              min_size=4, max_size=4),
                     min_size=1, max_size=4))
@example(psi0=[(-1.0) ** i * (i % 3) for i in range(16)], observers=["D", "A", "C", "B"],
         rows=[[0.0] * 4, [R_MAX] * 4, [0.0, R_MAX, 0.0, R_MAX]])
@example(psi0=[-0.0, -0.5, 0.0, -0.5] * 4, observers=["B"], rows=[[0.0], [R_MAX]])
def test_support_build_equals_the_dense_build(psi0, observers, rows):
    # at r = 0, sin r times a negative amplitude is -0.0, and rho must still hold +0.0
    psi0 = np.array(psi0) / np.linalg.norm(psi0)
    r = [row[:len(observers)] for row in rows]
    matrix = observed_densities(psi0, observers, r).matrix
    assert matrix.tobytes() == reference.observed_dense(psi0, observers, r).tobytes()


def test_one_nonzero_pattern_adds_one_support_table():
    _support.cache_clear()
    signs = np.array([1.0, -1.0, 0.3, -0.0] * 4)
    psi0 = w_state(4) * signs / np.linalg.norm(w_state(4) * signs)
    observed_densities(w_state(4), ["C", "D"], [[0.2, 0.3]])
    # other values and observer order, the same nonzero pattern and split modes
    observed_densities(psi0, ["D", "C"], [[0.1, 0.4], [0.0, R_MAX]])
    assert _support.cache_info().currsize == 1
    observed_densities(w_state(4), ["D"], [[0.2]])
    assert _support.cache_info().currsize == 2


@pytest.mark.parametrize("observers, r, fragment", [
    (["D"], [[0.1, 0.2]], "shape"),
    (["D"], [0.1, 0.2], "shape"),
    (["D"], [[0.1], [1.0]], "r=1.0 outside"),
    (["D"], [[0.1], [math.nan]], "r=nan outside"),
    (["X"], [[0.1]], "unknown observer"),
    (["D", "D"], [[0.1, 0.2]], "already transformed"),
])
def test_observed_stack_rejects_bad_input(observers, r, fragment):
    with pytest.raises(ValueError, match=fragment):
        observed_densities(w_state(4), observers, r)


@pytest.mark.parametrize("r_d", [0.0, 0.3, 0.6, math.pi / 4])
def test_one_observer_matrix_pattern(r_d):
    rho = observed_density(w_state(4), {"D": r_d})
    np.testing.assert_allclose(rho.matrix.real, patterns.one_accelerated(r_d), atol=1e-12)
    np.testing.assert_allclose(rho.matrix.imag, np.zeros((16, 16)), atol=1e-15)


@pytest.mark.parametrize("r_c", [0.0, 0.25, 0.5, math.pi / 4])
@pytest.mark.parametrize("r_d", [0.0, 0.2, 0.55, math.pi / 4])
def test_two_observer_matrix_pattern(r_c, r_d):
    rho = observed_density(w_state(4), {"C": r_c, "D": r_d})
    np.testing.assert_allclose(rho.matrix.real, patterns.two_accelerated(r_c, r_d), atol=1e-12)


def test_one_observer_partial_transpose_patterns():
    r_d = 0.37
    rho = observed_density(w_state(4), {"D": r_d})
    np.testing.assert_allclose(partial_transpose(rho, [0]).real,
                               patterns.one_accelerated_pt_inertial(r_d), atol=1e-12)
    np.testing.assert_allclose(partial_transpose(rho, [3]).real,
                               patterns.one_accelerated_pt_accelerated(r_d), atol=1e-12)


def test_reduced_pair_matrices_match_printed_forms():
    r_d = 0.52
    rho = observed_density(w_state(4), {"D": r_d})
    ab = _reduced_pair(rho, (0, 1))
    np.testing.assert_allclose(partial_transpose(ab, [0]).real,
                               patterns.PAIR_INERTIAL_PT, atol=1e-12)
    ad = _reduced_pair(rho, (0, 3))
    np.testing.assert_allclose(partial_transpose(ad, [0]).real,
                               patterns.pair_mixed_pt(r_d), atol=1e-12)


def test_pair_form_unchanged_by_second_acceleration():
    rho = observed_density(w_state(4), {"C": 0.33, "D": 0.52})
    ad = _reduced_pair(rho, (0, 3))
    np.testing.assert_allclose(partial_transpose(ad, [0]).real,
                               patterns.pair_mixed_pt(0.52), atol=1e-12)


@pytest.mark.parametrize("r_d", [0.1, 0.45, math.pi / 4])
def test_one_observer_state_has_rank_two(r_d):
    w = np.linalg.eigvalsh(observed_density(w_state(4), {"D": r_d}).matrix)
    assert int((w > 1e-12).sum()) == 2


def test_two_observer_state_has_rank_four():
    w = np.linalg.eigvalsh(observed_density(w_state(4), {"C": 0.3, "D": 0.5}).matrix)
    assert int((w > 1e-12).sum()) == 4


def test_limit_spectra():
    one = observed_density(w_state(4), {"D": math.pi / 4})
    w = np.sort(np.linalg.eigvalsh(one.matrix))
    np.testing.assert_allclose(w[w > 1e-12], patterns.ONE_ACCEL_LIMIT_EIGS, atol=1e-12)
    two = observed_density(w_state(4), {"C": math.pi / 4, "D": math.pi / 4})
    w2 = np.sort(np.linalg.eigvalsh(two.matrix))
    np.testing.assert_allclose(w2[w2 > 1e-12], patterns.TWO_ACCEL_LIMIT_EIGS, atol=1e-12)


def test_swapping_accelerated_observers_permutes_the_state():
    rho1 = observed_density(w_state(4), {"C": 0.2, "D": 0.6}).matrix
    rho2 = observed_density(w_state(4), {"C": 0.6, "D": 0.2}).matrix
    # exchange the C_I and D_I bits of every basis index
    perm = np.array([(i & ~3) | ((i & 1) << 1) | ((i >> 1) & 1) for i in range(16)])
    np.testing.assert_allclose(rho2[np.ix_(perm, perm)], rho1, atol=1e-14)


def test_transform_order_does_not_change_observed_state():
    base = observed_density(w_state(4), {"C": 0.3, "D": 0.5}).matrix
    # D first: region-II modes D_II, C_II, both appended after the accessible four
    flipped = reference.rindler_split(w_state(4), 4, 3, 0.5)
    flipped = reference.rindler_split(flipped, 5, 2, 0.3)
    reduced = reference.partial_trace(reference.projector(flipped), 6, [0, 1, 2, 3])
    np.testing.assert_allclose(reduced, base, atol=1e-14)
