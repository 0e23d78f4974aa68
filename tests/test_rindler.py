"""Splitting modes under acceleration, and the observed (region-I) state."""

import functools
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtangles import oracles, rindler
from wtangles.fock import (
    OBSERVERS,
    DensityMatrix,
    _add_blocks,
    _trace_blocks,
    partial_transpose,
    w_state,
)
from wtangles.rindler import (
    CHUNK,
    R_HI,
    R_LO,
    R_MAX,
    ConfigError,
    _built,
    _checked,
    _support,
    check_r,
    observed_densities,
    observed_density,
)
from wtangles.sweep import AxisSpec, check_axes

from . import patterns, reference
from .lapack import recorded


def _table_split(psi0, positions, r):
    """The nonzero split amplitudes of psi0 at one point, as the support table
    lists them, in flat index order: each initial amplitude times its factors."""
    initial, factors, *_ = _support(tuple(positions), tuple(np.asarray(psi0, dtype=float).tolist()))
    amp = initial[0]
    for factor, x in zip(factors, r):
        amp = amp * np.array([1.0, math.cos(x), math.sin(x)])[factor]
    return amp


def _labelled_support(positions, nonzero):
    """The support table of amplitudes s + 1 at each index s in nonzero, and 0
    elsewhere, with the source of each split amplitude read off its initial one
    and each round's entries read back from compact columns to flat indices."""
    psi0 = tuple(float(s + 1) if s in nonzero else 0.0 for s in range(16))
    initial, factors, rounds, layout = _support(tuple(positions), psi0)
    assert initial.shape == (1, initial.size)
    # the support's flat entries in order, each at its compact column
    flat = np.flatnonzero(layout.column < layout.zero)
    assert layout.column[flat].tolist() == list(range(layout.zero))
    rounds = [(flat[entries], left, right) for entries, left, right in rounds]
    return [int(x) - 1 for x in initial[0].tolist()], factors, rounds


def _split_factors(observers, r):
    """The split factors that _checked hands _built, every chunk's, joined in order."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rindler, "_built", lambda split, table: seen.append(split))
        _, chunks = _checked(observers, r)
        assert seen == []
        for _ in chunks:
            pass
    return np.concatenate(seen)


def _products(rounds):
    """Each rho entry's products (left, right), in the order the rounds add them."""
    out = {}
    for entries, left, right in rounds:
        for e, a, b in zip(entries.tolist(), left.tolist(), right.tolist()):
            out.setdefault(e, []).append((a, b))
    return out


def _reduced_pair(rho, pair):
    """The pipeline's reduced state of a pair of modes of a four-mode state."""
    return DensityMatrix(_add_blocks(_trace_blocks(rho.matrix, 4, list(pair))))


def test_parameter_range_validation():
    observed_densities(w_state(4), ["D"], [[0.0], [R_MAX]])
    for r in (-0.01, R_MAX + 0.01):
        with pytest.raises(ValueError, match=r"^accel: D=.* outside \[0, pi/4\]$"):
            observed_densities(w_state(4), ["D"], [[r]])


def test_out_of_domain_names_the_first_bad_value_after_an_exact_edge():
    with pytest.raises(ConfigError, match=r"^r=2\.0 outside"):
        check_r([R_LO, 2.0], "r")
    with pytest.raises(ConfigError, match=r"^r=-1\.0 outside"):
        check_r([[R_HI, R_LO], [-1.0, 2.0]], "r")
    assert check_r([R_LO, R_HI], "r").tolist() == [R_LO, R_HI]
    assert check_r(R_HI, "r").tolist() == R_HI


def test_one_r_rule_for_axes_points_and_closed_forms():
    check_r(np.array([[R_LO, R_HI]]), "accel: D")
    # one class and one message form, wherever an r is read
    with pytest.raises(ConfigError, match=r"^accel: D=nan outside \[0, pi/4\]$"):
        check_r([0.3, math.nan], "accel: D")
    with pytest.raises(ConfigError, match=r"^accel: D=nan outside \[0, pi/4\]$"):
        check_axes([AxisSpec("D", math.nan, math.nan)])
    with pytest.raises(ConfigError, match=r"^accel: D=nan outside \[0, pi/4\]$"):
        observed_densities(w_state(4), ["D"], [[math.nan]])
    with pytest.raises(ConfigError, match=r"^n_i_d1: r_d=nan outside \[0, pi/4\]$"):
        oracles.n_i_d1(math.nan)


@pytest.mark.parametrize("axes, message", [
    # each axis in turn: its range's r, then lo > hi, as if checked one by one;
    # the command-line tests hold the out-of-range and NaN cases
    ([("C", 0.1, 0.2), ("D", 0.3, 0.2)], "accel: range for D has lo > hi"),
    ([("C", 0.1, 0.2), ("D", True, 0.3)],
     "accel: D mixes a bool into its numbers, want real numbers"),
    # a later axis whose bound is no number at all still lets the first bad one be named
    ([("C", 2.0, 2.0), ("D", "x", 0.3)], "accel: C=2.0 outside [0, pi/4]"),
    ([("C", 0.1, 0.2), ("D", "x", 0.3)], "accel: D has dtype <U32, want real numbers"),
])
def test_check_axes_names_the_first_bad_axis(axes, message):
    with pytest.raises(ConfigError) as info:
        check_axes([AxisSpec(*axis) for axis in axes])
    assert str(info.value) == message and info.value.__context__ is None


def test_checked_takes_math_cos_and_sin_of_every_point_once():
    r = np.array([[0.0, R_MAX], [0.3, 1e-300], [R_HI, R_LO]])
    split = _split_factors(["C", "D"], r)
    assert split.shape == (3, 2, 3)
    for p, j in np.ndindex(r.shape):
        x = float(r[p, j])
        assert split[p, j].tobytes() == np.array([1.0, math.cos(x), math.sin(x)]).tobytes()
    # the factors come in split order, the register order of the modes
    assert np.array_equal(_split_factors(["D", "C"], r[:, ::-1]), split)


def test_vacuum_mode_splits_into_both_wedges():
    # |0000> with A split: cos r |0000, 0_II> + sin r |1000, 1_II>
    source, (factor,), rounds = _labelled_support((0,), (0,))
    assert source == [0, 0] and factor.tolist() == [1, 2]
    # rho holds cos^2 r at (0000, 0000) and sin^2 r at (1000, 1000)
    assert _products(rounds) == {0: [(0, 0)], 16 * 8 + 8: [(1, 1)]}
    amp = reference.rindler_split(np.eye(16)[0], 4, 0, 0.3)
    assert np.flatnonzero(amp).tolist() == [0, 17]
    assert np.array_equal(_table_split(np.eye(16)[0], [0], [0.3]), amp[[0, 17]].real)


def test_occupied_mode_stays_in_region_one():
    # |1000> with A split: |1000, 0_II>, with nothing to multiply
    source, (factor,), rounds = _labelled_support((0,), (8,))
    assert source == [8] and factor.tolist() == [0]
    assert _products(rounds) == {16 * 8 + 8: [(0, 0)]}
    amp = reference.rindler_split(np.eye(16)[8], 4, 0, 0.3)
    assert np.flatnonzero(amp).tolist() == [16]
    assert np.array_equal(_table_split(np.eye(16)[8], [0], [0.3]), amp[[16]].real)


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
    # the table lists the same seven, in flat index order
    assert np.array_equal(_table_split(psi, [3], [r]), amp[np.flatnonzero(amp)].real)


@functools.cache
def _reference_reading(positions, source):
    """The flat index and factors of each nonzero split amplitude of basis
    state source, read off reference.rindler_split.

    The modes at positions are split with every r at 0.3, and again with
    split j's r at 0: an amplitude that keeps its value takes nothing from
    split j, one that vanishes takes sin r, and any other takes cos r.
    """
    def split(r):
        amp = np.eye(16)[source]
        for n, (pos, x) in enumerate(zip(positions, r), start=4):
            amp = reference.rindler_split(amp, n, pos, x).real
        return amp

    k = len(positions)
    base = split([0.3] * k)
    index = np.flatnonzero(base)
    factors = []
    for j in range(k):
        moved = split([0.0 if i == j else 0.3 for i in range(k)])[index]
        factors.append(np.where(moved == base[index], 0, np.where(moved == 0.0, 2, 1)))
    return [(int(i), source, tuple(int(f[a]) for f in factors)) for a, i in enumerate(index)]


SPLIT_SETS = [c for k in range(5) for c in combinations(range(4), k)]


@pytest.mark.parametrize("positions", SPLIT_SETS,
                         ids=["".join(OBSERVERS[p] for p in c) or "inertial" for c in SPLIT_SETS])
def test_support_table_equals_the_reference_split(positions):
    k = len(positions)
    for nonzero in [(1, 2, 4, 8)] + [(s,) for s in range(16)]:
        source, factors, rounds = _labelled_support(positions, nonzero)
        listing = sorted(a for s in nonzero for a in _reference_reading(positions, s))
        assert source == [s for _, s, _ in listing]
        assert len(factors) == k
        for j, factor in enumerate(factors):
            assert factor.tolist() == [f[j] for _, _, f in listing]
        # entry (i, j) of rho adds V[i, t] V[j, t] over region-II patterns t in order
        at = {index: a for a, (index, _, _) in enumerate(listing)}
        expected = {}
        for i, j, t in product(range(16), range(16), range(1 << k)):
            if i << k | t in at and j << k | t in at:
                expected.setdefault(16 * i + j, []).append((at[i << k | t], at[j << k | t]))
        assert _products(rounds) == expected


def test_support_table_sizes():
    # the sizes the rindler docstring gives for |W4>
    for positions, amplitudes, entries, rounds in (((2, 3), 12, 37, 2), ((3,), 7, 25, 1)):
        source, _, table_rounds = _labelled_support(positions, (1, 2, 4, 8))
        assert len(source) == amplitudes
        assert len(_products(table_rounds)) == entries
        assert len(table_rounds) == rounds


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
    # the register is |W4> on A, B, C, D: three or five modes, another norm, a
    # NaN or a relative phase is not it, and each gets the one message
    unknown, phased = reference.w_amplitudes(4), reference.w_amplitudes(4)
    unknown[4] = np.nan
    phased[8] = 0.5j
    for psi0 in (reference.w_amplitudes(3), reference.w_amplitudes(5), np.zeros((4, 4)),
                 2 * w_state(4), unknown, phased):
        for scenario in (None, {"D": 0.3}):
            with pytest.raises(ValueError) as info:
                observed_density(psi0, scenario)
            assert str(info.value) == patterns.W4_ONLY
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

    The complex build splits the amplitudes of w_state(4), point by point and
    in complex128, with reference.rindler_split, and traces region II out with
    reference.trace_out_complex.  The observed states stay float64, and their
    complex128 cast, the bytes eigvalsh sees, is compared.  Comparing tobytes
    counts signed zeros too.
    """
    r = np.asarray(r, dtype=float)
    splits = sorted((OBSERVERS.index(obs), j) for j, obs in enumerate(observers))
    for start in range(0, len(r), CHUNK):
        chunk = r[start:start + CHUNK]
        amps = []
        for row in chunk.tolist():
            amp = w_state(4)
            for n, (pos, j) in enumerate(splits, start=4):
                amp = reference.rindler_split(amp, n, pos, row[j])
            amps.append(amp)
        expected = reference.trace_out_complex(np.array(amps))
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
    # at r = 0, sin r times a negative amplitude is -0.0, and rho must still hold +0.0;
    # other amplitudes than |W4>'s take the private builder: the support
    # table of those amplitudes, _built over _checked's split factors, and the
    # dense view of what it built
    psi0 = np.array(psi0) / np.linalg.norm(psi0)
    r = [row[:len(observers)] for row in rows]
    split = _split_factors(observers, r)
    positions = tuple(sorted(map(OBSERVERS.index, observers)))
    table = _support(positions, tuple(psi0.tolist()))
    matrix = table[-1].dense(_built(split, table))
    assert matrix.tobytes() == reference.observed_dense(psi0, observers, r).tobytes()


def test_one_nonzero_pattern_adds_one_support_table():
    # the public path splits |W4>'s one nonzero pattern: one table, with its
    # compact layout, per observer set
    _support.cache_clear()
    observed_densities(w_state(4), ["C", "D"], [[0.2, 0.3]])
    # other values and observer order, the same split modes
    observed_densities(w_state(4), ["D", "C"], [[0.1, 0.4], [0.0, R_MAX]])
    observed_density(w_state(4), {"D": 0.5, "C": 0.1})
    assert _support.cache_info().currsize == 1
    observed_densities(w_state(4), ["D"], [[0.2]])
    assert _support.cache_info().currsize == 2


def test_only_w4_is_observed():
    # a normalized |W4> with one sign flipped, and |W4> with twice its norm:
    # one message, before any state is built, factored or solved
    flipped = w_state(4) * np.array([1.0, -1.0] * 8)
    assert np.linalg.norm(flipped) == 1.0 and flipped[1] == -0.5
    with recorded() as calls:
        for psi0 in (flipped, 2 * w_state(4)):
            for observers, r in ((["D"], [[0.3]]), (["C", "D"], [[0.2, 0.6], [0.4, 0.1]]),
                                 ([], np.empty((1, 0)))):
                with pytest.raises(ValueError) as info:
                    observed_densities(psi0, observers, r)
                assert str(info.value) == patterns.W4_ONLY
    assert calls == []


@pytest.mark.parametrize("observers, r, fragment", [
    (["D"], [[0.1, 0.2]], "shape"),
    (["D"], [0.1, 0.2], "shape"),
    (["D"], [[0.1], [1.0]], "accel: D=1.0 outside"),
    (["D"], [[0.1], [math.nan]], "accel: D=nan outside"),
    (["X"], [[0.1]], "unknown observer"),
    (["D", "D"], [[0.1, 0.2]], "observer 'D' given twice"),
    # the first observer with a bad r is named, with its first bad value
    (["C", "D"], [[0.1, 0.2], [0.3, 1.0]], "^accel: D=1.0 outside"),
    (["C", "D"], [[0.1, 2.0], [-1.0, 0.2]], "^accel: C=-1.0 outside"),
    # the observers are checked before r's domain, so its message names a known one
    (["X"], [[2.0]], "^observers: unknown observer 'X'"),
    (["\n"], [[2.0]], r"^observers: unknown observer '\\n'"),
    # several observers with bad r: the first bad value of the first bad one
    (["C", "D"], [[2.0, 3.0]], r"^accel: C=2\.0 outside"),
    (["C", "D"], [[math.nan, 2.0]], "^accel: C=nan outside"),
    (["C", "D"], [[0.1, 2.0], [math.nan, 0.2]], "^accel: C=nan outside"),
    (["D", "C"], [[2.0, math.nan]], r"^accel: D=2\.0 outside"),
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
