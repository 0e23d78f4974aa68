import math
import re
from itertools import groupby
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtangles.checks import run_check
from wtangles.fock import DensityMatrix, w_state
from wtangles import ConfigError, fock, measures, rindler
from wtangles.fock import _add_blocks, _trace_blocks, _transposed, partial_transpose
from wtangles.linalg import negative_eigenvalue_sum
from wtangles.measures import (
    COLUMNS,
    big_pi4_tangle,
    evaluate,
    evaluate_points,
    tangle_report,
    von_neumann_entropy,
)
from wtangles.rindler import R_MAX, observed_densities, observed_density
from wtangles.sweep import PRESETS, sweep_points

from . import patterns, reference
from .lapack import ROUTES, recorded, shifted

# |W4><W4|, as the pipeline builds it for an all-inertial observation
W4 = observed_density(w_state(4), None)


def _pair(amp):
    return DensityMatrix(reference.projector(amp))


def _bell_pair():
    return _pair(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


def _complex_w4(k):
    """|W4><W4| with amplitude 0.5j on mode k, so its pair states with k are complex."""
    amp = reference.w_amplitudes(4)
    amp[1 << (3 - k)] *= 1j
    return DensityMatrix(np.outer(amp, amp.conj()))


def test_negativity_of_maximally_entangled_pair():
    value = negative_eigenvalue_sum(partial_transpose(_bell_pair(), [0]))
    assert value == pytest.approx(1.0, abs=1e-14)


def test_negativity_of_product_state_is_zero():
    assert negative_eigenvalue_sum(partial_transpose(_pair([1.0, 0.0, 0.0, 0.0]), [0])) == 0.0


def test_one_three_tangles_inertial():
    values = evaluate(W4, [f"N_{obs}_rest" for obs in "ABCD"])
    assert list(values) == ["N_A_rest", "N_B_rest", "N_C_rest", "N_D_rest"]
    for value in values.values():
        assert value == pytest.approx(patterns.N_ONE_THREE_INERTIAL, abs=1e-12)


def test_one_one_tangles_inertial():
    pairs = ["N_AB", "N_AC", "N_AD", "N_BC", "N_BD", "N_CD"]
    values = evaluate(W4, pairs)
    assert len(values) == 6
    assert "N_AB" in values and "N_CD" in values
    for value in values.values():
        assert value == pytest.approx(patterns.N_PAIR_CONST, abs=1e-12)


def test_one_two_tangles_inertial():
    # no column carries the 1-2 tangles; they are still one trace and one transpose away
    values = []
    for dropped in range(4):
        kept = [p for p in range(4) if p != dropped]
        reduced = _add_blocks(_trace_blocks(W4.matrix, 4, kept))
        values += [negative_eigenvalue_sum(_transposed(reduced, 3, [local])) for local in range(3)]
    assert len(values) == 12
    for value in values:
        assert value == pytest.approx(patterns.N_ONE_TWO_INERTIAL, abs=1e-12)


def test_measures_reject_wrong_mode_count():
    rho = _bell_pair()
    for columns in (["N_A_rest"], ["N_AB"], ["S"]):
        with pytest.raises(ValueError):
            evaluate(rho, columns)
    with pytest.raises(ValueError):
        tangle_report(rho)
    # a valid two-mode state, or a stack of them, is one line naming its shape
    for state in (rho, rho[None]):
        with pytest.raises(ValueError) as excinfo:
            evaluate(state, ["S"])
        assert str(excinfo.value) == (
            f"measures need a four-mode state, got shape {state.matrix.shape}")


def test_residual_pi_inertial():
    pi_k = evaluate(W4, [f"pi_{obs}" for obs in "ABCD"])
    assert len(pi_k) == 4
    for value in pi_k.values():
        assert value == pytest.approx(patterns.RESIDUAL_INERTIAL, abs=1e-10)


def test_residual_pi_input_validation():
    rho = observed_density(w_state(4), {"C": 0.2, "D": 0.6})
    values = tangle_report(rho)
    pairs = values["N_AB"] ** 2 + values["N_AC"] ** 2 + values["N_AD"] ** 2
    assert values["pi_A"] == values["N_A_rest"] ** 2 - pairs
    message = f"unknown measure 'pi_E'; known: {', '.join(COLUMNS)}, or all"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate(rho, ["pi_E"])


def test_mean_tangles_on_plain_numbers():
    pi_k = {"A": 1.0, "B": 4.0, "C": 1.0, "D": 4.0}
    assert big_pi4_tangle(pi_k) == pytest.approx(2.0)


def test_geometric_mean_clips_roundoff_but_rejects_real_negatives():
    assert big_pi4_tangle({"A": 1.0, "B": 1.0, "C": 1.0, "D": -5e-11}) == 0.0
    with pytest.raises(ValueError):
        big_pi4_tangle({"A": 1.0, "B": 1.0, "C": 1.0, "D": -1e-9})


def test_mean_tangles_need_four_entries():
    with pytest.raises(ValueError):
        big_pi4_tangle({"A": 1.0})


def test_entropy_pure_and_maximally_mixed():
    assert von_neumann_entropy(W4) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(4) / 4.0)
    assert von_neumann_entropy(mixed) == pytest.approx(math.log(4.0), abs=1e-14)


def test_entropy_frozen_values_under_acceleration():
    one = observed_density(w_state(4), {"D": math.pi / 4})
    assert von_neumann_entropy(one) == pytest.approx(patterns.ENTROPY_LIMIT_ONE, abs=1e-12)
    mid = observed_density(w_state(4), {"D": 0.3})
    assert von_neumann_entropy(mid) == pytest.approx(patterns.ENTROPY_AT_03, abs=1e-12)
    two = observed_density(w_state(4), {"C": math.pi / 4, "D": math.pi / 4})
    assert von_neumann_entropy(two) == pytest.approx(patterns.ENTROPY_LIMIT_TWO, abs=1e-12)


def test_tangle_report_bundle_is_consistent():
    rho = observed_density(w_state(4), {"D": 0.3})
    report = tangle_report(rho)
    assert tuple(report) == COLUMNS
    assert report["N_D_rest"] == pytest.approx(patterns.N_ACCEL_AT_03, abs=1e-12)
    pi_k = [report[f"pi_{obs}"] for obs in "ABCD"]
    assert report["pi4"] == pytest.approx(sum(pi_k) / 4.0)
    product = 1.0
    for value in pi_k:
        product *= max(value, 0.0)
    assert report["Pi4"] == pytest.approx(product ** 0.25)
    assert evaluate(rho, ["S", "N_AB"]) == {"S": report["S"], "N_AB": report["N_AB"]}


def _pair_states(rho, *columns):
    """The (N, P, 4, 4) pair states of a stack, from fock's own kernels."""
    return np.stack([_add_blocks(_trace_blocks(rho.matrix, 4, list(measures.PAIRS[column])))
                     for column in columns], axis=1)


def test_evaluate_takes_each_spectrum_once():
    # the validated stacks and the eigensolves, pinned separately; each
    # validated stack is factored block by block, its blocks its slices in
    # order, shifted on the diagonal and nothing else, of at most
    # _BLOCK_BYTES, and nothing else is factored
    def taken(*validated):
        """The shapes eigvalsh got since the last call, once the factorization
        is seen to have got the validated stacks and nothing else."""
        blocks = [call.array for call in calls if call.route == "cholesky"]
        assert all(block.nbytes <= fock._BLOCK_BYTES for block in blocks)
        # the blocks of one matrix size in a row make up one validated stack
        runs = [np.concatenate(list(run)) for _, run in groupby(blocks, lambda block: block.shape[-1])]
        assert [run.tobytes() for run in runs] == [
            shifted(stack.reshape((-1,) + stack.shape[-2:])).tobytes() for stack in validated]
        solved = [call.array.shape for call in calls if call.route == "eigvalsh"]
        calls.clear()
        return solved
    with recorded() as calls:
        stack = observed_densities(w_state(4), ["C", "D"], [[0.2, 0.6], [0.4, 0.1], [0.7, 0.7]])
        # rho's validation factors it and takes no spectrum
        assert taken(stack.matrix) == []
        # a rho chunk is factored in more than one block
        chunk = observed_densities(w_state(4), ["C", "D"], np.full((measures.CHUNK, 2), 0.3))
        assert len(calls) > 1 and taken(chunk.matrix) == []
        # S takes rho's one eigensolve
        evaluate(stack, ["S"])
        assert taken() == [(3, 16, 16)]
        evaluate(stack, ["N_AB"])
        # the pair state's validation, then side 0 of the pair, which gives the value
        assert taken(_pair_states(stack, "N_AB")) == [(3, 1, 4, 4)]
        evaluate(stack, ["pi4", "Pi4", "pi_A", "N_AB"])
        # every 1-3 transpose in one call, every distinct pair state in one and
        # its side 0 in one: with C and D accelerated rho_AC = rho_BC and
        # rho_AD = rho_BD, so the first of each is taken
        assert taken(_pair_states(stack, "N_AB", "N_AC", "N_AD", "N_CD")) == [
            (3, 4, 16, 16), (3, 4, 4, 4)]
        evaluate(stack, ["pi_B", "N_C_rest"])
        assert taken(_pair_states(stack, "N_AB", "N_BC", "N_BD")) == [(3, 2, 16, 16), (3, 3, 4, 4)]
        evaluate(stack[1], ["N_AB"])
        assert taken(_pair_states(stack[1][None], "N_AB")) == [(1, 1, 4, 4)]
        rho = observed_densities(w_state(4), ["D"], [[0.1], [0.5]])
        tangle_report(rho)
        # with D accelerated rho_AB = rho_AC = rho_BC and rho_AD = rho_BD = rho_CD
        assert taken(rho.matrix, _pair_states(rho, "N_AB", "N_AD")) == [
            (2, 4, 16, 16), (2, 2, 4, 4), (2, 16, 16)]
        # a complex state takes the same two pair calls: side 0 alone gives the
        # values; with the phase on D, rho_AD = rho_BD = rho_CD
        rho = _complex_w4(3)
        calls.clear()
        evaluate(rho, ["N_AB", "N_AD", "N_BD", "N_CD"])
        assert taken(_pair_states(rho[None], "N_AB", "N_AD")) == [(1, 2, 4, 4)]


def test_index_tables_gather_what_the_fock_kernels_compute():
    stack = observed_densities(w_state(4), ["C", "D"], [[0.2, 0.6], [0.7, 0.1]])
    flat = stack.matrix.reshape(2, -1)
    for column, k in measures.ONE_THREE.items():
        assert np.array_equal(flat[:, measures._TRANSPOSED[column]], partial_transpose(stack, [k]))
    for column, pair in measures.PAIRS.items():
        reduced = DensityMatrix(_add_blocks(_trace_blocks(stack.matrix, 4, list(pair))))
        assert np.array_equal(_add_blocks(flat[:, measures._TRACED[column]]), reduced.matrix)
        side = reduced.matrix.reshape(2, 16)[:, measures._PAIR_TRANSPOSED]
        assert np.array_equal(side, partial_transpose(reduced, [0]))


def test_plans_are_cached_by_column_tuple():
    plan = measures._plan(("pi_B", "S"))
    assert plan is measures._plan(("pi_B", "S"))
    columns, one_three, pairs, residuals = plan
    assert columns == ("pi_B", "S")
    assert one_three == ("N_B_rest",)
    assert pairs == ("N_AB", "N_BC", "N_BD")
    assert residuals == ("pi_B",)
    assert measures._plan(("S",)) == (("S",), (), (), ())
    _, one_three, pairs, residuals = measures._plan(("pi4",))
    assert one_three == tuple(measures.ONE_THREE)
    assert pairs == tuple(measures.PAIRS)
    assert residuals == measures.RESIDUALS


def test_evaluate_stack_and_single_state_agree():
    r = [[0.2, 0.6], [0.4, 0.1], [math.pi / 4, 0.0]]
    stack = observed_densities(w_state(4), ["C", "D"], r)
    columns = evaluate(stack, COLUMNS)
    for p, (r_c, r_d) in enumerate(r):
        single = tangle_report(observed_density(w_state(4), {"C": r_c, "D": r_d}))
        assert single == {column: float(values[p]) for column, values in columns.items()}
    with pytest.raises(ValueError, match="stack"):
        evaluate(DensityMatrix(stack.matrix[None]), ["S"])


def test_sums_run_left_to_right(monkeypatch):
    # a compensated sum, as builtin sum() is from Python 3.12 on, differs here
    assert math.fsum([1.0, 1e-16, 1e-16]) == 1.0000000000000002
    assert (1.0 + 1e-16) + 1e-16 == 1.0
    # synthetic tangles at two points: at point 0 pi_A = 2^2 - (1 + 1e-16 + 1e-16),
    # at point 1 the pairs vanish and the residuals are 1, 1e-16, 1e-16 and 0
    spectral = {column: np.zeros(2) for column in (*measures.ONE_THREE, *measures.PAIRS)}
    spectral.update(N_A_rest=np.array([2.0, 1.0]), N_B_rest=np.array([0.0, 1e-8]),
                    N_C_rest=np.array([0.0, 1e-8]), N_AB=np.array([1.0, 0.0]),
                    N_AC=np.array([1e-8, 0.0]), N_AD=np.array([1e-8, 0.0]))
    monkeypatch.setattr(measures, "_spectral_columns", lambda rho, one_three, pairs: dict(spectral))
    stack = observed_densities(w_state(4), ["D"], [[0.1], [0.3]])
    columns = evaluate(stack, ["pi_A", "pi4"])
    assert columns["pi_A"].tolist()[0] == 3.0
    assert columns["pi4"].tolist()[1] == 0.25


@settings(max_examples=200)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_negativity_is_the_same_from_either_side(seed):
    # a pair's negativity is taken from its partial transpose on the first
    # mode alone; the one on the second mode, its transpose, agrees on any
    # exactly Hermitian complex state
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m = m + m.conj().T
    pair = m / m.trace().real
    assert np.abs(pair - pair.conj().T).max() == 0.0
    side0, side1 = (negative_eigenvalue_sum(_transposed(pair, 2, [k])) for k in (0, 1))
    assert abs(side0 - side1) <= 1e-12


@pytest.mark.parametrize("k", range(4))
def test_pair_columns_match_the_two_sided_reference_on_complex_states(k):
    rho = _complex_w4(k)
    values = evaluate(rho[None], list(measures.PAIRS))
    sides = reference.pair_negativities(rho.matrix)
    assert np.array([side0 for side0, _ in sides]).tobytes() == \
        np.concatenate([values[column] for column in measures.PAIRS]).tobytes()
    assert max(abs(side0 - side1) for side0, side1 in sides) <= 1e-12


@settings(max_examples=20)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), points=st.integers(1, 4),
       observers=st.sampled_from([("D",), ("C", "D"), ("B", "D", "A"), ("A", "B", "C", "D")]))
def test_pair_columns_match_the_two_sided_reference(seed, points, observers):
    # the N_XY columns, from side 0 alone, hold the bytes of a route that
    # solves both sides of each pair state one matrix at a time; on a real
    # state the two sides give the same value
    r = np.random.default_rng(seed).uniform(0.0, R_MAX, (points, len(observers)))
    r[0, 0] = R_MAX
    columns = measures.evaluate_points(observers, r, list(measures.PAIRS))
    for p, m in enumerate(observed_densities(w_state(4), observers, r).matrix):
        sides = reference.pair_negativities(m)
        assert all(side0 == side1 for side0, side1 in sides)
        assert np.array([side0 for side0, _ in sides]).tobytes() == \
            np.array([columns[column][p] for column in measures.PAIRS]).tobytes()


def _entropy_row_by_row(spectra):
    """S of each spectrum on its own: -sum(w ln w) over its positive eigenvalues."""
    entropies = []
    for w in spectra.reshape(-1, spectra.shape[-1]):
        w = w[w > 0.0]
        entropies.append(float(-(w * np.log(w)).sum()))
    return np.array(entropies).reshape(spectra.shape[:-1])


@settings(max_examples=20)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), points=st.integers(1, 70))
def test_entropy_groups_keep_the_bits_of_each_spectrum(seed, points):
    # the spectra of one stack hold different numbers of positive eigenvalues,
    # roundoff ones among them, in a range set by the accelerated observers
    rng = np.random.default_rng(seed)
    for observers in ([], ["D"], ["B", "D"], ["A", "C", "D"], ["A", "B", "C", "D"]):
        rho = observed_densities(w_state(4), observers,
                                 rng.uniform(0.0, R_MAX, (points, len(observers))))
        # rho is float64; its spectra are those of its complex128 cast
        spectra = np.linalg.eigvalsh(rho.matrix.astype(complex))
        assert von_neumann_entropy(rho).tobytes() == _entropy_row_by_row(spectra).tobytes()
        assert von_neumann_entropy(rho[0]).tobytes() == _entropy_row_by_row(spectra[0]).tobytes()


def test_entropy_of_a_spectrum_without_positive_eigenvalues():
    # von_neumann_entropy reads only the spectra of the matrices it is given,
    # here diagonal ones; a row with none positive gives -0.0
    spectra = np.array([[-1e-17, 0.0, 0.25, 0.75], [-0.5, -0.25, -0.0, 0.0],
                        [0.1, 0.2, 0.3, 0.4], [-1e-17, 0.0, 0.5, 0.5]])
    matrices = spectra[:, :, None] * np.eye(4)
    assert np.array_equal(np.linalg.eigvalsh(matrices), spectra)
    entropies = von_neumann_entropy(SimpleNamespace(matrix=matrices))
    assert entropies.tobytes() == _entropy_row_by_row(spectra).tobytes()
    assert math.copysign(1.0, entropies[1]) == -1.0 and entropies[1] == 0.0


def test_geometric_mean_over_a_stack_names_the_worst_residual():
    pi_k = {"A": np.array([1.0, 16.0]), "B": np.array([1.0, 1.0]),
            "C": np.array([1.0, 1.0]), "D": np.array([-5e-11, 1.0])}
    assert big_pi4_tangle(pi_k).tolist() == [0.0, 2.0]
    pi_k["D"] = np.array([-2e-9, -1e-9])
    with pytest.raises(ValueError, match=r"residual tangle D=-2\.000e-09"):
        big_pi4_tangle(pi_k)
    with pytest.raises(ValueError) as info:
        big_pi4_tangle({"A": 1.0, "B": 1.0, "C": 1.0, "D": math.nan})
    assert str(info.value) == "residual tangle D is not a number"


def test_evaluate_points_needs_a_point():
    # no point: rindler._checked's shape message, which names the caller's r
    for r, shape in (([], r"\(0,\)"), (np.empty((0, 1)), r"\(0, 1\)")):
        with pytest.raises(ValueError, match=rf"^r has shape {shape}, want \(points >= 1, 1\)$"):
            measures.evaluate_points(["D"], r, ["S"])


def test_evaluate_points_names_the_shape_of_a_scalar_r():
    # a scalar gets the (N, k) shape message that a 1-D r gets from observed_densities
    for r, shape in ((0.3, r"\(\)"), ([0.3], r"\(1,\)")):
        with pytest.raises(ValueError, match=rf"r has shape {shape}, want \(points >= 1, 1\)"):
            measures.evaluate_points(["D"], r, ["S"])


def test_evaluate_points_names_the_shape_of_the_whole_r():
    # above CHUNK points, the message names the caller's r, not its first chunk
    for r, shape in ((np.zeros((100, 3)), r"\(100, 3\)"), (np.zeros(100), r"\(100,\)")):
        with pytest.raises(ValueError, match=rf"^r has shape {shape}, want \(points >= 1, 2\)$"):
            measures.evaluate_points(("C", "D"), r, ["S"])


def test_evaluate_points_rejects_a_bad_r_before_any_solve():
    # the bad value sits in the second chunk; no chunk is built, factored or solved
    r = np.full((100, 2), 0.3)
    r[80, 1] = 1.0
    with recorded() as calls:
        with pytest.raises(ValueError, match=r"^accel: D=1\.0 outside \[0, pi/4\]$"):
            measures.evaluate_points(("C", "D"), r, ["S", "N_CD"])
    assert calls == []


def test_evaluate_points_checks_its_points_once(monkeypatch):
    r = np.random.default_rng(7).uniform(0.0, R_MAX, (2 * measures.CHUNK + 1, 2))
    expected = measures.evaluate_points(("C", "D"), r, COLUMNS)
    checked = []
    out_of_domain = rindler.out_of_domain

    def counting(values):
        checked.append(np.shape(values))
        return out_of_domain(values)

    monkeypatch.setattr(rindler, "out_of_domain", counting)
    values = measures.evaluate_points(("C", "D"), r, COLUMNS)
    assert checked == [r.shape]
    assert list(values) == list(expected)
    for column in COLUMNS:
        assert values[column].tobytes() == expected[column].tobytes()


def test_evaluate_points_reads_a_one_shot_iterable_of_columns():
    # more than one chunk, each of which reads the columns
    r = np.linspace(0.0, 0.7, measures.CHUNK + 1)[:, None]
    by_list = measures.evaluate_points(["D"], r, ["S", "N_AD"])
    by_iterator = measures.evaluate_points(["D"], r, iter(["S", "N_AD"]))
    assert list(by_iterator) == ["S", "N_AD"]
    for column in by_list:
        np.testing.assert_array_equal(by_iterator[column], by_list[column])



def _assert_same_bytes(got, want):
    assert list(got) == list(want)
    for column in want:
        assert np.asarray(got[column]).tobytes() == np.asarray(want[column]).tobytes()


@pytest.mark.parametrize("request_, columns", [
    ("pi4", ["pi4"]),
    ([" S"], ["S"]),
    (["all"], COLUMNS),
    (["S", "", " all", "S"], ("S", *COLUMNS[:-1])),
], ids=["bare", "stripped", "all", "all-among-names"])
def test_columns_are_read_as_every_name_list_is(request_, columns):
    # more than one chunk, and a single state as well as a stack
    r = np.random.default_rng(5).uniform(0.0, R_MAX, (measures.CHUNK + 1, 2))
    rho = observed_densities(w_state(4), ["C", "D"], r[:3])
    for state in (rho, rho[0]):
        _assert_same_bytes(evaluate(state, request_), evaluate(state, columns))
    _assert_same_bytes(evaluate_points(("C", "D"), r, request_),
                       evaluate_points(("C", "D"), r, columns))


@pytest.mark.parametrize("request_, message", [
    ([], "measure: empty selection"),
    (["", " "], "measure: empty selection"),
    (["S", "nope"], f"unknown measure 'nope'; known: {', '.join(COLUMNS)}, or all"),
], ids=["none", "blank", "unknown"])
def test_evaluate_points_rejects_a_bad_request_before_any_solve(request_, message):
    observers, r = sweep_points(PRESETS["fig7"])
    with recorded() as calls:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            evaluate_points(observers, r, request_)
    assert calls == []


def test_evaluate_points_names_a_bad_r_before_a_bad_request():
    r = np.full((100, 2), 0.3)
    r[80, 1] = 1.0
    with pytest.raises(ValueError, match=r"^accel: D=1\.0 outside \[0, pi/4\]$"):
        evaluate_points(("C", "D"), r, ["nope"])
    with pytest.raises(ValueError, match=r"^r has shape \(5, 3\), want \(points >= 1, 2\)$"):
        evaluate_points(("C", "D"), np.zeros((5, 3)), [])


def test_evaluate_rejects_an_empty_stack():
    empty = observed_densities(w_state(4), ["D"], [[0.3]])[0:0]
    for run in (lambda: tangle_report(empty), lambda: evaluate(empty, ["S"])):
        with pytest.raises(ValueError, match="^evaluate needs at least one state, got an empty stack$"):
            run()


def _assert_real_states_complex_spectra(calls):
    # every spectrum is the complex solver's, whose bits the goldens pin, and
    # every positivity factorization gets a real state: rho or a pair state
    dtypes = {route: {call.array.dtype for call in calls if call.route == route} for route in ROUTES}
    assert dtypes == {"eigvalsh": {np.dtype(np.complex128)}, "cholesky": {np.dtype(np.float64)}}
    assert {call.kind for call in calls if call.route == "cholesky"} == {"rho factored", "pair states"}


@pytest.mark.parametrize("observers", [(), ("D",), ("C", "D")])
def test_solvers_get_real_states_and_complex_spectra(observers):
    r = np.linspace(0.0, R_MAX, 5)[:, None].repeat(len(observers), axis=1)
    with recorded() as calls:
        evaluate_points(observers, r, COLUMNS)
    _assert_real_states_complex_spectra(calls)
    # the 1-3 stack, the pair transposes and rho for S
    assert [call.kind for call in calls if call.route == "eigvalsh"] == [
        "1-3 transposes", "pair sides", "rho diagonalized"]


def test_oracle_checks_give_solvers_real_states_and_complex_spectra():
    with recorded() as calls:
        assert all(result.passed for result in run_check())
    _assert_real_states_complex_spectra(calls)
