import math

import numpy as np
import pytest

from wtangles.fock import DensityMatrix, w_state
from wtangles import measures
from wtangles.fock import _add_blocks, _trace_blocks, _transposed, partial_transpose
from wtangles.linalg import negative_eigenvalue_sum
from wtangles.measures import (
    COLUMNS,
    _sum_left,
    big_pi4_tangle,
    evaluate,
    tangle_report,
    von_neumann_entropy,
)
from wtangles.rindler import observed_densities, observed_density

from . import patterns, reference

# |W4><W4|, as the pipeline builds it for an all-inertial observation
W4 = observed_density(w_state(4), None)


def _pair(amp):
    return DensityMatrix(reference.projector(amp))


def _bell_pair():
    return _pair(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


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
    with pytest.raises(ValueError, match="unknown measure column"):
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


def test_evaluate_takes_each_spectrum_once(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        shapes.append(m.shape)
        return eigvalsh(m)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    stack = observed_densities(w_state(4), ["C", "D"], [[0.2, 0.6], [0.4, 0.1], [0.7, 0.7]])
    # rho's validation; S reads the spectra it kept
    assert shapes == [(3, 16, 16)]
    shapes.clear()
    evaluate(stack, ["S"])
    assert shapes == []
    evaluate(stack, ["N_AB"])
    # the pair state's validation, then both sides of the pair in one call
    assert shapes == [(3, 1, 4, 4), (3, 1, 2, 4, 4)]
    shapes.clear()
    evaluate(stack, ["pi4", "Pi4", "pi_A", "N_AB"])
    # every 1-3 transpose in one call, every pair state in one, every pair's two sides in one
    assert shapes == [(3, 4, 16, 16), (3, 6, 4, 4), (3, 6, 2, 4, 4)]
    shapes.clear()
    evaluate(stack, ["pi_B", "N_C_rest"])
    assert shapes == [(3, 2, 16, 16), (3, 3, 4, 4), (3, 3, 2, 4, 4)]
    shapes.clear()
    evaluate(stack[1], ["N_AB"])
    assert shapes == [(1, 1, 4, 4), (1, 1, 2, 4, 4)]
    shapes.clear()
    tangle_report(observed_densities(w_state(4), ["D"], [[0.1], [0.5]]))
    assert len(shapes) == 4


def test_index_tables_gather_what_the_fock_kernels_compute():
    stack = observed_densities(w_state(4), ["C", "D"], [[0.2, 0.6], [0.7, 0.1]])
    flat = stack.matrix.reshape(2, -1)
    for column, k in measures.ONE_THREE.items():
        assert np.array_equal(flat[:, measures._TRANSPOSED[column]], partial_transpose(stack, [k]))
    for column, pair in measures.PAIRS.items():
        reduced = DensityMatrix(_add_blocks(_trace_blocks(stack.matrix, 4, list(pair))))
        assert np.array_equal(_add_blocks(flat[:, measures._TRACED[column]]), reduced.matrix)
        sides = reduced.matrix.reshape(2, 16)[:, measures._BOTH_SIDES]
        assert np.array_equal(sides[:, 0], partial_transpose(reduced, [0]))
        assert np.array_equal(sides[:, 1], partial_transpose(reduced, [1]))


def test_plans_are_cached_by_column_tuple():
    plan = measures._plan(("pi_B", "S"))
    assert plan is measures._plan(("pi_B", "S"))
    assert plan.one_three == ("N_B_rest",)
    assert plan.pairs == ("N_AB", "N_BC", "N_BD")
    assert plan.residuals == ("pi_B",)
    assert measures._plan(("S",)).one_three == measures._plan(("S",)).pairs == ()
    assert measures._plan(("S",)).residuals == ()
    assert measures._plan(("pi4",)).pairs == tuple(measures.PAIRS)
    assert measures._plan(("pi4",)).residuals == measures.RESIDUALS


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
    assert _sum_left([1.0, 1e-16, 1e-16]) == 1.0
    # over arrays the fold runs left to right in each element alike
    assert _sum_left(np.array([[1.0, 1e-16], [1e-16, 1.0], [1e-16, 1e-16]])).tolist() == [1.0, 1.0]
    # synthetic tangles at two points: at point 0 pi_A = 2^2 - (1 + 1e-16 + 1e-16),
    # at point 1 the pairs vanish and the residuals are 1, 1e-16, 1e-16 and 0
    spectral = {column: np.zeros(2) for column in (*measures.ONE_THREE, *measures.PAIRS)}
    spectral.update(N_A_rest=np.array([2.0, 1.0]), N_B_rest=np.array([0.0, 1e-8]),
                    N_C_rest=np.array([0.0, 1e-8]), N_AB=np.array([1.0, 0.0]),
                    N_AC=np.array([1e-8, 0.0]), N_AD=np.array([1e-8, 0.0]))
    monkeypatch.setattr(measures, "_spectral_columns", lambda rho, plan: dict(spectral))
    stack = observed_densities(w_state(4), ["D"], [[0.1], [0.3]])
    columns = evaluate(stack, ["pi_A", "pi4"])
    assert columns["pi_A"].tolist()[0] == 3.0
    assert columns["pi4"].tolist()[1] == 0.25


def test_pair_mirror_asymmetry_raises(monkeypatch):
    original = measures.negative_eigenvalue_sum

    def lopsided(m):
        values = original(m)
        if m.shape[-2:] == (4, 4):      # (points, pairs, side): shift side 1 by pair
            values[..., 1] += np.arange(values.shape[-2]) * 1e-9
        return values
    monkeypatch.setattr(measures, "negative_eigenvalue_sum", lopsided)
    stack = observed_densities(w_state(4), ["D"], [[0.1], [0.3]])
    # pairs are stacked in column order: N_AB's sides still agree, N_AD's do not
    with pytest.raises(ValueError, match=r"asymmetry 1\.000e-09 for positions \(0,3\)"):
        evaluate(stack, ["N_AD", "N_AB", "N_A_rest"])
    # the message names the worst pair
    with pytest.raises(ValueError, match=r"asymmetry 2\.000e-09 for positions \(2,3\)"):
        evaluate(stack, ["N_CD", "N_AB", "N_BD"])


def test_geometric_mean_over_a_stack_names_the_worst_residual():
    pi_k = {"A": np.array([1.0, 16.0]), "B": np.array([1.0, 1.0]),
            "C": np.array([1.0, 1.0]), "D": np.array([-5e-11, 1.0])}
    assert big_pi4_tangle(pi_k).tolist() == [0.0, 2.0]
    pi_k["D"] = np.array([-2e-9, -1e-9])
    with pytest.raises(ValueError, match=r"residual tangle D=-2\.000e-09"):
        big_pi4_tangle(pi_k)
    with pytest.raises(ValueError):
        big_pi4_tangle({"A": 1.0, "B": 1.0, "C": 1.0, "D": math.nan})
