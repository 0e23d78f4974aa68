import math

import numpy as np
import pytest

from wtangles.fock import DensityMatrix, ModeLayout, StateVector, pure_to_density, w_state
from wtangles import measures
from wtangles.fock import partial_trace
from wtangles.measures import (
    COLUMNS,
    big_pi4_tangle,
    evaluate,
    negativity,
    tangle_report,
    von_neumann_entropy,
)
from wtangles.rindler import observed_density

from . import patterns


def _bell_pair():
    amp = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return pure_to_density(StateVector(ModeLayout.inertial("A", "B"), amp))


def test_negativity_of_maximally_entangled_pair():
    assert negativity(_bell_pair(), [0]) == pytest.approx(1.0, abs=1e-14)


def test_negativity_of_product_state_is_zero():
    amp = np.array([1.0, 0.0, 0.0, 0.0])
    rho = pure_to_density(StateVector(ModeLayout.inertial("A", "B"), amp))
    assert negativity(rho, [0]) == 0.0


def test_one_three_tangles_inertial():
    values = evaluate(pure_to_density(w_state(4)), [f"N_{obs}_rest" for obs in "ABCD"])
    assert list(values) == ["N_A_rest", "N_B_rest", "N_C_rest", "N_D_rest"]
    for value in values.values():
        assert value == pytest.approx(patterns.N_ONE_THREE_INERTIAL, abs=1e-12)


def test_one_one_tangles_inertial():
    pairs = ["N_AB", "N_AC", "N_AD", "N_BC", "N_BD", "N_CD"]
    values = evaluate(pure_to_density(w_state(4)), pairs)
    assert len(values) == 6
    assert "N_AB" in values and "N_CD" in values
    for value in values.values():
        assert value == pytest.approx(patterns.N_PAIR_CONST, abs=1e-12)


def test_one_two_tangles_inertial():
    # no column carries the 1-2 tangles; they are still one trace and one transpose away
    rho = pure_to_density(w_state(4))
    values = [negativity(partial_trace(rho, [p for p in range(4) if p != dropped]), [local])
              for dropped in range(4) for local in range(3)]
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


def test_residual_pi_inertial():
    pi_k = evaluate(pure_to_density(w_state(4)), [f"pi_{obs}" for obs in "ABCD"])
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
    assert von_neumann_entropy(pure_to_density(w_state(4))) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(ModeLayout.inertial("A", "B"), np.eye(4) / 4.0)
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
    spectra = []

    def counted(name):
        original = getattr(measures, name)

        def wrapper(m):
            spectra.append((name, m.shape[0]))
            return original(m)
        monkeypatch.setattr(measures, name, wrapper)

    counted("hermitian_eigenvalues")
    counted("negative_eigenvalue_sum")
    rho = observed_density(w_state(4), {"C": 0.2, "D": 0.6})
    evaluate(rho, ["S"])
    assert spectra == [("hermitian_eigenvalues", 16)]
    spectra.clear()
    evaluate(rho, ["N_AB"])
    assert spectra == [("negative_eigenvalue_sum", 4)] * 2      # the pair and its mirror
    spectra.clear()
    evaluate(rho, ["pi4", "Pi4", "pi_A", "N_AB"])
    assert len(spectra) == 4 + 6 * 2                            # 1-3 tangles, pairs with mirrors
