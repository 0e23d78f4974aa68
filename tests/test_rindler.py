"""Mode splitting under acceleration and the observed (region-I) state."""

import math

import numpy as np
import pytest

from wtangles.fock import (
    ModeLayout,
    Region,
    StateVector,
    partial_trace,
    partial_transpose,
    pure_to_density,
    w_state,
)
from wtangles.rindler import (
    R_MAX,
    AccelerationParam,
    Scenario,
    acceleration_to_r,
    apply_rindler,
    observed_density,
)

from . import patterns


def test_parameter_range_validation():
    AccelerationParam(0.0)
    AccelerationParam(R_MAX)
    with pytest.raises(ValueError):
        AccelerationParam(-0.01)
    with pytest.raises(ValueError):
        AccelerationParam(R_MAX + 0.01)


def test_parameter_trig_shortcuts():
    p = AccelerationParam(0.3)
    assert p.sin_r == pytest.approx(math.sin(0.3))
    assert p.cos_r == pytest.approx(math.cos(0.3))


def test_acceleration_to_r_limits():
    assert acceleration_to_r(0.0, 1.0).r == 0.0
    assert acceleration_to_r(math.inf, 1.0).r == pytest.approx(R_MAX)


def test_acceleration_to_r_matches_definition():
    param = acceleration_to_r(2.0, 0.7, light_speed=1.3)
    # cos r = (exp(-2 pi omega c / a) + 1)^(-1/2)
    expected = (math.exp(-2.0 * math.pi * 0.7 * 1.3 / 2.0) + 1.0) ** -0.5
    assert param.cos_r == pytest.approx(expected, abs=1e-15)


def test_acceleration_to_r_monotone():
    rs = [acceleration_to_r(a, 1.0).r for a in (0.5, 1.0, 2.0, 8.0, 100.0)]
    assert rs == sorted(rs)
    assert all(0.0 < r < R_MAX for r in rs)


def test_acceleration_to_r_validation():
    with pytest.raises(ValueError):
        acceleration_to_r(-1.0, 1.0)
    with pytest.raises(ValueError):
        acceleration_to_r(1.0, 0.0)


def test_scenario_wraps_bare_floats():
    scenario = Scenario.of({"D": 0.2}, C=AccelerationParam(0.1))
    params = scenario.params()
    assert set(params) == {"C", "D"}
    assert params["D"].r == 0.2
    assert params["C"].r == 0.1


def test_vacuum_mode_splits_into_both_wedges():
    psi = apply_rindler(StateVector(ModeLayout.inertial("A"), np.array([1.0, 0.0])), "A", 0.3)
    assert psi.layout.labels() == ("A_I", "A_II")
    amp = psi.amplitudes
    assert amp[0] == pytest.approx(math.cos(0.3))    # |0_I 0_II>
    assert amp[3] == pytest.approx(math.sin(0.3))    # |1_I 1_II>
    assert amp[1] == amp[2] == 0.0


def test_occupied_mode_stays_in_region_one():
    psi = apply_rindler(StateVector(ModeLayout.inertial("A"), np.array([0.0, 1.0])), "A", 0.3)
    amp = psi.amplitudes
    assert amp[2] == pytest.approx(1.0)              # |1_I 0_II>
    assert amp[0] == amp[1] == amp[3] == 0.0


def test_w4_splits_into_seven_terms():
    r = 0.4
    psi = apply_rindler(w_state(4), "D", r)
    assert psi.layout.labels() == ("A", "B", "C", "D_I", "D_II")
    amp = psi.amplitudes
    for index in (16, 8, 4):
        assert amp[index] == pytest.approx(0.5 * math.cos(r))
    for index in (19, 11, 7):
        assert amp[index] == pytest.approx(0.5 * math.sin(r))
    assert amp[2] == pytest.approx(0.5)
    assert np.count_nonzero(amp) == 7


def test_split_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(8):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = StateVector(ModeLayout.inertial("A", "B", "C"), v / np.linalg.norm(v))
        out = apply_rindler(psi, "B", float(rng.uniform(0.0, R_MAX)))
        assert np.vdot(out.amplitudes, out.amplitudes).real == pytest.approx(1.0, abs=1e-12)


def test_split_errors():
    with pytest.raises(ValueError):
        apply_rindler(w_state(4), "E", 0.2)
    once = apply_rindler(w_state(4), "D", 0.2)
    with pytest.raises(ValueError):
        apply_rindler(once, "D", 0.2)


def test_observed_density_inertial_is_pure():
    rho = observed_density(w_state(4), None)
    assert rho.layout.labels() == ("A", "B", "C", "D")
    w = np.linalg.eigvalsh(rho.matrix)
    assert w[-1] == pytest.approx(1.0, abs=1e-12)


def test_observed_density_layouts():
    one = observed_density(w_state(4), {"D": 0.2})
    assert one.layout.labels() == ("A", "B", "C", "D_I")
    two = observed_density(w_state(4), {"D": 0.2, "C": 0.5})
    assert two.layout.labels() == ("A", "B", "C_I", "D_I")


def test_observed_density_rejects_bad_input():
    with pytest.raises(ValueError):
        observed_density(w_state(4), {"X": 0.1})
    split = apply_rindler(w_state(4), "D", 0.1)
    with pytest.raises(ValueError):
        observed_density(split, {"C": 0.1})


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
    ab = partial_trace(rho, [0, 1])
    np.testing.assert_allclose(partial_transpose(ab, [0]).real,
                               patterns.PAIR_INERTIAL_PT, atol=1e-12)
    ad = partial_trace(rho, [0, 3])
    np.testing.assert_allclose(partial_transpose(ad, [0]).real,
                               patterns.pair_mixed_pt(r_d), atol=1e-12)


def test_pair_form_unchanged_by_second_acceleration():
    rho = observed_density(w_state(4), {"C": 0.33, "D": 0.52})
    ad = partial_trace(rho, [0, 3])
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
    flipped = apply_rindler(apply_rindler(w_state(4), "D", 0.5), "C", 0.3)
    rho = pure_to_density(flipped)
    hidden = set(flipped.layout.positions(Region.RINDLER_II))
    reduced = partial_trace(rho, [p for p in range(flipped.layout.n) if p not in hidden])
    assert reduced.layout.labels() == ("A", "B", "C_I", "D_I")
    np.testing.assert_allclose(reduced.matrix, base, atol=1e-14)
