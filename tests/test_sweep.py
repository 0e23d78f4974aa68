import hashlib
import io
import math
from dataclasses import replace
from pathlib import Path

import pytest

from wtangles.measures import COLUMNS
from wtangles.oracles import n_pair_accel_one
from wtangles.sweep import (
    DEFAULT_GRID_1D,
    DEFAULT_GRID_2D,
    PRESETS,
    AxisSpec,
    ConfigError,
    SweepConfig,
    normalize_measures,
    run_sweep,
    write_csv,
)

from . import patterns

DATA = Path(__file__).with_name("data")
R_MAX = math.pi / 4
EXPECTED_PRESETS = {
    "fig1a", "fig1b", "fig2", "fig3", "fig4a", "fig4b",
    "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9",
}


def fixed(observer, r):
    return AxisSpec(observer, r, r)


def swept(observer, lo=0.0, hi=R_MAX):
    return AxisSpec(observer, lo, hi)


def test_normalize_groups_and_dedup():
    assert normalize_measures(["one_three"]) == ("N_A_rest", "N_B_rest", "N_C_rest", "N_D_rest")
    assert normalize_measures(["one_one"]) == ("N_AB", "N_AC", "N_AD", "N_BC", "N_BD", "N_CD")
    assert normalize_measures(["pi"]) == ("pi_A", "pi_B", "pi_C", "pi_D")
    assert normalize_measures(["S", "entropy", "pi4"]) == ("S", "pi4")
    assert normalize_measures(["all"]) == COLUMNS


@pytest.mark.parametrize("alias, column", [
    ("N_D1_ABC", "N_D_rest"),
    ("N_DI_ABC", "N_D_rest"),
    ("N_A_D1", "N_AD"),
    ("N_D1_A", "N_AD"),
    ("N_C1_D1", "N_CD"),
    ("pi_C1", "pi_C"),
    ("pi_CI", "pi_C"),
])
def test_region_tagged_aliases(alias, column):
    assert normalize_measures([alias]) == (column,)


def test_unknown_or_empty_measures_raise():
    with pytest.raises(ConfigError):
        normalize_measures(["N_XY"])
    with pytest.raises(ConfigError):
        normalize_measures([])


@pytest.mark.parametrize("config", [
    SweepConfig(accelerated=(swept("X"),)),
    SweepConfig(accelerated=(fixed("D", 0.1), fixed("D", 0.2))),
    SweepConfig(accelerated=(AxisSpec("D", -0.2, 0.3),)),
    SweepConfig(accelerated=(AxisSpec("D", 0.0, 1.0),)),
    SweepConfig(accelerated=(AxisSpec("D", 0.5, 0.1),)),
    SweepConfig(accelerated=(swept("D"),), grid=1),
    SweepConfig(accelerated=(swept("B"), swept("C"), swept("D"))),
    SweepConfig(accelerated=(swept("D"),), diagonal=True),
    SweepConfig(accelerated=(AxisSpec("C", 0.0, 0.5), AxisSpec("D", 0.0, 0.7)), diagonal=True),
])
def test_invalid_configs_raise(config):
    with pytest.raises(ConfigError):
        run_sweep(config)


def test_all_axes_fixed_yields_single_row():
    header, rows = run_sweep(SweepConfig(accelerated=(fixed("D", 0.3),), measures=("S",)))
    assert header == ["S"]
    assert len(rows) == 1
    assert rows[0][0] == pytest.approx(patterns.ENTROPY_AT_03, abs=1e-12)


def test_one_axis_endpoints_hit_frozen_values():
    config = SweepConfig(accelerated=(swept("D"),), grid=3,
                         measures=("N_D_rest", "N_AD", "pi4", "Pi4", "S"))
    header, rows = run_sweep(config)
    assert header == ["r_D", "N_D_rest", "N_AD", "pi4", "Pi4", "S"]
    first, _, last = rows
    assert first[0] == 0.0
    assert first[1] == pytest.approx(patterns.N_ONE_THREE_INERTIAL, abs=1e-12)
    assert first[2] == pytest.approx(patterns.N_PAIR_CONST, abs=1e-12)
    assert first[3] == pytest.approx(patterns.RESIDUAL_INERTIAL, abs=1e-10)
    assert first[4] == pytest.approx(first[3], abs=1e-10)    # means coincide at r = 0
    assert first[5] == pytest.approx(0.0, abs=1e-12)
    assert last[0] == pytest.approx(R_MAX)
    assert last[1] == pytest.approx(patterns.N_ACCEL_LIMIT, abs=1e-10)
    assert last[2] == pytest.approx(0.0, abs=1e-10)
    assert last[5] == pytest.approx(patterns.ENTROPY_LIMIT_ONE, abs=1e-10)


def test_two_axis_rows_in_lexicographic_order():
    config = SweepConfig(accelerated=(swept("C"), swept("D")), grid=2, measures=("S",))
    header, rows = run_sweep(config)
    assert header[:2] == ["r_C", "r_D"]
    coords = [(row[0], row[1]) for row in rows]
    assert coords == [(0.0, 0.0), (0.0, R_MAX), (R_MAX, 0.0), (R_MAX, R_MAX)]


def test_two_axis_row_count():
    config = SweepConfig(accelerated=(swept("C"), swept("D")), grid=4, measures=("S",))
    _, rows = run_sweep(config)
    assert len(rows) == 16


def test_axis_order_follows_observer_not_input_order():
    config = SweepConfig(accelerated=(swept("D"), swept("C")), grid=2, measures=("S",))
    header, _ = run_sweep(config)
    assert header[:2] == ["r_C", "r_D"]


def test_diagonal_sweep_shares_one_axis():
    config = SweepConfig(accelerated=(swept("C"), swept("D")), grid=5,
                         measures=("N_CD",), diagonal=True)
    header, rows = run_sweep(config)
    assert header == ["r_C", "r_D", "N_CD"]
    assert len(rows) == 5
    for row in rows:
        assert row[0] == row[1]
    assert rows[0][2] == pytest.approx(patterns.N_PAIR_CONST, abs=1e-12)
    assert rows[-1][2] == 0.0      # past the vanishing threshold


def test_fixed_axis_combines_with_swept_axis():
    config = SweepConfig(accelerated=(fixed("C", 0.2), swept("D")), grid=3, measures=("N_AC",))
    header, rows = run_sweep(config)
    assert header == ["r_D", "N_AC"]
    for row in rows:
        # independent of the swept partner acceleration
        assert row[1] == pytest.approx(n_pair_accel_one(0.2), abs=1e-11)


def test_default_grid_sizes():
    assert DEFAULT_GRID_1D == 101
    assert DEFAULT_GRID_2D == 41
    _, rows = run_sweep(SweepConfig(accelerated=(swept("D"),), measures=("S",)))
    assert len(rows) == DEFAULT_GRID_1D


def test_csv_round_trips_17_significant_digits():
    buffer = io.StringIO()
    values = [math.pi / 7, 1.0 / 3.0, patterns.THRESHOLD_R]
    write_csv(["a", "b", "c"], [values], buffer)
    text = buffer.getvalue()
    assert "\r" not in text
    assert text.startswith("a,b,c\n")
    assert text.endswith("\n")
    parsed = [float(cell) for cell in text.splitlines()[1].split(",")]
    assert parsed == values


def test_sweep_output_has_no_negative_zero():
    config = SweepConfig(accelerated=(swept("C"), swept("D")), grid=3,
                         measures=("N_CD",), diagonal=True)
    buffer = io.StringIO()
    write_csv(*run_sweep(config), buffer)
    for line in buffer.getvalue().splitlines()[1:]:
        assert "-0," not in line
        assert not line.endswith("-0")


def test_sweep_is_deterministic():
    config = SweepConfig(accelerated=(swept("D"),), grid=7)
    first, second = io.StringIO(), io.StringIO()
    write_csv(*run_sweep(config), first)
    write_csv(*run_sweep(config), second)
    assert first.getvalue() == second.getvalue()


def test_preset_registry():
    assert set(PRESETS) == EXPECTED_PRESETS
    for config in PRESETS.values():
        normalize_measures(config.measures)
        swept_axes = [a for a in config.accelerated if a.lo != a.hi]
        assert 1 <= len(swept_axes) <= 2


@pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
def test_preset_golden_csv_byte_for_byte(name):
    # frozen output of every preset at grid 5; pins every column family
    golden = (DATA / f"{name}_grid5.csv").read_text(encoding="utf-8")
    buffer = io.StringIO()
    write_csv(*run_sweep(replace(PRESETS[name], grid=5)), buffer)
    assert buffer.getvalue() == golden


# sha256 of each preset's CSV at its default grid, unchanged since the first
# release; fig6a, fig6b and fig7 drift in the last bit if sums are compensated
DEFAULT_GRID_SHA256 = {
    "fig1a": "f7970ca295071710ed11964ad67c96b432da27c99805376f26cd81236fa62efc",
    "fig1b": "7b0278db9d47252d21faa26d850a80821b6967ed2c3e20bffe7318a4a465f39b",
    "fig2": "ad78c3990eab1e1a66af1fb6bc8cc0710ef001aebff2c4536dd46bfa1347fda6",
    "fig3": "df82a3ae1fd7d9a0d0ca5bc2c0de063537060cf44f067232b9895a724fb556ce",
    "fig4a": "0f5c8d8524c57a6a43cd3ceb05146da1791a893600c43d619aa3d63b436a6b84",
    "fig4b": "d9a89976cb8c7c1dc839422026682797ad6193bf553f7426e99fe0ec8ba3998e",
    "fig5": "15372e4df9325addfda70919bf0e80927c879e0e60f6b9a9962ed5c78cbf0058",
    "fig6a": "915be90c29c712cb3a2fcc1de600caedb097c1c532305e2aa622f31b17672771",
    "fig6b": "7303a7d64b7231f2df7b8d8770de5ea9b1dc5011ae7f822297e94abcf26f843a",
    "fig7": "a87b65879750c43a005485e21511c1a1b1ab60d62fcce382c3640879c38e53fb",
    "fig8": "b403e10e302c5ff0f6e562acd4952043e2465886cb72cf0182781f3480638bcd",
    "fig9": "5aa23ecd1887d00f4c77f5e0fac6b13bd263849b149f75057851ff48b4ef5a68",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
def test_preset_default_grid_sha256(name):
    buffer = io.StringIO()
    write_csv(*run_sweep(PRESETS[name]), buffer)
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == DEFAULT_GRID_SHA256[name]


def test_preset_shapes():
    assert PRESETS["fig5"].diagonal is True
    assert PRESETS["fig3"].measures == ("pi4", "Pi4")
    assert [a.observer for a in PRESETS["fig9"].accelerated] == ["C", "D"]
    assert [a.observer for a in PRESETS["fig8"].accelerated] == ["D"]
