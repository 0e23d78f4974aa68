import hashlib
import io
import math
import os
import re
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wtangles.checks import run_check
from wtangles.measures import COLUMNS, evaluate_points
from wtangles.oracles import n_pair_accel_one
from wtangles.sweep import (
    DEFAULT_GRID_1D,
    DEFAULT_GRID_2D,
    PRESETS,
    AxisSpec,
    ConfigError,
    SweepConfig,
    atomic_output,
    run_sweep,
    select_names,
    sweep_points,
    write_csv,
)

from . import patterns
from .lapack import pinned_on

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


@pytest.mark.parametrize("tokens, selected", [
    ([" S ", "", "pi4", "  "], ("S", "pi4")),
    (["S", "pi4", "S"], ("S", "pi4")),
    (["all"], COLUMNS),
    (["N_AB", "all"], ("N_AB",) + tuple(c for c in COLUMNS if c != "N_AB")),
    (["S", " all", "pi4"], ("S",) + tuple(c for c in COLUMNS if c != "S")),
    (["N_XY", "S", "N_ZZ"], "unknown measure 'N_XY'; known: " + ", ".join(COLUMNS) + ", or all"),
    (["all", "All"], "unknown measure 'All'; known: "),
    ([], "measure: empty selection"),
    (["", " "], "measure: empty selection"),
], ids=["stripped-and-empty", "first-appearance", "all", "all-last", "all-between",
        "first-unknown", "all-is-lowercase", "no-tokens", "blank-tokens"])
def test_select_names(tokens, selected):
    if isinstance(selected, tuple):
        assert select_names(tokens, COLUMNS, "measure") == selected
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(selected)}"):
            select_names(tokens, COLUMNS, "measure")


def test_a_bare_measures_string_is_one_name():
    config = SweepConfig(accelerated=(fixed("D", 0.3),), measures="N_AB")
    header, rows = run_sweep(config)
    assert header == ["N_AB"]
    assert rows == run_sweep(replace(config, measures=("N_AB",)))[1]


def test_atomic_output_passes_a_stale_temp_file(tmp_path):
    # a process killed hard leaves its temporary file, and a later one may get its pid
    target = tmp_path / "curve.csv"
    stale = tmp_path / f"curve.csv.{os.getpid()}.tmp"
    stale.write_text("stale\n", encoding="utf-8")
    with atomic_output(str(target)) as handle:
        handle.write("new\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert stale.read_text(encoding="utf-8") == "stale\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", stale.name]


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
    # a grid with no swept axis to lay its points on
    SweepConfig(grid=3),
    SweepConfig(accelerated=(fixed("C", 0.2), fixed("D", 0.3)), grid=3),
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


@st.composite
def point_configs(draw):
    """A config as run_sweep validates it: observers sorted, 0 to 2 swept, a grid of 2 to 9."""
    observers = draw(st.permutations("ABCD"))
    n_swept = draw(st.integers(min_value=0, max_value=2))
    n_fixed = draw(st.integers(min_value=0, max_value=4 - n_swept))
    diagonal = n_swept == 2 and draw(st.booleans())
    r = st.floats(min_value=0.0, max_value=R_MAX)
    ranges = [sorted(draw(st.lists(r, min_size=2, max_size=2, unique=True)))
              for _ in range(n_swept)]
    if diagonal:
        ranges = [ranges[0]] * 2
    axes = [AxisSpec(o, lo, hi) for o, (lo, hi) in zip(observers, ranges)]
    axes += [fixed(o, draw(r)) for o in observers[n_swept:n_swept + n_fixed]]
    return SweepConfig(accelerated=tuple(sorted(axes, key=lambda a: a.observer)),
                       grid=draw(st.integers(min_value=2, max_value=9)), diagonal=diagonal)


def reference_points(config):
    """The swept r of each point, by product or zip of the axes' floats, then the fixed r."""
    swept_axes = [a for a in config.accelerated if not a.fixed]
    lines = [np.linspace(a.lo, a.hi, config.grid).tolist() for a in swept_axes]
    grid = zip(*lines) if config.diagonal else product(*lines)
    return [(*point, *(a.lo for a in config.accelerated if a.fixed)) for point in grid]


@given(config=point_configs())
@example(config=SweepConfig(accelerated=(), grid=2))
@example(config=SweepConfig(accelerated=(fixed("A", 0.1), swept("C"), swept("D")), grid=3,
                            diagonal=True))
@example(config=SweepConfig(accelerated=(swept("B"), fixed("C", 0.2), swept("D")), grid=9))
def test_sweep_points_equal_the_product_of_the_axes(config):
    observers, r = sweep_points(config)
    swept_axes = [a for a in config.accelerated if not a.fixed]
    assert observers == tuple(a.observer for a in swept_axes
                              + [a for a in config.accelerated if a.fixed])
    expected = reference_points(config)
    assert r.dtype == np.float64
    assert r.shape == (len(expected), len(config.accelerated))
    assert np.array_equal(r, np.array(expected, dtype=np.float64).reshape(r.shape))


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
        assert select_names(config.measures, COLUMNS, "measure") == config.measures
        swept_axes = [a for a in config.accelerated if a.lo != a.hi]
        assert 1 <= len(swept_axes) <= 2


@pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
def test_preset_golden_csv_byte_for_byte(name):
    # frozen output of every preset at grid 5; pins every column family
    golden = (DATA / f"{name}_grid5.csv").read_text(encoding="utf-8")
    buffer = io.StringIO()
    write_csv(*run_sweep(replace(PRESETS[name], grid=5)), buffer)
    assert buffer.getvalue() == golden, pinned_on()


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
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == DEFAULT_GRID_SHA256[name], pinned_on()


# sha256 of repr(run_check(perturb=p)): every result's deviation, to the bit
CHECK_SHA256 = {
    0.0: "f022603e6091e35eec298b3819152648d0df9f3c9ec74f62a5871eeb1d87084b",
    0.01: "23e74089f35ff020f3f112918ee7836bf070eb39f653913373e413294c76e895",
}


@pytest.mark.parametrize("perturb", sorted(CHECK_SHA256))
def test_check_results_sha256(perturb):
    results = repr(run_check(perturb=perturb))
    assert hashlib.sha256(results.encode()).hexdigest() == CHECK_SHA256[perturb]


def test_preset_shapes():
    assert PRESETS["fig5"].diagonal is True
    assert PRESETS["fig3"].measures == ("pi4", "Pi4")
    assert [a.observer for a in PRESETS["fig9"].accelerated] == ["C", "D"]
    assert [a.observer for a in PRESETS["fig8"].accelerated] == ["D"]


# the tracemalloc peak of run_sweep(PRESETS["fig7"]) when DensityMatrix held a
# complex128 copy of every observed state (numpy 2.4, Python 3.11); the peak
# is now 1,454,620-1,457,044 bytes, of which 80,688 are the (1681, 2, 3)
# split factors that rindler._checked takes once per call (1,373,462-1,377,271
# while each chunk took its own cos r and sin r)
COMPLEX_STATES_FIG7_PEAK = 1_483_311
# a bound on the tracemalloc peak of evaluate_points over the 21x21 (C, D)
# grid for N_CD, measured at 301,164-301,333 bytes (numpy 2.4, Python 3.11);
# 348,075-348,718 while each chunk made lists of its points' cos r and sin r,
# and 545,858-546,572 while DensityMatrix copied each rho chunk it was handed
# and the positivity check factored the whole chunk at once
N_CD_GRID_PEAK = 370_000


def _traced_peak(run):
    """The tracemalloc peak of run(), above what was allocated before it, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_fig7_sweep_peaks_no_higher_than_with_complex_states():
    # real states gather the 1-3 stack straight into complex128: a real stack
    # cast after its gather holds both at once, and peaked 0.3 MiB above this
    run_sweep(PRESETS["fig7"])      # the plan cache is filled first
    assert _traced_peak(lambda: run_sweep(PRESETS["fig7"])) <= COMPLEX_STATES_FIG7_PEAK


def test_n_cd_grid_holds_no_copy_of_a_rho_chunk():
    # rho is held as built, and factored in blocks of at most _BLOCK_BYTES
    observers, r = sweep_points(replace(PRESETS["fig5"], diagonal=False, grid=21))
    evaluate_points(observers, r, ["N_CD"])     # the plan cache is filled first
    assert _traced_peak(lambda: evaluate_points(observers, r, ["N_CD"])) <= N_CD_GRID_PEAK
