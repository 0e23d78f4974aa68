"""The oracle rows: the points they walk and the figure presets they check."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from wtangles import checks, oracles
from wtangles.checks import ORACLE_ROWS, run_check
from wtangles.sweep import PRESETS, sweep_points

from . import patterns

R_MAX = math.pi / 4


def _line():
    return ("D",), np.linspace(0.0, R_MAX, 101)[:, None]


def _grid(n):
    axis = np.linspace(0.0, R_MAX, n)
    return ("C", "D"), np.column_stack([np.repeat(axis, n), np.tile(axis, n)])


def _threshold_points():
    # the diagonal 1e-12 below and above r*, typed out rather than read from oracles
    return ("C", "D"), np.array([[patterns.THRESHOLD_R - 1e-12] * 2,
                                 [patterns.THRESHOLD_R + 1e-12] * 2])


# the points of each evaluate_points call of a run_check() pass, in row order,
# built with np.repeat/np.tile rather than through sweep.sweep_points, so that
# a reordered or re-rounded builder shows here; the check golden prints each
# deviation to 4 significant digits and can miss either
EXPECTED_POINTS = [
    _line(),  # n_d1_abc
    _line(), _grid(6),  # n_ab_const
    _line(),  # n_i_d1
    _grid(21),  # n_pair_accel_one
    _grid(21),  # n_pair_accel_both
    _line(),  # entropy_one_accel
    _threshold_points(),  # vanishing_threshold
]


@pytest.mark.parametrize("perturb", [0.0, 0.01])
def test_check_points_are_the_same_bytes(perturb, monkeypatch):
    seen = []
    evaluate_points = checks.evaluate_points

    def recording(observers, r, columns):
        seen.append((tuple(observers), r.tobytes()))
        return evaluate_points(observers, r, columns)

    monkeypatch.setattr("wtangles.checks.evaluate_points", recording)
    run_check(perturb=perturb)
    assert seen == [(observers, np.clip(r + perturb, 0.0, R_MAX).tobytes())
                    for observers, r in EXPECTED_POINTS]


def _preset_of(sweep):
    """The preset that sweep walks, at its own grid and diagonal setting, or None."""
    for name, preset in PRESETS.items():
        if replace(sweep, grid=preset.grid, diagonal=preset.diagonal) == preset:
            return name
    return None


def _drift(row):
    """What a row walks that no preset plots: an unknown sweep, or a preset without its column."""
    problems = []
    for sweep in row.sweeps:
        name = _preset_of(sweep)
        if name is None:
            problems.append(f"{row.name}: {sweep} is no preset's observers and columns")
        elif row.column not in PRESETS[name].measures:
            problems.append(f"{row.name}: {name} does not plot {row.column}")
    return problems


@pytest.mark.parametrize("row", ORACLE_ROWS, ids=lambda row: row.name)
def test_each_row_walks_presets_that_plot_its_column(row):
    assert row.sweeps
    assert _drift(row) == []


def test_drift_names_a_preset_without_the_column_or_observers():
    n_i_d1 = next(row for row in ORACLE_ROWS if row.name == "n_i_d1")
    assert _drift(n_i_d1._replace(sweeps=(PRESETS["fig1a"],))) == [
        "n_i_d1: fig1a does not plot N_AD"]
    fig1b_on_c = replace(PRESETS["fig1b"], accelerated=PRESETS["fig5"].accelerated)
    assert len(_drift(n_i_d1._replace(sweeps=(fig1b_on_c,)))) == 1


def test_run_check_reads_a_bare_string_as_one_name():
    assert repr(run_check("n_i_d1")) == repr(run_check(["n_i_d1"]))


@pytest.mark.parametrize("row", ORACLE_ROWS, ids=lambda row: row.name)
def test_each_row_reads_its_closed_form_parameters(row):
    parameters = inspect.signature(getattr(oracles, row.name)).parameters
    assert row.reads == tuple({"r_c": "C", "r_d": "D"}[name] for name in parameters)


@pytest.mark.parametrize("row", ORACLE_ROWS, ids=lambda row: row.name)
def test_a_row_calls_its_closed_form_once_per_sweep(row, monkeypatch):
    expected = repr(run_check([row.name]))
    seen = []
    closed_form = getattr(oracles, row.name)

    def recording(*args):
        seen.append(args)
        return closed_form(*args)

    monkeypatch.setattr(oracles, row.name, recording)
    assert repr(run_check([row.name])) == expected
    assert len(seen) == len(row.sweeps)
    # each call takes the unshifted r columns the closed form reads, as arrays
    for args, sweep in zip(seen, row.sweeps):
        observers, r = sweep_points(sweep)
        assert [type(arg) for arg in args] == [np.ndarray] * len(row.reads)
        assert [arg.tobytes() for arg in args] == [
            r[:, observers.index(observer)].tobytes() for observer in row.reads]


def test_the_threshold_row_reads_the_pipeline(monkeypatch):
    def raising(*args):
        raise RuntimeError("no pipeline")

    monkeypatch.setattr(checks, "evaluate_points", raising)
    with pytest.raises(RuntimeError, match="^no pipeline$"):
        run_check(["vanishing_threshold"])


def _shifted_pipeline(monkeypatch, shift):
    """Wrap the row's evaluate_points so that its crossing moves by -shift in r."""
    evaluate_points = checks.evaluate_points
    monkeypatch.setattr(checks, "evaluate_points",
                        lambda observers, r, columns: evaluate_points(observers, r + shift, columns))


def test_a_moved_crossing_fails_the_threshold_row(monkeypatch):
    # the pipeline's N_CD crossing 1e-9 lower: zero on both sides of r*
    _shifted_pipeline(monkeypatch, 1e-9)
    [result] = run_check(["vanishing_threshold"])
    assert not result.passed
    assert result.max_dev == 0.0 and result.detail.endswith("N_CD(r* - 1e-12) = 0.000e+00")


def test_the_threshold_row_needs_each_of_its_three_conditions(monkeypatch):
    [result] = run_check(["vanishing_threshold"])
    assert result.passed and result.max_dev == 0.0 and result.tol == 0.0
    assert result.detail == "r* = 0.4724731279 vs 0.472473; N_CD(r* - 1e-12) = 8.200e-13"
    with monkeypatch.context() as patch:
        # N_CD above r* alone is off: the crossing 1e-9 higher, positive on both sides
        _shifted_pipeline(patch, -1e-9)
        [result] = run_check(["vanishing_threshold"])
        assert not result.passed and result.max_dev > 0.0
        assert not result.detail.endswith("= 0.000e+00")
    with monkeypatch.context() as patch:
        # N_CD below r* alone is off: zero there, and still zero above
        evaluate_points = checks.evaluate_points

        def zero_below(observers, r, columns):
            values = evaluate_points(observers, r, columns)
            return {"N_CD": np.array([0.0, values["N_CD"][1]])}

        patch.setattr(checks, "evaluate_points", zero_below)
        [result] = run_check(["vanishing_threshold"])
        assert not result.passed and result.max_dev == 0.0
    with monkeypatch.context() as patch:
        # r* alone is off: the printed value 1.3e-4 away from it
        patch.setattr(checks, "PRINTED_THRESHOLD", 0.4726)
        [result] = run_check(["vanishing_threshold"])
        assert not result.passed and result.max_dev == 0.0
        assert result.detail.endswith("N_CD(r* - 1e-12) = 8.200e-13")


def test_the_threshold_row_takes_its_root_from_oracles(monkeypatch):
    # checks keeps no copy of r*: another root moves both points below the crossing
    monkeypatch.setattr(oracles, "vanishing_threshold", lambda: 0.47)
    [result] = run_check(["vanishing_threshold"])
    assert not result.passed and result.max_dev > 0.0
    assert result.detail.startswith("r* = 0.4700000000 vs 0.472473; ")
