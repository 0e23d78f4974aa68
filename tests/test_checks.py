"""The oracle rows: the points they walk and the figure presets they check."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wtangles import checks
from wtangles.checks import ORACLE_ROWS, run_check
from wtangles.sweep import PRESETS

R_MAX = math.pi / 4


def _line():
    return ("D",), np.linspace(0.0, R_MAX, 101)[:, None]


def _grid(n):
    axis = np.linspace(0.0, R_MAX, n)
    return ("C", "D"), np.column_stack([np.repeat(axis, n), np.tile(axis, n)])


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
