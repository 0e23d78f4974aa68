"""Cross-validation: numeric pipeline values against the closed-form curves.

Each curve check is one row of ORACLE_ROWS, named for the oracles function
it must match: a measure column, the observers that closed form reads, in its
argument order, and the figure presets that plot that column, at check
resolution.  The check walks each preset through sweep.sweep_points, which
checks it and lays out its points as it does for run_sweep, and evaluates
the column over its points as one stack.  It calls the closed form, looked
up in the oracles module at call time, once per preset, on the array columns
of the r values it reads, then compares the two routes pointwise and reports
the maximum absolute deviation.

The vanishing_threshold row holds the paper's printed threshold against the
pipeline: it evaluates N_CD on the diagonal at r* - THRESHOLD_TOL and
r* + THRESHOLD_TOL, in one evaluate_points call, with r* the analytic root
that oracles.vanishing_threshold gives.  It passes when N_CD is positive
below r*, exactly zero above it, and r* lies within PRINTED_THRESHOLD_TOL of
the printed value; its deviation is N_CD above r*, at tolerance 0.

In every row the perturb argument shifts the r values fed to the numeric
side only, clipped to [0, pi/4], which makes the harness fail on purpose; it
exists so the failure path itself can be tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from numbers import Real
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import oracles
from .measures import evaluate_points, select_names
from .rindler import R_MAX, ConfigError
from .sweep import DEFAULT_GRID_1D, PRESETS, SweepConfig, sweep_points

GRID_2D = 21
VALUE_TOL = 1e-10
CONSTANT_TOL = 1e-12
THRESHOLD_TOL = 1e-12
PRINTED_THRESHOLD = 0.472473
PRINTED_THRESHOLD_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_dev: float
    tol: float
    passed: bool
    detail: str = ""


class OracleRow(NamedTuple):
    name: str  # also the closed form's name in oracles
    column: str
    reads: tuple[str, ...]  # observers whose unshifted r the closed form takes, in order
    sweeps: tuple[SweepConfig, ...]  # presets that plot column, at check resolution
    tol: float
    detail: str


_FIG5_GRID = replace(PRESETS["fig5"], diagonal=False, grid=GRID_2D)  # holds fig5's diagonal

ORACLE_ROWS = (
    OracleRow("n_d1_abc", "N_D_rest", ("D",), (PRESETS["fig1a"],),
              VALUE_TOL, f"{DEFAULT_GRID_1D} points, one accelerated observer"),
    OracleRow("n_ab_const", "N_AB", (),
              (PRESETS["fig1b"], replace(_FIG5_GRID, grid=6)),
              CONSTANT_TOL, "both scenarios; constant for every acceleration"),
    OracleRow("n_i_d1", "N_AD", ("D",), (PRESETS["fig1b"],),
              VALUE_TOL, f"{DEFAULT_GRID_1D} points, pair of inertial and accelerated"),
    OracleRow("n_pair_accel_one", "N_AC", ("C",), (_FIG5_GRID,),
              VALUE_TOL, f"{GRID_2D}x{GRID_2D} grid; independent of the other acceleration"),
    OracleRow("n_pair_accel_both", "N_CD", ("C", "D"), (_FIG5_GRID,), VALUE_TOL,
              f"{GRID_2D}x{GRID_2D} grid, pair of accelerated observers"),
    OracleRow("entropy_one_accel", "S", ("D",), (PRESETS["fig8"],),
              VALUE_TOL, f"{DEFAULT_GRID_1D} points, one accelerated observer"),
)


def _check_row(row: OracleRow, perturb: float) -> CheckResult:
    closed_form = getattr(oracles, row.name)
    deviations = []
    for sweep in row.sweeps:
        observers, r = sweep_points(sweep)
        shifted = np.clip(r + perturb, 0.0, R_MAX)
        numeric = evaluate_points(observers, shifted, [row.column])[row.column]
        closed = closed_form(*(r[:, observers.index(o)] for o in row.reads))
        deviations.append(np.abs(numeric - closed))
    dev = float(np.concatenate(deviations).max())
    return CheckResult(row.name, dev, row.tol, dev <= row.tol, row.detail)


def _check_vanishing_threshold(perturb: float) -> CheckResult:
    r_star = oracles.vanishing_threshold()
    r = np.array([[r_star - THRESHOLD_TOL] * 2, [r_star + THRESHOLD_TOL] * 2])
    shifted = np.clip(r + perturb, 0.0, R_MAX)
    below, above = evaluate_points(("C", "D"), shifted, ["N_CD"])["N_CD"].tolist()
    passed = (below > 0.0 and above == 0.0
              and abs(r_star - PRINTED_THRESHOLD) <= PRINTED_THRESHOLD_TOL)
    detail = (f"r* = {r_star:.10f} vs {PRINTED_THRESHOLD}; "
              f"N_CD(r* - {THRESHOLD_TOL:g}) = {below:.3e}")
    return CheckResult("vanishing_threshold", above, 0.0, passed, detail)


CHECKS: dict[str, Callable[[float], CheckResult]] = {
    **{row.name: partial(_check_row, row) for row in ORACLE_ROWS},
    "vanishing_threshold": _check_vanishing_threshold,
}


def run_check(names: Sequence[str] = ("all",), perturb: float = 0.0) -> list[CheckResult]:
    """Run the checks measures.select_names picks from names, in registry order."""
    if isinstance(perturb, bool) or not isinstance(perturb, Real) or not math.isfinite(perturb):
        raise ConfigError(f"perturb: expected a finite number, got {perturb!r}")
    selected = select_names(names, CHECKS, "oracle")
    return [CHECKS[name](perturb) for name in CHECKS if name in selected]
