"""Cross-validation: numeric pipeline values against the closed-form curves.

Each curve check is one row of ORACLE_ROWS: a measure column, the closed form
it must match and the figure presets that plot that column, at check
resolution.  The check walks each preset through sweep.sweep_points, the one
point builder sweeps use, evaluates the column over its points as one stack,
compares the two routes pointwise and reports the maximum absolute deviation.
The perturb argument shifts the r values fed to the numeric side only, which
makes the harness fail on purpose; it exists so the failure path itself can
be tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .measures import evaluate_points
from .oracles import (
    entropy_one_accel,
    n_ab_const,
    n_d1_abc,
    n_i_d1,
    n_pair_accel_both,
    n_pair_accel_one,
    vanishing_threshold,
)
from .rindler import R_MAX
from .sweep import DEFAULT_GRID_1D, PRESETS, SweepConfig, sweep_points

GRID_2D = 21
VALUE_TOL = 1e-10
CONSTANT_TOL = 1e-12
THRESHOLD_TOL = 1e-6
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
    name: str
    column: str
    closed_form: Callable[[dict[str, float]], float]  # of the unshifted r values
    sweeps: tuple[SweepConfig, ...]  # presets that plot column, at check resolution
    tol: float
    detail: str


_FIG5_GRID = replace(PRESETS["fig5"], diagonal=False, grid=GRID_2D)  # holds fig5's diagonal

ORACLE_ROWS = (
    OracleRow("n_d1_abc", "N_D_rest", lambda r: n_d1_abc(r["D"]), (PRESETS["fig1a"],),
              VALUE_TOL, f"{DEFAULT_GRID_1D} points, one accelerated observer"),
    OracleRow("n_ab_const", "N_AB", lambda r: n_ab_const(),
              (PRESETS["fig1b"], replace(_FIG5_GRID, grid=6)),
              CONSTANT_TOL, "both scenarios; constant for every acceleration"),
    OracleRow("n_i_d1", "N_AD", lambda r: n_i_d1(r["D"]), (PRESETS["fig1b"],),
              VALUE_TOL, f"{DEFAULT_GRID_1D} points, pair of inertial and accelerated"),
    OracleRow("n_pair_accel_one", "N_AC", lambda r: n_pair_accel_one(r["C"]), (_FIG5_GRID,),
              VALUE_TOL, f"{GRID_2D}x{GRID_2D} grid; independent of the other acceleration"),
    OracleRow("n_pair_accel_both", "N_CD", lambda r: n_pair_accel_both(r["C"], r["D"]),
              (_FIG5_GRID,), VALUE_TOL,
              f"{GRID_2D}x{GRID_2D} grid, pair of accelerated observers"),
    OracleRow("entropy_one_accel", "S", lambda r: entropy_one_accel(r["D"]), (PRESETS["fig8"],),
              VALUE_TOL, f"{DEFAULT_GRID_1D} points, one accelerated observer"),
)


def _check_row(row: OracleRow, perturb: float) -> CheckResult:
    deviations = []
    for sweep in row.sweeps:
        observers, r = sweep_points(sweep)
        shifted = np.clip(r + perturb, 0.0, R_MAX)
        numeric = evaluate_points(observers, shifted, [row.column])[row.column]
        closed = [row.closed_form(dict(zip(observers, point))) for point in r.tolist()]
        deviations.append(np.abs(numeric - closed))
    dev = float(np.concatenate(deviations).max())
    return CheckResult(row.name, dev, row.tol, dev <= row.tol, row.detail)


def _check_vanishing_threshold(perturb: float) -> CheckResult:
    computed = vanishing_threshold() + perturb
    analytic = 0.5 * math.acos(2.0 - math.sqrt(2.0))
    dev = abs(computed - analytic)
    printed_dev = abs(computed - PRINTED_THRESHOLD)
    passed = dev <= THRESHOLD_TOL and printed_dev <= PRINTED_THRESHOLD_TOL
    detail = (f"r* = {computed:.10f}, |r* - {PRINTED_THRESHOLD}| = {printed_dev:.3e} "
              f"(tol {PRINTED_THRESHOLD_TOL:g})")
    return CheckResult("vanishing_threshold", dev, THRESHOLD_TOL, passed, detail)


CHECKS: dict[str, Callable[[float], CheckResult]] = {
    **{row.name: partial(_check_row, row) for row in ORACLE_ROWS},
    "vanishing_threshold": _check_vanishing_threshold,
}


def run_check(names: Sequence[str] | None = None, perturb: float = 0.0) -> list[CheckResult]:
    """Run the named checks (all of them by default) in registry order."""
    if not math.isfinite(perturb):
        raise ValueError(f"perturb: expected a finite number, got {perturb!r}")
    if names is None or list(names) == ["all"]:
        selected = list(CHECKS)
    else:
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            raise ValueError(
                f"unknown oracle name(s) {unknown}; known: {', '.join(CHECKS)}")
        selected = [n for n in CHECKS if n in set(names)]
    return [CHECKS[name](perturb) for name in selected]
