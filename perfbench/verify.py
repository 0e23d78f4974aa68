"""Output checks for the benchmark workloads, against the reference route.

Every check returns a list of error strings; an empty list means the output
is correct.  Nothing here imports wtangles: the figure presets are restated
below from the figures they reproduce, and every number is compared with
reference.py or with a property the physics fixes.
"""

from __future__ import annotations

import csv
import io
import math
import re
from typing import Callable, Iterable, Mapping

import numpy as np

import reference as ref

VALUE_TOL = 1e-10
CONSTANT_TOL = 1e-12
PRINT_TOL = 5e-6
CLIP_TOL = 1e-10
THRESHOLD_TOL = 1e-6
GRID_1D = 101
GRID_2D = 41
MATRIX_LAYOUT = "layout: A, B, C_I, D_I"

# name -> (swept observers, diagonal, measure columns)
PRESETS: dict[str, tuple[tuple[str, ...], bool, tuple[str, ...]]] = {
    "fig1a": (("D",), False, ("N_A_rest", "N_D_rest")),
    "fig1b": (("D",), False, ("N_AB", "N_AD")),
    "fig2": (("D",), False, ("pi_A", "pi_D")),
    "fig3": (("D",), False, ("pi4", "Pi4")),
    "fig4a": (("C", "D"), False, ("N_A_rest", "N_B_rest")),
    "fig4b": (("C", "D"), False, ("N_C_rest", "N_D_rest")),
    "fig5": (("C", "D"), True, ("N_AB", "N_AC", "N_CD")),
    "fig6a": (("C", "D"), False, ("pi_A", "pi_B", "N_A_rest", "N_B_rest")),
    "fig6b": (("C", "D"), False, ("pi_C", "pi_D")),
    "fig7": (("C", "D"), False, ("pi4", "Pi4")),
    "fig8": (("D",), False, ("S",)),
    "fig9": (("C", "D"), False, ("S",)),
}

# oracle name -> largest deviation the suite may report
ORACLE_TOLS = {
    "n_d1_abc": 1e-10,
    "n_ab_const": 1e-12,
    "n_i_d1": 1e-10,
    "n_pair_accel_one": 1e-10,
    "n_pair_accel_both": 1e-10,
    "entropy_one_accel": 1e-10,
    "vanishing_threshold": 1e-6,
}
# oracles checked over a two-axis grid; the rest run over one axis
GRID_ORACLES = ("n_pair_accel_one", "n_pair_accel_both")
CLOSED_FORMS = ("n_d1_abc", "n_ab_const", "n_i_d1", "n_pair_accel_one", "n_pair_accel_both",
                "entropy_one_accel")


def is_two_axis(name: str) -> bool:
    swept, diagonal, _ = PRESETS[name]
    return len(swept) == 2 and not diagonal


def _grid_points(name: str, grid: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Expected (r_C, r_D) per row, in the sweep's lexicographic order."""
    swept, diagonal, _ = PRESETS[name]
    n = grid or (GRID_2D if is_two_axis(name) else GRID_1D)
    axis = np.linspace(0.0, ref.R_MAX, n)
    if swept == ("D",):
        return np.zeros(n), axis
    if diagonal:
        return axis, axis
    return np.repeat(axis, n), np.tile(axis, n)


def check_figure_csv(name: str, text: str, grid: int | None = None) -> list[str]:
    """Check one preset's CSV: layout, every cell against the reference, properties."""
    swept, diagonal, measures = PRESETS[name]
    lines = text.split("\n")
    if lines[-1] != "" or any(line == "" for line in lines[:-1]):
        return [f"{name}: CSV must be LF-terminated lines with no blank line"]
    table = list(csv.reader(io.StringIO(text)))
    r_columns = [f"r_{obs}" for obs in swept]
    header = r_columns + list(measures)
    if table[0] != header:
        return [f"{name}: header {table[0]} != {header}"]
    try:
        values = np.array([[float(cell) for cell in row] for row in table[1:]])
    except ValueError as exc:
        return [f"{name}: unparsable cell: {exc}"]
    r_c, r_d = _grid_points(name, grid)
    if values.shape != (len(r_d), len(header)):
        return [f"{name}: table shape {values.shape}, expected {(len(r_d), len(header))}"]
    errors: list[str] = []
    expected_r = np.column_stack([r_c, r_d])[:, -len(swept):]
    bad = np.flatnonzero((values[:, :len(swept)] != expected_r).any(axis=1))
    if bad.size:
        errors.append(f"{name}: r values of row {bad[0] + 2} differ from the linspace grid")
    if not np.isfinite(values).all():
        errors.append(f"{name}: non-finite cell")
        return errors
    col = {c: values[:, len(swept) + k] for k, c in enumerate(measures)}

    reference = ref.measures(r_c, r_d)
    for column in measures:
        dev = np.abs(col[column] - reference[column])
        if dev.max() > VALUE_TOL:
            row = int(dev.argmax())
            errors.append(f"{name}: {column} row {row + 2} is {col[column][row]!r}, "
                          f"reference {reference[column][row]!r}")

    # properties the method must have, on every row
    for column in measures:
        if column.startswith("N_") and ((col[column] < 0.0) | (col[column] > 1.0)).any():
            errors.append(f"{name}: {column} leaves [0, 1]")
        if column.startswith("pi_") and (col[column] < -CLIP_TOL).any():
            errors.append(f"{name}: {column} below -{CLIP_TOL:g}")
    if "N_AB" in col and np.abs(col["N_AB"] - ref.N_AB_CONST).max() > CONSTANT_TOL:
        errors.append(f"{name}: N_AB differs from (sqrt(2)-1)/2 for inertial A, B")
    if "Pi4" in col and (col["Pi4"] > col["pi4"] + CONSTANT_TOL).any():
        errors.append(f"{name}: Pi4 exceeds pi4 (AM-GM)")
    at_rest = (r_c == 0.0) & (r_d == 0.0)
    for column in measures:
        if column.endswith("_rest") and np.abs(col[column][at_rest] - ref.N_REST_INERTIAL).max() > VALUE_TOL:
            errors.append(f"{name}: {column} at r=0 differs from sqrt(3)/2")
    if "S" in col:
        if np.abs(col["S"][at_rest]).max() > VALUE_TOL:
            errors.append(f"{name}: S at r=0 is not 0")
        both_infinite = (r_c == ref.R_MAX) & (r_d == ref.R_MAX)
        if both_infinite.any() and np.abs(col["S"][both_infinite] - ref.S_BOTH_INFINITE).max() > VALUE_TOL:
            errors.append(f"{name}: S at (pi/4, pi/4) differs from ln8/4 + 3ln(8/3)/4")
    if name == "fig4a" and np.abs(col["N_A_rest"] - col["N_B_rest"]).max() > VALUE_TOL:
        errors.append("fig4a: N_A_rest != N_B_rest")
    if name == "fig7":
        n = int(round(math.sqrt(len(r_d))))
        for column in measures:
            square = col[column].reshape(n, n)
            if np.abs(square - square.T).max() > VALUE_TOL:
                errors.append(f"fig7: {column} not symmetric under r_C <-> r_D")
    return errors


def check_oracle_results(results: Iterable, reference_threshold: float) -> list[str]:
    """Check a run_check() result list: every oracle present, passing, within tolerance."""
    results = list(results)
    errors: list[str] = []
    names = [r.name for r in results]
    if sorted(names) != sorted(ORACLE_TOLS):
        errors.append(f"oracle names {names} != {sorted(ORACLE_TOLS)}")
    for result in results:
        tol = ORACLE_TOLS.get(result.name)
        if tol is None:
            continue
        if not result.passed:
            errors.append(f"{result.name}: reported FAIL ({result.detail})")
        if not math.isfinite(result.max_dev) or result.max_dev > tol:
            errors.append(f"{result.name}: max dev {result.max_dev!r} above {tol:g}")
        if result.name == "vanishing_threshold":
            match = re.search(r"r\* = ([0-9.eE+-]+)", result.detail)
            if match is None:
                errors.append(f"vanishing_threshold: no r* in detail {result.detail!r}")
            elif abs(float(match.group(1)) - reference_threshold) > THRESHOLD_TOL:
                errors.append(f"vanishing_threshold: r* = {match.group(1)}, "
                              f"reference {reference_threshold!r}")
    return errors


def check_reference_threshold(threshold: float) -> list[str]:
    """The reference route's own zero crossing must sit at arccos(2 - sqrt 2) / 2."""
    if abs(threshold - ref.R_STAR) > 1e-9:
        return [f"reference r* {threshold!r} differs from arccos(2-sqrt2)/2 = {ref.R_STAR!r}"]
    return []


def check_closed_forms(closed_form: Mapping[str, Callable[..., float]],
                       points: np.ndarray) -> list[str]:
    """Compare the program's closed forms with the reference at (r_C, r_D) points."""
    reference = ref.measures(points[:, 0], points[:, 1])
    one_accel = ref.measures(np.zeros(len(points)), points[:, 1])
    pairs = {
        "n_d1_abc": (lambda rc, rd: closed_form["n_d1_abc"](rd), one_accel["N_D_rest"]),
        "n_ab_const": (lambda rc, rd: closed_form["n_ab_const"](), reference["N_AB"]),
        "n_i_d1": (lambda rc, rd: closed_form["n_i_d1"](rd), one_accel["N_AD"]),
        "n_pair_accel_one": (lambda rc, rd: closed_form["n_pair_accel_one"](rc), reference["N_AC"]),
        "n_pair_accel_both": (lambda rc, rd: closed_form["n_pair_accel_both"](rc, rd),
                              reference["N_CD"]),
        "entropy_one_accel": (lambda rc, rd: closed_form["entropy_one_accel"](rd), one_accel["S"]),
    }
    errors = []
    for name, (evaluate, expected) in pairs.items():
        for (r_c, r_d), want in zip(points, expected):
            got = evaluate(float(r_c), float(r_d))
            if abs(got - want) > VALUE_TOL:
                errors.append(f"{name}({r_c!r}, {r_d!r}) = {got!r}, reference {want!r}")
                break
    return errors


def check_sweep_output(text: str, r_c: float, r_d: float) -> list[str]:
    """`sweep --accel C=.. --accel D=.. --measures all` prints a header and one row."""
    lines = text.splitlines()
    if len(lines) != 2:
        return [f"sweep C={r_c!r} D={r_d!r}: expected 2 lines, got {len(lines)}"]
    header = lines[0].split(",")
    if tuple(header) != ref.COLUMNS:
        return [f"sweep: header {header} != {list(ref.COLUMNS)}"]
    try:
        row = [float(cell) for cell in lines[1].split(",")]
    except ValueError as exc:
        return [f"sweep: unparsable row: {exc}"]
    reference = ref.measures([r_c], [r_d])
    return [f"sweep C={r_c!r} D={r_d!r}: {column} = {value!r}, reference {reference[column][0]!r}"
            for column, value in zip(header, row)
            if not abs(value - reference[column][0]) <= VALUE_TOL]


_MONOMIAL = re.compile(r"([αβγδ])(?:\^(\d))?")


def _label_value(label: str, symbols: Mapping[str, float]) -> float | None:
    total = 0.0
    for term in label.split("+"):
        if term == "1":
            total += 1.0
            continue
        if _MONOMIAL.sub("", term):
            return None
        value = 1.0
        for symbol, power in _MONOMIAL.findall(term):
            value *= symbols[symbol] ** int(power or 1)
        total += value
    return total


def check_matrix_output(text: str, r_c: float, r_d: float) -> list[str]:
    """`matrix --accel C=.. --accel D=.. --symbolic`: 16x16 grid plus labelled entries."""
    where = f"matrix C={r_c!r} D={r_d!r}"
    lines = text.splitlines()
    if len(lines) < 19 or lines[0] != MATRIX_LAYOUT or lines[17] != "":
        return [f"{where}: unexpected layout of the printout"]
    rho = ref.density_matrix(r_c, r_d).real
    try:
        grid = np.array([[float(x) for x in line.split()] for line in lines[1:17]])
    except ValueError as exc:
        return [f"{where}: unparsable grid: {exc}"]
    if grid.shape != (16, 16):
        return [f"{where}: grid shape {grid.shape}"]
    errors = []
    if np.abs(grid - rho).max() > PRINT_TOL:
        errors.append(f"{where}: printed grid deviates by {np.abs(grid - rho).max():.3e}")
    symbols = {"α": math.sin(r_c), "γ": math.cos(r_c), "β": math.sin(r_d), "δ": math.cos(r_d)}
    listed = set()
    for line in lines[19:]:
        match = re.fullmatch(r"  \(\s*(\d+),\s*(\d+)\)  (\S+)", line)
        if match is None:
            errors.append(f"{where}: bad entry line {line!r}")
            continue
        i, j, label = int(match.group(1)), int(match.group(2)), match.group(3)
        listed.add((i, j))
        want = 4.0 * rho[i, j]
        value = _label_value(label, symbols)
        if value is None:
            try:
                value = float(label)
            except ValueError:
                errors.append(f"{where}: unreadable label {label!r}")
                continue
            tol = 1e-9 * max(1.0, abs(want))
        else:
            tol = 1e-9
        if abs(value - want) > tol:
            errors.append(f"{where}: ({i},{j}) labelled {label} = {value!r}, reference {want!r}")
    upper = np.triu(np.abs(rho))
    required = {tuple(ix) for ix in np.argwhere(upper > 2e-12)}
    allowed = {tuple(ix) for ix in np.argwhere(upper > 0.5e-12)}
    if not required <= listed <= allowed:
        errors.append(f"{where}: listed nonzero entries differ from the reference")
    return errors


def check_error_exit(code: object, stderr: str) -> str | None:
    """An unwritable --out must end in exit code 2 and one `error:` line."""
    lines = stderr.splitlines()
    if code == 2 and len(lines) == 1 and lines[0].startswith("error: "):
        return None
    return f"exit {code!r} with stderr {stderr[:200]!r}"
