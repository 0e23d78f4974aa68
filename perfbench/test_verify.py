"""The benchmark's output checks must catch a wrong value, not only pass good ones.

Run from the repository root:  python3 -m pytest -q perfbench/test_verify.py
"""

from __future__ import annotations

import io
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import verify  # noqa: E402
from wtangles import PRESETS, run_check, run_sweep, write_csv  # noqa: E402
from wtangles.cli import main  # noqa: E402

GRID = 5


def _preset_csv(name: str) -> str:
    stream = io.StringIO()
    write_csv(*run_sweep(replace(PRESETS[name], grid=GRID)), stream)
    return stream.getvalue()


def _corrupt_one_cell(text: str, seed: int) -> str:
    lines = text.split("\n")
    rng = random.Random(seed)
    row = rng.randrange(1, len(lines) - 1)
    cells = lines[row].split(",")
    n_r = sum(1 for column in lines[0].split(",") if column.startswith("r_"))
    col = rng.randrange(n_r, len(cells))
    cells[col] = repr(float(cells[col]) + 1e-9)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(verify.PRESETS))
def test_figure_check_passes_good_csv_and_catches_one_corrupted_cell(name):
    text = _preset_csv(name)
    assert verify.check_figure_csv(name, text, grid=GRID) == []
    assert verify.check_figure_csv(name, _corrupt_one_cell(text, seed=len(name)), grid=GRID)


def test_figure_check_catches_a_wrong_grid():
    text = _preset_csv("fig3")
    assert verify.check_figure_csv("fig3", text, grid=GRID + 1)


def test_oracle_check_passes_the_suite_and_catches_perturb():
    threshold = ref.vanishing_threshold()
    assert verify.check_reference_threshold(threshold) == []
    assert verify.check_oracle_results(run_check(), threshold) == []
    errors = verify.check_oracle_results(run_check(perturb=0.01), threshold)
    assert any(e.startswith("n_d1_abc") for e in errors)
    assert any(e.startswith("vanishing_threshold") for e in errors)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = stdout, stderr
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_sweep_output_check_catches_a_changed_digit():
    r_c, r_d = 0.31, 0.62
    text = _cli(["sweep", "--accel", f"C={r_c!r}", "--accel", f"D={r_d!r}", "--measures", "all"])
    assert verify.check_sweep_output(text, r_c, r_d) == []
    header, row = text.splitlines()
    cells = row.split(",")
    cells[5] = repr(float(cells[5]) * (1 + 1e-8))
    assert verify.check_sweep_output(header + "\n" + ",".join(cells) + "\n", r_c, r_d)


def test_matrix_output_check_catches_a_changed_entry_and_label():
    r_c, r_d = 0.2, 0.7
    text = _cli(["matrix", "--accel", f"C={r_c!r}", "--accel", f"D={r_d!r}", "--symbolic"])
    assert verify.check_matrix_output(text, r_c, r_d) == []
    lines = text.splitlines()
    grid_changed = lines.copy()
    grid_changed[2] = grid_changed[2].replace("0.", "1.", 1)
    assert verify.check_matrix_output("\n".join(grid_changed), r_c, r_d)
    label_changed = [line.replace("γ", "α") if line.startswith("  (") else line for line in lines]
    assert verify.check_matrix_output("\n".join(label_changed), r_c, r_d)


def test_error_exit_check_accepts_only_exit_2_with_one_error_line():
    assert verify.check_error_exit(2, "error: cannot open x\n") is None
    assert verify.check_error_exit(FileNotFoundError("x"), "") is not None
    assert verify.check_error_exit(2, "Traceback\nerror: x\n") is not None
