"""Command-line behaviour, the README commands and the frozen sweep output."""

import errno
import hashlib
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wtangles import sweep
from wtangles.cli import build_parser, emit_matrix, main
from wtangles.fock import OBSERVERS, partial_transpose, w_state
from wtangles.rindler import R_MAX, observed_density
from wtangles.sweep import PRESETS

from . import patterns, reference
from .lapack import pinned_on, recorded
from .test_sweep import DEFAULT_GRID_SHA256

DATA = Path(__file__).with_name("data")
README = Path(__file__).resolve().parents[1] / "README.md"


def test_parser_program_name_and_subcommands():
    parser = build_parser()
    assert parser.prog == "wtangles"
    args = parser.parse_args(["sweep", "--accel", "D=0:0.5"])
    assert args.command == "sweep"


def test_main_calls_parse_independently(capsys):
    assert build_parser() is build_parser()
    assert main(["matrix", "--accel", "D=0.3"]) == 0
    assert capsys.readouterr().out.startswith("layout: A, B, C, D_I\n")
    # no --accel carried over from the matrix call: one inertial row, no r column
    assert main(["sweep", "--measures", "S"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "S" and len(lines) == 2
    assert main(["matrix"]) == 0
    assert capsys.readouterr().out.startswith("layout: A, B, C, D\n")


def test_sweep_writes_csv_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["sweep", "--accel", "D=0:pi/4", "--grid", "3",
                 "--measures", "N_D_rest", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote 3 rows" in captured.err
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r_D,N_D_rest"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(patterns.N_ONE_THREE_INERTIAL, abs=1e-12)


def test_sweep_defaults_to_stdout(capsys):
    code = main(["sweep", "--accel", "D=0:pi/4", "--grid", "2", "--measures", "S"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("r_D,S\n")
    assert len(out.splitlines()) == 3


def test_sweep_preset_and_override(capsys):
    assert main(["sweep", "--preset", "fig3", "--grid", "3"]) == 0
    assert capsys.readouterr().out.startswith("r_D,pi4,Pi4\n")
    assert main(["sweep", "--preset", "fig3", "--grid", "3", "--measures", "S"]) == 0
    assert capsys.readouterr().out.startswith("r_D,S\n")


@pytest.mark.parametrize("preset", [" fig3", "fig3 ", "fig3,", ",fig3, fig3"])
def test_sweep_reads_its_preset_as_figures_only_does(preset, capsys):
    assert main(["sweep", "--preset", "fig3", "--grid", "3"]) == 0
    expected = capsys.readouterr().out
    assert main(["sweep", "--preset", preset, "--grid", "3"]) == 0
    assert capsys.readouterr().out == expected


def test_sweep_diagonal_prints_the_diagonal_preset(capsys):
    assert main(["sweep", "--preset", "fig5"]) == 0
    expected = capsys.readouterr().out
    assert main(["sweep", "--accel", "C=0:pi/4", "--accel", "D=0:pi/4", "--diagonal",
                 "--measures", "N_AB,N_AC,N_CD"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv, fragment", [
    (["sweep", "--accel", "D0.3"], "accel"),
    (["sweep", "--accel", "D=x"], "accel"),
    (["sweep", "--accel", "D=0:0.5", "--grid", "1"], "grid"),
    (["sweep", "--preset", "fig99"], "preset"),
    (["sweep", "--accel", "D=0:0.5", "--measures", "N_XY"], "measure"),
    (["sweep", "--accel", "D=0.5", "--out", "no-such-dir/x.csv"], "cannot write no-such-dir/x.csv"),
    (["sweep", "--accel", "D=0.5", "--measures", "one_three"], "unknown measure 'one_three'"),
    (["sweep", "--accel", "C=0:0.5", "--accel", "D=0:0.5", "--grid", "100000"], "grid"),
    (["sweep", "--accel", "D=0.3", "--accel", "D=0.6"], "observer 'D' given twice"),
    (["matrix", "--accel", "D=0.3", "--accel", "D=0.6"], "observer 'D' given twice"),
    (["matrix", "--accel", "D=nan"], "accel: D=nan outside [0, pi/4]"),
    (["check", "--perturb", "nan"], "perturb: expected a finite number, got nan"),
    (["check", "--perturb", "inf"], "perturb: expected a finite number, got inf"),
    (["matrix", "--transpose", "X"], "transpose"),
    (["sweep", "--accel", "D=0.5", "--measures", "N_D1_ABC"], "unknown measure 'N_D1_ABC'"),
    (["sweep", "--accel", "D=0.5", "--measures", "entropy"], "unknown measure 'entropy'"),
    # argparse's own errors: one line, no usage block
    (["sweep", "--grid", "x"], "argument --grid: invalid int value: 'x'"),
    (["check", "--perturb", "x"], "argument --perturb: invalid float value: 'x'"),
    (["sweep", "--config", "f"], "unrecognized arguments: --config f"),
    ([], "the following arguments are required: command"),
    # one OBS=R or OBS=LO:HI per --accel, and an r value is a float or pi/4
    (["sweep", "--accel", "C=0:pi/4,D=0.2"], "accel: cannot parse r value 'pi/4,D=0.2'"),
    (["sweep", "--accel", "D=0:pi4"], "accel: cannot parse r value 'pi4'"),
    # a negative infinity or NaN is a value, not a flag, in either spelling and any case
    (["check", "--perturb", "-inf"], "perturb: expected a finite number, got -inf"),
    (["check", "--perturb=-inf"], "perturb: expected a finite number, got -inf"),
    (["check", "--perturb", "-Infinity"], "perturb: expected a finite number, got -inf"),
    (["check", "--perturb", "-nan"], "perturb: expected a finite number, got nan"),
    (["check", "--perturb", "-NaN"], "perturb: expected a finite number, got nan"),
    # --preset is read as figures --only is, and must name exactly one preset
    (["sweep", "--preset", "nope"], f"unknown preset 'nope'; known: {', '.join(PRESETS)}, or all"),
    (["sweep", "--preset", "fig3,fig1a"], "preset: expected one name, got fig3, fig1a"),
    (["sweep", "--preset", "all"], f"preset: expected one name, got {', '.join(PRESETS)}"),
    (["sweep", "--preset", " , "], "preset: empty selection"),
    # one observer rule and one message form, wherever observers are read
    (["sweep", "--accel", "E=0.3"], "accel: unknown observer 'E'; known: A, B, C, D"),
    (["matrix", "--accel", "E=0.3"], "accel: unknown observer 'E'; known: A, B, C, D"),
    (["matrix", "--transpose", "X"], "transpose: unknown observer 'X'; known: A, B, C, D"),
    # one r rule and one message form: sweep's axes, the library and the closed forms
    (["sweep", "--accel", "C=0.1", "--accel", "D=0:2"], "accel: D=2.0 outside [0, pi/4]"),
    (["matrix", "--accel", "C=-0.5"], "accel: C=-0.5 outside [0, pi/4]"),
    # a grid needs a swept axis to lay its points on
    (["sweep", "--accel", "D=0.3", "--grid", "5"], "grid: no swept axis"),
    (["sweep", "--preset", "fig3", "--accel", "D=0.2", "--grid", "5"], "grid: no swept axis"),
    # several axes: the first bad one in flag order, its range's r before its lo > hi
    (["sweep", "--accel", "C=0.5:0.1", "--accel", "D=0:2"], "accel: range for C has lo > hi"),
    (["sweep", "--accel", "C=1", "--accel", "D=2"], "accel: C=1.0 outside [0, pi/4]"),
    (["matrix", "--accel", "C=1", "--accel", "D=2"], "accel: C=1.0 outside [0, pi/4]"),
    (["sweep", "--accel", "C=nan", "--accel", "D=0:2"], "accel: C=nan outside [0, pi/4]"),
    (["matrix", "--accel", "D=2", "--accel", "C=nan"], "accel: D=2.0 outside [0, pi/4]"),
])
def test_bad_arguments_exit_2(argv, fragment, capsys, monkeypatch):
    def no_points(*args):
        raise AssertionError("a rejected command computed a point")
    # a sweep's measure names are read by evaluate_points' plan, before any state is built
    monkeypatch.setattr("wtangles.rindler._built", no_points)
    monkeypatch.setattr("wtangles.cli.observed_density", no_points)
    with recorded() as calls:
        assert main(argv) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["check", "--help"],
                                  ["check", "-h"], ["figures", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: wtangles")
    assert err == ""


def test_unwritable_out_exits_2_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(config):
        raise AssertionError("the sweep ran before the output was opened")
    monkeypatch.setattr("wtangles.cli.run_sweep", no_sweep)
    out = tmp_path / "missing" / "x.csv"
    assert main(["sweep", "--accel", "D=0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert not (tmp_path / "missing").exists()
    # a directory target, which a temporary file next to it would not reveal
    assert main(["sweep", "--accel", "D=0.5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert list(tmp_path.parent.glob(f"{tmp_path.name}.*")) == []


def test_failed_sweep_leaves_target_and_no_temp_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "curve.csv"
    out.write_text("old\n", encoding="utf-8")

    def failing_sweep(config):
        raise ValueError("sweep failed")
    monkeypatch.setattr("wtangles.cli.run_sweep", failing_sweep)
    assert main(["sweep", "--accel", "D=0.5", "--out", str(out)]) == 2
    assert "sweep failed" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


_SMALL_SWEEP = ["sweep", "--accel", "D=0:pi/4", "--grid", "3", "--measures", "N_D_rest"]


def _small_sweep_csv(capsys):
    """The CSV bytes of _SMALL_SWEEP, as it writes them to stdout."""
    assert main(_SMALL_SWEEP) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("exists", [True, False], ids=["to-a-file", "dangling"])
def test_out_through_a_symlink_writes_its_target(exists, tmp_path, capsys):
    expected = _small_sweep_csv(capsys)
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "curve.csv"
    if exists:
        target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main([*_SMALL_SWEEP, "--out", str(link)]) == 0
    assert f"to {link}" in capsys.readouterr().err
    # the link stays a link, and the file it names holds the CSV
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["curve.csv", "data", "link.csv"]


def test_out_to_a_fifo_writes_through_it(tmp_path, capsys):
    expected = _small_sweep_csv(capsys)
    fifo = tmp_path / "curve.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*_SMALL_SWEEP, "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    # the reader got the CSV, and the FIFO was written, not replaced by a file
    assert received == [expected]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["curve.fifo"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_out_to_a_full_device_names_it(capsys):
    assert main([*_SMALL_SWEEP, "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "error: cannot write /dev/full: No space left on device\n"
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


def test_failed_write_names_the_out_and_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "curve.csv"
    out.write_text("old\n", encoding="utf-8")

    def full_disk_open(*args, **kwargs):
        handle = open(*args, **kwargs)

        def no_space(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        handle.write = no_space
        return handle
    monkeypatch.setattr(sweep, "open", full_disk_open, raising=False)
    assert main([*_SMALL_SWEEP, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
    # the temporary file is gone and the old file is as it was
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]
    assert out.read_text(encoding="utf-8") == "old\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--accel", "D=0:pi/4", "--grid", "3"],
    ["matrix", "--accel", "D=0.3"],
    ["check"],
    ["figures", "--only", "fig3"],
])
def test_failed_eigensolve_exits_2(argv, tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, and reaches main as it is; the
    # positivity factorization fails too, so that matrix, which takes no
    # other spectrum, goes on to the failing eigensolve
    def not_converging(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def not_factoring(m):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    monkeypatch.setattr(np.linalg, "eigvalsh", not_converging)
    monkeypatch.setattr(np.linalg, "cholesky", not_factoring)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"
    # figures made its default directory, but left no CSV and no temporary file in it
    assert [p.name for p in tmp_path.rglob("*")] == (["figures_csv"] if argv[0] == "figures" else [])


def test_check_passes_and_reports(capsys):
    assert main(["check", "n_ab_const", "vanishing_threshold"]) == 0
    out = capsys.readouterr().out
    assert "2 checks, 2 passed" in out
    assert "PASS" in out and "FAIL" not in out


def test_check_perturbed_pipeline_fails(capsys):
    assert main(["check", "n_d1_abc", "--perturb", "0.001"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "first failing oracle: n_d1_abc" in out


THRESHOLD_LINE = ("vanishing_threshold    max dev {}  tol 0       FAIL  "
                  "r* = 0.4724731279 vs 0.472473; N_CD(r* - 1e-12) = {}")


def test_check_huge_perturb_prints_short_lines(capsys):
    # r* is never perturbed, only the points the pipeline reads, clipped to [0, pi/4]
    for perturb, dev, below in (("1e308", "  0.000e+00", "0.000e+00"),
                                ("-1e308", "  2.071e-01", "2.071e-01"),
                                ("0.6", "  0.000e+00", "0.000e+00"),
                                ("0.01", "  0.000e+00", "0.000e+00"),
                                ("-0.45", "  2.066e-01", "2.066e-01")):
        assert main(["check", "vanishing_threshold", f"--perturb={perturb}"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == THRESHOLD_LINE.format(dev, below)
        assert max(map(len, out.splitlines())) <= 121


def test_check_takes_a_negative_perturb_with_an_exponent(capsys):
    # argparse before 3.13 reads -1e-3 as a flag, not as the value of --perturb
    assert main(["check", "vanishing_threshold", "--perturb=-1e-3"]) == 1
    joined = capsys.readouterr()
    assert joined.out.splitlines()[0] == THRESHOLD_LINE.format("  8.198e-04", "8.198e-04")
    assert main(["check", "vanishing_threshold", "--perturb", "-1e-3"]) == 1
    assert capsys.readouterr() == joined
    assert main(["check", "vanishing_threshold", "--perturb", "-1e308"]) == 1
    assert "FAIL  r* = 0.4724731279 vs 0.472473; N_CD(r* - 1e-12) = 2.071e-01" in (
        capsys.readouterr().out)


def test_check_unknown_name(capsys):
    assert main(["check", "no_such_curve"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_check_strips_a_name(capsys):
    assert main(["check", " n_i_d1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n_i_d1 ") and out.endswith("1 checks, 1 passed\n")


def _readme_commands():
    """Each 'wtangles ...' line inside a fenced code block of the README."""
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("wtangles ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for command in commands:
        code = main(shlex.split(command, comments=True)[1:])
        assert code == 0, f"{command}: exit {code}, {capsys.readouterr().err}"


def test_matrix_prints_layout_and_rows(capsys):
    assert main(["matrix", "--accel", "D=0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "layout: A, B, C, D_I"
    assert len(lines) == 17      # header plus 16 rows


def test_matrix_transpose_and_symbolic_annotation(capsys):
    assert main(["matrix", "--accel", "D=0.5", "--transpose", "D", "--symbolic"]) == 0
    out = capsys.readouterr().out
    assert "partial transpose over: D" in out
    assert "nonzero entries" in out
    assert "δ" in out            # cos r_d monomial recognised


@pytest.mark.parametrize("name", [" C", "C ", " C "])
def test_matrix_reads_its_transpose_as_every_name_is_read(name, capsys):
    argv = ["matrix", "--accel", "C=0.3", "--accel", "D=0.4", "--symbolic", "--transpose"]
    assert main(argv + ["C"]) == 0
    expected = capsys.readouterr().out
    assert main(argv + [name]) == 0
    assert capsys.readouterr().out == expected


def test_matrix_inertial_default(capsys):
    assert main(["matrix"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "layout: A, B, C, D"


def test_matrix_rejects_swept_range(capsys):
    assert main(["matrix", "--accel", "D=0:0.5"]) == 2
    assert "fixed r" in capsys.readouterr().err


def test_emit_matrix_returns_string():
    text = emit_matrix({"D": 0.3}, transpose="D", symbolic=True)
    assert "layout: A, B, C, D_I" in text
    assert "nonzero entries" in text
    with pytest.raises(ValueError, match="^transpose: unknown observer 'X'; known: A, B, C, D$"):
        emit_matrix({"D": 0.3}, transpose="X")


def test_matrix_symbolic_golden_byte_for_byte(capsys):
    golden = (DATA / "matrix_C0.3_D0.4_symbolic.txt").read_text(encoding="utf-8")
    assert main(["matrix", "--accel", "C=0.3", "--accel", "D=0.4", "--symbolic"]) == 0
    assert capsys.readouterr().out == golden
    # the golden holds a monomial and the sum of squares
    assert "  ( 1, 2)  γδ\n" in golden and "  ( 3, 3)  α^2+β^2\n" in golden


R_STAR = 0.5 * math.acos(2.0 - math.sqrt(2.0))
MATRIX_SCENARIOS = ((), ("D",), ("C", "D"), ("A", "D"))
TRANSPOSES = (None, *OBSERVERS)


# the observer and function of each shorthand
SHORTHANDS = {"α": ("C", math.sin), "γ": ("C", math.cos), "β": ("D", math.sin),
              "δ": ("D", math.cos)}
NAME = re.compile(r"1|(?:[αγβδ](?:\^[2-4])?)+(?:\+(?:[αγβδ](?:\^[2-4])?)+)*")


def _printed_matrix(params, transpose):
    rho = observed_density(w_state(4), params)
    if transpose is None:
        return rho.matrix
    return partial_transpose(rho, [OBSERVERS.index(transpose)])


def _name_value(name, params):
    """A --symbolic name in math's sin and cos: 1, or a +-joined sum of monomials."""
    total = 0.0
    for term in name.split("+"):
        value = 1.0
        for symbol, power in re.findall(r"([αγβδ])(?:\^(\d))?", term):
            observer, function = SHORTHANDS[symbol]
            value *= function(params[observer]) ** int(power or 1)
        total += value
    return total


def _checked_labels(params, transpose, text):
    """The label of each entry that the --symbolic text lists, each checked against 4 rho_ij.

    The listed entries are the nonzero upper-triangle ones, in row-major
    order.  A name evaluates to 4 rho_ij within 1e-12 relative; any other
    label is the entry's 10-digit decimal, with a point or an exponent,
    which only an accelerated A or B gives, and maps to "decimal".
    """
    matrix = _printed_matrix(params, transpose).real
    header, *lines = text.split("\n\n")[1].splitlines()
    assert header == "nonzero entries as multiples of 1/4 (upper triangle):"
    labels = {}
    for line in lines:
        i, j, label = re.fullmatch(r"  \(([ \d]\d),([ \d]\d)\)  (\S+)", line).groups()
        key, want = (int(i), int(j)), 4.0 * matrix[int(i), int(j)]
        if label == f"{want:#.10g}" and {"A", "B"} & params.keys():
            labels[key] = "decimal"
        else:
            assert NAME.fullmatch(label), line
            assert math.isclose(_name_value(label, params), want, rel_tol=1e-12, abs_tol=0), line
            labels[key] = label
    rows, cols = np.nonzero(np.triu(np.abs(matrix) > 1e-12))
    assert list(labels) == list(zip(rows.tolist(), cols.tolist()))
    return labels


def _check_printout(params, transpose, seen):
    """Check emit_matrix at params against the reference grid and the labels in seen.

    seen maps each entry to its label at other r for the same observers, and
    takes the new ones: an entry has one label at every r.
    """
    text = emit_matrix(params, transpose, symbolic=True)
    grid = text.split("\n\n")[0]
    assert grid == reference.render_matrix(_printed_matrix(params, transpose), params, transpose)
    assert emit_matrix(params, transpose) == grid
    for key, label in _checked_labels(params, transpose, text).items():
        assert seen.setdefault(key, label) == label, key


@pytest.mark.parametrize("transpose", TRANSPOSES)
@pytest.mark.parametrize("observers", MATRIX_SCENARIOS, ids="".join)
def test_matrix_printout_matches_the_per_entry_reference(observers, transpose):
    # at r = 0 many entries vanish, and at pi/4 sin r and cos r coincide
    seen = {}
    for r in product((0.3, 0.0, R_STAR, R_MAX), repeat=len(observers)):
        _check_printout(dict(zip(observers, r)), transpose, seen)


def test_matrix_entries_without_shorthand_print_as_decimals():
    # only C and D have shorthands; an entry free of r_a, such as (8, 8), keeps its monomial
    text = emit_matrix({"A": 0.3, "D": 0.4}, symbolic=True)
    assert "  ( 4, 4)  0.7742647962\n" in text and "  ( 8, 8)  δ^2\n" in text


def test_matrix_decimals_never_read_as_a_name(capsys):
    # at r_B = 6.6e-6 these entries are 0.99999999996, which 10 digits round to 1
    params = {"B": 6.5632086339512176e-06, "C": 1.0154747385014225e-08}
    assert main(["matrix", "--accel", f"B={params['B']!r}", "--accel", f"C={params['C']!r}",
                 "--transpose", "C", "--symbolic"]) == 0
    text = capsys.readouterr().out
    labels = _checked_labels(params, "C", text)
    for entry in ((0, 3), (1, 4), (2, 2)):
        assert labels[entry] == "decimal"
        assert f"  ({entry[0]:2d},{entry[1]:2d})  1.000000000\n" in text


R_VALUES = st.one_of(st.floats(0.0, R_MAX),
                     st.floats(math.log(1e-8), math.log(R_MAX)).map(lambda x: min(math.exp(x), R_MAX)))


@given(observers=st.sampled_from(MATRIX_SCENARIOS), transpose=st.sampled_from(TRANSPOSES),
       r=st.lists(R_VALUES, min_size=2, max_size=2))
def test_matrix_printout_matches_the_reference_at_random_points(observers, transpose, r):
    # the labels at a point where no two shorthands coincide and no entry vanishes
    seen = {}
    _check_printout(dict(zip(observers, (0.3, 0.4))), transpose, seen)
    listed = set(seen)
    _check_printout(dict(zip(observers, r)), transpose, seen)
    assert set(seen) == listed


def test_matrix_names_entries_that_a_value_match_confused(capsys):
    # at r_C = 1e-4, α^2β^2 (8.7e-10) lies within 1e-9 of α^3 (1.0e-12), and γβ^2
    # within 1e-9 of β^2; on fig5's diagonal, r_C = r_D, γ equals δ
    golden = (DATA / "matrix_C0.0001_D0.3_symbolic.txt").read_text(encoding="utf-8")
    assert main(["matrix", "--accel", "C=1e-4", "--accel", "D=0.3", "--symbolic"]) == 0
    assert capsys.readouterr().out == golden
    assert "  ( 7, 7)  α^2β^2\n" in golden and "  ( 3, 5)  γβ^2\n" in golden
    assert "  ( 2, 2)  δ^2\n" in emit_matrix({"C": 0.3, "D": 0.3}, symbolic=True)


def test_module_entry_point_runs():
    result = subprocess.run([sys.executable, "-m", "wtangles", "check", "n_ab_const"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "1 checks, 1 passed" in result.stdout


@pytest.mark.parametrize("argv, shared, lines", [
    (["sweep", "--preset", "fig7"], True, 1),
    (["sweep", "--preset", "fig7"], False, 1),
    (["sweep", "--preset", "fig3", "--out", "{tmp}/fig3.csv"], True, 0),
    (["check", "n_ab_const"], True, 0),
], ids=["stderr-on-the-pipe", "stderr-to-a-file", "wrote-line-on-a-closed-pipe", "check-output"])
def test_a_reader_that_closes_the_pipe_early_reads_exit_2(argv, shared, lines, tmp_path):
    # as 2>&1 | head -n 1 does, or 2>file | head -n 1: fig7's CSV is larger
    # than a pipe holds, so the sweep writes on after the reader is gone; a
    # reader that reads nothing leaves a short output to fail at its flush.
    # Each ends quietly, with no traceback and no failed flush at exit (exit 1 or 120)
    read, write = os.pipe()
    # buffered, as stdout is by default: a rest left in the buffer would fail the flush at exit
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with open(tmp_path / "stderr", "wb") as err, \
            subprocess.Popen([sys.executable, "-m", "wtangles", *argv],
                             stdout=write, stderr=write if shared else err, env=env) as process:
        os.close(write)
        with open(read, "rb") as pipe:
            head = [pipe.readline() for _ in range(lines)]
        assert process.wait(timeout=120) == 2
    assert head == [b"r_C,r_D,pi4,Pi4\n"][:lines]
    assert (tmp_path / "stderr").read_text() == ""


@pytest.mark.parametrize("out_dir, message", [
    ("taken", "cannot create {tmp}/taken: File exists"),
    ("taken/sub", "cannot create {tmp}/taken/sub: Not a directory"),
    ("figures", "cannot write {tmp}/figures/fig3.csv: Is a directory"),
], ids=["a-file", "under-a-file", "csv-is-a-directory"])
def test_figures_bad_out_dir_exits_2(out_dir, message, tmp_path, capsys):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    (tmp_path / "figures" / "fig3.csv").mkdir(parents=True)
    assert main(["figures", "--out-dir", str(tmp_path / out_dir), "--only", "fig3"]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(tmp=tmp_path)}\n")


@pytest.mark.parametrize("argv, message", [
    (["--only", "fig3,nope"], f"unknown preset 'nope'; known: {', '.join(PRESETS)}, or all"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["--only", ""], "preset: empty selection"),
    (["--only", ","], "preset: empty selection"),
], ids=["unknown-preset", "unknown-flag", "empty-selection", "commas-only"])
def test_figures_bad_arguments_exit_2(argv, message, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["figures", "--out-dir", str(out_dir), *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out_dir.exists()


def test_figures_sweeps_each_named_preset_once(tmp_path, monkeypatch, capsys):
    swept, run_sweep = [], sweep.run_sweep

    def recording(config):
        swept.append(next(name for name, preset in PRESETS.items() if preset is config))
        return run_sweep(replace(config, grid=3))
    monkeypatch.setattr("wtangles.cli.run_sweep", recording)
    assert main(["figures", "--out-dir", str(tmp_path), "--only", "fig8,fig3,fig8,fig3"]) == 0
    assert swept == ["fig8", "fig3"]
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "fig8", "fig3", "total"]


@pytest.mark.parametrize("only, written", [
    ("fig1a,", ["fig1a"]),
    (" fig1a", ["fig1a"]),
    ("all", list(PRESETS)),
    ("fig8,all", ["fig8", *(name for name in PRESETS if name != "fig8")]),
], ids=["trailing-comma", "spaced", "all", "all-after-a-name"])
def test_figures_only_reads_names_as_measures_do(only, written, tmp_path, monkeypatch, capsys):
    run_sweep = sweep.run_sweep
    monkeypatch.setattr("wtangles.cli.run_sweep", lambda config: run_sweep(replace(config, grid=3)))
    assert main(["figures", "--out-dir", str(tmp_path), "--only", only]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        *written, "total"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{name}.csv" for name in written)


def test_figures_failed_preset_leaves_the_old_csv(tmp_path, monkeypatch, capsys):
    run_sweep = sweep.run_sweep

    def failing_on_fig8(config):
        if config is PRESETS["fig8"]:
            raise ValueError("sweep failed")
        return run_sweep(config)
    monkeypatch.setattr("wtangles.cli.run_sweep", failing_on_fig8)
    for name in ("fig3", "fig8"):
        (tmp_path / f"{name}.csv").write_text("old\n", encoding="utf-8")
    assert main(["figures", "--out-dir", str(tmp_path), "--only", "fig3,fig8"]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("fig3: 101 rows in ") and out.endswith(f" s -> {tmp_path}/fig3.csv\n")
    assert err == "error: sweep failed\n"
    # fig3 was replaced whole; fig8 failed part-way and is left as it was
    assert (tmp_path / "fig3.csv").read_text(encoding="utf-8").startswith("r_D,pi4,Pi4\n")
    assert (tmp_path / "fig8.csv").read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig3.csv", "fig8.csv"]


def test_figures_writes_the_pinned_default_grid_csvs(tmp_path, capsys):
    assert main(["figures", "--out-dir", str(tmp_path), "--only", "fig3,fig8"]) == 0
    for name in ("fig3", "fig8"):
        digest = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
        assert digest == DEFAULT_GRID_SHA256[name], pinned_on()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig3.csv", "fig8.csv"]


def test_check_golden_byte_for_byte(capsys):
    golden = (DATA / "check_all.txt").read_text(encoding="utf-8")
    assert main(["check"]) == 0
    assert capsys.readouterr().out == golden
    assert golden.endswith("7 checks, 7 passed\n")


@pytest.mark.parametrize("names", [["all", "n_d1_abc"], ["all", "all"], ["n_d1_abc", "all"]])
def test_check_expands_all_wherever_it_appears(names, capsys):
    # each check once, in registry order, as a plain check runs them
    assert main(["check", *names]) == 0
    assert capsys.readouterr().out == (DATA / "check_all.txt").read_text(encoding="utf-8")


def test_golden_sweep_reproduced_byte_for_byte(capsys):
    golden = (DATA / "fig3_grid5.csv").read_text(encoding="utf-8")
    assert main(["sweep", "--preset", "fig3", "--grid", "5"]) == 0
    out = capsys.readouterr().out
    assert out == golden, pinned_on()
    # guard the frozen file itself: r = 0 row carries the inertial residual
    first = golden.splitlines()[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(patterns.RESIDUAL_INERTIAL, abs=1e-10)
    assert float(first[2]) == pytest.approx(patterns.RESIDUAL_INERTIAL, abs=1e-10)
