"""Command-line behaviour, config files and the frozen sweep output."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from wtangles.cli import build_parser, emit_matrix, main

from . import patterns

DATA = Path(__file__).with_name("data")


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
    code = main(["sweep", "--accel", "D=0:pi4", "--grid", "2", "--measures", "S"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("r_D,S\n")
    assert len(out.splitlines()) == 3


def test_sweep_preset_and_override(capsys):
    assert main(["sweep", "--preset", "fig3", "--grid", "3"]) == 0
    assert capsys.readouterr().out.startswith("r_D,pi4,Pi4\n")
    assert main(["sweep", "--preset", "fig3", "--grid", "3", "--measures", "S"]) == 0
    assert capsys.readouterr().out.startswith("r_D,S\n")


def test_accel_comma_and_repeated_flags_agree(capsys):
    assert main(["sweep", "--accel", "C=0:pi/4,D=0.2", "--grid", "2", "--measures", "S"]) == 0
    joined = capsys.readouterr().out
    assert main(["sweep", "--accel", "C=0:pi/4", "--accel", "D=0.2",
                 "--grid", "2", "--measures", "S"]) == 0
    assert capsys.readouterr().out == joined


@pytest.mark.parametrize("argv, fragment", [
    (["sweep", "--accel", "D0.3"], "accel"),
    (["sweep", "--accel", "D=x"], "accel"),
    (["sweep", "--accel", "D=0:0.5", "--grid", "1"], "grid"),
    (["sweep", "--preset", "fig99"], "preset"),
    (["sweep", "--accel", "D=0:0.5", "--measures", "N_XY"], "measure"),
    (["sweep", "--accel", "D=0.5", "--out", "no-such-dir/x.csv"], "cannot write no-such-dir/x.csv"),
    (["sweep", "--config", "no-such-dir/sweep.cfg"], "no-such-dir/sweep.cfg"),
    (["sweep", "--accel", "C=0:0.5,D=0:0.5", "--grid", "100000"], "grid"),
    (["sweep", "--accel", "D=0.3", "--accel", "D=0.6"], "observer 'D' given twice"),
    (["matrix", "--accel", "D=0.3", "--accel", "D=0.6"], "observer 'D' given twice"),
    (["matrix", "--accel", "D=nan"], "accel: r=nan for D outside [0, pi/4]"),
    (["check", "--perturb", "nan"], "perturb: expected a finite number, got nan"),
    (["check", "--perturb", "inf"], "perturb: expected a finite number, got inf"),
    (["matrix", "--transpose", "X"], "transpose"),
])
def test_bad_arguments_exit_2(argv, fragment, capsys, monkeypatch):
    def no_points(*args):
        raise AssertionError("a rejected command computed a point")
    monkeypatch.setattr("wtangles.sweep.evaluate_points", no_points)
    monkeypatch.setattr("wtangles.checks.evaluate_points", no_points)
    monkeypatch.setattr("wtangles.cli.observed_density", no_points)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert fragment in err


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


def test_config_file_drives_a_sweep(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "# one accelerated observer\n"
        "accel = D=0:pi/4\n"
        "grid = 3\n"
        "measures = N_D_rest,S   # trailing comment\n",
        encoding="utf-8")
    assert main(["sweep", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("r_D,N_D_rest,S\n")
    assert len(out.splitlines()) == 4


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("accel = D=0:pi/4\ngrid = 3\nmeasures = S\n", encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--grid", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_config_file_diagonal_sweep(tmp_path, capsys):
    config = tmp_path / "diag.cfg"
    config.write_text(
        "accel = C=0:pi/4,D=0:pi/4\ndiagonal = yes\ngrid = 3\nmeasures = N_CD\n",
        encoding="utf-8")
    assert main(["sweep", "--config", str(config)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for row in rows:
        r_c, r_d, _ = row.split(",")
        assert r_c == r_d


@pytest.mark.parametrize("text, fragment", [
    ("speed = 3\n", "unknown key"),
    ("just some words\n", "expected 'key = value'"),
    ("grid = fast\n", "integer"),
    ("accel = C=0:1,D=0:1\ndiagonal = maybe\n", "boolean"),
])
def test_config_file_errors(tmp_path, capsys, text, fragment):
    config = tmp_path / "bad.cfg"
    config.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(config)]) == 2
    assert fragment in capsys.readouterr().err


def test_config_file_error_names_the_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("grid = 3\nspeed = 3\n", encoding="utf-8")
    assert main(["sweep", "--config", str(config)]) == 2
    assert f"{config}:2:" in capsys.readouterr().err


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


def test_check_unknown_name(capsys):
    assert main(["check", "no_such_curve"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


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
    with pytest.raises(ValueError, match="transpose: unknown observer 'X'"):
        emit_matrix({"D": 0.3}, transpose="X")


def test_matrix_symbolic_golden_byte_for_byte(capsys):
    golden = (DATA / "matrix_C0.3_D0.4_symbolic.txt").read_text(encoding="utf-8")
    assert main(["matrix", "--accel", "C=0.3", "--accel", "D=0.4", "--symbolic"]) == 0
    assert capsys.readouterr().out == golden
    # the golden holds a monomial and the sum of squares
    assert "  ( 1, 2)  γδ\n" in golden and "  ( 3, 3)  α^2+β^2\n" in golden


def test_module_entry_point_runs():
    result = subprocess.run([sys.executable, "-m", "wtangles", "check", "n_ab_const"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "1 checks, 1 passed" in result.stdout


@pytest.mark.parametrize("out_dir, message", [
    ("taken", "cannot create {tmp}/taken: File exists"),
    ("taken/sub", "cannot create {tmp}/taken/sub: Not a directory"),
    ("figures", "cannot write {tmp}/figures/fig3.csv: Is a directory"),
], ids=["a-file", "under-a-file", "csv-is-a-directory"])
def test_reproduce_figures_bad_out_dir_exits_2(out_dir, message, tmp_path):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    (tmp_path / "figures" / "fig3.csv").mkdir(parents=True)
    script = Path(__file__).parents[1] / "scripts" / "reproduce_figures.py"
    result = subprocess.run([sys.executable, str(script), "--out-dir", str(tmp_path / out_dir),
                             "--only", "fig3"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert result.stderr == f"error: {message.format(tmp=tmp_path)}\n"
    assert result.stdout == ""


def test_reproduce_figures_failed_preset_leaves_the_old_csv(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", Path(__file__).parents[1] / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    run_sweep = script.run_sweep

    def failing_on_fig8(config):
        if config is script.PRESETS["fig8"]:
            raise ValueError("sweep failed")
        return run_sweep(config)
    monkeypatch.setattr(script, "run_sweep", failing_on_fig8)
    for name in ("fig3", "fig8"):
        (tmp_path / f"{name}.csv").write_text("old\n", encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--out-dir", str(tmp_path),
                                      "--only", "fig3,fig8"])
    with pytest.raises(ValueError, match="sweep failed"):
        script.main()
    # fig3 was replaced whole; fig8 failed part-way and is left as it was
    assert (tmp_path / "fig3.csv").read_text(encoding="utf-8").startswith("r_D,pi4,Pi4\n")
    assert (tmp_path / "fig8.csv").read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig3.csv", "fig8.csv"]


def test_golden_sweep_reproduced_byte_for_byte(capsys):
    golden = (DATA / "fig3_grid5.csv").read_text(encoding="utf-8")
    assert main(["sweep", "--preset", "fig3", "--grid", "5"]) == 0
    out = capsys.readouterr().out
    assert out == golden
    # guard the frozen file itself: r = 0 row carries the inertial residual
    first = golden.splitlines()[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(patterns.RESIDUAL_INERTIAL, abs=1e-10)
    assert float(first[2]) == pytest.approx(patterns.RESIDUAL_INERTIAL, abs=1e-10)
