"""The public surface: the names wtangles exports and the ones its benchmark calls."""

import ast
import importlib
from pathlib import Path

import wtangles
import wtangles.cli
import wtangles.measures
import wtangles.oracles
import wtangles.sweep

PUBLIC = (
    "AxisSpec", "COLUMNS", "CheckResult", "ConfigError", "DensityMatrix", "PRESETS",
    "SweepConfig", "big_pi4_tangle", "entropy_one_accel", "evaluate", "evaluate_points",
    "n_ab_const", "n_d1_abc", "n_i_d1", "n_pair_accel_both", "n_pair_accel_one",
    "observed_densities", "observed_density", "partial_transpose", "run_check", "run_sweep",
    "tangle_report", "validate_density", "vanishing_threshold", "von_neumann_entropy",
    "w_state", "write_csv",
)
# what perfbench/run.py calls through the package namespace
BENCHMARK_CALLS = ("observed_density", "w_state", "tangle_report", "run_sweep", "PRESETS",
                   "write_csv", "run_check")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(path, name):
    """The literal that the module at path assigns to name, read without importing it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])


def test_all_names_exactly_the_public_surface():
    assert len(PUBLIC) == 27
    assert sorted(wtangles.__all__) == sorted(PUBLIC)
    for name in wtangles.__all__:
        assert hasattr(wtangles, name), name
    assert set(BENCHMARK_CALLS) <= set(wtangles.__all__)
    assert callable(wtangles.cli.main)


def test_config_error_is_one_class():
    # raised by the one name rule in measures and by sweep's config checks alike
    assert wtangles.ConfigError is wtangles.measures.ConfigError
    assert wtangles.sweep.ConfigError is wtangles.measures.ConfigError


def test_oracles_keep_every_closed_form_the_benchmark_verifies():
    # read the names without importing the benchmark
    closed_forms = _assigned(PERFBENCH / "verify.py", "CLOSED_FORMS")
    assert len(closed_forms) == 6
    for name in closed_forms:
        assert callable(getattr(wtangles.oracles, name, None)), name


def test_the_benchmark_layers_import_and_its_set_up_runs():
    # every module the benchmark's tracer wraps
    layers = _assigned(PERFBENCH / "tracer.py", "LAYERS")
    assert len(layers) == 8
    for layer in layers:
        importlib.import_module(f"wtangles.{layer}")
    # the package calls of the set-up the benchmark times, run as it writes them
    run = PERFBENCH / "run.py"
    code = _assigned(run, "SETUP_CODE").format(point=_assigned(run, "WARMUP_POINT"), bench="")
    body = [node for node in ast.parse(code).body if "wtangles" in ast.unparse(node)]
    assert [ast.unparse(node).split("(")[0] for node in body] == [
        "import wtangles", "rho = wtangles.observed_density", "wtangles.tangle_report"]
    namespace = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(run), "exec"), namespace)
    assert namespace["rho"].matrix.shape == (16, 16)
