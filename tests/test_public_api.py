"""The public surface: the names wtangles exports and the ones its benchmark calls."""

import ast
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
VERIFY = Path(__file__).resolve().parent.parent / "perfbench" / "verify.py"


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
    tree = ast.parse(VERIFY.read_text(encoding="utf-8"))
    closed_forms = next(ast.literal_eval(node.value) for node in tree.body
                        if isinstance(node, ast.Assign)
                        and [getattr(t, "id", None) for t in node.targets] == ["CLOSED_FORMS"])
    assert len(closed_forms) == 6
    for name in closed_forms:
        assert callable(getattr(wtangles.oracles, name, None)), name
