"""Entanglement of the four-qubit fermionic W state under acceleration.

The pipeline builds |W4>, applies the Minkowski to Rindler mode split for
each accelerated observer, traces the causally disconnected region-II modes
and evaluates negativity tangles, residual pi tangles, the pi4 / Pi4 means
and the von Neumann entropy of the observed state.  run_check holds six
columns against independent closed forms: N_D_rest and S with one
accelerated observer, plus N_AB, N_AD, N_AC and N_CD.
"""

from .checks import CheckResult, run_check
from .fock import (
    DensityMatrix,
    partial_transpose,
    validate_density,
    w_state,
)
from .measures import (
    COLUMNS,
    big_pi4_tangle,
    evaluate,
    evaluate_points,
    tangle_report,
    von_neumann_entropy,
)
from .oracles import (
    entropy_one_accel,
    n_ab_const,
    n_d1_abc,
    n_i_d1,
    n_pair_accel_both,
    n_pair_accel_one,
    vanishing_threshold,
)
from .rindler import observed_densities, observed_density
from .sweep import PRESETS, AxisSpec, ConfigError, SweepConfig, run_sweep, write_csv

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "COLUMNS",
    "CheckResult",
    "ConfigError",
    "DensityMatrix",
    "PRESETS",
    "SweepConfig",
    "big_pi4_tangle",
    "entropy_one_accel",
    "evaluate",
    "evaluate_points",
    "n_ab_const",
    "n_d1_abc",
    "n_i_d1",
    "n_pair_accel_both",
    "n_pair_accel_one",
    "observed_densities",
    "observed_density",
    "partial_transpose",
    "run_check",
    "run_sweep",
    "tangle_report",
    "validate_density",
    "vanishing_threshold",
    "von_neumann_entropy",
    "w_state",
    "write_csv",
]
