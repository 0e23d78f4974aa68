"""Entanglement of the four-qubit fermionic W state under acceleration.

The pipeline builds |W4>, applies the Minkowski to Rindler mode split for
each accelerated observer, traces the causally disconnected region-II modes
and evaluates negativity tangles, residual pi tangles, the pi4 / Pi4 means
and the von Neumann entropy of the observed state.  Every printed closed
form is also available as an independent oracle for cross-checking.
"""

from .checks import CheckResult, run_check
from .fock import (
    DensityMatrix,
    Mode,
    ModeLayout,
    Region,
    StateVector,
    basis_index,
    partial_trace,
    partial_transpose,
    pure_to_density,
    w_state,
)
from .linalg import (
    NoConvergenceError,
    NotHermitianError,
    hermitian_eigenvalues,
    negative_eigenvalue_sum,
    trace_norm,
)
from .measures import (
    COLUMNS,
    big_pi4_tangle,
    evaluate,
    negativity,
    tangle_report,
    von_neumann_entropy,
)
from .oracles import (
    ORACLES,
    OracleCurve,
    entropy_one_accel,
    n_ab_const,
    n_d1_abc,
    n_i_d1,
    n_pair_accel_both,
    n_pair_accel_one,
    vanishing_threshold,
)
from .rindler import (
    AccelerationParam,
    Scenario,
    acceleration_to_r,
    apply_rindler,
    observed_density,
)
from .sweep import PRESETS, AxisSpec, ConfigError, SweepConfig, run_sweep, write_csv

__version__ = "0.1.0"

__all__ = [
    "AccelerationParam",
    "AxisSpec",
    "COLUMNS",
    "CheckResult",
    "ConfigError",
    "DensityMatrix",
    "Mode",
    "ModeLayout",
    "NoConvergenceError",
    "NotHermitianError",
    "ORACLES",
    "OracleCurve",
    "PRESETS",
    "Region",
    "Scenario",
    "StateVector",
    "SweepConfig",
    "acceleration_to_r",
    "apply_rindler",
    "basis_index",
    "big_pi4_tangle",
    "entropy_one_accel",
    "evaluate",
    "hermitian_eigenvalues",
    "n_ab_const",
    "n_d1_abc",
    "n_i_d1",
    "n_pair_accel_both",
    "n_pair_accel_one",
    "negative_eigenvalue_sum",
    "negativity",
    "observed_density",
    "partial_trace",
    "partial_transpose",
    "pure_to_density",
    "run_check",
    "run_sweep",
    "tangle_report",
    "trace_norm",
    "vanishing_threshold",
    "von_neumann_entropy",
    "w_state",
    "write_csv",
]
