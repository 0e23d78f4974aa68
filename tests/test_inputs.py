"""Generative tests of both input surfaces: any input gives values or one line of error.

The library test draws every argument of evaluate, evaluate_points,
observed_density, observed_densities, run_check, run_sweep, the closed
forms, partial_transpose, tangle_report, von_neumann_entropy, big_pi4_tangle,
validate_density and DensityMatrix from the kinds of input a caller can get wrong: None,
bytes, a bare str, nested and unhashable tokens as names; bools mixed with
floats, complex values, NaN, inf and text as r; ragged and wrongly shaped r;
unknown and repeated observers; bytes, numbers, text and lists as a
scenario; None, text, bools, complex values and inf as a perturb; a
SweepConfig whose accelerated, grid or diagonal is of a wrong kind; bools,
floats, None, text, numbers and nested lists as transpose positions; arrays,
None and text as a state, to evaluate and to partial_transpose; lists, None
and text as residuals; object, str and bool arrays and lists as a density
matrix, to validate_density and to DensityMatrix.  Each call must return, or raise one
ValueError (a ConfigError is one) whose message is one line, with no other
exception chained to it; a ConfigError comes before any call into LAPACK
(tests/lapack.py records none).  An input of a wrong kind must raise a
ConfigError: a scenario that is not a mapping or None, a perturb that is not
a finite real number or is a bool, a config field of a wrong kind, positions
that are not an iterable of ints, a state that is not a DensityMatrix,
residuals that are not a mapping, and a density matrix that is not of real
or complex numbers.

The CLI test draws argv from build_parser's own subcommands and options,
with tricky values, and runs cli.main in a scratch directory: the exit code
is 0, 1 or 2, an exit 2 prints exactly one error: line, and no exception
escapes.  The default grids are cut to 3 points per axis and a call
evaluates at most MAX_POINTS points, so that each example stays cheap.
"""

import argparse
import contextlib
import io
import math
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wtangles import checks, oracles, sweep
from wtangles.checks import CHECKS, run_check
from wtangles.cli import build_parser, main
from wtangles.fock import OBSERVERS, DensityMatrix, partial_transpose, validate_density, w_state
from wtangles.measures import (
    COLUMNS,
    big_pi4_tangle,
    evaluate,
    evaluate_points,
    select_names,
    tangle_report,
    von_neumann_entropy,
)
from wtangles.rindler import R_MAX, ConfigError, observed_densities, observed_density
from wtangles.sweep import PRESETS, AxisSpec, SweepConfig, run_sweep

from .lapack import recorded

# names of every kind, and tokens that are not names: hashable and not
NAMES = [*OBSERVERS, *COLUMNS, *CHECKS, *PRESETS, "all", "E", " C", "S ", "", ","]
HASHABLE_TOKENS = st.one_of(
    st.sampled_from(NAMES),
    st.text(max_size=4),
    st.binary(max_size=3),
    st.none(),
    st.integers(-1, 1),
    st.tuples(st.sampled_from(NAMES)),
)
TOKENS = st.one_of(HASHABLE_TOKENS, st.lists(st.sampled_from(NAMES), max_size=2), st.builds(dict))
# a name list: a bare token (None, bytes, a str, ...) or a list or tuple of tokens
NAME_LISTS = st.one_of(TOKENS, st.lists(TOKENS, max_size=4),
                       st.lists(TOKENS, max_size=4).map(tuple))
OBSERVER_LISTS = st.one_of(NAME_LISTS, st.lists(st.sampled_from(OBSERVERS), max_size=4))
R_VALUES = st.one_of(
    st.floats(0.0, R_MAX),
    st.sampled_from([0.0, R_MAX, -1e-13, R_MAX + 1e-13, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.integers(-2, 2),
    st.complex_numbers(max_magnitude=1.0),
    st.none(),
    st.text(max_size=3),
)
R_ARRAYS = hnp.arrays(st.sampled_from(["f8", "f4", "i8", "?", "c16", "U3"]),
                      hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
# r as a number, a list of any depth and raggedness, or an ndarray of any dtype and shape
R_ANY = st.one_of(R_VALUES, R_ARRAYS,
                  st.lists(st.one_of(R_VALUES, st.lists(R_VALUES, max_size=3)), max_size=3))


@st.composite
def _points(draw):
    """observers and an r, of the shape they need about half the time."""
    observers = draw(OBSERVER_LISTS)
    k = len(observers) if isinstance(observers, (list, tuple)) else 1
    rows = st.lists(st.lists(R_VALUES, min_size=k, max_size=k), min_size=1, max_size=3)
    return observers, draw(st.one_of(rows, rows.map(np.array), R_ANY))


_RHO = observed_densities(w_state(4), ("C", "D"), [[0.2, 0.3], [0.4, 0.1]])
_ONE_R_FORMS = [oracles.n_d1_abc, oracles.n_i_d1, oracles.n_pair_accel_one,
                 oracles.entropy_one_accel]


def _evaluate(rho, columns):
    """evaluate on a stack of two states, or on one state."""
    return evaluate(_RHO if rho == "stack" else _RHO[0], columns)


_AXES = (AxisSpec("C", 0.0, 0.5), AxisSpec("D", 0.0, 0.5))
# the values each drawn SweepConfig field takes, of its kind and of wrong kinds
SWEEP_FIELDS = {
    "accelerated": [(AxisSpec("D", 0.3, 0.3),), _AXES[1:], _AXES,
                    None, list(_AXES), (("D", 0.0, 0.5),), _AXES[1], (_AXES[0], "D")],
    "grid": [None, 2, 3, np.int64(3), 2.5, "3", True, np.float64(3.0)],
    "diagonal": [False, True, "no", "", 0, 1, None, np.bool_(True)],
}


# transpose positions: lists of positions of every kind, and what is no list of them
PARTS = st.one_of(
    st.lists(st.one_of(st.integers(-1, 4), st.booleans(), st.floats(-1.0, 4.0), st.none(),
                       st.sampled_from([np.int64(1), np.bool_(True), "0", b"", [0], 1j])),
             max_size=3),
    st.sampled_from(["0", b"0", "", 1, 0.0, None, np.array(1), np.array([0, 3]),
                     np.array([[0]]), np.array([0.0]), range(2), (3,)]),
)
# a state, one or a stack, and what is no DensityMatrix: its bare array, None, text, a list
STATES = st.sampled_from([_RHO, _RHO[0], _RHO.matrix, _RHO[0].matrix, None, "rho", [[1.0]]])
RESIDUAL_VALUES = st.one_of(st.floats(-1e-9, 1.0), st.just(math.nan), st.just(np.full(2, 0.1)))
# residuals: mappings of every size, and what is no mapping
RESIDUAL_SETS = st.one_of(
    st.dictionaries(st.sampled_from(OBSERVERS), RESIDUAL_VALUES, max_size=4),
    st.fixed_dictionaries({obs: RESIDUAL_VALUES for obs in OBSERVERS}),
    st.sampled_from([[0.1, 0.2, 0.3, 0.4], None, "ABCD", 4, (0.1,) * 4, np.full(4, 0.1),
                     [("A", 0.1)]]),
)
# density matrices of every dtype: states, a bad trace, wrong shapes and drawn values
DENSITY_ARRAYS = st.builds(
    lambda m, dtype: np.asarray(m).astype(dtype),
    st.one_of(st.sampled_from([np.eye(2) / 2, _RHO[0].matrix, _RHO.matrix, np.eye(4)]),
              hnp.arrays("f8", st.sampled_from([(2, 2), (3,), (1, 4, 4), (2, 3)]),
                         elements=st.floats(-1.0, 1.0))),
    st.sampled_from([float, complex, int, bool, str, object]),
)


def _wrong_kind(call):
    """Whether call passes an argument of a kind that must raise a ConfigError.

    A scenario is a mapping or None; a perturb is a finite real number, not a
    bool; a config's accelerated is a tuple of AxisSpec, its grid None or an
    int or numpy integer, its diagonal a bool.  Transpose positions are an
    iterable of ints or numpy integers, not bools; a state is a
    DensityMatrix; residuals are a mapping; a density matrix has an integer,
    float or complex dtype.
    """
    if call.func is partial_transpose:
        part = call.args[1]
        return (not isinstance(call.args[0], DensityMatrix)
                or isinstance(part, (str, bytes)) or not np.iterable(part)
                or not all(type(p) in (int, np.int64) for p in part))
    if call.func in (evaluate, tangle_report, von_neumann_entropy):
        return not isinstance(call.args[0], DensityMatrix)
    if call.func is big_pi4_tangle:
        return not isinstance(call.args[0], dict)
    if call.func in (validate_density, DensityMatrix):
        return np.asarray(call.args[0]).dtype.kind not in "iufc"
    if call.func is run_sweep:
        config = call.args[0]
        return not (type(config.accelerated) is tuple
                    and all(type(axis) is AxisSpec for axis in config.accelerated)
                    and (config.grid is None or type(config.grid) in (int, np.int64))
                    and type(config.diagonal) is bool)
    if call.func is observed_density:
        return not isinstance(call.args[1], (dict, type(None)))
    if call.func is run_check:
        perturb = call.args[1]
        return not (isinstance(perturb, float) and math.isfinite(perturb))
    return False


def _holds_bool(value):
    """Whether value is or holds a bool: in a list, tuple or dict, or as an array's dtype."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    if isinstance(value, dict):
        return any(map(_holds_bool, value.values()))
    return isinstance(value, (bool, np.bool_)) or getattr(value, "dtype", None) == bool


CALLS = st.one_of(
    st.builds(lambda points, columns: partial(evaluate_points, *points, columns),
              _points(), NAME_LISTS),
    st.builds(lambda points: partial(observed_densities, w_state(4), *points), _points()),
    st.builds(partial, st.just(observed_density), st.just(w_state(4)),
              st.one_of(st.none(), st.dictionaries(HASHABLE_TOKENS, R_VALUES, max_size=3),
                        st.binary(max_size=3), st.integers(-2, 5), st.text(max_size=3),
                        st.lists(st.tuples(st.sampled_from(OBSERVERS), R_VALUES), max_size=2))),
    st.builds(partial, st.just(_evaluate), st.sampled_from(["stack", "state"]), NAME_LISTS),
    st.builds(partial, st.just(run_check), NAME_LISTS,
              st.one_of(st.sampled_from([0.0, 0.01]),
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.none(), st.text(max_size=3), st.booleans(),
                        st.complex_numbers(max_magnitude=1.0), st.just(math.inf))),
    st.builds(lambda closed_form, r_c, r_d: partial(closed_form, r_c, r_d),
              st.just(oracles.n_pair_accel_both), R_ANY, R_ANY),
    st.builds(partial, st.sampled_from(_ONE_R_FORMS), R_ANY),
    st.builds(lambda fields, measures: partial(run_sweep, SweepConfig(**fields, measures=measures)),
              st.fixed_dictionaries({name: st.sampled_from(values)
                                     for name, values in SWEEP_FIELDS.items()}),
              st.sampled_from([("S",), "N_CD"])),
    st.builds(partial, st.just(partial_transpose),
              st.one_of(st.sampled_from([_RHO, _RHO[0]]), STATES), PARTS),
    st.builds(partial, st.just(evaluate), STATES, st.sampled_from(["S", ["N_CD", "Pi4"]])),
    st.builds(partial, st.sampled_from([tangle_report, von_neumann_entropy]), STATES),
    st.builds(partial, st.just(big_pi4_tangle), RESIDUAL_SETS),
    st.builds(partial, st.sampled_from([validate_density, DensityMatrix]), DENSITY_ARRAYS),
)


@settings(max_examples=200)
@given(call=CALLS)
@example(call=partial(evaluate_points, ("C", "D"), [[0.1, 0.2]], [["S"]]))
@example(call=partial(evaluate_points, ("C", "D"), [[False, 0.3]], "N_CD"))
@example(call=partial(observed_density, w_state(4), b"CD"))
@example(call=partial(observed_density, w_state(4), 5))
@example(call=partial(observed_density, w_state(4), [("C", 0.3)]))
@example(call=partial(run_check, ["n_ab_const"], None))
@example(call=partial(run_check, ["n_ab_const"], "0.1"))
@example(call=partial(run_check, ["n_ab_const"], True))
@example(call=partial(run_check, ["n_ab_const"], 1j))
@example(call=partial(run_sweep, SweepConfig(_AXES, grid=3, diagonal="no")))
@example(call=partial(run_sweep, SweepConfig(_AXES[1:], grid=2.5)))
@example(call=partial(run_sweep, SweepConfig(_AXES[1:], grid="3")))
@example(call=partial(run_sweep, SweepConfig(accelerated=None)))
@example(call=partial(run_sweep, SweepConfig(accelerated=(("D", 0.0, 0.5),))))
@example(call=partial(partial_transpose, _RHO[0], [True]))
@example(call=partial(partial_transpose, _RHO[0], [1.0]))
@example(call=partial(partial_transpose, _RHO[0], [-0.0]))
@example(call=partial(partial_transpose, _RHO[0], "0"))
@example(call=partial(partial_transpose, _RHO[0], [None]))
@example(call=partial(partial_transpose, _RHO[0], 1))
@example(call=partial(partial_transpose, _RHO[0], [[0]]))
@example(call=partial(evaluate, _RHO.matrix, "S"))
@example(call=partial(evaluate, None, "S"))
@example(call=partial(tangle_report, _RHO[0].matrix))
@example(call=partial(tangle_report, None))
@example(call=partial(von_neumann_entropy, _RHO.matrix))
@example(call=partial(von_neumann_entropy, None))
@example(call=partial(big_pi4_tangle, [0.1, 0.2, 0.3, 0.4]))
@example(call=partial(big_pi4_tangle, None))
@example(call=partial(validate_density, (np.eye(2) / 2).astype(object)))
@example(call=partial(partial_transpose, np.eye(4) / 4, [0]))
@example(call=partial(partial_transpose, None, [0]))
@example(call=partial(DensityMatrix, [[True, False], [False, False]]))
@example(call=partial(DensityMatrix, [["1", "0"], ["0", "0"]]))
@example(call=partial(DensityMatrix, (np.eye(2) / 2).astype(object)))
def test_a_library_call_gives_values_or_one_line_error(call):
    with recorded() as calls:
        try:
            call()
        except ValueError as exc:
            message = str(exc)
            assert message and "\n" not in message
            # nothing chained that a traceback would print as well
            assert exc.__cause__ is None and (exc.__context__ is None or exc.__suppress_context__)
            assert isinstance(exc, ConfigError) or not _wrong_kind(call), \
                "an input of the wrong kind raised no ConfigError"
            if isinstance(exc, ConfigError):
                assert calls == [], "a ConfigError came after a call into LAPACK"
        else:
            # a bool is no r or perturb, not even among numbers, which numpy reads as numbers
            assert not any(map(_holds_bool, call.args)), "a bool was read as a number"
            assert not _wrong_kind(call), "an input of the wrong kind was read"


# each example evaluates at most this many points through run_sweep and run_check;
# run_check takes 1,324 for its whole suite
MAX_POINTS = 1500


class _Capped(Exception):
    """An example's argv asked for more than MAX_POINTS points: it stops there."""


def _capped(evaluated, observers, r, columns):
    # a bad request is an exit 2 at any size: evaluate_points reads it before any state
    select_names(columns, COLUMNS, "measure")
    evaluated.append(len(r))
    if sum(evaluated) > MAX_POINTS:
        raise _Capped
    return evaluate_points(observers, r, columns)


_PARSER = build_parser()
_SUBCOMMANDS = next(action for action in _PARSER._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
# each subcommand's options and positionals, without -h
_ACTIONS = {name: [action for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)]
            for name, parser in _SUBCOMMANDS.items()}
# values for paths stay inside the scratch directory the test runs in
PATHS = st.sampled_from(["-", "", ".", "out.csv", "sub", "missing/out.csv", "figs", "figs/deep"])
NUMBERS = ["0", "0.3", "-0", "pi/4", " pi/4 ", "1e400", "-1e-3", "nan", "-NaN", "inf", "-inf",
           "2", "3", "5", "0", "1", "-2", "99999", "2.5", "٣", "0x1", ""]
VALUES = st.one_of(
    st.sampled_from(NUMBERS),
    st.builds("{}={}".format, st.sampled_from([*OBSERVERS, "E", " C", ""]),
              st.sampled_from(NUMBERS)),
    st.builds("{}={}:{}".format, st.sampled_from([*OBSERVERS, "E"]),
              st.sampled_from(NUMBERS), st.sampled_from(NUMBERS)),
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(",".join),
    # no "-", so that a drawn value is never an option or an abbreviation of one
    st.text(st.characters(exclude_characters="-/\\"), max_size=5),
)
JUNK = st.sampled_from(["--config", "-x", "--", "extra", "--grid", "-1", "--accel=", "="])


@st.composite
def _argv(draw):
    """A subcommand, then some of its options and positionals with drawn values."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [name]
    for action in draw(st.lists(st.sampled_from(_ACTIONS[name]), max_size=5)):
        if not action.option_strings:
            argv += draw(st.lists(VALUES, max_size=3))
        elif action.nargs == 0:
            argv.append(action.option_strings[0])
        else:
            option = action.option_strings[0]
            value = draw(PATHS if action.dest in ("out", "out_dir") else VALUES)
            argv += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
    return argv + draw(st.lists(JUNK, max_size=1))


@settings(max_examples=50)
@given(argv=_argv())
def test_a_command_line_exits_0_1_or_2_with_at_most_one_error_line(argv):
    evaluated = []
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.chdir(scratch)
        patch.setattr(sweep, "DEFAULT_GRID_1D", 3)
        patch.setattr(sweep, "DEFAULT_GRID_2D", 3)
        for module in (sweep, checks):
            patch.setattr(module, "evaluate_points", partial(_capped, evaluated))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except _Capped:
            return
    assert code in (0, 1, 2)
    assert sum(evaluated) <= MAX_POINTS
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert err.getvalue().endswith("\n")
    else:
        assert not any(line.startswith("error") for line in lines)
