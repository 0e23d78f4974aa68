"""Command-line front end: sweeps, figure CSVs, oracle cross-checks and matrix dumps.

A sweep is configured by its flags alone: --preset, or the defaults, gives
the base SweepConfig, and each other flag given replaces one of its fields.
A matrix dump has one route, the matrix command: its axes are checked once,
as a sweep's are, its state is built through the Rindler chunks, and its
entries are named from the support table that builds them; the matrix and
its names are permuted by one partial transpose, over no mode unless
--transpose names one.  main is run by the wtangles console script and by
python -m wtangles (__main__).
"""

from __future__ import annotations

import argparse
import functools
import os
import pathlib
import re
import sys
import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from .checks import run_check
from .fock import OBSERVERS, _transposed
from .measures import ConfigError, select_names
from .rindler import R_MAX, _chunks, _support, check_observers
from .sweep import (
    DEFAULT_GRID_1D,
    DEFAULT_GRID_2D,
    PRESETS,
    AxisSpec,
    SweepConfig,
    atomic_output,
    check_axes,
    run_sweep,
    write_csv,
)

ZERO_ENTRY_TOL = 1e-12


def _parse_r_value(text: str) -> float:
    text = text.strip()
    if text == "pi/4":
        return R_MAX
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"accel: cannot parse r value {text!r}") from None


def _parse_accel_tokens(tokens: Sequence[str]) -> tuple[AxisSpec, ...]:
    """One axis per --accel flag, each OBS=R or OBS=LO:HI."""
    axes = []
    for token in tokens:
        observer, equals, value = token.partition("=")
        if not equals:
            raise ConfigError(f"accel: expected OBS=R or OBS=LO:HI, got {token!r}")
        lo, colon, hi = value.partition(":")
        axes.append(AxisSpec(observer.strip(), _parse_r_value(lo),
                             _parse_r_value(hi if colon else lo)))
    return tuple(axes)


def _build_sweep_config(args: argparse.Namespace) -> SweepConfig:
    # read as figures --only reads its names, and then exactly one of them
    names = () if args.preset is None else select_names(args.preset.split(","), PRESETS, "preset")
    if len(names) > 1:
        raise ConfigError(f"preset: expected one name, got {', '.join(names)}")
    config = PRESETS[names[0]] if names else SweepConfig()
    if args.accel:
        config = replace(config, accelerated=_parse_accel_tokens(args.accel))
    if args.grid is not None:
        config = replace(config, grid=args.grid)
    if args.measures is not None:
        config = replace(config, measures=tuple(args.measures.split(",")))
    if args.diagonal:
        config = replace(config, diagonal=True)
    return config


def _write_sweep(config: SweepConfig, target: str) -> int:
    """Sweep config into the CSV file target and return its row count.

    The file is opened before the sweep and replaced whole only once it is
    done, so a sweep that fails leaves the old file as it was.
    """
    with atomic_output(target) as handle:
        header, rows = run_sweep(config)
        write_csv(header, rows, handle)
    return len(rows)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_sweep_config(args)
    if not args.out or args.out == "-":
        write_csv(*run_sweep(config), sys.stdout)
        return 0
    rows = _write_sweep(config, args.out)
    print(f"wrote {rows} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    names = select_names(args.only.split(","), PRESETS, "preset")
    out_dir = pathlib.Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create {out_dir}: {exc.strerror}") from None
    total_start = time.perf_counter()
    for name in names:
        start = time.perf_counter()
        path = out_dir / f"{name}.csv"
        rows = _write_sweep(PRESETS[name], str(path))
        print(f"{name}: {rows} rows in {time.perf_counter() - start:.2f} s -> {path}")
    print(f"total: {time.perf_counter() - total_start:.2f} s")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_check(args.names, perturb=args.perturb)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name:<22} max dev {result.max_dev:11.3e}  tol {result.tol:<7g} "
              f"{status}  {result.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results)} checks, {len(results) - len(failed)} passed")
    if failed:
        print(f"first failing oracle: {failed[0].name}")
        return 1
    return 0


# the shorthands of sin r and cos r of each observer; A and B have none
_SHORTHANDS = {"A": (None, None), "B": (None, None), "C": ("α", "γ"), "D": ("β", "δ")}


@functools.cache
def _entry_names(observers: tuple[str, ...]) -> np.ndarray:
    """The name of 4 rho_ij for each entry of rho with the sorted observers accelerated.

    Read off rindler's support table: every |W4> amplitude is 1/2, so 4 rho_ij
    is the sum of its products' factors.  A product is named by the power of
    sin r (code 2) and cos r (code 1) that each split mode puts on its two
    sides, in the symbol order α γ β δ with ^p for p > 1, or 1 without a
    factor; a sum joins its products with +, in name order.  An entry with a
    factor from A or B, and one outside the support, is None.
    """
    _, factors, rounds, layout = _support(tuple(map(OBSERVERS.index, observers)))
    codes = [factor.tolist() for factor in factors]
    products: dict[int, list] = {}
    for entries, left, right in rounds:
        for e, a, b in zip(entries.tolist(), left.tolist(), right.tolist()):
            powers = [(symbol, (code[a], code[b]).count(kind))
                      for observer, code in zip(observers, codes)
                      for symbol, kind in zip(_SHORTHANDS[observer], (2, 1))]
            products.setdefault(e, []).append([(s, p) for s, p in powers if p])
    # one name per compact column; the zero column, off the support, stays None
    names = np.full(layout.zero + 1, None, dtype=object)
    for e, terms in products.items():
        if all(symbol for term in terms for symbol, _ in term):
            names[e] = "+".join(sorted("".join(s if p == 1 else f"{s}^{p}" for s, p in term) or "1"
                                       for term in terms))
    return names[layout.column].reshape(16, 16)


def _cmd_matrix(args: argparse.Namespace) -> int:
    """Print the observed density matrix, or its partial transpose over --transpose's mode.

    With --symbolic, each nonzero upper-triangle entry (times 4) is listed
    by its name in the trig shorthands of the accelerated C and D, read off
    the Rindler map and permuted as the matrix is, or, with a factor from an
    accelerated A or B, as a 10-digit decimal with a point or an exponent.
    """
    axes = _parse_accel_tokens(args.accel or [])
    # sweep's checks first, since a NaN bound never equals itself and would read as a range
    check_axes(axes)
    for axis in axes:
        if not axis.fixed:
            raise ConfigError(f"matrix: needs a fixed r for {axis.observer}, got a range")
    params = {axis.observer: axis.lo for axis in axes}
    # the observer transposed, stripped as every name is, or none
    transposed = [] if args.transpose is None else [args.transpose.strip()]
    check_observers(transposed, "transpose")
    # check_axes has checked the observers and each r: the state is built with no second check
    layout, chunks = _chunks(tuple(params), np.array([[*params.values()]]))
    part = [OBSERVERS.index(obs) for obs in transposed]
    real = _transposed(layout.dense(next(chunks))[0], 4, part)
    labels = (f"{obs}_I" if obs in params else obs for obs in OBSERVERS)
    lines = [f"layout: {', '.join(labels)}"]
    lines.extend(f"partial transpose over: {obs}" for obs in transposed)
    # one printf template per row over Python floats: the same bytes as
    # formatting each value
    row_format = " ".join(["% .5f"] * real.shape[1])
    lines.extend(row_format % tuple(row) for row in real.tolist())
    if args.symbolic:
        lines.append("")
        lines.append("nonzero entries as multiples of 1/4 (upper triangle):")
        names = _transposed(_entry_names(tuple(sorted(params))), 4, part)
        rows, cols = np.nonzero(np.triu(np.abs(real) > ZERO_ENTRY_TOL))
        for i, j, value in zip(rows.tolist(), cols.tolist(), (4.0 * real[rows, cols]).tolist()):
            # "#": a decimal keeps its point, so 0.99999999996 cannot read as the name 1
            label = names[i, j] or f"{value:#.10g}"
            lines.append(f"  ({i:2d},{j:2d})  {label}")
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, for main to report in one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number with an exponent, such as --perturb -1e-3, and
        # -inf or -nan in any case are values, not flags; argparse before
        # 3.13 only knows -1 and -1.5
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # subparsers are made with the parent's class, so they raise too
    parser = _Parser(
        prog="wtangles",
        description="Entanglement measures of the four-qubit W state "
                    "for uniformly accelerated observers.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep acceleration parameters, emit CSV")
    sweep.add_argument("--accel", action="append", metavar="OBS=R|OBS=LO:HI",
                       help="accelerated observer, fixed r or swept range; repeatable")
    sweep.add_argument("--grid", type=int,
                       help=f"points per swept axis (default {DEFAULT_GRID_1D}, "
                            f"{DEFAULT_GRID_2D} for 2D)")
    sweep.add_argument("--measures", metavar="LIST",
                       help="comma-separated column names, or all (default all)")
    sweep.add_argument("--out", metavar="PATH", help="CSV output path ('-' for stdout)")
    sweep.add_argument("--preset", metavar="NAME",
                       help=f"figure preset: {', '.join(PRESETS)}")
    sweep.add_argument("--diagonal", action="store_true",
                       help="sweep both accelerated observers along r_c = r_d")
    sweep.set_defaults(func=_cmd_sweep)

    figures = sub.add_parser("figures", help="write one CSV per figure preset into a directory")
    figures.add_argument("--out-dir", default="figures_csv", help="directory for the CSV files")
    figures.add_argument("--only", metavar="LIST", default="all",
                         help="comma-separated preset names, or all (default: all)")
    figures.set_defaults(func=_cmd_figures)

    check = sub.add_parser("check", help="compare pipeline against closed forms")
    check.add_argument("names", nargs="*", default=["all"],
                       help="oracle names, or all (default: all)")
    check.add_argument("--perturb", type=float, default=0.0,
                       help="shift numeric-side r values; forces failures for testing")
    check.set_defaults(func=_cmd_check)

    matrix = sub.add_parser("matrix", help="print an observed density matrix")
    matrix.add_argument("--accel", action="append", metavar="OBS=R",
                        help="accelerated observer at a fixed r; repeatable")
    matrix.add_argument("--transpose", metavar="OBS",
                        help="print the partial transpose over this observer's mode")
    matrix.add_argument("--symbolic", action="store_true",
                        help="annotate nonzero entries with trig shorthand monomials")
    matrix.set_defaults(func=_cmd_matrix)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()      # a closed reader fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # a reader closed stdout or stderr (| head): what they hold goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            os.dup2(devnull, stream.fileno())
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
