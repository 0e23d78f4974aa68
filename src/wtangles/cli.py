"""Command-line front end: sweeps, oracle cross-checks and matrix dumps."""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from .checks import run_check
from .fock import OBSERVERS, partial_transpose, w_state
from .rindler import R_MAX, observed_density
from .sweep import (
    PRESETS,
    AxisSpec,
    ConfigError,
    SweepConfig,
    atomic_output,
    check_axes,
    run_sweep,
    write_csv,
)

CONFIG_KEYS = ("accel", "grid", "measures", "out", "preset", "diagonal")
SYMBOL_MATCH_TOL = 1e-9
ZERO_ENTRY_TOL = 1e-12


def _parse_r_value(text: str) -> float:
    text = text.strip()
    if text in ("pi/4", "pi4"):
        return R_MAX
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"accel: cannot parse r value {text!r}") from None


def _parse_accel_tokens(tokens: Sequence[str]) -> tuple[AxisSpec, ...]:
    axes = []
    for token in itertools.chain.from_iterable(t.split(",") for t in tokens):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ConfigError(f"accel: expected OBS=R or OBS=LO:HI, got {token!r}")
        observer, _, value = token.partition("=")
        observer = observer.strip()
        if ":" in value:
            lo, _, hi = value.partition(":")
            axes.append(AxisSpec(observer, _parse_r_value(lo), _parse_r_value(hi)))
        else:
            r = _parse_r_value(value)
            axes.append(AxisSpec(observer, r, r))
    return tuple(axes)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"diagonal: expected a boolean, got {text!r}")


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key-value grammar: 'key = value' lines, '#' starts a comment."""
    settings: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r}, known: {', '.join(CONFIG_KEYS)}")
            settings[key] = value.strip()
    return settings


def _build_sweep_config(args: argparse.Namespace) -> SweepConfig:
    settings = _read_config_file(args.config) if args.config else {}
    # command-line flags override file values
    if args.accel:
        settings["accel"] = ",".join(args.accel)
    if args.grid is not None:
        settings["grid"] = str(args.grid)
    if args.measures is not None:
        settings["measures"] = args.measures
    if args.out is not None:
        settings["out"] = args.out
    if args.preset is not None:
        settings["preset"] = args.preset
    if args.diagonal:
        settings["diagonal"] = "true"

    if "preset" in settings:
        name = settings["preset"]
        if name not in PRESETS:
            raise ConfigError(f"preset: unknown name {name!r}, known: {', '.join(PRESETS)}")
        config = PRESETS[name]
    else:
        config = SweepConfig()
    if "accel" in settings:
        config = replace(config, accelerated=_parse_accel_tokens([settings["accel"]]))
    if "grid" in settings:
        try:
            config = replace(config, grid=int(settings["grid"]))
        except ValueError:
            raise ConfigError(f"grid: expected an integer, got {settings['grid']!r}") from None
    if "measures" in settings:
        config = replace(config, measures=tuple(settings["measures"].split(",")))
    if "out" in settings:
        config = replace(config, output_path=settings["out"])
    if "diagonal" in settings:
        config = replace(config, diagonal=_parse_bool(settings["diagonal"]))
    return config


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_sweep_config(args)
    target = config.output_path
    if not target or target == "-":
        write_csv(*run_sweep(config), sys.stdout)
        return 0
    with atomic_output(target) as handle:
        header, rows = run_sweep(config)
        write_csv(header, rows, handle)
    print(f"wrote {len(rows)} rows to {target}", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_check(args.names or None, perturb=args.perturb)
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


@functools.cache
def _symbol_entries(symbols: tuple[str, ...]) -> tuple[tuple[str, tuple, tuple], ...]:
    """The names of the table in match order, each with the recipe of its value.

    A recipe is either the (symbol, power) factors of a monomial of degree 0
    to 4, or the two symbols of a sum of squares.  Neither depends on r, so
    each symbol set is enumerated once.
    """
    entries = []
    for exponents in itertools.product(range(5), repeat=len(symbols)):
        degree = sum(exponents)
        if degree > 4:
            continue
        factors = tuple((k, power) for k, power in enumerate(exponents) if power)
        name = "".join(symbols[k] if power == 1 else f"{symbols[k]}^{power}"
                       for k, power in factors)
        entries.append((degree, name or "1", factors, ()))
    squares = [k for k, symbol in enumerate(symbols) if symbol in ("α", "β")]
    for a, b in itertools.combinations(squares, 2):
        entries.append((4, f"{symbols[a]}^2+{symbols[b]}^2", (), (a, b)))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return tuple(entry[1:] for entry in entries)


def _symbol_table(params: dict[str, float]) -> list[tuple[str, float]]:
    symbols, values = (), []
    if "C" in params:
        symbols += ("α", "γ")
        values += [np.sin(params["C"]), np.cos(params["C"])]
    if "D" in params:
        symbols += ("β", "δ")
        values += [np.sin(params["D"]), np.cos(params["D"])]
    table = []
    for name, factors, squares in _symbol_entries(symbols):
        if squares:
            a, b = squares
            value = values[a] * values[a] + values[b] * values[b]
        else:
            value = 1.0
            for k, power in factors:
                value *= values[k] ** power
        table.append((name, value))
    return table


def _match_symbol(value: float, table: list[tuple[str, float]]) -> str:
    for name, candidate in table:
        if abs(value - candidate) <= SYMBOL_MATCH_TOL:
            return name
    return f"{value:.10g}"


def emit_matrix(params: dict[str, float], transpose: str | None = None,
                symbolic: bool = False) -> str:
    """Format the observed density matrix, or one of its partial transposes.

    With symbolic=True, each nonzero entry (times 4) is matched against the
    monomials in the trig shorthands of the accelerated observers.
    """
    if transpose is not None and transpose not in OBSERVERS:
        raise ConfigError(f"transpose: unknown observer {transpose!r}, use one of {OBSERVERS}")
    rho = observed_density(w_state(4), params)
    if transpose is None:
        matrix = rho.matrix
    else:
        matrix = partial_transpose(rho, [OBSERVERS.index(transpose)])
    labels = (f"{obs}_I" if obs in params else obs for obs in OBSERVERS)
    lines = [f"layout: {', '.join(labels)}"]
    if transpose is not None:
        lines.append(f"partial transpose over: {transpose}")
    for row in matrix:
        lines.append(" ".join(f"{value.real: .5f}" for value in row))
    if symbolic:
        table = _symbol_table(params)
        lines.append("")
        lines.append("nonzero entries as multiples of 1/4 (upper triangle):")
        dim = matrix.shape[0]
        for i in range(dim):
            for j in range(i, dim):
                entry = matrix[i, j].real
                if abs(entry) > ZERO_ENTRY_TOL:
                    lines.append(f"  ({i:2d},{j:2d})  {_match_symbol(4.0 * entry, table)}")
    return "\n".join(lines)


def _cmd_matrix(args: argparse.Namespace) -> int:
    axes = _parse_accel_tokens(args.accel or [])
    # sweep's checks first, since a NaN bound never equals itself and would read as a range
    check_axes(axes)
    for axis in axes:
        if not axis.fixed:
            raise ConfigError(f"matrix: needs a fixed r for {axis.observer}, got a range")
    params = {axis.observer: axis.lo for axis in axes}
    print(emit_matrix(params, transpose=args.transpose, symbolic=args.symbolic))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtangles",
        description="Entanglement measures of the four-qubit W state "
                    "for uniformly accelerated observers.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep acceleration parameters, emit CSV")
    sweep.add_argument("--accel", action="append", metavar="OBS=R|OBS=LO:HI",
                       help="accelerated observer, fixed r or swept range; repeatable")
    sweep.add_argument("--grid", type=int, help="points per swept axis (default 101, 41 for 2D)")
    sweep.add_argument("--measures", metavar="LIST",
                       help="comma-separated columns or groups (default all)")
    sweep.add_argument("--out", metavar="PATH", help="CSV output path ('-' for stdout)")
    sweep.add_argument("--preset", metavar="NAME",
                       help=f"figure preset: {', '.join(PRESETS)}")
    sweep.add_argument("--config", metavar="FILE", help="flat key-value config file")
    sweep.add_argument("--diagonal", action="store_true",
                       help="sweep both accelerated observers along r_c = r_d")
    sweep.set_defaults(func=_cmd_sweep)

    check = sub.add_parser("check", help="compare pipeline against closed forms")
    check.add_argument("names", nargs="*", help="oracle names (default: all)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
