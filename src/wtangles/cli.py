"""Command-line front end: sweeps, oracle cross-checks and matrix dumps."""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from .checks import run_check
from .fock import partial_transpose, w_state
from .rindler import R_MAX, observed_density
from .sweep import (
    PRESETS,
    AxisSpec,
    ConfigError,
    SweepConfig,
    run_sweep,
    write_csv,
)

CONFIG_KEYS = ("state", "accel", "grid", "measures", "out", "preset", "diagonal")
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
    if args.state is not None:
        settings["state"] = args.state
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
    if "state" in settings:
        config = replace(config, state=settings["state"])
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
    # open the output before the sweep runs, so an unwritable path fails fast;
    # the CSV goes to a temporary file next to the target and replaces it whole
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        handle = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {target}: {exc.strerror}") from None
    try:
        with handle:
            header, rows = run_sweep(config)
            write_csv(header, rows, handle)
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise
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


def _symbol_table(params: dict[str, float]) -> list[tuple[str, float]]:
    base = []
    if "C" in params:
        base += [("α", np.sin(params["C"])), ("γ", np.cos(params["C"]))]
    if "D" in params:
        base += [("β", np.sin(params["D"])), ("δ", np.cos(params["D"]))]
    table: list[tuple[int, str, float]] = [(0, "1", 1.0)]
    for exponents in itertools.product(range(5), repeat=len(base)):
        degree = sum(exponents)
        if not 1 <= degree <= 4:
            continue
        name = ""
        value = 1.0
        for (symbol, sym_value), power in zip(base, exponents):
            if power == 0:
                continue
            name += symbol if power == 1 else f"{symbol}^{power}"
            value *= sym_value ** power
        table.append((degree, name, value))
    squares = [(f"{s}^2", v * v) for s, v in base if s in ("α", "β")]
    for (name_a, val_a), (name_b, val_b) in itertools.combinations(squares, 2):
        table.append((4, f"{name_a}+{name_b}", val_a + val_b))
    table.sort(key=lambda item: (item[0], item[1]))
    return [(name, value) for _, name, value in table]


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
    rho = observed_density(w_state(4), params)
    if transpose is None:
        matrix = rho.matrix
    else:
        matrix = partial_transpose(rho, [rho.layout.position(transpose)])
    lines = [f"layout: {', '.join(rho.layout.labels())}"]
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
    params = {}
    for axis in axes:
        if not axis.fixed:
            raise ConfigError(f"matrix: needs a fixed r for {axis.observer}, got a range")
        params[axis.observer] = axis.lo
    print(emit_matrix(params, transpose=args.transpose, symbolic=args.symbolic))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtangles",
        description="Entanglement measures of the four-qubit W state "
                    "for uniformly accelerated observers.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep acceleration parameters, emit CSV")
    sweep.add_argument("--state", choices=["W4"], help="initial state (default W4)")
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
