#!/usr/bin/env python3
"""Write one CSV per figure preset into an output directory."""

from __future__ import annotations

import pathlib
import sys
import time

from wtangles.cli import _Parser
from wtangles.sweep import PRESETS, ConfigError, atomic_output, run_sweep, write_csv


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main() -> int:
    # the CLI's parser class: a usage error raises, and is one error: line here too
    parser = _Parser(description=__doc__)
    parser.add_argument("--out-dir", default="figures_csv", help="directory for the CSV files")
    parser.add_argument("--only", help="comma-separated preset names (default: all)")
    try:
        args = parser.parse_args()
    except ConfigError as exc:
        return _fail(str(exc))

    # each named preset once, in order of first appearance
    names = list(dict.fromkeys(args.only.split(","))) if args.only else list(PRESETS)
    unknown = [n for n in names if n not in PRESETS]
    if unknown:
        return _fail(f"unknown presets {unknown}; known: {', '.join(PRESETS)}")

    out_dir = pathlib.Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot create {out_dir}: {exc.strerror}")
    total_start = time.perf_counter()
    for name in names:
        start = time.perf_counter()
        path = out_dir / f"{name}.csv"
        # the CSV replaces the old one whole, only once its preset is done
        try:
            with atomic_output(str(path)) as handle:
                header, rows = run_sweep(PRESETS[name])
                write_csv(header, rows, handle)
        except OSError as exc:
            return _fail(str(exc))
        print(f"{name}: {len(rows)} rows in {time.perf_counter() - start:.2f} s -> {path}")
    print(f"total: {time.perf_counter() - total_start:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
