#!/usr/bin/env python3
"""wtangles benchmark: three workloads against the public API, in one process.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads (one closed-loop caller, no extra threads):
  figures       all 12 presets through run_sweep + write_csv into CSV files
  oracle_check  the full run_check() suite
  cli_points    seeded single points through wtangles.cli.main, stdout captured

--trace 0 reports the end-to-end metrics, measured untraced and scaled to
reference seconds by a calibration kernel run between operations
(calibrate.py), so that the shared host's speed swings cancel.  --trace 1 runs
untraced passes, then the same number of passes with every public function of
every layer wrapped (tracer.py), and reports per-layer metrics per pass.
Outputs are checked against reference.py outside the timed regions.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import calibrate
import reference as ref
import verify
from tracer import EIGVALSH, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import wtangles
    import wtangles.cli
except ImportError as exc:
    raise SystemExit(f"error: cannot import wtangles from {SRC}: {exc}") from None

WORK = ROOT / ".perfbench_work"
WORKLOADS = ("figures", "oracle_check", "cli_points")
SETUP_SAMPLES = 11
MIN_PASSES = 2
WARMUP_POINT = {"C": 0.3, "D": 0.6}
CLI_ROUND = 20
# fewest samples for which p95 has ten samples beyond it
TAIL_SAMPLES = 200
MISSING_OUT = ("sweep", "--accel", "D=0.5", "--out")
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import wtangles
rho = wtangles.observed_density(wtangles.w_state(4), {point!r})
wtangles.tangle_report(rho)
setup = time.perf_counter() - start
sys.path.insert(0, {bench!r})
import calibrate
print(setup, calibrate.host_seconds())
"""


class Run:
    """Operation counts, failures and output errors of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import wtangles and evaluate a point.

    Returns (reference seconds, raw seconds).  Each child also times the
    calibration kernel after its set-up, and its set-up time is scaled by it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CODE.format(point=WARMUP_POINT, bench=str(Path(__file__).resolve().parent))
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=120)
        if i:  # the first child may compile bytecode; it is not timed
            setup, kernel = map(float, out.stdout.strip().splitlines()[-1].split())
            scaled.append(calibrate.NOMINAL_S * setup / kernel)
            raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Runs the calibration kernel between operations and scales by it.

    After each operation the kernel runs once, plus once per KERNEL_EVERY
    seconds the operation took (at most NEAR times in all), so a long
    operation has several kernel times right next to it.  An operation's
    time in reference seconds is its wall time divided by the median of the
    NEAR kernel times on each side of it, times NOMINAL_S: it is scaled by the
    host's speed around it, without the noise of a single kernel time.
    """

    NEAR = 3
    KERNEL_EVERY = 0.05

    def __init__(self) -> None:
        self.kernels = [calibrate.kernel_seconds() for _ in range(self.NEAR)]

    def tick(self, seconds: float) -> int:
        """Run the kernel after an operation; return the operation's place."""
        index = len(self.kernels)
        for _ in range(min(self.NEAR, 1 + int(seconds / self.KERNEL_EVERY))):
            self.kernels.append(calibrate.kernel_seconds())
        return index

    def reference(self, op: "Op") -> float:
        near = self.kernels[max(0, op.index - self.NEAR):op.index + self.NEAR]
        return calibrate.NOMINAL_S * op.seconds / statistics.median(near)


# -- workloads ---------------------------------------------------------------
#
# A workload is a generator: each next() runs one pass and returns its
# operations plus what check_outputs needs.  An operation's slot names what it
# ran (a preset, an oracle, a position in the CLI round); its part is "1d" or
# "2d" for the two halves that sweep_1d_s and sweep_2d_s time, or None.
# seconds is its wall time, index its place in the Clock's sequence.


class Op(NamedTuple):
    slot: str
    part: str | None
    seconds: float
    index: int
    ok: bool


def figures_passes(rng: random.Random, run: Run, tmp: Path, clock: Clock):
    names = sorted(verify.PRESETS)
    rng.shuffle(names)
    while True:
        ops, written = [], []
        for name in names:
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                header, rows = wtangles.run_sweep(wtangles.PRESETS[name])
                with open(tmp / f"{name}.csv", "w", encoding="utf-8", newline="") as handle:
                    wtangles.write_csv(header, rows, handle)
                ok = True
            except Exception as exc:
                run.fail(f"{name}: {type(exc).__name__}")
                ok = False
            elapsed = time.perf_counter() - t0
            part = "2d" if verify.is_two_axis(name) else "1d"
            ops.append(Op(name, part, elapsed, clock.tick(elapsed), ok))
            if ok:
                written.append(name)
        yield ops, written


def oracle_passes(rng: random.Random, run: Run, tmp: Path, clock: Clock):
    """The full suite, one oracle per run_check call so each can be timed."""
    while True:
        ops, results = [], []
        for name in verify.ORACLE_TOLS:
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                results += wtangles.run_check([name])
                ok = True
            except Exception as exc:
                run.fail(f"{name}: {type(exc).__name__}")
                ok = False
            elapsed = time.perf_counter() - t0
            part = "2d" if name in verify.GRID_ORACLES else "1d"
            ops.append(Op(name, part, elapsed, clock.tick(elapsed), ok))
        yield ops, results


def cli_passes(rng: random.Random, run: Run, tmp: Path, clock: Clock):
    """A round of CLI_ROUND calls; the last one names an unwritable --out."""
    missing = str(tmp / "missing" / "x.csv")
    while True:
        ops = []
        for k in range(CLI_ROUND):
            r_c, r_d = rng.uniform(0.0, ref.R_MAX), rng.uniform(0.0, ref.R_MAX)
            accel = ["--accel", f"C={r_c!r}", "--accel", f"D={r_d!r}"]
            if k == CLI_ROUND - 1:
                kind, argv = "missing_out", [*MISSING_OUT, missing]
            elif k % 2 == 0:
                kind, argv = "sweep", ["sweep", *accel, "--measures", "all"]
            else:
                kind, argv = "matrix", ["matrix", *accel, "--symbolic"]
            out, err = io.StringIO(), io.StringIO()
            run.attempted += 1
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = wtangles.cli.main(argv)
                except (Exception, SystemExit) as exc:
                    code = exc
                elapsed = time.perf_counter() - t0
            index = clock.tick(elapsed)
            if kind == "missing_out":
                ok = verify.check_error_exit(code, err.getvalue()) is None
                ops.append(Op(str(k), None, elapsed, index, ok))
                if not ok:
                    run.fail(f"missing_out: {type(code).__name__}")
                continue
            ok = code == 0
            ops.append(Op(str(k), "1d" if kind == "sweep" else "2d", elapsed, index, ok))
            if not ok:
                run.fail(f"{kind}: {code!r}"[:120])
                continue
            check = verify.check_sweep_output if kind == "sweep" else verify.check_matrix_output
            run.errors += check(out.getvalue(), r_c, r_d)
        yield ops, None


def pass_seconds(ops: list[Op]) -> float:
    return sum(op.seconds for op in ops)


PASSES = {"figures": figures_passes, "oracle_check": oracle_passes, "cli_points": cli_passes}


def check_outputs(workload: str, run: Run, rng: random.Random, tmp: Path, last) -> None:
    """Checks that need a whole pass; cli_points checks each call as it goes."""
    if workload == "figures":
        for name in last:
            run.errors += verify.check_figure_csv(
                name, (tmp / f"{name}.csv").read_text(encoding="utf-8"))
    elif workload == "oracle_check":
        threshold = ref.vanishing_threshold()
        run.errors += verify.check_reference_threshold(threshold)
        run.errors += verify.check_oracle_results(last, threshold)
        points = np.array([[rng.uniform(0.0, ref.R_MAX), rng.uniform(0.0, ref.R_MAX)]
                           for _ in range(16)] + [[0.0, 0.0], [ref.R_MAX, ref.R_MAX]])
        closed_form = {name: getattr(wtangles.oracles, name) for name in verify.CLOSED_FORMS}
        run.errors += verify.check_closed_forms(closed_form, points)


# -- runs ---------------------------------------------------------------------


def run_untraced(workload: str, seconds: float, rng: random.Random, tmp: Path) -> tuple[Run, dict]:
    """End-to-end metrics from whole passes, in reference seconds.

    A pass time is the sum over operation slots of each slot's median time in
    the run.  Call latency percentiles are taken over every successful
    operation of the run, or, when there are fewer than TAIL_SAMPLES of them
    and p95 would be no tail, over the slots' median times.
    """
    run = Run()
    clock = Clock()
    generator = PASSES[workload](rng, run, tmp, clock)
    passes = []
    start = time.perf_counter()
    while True:
        ops, last = next(generator)
        passes.append(ops)
        elapsed = time.perf_counter() - start
        # whole passes only; stop before one that would overrun the budget
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
    rss = peak_rss_mb()
    check_outputs(workload, run, rng, tmp, last)

    by_slot: dict[str, list[float]] = {}
    parts: dict[str, str | None] = {}
    for op in (op for ops in passes for op in ops):
        by_slot.setdefault(op.slot, []).append(clock.reference(op))
        parts[op.slot] = op.part
    median = {slot: statistics.median(times) for slot, times in by_slot.items()}
    ok_by_slot: dict[str, list[float]] = {}
    for op in (op for ops in passes for op in ops if op.ok and op.part is not None):
        ok_by_slot.setdefault(op.slot, []).append(clock.reference(op))
    samples = [t for times in ok_by_slot.values() for t in times]
    latency_over = f"{len(samples)} operations"
    if len(samples) < TAIL_SAMPLES:
        samples = [statistics.median(times) for times in ok_by_slot.values()]
        latency_over = f"the median times of {len(samples)} slots"
    metrics = {
        "wall_s": (sum(median.values()), "s"),
        "sweep_1d_s": (sum(m for slot, m in median.items() if parts[slot] == "1d"), "s"),
        "sweep_2d_s": (sum(m for slot, m in median.items() if parts[slot] == "2d"), "s"),
        "call_ms_p50": (1e3 * statistics.median(samples), "ms"),
        "call_ms_p95": (1e3 * statistics.quantiles(samples, n=20, method="inclusive")[18], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    walls = [pass_seconds(ops) for ops in passes]
    kernel = statistics.median(clock.kernels)
    print(f"{workload}: {len(passes)} passes of {len(passes[0])} operations, raw pass seconds "
          f"min {min(walls):.4f} median {statistics.median(walls):.4f} max {max(walls):.4f}; "
          f"latency over {latency_over}; calibration kernel median "
          f"{1e3 * kernel:.3f} ms ({kernel / calibrate.NOMINAL_S:.2f}x nominal) "
          f"over {len(clock.kernels)} runs")
    return run, metrics


def run_traced(workload: str, seconds: float, rng: random.Random, tmp: Path) -> tuple[Run, dict]:
    run = Run()
    passes = PASSES[workload](rng, run, tmp, Clock())
    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds / 2:
        ops, last = next(passes)
        untraced.append(pass_seconds(ops))
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for _ in untraced:
            ops, last = next(passes)
            traced.append(pass_seconds(ops))
            tracer.end_pass()
    finally:
        tracer.uninstall()
    check_outputs(workload, run, rng, tmp, last)
    return run, layer_metrics(tracer, len(traced), sum(untraced), sum(traced))


def layer_metrics(tracer: Tracer, passes: int, untraced_s: float, traced_s: float) -> dict:
    totals = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name, (calls, self_ns) in sorted(totals.items()):
        metrics[f"{name}.calls"] = (calls / passes, "count")
        metrics[f"{name}.self_ms"] = (self_ns / 1e6 / passes, "ms")
    observed = totals.get("rindler.observed_density", (0, 0))[0]
    eigvalsh = totals.get(EIGVALSH, (0, 0))[0]
    metrics["fock.partial_trace.trace_out_self_ms"] = (
        tracer.self_ns_under("fock.partial_trace", ("rindler.observed_density",)) / 1e6 / passes, "ms")
    metrics["fock.partial_trace.reduced_self_ms"] = (
        tracer.self_ns_under("fock.partial_trace", ("measures.", "checks.")) / 1e6 / passes, "ms")
    metrics["linalg.eigvalsh_per_point"] = (eigvalsh / observed if observed else 0.0, "ratio")
    metrics["rindler.distinct_points"] = (tracer.distinct_points / passes, "count")
    metrics["rindler.distinct_point_ratio"] = (
        tracer.distinct_points / observed if observed else 0.0, "ratio")
    metrics["measures.values_computed"] = (tracer.values_computed / passes, "count")
    metrics["measures.values_written"] = (tracer.values_written / passes, "count")
    metrics["measures.columns_used_ratio"] = (
        tracer.values_written / tracer.values_computed if tracer.values_computed else 0.0, "ratio")
    self_total_s = sum(self_ns for _calls, self_ns in totals.values()) / 1e9
    metrics["trace.untraced_wall_s"] = (untraced_s / passes, "s")
    metrics["trace.traced_wall_s"] = (traced_s / passes, "s")
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / passes, "s")
    metrics["trace.self_coverage"] = (self_total_s / traced_s, "ratio")
    return metrics


# -- reporting ---------------------------------------------------------------


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def selected(metrics: dict, names: list[str], units: dict[str, str]) -> dict:
    out = {}
    for name in names:
        value, unit = metrics.get(name, (0.0, units[name]))
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    setup = None if args.trace else measure_setup()
    # warm-up point in this process, so lazy set-up is not timed below
    wtangles.tangle_report(wtangles.observed_density(wtangles.w_state(4), WARMUP_POINT))

    rng = random.Random(f"{args.workload}:{args.seed}")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = run_traced if args.trace else run_untraced
        run, metrics = runner(args.workload, args.seconds, rng, Path(tmp))
    with contextlib.suppress(OSError):
        WORK.rmdir()
    if setup is not None:
        metrics["setup_s"] = (setup[0], "s")
        print(f"setup: raw median {setup[1]:.4f} s over {SETUP_SAMPLES} interpreters")

    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(f"attempted {run.attempted}, failed {run.failed}"
          + "".join(f"; {kind} x{count}" for kind, count in sorted(run.failures.items())))
    for error in run.errors[:20]:
        print(f"INCORRECT: {error}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": selected(metrics, [m["name"] for m in group], units),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
