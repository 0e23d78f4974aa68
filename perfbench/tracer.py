"""Span tracer that wraps the public functions of the wtangles modules.

The wrappers live here, in the benchmark, not in the program.  Each public
function of a layer module is replaced at every binding the program looks it
up through (the defining module, every wtangles module that imported it by
name, and the package namespace), so a call counts no matter which name it
went through.  Dataclass validation (``__post_init__``) is wrapped on the
class, and ``numpy.linalg.eigvalsh`` is wrapped to count the program's
eigensolves.

Spans are aggregated in memory by (name, parent name): a span's self time is
its duration minus the durations of its child spans.  A few counters are
taken at the same boundaries: distinct observed points per pass, measure values
computed by ``tangle_report`` and measure values written by ``write_csv``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

LAYERS = ("fock", "linalg", "rindler", "measures", "oracles", "checks", "sweep", "cli")
EIGVALSH = "numpy.linalg.eigvalsh"


def _span_name(layer: str, name: str) -> str:
    # every public function of oracles is one closed form; they are one layer
    return "oracles.closed_form" if layer == "oracles" else f"{layer}.{name}"


def _point_key(args: tuple, kwargs: dict) -> tuple:
    scenario = kwargs.get("scenario", args[1] if len(args) > 1 else None)
    if scenario is None:
        return ()
    items = getattr(scenario, "accelerated", None)
    if items is None:
        items = scenario.items()
    return tuple(sorted((obs, float(getattr(p, "r", p))) for obs, p in items))


class Tracer:
    """Install with ``install()``, run traced work, then ``uninstall()``."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str | None], list[int]] = {}
        self.points: set[tuple] = set()
        self.distinct_points = 0
        self.values_computed = 0
        self.values_written = 0
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable | None = None,
              nested_only: bool = False) -> Callable:
        stack = self._stack
        stats = self.stats

        def wrapper(*args, **kwargs):
            if nested_only and not stack:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                record = stats.get((name, parent))
                if record is None:
                    record = stats[(name, parent)] = [0, 0]
                record[0] += 1
                record[1] += duration - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _after_observed_density(self, args, kwargs, result) -> None:
        self.points.add(_point_key(args, kwargs))

    def _after_tangle_report(self, args, kwargs, result) -> None:
        self.values_computed += sum(
            len(value) if isinstance(value, dict) else 1
            for field, value in vars(result).items()
            if field != "r_values" and value is not None)

    def _after_write_csv(self, args, kwargs, result) -> None:
        header = kwargs.get("header", args[0])
        rows = kwargs.get("rows", args[1])
        measures = sum(1 for column in header if not column.startswith("r_"))
        self.values_written += measures * len(rows)

    # -- installation ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = {
            "rindler.observed_density": self._after_observed_density,
            "measures.tangle_report": self._after_tangle_report,
            "sweep.write_csv": self._after_write_csv,
        }
        modules = [importlib.import_module(f"wtangles.{layer}") for layer in LAYERS]
        bindings = [m for name, m in sys.modules.items()
                    if m is not None and (name == "wtangles" or name.startswith("wtangles."))]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = _span_name(layer, attr)
                    wrapper = self._wrap(name, obj, hooks.get(name))
                    for owner in bindings:
                        for bound, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, bound, wrapper)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._patch(obj, "__post_init__",
                                self._wrap(f"{layer}.{attr}", vars(obj)["__post_init__"]))
        # counted only under a program span, so the benchmark's own checks are not
        self._patch(np.linalg, "eigvalsh",
                    self._wrap(EIGVALSH, np.linalg.eigvalsh, nested_only=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def end_pass(self) -> None:
        """Points are distinct within one pass; add this pass's count to the total."""
        self.distinct_points += len(self.points)
        self.points.clear()

    def totals(self) -> dict[str, tuple[int, int]]:
        """(calls, self ns) per span name, summed over parents."""
        out: dict[str, tuple[int, int]] = {}
        for (name, _parent), (calls, self_ns) in self.stats.items():
            c, s = out.get(name, (0, 0))
            out[name] = (c + calls, s + self_ns)
        return out

    def self_ns_under(self, name: str, parent_prefixes: tuple[str, ...]) -> int:
        """Self time of one span name restricted to parents with a given prefix."""
        return sum(self_ns for (n, parent), (_calls, self_ns) in self.stats.items()
                   if n == name and parent is not None and parent.startswith(parent_prefixes))
