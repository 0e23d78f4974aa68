"""Parameter sweeps over acceleration values, with CSV output.

A sweep fixes or sweeps the Rindler parameter of each accelerated observer,
computes the requested measures at every grid point and returns rows in
deterministic lexicographic grid order.  Measures are named by the
measures.COLUMNS names alone, read once, by the plan measures.evaluate_points
makes before it builds any state.
sweep_points checks any config (a bad one is one ConfigError), then builds
its points once, as one (N, k) array of r values, for sweeps and oracle checks
alike: the swept columns first, then the fixed ones, each in observer order.
Each swept axis is one np.linspace array; a grid takes np.repeat of the
first axis and np.tile of the second, which is lexicographic grid order,
and the diagonal takes the one shared axis for both columns.
measures.evaluate_points evaluates the array rindler.CHUNK rows per stack,
and the rows are the swept columns of that same array followed by the
measures.  Rows are plain floats; the CSV writer renders them with 17
significant digits so output is byte-identical across runs and round-trips
losslessly.
"""

from __future__ import annotations

import contextlib
import os
import stat
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

from .measures import ConfigError, evaluate_points
from .rindler import R_MAX, _clears, check_observers, check_r

DEFAULT_GRID_1D = 101
DEFAULT_GRID_2D = 41
# a sweep larger than this is a typo in --grid, not a run worth hours
MAX_POINTS = 250_000


@dataclass(frozen=True)
class AxisSpec:
    """One accelerated observer: fixed r when lo == hi, swept otherwise."""

    observer: str
    lo: float
    hi: float

    @property
    def fixed(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class SweepConfig:
    accelerated: tuple[AxisSpec, ...] = ()
    grid: int | None = None
    measures: tuple[str, ...] = ("all",)
    diagonal: bool = False


def check_axes(axes: Sequence[AxisSpec]) -> None:
    """Reject an unknown or repeated observer, an r outside [0, pi/4] or NaN, and lo > hi.

    One check_r pass clears every axis's bounds; only if it fails are they
    checked axis by axis.  Either way each axis's lo > hi is checked in
    turn, so the first bad axis is named, by its range or by its r.
    """
    check_observers([axis.observer for axis in axes], "accel")
    cleared = _clears([(axis.lo, axis.hi) for axis in axes])
    for axis in axes:
        if not cleared:
            check_r((axis.lo, axis.hi), f"accel: {axis.observer}")
        if axis.lo > axis.hi:
            raise ConfigError(f"accel: range for {axis.observer} has lo > hi")


def sweep_points(config: SweepConfig) -> tuple[tuple[str, ...], np.ndarray]:
    """Check any config, then lay out its observers, swept first, and its (N, k) r array."""
    accelerated, grid, diagonal = config.accelerated, config.grid, config.diagonal
    if not isinstance(accelerated, tuple) or not all(isinstance(a, AxisSpec) for a in accelerated):
        raise ConfigError(f"accel: expected a tuple of AxisSpec, got {accelerated!r}")
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer, type(None))):
        raise ConfigError(f"grid: expected an integer or None, got {grid!r}")
    if not isinstance(diagonal, bool):
        raise ConfigError(f"diagonal: expected a bool, got {diagonal!r}")
    check_axes(accelerated)
    if grid is not None and grid < 2:
        raise ConfigError(f"grid: need at least 2 points, got {grid}")
    # swept axes first, each kind in observer order, so row order never depends on flag order
    ordered = sorted(accelerated, key=lambda a: (a.fixed, a.observer))
    swept = [a for a in ordered if not a.fixed]
    if len(swept) > 2:
        raise ConfigError(f"accel: at most 2 swept axes, got {len(swept)}")
    if diagonal and len(swept) != 2:
        raise ConfigError("diagonal: needs exactly 2 swept axes")
    if diagonal and any((a.lo, a.hi) != (swept[0].lo, swept[0].hi) for a in swept):
        raise ConfigError("diagonal: swept axes must share one range")
    if grid is not None:
        if not swept:
            raise ConfigError("grid: no swept axis")
        total = int(grid) ** (1 if diagonal else len(swept))
        if total > MAX_POINTS:
            raise ConfigError(
                f"grid: {grid} points per axis give {total} points, above {MAX_POINTS}")
    two_axis = len(swept) == 2 and not diagonal
    points = grid or (DEFAULT_GRID_2D if two_axis else DEFAULT_GRID_1D)
    axes = [np.linspace(a.lo, a.hi, points) for a in swept]
    # the swept r of every point: along the one shared axis on the diagonal
    # (the swept ranges are equal), else in lexicographic grid order
    if diagonal:
        axes = [axes[0]] * len(axes)
    elif two_axis:
        axes = [np.repeat(axes[0], points), np.tile(axes[1], points)]
    r = np.empty((len(axes[0]) if axes else 1, len(ordered)))
    r[:, :len(swept)] = np.transpose(axes)
    r[:, len(swept):] = [a.lo for a in ordered[len(swept):]]
    return tuple(a.observer for a in ordered), r


def run_sweep(config: SweepConfig) -> tuple[list[str], list[list[float]]]:
    """Evaluate the sweep; returns (header, rows) in deterministic order."""
    observers, r = sweep_points(config)
    values = evaluate_points(observers, r, config.measures)
    swept = sum(not a.fixed for a in config.accelerated)
    header = [f"r_{o}" for o in observers[:swept]] + list(values)
    # each row: the swept r of its point, then its measures
    return header, np.array([*r[:, :swept].T, *values.values()]).T.tolist()


def write_csv(header: Sequence[str], rows: Sequence[Sequence[float]], stream: IO[str]) -> None:
    """Write rows with 17 significant digits, LF endings, '.' decimals.

    Each row holds one value per header column.
    """
    stream.write(",".join(header) + "\n")
    # one printf template per row: the same bytes as formatting each value
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    for row in rows:
        stream.write(row_format % tuple(row))


@contextlib.contextmanager
def atomic_output(target: str) -> Iterator[IO[str]]:
    """A text handle whose contents replace the file target whole on success.

    Symlinks are followed: the file target resolves to, which need not exist
    yet, is replaced, and the links stay.  The handle is a temporary file
    next to that file, opened on entry, so an unwritable path fails before
    any work; a failed or interrupted block removes it and leaves the file as
    it was.  A target that exists but is not a regular file, such as a FIFO
    or a device, is written directly, as a shell redirect writes it, and
    never replaced.  A failed open, write, close or rename raises a one-line
    OSError that names target as given.
    """
    path = os.path.realpath(target)
    try:
        mode = os.stat(path).st_mode
    except OSError:
        mode = stat.S_IFREG     # nothing there yet; an unreachable path fails at the open
    # a directory would pass the temporary file's open and fail only at the rename
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(f"cannot write {target}: Is a directory")
    try:
        if not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                yield handle
            return
        # a random part too: a process killed hard leaves its file behind,
        # and a later process may get the same pid
        temp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        handle = open(temp, "x", encoding="utf-8", newline="")
        try:
            with handle:
                yield handle
            os.replace(temp, path)
        except BaseException:
            os.remove(temp)
            raise
    except OSError as exc:
        # a system call on the output failed; an error the block raised
        # without an errno, already one line, passes as it is
        if exc.errno is None:
            raise
        raise OSError(f"cannot write {target}: {exc.strerror}") from None


def _axis(observer: str, lo: float = 0.0, hi: float = R_MAX) -> AxisSpec:
    return AxisSpec(observer, lo, hi)


PRESETS: dict[str, SweepConfig] = {
    # one accelerated observer, 1-3 tangles of an inertial and the accelerated one
    "fig1a": SweepConfig(accelerated=(_axis("D"),), measures=("N_A_rest", "N_D_rest")),
    # one accelerated observer, constant and decaying pair negativities
    "fig1b": SweepConfig(accelerated=(_axis("D"),), measures=("N_AB", "N_AD")),
    # residual tangles, one accelerated observer
    "fig2": SweepConfig(accelerated=(_axis("D"),), measures=("pi_A", "pi_D")),
    # whole-entanglement means, one accelerated observer
    "fig3": SweepConfig(accelerated=(_axis("D"),), measures=("pi4", "Pi4")),
    # two accelerated observers, 1-3 tangles over the (r_c, r_d) grid
    "fig4a": SweepConfig(accelerated=(_axis("C"), _axis("D")),
                         measures=("N_A_rest", "N_B_rest")),
    "fig4b": SweepConfig(accelerated=(_axis("C"), _axis("D")),
                         measures=("N_C_rest", "N_D_rest")),
    # pair negativities along the diagonal r_c = r_d
    "fig5": SweepConfig(accelerated=(_axis("C"), _axis("D")), diagonal=True,
                        measures=("N_AB", "N_AC", "N_CD")),
    # residual tangles over the grid, inertial pair and accelerated pair
    "fig6a": SweepConfig(accelerated=(_axis("C"), _axis("D")),
                         measures=("pi_A", "pi_B", "N_A_rest", "N_B_rest")),
    "fig6b": SweepConfig(accelerated=(_axis("C"), _axis("D")),
                         measures=("pi_C", "pi_D")),
    # whole-entanglement means over the full grid; both marginals are contained
    "fig7": SweepConfig(accelerated=(_axis("C"), _axis("D")),
                        measures=("pi4", "Pi4")),
    # entropy, one and two accelerated observers
    "fig8": SweepConfig(accelerated=(_axis("D"),), measures=("S",)),
    "fig9": SweepConfig(accelerated=(_axis("C"), _axis("D")), measures=("S",)),
}
