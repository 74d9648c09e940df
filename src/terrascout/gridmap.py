"""Probabilistic occupancy mapping of a binary terrain variable.

A terrain is a grid of fine cells (resolution ``r_M`` metres per cell),
each either "interesting" (label 1) or not (label 0). UAVs observe square
patches whose size grows with altitude while per-cell accuracy drops, and
the observations are fused into per-cell posterior probabilities by
Bayesian log-odds updates. Map uncertainty is scored with a class-weighted
Shannon entropy so that planners can prefer the interesting class.

Conventions: arrays are indexed ``[row, col]`` with row 0 at the southern
edge and column 0 at the western edge; positions are ``(x east, y north,
z altitude)`` in metres.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    InvalidMeasurementError,
    InvalidPositionError,
)

# Posterior probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR] when
# read, so log-odds stay finite and fusion remains exactly commutative.
PROB_FLOOR = 1e-4

# The weighted class-term sum at p = 0.5: both terms are 0.5 * log2(0.5) and
# both carry the weight 0.5, whatever w1 and w2 are.
_T_HALF = 0.5 * math.log2(0.5)
_SUM_AT_HALF = 0.5 * _T_HALF + 0.5 * _T_HALF


@dataclass
class GroundTruthMap:
    """Binary reference terrain: 1 marks the interesting class.

    ``cells`` is never written after construction, which is what lets
    :attr:`roi_index` be computed once.
    """

    cells: np.ndarray  # (H, W), values in {0, 1}
    resolution: float  # metres per cell

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.shape[0] < 1 or cells.shape[1] < 1:
            raise ConfigurationError("ground truth map needs a non-empty 2D cell grid")
        # checked before the cast, which would round 0.7 and NaN to 0 and wrap 256 to 0
        if not ((cells == 0) | (cells == 1)).all():
            raise ConfigurationError("ground truth cells must be 0 or 1")
        self.cells = cells.astype(np.uint8, copy=False)
        if not 0 < self.resolution < math.inf:  # NaN fails it
            raise ConfigurationError("map resolution must be finite and positive")

    @cached_property
    def roi_index(self) -> np.ndarray:
        """Flat C-order indices of the interesting cells, ascending."""
        return np.flatnonzero(self.cells)

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    def interesting_fraction(self) -> float:
        return float(self.cells.mean())


@dataclass
class OccupancyGrid:
    """Per-cell posterior probability of the interesting class.

    The fusion state is kept as raw (unclamped) log-odds so that fusing
    measurements in any order yields bit-comparable results; the clamp to
    ``[PROB_FLOOR, 1 - PROB_FLOOR]`` is applied by :meth:`probs`.

    One invalidation rule covers every plane derived from the map
    (``GlobalState.map_planes``, and a local map's pooled planes in
    ``policy._local_planes``) and every score kept of it
    (``evaluation.MapScorer``): writers log what they wrote, readers start
    from ``prior`` and catch up. ``prior`` is the log-odds every cell held
    before the first entry of ``fused``, and ``fused`` logs, in order, the
    rectangle of every write: each :func:`fuse_measurement`, and one
    whole-map rectangle for a grid built from non-uniform log-odds. A
    derived plane fills its constants from one cell at the prior, records
    how many entries it includes and recomputes the cells under the rest.
    Code that writes ``log_odds`` any other way must log the rectangle it
    wrote.

    A writer may defer its fusions: ``AgentLocalState.pending`` holds the
    measurements a step delivered to an agent, and reading its ``local_map``
    fuses them, in order, through :func:`fuse_measurement`. So the log and
    every plane derived from it are the same as under eager fusion.
    """

    log_odds: np.ndarray  # (H, W) float64
    resolution: float
    fused: list = field(default_factory=list, repr=False, compare=False)
    prior: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.log_odds = np.asarray(self.log_odds, dtype=np.float64)
        if self.log_odds.ndim != 2:
            raise ConfigurationError("occupancy grid must be 2D")
        if not 0 < self.resolution < math.inf:  # NaN fails it
            raise ConfigurationError("map resolution must be finite and positive")
        first = self.log_odds.flat[0] if self.log_odds.size else 0.0
        if (self.log_odds == first).all():  # NaN fails it
            self.prior = float(first)
        else:
            self.prior = 0.0
            self.fused.append(CellRect(0, self.width - 1, 0, self.height - 1))

    @classmethod
    def uniform(cls, width: int, height: int, resolution: float) -> "OccupancyGrid":
        """Grid at the uninformed prior p = 0.5 everywhere."""
        return cls(np.zeros((height, width), dtype=np.float64), resolution)

    @property
    def height(self) -> int:
        return self.log_odds.shape[0]

    @property
    def width(self) -> int:
        return self.log_odds.shape[1]

    def probs(self) -> np.ndarray:
        """Clamped posterior probabilities, elementwise in (0, 1)."""
        return _posterior(self.log_odds)

    def probs_slice(self, slices: tuple[slice, slice]) -> np.ndarray:
        """Clamped posterior over a cell rectangle only (cheap for planners)."""
        return _posterior(self.log_odds[slices])

    def prior_cell(self, w: "ImportanceWeights") -> tuple[np.ndarray, np.ndarray]:
        """(probs, weighted cell entropy) of one cell at ``prior``, each shaped (1, 1):
        the same kernels on the same value as any cell of a full-map build."""
        probs = _posterior(np.full((1, 1), self.prior))
        return probs, weighted_cell_entropy(probs, w)


def _posterior(log_odds: np.ndarray) -> np.ndarray:
    """``clip(1 / (1 + exp(-log_odds)))``, computed in place in one fresh buffer."""
    p = np.negative(log_odds)
    np.exp(p, out=p)
    p += 1.0
    np.divide(1.0, p, out=p)
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR, out=p)


@dataclass(frozen=True)
class SensorModel:
    """Altitude-indexed per-cell classification accuracy."""

    table: tuple[tuple[float, float], ...]  # (altitude m, accuracy), ascending

    def __post_init__(self) -> None:
        alts = [a for a, _ in self.table]
        accs = [p for _, p in self.table]
        if not alts:
            raise ConfigurationError("sensor table is empty")
        # written so that NaN fails every comparison
        if not (alts[0] > 0 and all(b > a for a, b in zip(alts, alts[1:]))):
            raise ConfigurationError("sensor altitudes must be positive and strictly increasing")
        if not all(0.5 < p <= 1.0 for p in accs):
            raise ConfigurationError("sensor accuracies must lie in (0.5, 1.0]")

    @classmethod
    def default(cls) -> "SensorModel":
        return cls(((5.0, 0.99), (10.0, 0.735), (15.0, 0.625)))

    @property
    def min_altitude(self) -> float:
        return self.table[0][0]

    def accuracy_at(self, altitude: float) -> float:
        for alt, acc in self.table:
            if math.isclose(alt, altitude, rel_tol=0.0, abs_tol=1e-6):
                return acc
        raise ConfigurationError(f"no sensor accuracy registered for altitude {altitude} m")


@dataclass(frozen=True)
class ImportanceWeights:
    """Class importances: w1 for the interesting class, w2 for the rest."""

    w1: float = 0.8
    w2: float = 0.2

    def __post_init__(self) -> None:
        # written so that NaN fails every comparison
        if not (self.w1 >= 0 and self.w2 >= 0 and abs(self.w1 + self.w2 - 1.0) <= 1e-12):
            raise ConfigurationError("importance weights must be nonnegative and sum to 1")


@dataclass(frozen=True)
class CellRect:
    """Inclusive rectangle of cell indices."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    @property
    def width(self) -> int:
        return self.x_hi - self.x_lo + 1

    @property
    def height(self) -> int:
        return self.y_hi - self.y_lo + 1

    @property
    def slices(self) -> tuple[slice, slice]:
        return slice(self.y_lo, self.y_hi + 1), slice(self.x_lo, self.x_hi + 1)

    def contains(self, other: "CellRect") -> bool:
        return (
            self.x_lo <= other.x_lo
            and self.y_lo <= other.y_lo
            and other.x_hi <= self.x_hi
            and other.y_hi <= self.y_hi
        )


@dataclass
class Measurement:
    """One observed patch of per-cell class labels at map resolution."""

    position: np.ndarray  # (3,) metres, the measurement pose
    rect: CellRect  # footprint at map resolution, already clipped
    values: np.ndarray  # (rect.height, rect.width) labels in {0, 1}
    accuracy: float  # per-cell accuracy used to generate it
    agent_id: int
    step: int
    # The float patch (8 B a cell, against 1 B for a label), kept by the first
    # local map that fuses this measurement for the others (see
    # environment.AgentLocalState.local_map); until then every fusion builds
    # a one-off patch, so a delivery that nobody reads holds its labels only.
    kept_patch: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.uint8)
        if self.values.shape != (self.rect.height, self.rect.width):
            raise InvalidMeasurementError("measurement values do not match the footprint")

    def log_odds_patch(self) -> np.ndarray:
        """Per-cell log-odds increment, a pure function of ``values`` and
        ``accuracy``: ``kept_patch`` if a local map kept one, else built afresh."""
        if self.kept_patch is not None:
            return self.kept_patch
        # Accuracy 1.0 would give infinite log-odds; cap so arithmetic stays finite.
        acc = min(self.accuracy, 1.0 - 1e-9)
        delta = math.log(acc / (1.0 - acc))
        return np.array([-delta, delta]).take(self.values == 1)


def footprint(
    position: np.ndarray,
    factor: float,
    width: int,
    height: int,
    resolution: float,
) -> CellRect:
    """Square field of view of side ``factor * altitude``, clipped to the map.

    The side length in cells is rounded to the nearest integer and
    centre-aligned on the position; a leftover asymmetric cell goes to the
    north/west side.
    """
    x, y, alt = float(position[0]), float(position[1]), float(position[2])
    if alt <= 0:
        raise InvalidPositionError(f"measurement altitude must be positive, got {alt}")
    if not (0.0 <= x <= width * resolution) or not (0.0 <= y <= height * resolution):
        raise InvalidPositionError(f"position ({x}, {y}) outside the terrain")
    side_cells = max(1, round(factor * alt / resolution))
    x_lo, y_lo = _footprint_origin(x, y, side_cells, resolution)
    x0 = max(0, x_lo)
    y0 = max(0, y_lo)
    x1 = min(width - 1, x_lo + side_cells - 1)
    y1 = min(height - 1, y_lo + side_cells - 1)
    if x1 < x0 or y1 < y0:
        raise InvalidPositionError("footprint does not intersect the map")
    return CellRect(x0, x1, y0, y1)


def _footprint_origin(x: float, y: float, side_cells: int, resolution: float) -> tuple[int, int]:
    """Unclipped south-west cell of the footprint (may be negative)."""
    cx = x / resolution
    cy = y / resolution
    # Ties go west in x (round half down) and north in y (round half up).
    x_lo = math.ceil(cx - side_cells / 2.0 - 0.5)
    y_lo = math.floor(cy - side_cells / 2.0 + 0.5)
    return x_lo, y_lo


def upsample_factor(altitude: float, min_altitude: float) -> int:
    """Native-to-map resolution ratio of a measurement at ``altitude``.

    The map resolution matches the camera at the lowest altitude; higher
    flights observe coarser blocks that get upsampled before fusion.
    """
    return max(1, round(altitude / min_altitude))


def simulate_measurement(
    gt: GroundTruthMap,
    position: np.ndarray,
    sensor: SensorModel,
    seed: np.random.SeedSequence,
    *,
    footprint_factor: float = 1.0,
    agent_id: int = 0,
    step: int = 0,
) -> Measurement:
    """Draw a noisy class-likelihood patch of the ground truth.

    One label is drawn per native-resolution block (block side
    ``upsample_factor(altitude)`` map cells, block edges counted from the
    unclipped footprint origin): the block's majority truth, flipped with
    probability ``1 - accuracy``. Labels are then repeated over the fine
    cells the block covers, so all fine cells under one coarse cell carry
    the same value.

    The noise is a virtual uniform field covering the whole map, indexed by
    absolute cell: cell (y, x) reads the value that
    ``Generator(Philox(seed)).random((H, W))`` would put at ``[y, x]``, so
    two planners measuring the same cells under the same (mission, step,
    agent) ``seed`` see identical noise. Only each block's anchor, its first
    cell inside the map, is read; :func:`_virtual_uniforms` reaches each
    anchor row by setting the Philox counter to the block that holds it.
    """
    alt = float(position[2])
    acc = sensor.accuracy_at(alt)
    rect = footprint(position, footprint_factor, gt.width, gt.height, gt.resolution)
    fac = upsample_factor(alt, sensor.min_altitude)
    side_cells = max(1, round(footprint_factor * alt / gt.resolution))
    x_lo0, y_lo0 = _footprint_origin(float(position[0]), float(position[1]), side_cells, gt.resolution)
    anchor_y, len_y = _blocks(rect.y_lo, rect.y_hi, y_lo0, fac)
    anchor_x, len_x = _blocks(rect.x_lo, rect.x_hi, x_lo0, fac)

    # block sums over a zero-padded copy whose rows and columns start on block edges
    y0, x0 = fac - len_y[0], fac - len_x[0]
    padded = np.zeros((len(len_y) * fac, len(len_x) * fac), dtype=np.int32)
    padded[y0:y0 + rect.height, x0:x0 + rect.width] = gt.cells[rect.slices]
    sums = padded.reshape(len(len_y), fac, len(len_x), fac).sum(axis=(1, 3))
    truth = 2 * sums >= len_y[:, None] * len_x  # majority, ties -> interesting
    flips = _virtual_uniforms(seed, anchor_y, anchor_x, gt.width) >= acc
    observed = (truth ^ flips).view(np.uint8)

    values = np.repeat(np.repeat(observed, len_y, axis=0), len_x, axis=1)
    return Measurement(np.asarray(position, dtype=float), rect, values, acc, agent_id, step)


def _blocks(lo: int, hi: int, origin: int, fac: int) -> tuple[np.ndarray, np.ndarray]:
    """First cells and lengths of the blocks over cells ``lo..hi``, with block
    edges at ``origin + k * fac``; the map edge or the footprint's end may
    cut the first and the last."""
    edges = np.array([lo, *range(origin + ((lo - origin) // fac + 1) * fac, hi + 1, fac), hi + 1])
    return edges[:-1], np.diff(edges)


def _virtual_uniforms(
    seed: np.random.SeedSequence,
    rows: np.ndarray,
    cols: np.ndarray,
    width: int,
) -> np.ndarray:
    """``Generator(Philox(seed)).random((H, W))[rows][:, cols]``, drawing only what it reads.

    Double k of the field is ``(u >> 11) * 2**-53`` for the raw word u at
    position k % 4 of Philox block k // 4, and Philox makes block b from its
    key and the counter b + 1, bumping the counter before each block. So a
    generator whose counter is set to b, with its buffer empty, draws block b
    next. For each row the counter is set to the block holding the row's
    first wanted cell, and the raw words from there over the span of
    ``cols`` go into one (rows, span) buffer. The wanted words are then
    turned into doubles at once, exactly as ``Generator.random`` does.
    """
    bitgen = np.random.Philox(seed)
    state = bitgen.state  # counter 0, buffer empty
    counter = [0, 0, 0, 0]  # the state setter converts each element: ints beat numpy scalars
    state["state"] = {"counter": counter, "key": state["state"]["key"].tolist()}
    state["buffer"] = [0, 0, 0, 0]
    c0 = int(cols.min())
    offsets = cols - c0
    blocks, lead = np.divmod(rows * width + c0, 4)
    raw = np.empty((len(rows), int(lead.max() + offsets.max()) + 1), dtype=np.uint64)
    for i, block in enumerate(blocks.tolist()):
        counter[0] = block
        bitgen.state = state
        raw[i] = bitgen.random_raw(raw.shape[1])
    words = raw[np.arange(len(rows))[:, None], lead[:, None] + offsets]
    return (words >> 11) * 2.0**-53


def fuse_measurement(grid: OccupancyGrid, m: Measurement) -> OccupancyGrid:
    """Bayesian log-odds update of the grid with one measurement, in place,
    logged in ``grid.fused``."""
    bounds = CellRect(0, grid.width - 1, 0, grid.height - 1)
    if not bounds.contains(m.rect):
        raise InvalidMeasurementError("measurement footprint outside the grid")
    grid.log_odds[m.rect.slices] += m.log_odds_patch()
    grid.fused.append(m.rect)
    return grid


def weighted_cell_entropy(p, w: ImportanceWeights):
    """Class-importance-weighted binary entropy, in bits.

    With y = min(p, 1 - p) and m = 1 - y, a cell's entropy is
    -(w2 y log2 y + w1 m log2 m): the likelier class carries w1, both terms
    carry 0.5 at p = 0.5, and 0 log 0 := 0. It equals the textbook formula
    with side-dependent weights bit for bit, because for p >= 0.5 the
    subtraction 1 - p is exact and 1 - (1 - p) = p, so each cell gets the
    same two products, added in the other order.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.size == 0:
        return np.empty(arr.shape)
    lo, hi = arr.min(), arr.max()
    if not (0.0 <= lo and hi <= 1.0):  # NaN fails both
        raise DomainError("cell probability outside [0, 1]")
    x = arr.ravel()
    y = np.subtract(1.0, x)
    np.minimum(x, y, out=y)
    m = np.subtract(1.0, y)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log2(0), fixed below
        out = np.log2(y)
        out *= y  # y log2 y
        if lo == 0.0 or hi == 1.0:
            out[y == 0.0] = 0.0
        out *= w.w2
        np.log2(m, out=y)
        y *= m  # m log2 m
        y *= w.w1
        out += y
        out[x == 0.5] = _SUM_AT_HALF
    np.negative(out, out=out)
    if np.ndim(p) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def map_entropy(
    grid: OccupancyGrid,
    w: ImportanceWeights,
    mask: Optional[np.ndarray] = None,
) -> float:
    """Summed weighted cell entropy over the grid (or a boolean cell subset)."""
    if mask is None:
        return float(weighted_cell_entropy(grid.probs(), w).sum())
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.log_odds.shape:
        raise DomainError("entropy mask shape does not match the grid")
    return float(weighted_cell_entropy(grid.probs()[mask], w).sum())


# ---------------------------------------------------------------------------
# Serialization: CSV tables, row-major text grids and 8-bit PGM snapshots
# ---------------------------------------------------------------------------


def fmt(v) -> str:
    """The one number format of every text output: floats at 12 significant digits."""
    return f"{v:.12g}" if isinstance(v, float) else str(v)


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a sibling temporary file that replaces ``path`` once the block completes.

    If the block raises, ``path`` keeps its previous contents and the
    temporary file is removed, so no half-written file is ever left behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path, rows, header: Optional[Sequence[str]] = None) -> None:
    """Start a CSV with ``header`` and ``rows``, or append ``rows`` when ``header`` is None.

    Values go through ``fmt``; lines end in the csv module's ``\\r\\n``. A new
    file is written atomically; appends (streamed logs) go to ``path`` itself.
    """
    if header is None:
        target = open(path, "a", newline="", encoding="ascii")
    else:
        target = atomic_open(path, "w", newline="", encoding="ascii")
    with target as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)


def write_text_grid(path, values: np.ndarray, resolution: float) -> None:
    """Write the documented text format: header ``W H r_M`` then W*H scalars."""
    values = np.asarray(values, dtype=np.float64)
    h, w = values.shape
    with atomic_open(path, "w", encoding="ascii") as fh:
        fh.write(f"{w} {h} {fmt(resolution)}\n")
        for row in values:
            fh.write(" ".join(map(fmt, row)) + "\n")


def read_text_grid(path) -> tuple[np.ndarray, float]:
    """Parse the text-grid format, reporting the offending line on errors."""
    path = Path(path)
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {exc.start}: not ASCII text") from exc
    if not lines:
        raise DataError(f"{path}: line 1: empty file")
    head = lines[0].split()
    if len(head) != 3:
        raise DataError(f"{path}: line 1: expected header 'W H r_M'")
    try:
        w, h, res = int(head[0]), int(head[1]), float(head[2])
    except ValueError as exc:
        raise DataError(f"{path}: line 1: bad header value ({exc})") from exc
    if w < 1 or h < 1 or not 0 < res < math.inf:
        raise DataError(f"{path}: line 1: dimensions and resolution must be finite and positive")
    flat: list[float] = []
    for ln_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise DataError(f"{path}: line {ln_no}: unparseable value ({exc})") from exc
        if any(not math.isfinite(v) for v in row):
            raise DataError(f"{path}: line {ln_no}: non-finite value")
        flat.extend(row)
    if len(flat) != w * h:
        raise DataError(f"{path}: line {len(lines)}: expected {w * h} values, got {len(flat)}")
    return np.asarray(flat, dtype=np.float64).reshape(h, w), res


def save_grid_pgm(path, grid: OccupancyGrid) -> None:
    """8-bit binary PGM of probability * 255, rounded."""
    pix = np.rint(grid.probs() * 255.0).astype(np.uint8)
    with atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
