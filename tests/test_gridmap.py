"""Mapping, sensing, and weighted-entropy behaviour."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from terrascout.errors import (
    ConfigurationError,
    DataError,
    DomainError,
    InvalidMeasurementError,
    InvalidPositionError,
)
from terrascout.gridmap import (
    CellRect,
    GroundTruthMap,
    ImportanceWeights,
    Measurement,
    OccupancyGrid,
    SensorModel,
    footprint,
    fuse_measurement,
    map_entropy,
    read_text_grid,
    save_grid_pgm,
    simulate_measurement,
    upsample_factor,
    weighted_cell_entropy,
    write_text_grid,
)
from terrascout.gridmap import PROB_FLOOR, _footprint_origin

import reference_kernels as reference

W = ImportanceWeights(0.8, 0.2)
HALF = ImportanceWeights(0.5, 0.5)


def uniform_grid(n=500, res=0.1):
    return OccupancyGrid.uniform(n, n, res)


def flat_terrain(n=500, res=0.1, label=1):
    return GroundTruthMap(np.full((n, n), label, dtype=np.uint8), res)


# ---------------------------------------------------------------------------
# footprint
# ---------------------------------------------------------------------------


def test_footprint_side_scales_with_altitude():
    rect = footprint(np.array([25.0, 25.0, 5.0]), 1.0, 500, 500, 0.1)
    assert (rect.width, rect.height) == (50, 50)
    rect = footprint(np.array([25.0, 25.0, 15.0]), 1.0, 500, 500, 0.1)
    assert (rect.width, rect.height) == (150, 150)


def test_footprint_tiles_lattice_at_min_altitude():
    # Adjacent 5 m lattice positions at 5 m altitude must not overlap.
    r1 = footprint(np.array([2.5, 2.5, 5.0]), 1.0, 500, 500, 0.1)
    r2 = footprint(np.array([7.5, 2.5, 5.0]), 1.0, 500, 500, 0.1)
    assert (r1.x_lo, r1.x_hi) == (0, 49)
    assert (r2.x_lo, r2.x_hi) == (50, 99)


def test_footprint_clipped_at_corner():
    rect = footprint(np.array([0.0, 0.0, 5.0]), 1.0, 500, 500, 0.1)
    assert (rect.width, rect.height) == (25, 25)
    assert (rect.x_lo, rect.y_lo) == (0, 0)


def test_footprint_rejects_bad_positions():
    with pytest.raises(InvalidPositionError):
        footprint(np.array([1.0, 1.0, 0.0]), 1.0, 500, 500, 0.1)
    with pytest.raises(InvalidPositionError):
        footprint(np.array([-1.0, 1.0, 5.0]), 1.0, 500, 500, 0.1)


# ---------------------------------------------------------------------------
# simulate_measurement
# ---------------------------------------------------------------------------


def test_perfect_sensor_reproduces_ground_truth():
    gt = GroundTruthMap((np.arange(2500).reshape(50, 50) % 2).astype(np.uint8), 0.1)
    sensor = SensorModel(((5.0, 1.0),))
    m = simulate_measurement(gt, np.array([2.5, 2.5, 5.0]), sensor, np.random.SeedSequence(0))
    np.testing.assert_array_equal(m.values, gt.cells[m.rect.slices])


def test_flip_rate_matches_accuracy_at_min_altitude():
    # 50x50 footprint at accuracy 0.99: flips ~ Binomial(2500, 0.01).
    # Direct tail computation confirms [0.004, 0.017] holds outside ~1e-3
    # per side, so 10 fixed seeds are comfortably inside.
    assert binom.cdf(0.004 * 2500 - 1, 2500, 0.01) < 1e-3
    assert binom.sf(0.017 * 2500, 2500, 0.01) < 1e-3
    gt = flat_terrain()
    sensor = SensorModel.default()
    for seed in range(10):
        m = simulate_measurement(
            gt, np.array([25.0, 25.0, 5.0]), sensor, np.random.SeedSequence(seed)
        )
        flips = int((m.values != 1).sum())
        assert 0.004 <= flips / 2500 <= 0.017


def test_flip_rate_at_high_altitude_within_binomial_band():
    # 150x150 footprint upsampled from 50x50 independent coarse draws at
    # accuracy 0.625: the flip *rate* concentrates per the coarse count.
    n_draws = 50 * 50
    sigma = math.sqrt(0.375 * 0.625 / n_draws)
    lo, hi = 0.375 - 3 * sigma, 0.375 + 3 * sigma
    gt = flat_terrain()
    sensor = SensorModel.default()
    for seed in range(10):
        m = simulate_measurement(
            gt, np.array([25.0, 25.0, 15.0]), sensor, np.random.SeedSequence(seed)
        )
        assert (m.values.shape) == (150, 150)
        rate = float((m.values != 1).mean())
        assert lo <= rate <= hi


def test_high_altitude_values_constant_per_coarse_block():
    gt = flat_terrain()
    sensor = SensorModel.default()
    m = simulate_measurement(
        gt, np.array([25.0, 25.0, 15.0]), sensor, np.random.SeedSequence(3)
    )
    blocks = m.values.reshape(50, 3, 50, 3)
    assert (blocks == blocks[:, :1, :, :1]).all()


def test_unknown_altitude_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        simulate_measurement(
            flat_terrain(), np.array([25.0, 25.0, 7.0]), SensorModel.default(),
            np.random.SeedSequence(0),
        )


def test_noise_keyed_by_cell_not_by_footprint():
    # Overlapping footprints drawn under one seed agree on the shared cells
    # (pairing across planners). At 10 m a footprint is 100 cells wide in
    # 2-cell sensor blocks, so a 5 m (50-cell) shift keeps the blocks aligned.
    gt = flat_terrain()
    sensor = SensorModel.default()
    seed = np.random.SeedSequence(42)
    m1 = simulate_measurement(gt, np.array([22.5, 22.5, 10.0]), sensor, seed)
    m2 = simulate_measurement(gt, np.array([27.5, 27.5, 10.0]), sensor, seed)
    assert (m2.rect.x_lo - m1.rect.x_lo, m2.rect.y_lo - m1.rect.y_lo) == (50, 50)
    shared1 = m1.values[50:, 50:]
    np.testing.assert_array_equal(shared1, m2.values[:50, :50])
    assert 0 < (shared1 == 0).sum() < shared1.size  # the shared cells carry noise
    # same position and seed -> identical measurement
    m3 = simulate_measurement(gt, np.array([25.0, 25.0, 15.0]), sensor, seed)
    m4 = simulate_measurement(gt, np.array([25.0, 25.0, 15.0]), sensor, seed)
    np.testing.assert_array_equal(m3.values, m4.values)


def full_field_measurement(gt, position, sensor, rng, *, footprint_factor=1.0):
    """Reference: draws the whole H x W uniform field, then reads the anchors."""
    alt = float(position[2])
    acc = sensor.accuracy_at(alt)
    rect = footprint(position, footprint_factor, gt.width, gt.height, gt.resolution)
    fac = upsample_factor(alt, sensor.min_altitude)
    side_cells = max(1, round(footprint_factor * alt / gt.resolution))
    x_lo0, y_lo0 = _footprint_origin(float(position[0]), float(position[1]), side_cells, gt.resolution)

    uniforms = rng.random((gt.height, gt.width))

    ys = np.arange(rect.y_lo, rect.y_hi + 1)
    xs = np.arange(rect.x_lo, rect.x_hi + 1)
    by = (ys - y_lo0) // fac
    bx = (xs - x_lo0) // fac
    by_min, bx_min = by.min(), bx.min()
    n_by = by.max() - by_min + 1
    n_bx = bx.max() - bx_min + 1

    sub = gt.cells[rect.slices].astype(np.float64)
    block_id = (by - by_min)[:, None] * n_bx + (bx - bx_min)[None, :]
    sums = np.bincount(block_id.ravel(), weights=sub.ravel(), minlength=n_by * n_bx)
    counts = np.bincount(block_id.ravel(), minlength=n_by * n_bx)
    counts = np.maximum(counts, 1)
    truth = (sums >= 0.5 * counts).reshape(n_by, n_bx)

    anchor_y = np.clip(y_lo0 + (np.arange(n_by) + by_min) * fac, 0, gt.height - 1)
    anchor_x = np.clip(x_lo0 + (np.arange(n_bx) + bx_min) * fac, 0, gt.width - 1)
    flips = uniforms[anchor_y[:, None], anchor_x[None, :]] >= acc
    observed = truth ^ flips
    return observed[(by - by_min)[:, None], (bx - bx_min)[None, :]].astype(np.uint8)


# Examples pin footprints clipped at the west, east, south and north edges
# and at a corner, on maps whose cell count is not a multiple of 4.
@settings(max_examples=150, deadline=None)
@given(
    height=st.integers(1, 41),
    width=st.integers(1, 41),
    fx=st.floats(0.0, 1.0),
    fy=st.floats(0.0, 1.0),
    altitude=st.sampled_from([5.0, 10.0, 15.0]),
    factor=st.sampled_from([0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(height=37, width=29, fx=0.0, fy=0.5, altitude=10.0, factor=0.5, seed=1)
@example(height=37, width=29, fx=1.0, fy=0.5, altitude=15.0, factor=0.5, seed=2)
@example(height=37, width=29, fx=0.5, fy=0.0, altitude=5.0, factor=1.0, seed=3)
@example(height=37, width=29, fx=0.5, fy=1.0, altitude=15.0, factor=0.5, seed=4)
@example(height=23, width=31, fx=1.0, fy=1.0, altitude=10.0, factor=1.0, seed=5)
# full-scale maps, centred and clipped at the north-east corner, where the
# Philox counters run highest
@example(height=500, width=500, fx=0.5, fy=0.5, altitude=5.0, factor=1.0, seed=6)
@example(height=500, width=500, fx=1.0, fy=1.0, altitude=5.0, factor=1.0, seed=7)
@example(height=500, width=500, fx=0.5, fy=0.5, altitude=10.0, factor=1.0, seed=8)
@example(height=500, width=500, fx=1.0, fy=1.0, altitude=10.0, factor=1.0, seed=9)
@example(height=500, width=500, fx=0.5, fy=0.5, altitude=15.0, factor=1.0, seed=10)
@example(height=500, width=500, fx=1.0, fy=1.0, altitude=15.0, factor=1.0, seed=11)
def test_sliced_noise_matches_full_field_draw(height, width, fx, fy, altitude, factor, seed):
    cells = np.random.default_rng(seed).integers(0, 2, (height, width))
    gt = GroundTruthMap(cells, 0.1)
    position = np.array([fx * width * 0.1, fy * height * 0.1, altitude])
    sensor = SensorModel.default()
    ref_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    expected = full_field_measurement(gt, position, sensor, ref_rng, footprint_factor=factor)
    m = simulate_measurement(
        gt, position, sensor, np.random.SeedSequence(seed), footprint_factor=factor
    )
    np.testing.assert_array_equal(m.values, expected)


# ---------------------------------------------------------------------------
# fuse_measurement
# ---------------------------------------------------------------------------


def one_cell_measurement(label, acc, x=0, y=0):
    return Measurement(
        np.array([0.05, 0.05, 5.0]),
        CellRect(x, x, y, y),
        np.array([[label]], dtype=np.uint8),
        acc,
        0,
        0,
    )


def test_fusion_bayes_posterior():
    g = OccupancyGrid.uniform(1, 1, 0.1)
    fuse_measurement(g, one_cell_measurement(1, 0.99))
    assert g.probs()[0, 0] == pytest.approx(0.99, abs=1e-12)


def test_fusion_uninformative_sensor_is_identity():
    g = OccupancyGrid.uniform(1, 1, 0.1)
    fuse_measurement(g, one_cell_measurement(1, 0.5))
    assert g.probs()[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_fusion_odds_multiply():
    g = OccupancyGrid.uniform(1, 1, 0.1)
    fuse_measurement(g, one_cell_measurement(1, 0.99))
    fuse_measurement(g, one_cell_measurement(1, 0.99))
    assert g.probs()[0, 0] == pytest.approx(9801.0 / 9802.0, rel=1e-12)


def test_fusion_rejects_out_of_bounds():
    g = OccupancyGrid.uniform(2, 2, 0.1)
    bad = Measurement(
        np.array([0.05, 0.05, 5.0]),
        CellRect(1, 2, 0, 0),
        np.zeros((1, 2), dtype=np.uint8),
        0.9,
        0,
        0,
    )
    with pytest.raises(InvalidMeasurementError):
        fuse_measurement(g, bad)


def test_fusion_commutes_in_log_odds():
    rng = np.random.default_rng(7)
    gt = flat_terrain(100, 0.1)
    sensor = SensorModel.default()
    ms = [
        simulate_measurement(
            gt,
            np.array([rng.uniform(2, 8), rng.uniform(2, 8), 5.0]),
            sensor,
            np.random.SeedSequence(i),
        )
        for i in range(12)
    ]
    g1 = OccupancyGrid.uniform(100, 100, 0.1)
    g2 = OccupancyGrid.uniform(100, 100, 0.1)
    for m in ms:
        fuse_measurement(g1, m)
    for m in reversed(ms):
        fuse_measurement(g2, m)
    np.testing.assert_allclose(g1.probs(), g2.probs(), atol=1e-9)


# ---------------------------------------------------------------------------
# weighted entropy
# ---------------------------------------------------------------------------


def test_entropy_at_half_is_half_bit():
    assert weighted_cell_entropy(0.5, W) == pytest.approx(0.5, abs=1e-15)
    assert weighted_cell_entropy(0.5, HALF) == pytest.approx(0.5, abs=1e-15)


def test_entropy_weighted_value():
    expected = -(0.8 * 0.8 * math.log2(0.8) + 0.2 * 0.2 * math.log2(0.2))
    assert weighted_cell_entropy(0.8, W) == pytest.approx(expected, abs=1e-15)
    assert weighted_cell_entropy(0.8, W) == pytest.approx(0.2989, abs=5e-5)


def test_entropy_vanishes_at_certainty():
    assert weighted_cell_entropy(1.0, W) == 0.0
    assert weighted_cell_entropy(0.0, W) == 0.0


def test_entropy_domain_error():
    with pytest.raises(DomainError):
        weighted_cell_entropy(1.2, W)
    with pytest.raises(DomainError):
        weighted_cell_entropy(-0.1, W)


def test_entropy_rejects_nan():
    # NaN compares false against both bounds; it must not score as certain
    with pytest.raises(DomainError):
        weighted_cell_entropy(math.nan, W)
    with pytest.raises(DomainError):
        weighted_cell_entropy(np.array([[0.5, math.nan], [0.2, 0.9]]), W)
    assert weighted_cell_entropy(np.empty((0, 3)), W).shape == (0, 3)


@given(
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    w1=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_entropy_maximum_at_half(p, w1):
    w = ImportanceWeights(w1, 1.0 - w1)
    h = weighted_cell_entropy(p, w)
    assert h >= 0.0
    if p in (0.0, 1.0):
        assert h == 0.0
    # the p = 0.5 value is a maximum over the 0.5-weighted band around it
    assert weighted_cell_entropy(0.5, w) == pytest.approx(0.5, abs=1e-15)


def test_map_entropy_uniform_and_masked():
    g = OccupancyGrid.uniform(10, 10, 0.1)
    assert map_entropy(g, W) == pytest.approx(50.0, abs=1e-9)
    mask = np.zeros((10, 10), dtype=bool)
    mask[:5] = True
    assert map_entropy(g, W, mask) == pytest.approx(25.0, abs=1e-9)
    certain = OccupancyGrid(np.full((10, 10), 60.0), 0.1)
    # the 1e-4 probability clamp keeps ~4e-4 bits per cell of residual
    assert map_entropy(certain, W) < 100 * 5e-4


def test_map_entropy_non_increasing_under_informative_fusion():
    sensor = SensorModel.default()
    drops = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        gt = flat_terrain(50, 0.1, label=seed % 2)
        g = OccupancyGrid.uniform(50, 50, 0.1)
        before = map_entropy(g, W)
        for s in range(5):
            pos = np.array([rng.uniform(1, 4), rng.uniform(1, 4), 5.0])
            seq = np.random.SeedSequence([seed, s])
            fuse_measurement(g, simulate_measurement(gt, pos, sensor, seq))
        after = map_entropy(g, W)
        if after <= before:
            drops += 1
    assert drops == 20


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_grid(path, grid: OccupancyGrid) -> None:
    write_text_grid(path, grid.probs(), grid.resolution)


def load_grid(path) -> OccupancyGrid:
    probs, res = read_text_grid(path)
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise DataError(f"{path}: probabilities outside [0, 1]")
    p = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return OccupancyGrid(np.log(p / (1.0 - p)), res)


def test_text_grid_round_trip(tmp_path):
    g = OccupancyGrid(np.random.default_rng(0).normal(size=(6, 4)), 0.25)
    path = tmp_path / "grid.txt"
    save_grid(path, g)
    loaded = load_grid(path)
    assert loaded.resolution == pytest.approx(0.25)
    np.testing.assert_allclose(loaded.probs(), g.probs(), atol=1e-10)


def test_text_grid_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 2\n")
    with pytest.raises(DataError, match="line 1"):
        read_text_grid(p)
    for res in ("nan", "inf"):  # a header that float() parses but no map can use
        p.write_text(f"2 2 {res}\n0.5 0.5\n0.5 0.5\n")
        with pytest.raises(DataError, match="line 1"):
            read_text_grid(p)
    p.write_text("2 2 0.1\n0.5 0.5\n0.5 oops\n")
    with pytest.raises(DataError, match="line 3"):
        read_text_grid(p)
    p.write_text("2 2 0.1\n0.5 0.5\n0.5\n")
    with pytest.raises(DataError, match="expected 4 values"):
        read_text_grid(p)
    p.write_text("2 2 0.1\n0.5 0.5\n0.5 0.5\n", encoding="utf-16")
    with pytest.raises(DataError, match="byte 0: not ASCII"):
        read_text_grid(p)


def test_pgm_export(tmp_path):
    g = OccupancyGrid.uniform(4, 3, 0.1)
    path = tmp_path / "g.pgm"
    save_grid_pgm(path, g)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert raw[len(b"P5\n4 3\n255\n"):] == bytes([128] * 12)


def test_sensor_model_validation():
    with pytest.raises(ConfigurationError):
        SensorModel(((5.0, 0.99), (5.0, 0.7)))
    with pytest.raises(ConfigurationError):
        SensorModel(((5.0, 0.4),))
    with pytest.raises(ConfigurationError):  # a coin flip carries no information
        SensorModel(((5.0, 0.5),))
    with pytest.raises(ConfigurationError):
        ImportanceWeights(0.7, 0.2)


# ---------------------------------------------------------------------------
# equality gates: the lean kernels against the textbook forms they replaced
# ---------------------------------------------------------------------------

# Weight pairs of the gates: w1 + w2 exactly 1, a w2 off 0.3 in its last bit,
# a sum off 1 by less than the 1e-12 the weights allow (so the class terms
# at p = 0.5 do not add to 0.5 unless fixed up), both one-sided pairs, and
# the symmetric pair.
GATE_WEIGHTS = [
    ImportanceWeights(0.8, 0.2),
    ImportanceWeights(0.7, 0.30000000000000004),
    ImportanceWeights(0.6, 0.4000000000005),
    ImportanceWeights(1.0, 0.0),
    ImportanceWeights(0.0, 1.0),
    ImportanceWeights(0.5, 0.5),
]
SPECIAL_PROBS = np.array([0.0, 1.0, 0.5, PROB_FLOOR, 1.0 - PROB_FLOOR])


def gate_probs(seed, shape, special_share):
    """Random probabilities with a share of exact 0, 1, 0.5 and clamp values."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, shape)
    special = rng.random(shape) < special_share
    p[special] = rng.choice(SPECIAL_PROBS, size=int(special.sum()))
    return p


def gate_view(a, kind):
    """The array itself or a non-contiguous view of it."""
    return {"c": a, "t": a.T, "step": a[::2, ::3], "flip": a[::-1, ::-1]}[kind]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 131), st.integers(1, 97)),
    special_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    view=st.sampled_from(["c", "t", "step", "flip"]),
    w=st.sampled_from(GATE_WEIGHTS),
)
def test_entropy_kernel_equals_reference_bit_for_bit(seed, shape, special_share, view, w):
    p = gate_view(gate_probs(seed, shape, special_share), view)
    got = weighted_cell_entropy(p, w)
    want = reference.weighted_cell_entropy(p, w)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # signed zeros included


@pytest.mark.parametrize("w", GATE_WEIGHTS)
def test_entropy_kernel_scalars_and_band_edges_equal_reference(w):
    for p in [*SPECIAL_PROBS, 0.25, 0.75, np.float64(0.3), np.array(0.6)]:
        got, want = weighted_cell_entropy(p, w), reference.weighted_cell_entropy(p, w)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # planes around the banded reference's band size
    for n in (8191, 8192, 8193, 3 * 8192):
        p = gate_probs(n, (n,), 0.3)
        want = reference.weighted_cell_entropy(p, w)
        assert weighted_cell_entropy(p, w).tobytes() == want.tobytes()


@pytest.mark.parametrize("w", GATE_WEIGHTS)
def test_one_pass_entropy_kernel_equals_the_banded_kernel(w):
    # one cell of each of 0, 0.5 and 1 alone, then planes that end on, one
    # short of and one past a band edge, a training map and the largest ROI
    # gather of an evaluation mission, each holding 0, 0.5 and 1
    planes = [np.empty(0), *(np.array([p]) for p in (0.0, 0.5, 1.0))]
    for n in (8191, 8192, 8193, 22_500, 131_651):
        p = gate_probs(n, (n,), 0.3)
        p[:3] = 0.0, 0.5, 1.0
        planes.append(p)
    for p in planes:
        got, want = weighted_cell_entropy(p, w), reference.banded_weighted_cell_entropy(p, w)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros included


# altitudes 5, 10, 15 and 20 m read native blocks of 1 to 4 map cells
BLOCK_SENSOR = SensorModel(((5.0, 0.99), (10.0, 0.8), (15.0, 0.7), (20.0, 0.6)))


@pytest.mark.parametrize("altitude", [5.0, 10.0, 15.0, 20.0])
@pytest.mark.parametrize("height,width", [(37, 41), (6, 5)])
def test_one_step_block_sums_equal_the_two_sum_labelling(altitude, height, width):
    assert upsample_factor(altitude, BLOCK_SENSOR.min_altitude) == altitude / 5.0
    cells = np.random.default_rng(height * width).integers(0, 2, (height, width))
    gt = GroundTruthMap(cells, 1.0)
    # the centre, each edge and each corner, and positions a fraction of a
    # block inside each edge, where the first and last blocks are cut short
    fractions = (0.0, 0.03, 0.5, 0.97, 1.0)
    for i, (fx, fy) in enumerate((fx, fy) for fx in fractions for fy in fractions):
        position = np.array([fx * width, fy * height, altitude])
        got = simulate_measurement(gt, position, BLOCK_SENSOR, np.random.SeedSequence(i))
        want = reference.simulate_measurement(gt, position, BLOCK_SENSOR,
                                              np.random.SeedSequence(i))
        assert got.rect == want.rect and got.accuracy == want.accuracy
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()


def test_entropy_kernel_rejects_nan_and_keeps_empty_shapes():
    for bad in (math.nan, np.array([0.2, math.nan]), np.array([[math.nan]])):
        with pytest.raises(DomainError):
            weighted_cell_entropy(bad, W)
    for shape in ((0,), (0, 3), (4, 0)):
        out = weighted_cell_entropy(np.empty(shape), W)
        assert out.shape == shape and out.dtype == np.float64


# p's mirror 1 - p is exact for p in [0.5, 1]. PROB_FLOOR has no exact mirror
# there (1 - PROB_FLOOR rounds), so the clamp enters through 1 - PROB_FLOOR.
MIRROR_PINS = [0.5, 1.0, 1.0 - PROB_FLOOR, 1.0 - 2.0**-53]


@settings(max_examples=200, deadline=None)
@given(
    p=st.lists(st.floats(0.5, 1.0), max_size=40),
    w1=st.floats(0.0, 1.0),
    slack=st.floats(-5e-13, 5e-13),
)
def test_entropy_of_p_and_of_its_mirror_are_bit_identical(p, w1, slack):
    # both name the same two class probabilities, and the likelier class
    # carries w1 whichever of them is p
    w = ImportanceWeights(w1, max(0.0, 1.0 - w1 + slack))
    p = np.array(p + MIRROR_PINS)
    mirror = 1.0 - p
    assert (1.0 - mirror == p).all()
    assert weighted_cell_entropy(p, w).tobytes() == weighted_cell_entropy(mirror, w).tobytes()
    for a, b in zip(p.tolist(), mirror.tolist()):
        assert np.float64(weighted_cell_entropy(a, w)).tobytes() == (
            np.float64(weighted_cell_entropy(b, w)).tobytes())


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 61), st.integers(1, 73)),
    scale=st.sampled_from([0.0, 1.0, 12.0, 80.0]),
    view=st.sampled_from(["c", "t", "step", "flip"]),
    corner=st.tuples(st.integers(0, 60), st.integers(0, 72)),
)
def test_posterior_equals_reference_bit_for_bit(seed, shape, scale, view, corner):
    log_odds = gate_view(np.random.default_rng(seed).normal(0.0, scale, shape), view)
    grid = OccupancyGrid(log_odds, 0.1)
    got, want = grid.probs(), reference.probs(log_odds)
    assert got.strides == want.strides and got.tobytes() == want.tobytes()
    y0, x0 = corner[0] % log_odds.shape[0], corner[1] % log_odds.shape[1]
    slices = (slice(y0, y0 + 17), slice(x0, x0 + 23))  # clipped at the far edges
    part, want = grid.probs_slice(slices), reference.probs(log_odds[slices])
    assert part.strides == want.strides and part.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 40),
    rect=st.tuples(st.integers(0, 39), st.integers(0, 39), st.integers(1, 40), st.integers(1, 40)),
    accuracy=st.sampled_from([0.5000001, 0.625, 0.735, 0.99, 1.0]),
)
def test_fusion_patch_equals_reference_bit_for_bit(seed, size, rect, accuracy):
    rng = np.random.default_rng(seed)
    x_lo, y_lo = rect[0] % size, rect[1] % size
    r = CellRect(x_lo, min(size - 1, x_lo + rect[2] - 1), y_lo, min(size - 1, y_lo + rect[3] - 1))
    values = rng.integers(0, 2, (r.height, r.width))
    m = Measurement(np.array([0.0, 0.0, 5.0]), r, values, accuracy, 0, 0)
    start = rng.normal(0.0, 3.0, (size, size))
    grid = fuse_measurement(OccupancyGrid(start.copy(), 0.1), m)
    acc = min(accuracy, 1.0 - 1e-9)
    delta = math.log(acc / (1.0 - acc))
    want = start.copy()
    want[r.slices] += reference.fusion_patch(m.values, delta)
    assert grid.log_odds.tobytes() == want.tobytes()
    # fusion builds a one-off patch; a kept one serves every later map
    assert m.kept_patch is None
    m.kept_patch = patch = m.log_odds_patch()
    assert patch.tobytes() == reference.fusion_patch(m.values, delta).tobytes()
    again = fuse_measurement(OccupancyGrid(start.copy(), 0.1), m)
    assert m.log_odds_patch() is patch
    assert again.log_odds.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [0.0, -0.0, 1.75, -40.0])
def test_uniform_grid_records_its_prior_and_logs_nothing(value):
    grid = OccupancyGrid(np.full((6, 4), value), 0.5)
    assert grid.prior == value and grid.fused == []
    probs, entropy = grid.prior_cell(ImportanceWeights())
    assert probs.shape == entropy.shape == (1, 1)
    assert probs[0, 0] == grid.probs()[3, 2]
    assert entropy[0, 0] == weighted_cell_entropy(grid.probs(), ImportanceWeights())[5, 0]


def test_non_uniform_grid_logs_one_whole_map_rectangle():
    log_odds = np.zeros((6, 4))
    log_odds[2, 3] = 0.25
    grid = OccupancyGrid(log_odds, 0.5)
    assert grid.prior == 0.0 and grid.fused == [CellRect(0, 3, 0, 5)]
    nan = OccupancyGrid(np.full((2, 3), np.nan), 0.5)  # NaN is never a prior
    assert nan.fused == [CellRect(0, 2, 0, 1)]


# ---------------------------------------------------------------------------
# input validation that NaN must not slip through
# ---------------------------------------------------------------------------


def test_ground_truth_rejects_cells_other_than_zero_and_one():
    cells = np.zeros((3, 4), dtype=np.uint8)
    cells[1, 2] = 2
    with pytest.raises(ConfigurationError):
        GroundTruthMap(cells, 0.5)
    with pytest.raises(ConfigurationError):
        GroundTruthMap(np.full((2, 2), 255, dtype=np.uint8), 0.5)


@pytest.mark.parametrize("cells", [
    [[0.7, 1.0]],  # the uint8 cast would round it to [[0, 1]]
    [[0.0, 1.9]],  # to [[0, 1]]
    [[math.nan, 1.0]],  # to [[0, 1]], with only a RuntimeWarning
    [[0, 256]],  # to [[0, 0]]
    [[-1, 0]],  # to [[255, 0]]
])
def test_ground_truth_rejects_values_the_cast_would_round(cells):
    with pytest.raises(ConfigurationError):
        GroundTruthMap(np.array(cells), 0.5)


@pytest.mark.parametrize("cells", [
    [[0.0, 1.0]], [[0, 1]], [[False, True]], np.array([[0, 1]], dtype=np.uint8),
])
def test_ground_truth_takes_zero_and_one_in_any_dtype(cells):
    gt = GroundTruthMap(np.array(cells), 0.5)
    assert gt.cells.dtype == np.uint8
    assert gt.cells.tolist() == [[0, 1]]


@pytest.mark.parametrize("res", [0.0, -0.5, math.nan, math.inf])
def test_maps_reject_a_resolution_that_is_not_finite_and_positive(res):
    with pytest.raises(ConfigurationError, match="finite and positive"):
        GroundTruthMap(np.zeros((2, 2)), res)
    with pytest.raises(ConfigurationError, match="finite and positive"):
        OccupancyGrid(np.zeros((2, 2)), res)


def test_roi_index_lists_interesting_cells_in_c_order():
    gt = GroundTruthMap(np.eye(3, dtype=np.uint8), 0.5)
    assert gt.roi_index.tolist() == [0, 4, 8]
    assert gt.roi_index is gt.roi_index  # computed once


def test_importance_weights_reject_nan():
    for w1, w2 in ((math.nan, 0.2), (0.8, math.nan), (math.nan, math.nan)):
        with pytest.raises(ConfigurationError):
            ImportanceWeights(w1, w2)


def test_sensor_model_rejects_nan():
    for table in (
        ((5.0, 0.99), (math.nan, 0.7)),
        ((math.nan, 0.99),),
        ((5.0, math.nan),),
        ((5.0, 0.99), (10.0, math.nan)),
    ):
        with pytest.raises(ConfigurationError):
            SensorModel(table)


# ---------------------------------------------------------------------------
# atomic writers
# ---------------------------------------------------------------------------


class FailingFile:
    """A file whose ``fail_at``-th write raises, as a full disk would."""

    def __init__(self, fh, fail_at):
        self.fh, self.left = fh, fail_at - 1

    def write(self, data):
        if self.left == 0:
            raise OSError("no space left on device")
        self.left -= 1
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("writer", ["csv", "text_grid", "pgm"])
def test_a_write_that_fails_mid_file_leaves_the_previous_file_whole(tmp_path, monkeypatch, writer):
    from terrascout import gridmap

    grid = OccupancyGrid(np.random.default_rng(0).normal(size=(5, 4)), 0.25)
    write = {
        "csv": lambda path: gridmap.write_csv(path, [(1, 0.5), (2, 0.25), (3, 0.125)], ["a", "b"]),
        "text_grid": lambda path: save_grid(path, grid),
        "pgm": lambda path: save_grid_pgm(path, grid),
    }[writer]
    path = tmp_path / "out"
    write(path)
    before = path.read_bytes()
    monkeypatch.setattr(gridmap, "open", lambda *a, **k: FailingFile(open(*a, **k), 2),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        write(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_csv_append_mode_extends_the_file_in_place(tmp_path):
    from terrascout import gridmap

    path = tmp_path / "log.csv"
    gridmap.write_csv(path, [(1, 0.5)], ["step", "value"])
    gridmap.write_csv(path, [(2, 0.25)])
    assert path.read_bytes() == b"step,value\r\n1,0.5\r\n2,0.25\r\n"
