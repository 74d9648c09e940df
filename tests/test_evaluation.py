"""Metrics, mission runner determinism, and paired benchmarks."""

import csv
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels as reference
from terrascout import evaluation
from terrascout.environment import (
    EnvConfig,
    GlobalState,
    TerrainEnv,
    reward,
    start_mission,
)
from terrascout.errors import ContractViolation, DegenerateTerrainError
from terrascout.evaluation import (
    MapScorer,
    MetricsRecord,
    PlannerSpec,
    checkpoint_steps,
    f1_score,
    roi_entropy,
    run_benchmark,
    run_mission,
    write_benchmark_csv,
)
from terrascout.gridmap import (
    CellRect,
    GroundTruthMap,
    ImportanceWeights,
    Measurement,
    OccupancyGrid,
    fmt,
    fuse_measurement,
    map_entropy,
)
from terrascout.policy import FeatureConfig

W = ImportanceWeights(0.8, 0.2)
HALF = ImportanceWeights(0.5, 0.5)


def cfg_(**kw):
    defaults = dict(terrain_size=50.0, map_resolution=0.5, num_agents=4, budget=15)
    defaults.update(kw)
    return EnvConfig(**defaults)


def gt_fraction(n=10, frac=0.4, res=0.5):
    cells = np.zeros((n, n), dtype=np.uint8)
    cells[: int(n * frac)] = 1
    return GroundTruthMap(cells, res)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_roi_entropy_uniform_prior_is_one():
    gt = gt_fraction()
    grid = OccupancyGrid.uniform(10, 10, 0.5)
    assert roi_entropy(grid, gt, W) == pytest.approx(1.0, abs=1e-12)


def test_run_mission_on_roi_free_terrain_raises():
    cfg = cfg_(terrain_size=10.0, num_agents=2, budget=2)
    gt = GroundTruthMap(np.zeros((20, 20), dtype=np.uint8), 0.5)
    with pytest.raises(DegenerateTerrainError):
        run_mission(PlannerSpec("random"), cfg, 0, terrain=gt)


def test_roi_entropy_certain_correct_map_is_zero():
    gt = gt_fraction()
    grid = OccupancyGrid(np.where(gt.cells == 1, 40.0, -40.0), 0.5)
    assert roi_entropy(grid, gt, W) == pytest.approx(0.0, abs=2e-3)


def test_roi_entropy_half_certain_half_uniform():
    gt = GroundTruthMap(np.ones((10, 10), dtype=np.uint8), 0.5)
    log_odds = np.zeros((10, 10))
    log_odds[:5] = 40.0  # certain half
    grid = OccupancyGrid(log_odds, 0.5)
    assert roi_entropy(grid, gt, HALF) == pytest.approx(0.5, abs=2e-3)


def test_roi_entropy_empty_roi_raises():
    gt = GroundTruthMap(np.zeros((4, 4), dtype=np.uint8), 0.5)
    with pytest.raises(DegenerateTerrainError):
        roi_entropy(OccupancyGrid.uniform(4, 4, 0.5), gt, W)


def test_f1_perfect_map():
    gt = gt_fraction()
    grid = OccupancyGrid(np.where(gt.cells == 1, 40.0, -40.0), 0.5)
    assert f1_score(grid, gt) == pytest.approx(1.0)


def test_f1_all_positive_on_40pct_terrain():
    gt = gt_fraction(frac=0.4)
    grid = OccupancyGrid(np.full((10, 10), 40.0), 0.5)
    assert f1_score(grid, gt) == pytest.approx(4.0 / 7.0, abs=1e-12)


def test_f1_uniform_prior_is_zero_by_convention():
    gt = gt_fraction()
    assert f1_score(OccupancyGrid.uniform(10, 10, 0.5), gt) == 0.0


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 67), st.integers(1, 53)),
    roi_share=st.sampled_from([0.02, 0.4, 1.0]),
    weights=st.sampled_from([(0.8, 0.2), (0.7, 0.30000000000000004), (0.6, 0.4000000000005),
                             (1.0, 0.0), (0.5, 0.5)]),
)
def test_roi_entropy_and_f1_equal_reference_bit_for_bit(seed, shape, roi_share, weights):
    rng = np.random.default_rng(seed)
    cells = (rng.random(shape) < roi_share).astype(np.uint8)
    cells.flat[0] = 1  # a terrain with no interesting cell raises before any metric
    gt = GroundTruthMap(cells, 0.5)
    log_odds = rng.normal(0.0, 3.0, shape)
    log_odds[rng.random(shape) < 0.3] = 0.0  # p = 0.5 exactly: not a positive prediction
    log_odds[rng.random(shape) < 0.2] = 40.0
    grid = OccupancyGrid(log_odds, 0.5)
    w = ImportanceWeights(*weights)
    pairs = [
        (roi_entropy(grid, gt, w), reference.roi_entropy(grid, gt, w)),
        (f1_score(grid, gt), reference.f1_score(grid, gt)),
    ]
    for got, want in pairs:
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _hex(values):
    return [float.hex(v) for v in values]


def _roi_cells(rng, shape, roi):
    """Ground-truth cells with one interesting cell, a random share, or all."""
    if roi == "one":
        cells = np.zeros(shape, dtype=np.uint8)
        cells[rng.integers(shape[0]), rng.integers(shape[1])] = 1
        return cells
    if roi == "all":
        return np.ones(shape, dtype=np.uint8)
    cells = (rng.random(shape) < roi).astype(np.uint8)
    cells.flat[0] = 1
    return cells


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    roi=st.sampled_from(["one", 0.05, 0.5, "all"]),
    start=st.sampled_from(["uniform", "positive", "non-uniform"]),
    fusions=st.integers(1, 10),
    every=st.integers(1, 3),
    out_of_band=st.booleans(),
)
@example(seed=1, shape=(30, 30), roi="one", start="uniform", fusions=10, every=1,
         out_of_band=True)
@example(seed=2, shape=(1, 1), roi="all", start="positive", fusions=3, every=2,
         out_of_band=True)
def test_scorer_caught_up_from_the_log_equals_scores_from_scratch(
        seed, shape, roi, start, fusions, every, out_of_band):
    rng = np.random.default_rng(seed)
    gt = GroundTruthMap(_roi_cells(rng, shape, roi), 0.5)
    log_odds = {"uniform": np.zeros(shape), "positive": np.full(shape, 3.0),
                "non-uniform": rng.normal(0.0, 3.0, shape)}[start]
    grid = OccupancyGrid(log_odds, 0.5)
    scorer = MapScorer(grid, gt, W)
    h, w = shape
    for k in range(fusions):
        # overlapping rectangles, some clipped at the map edges
        x0, y0, side = rng.integers(-4, w), rng.integers(-4, h), rng.integers(1, 12)
        rect = CellRect(max(0, x0), min(w - 1, x0 + side - 1), max(0, y0), min(h - 1, y0 + side - 1))
        if rect.width > 0 and rect.height > 0:
            values = rng.integers(0, 2, (rect.height, rect.width))
            acc = float(rng.choice([0.99, 0.735, 0.625]))
            fuse_measurement(grid, Measurement(np.zeros(3), rect, values, acc, 0, k))
        if out_of_band and k == fusions // 2:
            # a write outside fuse_measurement logs its rectangle; p = 0.5 is no positive
            grid.log_odds[: h // 2 + 1, w // 3:] = rng.choice([0.0, 40.0, -2.0])
            grid.fused.append(CellRect(w // 3, w - 1, 0, h // 2))
        if k % every == 0 or k == fusions - 1:
            got = scorer.catch_up()
            assert all(type(v) is float for v in got)
            assert _hex(got) == _hex((roi_entropy(grid, gt, W), f1_score(grid, gt)))


class _ScoredFromScratch:
    """A MapScorer stand-in that scores the whole grid on every call."""

    def __init__(self, grid, gt, w):
        self.grid, self.gt, self.w = grid, gt, w

    def catch_up(self):
        return roi_entropy(self.grid, self.gt, self.w), f1_score(self.grid, self.gt)


@pytest.mark.parametrize("planner", ["random", "greedy-ig"])
def test_mission_scores_and_local_rows_equal_scores_from_scratch(planner, monkeypatch):
    cfg = cfg_(num_agents=3, budget=6, comm_radius=20.0)
    # the interesting side lies south, where the agents start, so every score moves
    gt = reference.generate_terrain(np.random.default_rng(0), cfg, angle=-1.2, fraction=0.45)
    run = partial(run_mission, PlannerSpec(planner), cfg, 8, 1, terrain=gt, local_metrics=True)
    caught_up = run()
    monkeypatch.setattr(evaluation, "MapScorer", _ScoredFromScratch)
    scratch = run()
    assert len(caught_up.local_rows) == cfg.budget * cfg.num_agents
    assert all(row[3] < 1.0 and row[4] > 0.0 for row in caught_up.local_rows[-cfg.num_agents:])
    assert [(*row[:3], *_hex(row[3:])) for row in caught_up.local_rows] == \
        [(*row[:3], *_hex(row[3:])) for row in scratch.local_rows]
    assert [_hex((r.roi_entropy, r.f1)) for r in caught_up.records] == \
        [_hex((r.roi_entropy, r.f1)) for r in scratch.records]


@pytest.mark.parametrize("planner", ["random", "greedy-ig"])
def test_scorers_equal_scores_from_scratch_after_every_step(planner):
    # the global scorer and each agent's local scorer, on a seeded mission
    cfg = cfg_(num_agents=3, budget=6, comm_radius=20.0)
    gt = reference.generate_terrain(np.random.default_rng(0), cfg, angle=-1.2, fraction=0.45)
    env, rng = start_mission(cfg, 8, 1, gt)
    env.reset()
    team = PlannerSpec(planner).build(FeatureConfig())
    grids = [env.state.global_map, *(loc.local_map for loc in env.locals)]
    scorers = [MapScorer(grid, gt, cfg.weights) for grid in grids]
    done = False
    while not done:
        done = env.step(team.act_team(env.locals, env.masks(), cfg, rng))
        for loc in env.locals:
            loc.local_map  # reading it fuses what the step delivered
        for grid, scorer in zip(grids, scorers):
            assert _hex(scorer.catch_up()) == \
                _hex((roi_entropy(grid, gt, cfg.weights), f1_score(grid, gt)))
    assert all(scorer.seen == len(grid.fused) > 0 for grid, scorer in zip(grids, scorers))


def test_checkpoint_steps():
    assert checkpoint_steps(15) == [5, 10, 15]
    assert checkpoint_steps(8) == [3, 6, 8]


# ---------------------------------------------------------------------------
# run_mission
# ---------------------------------------------------------------------------


def test_mission_deterministic_per_seed():
    cfg = cfg_(num_agents=2, budget=6)
    a = run_mission(PlannerSpec("random"), cfg, 5, 0, episode_rows=True)
    b = run_mission(PlannerSpec("random"), cfg, 5, 0, episode_rows=True)
    assert a.episode_rows == b.episode_rows
    assert [r.roi_entropy for r in a.records] == [r.roi_entropy for r in b.records]


def test_mission_record_count_and_t0():
    cfg = cfg_(num_agents=2, budget=15)
    result = run_mission(PlannerSpec("random"), cfg, 1, 0)
    assert len(result.records) == 16
    # before the first fused measurement the normalization is exact
    assert result.records[0].roi_entropy == 1.0
    assert result.records[0].f1 == 0.0


@pytest.mark.parametrize("roi, f1", [(1.5, 0.5), (-0.1, 0.5), (0.5, 1.2), (0.5, -0.01)])
def test_metrics_record_out_of_range_raises(roi, f1):
    with pytest.raises(ContractViolation):
        MetricsRecord(roi, f1)


def test_mission_ending_before_budget_raises(monkeypatch):
    monkeypatch.setattr(evaluation.TerrainEnv, "step", lambda self, joint: True)
    with pytest.raises(ContractViolation, match="budget"):
        run_mission(PlannerSpec("random"), cfg_(budget=4), 0)


def test_random_planner_reduces_roi_entropy():
    cfg = cfg_(num_agents=2, budget=8)
    result = run_mission(PlannerSpec("random"), cfg, 2, 0)
    assert result.records[-1].roi_entropy < 1.0


def test_rewards_in_log_match_entropy_column():
    cfg = cfg_(num_agents=2, budget=6)
    result = run_mission(PlannerSpec("random"), cfg, 3, 0, episode_rows=True)
    rows = result.episode_rows
    by_step = {}
    for row in rows:
        by_step.setdefault(row["step"], row)
    for t in range(1, 7):
        h_prev = by_step[t - 1]["global_entropy"]
        h_now = by_step[t]["global_entropy"]
        assert by_step[t]["reward"] == pytest.approx((h_prev - h_now) / h_prev, abs=1e-9)


def test_mission_with_fixed_terrain_override():
    cfg = cfg_(num_agents=2, budget=4)
    gt = start_mission(cfg, 99, 0)[0].terrain
    a = run_mission(PlannerSpec("random"), cfg, 7, 0, terrain=gt)
    b = run_mission(PlannerSpec("random"), cfg, 7, 0, terrain=gt)
    assert [r.f1 for r in a.records] == [r.f1 for r in b.records]


# ---------------------------------------------------------------------------
# run_benchmark
# ---------------------------------------------------------------------------


def test_benchmark_identical_planners_identical_stats():
    cfg = cfg_(num_agents=2, budget=6)
    stats = run_benchmark(
        [PlannerSpec("random"), PlannerSpec("random", mode="sample")], 3, 11, cfg
    )
    assert len(stats) == 1  # same label, evaluated twice, same numbers
    cfg2 = cfg_(num_agents=2, budget=6)
    s1 = run_benchmark([PlannerSpec("random")], 3, 11, cfg2)["random"]
    s2 = run_benchmark([PlannerSpec("random")], 3, 11, cfg2)["random"]
    assert s1.entropy_mean == s2.entropy_mean
    assert s1.f1_std == s2.f1_std


def test_benchmark_rejects_single_mission():
    with pytest.raises(ContractViolation):
        run_benchmark([PlannerSpec("random")], 1, 0, cfg_())


def test_benchmark_std_is_unbiased_two_missions():
    cfg = cfg_(num_agents=2, budget=6)
    stats = run_benchmark([PlannerSpec("random")], 2, 21, cfg)["random"]
    finals = [
        run_mission(PlannerSpec("random"), cfg, 21, m).records[-1].roi_entropy
        for m in range(2)
    ]
    expected = np.std(finals, ddof=1)
    assert stats.entropy_std[-1] == pytest.approx(expected, abs=1e-12)
    assert stats.entropy_mean[-1] == pytest.approx(np.mean(finals), abs=1e-12)


def test_benchmark_threads_match_serial():
    cfg = cfg_(num_agents=2, budget=5)
    serial = run_benchmark([PlannerSpec("greedy-ig")], 3, 31, cfg, threads=1)
    parallel = run_benchmark([PlannerSpec("greedy-ig")], 3, 31, cfg, threads=2)
    assert serial["greedy-ig"].entropy_mean == parallel["greedy-ig"].entropy_mean
    assert serial["greedy-ig"].f1_mean == parallel["greedy-ig"].f1_mean


def test_benchmark_pool_starts_at_most_one_worker_per_mission(monkeypatch):
    """A process pool forks all its workers at the first submit, so the pool
    is sized to the missions; a serial stand-in records the size and starts
    no process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    cfg = cfg_(num_agents=2, budget=3)
    serial = run_benchmark([PlannerSpec("random")], 2, 31, cfg)["random"]
    wide = run_benchmark([PlannerSpec("random")], 2, 31, cfg, threads=500)["random"]
    run_benchmark([PlannerSpec("random")], 3, 31, cfg, threads=2)
    assert sizes == [2, 2]
    assert wide.entropy_mean == serial.entropy_mean


def test_benchmark_csv_layout(tmp_path):
    cfg = cfg_(num_agents=2, budget=6)
    stats = run_benchmark([PlannerSpec("random"), PlannerSpec("coverage")], 2, 41, cfg)
    path = tmp_path / "benchmark.csv"
    write_benchmark_csv(path, stats)
    lines = path.read_text().splitlines()
    assert lines[0] == "planner,checkpoint,entropy_mean,entropy_std,f1_mean,f1_std"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("coverage,33%")
    assert lines[4].startswith("random,33%")


def test_benchmark_sums_the_global_map_only_for_dumped_episode_rows(tmp_path, monkeypatch):
    """Without ``dump_dir`` no step fills the global planes or sums the global
    map; with it, every dumped row holds reward(h_{t-1}, h_t, alpha, beta) of
    the from-scratch entropies, as written text."""
    calls = {"map_planes": 0, "global_entropy": 0}
    for owner, name in ((GlobalState, "map_planes"), (TerrainEnv, "global_entropy")):
        def counted(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    cfg = cfg_(num_agents=2, budget=4, reward_alpha=1.5, reward_beta=0.25)
    specs = [PlannerSpec(name) for name in ("random", "coverage", "greedy-ig")]
    plain = run_benchmark(specs, 2, 66, cfg, local_dir=tmp_path)
    assert calls == {"map_planes": 0, "global_entropy": 0}
    dumped = run_benchmark(specs, 2, 66, cfg, dump_dir=tmp_path / "dumps")
    assert calls["map_planes"] > 0 and calls["global_entropy"] > 0
    assert {k: v.entropy_mean + v.f1_mean for k, v in dumped.items()} == \
        {k: v.entropy_mean + v.f1_mean for k, v in plain.items()}
    for spec in specs:
        for mission in range(2):
            env, rng = start_mission(cfg, 66, mission)
            env.reset()
            team = spec.build(FeatureConfig())
            hs = [map_entropy(env.state.global_map, cfg.weights)]
            want = [("0", fmt(hs[0]))] * cfg.num_agents
            done = False
            while not done:
                done = env.step(team.act_team(env.locals, env.masks(), cfg, rng))
                hs.append(map_entropy(env.state.global_map, cfg.weights))
                r = reward(hs[-2], hs[-1], cfg.reward_alpha, cfg.reward_beta)
                want += [(fmt(r), fmt(hs[-1]))] * cfg.num_agents
            path = tmp_path / "dumps" / f"{spec.name}_mission{mission:03d}.csv"
            with open(path, newline="") as fh:
                got = [(row["reward"], row["global_entropy"]) for row in csv.DictReader(fh)]
            assert got == want


def test_coverage_results_invariant_to_comm_radius():
    # coverage never plans from comms; the global map fuses every
    # measurement either way, so global metrics match exactly
    import math as _math

    finals = []
    for radius in (0.0, 25.0, _math.inf):
        cfg = cfg_(num_agents=2, budget=6, comm_radius=radius)
        result = run_mission(PlannerSpec("coverage"), cfg, 55, 0)
        finals.append([r.roi_entropy for r in result.records])
    assert finals[0] == finals[1] == finals[2]


def test_dump_maps_artifacts(tmp_path):
    cfg = cfg_(num_agents=2, budget=4)
    run_benchmark(
        [PlannerSpec("random")], 2, 66, cfg, dump_dir=tmp_path / "dumps"
    )
    csvs = sorted((tmp_path / "dumps").glob("random_mission*.csv"))
    pgms = sorted((tmp_path / "dumps").glob("random_mission*_belief.pgm"))
    assert len(csvs) == 2 and len(pgms) == 2
    header = csvs[0].read_text().splitlines()[0]
    assert header == "step,agent,x,y,z,action,reward,global_entropy"
    assert pgms[0].read_bytes().startswith(b"P5\n100 100\n255\n")
