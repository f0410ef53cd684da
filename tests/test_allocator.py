"""Exact orthogonal solver, swarm solver, grid evaluator, and their cross-checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from satiab import (
    Allocation,
    DuplexMode,
    InvalidAllocation,
    PsoConfig,
    ScenarioBatch,
    ScenarioParams,
    SolverKind,
    duplex_factors,
    evaluate,
    evaluate_many,
    grid_oracle,
    grid_oracle_many,
    link_rates,
    pso_solve,
    pso_solve_many,
    run_pso,
    solve_orthogonal,
    solve_orthogonal_many,
    validate,
)
from satiab import allocator

from oracles import (
    corner_scenario,
    full_grid,
    full_grid_oracle,
    golden_section_solve,
    random_feasible_allocation,
    random_scenario,
    reference_scenarios,
)


def make_scenario(**overrides) -> ScenarioParams:
    base = dict(
        total_power=10.0,
        total_bandwidth=40e6,
        overlap_bandwidth=0.0,
        noise_density=3.981071705534973e-21,
        interference_density=3.981071705534973e-21,
        access_weight=0.1,
        duplex=DuplexMode.FDD,
        beta_ue=1.5734726039155016e-12,
        beta_bs=1.3589805953889354e-09,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def brute_force_maxmin(scn: ScenarioParams, res: int = 100) -> float:
    """Exhaustive three-axis search over the feasible box, used as an
    independent check against the swarm under overlapped spectrum."""
    _, alpha_1 = duplex_factors(scn.duplex)
    band_total = alpha_1 * (scn.total_bandwidth + scn.overlap_bandwidth)
    w_lo = alpha_1 * scn.overlap_bandwidth
    w_hi = alpha_1 * scn.total_bandwidth
    p_ue = np.linspace(0.0, scn.total_power, res)[:, None, None]
    w_a = np.linspace(w_lo, w_hi, res)[None, :, None]
    w_b = np.linspace(w_lo, w_hi, res)[None, None, :]
    feasible = w_a + w_b <= band_total * (1.0 + 1e-12)
    rate_a, rate_b = link_rates(scn, p_ue, scn.total_power - p_ue, w_a, w_b)
    maxmin = np.minimum(rate_a / scn.access_weight, rate_b)
    return float(np.where(feasible, maxmin, -np.inf).max())


# ---------------------------------------------------------------- inversion


def test_min_power_zero_rate():
    assert allocator._inversion_power(0.0, 10e6, 1e-12, 1.0, 8e-21) == 0.0


def test_min_power_unit_spectral_efficiency():
    scn = make_scenario()
    bandwidth = 10e6
    dens = scn.noise_density + scn.interference_density
    # one effective bit/s/Hz: 2^1 - 1 = 1, so the power is exactly dens*w/beta
    power = allocator._inversion_power(1.0 * bandwidth, bandwidth, scn.beta_ue, scn.alpha_o, dens)
    assert power == dens * bandwidth / scn.beta_ue


def test_min_power_round_trip():
    scn = make_scenario()
    target = 5e6
    bandwidth = 8e6
    power = allocator._inversion_power(target, bandwidth, scn.beta_ue, scn.alpha_o, scn.density)
    rate = evaluate(scn, Allocation(power, 0.0, bandwidth, 1e6)).rate_access
    assert rate == pytest.approx(target, rel=1e-9)


def test_min_power_overflow_is_infeasible():
    # an overflowing power is +inf, which no power budget can pay
    scn = make_scenario()
    power = allocator._inversion_power(1e12, 1e3, scn.beta_ue, scn.alpha_o, scn.density)
    assert power == math.inf


# ------------------------------------------------------------ exact solver


def test_solve_orthogonal_rejects_overlap():
    with pytest.raises(ValueError):
        solve_orthogonal(make_scenario(overlap_bandwidth=5e6))
    # one overlapped row fails the whole batch
    with pytest.raises(ValueError):
        solve_orthogonal_many([make_scenario(), make_scenario(overlap_bandwidth=5e6)])


def test_solve_orthogonal_symmetric_links():
    beta = 1e-10
    scn = make_scenario(beta_ue=beta, beta_bs=beta, access_weight=1.0)
    result = solve_orthogonal(scn)
    assert result.converged
    alloc = result.allocation
    assert alloc.p_ue == pytest.approx(alloc.p_bs, rel=1e-4)
    assert alloc.w_a == pytest.approx(alloc.w_b, rel=1e-4)
    assert alloc.p_ue == pytest.approx(5.0, rel=1e-4)
    assert alloc.w_a == pytest.approx(10e6, rel=1e-4)


def test_solve_orthogonal_vanishing_access_weight():
    scn = make_scenario(access_weight=1e-9)
    alpha_o, alpha_1 = duplex_factors(scn.duplex)
    w_total = alpha_1 * scn.total_bandwidth
    dens = scn.noise_density + scn.interference_density
    single_link_best = alpha_o * w_total * math.log2(
        1.0 + scn.total_power * scn.beta_bs / (dens * w_total)
    )
    result = solve_orthogonal(scn)
    assert result.report.maxmin_level == pytest.approx(single_link_best, rel=1e-3)
    assert result.allocation.p_bs > 0.99 * scn.total_power


def test_solve_orthogonal_matches_grid():
    scn = make_scenario()
    exact = solve_orthogonal(scn).report.maxmin_level
    grid = grid_oracle(scn, 200).report.maxmin_level
    assert exact >= grid
    assert (exact - grid) / exact <= 0.01


def test_solve_orthogonal_targets_are_tight():
    for _, scn in reference_scenarios():
        result = solve_orthogonal(scn)
        zeta = result.report.maxmin_level
        assert result.report.rate_access / (scn.access_weight * zeta) == pytest.approx(1.0, abs=1e-4)
        assert result.report.rate_backhaul / zeta == pytest.approx(1.0, abs=1e-4)
        spent = result.allocation.p_ue + result.allocation.p_bs
        assert spent == pytest.approx(scn.total_power, rel=1e-6)


def test_solve_orthogonal_monotone_in_power_and_bandwidth():
    scn = make_scenario()
    levels = [
        solve_orthogonal(dataclasses.replace(scn, total_power=p)).report.maxmin_level
        for p in np.linspace(5.0, 100.0, 8)
    ]
    assert all(a <= b + 1e-9 * abs(b) for a, b in zip(levels, levels[1:]))
    levels = [
        solve_orthogonal(dataclasses.replace(scn, total_bandwidth=w)).report.maxmin_level
        for w in np.linspace(10e6, 80e6, 8)
    ]
    assert all(a <= b + 1e-9 * abs(b) for a, b in zip(levels, levels[1:]))


def test_solve_orthogonal_report_is_consistent():
    scn = make_scenario()
    result = solve_orthogonal(scn)
    again = evaluate(scn, result.allocation)
    assert again.maxmin_level == pytest.approx(result.report.maxmin_level, rel=1e-6)
    assert result.solver is SolverKind.EXACT_ORTHOGONAL


def orthogonal_batch():
    rng = np.random.default_rng(2024)
    scns = [scn for _, scn in reference_scenarios()]
    return scns + [random_scenario(rng, orthogonal=True) for _ in range(1000)]


def test_solve_orthogonal_many_matches_golden_section():
    scns = orthogonal_batch()
    for scn, result in zip(scns, solve_orthogonal_many(scns)):
        reference = golden_section_solve(scn)
        assert result.converged and reference.converged
        assert result.report.maxmin_level == pytest.approx(reference.report.maxmin_level, rel=1e-9)
        assert validate(scn, result.allocation) == []


def test_solve_orthogonal_batch_rows_equal_rows_solved_alone():
    scns = orthogonal_batch()[:40]
    batch = solve_orthogonal_many(scns)
    assert batch == [solve_orthogonal(scn) for scn in scns]
    assert solve_orthogonal_many(scns[::-1]) == batch[::-1]
    assert solve_orthogonal_many(scns[5:17:3]) == batch[5:17:3]
    assert solve_orthogonal_many([]) == []


@pytest.mark.parametrize(
    "overrides",
    [{"access_weight": 1e-9}, {"total_power": 1e7}, {"total_bandwidth": 1e6}],
    ids=["eps=1e-9", "P=100dBm", "W=1MHz"],
)
def test_solve_orthogonal_extreme_rows_are_finite_and_feasible(overrides):
    scn = make_scenario(**overrides)
    result = solve_orthogonal(scn)
    assert result.converged
    values = [*dataclasses.astuple(result.allocation), *dataclasses.astuple(result.report)]
    assert all(math.isfinite(v) for v in values)
    assert validate(scn, result.allocation) == []
    reference = golden_section_solve(scn).report.maxmin_level
    assert result.report.maxmin_level == pytest.approx(reference, rel=1e-9)


# ------------------------------------------------------------- grid oracle


def test_grid_oracle_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        grid_oracle(make_scenario(), 9)
    for scns in ([], [make_scenario()] * 3):
        with pytest.raises(ValueError):
            grid_oracle_many(scns, 9)


def test_grid_oracle_refinement_is_monotone():
    # 10-point and 100-point inclusive grids nest (99 intervals = 11 * 9)
    scn = make_scenario()
    coarse = grid_oracle(scn, 10).report.maxmin_level
    fine = grid_oracle(scn, 100).report.maxmin_level
    assert fine >= coarse - 1e-12
    rng = np.random.default_rng(23)
    for _ in range(5):
        scn = random_scenario(rng)
        coarse = grid_oracle(scn, 10).report.maxmin_level
        fine = grid_oracle(scn, 100).report.maxmin_level
        assert fine >= coarse - 1e-12


def test_grid_oracle_symmetric_midpoint():
    beta = 1e-10
    scn = make_scenario(beta_ue=beta, beta_bs=beta, access_weight=1.0)
    res = 101  # odd keeps the exact midpoint on the grid
    result = grid_oracle(scn, res)
    p_cell = scn.total_power / (res - 1)
    _, alpha_1 = duplex_factors(scn.duplex)
    w_cell = alpha_1 * scn.total_bandwidth / (res - 1)
    assert abs(result.allocation.p_ue - 5.0) <= p_cell
    assert abs(result.allocation.w_a - 10e6) <= w_cell


def test_grid_oracle_never_beats_exact():
    rng = np.random.default_rng(29)
    for _ in range(50):
        scn = random_scenario(rng, orthogonal=True)
        exact = solve_orthogonal(scn).report.maxmin_level
        grid = grid_oracle(scn, 40).report.maxmin_level
        assert grid <= exact + 1e-9 * max(exact, 1.0)


def test_grid_oracle_equals_the_full_grid():
    # 333 and 1000 rows are not multiples of a chunk's scenario count
    rng = np.random.default_rng(53)
    for resolution, draws in ((10, 4), (37, 4), (333, 3), (1000, 1), (2000, 1)):
        scns = []
        for orthogonal in (True, False):
            for _ in range(draws):
                scn = random_scenario(rng, orthogonal=orthogonal)
                while not orthogonal and scn.overlap_bandwidth == 0.0:
                    scn = random_scenario(rng)
                scns.append(scn)
        reference = [full_grid_oracle(scn, resolution) for scn in scns]
        # allocation and report, with every float exactly equal
        assert grid_oracle(scns[0], resolution) == reference[0]
        assert grid_oracle_many(scns, resolution) == reference


def test_grid_oracle_equals_the_full_grid_at_config_corners():
    rng = np.random.default_rng(67)
    scns = [corner_scenario(rng) for _ in range(120)]
    for resolution in (10, 37):
        reference = [full_grid_oracle(scn, resolution) for scn in scns]
        assert grid_oracle_many(scns, resolution) == reference
    # the corners include grids that are 0 throughout and grids that are not
    levels = [result.report.maxmin_level for result in reference]
    assert 0.0 in levels and max(levels) > 0.0


def test_grid_oracle_zero_columns_of_orthogonal_grids():
    # w_a = 0 in the first column and w_b = 0 in the last: both are 0 throughout
    rng = np.random.default_rng(71)
    for scn in [make_scenario()] + [random_scenario(rng, orthogonal=True) for _ in range(4)]:
        for resolution in (10, 37):
            *_, grid = full_grid(scn, resolution)
            assert not grid[:, 0].any() and not grid[:, -1].any() and grid.max() > 0.0
            assert grid_oracle(scn, resolution) == full_grid_oracle(scn, resolution)


def test_grid_oracle_grid_maximum_zero():
    # every rate rounds to 0, so the first grid point is the first maximum
    for overlap in (0.0, 20e6, 40e6):
        scn = make_scenario(total_power=1e-30, overlap_bandwidth=overlap)
        *_, grid = full_grid(scn, 20)
        assert not grid.any()
        result = grid_oracle(scn, 20)
        assert result == full_grid_oracle(scn, 20)
        assert (result.allocation.p_ue, result.report.maxmin_level) == (0.0, 0.0)


def test_grid_oracle_plateau_below_the_crossing():
    # an access SINR of a few ulps: log2(1 + sinr) moves in flat steps, so
    # down the best column the access rate reaches its last value before
    # the crossing some rows early, and the first of those rows is the maximum
    scn = make_scenario(beta_ue=10.0**-30.8, access_weight=1.0)
    *_, grid = full_grid(scn, 20)
    i, j = divmod(int(np.argmax(grid)), 20)
    assert grid[i, j] > 0.0 and grid[i + 1, j] == grid[i, j] and grid[i + 2, j] == grid[i, j]
    assert grid_oracle(scn, 20) == full_grid_oracle(scn, 20)


def test_grid_oracle_tie_at_the_crossing():
    # full overlap makes every column the same; with equal gains, eps = 1
    # and p_ue = 0, 1, ..., 9 W, the access rate in row 4 (4 W against 5 W)
    # equals the backhaul rate in row 5 (4 W against 5 W) exactly, and the
    # first of the two rows wins
    beta = 1e-10
    scn = make_scenario(total_power=9.0, overlap_bandwidth=40e6, beta_ue=beta, beta_bs=beta,
                        access_weight=1.0)
    *_, grid = full_grid(scn, 10)
    assert grid[4, 0] == grid[5, 0] == grid.max()
    result = grid_oracle(scn, 10)
    assert result == full_grid_oracle(scn, 10)
    assert (result.allocation.p_ue, result.allocation.w_a) == (4.0, 20e6)


def test_grid_oracle_batch_rows_equal_rows_solved_alone():
    rng = np.random.default_rng(73)
    scns = [random_scenario(rng) for _ in range(8)] + [corner_scenario(rng) for _ in range(8)]
    batch = grid_oracle_many(scns, 37)
    assert batch == [grid_oracle(scn, 37) for scn in scns]
    assert grid_oracle_many(scns[::-1], 37) == batch[::-1]
    assert grid_oracle_many(scns[3:14:2], 37) == batch[3:14:2]
    assert grid_oracle_many([], 37) == []


def test_grid_oracle_blocks_of_any_size_equal_the_full_grid(monkeypatch):
    rng = np.random.default_rng(59)
    scns = [random_scenario(rng, orthogonal=True), random_scenario(rng), make_scenario(),
            corner_scenario(rng), random_scenario(rng)]
    whole = grid_oracle_many(scns, 37)
    assert whole == [full_grid_oracle(scn, 37) for scn in scns]
    # 1, 1, 2, 3, 37 and 27,027 scenarios a chunk: one each, uneven tails, one chunk
    for block in (1, 37, 74, 111, 37 * 37, 10**6):
        monkeypatch.setattr(allocator, "_GRID_BLOCK", block)
        assert grid_oracle_many(scns, 37) == whole


def test_grid_oracle_ties_go_to_the_first_point(monkeypatch):
    # a flat grid: every point ties, so np.argmax over the whole grid picks
    # the first, and so must the search, in every chunk
    def flat_rates(scn, p_ue, p_bs, w_a, w_b):
        ones = np.ones(np.broadcast_shapes(np.shape(p_ue), np.shape(w_a)))
        return ones, ones

    monkeypatch.setattr(allocator, "link_rates", flat_rates)
    monkeypatch.setattr(allocator, "_GRID_BLOCK", 40)
    for result in grid_oracle_many([make_scenario()] * 3, 20):
        assert (result.allocation.p_ue, result.allocation.w_a) == (0.0, 0.0)


def test_grid_oracle_memory_is_bounded():
    # the whole 2000 x 2000 grid at once peaks near 187 MiB
    scn = make_scenario(overlap_bandwidth=10e6)
    tracemalloc.start()
    try:
        grid_oracle(scn, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_grid_oracle_batch_memory_is_bounded():
    # a power sweep's 44 scenarios at 1000 x 1000: one kernel call on all of
    # them at once peaks near 7.3 MiB, and chunks of 4,096 columns near 0.7 MiB
    rng = np.random.default_rng(61)
    scns = [random_scenario(rng) for _ in range(44)]
    tracemalloc.start()
    try:
        grid_oracle_many(scns, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# -------------------------------------------------------------------- PSO


def test_pso_matches_exact_without_overlap():
    scn = make_scenario()
    exact = solve_orthogonal(scn).report.maxmin_level
    swarm = pso_solve(scn, PsoConfig(rng_seed=42)).report.maxmin_level
    assert abs(exact - swarm) / exact <= 0.02


def test_pso_matches_brute_force_under_full_overlap():
    scn = make_scenario(overlap_bandwidth=40e6)
    reference = brute_force_maxmin(scn, 100)
    swarm = pso_solve(scn, PsoConfig(rng_seed=3)).report.maxmin_level
    assert abs(swarm - reference) / reference <= 0.02
    # the finer two-axis grid should agree more closely
    fine = grid_oracle(scn, 200).report.maxmin_level
    assert abs(swarm - fine) / fine <= 0.02


def test_pso_matches_brute_force_under_half_overlap():
    scn = make_scenario(overlap_bandwidth=20e6)
    reference = brute_force_maxmin(scn, 100)
    swarm = pso_solve(scn, PsoConfig(rng_seed=3)).report.maxmin_level
    assert abs(swarm - reference) / reference <= 0.02


def test_pso_single_point_population_is_stationary():
    scn = make_scenario()
    n = 6
    point = np.array([4.0, 6.0, 8e6, 12e6])
    population = np.tile(point, (n, 1))
    cfg = PsoConfig(population_size=n, max_iterations=30, inertia_weight=0.0, rng_seed=0)
    state = run_pso([scn], cfg, initial_population=population[None])
    expected = evaluate(scn, Allocation(*point)).fitness
    assert state.best_history[0, -1] == pytest.approx(expected, rel=1e-12)
    assert np.allclose(state.population[0], np.tile(point, (n, 1)))


def test_pso_is_deterministic_per_seed():
    scn = make_scenario()
    first = pso_solve(scn, PsoConfig(rng_seed=11))
    second = pso_solve(scn, PsoConfig(rng_seed=11))
    assert first.allocation == second.allocation
    assert first.report == second.report
    third = pso_solve(scn, PsoConfig(rng_seed=12))
    assert third.allocation != first.allocation


def test_pso_seed_spread_is_small():
    scn = make_scenario()
    levels = [
        pso_solve(scn, PsoConfig(rng_seed=seed)).report.maxmin_level for seed in range(20)
    ]
    assert (max(levels) - min(levels)) / max(levels) <= 0.05


def test_pso_best_history_is_nondecreasing():
    scn = make_scenario(overlap_bandwidth=8e6)
    state = run_pso([scn], PsoConfig(population_size=20, max_iterations=60, rng_seed=5))
    assert np.all(np.diff(state.best_history[0]) >= 0.0)


def test_pso_work_counters():
    scn = make_scenario()
    cfg = PsoConfig(population_size=14, max_iterations=37, rng_seed=2)
    state = run_pso([scn], cfg)
    assert state.best_history.shape == (1, cfg.max_iterations)
    # the last running best is the fitness of the best particle
    best = evaluate(scn, Allocation(*state.best_particle[0].tolist())).fitness
    assert state.best_history[0, -1] == pytest.approx(best, rel=1e-12)


def test_pso_final_population_is_feasible():
    scn = make_scenario(overlap_bandwidth=12e6)
    state = run_pso([scn], PsoConfig(population_size=16, max_iterations=40, rng_seed=8))
    for row in state.population[0]:
        assert validate(scn, Allocation(*(float(v) for v in row)), tol=1e-6) == []


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(population_size=2)
    with pytest.raises(ValueError):
        PsoConfig(max_iterations=0)
    with pytest.raises(ValueError):
        PsoConfig(learning_factor_1=0.0)
    with pytest.raises(ValueError):
        PsoConfig(inertia_weight=-0.1)


def mixed_batch() -> list[ScenarioParams]:
    """Eight rows mixing duplex modes, overlap zero and nonzero, and three
    access weights."""
    return [
        make_scenario(duplex=duplex, overlap_bandwidth=overlap, access_weight=eps)
        for duplex, overlap, eps in (
            (DuplexMode.FDD, 0.0, 0.05),
            (DuplexMode.TDD, 0.0, 0.1),
            (DuplexMode.FDD, 12e6, 0.2),
            (DuplexMode.TDD, 40e6, 0.05),
            (DuplexMode.FDD, 40e6, 0.1),
            (DuplexMode.TDD, 4e6, 0.2),
            (DuplexMode.FDD, 0.0, 0.2),
            (DuplexMode.TDD, 20e6, 0.1),
        )
    ]


def assert_rows_match_alone(scns, cfg, seeds, batch, initial=None):
    for s, (scn, seed) in enumerate(zip(scns, seeds)):
        alone = run_pso(
            [scn],
            dataclasses.replace(cfg, rng_seed=seed),
            initial_population=None if initial is None else initial[s:s + 1],
        )
        assert np.array_equal(batch.best_particle[s], alone.best_particle[0])
        assert np.array_equal(batch.best_history[s], alone.best_history[0])
        assert np.array_equal(batch.population[s], alone.population[0])
        assert np.array_equal(batch.velocity[s], alone.velocity[0])


def test_pso_batch_rows_equal_swarms_run_alone():
    scns = mixed_batch()
    cfg = PsoConfig(population_size=12, max_iterations=40)
    seeds = [7 * s + 3 for s in range(len(scns))]
    batch = run_pso(scns, cfg, seeds=seeds)
    assert batch.population.shape == (len(scns), 12, 4)
    assert_rows_match_alone(scns, cfg, seeds, batch)
    # the row results do not depend on the batch's size or order
    tail = run_pso(scns[:2:-1], cfg, seeds=seeds[:2:-1])
    assert np.array_equal(tail.best_history, batch.best_history[:2:-1])
    solved = pso_solve_many(scns, cfg, seeds)
    for scn, seed, result in zip(scns, seeds, solved):
        assert result == pso_solve(scn, dataclasses.replace(cfg, rng_seed=seed))


def test_pso_redraw_in_one_row_leaves_other_rows_unchanged():
    scns = mixed_batch()
    cfg = PsoConfig(population_size=10, max_iterations=25)
    seeds = list(range(100, 100 + len(scns)))
    draw = np.random.default_rng(17).random((len(scns), 10, 4))
    initial = draw * np.array([10.0, 10.0, 20e6, 20e6])
    degenerate = initial.copy()
    degenerate[3, 4, 0:2] = 0.0  # an all-zero power pair must be redrawn
    plain = run_pso(scns, cfg, initial_population=initial, seeds=seeds)
    redrawn = run_pso(scns, cfg, initial_population=degenerate, seeds=seeds)
    others = [s for s in range(len(scns)) if s != 3]
    assert np.array_equal(plain.population[others], redrawn.population[others])
    assert np.array_equal(plain.best_history[others], redrawn.best_history[others])
    # the redraw consumed row 3's stream, so its swarm took another path
    assert not np.array_equal(plain.population[3], redrawn.population[3])
    assert_rows_match_alone(scns, cfg, seeds, redrawn, initial=degenerate)


def test_batch_reports_equal_evaluate():
    # every batch solver reports its rows through one evaluate_many call
    scns = mixed_batch()
    results = pso_solve_many(scns, PsoConfig(population_size=8, max_iterations=10), range(len(scns)))
    orthogonal = [scn for scn in scns if scn.overlap_bandwidth == 0.0]
    results += solve_orthogonal_many(orthogonal)
    results += grid_oracle_many(scns, 12)
    for scn, result in zip(scns + orthogonal + scns, results):
        assert result.report == evaluate(scn, result.allocation)
    # every row of evaluate_many equals evaluate, except that a zero bandwidth
    # under overlap gets the zero rates of link_rates where evaluate raises
    rng = np.random.default_rng(71)
    scns = [random_scenario(rng) for _ in range(300)] + mixed_batch()
    alloc = np.array([random_feasible_allocation(rng, scn) for scn in scns])
    alloc[-1, 2] = 0.0  # the last scenario of mixed_batch overlaps
    reports = evaluate_many(ScenarioBatch.stack(scns), alloc)
    assert len(reports) == len(scns)
    for scn, row, report in zip(scns[:-1], alloc.tolist(), reports):
        assert report == evaluate(scn, Allocation(*row))
    with pytest.raises(InvalidAllocation):
        evaluate(scns[-1], Allocation(*alloc[-1].tolist()))
    assert (reports[-1].rate_access, reports[-1].rate_backhaul) == (0.0, 0.0)
    assert evaluate_many(ScenarioBatch.stack([]), np.empty((0, 4))) == []


def test_pso_batch_rejects_mismatched_inputs():
    scns = mixed_batch()[:3]
    cfg = PsoConfig(population_size=5, max_iterations=2)
    with pytest.raises(ValueError, match="seeds"):
        run_pso(scns, cfg, seeds=[1, 2])
    with pytest.raises(ValueError, match="shape"):
        run_pso(scns, cfg, initial_population=np.ones((5, 4)))
    with pytest.raises(ValueError, match="seeds"):
        pso_solve_many(scns, cfg, [1, 2, 3, 4])
    assert pso_solve_many([], cfg, []) == []


def test_pso_solve_many_chunks_equal_one_batch(monkeypatch):
    scns = mixed_batch()
    cfg = PsoConfig(population_size=6, max_iterations=15)
    seeds = [11 * s + 1 for s in range(len(scns))]
    whole = pso_solve_many(scns, cfg, seeds)
    # 1, 1, 2, 3, 5 and 8 rows a chunk: one row each, uneven tails, one chunk
    for cap in (1, 6, 12, 18, 30, 48):
        monkeypatch.setattr(allocator, "_SWARM_PARTICLES", cap)
        assert pso_solve_many(scns, cfg, seeds) == whole


# --------------------------------------------------- cross-solver invariants


def test_all_solvers_return_feasible_allocations():
    rng = np.random.default_rng(31)
    small = PsoConfig(population_size=8, max_iterations=25, rng_seed=1)
    for _ in range(50):
        scn = random_scenario(rng)
        results = [grid_oracle(scn, 20), pso_solve(scn, small)]
        if scn.overlap_bandwidth == 0.0:
            results.append(solve_orthogonal(scn))
        for result in results:
            assert validate(scn, result.allocation, tol=1e-6) == []
            again = evaluate(scn, result.allocation)
            assert again.maxmin_level == pytest.approx(
                result.report.maxmin_level, rel=1e-9, abs=1e-9
            )
