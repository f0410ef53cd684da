"""Exact orthogonal solver, swarm solver, grid evaluator, and their cross-checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from satiab import (
    CONSTRAINTS,
    PsoConfig,
    ScenarioBatch,
    bandwidth_limits,
    evaluate_many,
    grid_oracle_many,
    link_rates,
    pso_solve_many,
    rate_kernel,
    run_pso,
    solve_orthogonal_many,
    validate_many,
)
from satiab import allocator, expcli
from satiab.allocator import grid_oracle, pso_solve, solve_orthogonal
from satiab.ratemodel import _SLACK, evaluate, validate

from oracles import (
    corner_scenario,
    full_grid,
    full_grid_oracle,
    golden_section_solve,
    hertz_per_unit,
    level,
    make_scenario,
    mp_log_marginal_cost,
    mp_orthogonal_level,
    random_feasible_allocation,
    random_scenario,
    reference_run_pso,
    reference_scenarios,
    reference_evaluate,
    reference_solve_orthogonal_many,
    reference_validate,
    scalars,
    solved_rows,
    stack,
)


def brute_force_maxmin(batch: ScenarioBatch, res: int = 100) -> float:
    """Exhaustive three-axis search over the feasible box, used as an
    independent check against the swarm under overlapped spectrum."""
    scn = scalars(batch)
    band_total = scn.total_bandwidth + scn.overlap_bandwidth
    w_lo = scn.overlap_bandwidth
    w_hi = scn.total_bandwidth
    # power rows against the (w_a, w_b) grid, flattened into columns
    p_ue = np.linspace(0.0, scn.total_power, res)[:, None]
    w_axis = np.linspace(w_lo, w_hi, res)
    w_a, w_b = np.repeat(w_axis, res)[None, :], np.tile(w_axis, res)[None, :]
    feasible = w_a + w_b <= band_total * (1.0 + 1e-12)
    rate_a, rate_b = link_rates(batch, np.stack((p_ue, scn.total_power - p_ue)), np.stack((w_a, w_b)))
    maxmin = np.minimum(rate_a / scn.access_weight, rate_b)
    return float(np.where(feasible, maxmin, -np.inf).max())


def swarm_fitness(scn: ScenarioBatch, alloc) -> float:
    """The swarm's score min(rate_a, eps rate_b) of the four numbers alloc under scn."""
    _, rate_a, rate_b, _ = evaluate(scn, alloc)
    return min(rate_a, scn.access_weight.item() * rate_b)


# ---------------------------------------------------------------- inversion


def test_min_power_zero_rate():
    assert allocator._inversion_power(0.0, 10e6, 1e-12 / 8e-21) == 0.0


def test_min_power_unit_spectral_efficiency():
    scn = scalars(make_scenario())
    bandwidth = 10e6
    # one bit/s per airtime hertz: 2^1 - 1 = 1, so the power is exactly w/gain
    power = allocator._inversion_power(bandwidth, bandwidth, scn.gain_ue)
    assert power == bandwidth / scn.gain_ue


def test_min_power_round_trip():
    batch = make_scenario()
    scn = scalars(batch)
    target = 5e6
    bandwidth = 8e6
    power = allocator._inversion_power(target, bandwidth, scn.gain_ue)
    rate = evaluate(batch, (power, 0.0, bandwidth, 1e6))[1]
    assert rate == pytest.approx(target, rel=1e-9)


def test_min_power_overflow_is_infeasible():
    # an overflowing power is +inf, which no power budget can pay
    scn = scalars(make_scenario())
    power = allocator._inversion_power(1e12, 1e3, scn.gain_ue)
    assert power == math.inf


# ------------------------------------------------------------ exact solver


def test_solve_orthogonal_rejects_overlap():
    with pytest.raises(ValueError):
        solve_orthogonal(make_scenario(overlap_bandwidth=5e6))
    # one overlapped row fails the whole batch
    with pytest.raises(ValueError):
        solve_orthogonal_many(stack([make_scenario(), make_scenario(overlap_bandwidth=5e6)]))


def test_solve_orthogonal_symmetric_links():
    beta = 1e-10
    scn = make_scenario(beta_ue=beta, beta_bs=beta, access_weight=1.0)
    (p_ue, p_bs, w_a, w_b), _, converged = solve_orthogonal(scn)
    assert converged
    assert p_ue == pytest.approx(p_bs, rel=1e-4)
    assert w_a == pytest.approx(w_b, rel=1e-4)
    assert p_ue == pytest.approx(5.0, rel=1e-4)
    assert w_a * hertz_per_unit("FDD") == pytest.approx(20e6, rel=1e-4)


def test_solve_orthogonal_vanishing_access_weight():
    batch = make_scenario(access_weight=1e-9)
    scn = scalars(batch)
    w_total = scn.total_bandwidth
    single_link_best = w_total * math.log2(
        1.0 + scn.total_power * scn.gain_bs / w_total
    )
    result = solve_orthogonal(batch)
    assert level(batch, result) == pytest.approx(single_link_best, rel=1e-3)
    assert result[0][1] > 0.99 * scn.total_power  # p_bs


def test_solve_orthogonal_matches_grid():
    scn = make_scenario()
    exact = level(scn, solve_orthogonal(scn))
    grid = level(scn, grid_oracle(scn, 200))
    assert exact >= grid
    assert (exact - grid) / exact <= 0.01


def test_solve_orthogonal_targets_are_tight():
    for _, batch in reference_scenarios():
        alloc, _, _ = solve_orthogonal(batch)
        scn = scalars(batch)
        zeta, rate_a, rate_b, _ = evaluate(batch, alloc)
        assert rate_a / (scn.access_weight * zeta) == pytest.approx(1.0, abs=1e-4)
        assert rate_b / zeta == pytest.approx(1.0, abs=1e-4)
        spent = alloc[0] + alloc[1]
        assert spent == pytest.approx(scn.total_power, rel=1e-6)


def test_solve_orthogonal_monotone_in_power_and_bandwidth():
    scns = [make_scenario(total_power=p) for p in np.linspace(5.0, 100.0, 8)]
    levels = [level(scn, solve_orthogonal(scn)) for scn in scns]
    assert all(a <= b + 1e-9 * abs(b) for a, b in zip(levels, levels[1:]))
    scns = [make_scenario(total_bandwidth=w) for w in np.linspace(10e6, 80e6, 8)]
    levels = [level(scn, solve_orthogonal(scn)) for scn in scns]
    assert all(a <= b + 1e-9 * abs(b) for a, b in zip(levels, levels[1:]))


def test_solve_orthogonal_report_is_consistent():
    # the view's allocation is the batch row's, and evaluate reports its level
    scn = make_scenario()
    result = solve_orthogonal(scn)
    assert result[0] == tuple(solve_orthogonal_many(scn)[0][0].tolist())
    assert evaluate(scn, result[0])[0] == pytest.approx(level(scn, result), rel=1e-6)


def orthogonal_batch():
    rng = np.random.default_rng(2024)
    scns = [scn for _, scn in reference_scenarios()]
    return scns + [random_scenario(rng, orthogonal=True) for _ in range(1000)]


def test_solve_orthogonal_many_matches_golden_section():
    scns = orthogonal_batch()
    for scn, result in zip(scns, solved_rows(solve_orthogonal_many, scns)):
        reference = golden_section_solve(scn)
        assert result[2] and reference[2]  # converged
        assert level(scn, result) == pytest.approx(level(scn, reference), rel=1e-9)
        assert validate(scn, result[0]) == []


def test_solve_orthogonal_batch_rows_equal_rows_solved_alone():
    scns = orthogonal_batch()[:40]
    batch = solved_rows(solve_orthogonal_many, scns)
    assert batch == [solve_orthogonal(scn) for scn in scns]
    assert solved_rows(solve_orthogonal_many, scns[::-1]) == batch[::-1]
    assert solved_rows(solve_orthogonal_many, scns[5:17:3]) == batch[5:17:3]
    assert solved_rows(solve_orthogonal_many, []) == []


@pytest.mark.parametrize(
    "overrides",
    [{"access_weight": 1e-9}, {"total_power": 1e7}, {"total_bandwidth": 1e6},
     {"total_power": 1e250, "beta_ue": 1.0, "beta_bs": 1.0}],
    ids=["eps=1e-9", "P=100dBm", "W=1MHz", "P=1e250W"],
)
def test_solve_orthogonal_extreme_rows_are_finite_and_feasible(overrides):
    scn = make_scenario(**overrides)
    result = alloc, _, converged = solve_orthogonal(scn)
    assert converged
    assert all(math.isfinite(v) for v in (*alloc, *evaluate(scn, alloc)))
    assert validate(scn, alloc) == []
    # P=1e250W: near the optimum 2**x overflows, so the golden section
    # compares log powers; the 40-digit level starts from its solution
    reference = level(scn, golden_section_solve(scn))
    assert level(scn, result) == pytest.approx(reference, rel=1e-9)
    assert level(scn, result) == pytest.approx(float(mp_orthogonal_level(scn)[0]), rel=1e-9)


@pytest.mark.parametrize(
    "overrides",
    [{"total_power": 1e250, "beta_ue": 1.0, "beta_bs": 1.0}, {"beta_ue": 1e-40, "beta_bs": 1e30}],
    ids=["P=1e250W", "beta_bs/beta_ue=1e70"],
)
def test_solve_orthogonal_far_outside_the_config_ranges(overrides):
    # the first: the cheapest power at the first levels overflows to inf;
    # the second: the best access share rounds to 1, leaving the backhaul none
    scn = make_scenario(**overrides)
    alloc, iterations, converged = solve_orthogonal(scn)
    assert converged and iterations <= 12
    assert all(math.isfinite(v) for v in (*alloc, *evaluate(scn, alloc)))
    assert validate(scn, alloc) == []
    assert alloc[0] + alloc[1] <= scn.total_power


@pytest.mark.parametrize("y", [
    1e-12, 1e-8, 1e-4,
    np.nextafter(allocator._SERIES_Y, 0.0), allocator._SERIES_Y, 1.01 * allocator._SERIES_Y,
    1.0, 30.0, 700.0,
])
def test_log_marginal_cost_matches_mpmath(y):
    log_h, slope = allocator._log_marginal_cost(np.array([y]))
    want_log_h, want_slope = map(float, mp_log_marginal_cost(y))
    # log h within 1e-13 of its value puts h within 1e-13 of it, relative
    # (log h(1) is 0, so its own relative error means nothing there)
    assert abs(log_h[0] - want_log_h) <= 1e-13 * max(1.0, abs(want_log_h))
    assert slope[0] == pytest.approx(want_slope, rel=1e-13, abs=0.0)


def test_log_marginal_cost_of_huge_and_tiny_y_does_not_overflow():
    # mixed in one array, so that the series runs beside inf; the suite
    # turns any floating-point warning into an error
    log_h, slope = allocator._log_marginal_cost(np.array([np.inf, 1e300, 1e-12, 1e-300]))
    assert log_h[0] == np.inf and log_h[1] == 1e300 and np.isfinite(log_h[2:]).all()
    assert slope.tolist()[:2] == [1.0, 1.0] and (slope[2:] > 1e12).all()


def test_solve_orthogonal_matches_mpmath_on_reference_scenarios():
    scns = [scn for _, scn in reference_scenarios()]
    for scn, result in zip(scns, solved_rows(solve_orthogonal_many, scns)):
        zeta, _ = mp_orthogonal_level(scn)
        assert level(scn, result) == pytest.approx(float(zeta), rel=1e-11)


# (seed, index) of orthogonal corner draws: the index-th scenario without
# overlap among 200 corner_scenario draws from default_rng(seed). The first
# four are the worst the bisection solver met, off by 1.7e-7 to 6.6e-7.
CORNER_DRAWS = [(12, 12), (28, 0), (42, 33), (41, 58), (44, 38), (4, 10), (0, 0), (0, 36)]


def orthogonal_corner(seed: int, index: int) -> ScenarioBatch:
    rng = np.random.default_rng(seed)
    scns = (corner_scenario(rng) for _ in range(200))
    return [scn for scn in scns if scn.overlap_bandwidth == 0.0][index]


def test_solve_orthogonal_matches_mpmath_at_config_corners():
    scns = [orthogonal_corner(*draw) for draw in CORNER_DRAWS]
    for scn, result in zip(scns, solved_rows(solve_orthogonal_many, scns)):
        zeta, y_min = mp_orthogonal_level(scn)
        # y reaches 1e-6 here, where rounding 1 + sinr would cost about 1e-7 of the level
        assert y_min >= 1e-6
        assert level(scn, result) == pytest.approx(float(zeta), rel=1e-12)


def test_solve_orthogonal_matches_mpmath_at_a_low_snr_sweep_point():
    # the 33.2 dBm, TDD, 1,200 km point of a power sweep under an
    # interference density of -50.375 dBm/Hz: y is about 3e-12 there, where
    # log2(1 + sinr) left the level 2.8e-5 low
    cfg = expcli.ExperimentConfig(access_weight=0.0625, boresight_bs_deg=0.0625,
                                  interference_density_dbm_hz=-50.375)
    scn = expcli.build_scenarios(cfg, [(30.0 + 2 * 1.6, 0.0, "TDD", 1200.0, 0.0625)])
    zeta, y_min = mp_orthogonal_level(scn)
    assert y_min < 1e-11
    alloc, _, converged = solve_orthogonal_many(scn)
    assert converged.all()
    assert evaluate_many(scn, alloc)[0, 0] == pytest.approx(float(zeta), rel=1e-12)


def test_solve_orthogonal_takes_few_steps(monkeypatch):
    # the 1,204 scenarios of a power sweep over 30-60 dBm by 0.1 dB, as the
    # sweep solves them, then the 12 reference and 1,000 random scenarios;
    # bisection took 44 steps, so a silent fallback to it shows here
    iterations, converged = [], []

    def solve(batch):
        solved = solve_orthogonal_many(batch)
        iterations.extend(solved[1].tolist())
        converged.extend(solved[2].tolist())
        return solved

    monkeypatch.setattr(expcli, "solve_orthogonal_many", solve)
    cfg = dataclasses.replace(expcli.ExperimentConfig(), solvers=["exact"], power_sweep_min_dbm=30.0,
                              power_sweep_max_dbm=60.0, power_sweep_step_db=0.1)
    expcli.run_power_sweep(cfg)
    assert len(iterations) == 1204
    solve(stack(orthogonal_batch()))
    assert all(converged)
    assert max(iterations) <= 12


def test_solve_orthogonal_spends_at_most_the_power_budget():
    scns = orthogonal_batch() + [orthogonal_corner(*draw) for draw in CORNER_DRAWS]
    for scn, ((p_ue, p_bs, _, _), _, _) in zip(scns, solved_rows(solve_orthogonal_many, scns)):
        assert p_ue + p_bs <= scn.total_power


def test_solve_orthogonal_many_equals_the_column_reference(monkeypatch):
    # the sweep's 1,204 scenarios of 30-60 dBm by 0.1 dB, as it solves them,
    # then the 1,012 scenarios of orthogonal_batch, the orthogonal corners of
    # 400 draws, one-row batches and the empty batch
    batches = []

    def solve(batch):
        batches.append(batch)
        return solve_orthogonal_many(batch)

    monkeypatch.setattr(expcli, "solve_orthogonal_many", solve)
    cfg = dataclasses.replace(expcli.ExperimentConfig(), solvers=["exact"], power_sweep_min_dbm=30.0,
                              power_sweep_max_dbm=60.0, power_sweep_step_db=0.1)
    expcli.run_power_sweep(cfg)
    assert len(batches[0]) == 1204
    rng = np.random.default_rng(19)
    corners = [scn for scn in (corner_scenario(rng) for _ in range(400)) if scn.overlap_bandwidth == 0.0]
    scns = orthogonal_batch()
    batches += [stack(scns), stack(corners), stack([])]
    batches += scns[:12] + scns[-3:] + corners[:3]
    for batch in batches:
        got, want = solve_orthogonal_many(batch), reference_solve_orthogonal_many(batch)
        for x, y in zip(got, want):
            assert (x.shape, x.dtype, x.flags.c_contiguous) == (y.shape, y.dtype, True)
            assert np.array_equal(x, y)


# ------------------------------------------------------------- grid oracle


def test_grid_oracle_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        grid_oracle(make_scenario(), 9)
    for scns in ([], [make_scenario()] * 3):
        with pytest.raises(ValueError):
            grid_oracle_many(stack(scns), 9)


def test_grid_oracle_takes_an_integer_resolution():
    # a NumPy integer is the integer; a float is refused where it enters
    rng = np.random.default_rng(37)
    batch = stack([random_scenario(rng) for _ in range(5)])
    for got, want in zip(grid_oracle_many(batch, np.int64(37)), grid_oracle_many(batch, 37)):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(TypeError):
        grid_oracle_many(batch, 37.0)


def test_grid_oracle_refinement_is_monotone():
    # 10-point and 100-point inclusive grids nest (99 intervals = 11 * 9)
    scn = make_scenario()
    coarse = level(scn, grid_oracle(scn, 10))
    fine = level(scn, grid_oracle(scn, 100))
    assert fine >= coarse - 1e-12
    rng = np.random.default_rng(23)
    for _ in range(5):
        scn = random_scenario(rng)
        coarse = level(scn, grid_oracle(scn, 10))
        fine = level(scn, grid_oracle(scn, 100))
        assert fine >= coarse - 1e-12


def test_grid_oracle_symmetric_midpoint():
    beta = 1e-10
    scn = make_scenario(beta_ue=beta, beta_bs=beta, access_weight=1.0)
    res = 101  # odd keeps the exact midpoint on the grid
    (p_ue, _, w_a, _), _, _ = grid_oracle(scn, res)
    scn = scalars(scn)
    p_cell = scn.total_power / (res - 1)
    w_cell = scn.total_bandwidth / (res - 1)
    hertz = hertz_per_unit("FDD")
    assert abs(p_ue - 5.0) <= p_cell
    assert abs(w_a * hertz - 20e6) <= w_cell * hertz


def test_grid_oracle_never_beats_exact():
    rng = np.random.default_rng(29)
    for _ in range(50):
        scn = random_scenario(rng, orthogonal=True)
        exact = level(scn, solve_orthogonal(scn))
        grid = level(scn, grid_oracle(scn, 40))
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
        # allocation, iterations and flag, with every float exactly equal
        assert grid_oracle(scns[0], resolution) == reference[0]
        assert solved_rows(grid_oracle_many, scns, resolution) == reference


def test_grid_oracle_equals_the_full_grid_at_config_corners():
    rng = np.random.default_rng(67)
    scns = [corner_scenario(rng) for _ in range(120)]
    # 200 rows is the default resolution: no access-rate plateau moves a point there
    for resolution in (10, 37, 200):
        reference = [full_grid_oracle(scn, resolution) for scn in scns]
        assert solved_rows(grid_oracle_many, scns, resolution) == reference
    # the corners include levels so small that log2(1 + SINR) would round
    # them to 0, which log1p keeps positive, and levels of ordinary links
    levels = [level(scn, result) for scn, result in zip(scns, reference)]
    assert 0.0 < min(levels) < 1e-30 and max(levels) > 1e6
    # the library's evaluate gives the reference's report bit for bit there
    for scn, (alloc, _, _) in zip(scns, reference):
        assert evaluate(scn, alloc) == reference_evaluate(scn, *alloc)


def test_grid_oracle_zero_columns_of_orthogonal_grids():
    # w_a = 0 in the first column and w_b = 0 in the last: both are 0 throughout
    rng = np.random.default_rng(71)
    for scn in [make_scenario()] + [random_scenario(rng, orthogonal=True) for _ in range(4)]:
        for resolution in (10, 37):
            *_, grid = full_grid(scn, resolution)
            assert not grid[:, 0].any() and not grid[:, -1].any() and grid.max() > 0.0
            assert grid_oracle(scn, resolution) == full_grid_oracle(scn, resolution)


def test_grid_oracle_grid_maximum_zero():
    # far outside the config ranges, p gain underflows to 0 at every grid
    # point, so every rate is 0 and the first grid point is the first maximum
    # (a density of 1 W/Hz makes each gain its channel gain)
    for overlap in (0.0, 20e6, 40e6):
        scn = make_scenario(total_power=1e-300, density=1.0, beta_ue=1e-30, beta_bs=1e-30,
                            overlap_bandwidth=overlap)
        *_, grid = full_grid(scn, 20)
        assert not grid.any()
        result = grid_oracle(scn, 20)
        assert result == full_grid_oracle(scn, 20)
        assert (result[0][0], level(scn, result)) == (0.0, 0.0)
        assert evaluate(scn, result[0]) == reference_evaluate(scn, *result[0])
    # the exact solver's upper bound is then 0: it takes no level step and
    # returns both budgets halved
    scn = make_scenario(total_power=1e-300, density=1.0, beta_ue=1e-30, beta_bs=1e-30)
    result = solve_orthogonal(scn)
    assert (level(scn, result), *result[1:]) == (0.0, 0, True)
    hertz = hertz_per_unit("FDD")
    assert result[0] == (5e-301, 5e-301, 20e6 / hertz, 20e6 / hertz)
    assert evaluate(scn, result[0]) == reference_evaluate(scn, *result[0])


def plateau_scenario() -> ScenarioBatch:
    """The default scenario at P = 3 W and eps = 1 with an access gain of 5e-318,
    whose access SINR is 0 or one subnormal ulp: see the test below."""
    return make_scenario(total_power=3.0, density=1.0, beta_ue=5e-318,
                         beta_bs=scalars(make_scenario()).gain_bs, access_weight=1.0)


def assert_plateau_last_row(scn, resolution, result):
    """result is at the full grid's maximum, with its level to the bit, in the
    first maximum's column and at the last row of that column's plateau."""
    p_grid, wa_grid, grid = full_grid(scn, resolution)
    j = int(np.argmax(grid)) % resolution
    (p_ue, _, w_a, _), _, _ = result
    assert level(scn, result) == grid.max()
    (i,), (k,) = (np.flatnonzero(axis == x) for axis, x in ((p_grid, p_ue), (wa_grid, w_a)))
    assert grid[i, k] == grid.max()
    assert (i, k) == (np.flatnonzero(grid[:, j] == grid.max())[-1], j)


def test_grid_oracle_plateau_below_the_crossing():
    # an access SINR one subnormal ulp wide: with gain_ue 5e-318 (a density of
    # 1 W/Hz makes each gain its channel gain; gain_bs is the default's) and P = 3 W,
    # p_ue gain_ue / w_a rounds to 0 or 1 ulp down a column, so the access rate
    # moves in flat steps; down the best column it reaches its last value before
    # the crossing some rows early. The search returns the last of those rows, at
    # the same level as np.argmax's first
    scn = plateau_scenario()
    *_, grid = full_grid(scn, 20)
    i, j = divmod(int(np.argmax(grid)), 20)
    assert grid[i, j] > 0.0 and grid[i + 1, j] == grid[i, j] and grid[i + 2, j] == grid[i, j]
    result = grid_oracle(scn, 20)
    assert_plateau_last_row(scn, 20, result)
    assert result[0][0] > full_grid_oracle(scn, 20)[0][0]  # p_ue


@pytest.mark.parametrize("resolution", [10, 11, 37, 1000])
def test_grid_rows_equal_np_linspace_bit_for_bit(resolution):
    # the search computes its grid rows rather than storing np.linspace's, one per row:
    # ordinary rows, a tiny but nonzero step, rows of zero width (as a full overlap's
    # bandwidths) and a row whose step underflows to 0, each with its own last point
    last = resolution - 1
    lo = np.array([[0.0], [5e6], [3.0], [20e6], [1e-310], [0.0], [0.0]])
    hi = np.array([[10.0], [40e6], [3.0 + 2e-15], [20e6], [1e-310], [5e-324], [7e-3]])
    linspace = np.array([np.linspace(a, b, resolution) for a, b in zip(lo.ravel(), hi.ravel())])
    assert ((hi - lo) / last == 0.0).sum() == 3
    assert allocator._grid_rows(lo, hi, np.arange(resolution), last).tobytes() == linspace.tobytes()
    # a search step's powers, where no step underflows: row k < last is k (P / last)
    p_total = np.array([[10.0], [3.0], [1e-300], [1e-310], [7e-3]])
    linspace = np.array([np.linspace(0.0, p, resolution) for p in p_total.ravel()])
    assert (np.arange(last, dtype=float) * (p_total / last)).tobytes() == linspace[:, :last].tobytes()


@pytest.mark.parametrize("resolution", [10, 11, 37, 1000])
def test_grid_oracle_chunk_of_tied_plateau_and_ordinary_rows(monkeypatch, resolution):
    # one chunk: a full overlap, whose columns all tie; the plateau above, at the
    # last row of its plateau; a power whose grid step underflows to 0 at
    # resolution 1000; and ordinary rows, at np.argmax's first maximum
    rng = np.random.default_rng(79)
    scns = [make_scenario(overlap_bandwidth=40e6),
            plateau_scenario(),
            make_scenario(total_power=5e-322, density=1.0, beta_ue=1e300, beta_bs=1e300),
            random_scenario(rng, orthogonal=True), random_scenario(rng), corner_scenario(rng)]
    monkeypatch.setattr(allocator, "_GRID_BLOCK", resolution * len(scns))
    reference = [full_grid_oracle(scn, resolution) for scn in scns]
    batch = solved_rows(grid_oracle_many, scns, resolution)
    assert [grid_oracle(scn, resolution) for scn in scns] == batch
    assert batch[:1] + batch[2:] == reference[:1] + reference[2:]
    assert_plateau_last_row(scns[1], resolution, batch[1])


def test_grid_oracle_probes_grid_points_below_the_last_row(monkeypatch):
    # the last row's p_ue is P itself, which (resolution - 1) times the step need not be:
    # every probe is at a grid point of np.linspace's rows, and none at the last row,
    # although the w_a = 0 column of an orthogonal grid crosses only there
    probes = []

    def recording_kernel(scn):
        kernel = rate_kernel(scn)

        def stage(w):
            rates = kernel(w)
            return lambda p: probes.append(p.copy()) or rates(p)

        return stage

    monkeypatch.setattr(allocator, "rate_kernel", recording_kernel)
    for resolution in (10, 11, 37, 1000):
        for p_total in (1.22, 1.7, 1.99, 10.0):
            probes.clear()
            assert grid_oracle(make_scenario(total_power=p_total), resolution)
            rows = np.linspace(0.0, p_total, resolution)[:-1]
            assert probes and all(np.isin(p_ue, rows).all() and (p_bs == p_total - p_ue).all()
                                  for p_ue, p_bs in probes)


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
    (p_ue, _, w_a, _), _, _ = result
    assert (p_ue, w_a * hertz_per_unit("FDD")) == (4.0, 40e6)


def test_grid_oracle_batch_rows_equal_rows_solved_alone():
    rng = np.random.default_rng(73)
    scns = [random_scenario(rng) for _ in range(8)] + [corner_scenario(rng) for _ in range(8)]
    batch = solved_rows(grid_oracle_many, scns, 37)
    assert batch == [grid_oracle(scn, 37) for scn in scns]
    assert solved_rows(grid_oracle_many, scns[::-1], 37) == batch[::-1]
    assert solved_rows(grid_oracle_many, scns[3:14:2], 37) == batch[3:14:2]
    assert solved_rows(grid_oracle_many, [], 37) == []


def test_grid_oracle_writes_only_what_it_owns(monkeypatch):
    # the search writes its step arrays in place: it leaves every column of the
    # batch as it was, and one call leaves nothing that changes the next
    rng = np.random.default_rng(67)
    batch = stack([random_scenario(rng, orthogonal=True), make_scenario(overlap_bandwidth=10e6),
                   corner_scenario(rng)])
    columns = {f.name: getattr(batch, f.name).tobytes() for f in dataclasses.fields(batch)}
    for block in (allocator._GRID_BLOCK, 37):  # one chunk, then one chunk a scenario
        monkeypatch.setattr(allocator, "_GRID_BLOCK", block)
        first, second = grid_oracle_many(batch, 37), grid_oracle_many(batch, 37)
        assert {name: getattr(batch, name).tobytes() for name in columns} == columns
        for got, want in zip(second, first):
            assert np.array_equal(got, want)


def test_grid_oracle_blocks_of_any_size_equal_the_full_grid(monkeypatch):
    rng = np.random.default_rng(59)
    scns = [random_scenario(rng, orthogonal=True), random_scenario(rng), make_scenario(),
            corner_scenario(rng), random_scenario(rng)]
    whole = solved_rows(grid_oracle_many, scns, 37)
    assert whole == [full_grid_oracle(scn, 37) for scn in scns]
    # 1, 1, 2, 3, 37 and 27,027 scenarios a chunk: one each, uneven tails, one chunk
    for block in (1, 37, 74, 111, 37 * 37, 10**6):
        monkeypatch.setattr(allocator, "_GRID_BLOCK", block)
        assert solved_rows(grid_oracle_many, scns, 37) == whole


def test_grid_oracle_ties_go_to_the_first_point(monkeypatch):
    # a flat grid: every point ties, so np.argmax over the whole grid picks
    # the first, and so must the search, in every chunk
    def flat_kernel(scn):
        return lambda w: lambda p: np.ones(np.broadcast_shapes(p.shape, w.shape))

    monkeypatch.setattr(allocator, "rate_kernel", flat_kernel)
    monkeypatch.setattr(allocator, "_GRID_BLOCK", 40)
    for (p_ue, _, w_a, _), _, _ in solved_rows(grid_oracle_many, [make_scenario()] * 3, 20):
        assert (p_ue, w_a) == (0.0, 0.0)


def test_grid_oracle_builds_the_rates_of_each_chunk_once(monkeypatch):
    # a power sweep's 44 scenarios at 1000 x 1000 are 11 chunks of
    # _GRID_BLOCK // 1000 = 4 scenarios: each chunk builds one kernel and
    # one bandwidth stage of it, which every search step calls
    rng = np.random.default_rng(61)
    batch = stack([random_scenario(rng) for _ in range(44)])
    expected, built, stages = grid_oracle_many(batch, 1000), [], []

    def counted_rate_kernel(scn):
        built.append(len(scn))
        kernel = rate_kernel(scn)
        return lambda w: stages.append(w.shape) or kernel(w)

    def no_link_rates(*args):
        raise AssertionError("the grid calls link_rates")

    monkeypatch.setattr(allocator, "rate_kernel", counted_rate_kernel)
    monkeypatch.setattr(allocator, "link_rates", no_link_rates)
    for got, want in zip(grid_oracle_many(batch, 1000), expected):
        assert np.array_equal(got, want)
    assert built == [4] * 11
    assert stages == [(2, 4, 1000)] * 11


def test_run_pso_builds_one_rate_kernel_on_a_scenario_row_per_particle(monkeypatch):
    # the swarm's counterpart of the grid's test above: run_pso builds the kernel
    # once, on S N rows, and calls only its stages; pso_solve_many on 1,310 rows
    # of 50 particles builds it once per chunk of _SWARM_PARTICLES // 50 = 655 rows
    scns, cfg = mixed_batch(), PsoConfig(population_size=5, max_iterations=4)
    expected, built = run_pso(stack(scns), cfg, range(len(scns))), []

    def counted_rate_kernel(batch):
        built.append(len(batch))
        return rate_kernel(batch)

    def no_link_rates(*args):
        raise AssertionError("the swarm calls link_rates")

    monkeypatch.setattr(allocator, "rate_kernel", counted_rate_kernel)
    monkeypatch.setattr(allocator, "link_rates", no_link_rates)
    assert np.array_equal(run_pso(stack(scns), cfg, range(len(scns))), expected)
    assert built == [len(scns) * 5]
    rng = np.random.default_rng(5)
    batch, built[:] = stack([random_scenario(rng) for _ in range(1310)]), []
    pso_solve_many(batch, PsoConfig(population_size=50, max_iterations=1), range(1310))
    assert built == [655 * 50] * 2


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
    # them at once peaks near 7.3 MiB, and chunks of 4,096 columns near 0.9 MiB,
    # about 0.67 MiB of it the arrays a chunk holds through its whole search
    rng = np.random.default_rng(61)
    scns = [random_scenario(rng) for _ in range(44)]
    tracemalloc.start()
    try:
        grid_oracle_many(stack(scns), 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# -------------------------------------------------------------------- PSO


def test_pso_matches_exact_without_overlap():
    scn = make_scenario()
    exact = level(scn, solve_orthogonal(scn))
    swarm = level(scn, pso_solve(scn, PsoConfig(), 42))
    assert abs(exact - swarm) / exact <= 0.02


def test_pso_matches_brute_force_under_full_overlap():
    scn = make_scenario(overlap_bandwidth=40e6)
    reference = brute_force_maxmin(scn, 100)
    swarm = level(scn, pso_solve(scn, PsoConfig(), 3))
    assert abs(swarm - reference) / reference <= 0.02
    # the finer two-axis grid should agree more closely
    fine = level(scn, grid_oracle(scn, 200))
    assert abs(swarm - fine) / fine <= 0.02


def test_pso_matches_brute_force_under_half_overlap():
    scn = make_scenario(overlap_bandwidth=20e6)
    reference = brute_force_maxmin(scn, 100)
    swarm = level(scn, pso_solve(scn, PsoConfig(), 3))
    assert abs(swarm - reference) / reference <= 0.02


def test_pso_single_point_population_is_stationary():
    scn = make_scenario()
    n = 6
    point = np.array([4.0, 6.0, 16e6 / hertz_per_unit("FDD"), 24e6 / hertz_per_unit("FDD")])
    population = np.tile(point, (n, 1))
    cfg = PsoConfig(population_size=n, max_iterations=30)
    best = run_pso(stack([scn]), cfg, [0], initial_population=population[None])
    assert np.array_equal(best, point[None])  # the point is feasible, so projecting keeps it
    expected = swarm_fitness(scn, point)
    assert swarm_fitness(scn, best[0]) == pytest.approx(expected, rel=1e-12)


def test_pso_is_deterministic_per_seed():
    scn = make_scenario()
    first = pso_solve(scn, PsoConfig(), 11)
    second = pso_solve(scn, PsoConfig(), 11)
    assert first == second
    assert evaluate(scn, first[0]) == evaluate(scn, second[0])
    third = pso_solve(scn, PsoConfig(), 12)
    assert third[0] != first[0]


def test_pso_seed_spread_is_small():
    scn = make_scenario()
    levels = [level(scn, pso_solve(scn, PsoConfig(), seed)) for seed in range(20)]
    assert (max(levels) - min(levels)) / max(levels) <= 0.05


def test_pso_more_iterations_never_score_lower():
    # with one seed, a shorter run's iterations are a prefix of a longer
    # run's draws, and the best particle is the best seen so far
    scn = make_scenario(overlap_bandwidth=8e6)
    levels = [
        swarm_fitness(scn, pso_solve(scn, PsoConfig(population_size=20, max_iterations=t), 5)[0])
        for t in (1, 10, 30, 60)
    ]
    assert levels == sorted(levels)
    assert levels[0] < levels[-1]


def test_normalize_population_is_feasible():
    rng = np.random.default_rng(8)
    scns = mixed_batch()
    batch = stack(scns)
    p_total = batch.total_power[..., None]
    band_total, w_lo, w_hi = (limit[..., None] for limit in bandwidth_limits(batch))
    # signed draws beyond the budgets, with an all-zero pair of each kind
    population = rng.normal(size=(len(scns), 16, 4)) * np.array([20.0, 20.0, 60e6, 60e6])
    population[2, 5, 0:2] = 0.0
    population[6, 0, 2:4] = 0.0
    allocator._normalize_population(population.transpose(2, 0, 1), np.stack((p_total, band_total))[..., 0],
                                    w_lo[..., 0], w_hi[..., 0])
    for scn, rows in zip(scns, population.tolist()):
        for row in rows:
            assert validate(scn, row) == []
    # each zero pair goes to the middle of its budget, inside the bandwidth clamps
    assert population[2, 5, 0:2].tolist() == [p_total[2, 0, 0] / 2] * 2
    assert population[6, 0, 2:4].tolist() == [band_total[6, 0, 0] / 2] * 2


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(population_size=2)
    with pytest.raises(ValueError):
        PsoConfig(max_iterations=0)
    # sizes are integers, NumPy's included, checked where they enter
    for sizes in ((50.0,), (50, 200.0)):
        with pytest.raises(TypeError):
            PsoConfig(*sizes)
    scn = make_scenario(overlap_bandwidth=8e6)
    assert pso_solve(scn, PsoConfig(np.int64(8), np.int64(20)), 3) == pso_solve(scn, PsoConfig(8, 20), 3)


def mixed_batch() -> list[ScenarioBatch]:
    """Eight rows mixing duplex modes, overlap zero and nonzero, and three
    access weights."""
    return [
        make_scenario(duplex=duplex, overlap_bandwidth=overlap, access_weight=eps)
        for duplex, overlap, eps in (
            ("FDD", 0.0, 0.05),
            ("TDD", 0.0, 0.1),
            ("FDD", 12e6, 0.2),
            ("TDD", 40e6, 0.05),
            ("FDD", 40e6, 0.1),
            ("TDD", 4e6, 0.2),
            ("FDD", 0.0, 0.2),
            ("TDD", 20e6, 0.1),
        )
    ]


def assert_rows_match_alone(scns, cfg, seeds, batch, initial=None):
    for s, (scn, seed) in enumerate(zip(scns, seeds)):
        alone = run_pso(
            stack([scn]), cfg, [seed], initial_population=None if initial is None else initial[s:s + 1]
        )
        assert np.array_equal(batch[s], alone[0])


def test_pso_batch_rows_equal_swarms_run_alone():
    scns = mixed_batch()
    cfg = PsoConfig(population_size=12, max_iterations=40)
    seeds = [7 * s + 3 for s in range(len(scns))]
    batch = run_pso(stack(scns), cfg, seeds)
    assert batch.shape == (len(scns), 4)
    assert_rows_match_alone(scns, cfg, seeds, batch)
    # the row results do not depend on the batch's size or order
    tail = run_pso(stack(scns[:2:-1]), cfg, seeds[:2:-1])
    assert np.array_equal(tail, batch[:2:-1])
    solved = solved_rows(pso_solve_many, scns, cfg, seeds)
    for scn, seed, result in zip(scns, seeds, solved):
        assert result == pso_solve(scn, cfg, seed)
    assert solved_rows(pso_solve_many, [], cfg, []) == []


@pytest.mark.parametrize("n", [3, 12, 50])
def test_run_pso_equals_the_reference_swarm(n):
    # 50 iterations refill every population's draw block at least once
    scns = mixed_batch()
    batch, cfg = stack(scns), PsoConfig(population_size=n, max_iterations=50)
    seeds = [5 * s + 2 for s in range(len(scns))]
    initial = np.random.default_rng(n).random((len(scns), n, 4)) * np.array([10.0, 10.0, 20e6, 20e6])
    degenerate = initial.copy()  # all-zero pairs of both kinds, one row's every bandwidth pair
    degenerate[1, 0, 0:2] = degenerate[6, [0, n - 1], 0:2] = degenerate[3, 1, 2:4] = 0.0
    degenerate[4, :, 2:4] = 0.0
    masked = initial.copy()  # w_a, w_b and p_ue zero in particles 0, 1 and 2 of every row:
    masked[:, 0, 2] = masked[:, 1, 3] = masked[:, 2, 0] = 0.0  # a zero-overlap row keeps w = 0
    masked[5, -1] = 0.0  # a power pair and a bandwidth pair of one particle sum to zero
    for start in (None, initial, degenerate, masked):
        swarm = run_pso(batch, cfg, seeds, initial_population=start)
        assert swarm.tobytes() == reference_run_pso(batch, cfg, seeds, initial_population=start).tobytes()
    # budgets at the config corners, 10 MW and 100 GHz or 0.1 pW and 1 kHz, where the velocity held
    # over the learning factor must still scale exactly
    rng = np.random.default_rng(n)
    corners, seeds = stack([corner_scenario(rng) for _ in range(20)]), range(20)
    assert run_pso(corners, cfg, seeds).tobytes() == reference_run_pso(corners, cfg, seeds).tobytes()


def test_each_row_stream_hands_out_a_fixed_number_of_draws(monkeypatch):
    # N x 4 initial draws, then the 8 N velocity draws of each iteration read
    # K iterations at a time, whatever the swarm does: a zero pair takes none
    generators = []

    class CountedGenerator(np.random.Generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            self.draws = 0
            generators.append(self)

        def random(self, *args, **kwargs):
            drawn = super().random(*args, **kwargs)
            self.draws += np.size(drawn)
            return drawn

    monkeypatch.setattr(np.random, "Generator", CountedGenerator)
    scns = mixed_batch()
    batch, seeds = stack(scns), range(len(scns))
    for n, iterations in ((3, 1), (12, 40), (50, 25), (50, 80)):
        cfg = PsoConfig(n, iterations)
        depth = max(1, min(allocator._ROW_DRAWS, allocator._BLOCK_DRAWS // len(scns)) // (8 * n))
        velocity = 8 * n * depth * -(-iterations // depth)
        initial = np.random.default_rng(n).random((len(scns), n, 4)) * np.array([10.0, 10.0, 20e6, 20e6])
        zeroed = initial.copy()
        zeroed[1, 0, 0:2] = zeroed[3, n - 1, 2:4] = zeroed[4, :, 2:4] = 0.0
        for start, want in ((None, 4 * n + velocity), (initial, velocity), (zeroed, velocity)):
            generators.clear()
            run_pso(batch, cfg, seeds, initial_population=start)
            assert [rng.draws for rng in generators] == [want] * len(scns)


def test_pso_refills_each_row_stream_once_per_four_default_iterations(monkeypatch):
    # 66 rows of 50 particles, as in the default overlap sweep: one draw call
    # per row for the initial population, and one per row for the velocity
    # draws of every 4 iterations
    calls = []

    class CountedGenerator(np.random.Generator):
        def random(self, *args, **kwargs):
            calls.append(1)
            return super().random(*args, **kwargs)

    rng = np.random.default_rng(20)
    batch = stack([random_scenario(rng) for _ in range(66)])
    monkeypatch.setattr(np.random, "Generator", CountedGenerator)
    cfg = PsoConfig()
    pso_solve_many(batch, cfg, range(66))
    assert 0 < len(calls) <= 66 * (1 + cfg.max_iterations // 4)


def test_ring_best_is_the_first_maximum_of_self_previous_and_next():
    rng = np.random.default_rng(4)
    for size, n in ((1, 3), (5, 4), (7, 50)):
        fitness = rng.integers(0, 3, (size, n)).astype(float)  # many ties
        fitness[0] = 1.0
        flat = np.arange(size * n).reshape(size, n)
        ring = np.stack([np.roll(flat, k, axis=1) for k in (0, 1, -1)])
        pick = np.argmax(np.stack([np.roll(fitness, k, axis=1) for k in (0, 1, -1)]), axis=0)
        assert np.array_equal(allocator._ring_best(fitness, ring),
                              np.take_along_axis(ring, pick[None], axis=0)[0])


def test_pso_zero_pair_in_one_row_leaves_other_rows_unchanged():
    scns = mixed_batch()
    cfg = PsoConfig(population_size=10, max_iterations=25)
    seeds = list(range(100, 100 + len(scns)))
    draw = np.random.default_rng(17).random((len(scns), 10, 4))
    initial = draw * np.array([10.0, 10.0, 20e6, 20e6])
    degenerate = initial.copy()
    # an all-zero power pair goes to the middle of its budget
    degenerate[3, 2, 0:2] = 0.0
    plain = run_pso(stack(scns), cfg, seeds, initial_population=initial)
    projected = run_pso(stack(scns), cfg, seeds, initial_population=degenerate)
    others = [s for s in range(len(scns)) if s != 3]
    assert np.array_equal(plain[others], projected[others])
    # the particle starts elsewhere: the two populations, projected as the swarm's first
    # step projects them, differ only in that particle's power pair, which is (P/2, P/2)
    batch = stack(scns)
    band_total, w_lo, w_hi = bandwidth_limits(batch)
    starts = []
    for population in (initial, degenerate):
        swarm = population.transpose(2, 0, 1).copy()
        allocator._normalize_population(swarm, np.stack((batch.total_power, band_total)), w_lo, w_hi)
        starts.append(swarm.transpose(1, 2, 0))
    assert np.argwhere(starts[0] != starts[1]).tolist() == [[3, 2, 0], [3, 2, 1]]
    assert starts[1][3, 2, :2].tolist() == [batch.total_power[3, 0] / 2] * 2
    assert_rows_match_alone(scns, cfg, seeds, projected, initial=degenerate)


def test_batch_reports_equal_evaluate():
    # every batch solver's rows, evaluated alone, equal the reference evaluation
    scns = mixed_batch()
    results = solved_rows(pso_solve_many, scns, PsoConfig(population_size=8, max_iterations=10),
                          range(len(scns)))
    orthogonal = [scn for scn in scns if scn.overlap_bandwidth == 0.0]
    results += solved_rows(solve_orthogonal_many, orthogonal)
    results += solved_rows(grid_oracle_many, scns, 12)
    for scn, result in zip(scns + orthogonal + scns, results):
        assert evaluate(scn, result[0]) == reference_evaluate(scn, *result[0])
    # every row of evaluate_many equals evaluate, a zero bandwidth under
    # overlap included: both give it the zero rates of link_rates
    rng = np.random.default_rng(71)
    scns = [random_scenario(rng) for _ in range(300)] + mixed_batch()
    alloc = np.array([random_feasible_allocation(rng, scn) for scn in scns])
    alloc[-1, 2] = 0.0  # the last scenario of mixed_batch overlaps
    columns = evaluate_many(stack(scns), alloc)
    assert columns.shape == (len(scns), 4)
    for scn, row, cells in zip(scns, alloc.tolist(), columns.tolist()):
        assert tuple(cells) == evaluate(scn, row)
    assert columns[-1].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert evaluate_many(stack([]), np.empty((0, 4))).shape == (0, 4)


def test_validate_many_rows_equal_validate():
    # feasible draws, and draws pushed past each constraint in turn
    rng = np.random.default_rng(83)
    scns = [random_scenario(rng) for _ in range(200)] + mixed_batch()
    alloc = np.array([random_feasible_allocation(rng, scn) for scn in scns])
    alloc[1::5, 0] *= 3.0
    alloc[2::5, 2:4] *= 1.7
    alloc[3::5, 3] = 0.0
    alloc[4::10, 1] = [-1e-3 * scn.total_power.item() for scn in scns[4::10]]  # which validate rejects
    flags = validate_many(stack(scns), alloc)
    assert flags.shape == (len(scns), 4) and flags.dtype == bool
    assert flags.any(axis=0).all() and not flags[::5].any() and flags[4::10, 0].all()
    for scn, row, violated in zip(scns, alloc.tolist(), flags.tolist()):
        names = [name for name, bad in zip(CONSTRAINTS, violated) if bad]
        assert names == reference_validate(scn, *row)
        if min(row) >= 0.0:
            assert validate(scn, row) == names
    assert validate_many(stack([]), np.empty((0, 4))).shape == (0, 4)


def test_pso_batch_rejects_mismatched_inputs():
    scns = mixed_batch()[:3]
    cfg = PsoConfig(population_size=5, max_iterations=2)
    with pytest.raises(ValueError, match="seeds"):
        run_pso(stack(scns), cfg, [1, 2])
    with pytest.raises(ValueError, match="shape"):
        run_pso(stack(scns), cfg, [1, 2, 3], initial_population=np.ones((5, 4)))
    with pytest.raises(ValueError, match="seeds"):
        pso_solve_many(stack(scns), cfg, [1, 2, 3, 4])
    assert solved_rows(pso_solve_many, [], cfg, []) == []


def test_pso_solve_many_chunks_equal_one_batch(monkeypatch):
    scns = mixed_batch()
    cfg = PsoConfig(population_size=6, max_iterations=15)
    seeds = [11 * s + 1 for s in range(len(scns))]
    whole = solved_rows(pso_solve_many, scns, cfg, seeds)
    # 1, 1, 2, 3, 5 and 8 rows a chunk: one row each, uneven tails, one chunk
    for cap in (1, 6, 12, 18, 30, 48):
        monkeypatch.setattr(allocator, "_SWARM_PARTICLES", cap)
        assert solved_rows(pso_solve_many, scns, cfg, seeds) == whole


def test_pso_memory_does_not_grow_with_iterations():
    # a record of each row's best after every iteration would hold 8 bytes
    # per row and iteration: about 245 KiB more at 500 iterations than at 10
    rng = np.random.default_rng(5)
    scns = [random_scenario(rng) for _ in range(64)]

    def peak(iterations):
        cfg = PsoConfig(population_size=3, max_iterations=iterations)
        tracemalloc.start()
        try:
            pso_solve_many(stack(scns), cfg, range(len(scns)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # the first call allocates caches that later calls reuse
    assert peak(500) - peak(10) <= 64 * 2**10


def test_pso_memory_at_a_full_chunk():
    # 1,310 rows of 50 particles make two full run_pso batches of 655 rows, each
    # four planes, three step buffers, a draw block of one iteration and one
    # scenario row per particle
    rng = np.random.default_rng(5)
    batch = stack([random_scenario(rng) for _ in range(1310)])
    tracemalloc.start()
    try:
        pso_solve_many(batch, PsoConfig(population_size=50, max_iterations=5), range(1310))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23 * 2**20


def test_pso_at_the_config_corners():
    # full overlap and the smallest budgets: every row finite and feasible, its rates
    # finite, and both budgets spent to within the audit's slack
    cfg = PsoConfig(8, 20)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        batch = stack([corner_scenario(rng) for _ in range(400)])
        alloc, _, _ = pso_solve_many(batch, cfg, range(400))
        assert np.isfinite(alloc).all()
        assert not validate_many(batch, alloc).any()
        assert np.isfinite(evaluate_many(batch, alloc)).all()
        budgets = np.hstack((batch.total_power, bandwidth_limits(batch)[0]))
        assert (alloc[:, 0::2] + alloc[:, 1::2] >= (1.0 - _SLACK) * budgets).all()


def test_pso_long_swarm_stays_finite_and_feasible():
    # the config's longest swarm with its smallest population: by then the
    # accumulated bandwidth velocities reach 1e7 to 1e8 Hz, beyond the budget
    scns = [make_scenario(), make_scenario(overlap_bandwidth=20e6)]
    cfg = PsoConfig(population_size=3, max_iterations=10_000)
    for scn, (alloc, _, converged) in zip(scns, solved_rows(pso_solve_many, scns, cfg, [1, 2])):
        assert all(map(math.isfinite, (*alloc, *evaluate(scn, alloc))))
        assert validate(scn, alloc) == []
        assert converged


# --------------------------------------------------- cross-solver invariants


def test_all_solvers_return_feasible_allocations():
    rng = np.random.default_rng(31)
    small = PsoConfig(population_size=8, max_iterations=25)
    for _ in range(50):
        scn = random_scenario(rng)
        results = [grid_oracle(scn, 20), pso_solve(scn, small, 1)]
        if scn.overlap_bandwidth == 0.0:
            results.append(solve_orthogonal(scn))
        for result in results:
            assert validate(scn, result[0]) == []
            assert evaluate(scn, result[0])[0] == pytest.approx(level(scn, result), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("overlap_mhz", [0.0, 10.0])
def test_solvers_never_write_into_the_batch(overlap_mhz):
    # a sweep hands one build_scenarios batch to several solver calls
    points = [(30.0 + 5.0 * k, overlap_mhz, ("FDD", "TDD")[k % 2], 600.0 * (1 + k // 2), 0.1 * (k + 1))
              for k in range(6)]
    batch = expcli.build_scenarios(expcli.ExperimentConfig(), points)
    writable = ScenarioBatch(*(getattr(batch, f.name).copy() for f in dataclasses.fields(ScenarioBatch)))
    for field in dataclasses.fields(ScenarioBatch):
        getattr(batch, field.name).flags.writeable = False
    solves = [lambda b: pso_solve_many(b, PsoConfig(population_size=8, max_iterations=10), range(6)),
              lambda b: grid_oracle_many(b, 12)]
    if overlap_mhz == 0.0:
        solves.append(solve_orthogonal_many)
    for solve in solves:
        (alloc, iterations, converged), again = solve(batch), solve(writable)
        assert all(map(np.array_equal, (alloc, iterations, converged), again))
        assert np.array_equal(evaluate_many(batch, alloc), evaluate_many(writable, alloc))
        assert np.array_equal(validate_many(batch, alloc), validate_many(writable, alloc))
