"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass line; a failed assertion marks the criterion failed."""

import collections
import dataclasses
import math
import operator

import numpy as np
import pytest

from satiab import (
    PsoConfig,
    evaluate_many,
    free_space_path_loss,
    antenna_pattern,
    bessel_j1,
    grid_oracle_many,
    linear_to_db,
    pso_solve_many,
    solve_orthogonal_many,
    validate_many,
)
from satiab.expcli import (
    OVERLAP_SWEEP_WEIGHTS,
    POWER_SWEEP_ALTITUDES_KM,
    ExperimentConfig,
    _power_grid,
    build_scenarios,
    main,
    run_overlap_sweep,
    run_power_sweep,
)

from oracles import (
    corner_config,
    hertz_per_unit,
    j1_power_series,
    level,
    physical_values,
    random_feasible_allocation,
    random_scenario,
    random_values,
    reference_scenarios,
    scenario,
    solved_rows,
    stack,
)


def test_criterion_1_link_budget_correctness():
    pl_db = linear_to_db(free_space_path_loss(2e9, 600e3))
    assert abs(pl_db - 154.03) <= 0.01
    closed_form = 32.45 + 20.0 * math.log10(2000.0) + 20.0 * math.log10(600.0)
    assert abs(pl_db - closed_form) <= 0.01

    worst = max(
        abs(bessel_j1(float(x)) - j1_power_series(float(x)))
        for x in np.linspace(0.0, 20.0, 1000)
    )
    assert worst <= 1e-10

    assert antenna_pattern(0.0, 1.5, 2e9) == 1.0
    print(
        f"[criterion 1] PASS — path loss {pl_db:.4f} dB (|err| <= 0.01), "
        f"Bessel worst abs err {worst:.2e} <= 1e-10, boresight pattern exactly 1"
    )


def test_criterion_2_exact_solver_vs_grid():
    worst_gap = 0.0
    labels, scns = zip(*reference_scenarios())
    exact, grid = solved_rows(solve_orthogonal_many, scns), solved_rows(grid_oracle_many, scns, 200)
    for label, scn, exact, grid in zip(labels, scns, exact, grid):
        exact, grid = level(scn, exact), level(scn, grid)
        assert exact >= grid, label
        gap = (exact - grid) / exact
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.01, f"{label}: gap {gap:.4%}"
    print(f"[criterion 2] PASS — exact >= grid on 12 scenarios, worst gap {worst_gap:.3%} <= 1%")


def test_criterion_3_pso_reaches_exact_optimum():
    seeds = range(20)
    worst_gap = 0.0
    labels, scns = zip(*reference_scenarios())
    for label, scn, exact in zip(labels, scns, solved_rows(solve_orthogonal_many, scns)):
        exact = level(scn, exact)
        good = 0
        # one batch of 20 swarms; each row equals its seed's swarm solved alone
        batch = stack([scn] * len(seeds))
        alloc, _, _ = pso_solve_many(batch, PsoConfig(), seeds)
        for swarm in evaluate_many(batch, alloc)[:, 0].tolist():
            gap = abs(exact - swarm) / exact
            worst_gap = max(worst_gap, gap)
            if gap <= 0.02:
                good += 1
        assert good >= 18, f"{label}: only {good}/20 seeds within 2%"
    print(
        f"[criterion 3] PASS — swarm within 2% of exact on 12 scenarios for >= 18/20 seeds "
        f"(worst observed gap {worst_gap:.3%})"
    )


def test_criterion_4_power_sweep_trends():
    cfg = dataclasses.replace(ExperimentConfig(), solvers=("exact",))
    rows = run_power_sweep(cfg)
    series = collections.defaultdict(dict)
    for row in rows:
        series[(row.duplex, row.altitude_km)][row.sweep_value] = row.throughput_mbps
    powers = sorted(next(iter(series.values())))
    assert powers[0] == 40.0 and powers[-1] == 50.0
    for key, points in series.items():
        values = [points[p] for p in powers]
        assert all(a <= b for a, b in zip(values, values[1:])), key
    for altitude in (600.0, 1200.0):
        for p in powers:
            assert series[("FDD", altitude)][p] >= series[("TDD", altitude)][p]
    for duplex in ("FDD", "TDD"):
        for p in powers:
            assert series[(duplex, 600.0)][p] >= series[(duplex, 1200.0)][p]
    print(
        "[criterion 4] PASS — throughput monotone in transmit power, FDD >= TDD and "
        "600 km >= 1200 km pointwise over 40..50 dBm"
    )


def test_criterion_5_overlap_sweep_trends():
    rows = run_overlap_sweep(ExperimentConfig())
    series = collections.defaultdict(dict)
    for row in rows:
        if row.solver == "pso":
            series[(row.duplex, row.access_weight)][row.sweep_value] = row.throughput_mbps
    fractions = sorted(next(iter(series.values())))
    assert fractions == pytest.approx([i / 10 for i in range(11)])

    for key, points in series.items():
        assert max(points, key=points.get) == 0.0, key

    for duplex in ("FDD", "TDD"):
        for fraction in fractions:
            t = [series[(duplex, eps)][fraction] for eps in (0.05, 0.1, 0.2)]
            assert t[0] > t[1] > t[2], (duplex, fraction)

    worst = 0.0
    for eps in (0.05, 0.1, 0.2):
        for fraction in fractions:
            if fraction < 0.5:
                continue
            fdd = series[("FDD", eps)][fraction]
            tdd = series[("TDD", eps)][fraction]
            rel = abs(fdd - tdd) / fdd
            worst = max(worst, rel)
            assert rel <= 0.05, (eps, fraction, rel)
    print(
        "[criterion 5] PASS — throughput peaks at zero overlap, decreases with the access "
        f"weight, and FDD/TDD agree within 5% beyond half overlap (worst {worst:.2%})"
    )


def test_criterion_6_optimum_tightness():
    worst_rate = 0.0
    worst_power = 0.0
    labels, scns = zip(*reference_scenarios())
    alloc, _, _ = solve_orthogonal_many(stack(scns))
    rows = zip(labels, scns, alloc.tolist(), evaluate_many(stack(scns), alloc).tolist())
    for label, scn, (p_ue, p_bs, _, _), (zeta, rate_access, rate_backhaul, _) in rows:
        access_ratio = rate_access / (scn.access_weight.item() * zeta)
        backhaul_ratio = rate_backhaul / zeta
        assert abs(access_ratio - 1.0) <= 1e-4, label
        assert abs(backhaul_ratio - 1.0) <= 1e-4, label
        spent = p_ue + p_bs
        power_err = abs(spent - scn.total_power.item()) / scn.total_power.item()
        assert power_err <= 1e-6, label
        worst_rate = max(worst_rate, abs(access_ratio - 1.0), abs(backhaul_ratio - 1.0))
        worst_power = max(worst_power, power_err)
    print(
        f"[criterion 6] PASS — rate targets tight within 1e-4 (worst {worst_rate:.2e}) and "
        f"power budget spent within 1e-6 (worst {worst_power:.2e})"
    )


def test_criterion_7_sweep_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"seed": 20}\n')
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sweep-overlap", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["sweep-overlap", "--config", str(config_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "overlap_sweep.csv").read_bytes()
    bytes_b = (out_b / "overlap_sweep.csv").read_bytes()
    assert bytes_a == bytes_b
    print(f"[criterion 7] PASS — repeated overlap sweep is byte-identical ({len(bytes_a)} bytes)")


def test_criterion_8_randomized_invariant_suites():
    rng = np.random.default_rng(2024)

    # solver outputs stay feasible and self-consistent
    small = PsoConfig(population_size=10, max_iterations=30)
    scns = [random_scenario(rng) for _ in range(100)]
    orthogonal = stack([scn for scn in scns if scn.overlap_bandwidth == 0.0])
    for batch, (alloc, _, _) in ((stack(scns), grid_oracle_many(stack(scns), 25)),
                                 (stack(scns), pso_solve_many(stack(scns), small, [7] * 100)),
                                 (orthogonal, solve_orthogonal_many(orthogonal))):
        assert not validate_many(batch, alloc).any()

    # fitness identity and nonnegativity over ten thousand random points
    scns, alloc = [], []
    for _ in range(10_000):
        scns.append(random_scenario(rng))
        alloc.append(random_feasible_allocation(rng, scns[-1]))
    batch = stack(scns)
    rates = evaluate_many(batch, np.array(alloc)).tolist()
    for eps, (zeta, rate_access, rate_backhaul, _) in zip(batch.access_weight.ravel().tolist(), rates):
        assert rate_access >= 0.0 and rate_backhaul >= 0.0
        fitness = min(rate_access, eps * rate_backhaul)
        scale = max(abs(fitness), 1e-9)
        assert abs(fitness - eps * zeta) <= 1e-9 * scale

    # monotonicity and midpoint concavity of the access rate without overlap
    scn = random_scenario(rng, orthogonal=True)
    alloc = []
    for _ in range(1000):
        p = rng.uniform(0.1, 0.9) * scn.total_power.item()
        w = rng.uniform(0.01, 0.95) * 0.5 * scn.total_bandwidth.item()
        p2 = rng.uniform(0.1, 0.9) * scn.total_power.item()
        w2 = rng.uniform(0.01, 0.95) * 0.5 * scn.total_bandwidth.item()
        alloc += [(p, 0.0, w, 0.0), (p * 1.1, 0.0, w, 0.0), (p, 0.0, w * 1.02, 0.0),
                  (p2, 0.0, w2, 0.0), ((p + p2) / 2, 0.0, (w + w2) / 2, 0.0)]
    rates = evaluate_many(scn.take([0] * len(alloc)), np.array(alloc))[:, 1].reshape(-1, 5)
    for base, more_power, more_bandwidth, other, mid in rates.tolist():
        assert more_power > base
        assert more_bandwidth > base
        assert mid >= (base + other) / 2 - 1e-9 * max(base, other, 1.0)

    # nested grid refinement never loses ground
    scns = [random_scenario(rng) for _ in range(5)]
    coarse, fine = (solved_rows(grid_oracle_many, scns, resolution) for resolution in (10, 100))
    for scn, coarse, fine in zip(scns, coarse, fine):
        assert level(scn, fine) >= level(scn, coarse) - 1e-12

    print(
        "[criterion 8] PASS — feasibility, fitness identity, monotonicity/concavity and "
        "grid-refinement invariants hold on randomized inputs"
    )


def duplex_twins(rows):
    """The (batch row, duplex) pairs rows as two batches: the TDD scenario at
    each row's TDD power and the FDD scenario at half of it, every other
    physical value the row's. A TDD row is its own TDD side, an FDD row at
    P its own FDD side, with the TDD side at 2P."""
    tdd, fdd = [], []
    for scn, duplex in rows:
        values = physical_values(scn, duplex)
        power = values["total_power"] * (2.0 if duplex == "FDD" else 1.0)
        tdd.append(scenario("TDD", **{**values, "total_power": power}))
        fdd.append(scenario("FDD", **{**values, "total_power": power / 2.0}))
    return stack(tdd), stack(fdd)


def twin_mismatches(tdd, fdd, cfg: PsoConfig, resolution: int) -> dict[str, list[int]]:
    """The rows, per solver, where the solve of the TDD batch is not the FDD
    twin's to the bit: the same level, rates, iterations and converged flag,
    with the TDD powers and (in the CSV's hertz) bandwidths twice the FDD ones.
    Each solver runs on both batches with the same seeds or resolution, the
    exact solver on the rows without overlap."""
    rows = np.arange(len(tdd))
    runs = {
        "exact": (rows[tdd.overlap_bandwidth.ravel() == 0.0], solve_orthogonal_many),
        "pso": (rows, lambda batch: pso_solve_many(batch, cfg, range(len(batch)))),
        "oracle": (rows, lambda batch: grid_oracle_many(batch, resolution)),
    }
    mismatches = {}
    for name, (picked, solve) in runs.items():
        t, f = tdd.take(picked), fdd.take(picked)
        (alloc_t, steps_t, done_t), (alloc_f, steps_f, done_f) = solve(t), solve(f)
        hertz_t, hertz_f = alloc_t[:, 2:] * hertz_per_unit("TDD"), alloc_f[:, 2:] * hertz_per_unit("FDD")
        same = ((alloc_t[:, :2] == 2.0 * alloc_f[:, :2]).all(axis=1) & (hertz_t == 2.0 * hertz_f).all(axis=1)
                & (evaluate_many(t, alloc_t) == evaluate_many(f, alloc_f)).all(axis=1)
                & (steps_t == steps_f) & (done_t == done_f))
        mismatches[name] = picked[~same].tolist()
    return mismatches


def test_criterion_9_tdd_is_fdd_at_half_power():
    # Both duplex modes have alpha_o alpha_1 = 1/2, so with u = w / alpha_1 every rate is
    # (u / 2) log2(1 + p beta / (alpha_1 dens u + p' beta w_o / u')): a TDD scenario at power P
    # is the FDD scenario at P / 2, its bandwidths in hertz doubled. The scalings are by powers
    # of two, and the config ranges keep every intermediate a normal float, so each solver's
    # TDD and FDD solves are twins to the bit.
    cfg = ExperimentConfig()
    power_points = [(power, 0.0, "TDD", altitude, cfg.access_weight)
                    for power in _power_grid(cfg) for altitude in POWER_SWEEP_ALTITUDES_KM]
    overlap_points = [(cfg.total_power_dbm, i / 10 * cfg.total_bandwidth_mhz, "TDD", cfg.altitude_km, eps)
                      for i in range(11) for eps in OVERLAP_SWEEP_WEIGHTS]
    default_rows = [(build_scenarios(cfg, [point]), "TDD") for point in power_points + overlap_points]
    default_rows += [(scn, label.split("-")[1]) for label, scn in reference_scenarios()]
    rng = np.random.default_rng(9)
    draws = [random_values(rng) for _ in range(1000)]
    random_rows = [(scenario(**values), values["duplex"]) for values in draws]
    corners = [corner_config(rng) for _ in range(200)]
    corner_rows = [(build_scenarios(c, [(c.total_power_dbm, c.overlap_mhz, c.duplex, c.altitude_km,
                                         c.access_weight)]), c.duplex) for c in corners]

    checks = (("default", default_rows, PsoConfig(), cfg.oracle_resolution),
              ("random", random_rows, PsoConfig(10, 30), 25),
              ("corner", corner_rows, PsoConfig(10, 30), 25))
    for name, rows, swarm, resolution in checks:
        # a corner row that differed would be listed here, not dropped: a subnormal or
        # overflowed intermediate breaks the exact scaling
        mismatches = twin_mismatches(*duplex_twins(rows), swarm, resolution)
        assert mismatches == {"exact": [], "pso": [], "oracle": []}, name

    # the theorem's order, on the default sweeps: the exact solver's FDD level is at least its
    # TDD level at every point; the swarm's rows may reverse it, by solver error
    point = operator.attrgetter("sweep", "sweep_value", "altitude_km", "access_weight", "solver")
    levels = {(point(row), row.duplex): row.zeta_mbps for row in run_power_sweep(cfg) + run_overlap_sweep(cfg)}
    pairs = [(key[-1], levels[key, "FDD"], levels[key, "TDD"]) for key, duplex in levels if duplex == "TDD"]
    exact = [(fdd, tdd) for solver, fdd, tdd in pairs if solver == "exact"]
    assert len(exact) == len(power_points) + len(OVERLAP_SWEEP_WEIGHTS)
    assert all(fdd >= tdd for fdd, tdd in exact)
    swarm = [(fdd, tdd) for solver, fdd, tdd in pairs if solver == "pso"]
    reversed_rows = sum(fdd < tdd for fdd, tdd in swarm)
    print(
        f"[criterion 9] PASS — TDD at P is FDD at P/2 to the bit (p and w doubled) for exact, pso "
        f"and oracle on {len(default_rows)} default and reference rows, 1000 random and "
        f"{len(corner_rows)} corner draws (0 differ); FDD >= TDD on all {len(exact)} exact sweep pairs; "
        f"pso reverses the order on {reversed_rows} of {len(swarm)} pairs"
    )
