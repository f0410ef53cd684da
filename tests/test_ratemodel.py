"""Rate equations, duplex factors, the rate report, and feasibility checks."""

import dataclasses
import math

import numpy as np
import pytest

from satiab import (
    Allocation,
    DuplexMode,
    InvalidAllocation,
    ScenarioBatch,
    ScenarioParams,
    duplex_factors,
    evaluate,
    link_rates,
    validate,
)

from oracles import random_feasible_allocation, random_scenario, reference_rate


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


def test_duplex_factors_values():
    assert duplex_factors(DuplexMode.FDD) == (1.0, 0.5)
    assert duplex_factors(DuplexMode.TDD) == (0.5, 1.0)
    for mode in DuplexMode:
        alpha_o, alpha_1 = duplex_factors(mode)
        assert alpha_o * alpha_1 == 0.5


def test_access_rate_zero_power():
    scn = make_scenario()
    alloc = Allocation(p_ue=0.0, p_bs=5.0, w_a=10e6, w_b=10e6)
    assert evaluate(scn, alloc).rate_access == 0.0


def test_access_rate_reference_value():
    # 20 MHz access bandwidth, 10 W, no overlap; expected value frozen from
    # an extended-precision evaluation of the rate formula: 2721394.069 bits/s
    scn = make_scenario(
        beta_ue=1.575e-12,
        noise_density=3.981e-18,
        interference_density=3.981e-18,
    )
    alloc = Allocation(p_ue=10.0, p_bs=0.0, w_a=20e6, w_b=0.0)
    rate = evaluate(scn, alloc).rate_access
    assert rate == pytest.approx(2721394.0688714305, rel=1e-9)
    assert rate == pytest.approx(2.73e6, rel=0.02)


def test_access_rate_monotone_in_power():
    scn = make_scenario()
    lo = evaluate(scn, Allocation(2.0, 0.0, 15e6, 5e6)).rate_access
    hi = evaluate(scn, Allocation(4.0, 0.0, 15e6, 5e6)).rate_access
    assert hi > lo


def test_backhaul_rate_zero_power():
    scn = make_scenario()
    assert evaluate(scn, Allocation(5.0, 0.0, 10e6, 10e6)).rate_backhaul == 0.0


def test_backhaul_mirrors_access():
    beta = 3e-11
    scn = make_scenario(beta_ue=beta, beta_bs=beta, overlap_bandwidth=10e6)
    alloc = Allocation(p_ue=2.0, p_bs=7.0, w_a=12e6, w_b=8e6)
    mirrored = Allocation(p_ue=7.0, p_bs=2.0, w_a=8e6, w_b=12e6)
    mirror = evaluate(scn, mirrored).rate_access
    assert evaluate(scn, alloc).rate_backhaul == pytest.approx(mirror, rel=1e-12)


def test_full_overlap_interference_hurts_backhaul():
    scn = make_scenario(overlap_bandwidth=40e6)
    quiet = evaluate(scn, Allocation(1.0, 5.0, 20e6, 20e6)).rate_backhaul
    loud = evaluate(scn, Allocation(4.0, 5.0, 20e6, 20e6)).rate_backhaul
    assert loud < quiet


def test_invalid_allocation_under_overlap():
    scn = make_scenario(overlap_bandwidth=10e6)
    for alloc in (Allocation(5.0, 5.0, 15e6, 0.0), Allocation(5.0, 5.0, 0.0, 15e6)):
        with pytest.raises(InvalidAllocation):
            evaluate(scn, alloc)


def test_evaluate_zero_power():
    scn = make_scenario()
    report = evaluate(scn, Allocation(0.0, 0.0, 10e6, 10e6))
    assert report.rate_access == 0.0
    assert report.rate_backhaul == 0.0
    assert report.throughput == 0.0
    assert report.maxmin_level == 0.0
    assert report.fitness == 0.0


def test_evaluate_fitness_identity():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        scn = random_scenario(rng)
        alloc = Allocation(*random_feasible_allocation(rng, scn))
        report = evaluate(scn, alloc)
        assert report.throughput == pytest.approx(
            report.rate_access + report.rate_backhaul, rel=1e-12
        )
        scale = max(abs(report.fitness), 1e-9)
        assert abs(report.fitness - scn.access_weight * report.maxmin_level) <= 1e-9 * scale


def test_rates_nonnegative_on_feasible_points():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        scn = random_scenario(rng)
        alloc = Allocation(*random_feasible_allocation(rng, scn))
        assert validate(scn, alloc) == []
        report = evaluate(scn, alloc)
        assert report.rate_access >= 0.0
        assert report.rate_backhaul >= 0.0


def test_access_rate_strictly_increasing_without_overlap():
    scn = make_scenario()
    rng = np.random.default_rng(9)
    for _ in range(1000):
        p = rng.uniform(0.1, 9.0)
        w = rng.uniform(1e5, 19e6)
        base = evaluate(scn, Allocation(p, 0.0, w, 1e6)).rate_access
        assert evaluate(scn, Allocation(p * rng.uniform(1.01, 2.0), 0.0, w, 1e6)).rate_access > base
        assert evaluate(scn, Allocation(p, 0.0, w * rng.uniform(1.01, 1.05), 1e6)).rate_access > base


def test_access_rate_midpoint_concavity():
    scn = make_scenario()
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p1, p2 = rng.uniform(0.0, 10.0, 2)
        w1, w2 = rng.uniform(1e4, 20e6, 2)
        f1 = evaluate(scn, Allocation(p1, 0.0, w1, 0.0)).rate_access
        f2 = evaluate(scn, Allocation(p2, 0.0, w2, 0.0)).rate_access
        mid = evaluate(scn, Allocation((p1 + p2) / 2, 0.0, (w1 + w2) / 2, 0.0)).rate_access
        scale = max(abs(f1), abs(f2), 1.0)
        assert mid >= (f1 + f2) / 2 - 1e-9 * scale


def test_rates_depend_on_duplex_only_through_factors():
    rng = np.random.default_rng(17)
    for _ in range(200):
        scn = random_scenario(rng)
        alloc = Allocation(*random_feasible_allocation(rng, scn))
        alpha_o, alpha_1 = duplex_factors(scn.duplex)
        dens = scn.noise_density + scn.interference_density
        expected_a = reference_rate(
            alpha_o, alpha_1, alloc.p_ue, scn.beta_ue, alloc.w_a,
            alloc.p_bs, alloc.w_b, dens, scn.overlap_bandwidth,
        )
        expected_b = reference_rate(
            alpha_o, alpha_1, alloc.p_bs, scn.beta_bs, alloc.w_b,
            alloc.p_ue, alloc.w_a, dens, scn.overlap_bandwidth,
        )
        report = evaluate(scn, alloc)
        assert report.rate_access == pytest.approx(expected_a, rel=1e-12, abs=1e-9)
        assert report.rate_backhaul == pytest.approx(expected_b, rel=1e-12, abs=1e-9)


def test_link_rates_batch_rows_equal_single_scenarios():
    rng = np.random.default_rng(41)
    scns = [random_scenario(rng) for _ in range(12)]
    scns += [make_scenario(), make_scenario(overlap_bandwidth=40e6, duplex=DuplexMode.TDD)]
    assert {s.overlap_bandwidth > 0.0 for s in scns} == {True, False}
    alloc = np.array([random_feasible_allocation(rng, s) for s in scns for _ in range(6)])
    alloc = alloc.reshape(len(scns), 6, 4)
    alloc[:, 0, 3] = 0.0  # w_b = 0: zero access rate only where the links overlap
    alloc[:, 1, 2] = 0.0
    batch = ScenarioBatch.stack(scns)
    rate_a, rate_b = link_rates(batch, *np.moveaxis(alloc, -1, 0))
    for s, scn in enumerate(scns):
        alone_a, alone_b = link_rates(scn, *alloc[s].T)
        assert np.array_equal(rate_a[s], alone_a)
        assert np.array_equal(rate_b[s], alone_b)
        assert (rate_a[s, 0] > 0.0) == (scn.overlap_bandwidth == 0.0)


def test_link_rates_on_broadcast_axes_equal_materialised_inputs():
    # (R, 1) powers against (1, N) bandwidths, as the grid oracle passes them
    rng = np.random.default_rng(61)
    p_ue = rng.uniform(0.0, 10.0, (7, 1))
    p_ue[0] = 0.0
    p_bs = 10.0 - p_ue
    w_a = rng.uniform(0.0, 40e6, (1, 9))
    w_a[0, :2] = 0.0
    w_b = w_a[:, ::-1].copy()  # zero bandwidths at both ends of the row
    scns = [make_scenario(), make_scenario(overlap_bandwidth=8e6, duplex=DuplexMode.TDD)]
    scns += [random_scenario(rng) for _ in range(5)]
    # the batch of seven scenarios takes one row of powers each
    for scn in (*scns[:2], ScenarioBatch.stack(scns)):
        lazy = link_rates(scn, p_ue, p_bs, w_a, w_b)
        eager = link_rates(scn, *np.broadcast_arrays(p_ue, p_bs, w_a, w_b))
        for rate, reference in zip(lazy, eager):
            assert rate.shape == (7, 9)
            assert np.array_equal(rate, reference)
    # without overlap each rate spans only the axes of its own link's inputs
    rate_a, rate_b = link_rates(scns[0], p_ue, 1.0, w_a, 2e6)
    assert rate_a.shape == (7, 9) and rate_b.shape == ()


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(total_power=0.0)
    with pytest.raises(ValueError):
        make_scenario(overlap_bandwidth=50e6)
    with pytest.raises(ValueError):
        make_scenario(access_weight=0.0)
    with pytest.raises(ValueError):
        make_scenario(access_weight=1.5)


def test_allocation_rejects_negative_fields():
    with pytest.raises(ValueError):
        Allocation(-1.0, 0.0, 1e6, 1e6)
    with pytest.raises(ValueError):
        Allocation(1.0, 0.0, -1e6, 1e6)


def test_validate_power_budget_violation():
    scn = make_scenario()
    alloc = Allocation(5.005, 5.005, 10e6, 10e6)  # 1.001 * budget
    assert validate(scn, alloc, tol=1e-6) == ["1a"]


def test_validate_feasible_boundaries():
    scn = make_scenario(overlap_bandwidth=10e6)
    _, alpha_1 = duplex_factors(scn.duplex)
    tight = Allocation(5.0, 5.0, alpha_1 * scn.total_bandwidth, alpha_1 * scn.overlap_bandwidth)
    assert validate(scn, tight) == []
    half = alpha_1 * (scn.total_bandwidth + scn.overlap_bandwidth) / 2.0
    assert validate(scn, Allocation(5.0, 5.0, half, half)) == []


def test_validate_flags_each_constraint():
    scn = make_scenario(overlap_bandwidth=10e6)
    _, alpha_1 = duplex_factors(scn.duplex)
    w_hi = alpha_1 * scn.total_bandwidth
    w_lo = alpha_1 * scn.overlap_bandwidth
    assert "1b" in validate(scn, Allocation(1.0, 1.0, w_hi, w_hi))
    assert "1c" in validate(scn, Allocation(1.0, 1.0, 1.2 * w_hi, w_lo))
    assert "1d" in validate(scn, Allocation(1.0, 1.0, w_hi, 0.5 * w_lo))


def test_scenario_params_are_frozen():
    scn = make_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.total_power = 20.0
