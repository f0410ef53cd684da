"""Rate equations, duplex factors, the one-scenario views, and feasibility checks."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from satiab import (
    CONSTRAINTS,
    ScenarioBatch,
    evaluate_many,
    link_rates,
    rate_kernel,
    solve_orthogonal_many,
    validate_many,
)
from satiab.allocator import solve_orthogonal
from satiab.expcli import _AIRTIME_PER_BAND_HERTZ, DUPLEX_FACTORS, ExperimentConfig, build_scenarios
from satiab.linkbudget import dbm_to_watts
from satiab.ratemodel import evaluate, validate

from oracles import hertz_per_unit, make_scenario, random_feasible_allocation, random_scenario
from oracles import reference_link_rates, reference_rate, reference_scenarios, reference_validate, scalars
from oracles import PAPER_DUPLEX_FACTORS, channel_gains, scenario, stack


def test_duplex_factors_values():
    # expcli keeps 1 / alpha_o alone, the CSV's hertz per airtime hertz, and alpha_o alpha_1 = 1/2,
    # a link's airtime hertz per hertz of the band, as one constant for both modes
    assert DUPLEX_FACTORS["FDD"] == 1.0
    assert DUPLEX_FACTORS["TDD"] == 2.0
    for mode in DUPLEX_FACTORS:
        alpha_o, alpha_1 = PAPER_DUPLEX_FACTORS[mode]
        assert alpha_o * alpha_1 == 0.5 and DUPLEX_FACTORS[mode] == 1 / alpha_o
        assert _AIRTIME_PER_BAND_HERTZ == alpha_o * alpha_1


def test_access_rate_zero_power():
    scn = make_scenario()
    alloc = (0.0, 5.0, 10e6, 10e6)  # p_ue, p_bs, w_a, w_b
    assert evaluate(scn, alloc)[1] == 0.0


def test_access_rate_reference_value():
    # 20 MHz access bandwidth, 10 W, no overlap; expected value frozen from
    # an extended-precision evaluation of the rate formula: 2721394.069 bits/s
    scn = make_scenario(
        beta_ue=1.575e-12,
        density=3.981e-18 + 3.981e-18,
    )
    alloc = (10.0, 0.0, 20e6 / hertz_per_unit("FDD"), 0.0)
    rate = evaluate(scn, alloc)[1]
    assert rate == pytest.approx(2721394.0688714305, rel=1e-9)
    assert rate == pytest.approx(2.73e6, rel=0.02)


def test_access_rate_monotone_in_power():
    scn = make_scenario()
    lo = evaluate(scn, (2.0, 0.0, 15e6, 5e6))[1]
    hi = evaluate(scn, (4.0, 0.0, 15e6, 5e6))[1]
    assert hi > lo


def test_backhaul_rate_zero_power():
    scn = make_scenario()
    assert evaluate(scn, (5.0, 0.0, 10e6, 10e6))[2] == 0.0


def test_backhaul_mirrors_access():
    beta = 3e-11
    scn = make_scenario(beta_ue=beta, beta_bs=beta, overlap_bandwidth=10e6)
    alloc = (2.0, 7.0, 12e6, 8e6)
    mirrored = (7.0, 2.0, 8e6, 12e6)
    mirror = evaluate(scn, mirrored)[1]
    assert evaluate(scn, alloc)[2] == pytest.approx(mirror, rel=1e-12)


def test_full_overlap_interference_hurts_backhaul():
    scn = make_scenario(overlap_bandwidth=40e6)
    quiet = evaluate(scn, (1.0, 5.0, 20e6, 20e6))[2]
    loud = evaluate(scn, (4.0, 5.0, 20e6, 20e6))[2]
    assert loud < quiet


def test_invalid_allocation_under_overlap():
    # a zero bandwidth under overlap gets the all-zero row of evaluate_many
    scn = make_scenario(overlap_bandwidth=10e6)
    for alloc in ((5.0, 5.0, 15e6, 0.0), (5.0, 5.0, 0.0, 15e6)):
        row = evaluate_many(scn, np.array([alloc]))
        assert row.tolist() == [[0.0, 0.0, 0.0, 0.0]]
        assert evaluate(scn, alloc) == (0.0, 0.0, 0.0, 0.0)


def test_evaluate_zero_power():
    scn = make_scenario()
    assert evaluate(scn, (0.0, 0.0, 10e6, 10e6)) == (0.0, 0.0, 0.0, 0.0)


def test_evaluate_fitness_identity():
    # the swarm's fitness min(rate_a, eps rate_b) is eps zeta
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        scn = random_scenario(rng)
        eps = scn.access_weight.item()
        zeta, rate_a, rate_b, throughput = evaluate(scn, random_feasible_allocation(rng, scn))
        assert throughput == pytest.approx(rate_a + rate_b, rel=1e-12)
        fitness = min(rate_a, eps * rate_b)
        scale = max(abs(fitness), 1e-9)
        assert abs(fitness - eps * zeta) <= 1e-9 * scale


def test_rates_nonnegative_on_feasible_points():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        scn = random_scenario(rng)
        alloc = random_feasible_allocation(rng, scn)
        assert validate(scn, alloc) == []
        _, rate_a, rate_b, _ = evaluate(scn, alloc)
        assert rate_a >= 0.0
        assert rate_b >= 0.0


def test_access_rate_strictly_increasing_without_overlap():
    scn = make_scenario()
    rng = np.random.default_rng(9)
    for _ in range(1000):
        p = rng.uniform(0.1, 9.0)
        w = rng.uniform(1e5, 19e6)
        base = evaluate(scn, (p, 0.0, w, 1e6))[1]
        assert evaluate(scn, (p * rng.uniform(1.01, 2.0), 0.0, w, 1e6))[1] > base
        assert evaluate(scn, (p, 0.0, w * rng.uniform(1.01, 1.05), 1e6))[1] > base


def test_access_rate_midpoint_concavity():
    scn = make_scenario()
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p1, p2 = rng.uniform(0.0, 10.0, 2)
        w1, w2 = rng.uniform(1e4, 20e6, 2)
        f1 = evaluate(scn, (p1, 0.0, w1, 0.0))[1]
        f2 = evaluate(scn, (p2, 0.0, w2, 0.0))[1]
        mid = evaluate(scn, ((p1 + p2) / 2, 0.0, (w1 + w2) / 2, 0.0))[1]
        scale = max(abs(f1), abs(f2), 1.0)
        assert mid >= (f1 + f2) / 2 - 1e-9 * scale


def test_rates_depend_on_duplex_only_through_factors():
    # link_rates of a build_scenarios batch at airtime hertz v = alpha_o w is the paper's rate
    # of each mode at w hertz, by reference_rate with both factors, the physical density and
    # the physical channel gains: the batch's bandwidths are the band's times alpha_o alpha_1,
    # the same for both modes, and its gains the channel gains over the density times 1 / alpha_o
    for alpha_o, alpha_1 in PAPER_DUPLEX_FACTORS.values():
        assert alpha_o * alpha_1 == 0.5
    rng = np.random.default_rng(17)
    for _ in range(200):
        cfg = ExperimentConfig(total_bandwidth_mhz=rng.uniform(5.0, 100.0),
                               noise_density_dbm_hz=rng.uniform(-180.0, -150.0),
                               interference_density_dbm_hz=rng.uniform(-180.0, -150.0))
        duplex = str(rng.choice(["FDD", "TDD"]))
        overlap_mhz = cfg.total_bandwidth_mhz * float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        power_dbm = rng.uniform(30.0, 60.0)
        altitude_km = rng.uniform(500.0, 1500.0)
        batch = build_scenarios(cfg, [(power_dbm, overlap_mhz, duplex, altitude_km, rng.uniform(0.02, 1.0))])
        beta_ue, beta_bs = channel_gains(cfg, altitude_km)
        alpha_o, alpha_1 = PAPER_DUPLEX_FACTORS[duplex]
        dens = dbm_to_watts(cfg.noise_density_dbm_hz) + dbm_to_watts(cfg.interference_density_dbm_hz)
        w_total, w_o = cfg.total_bandwidth_mhz * 1e6, overlap_mhz * 1e6
        # a feasible allocation in hertz: w_a in [alpha_1 w_o, alpha_1 W], w_b the rest of alpha_1 (W + w_o)
        p_ue, p_bs = rng.uniform(0.0, 0.5 * dbm_to_watts(power_dbm), 2)
        w_a = alpha_1 * rng.uniform(w_o, w_total)
        w_b = alpha_1 * (w_total + w_o) - w_a
        expected_a = reference_rate(
            alpha_o, alpha_1, p_ue, beta_ue, w_a, p_bs, w_b, dens, w_o,
        )
        expected_b = reference_rate(
            alpha_o, alpha_1, p_bs, beta_bs, w_b, p_ue, w_a, dens, w_o,
        )
        rates = link_rates(batch, [[[p_ue]], [[p_bs]]], [[[w_a * alpha_o]], [[w_b * alpha_o]]])
        rate_a, rate_b = rates.ravel().tolist()
        assert rate_a == pytest.approx(expected_a, rel=1e-12, abs=1e-9)
        assert rate_b == pytest.approx(expected_b, rel=1e-12, abs=1e-9)


def test_link_rates_batch_rows_equal_single_scenarios():
    rng = np.random.default_rng(41)
    scns = [random_scenario(rng) for _ in range(12)]
    scns += [make_scenario(), make_scenario(overlap_bandwidth=40e6, duplex="TDD")]
    assert {s.overlap_bandwidth.item() > 0.0 for s in scns} == {True, False}
    alloc = np.array([random_feasible_allocation(rng, s) for s in scns for _ in range(6)])
    alloc = alloc.reshape(len(scns), 6, 4)
    alloc[:, 0, 3] = 0.0  # w_b = 0: zero access rate only where the links overlap
    alloc[:, 1, 2] = 0.0
    batch = stack(scns)
    planes = np.moveaxis(alloc, -1, 0)  # (4, S, 6): p_ue, p_bs, w_a, w_b
    rate_a, rate_b = link_rates(batch, planes[:2], planes[2:])
    for s, scn in enumerate(scns):
        (alone_a,), (alone_b,) = link_rates(scn, planes[:2, s:s + 1], planes[2:, s:s + 1])
        assert np.array_equal(rate_a[s], alone_a)
        assert np.array_equal(rate_b[s], alone_b)
        assert (rate_a[s, 0] > 0.0) == (scn.overlap_bandwidth == 0.0)


def test_link_rates_on_broadcast_axes_equal_materialised_inputs():
    # (7, 1) powers against (1, 9) bandwidths
    rng = np.random.default_rng(61)
    p_ue = rng.uniform(0.0, 10.0, (7, 1))
    p_ue[0] = 0.0
    w_a = rng.uniform(0.0, 40e6, (1, 9))
    w_a[0, :2] = 0.0
    p = np.stack((p_ue, 10.0 - p_ue))
    w = np.stack((w_a, w_a[:, ::-1]))  # zero bandwidths at both ends of the row
    scns = [make_scenario(), make_scenario(overlap_bandwidth=8e6, duplex="TDD")]
    scns += [random_scenario(rng) for _ in range(5)]
    # the batch of seven scenarios takes one row of powers each
    for scn in (*scns[:2], stack(scns)):
        lazy = link_rates(scn, p, w)
        eager = link_rates(scn, *np.broadcast_arrays(p, w))
        assert lazy.shape == (2, 7, 9)
        assert np.array_equal(lazy, eager)


def test_link_rates_take_pairs_of_three_axes():
    scn = make_scenario()
    p, w = np.full((2, 1, 3), 1.0), np.full((2, 1, 3), 1e6)
    assert link_rates(scn, p, w).shape == (2, 1, 3)
    for bad in (np.ones((3, 1, 3)), np.ones((1, 1, 3)), np.ones((0, 1, 3)), np.ones(2), np.ones((2, 3)),
                np.ones((2, 1, 1, 3)), [1.0, 2.0]):
        with pytest.raises(ValueError, match="link pairs must be"):
            link_rates(scn, bad, w)
        with pytest.raises(ValueError, match="link pairs must be"):
            link_rates(scn, p, bad)


# Values that meet a fallback of link_rates: zeros of both signs, negatives,
# NaN, infinities and subnormals, positive bandwidths whose noise underflows to 0.
_SUBNORMALS = (5e-324, 1e-310, 1e-305)
_FALLBACK_VALUES = (0.0, -0.0, -3.0, math.nan, math.inf, -math.inf, *_SUBNORMALS)


@st.composite
def rate_kernel_inputs(draw, pairs: int = 2):
    """A batch of 0 to 4 rows, orthogonal, overlapped or a mix, and pairs
    link pairs (by default a power pair and a bandwidth pair), each of one
    shape drawn for the pair, whose links broadcast against its (S, 1)
    columns. Each pair is all positive, or mixes in subnormals or any of
    _FALLBACK_VALUES, so that calls take the plain path and the masked one."""
    rows = st.tuples(st.sampled_from((0.0, 0.0, 5e-324, 4e6, 40e6)), st.sampled_from(tuple(DUPLEX_FACTORS)))
    size, columns = draw(st.sampled_from((1, 2, 3, 4, 0))), draw(st.sampled_from((1, 2, 3, 1, 2, 3, 0)))
    batch = stack([make_scenario(overlap_bandwidth=w_o, duplex=duplex)
                   for w_o, duplex in draw(st.lists(rows, min_size=size, max_size=size))])
    shapes = ((1, 1), (1, columns), (size, 1), (size, columns))
    positive = st.floats(1e-3, 1e9)
    kinds = st.sampled_from((positive, positive, positive | st.sampled_from(_SUBNORMALS),
                             positive | st.sampled_from(_FALLBACK_VALUES)))
    return batch, [draw(arrays(np.float64, (2, *draw(st.sampled_from(shapes))), elements=draw(kinds)))
                   for _ in range(pairs)]


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(rate_kernel_inputs())
def test_link_rates_equal_the_masked_kernel_bit_for_bit(case):
    batch, (p, w) = case
    with np.errstate(all="ignore"):
        got, want = link_rates(batch, p, w), reference_link_rates(batch, *p, *w)
    assert got.shape == (2, *np.broadcast_shapes(batch.total_power.shape, p.shape[1:], w.shape[1:]))
    for rate, reference in zip(got, want):
        assert rate.shape == reference.shape and rate.dtype == reference.dtype
        assert np.array_equal(rate, reference, equal_nan=True)
        assert np.array_equal(np.signbit(rate), np.signbit(reference))



@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(rate_kernel_inputs(pairs=4))
def test_a_bandwidth_stage_equals_the_masked_kernel_at_every_power_pair(case):
    # one function of the powers serves every call: p1, p2, p3, then p1 again; each
    # call returns a new array, which no later call writes
    batch, (w, *powers) = case
    kept = []
    with np.errstate(all="ignore"):
        rates = rate_kernel(batch)(w)
        for p in (*powers, powers[0]):
            got, want = rates(p), reference_link_rates(batch, *p, *w)
            assert got.shape == (2, *np.broadcast_shapes(batch.total_power.shape, p.shape[1:], w.shape[1:]))
            for rate, reference in zip(got, want):
                assert rate.shape == reference.shape and rate.dtype == reference.dtype
                assert np.array_equal(rate, reference, equal_nan=True)
                assert np.array_equal(np.signbit(rate), np.signbit(reference))
            kept.append((got, want))
    for k, (got, want) in enumerate(kept):
        for rate, reference in zip(got, want):
            assert np.array_equal(rate, reference, equal_nan=True)
            assert np.array_equal(np.signbit(rate), np.signbit(reference))
        others = [w, *powers] + [earlier for earlier, _ in kept[:k]]
        assert not any(np.shares_memory(got, other) for other in others)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(rate_kernel_inputs(pairs=5))
def test_one_rate_kernel_serves_every_bandwidth_pair_and_each_of_those_every_power_pair(case):
    # one kernel's two bandwidth stages, both built before either is called, each
    # called at three power pairs in turn: no stage changes what another returns
    batch, (*bandwidths, p1, p2, p3) = case
    with np.errstate(all="ignore"):
        kernel = rate_kernel(batch)
        stages = [kernel(w) for w in bandwidths]
        for p in (p1, p2, p3):
            for rates, w in zip(stages, bandwidths):
                got, want = rates(p), reference_link_rates(batch, *p, *w)
                assert got.shape == (2, *np.broadcast_shapes(batch.total_power.shape, p.shape[1:], w.shape[1:]))
                for rate, reference in zip(got, want):
                    assert rate.shape == reference.shape and rate.dtype == reference.dtype
                    assert np.array_equal(rate, reference, equal_nan=True)
                    assert np.array_equal(np.signbit(rate), np.signbit(reference))


@st.composite
def duplex_twin_inputs(draw):
    """The physical values of 1 to 3 scenarios, orthogonal or overlapped, and
    a power pair and a bandwidth pair in hertz of shape (2, S, N). Values lie
    within the config ranges and each entry is 0 or within them too, so that
    no intermediate of the kernel is subnormal or overflows."""
    size, columns = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    fraction = st.sampled_from((0.0, 0.5, 1.0)) | st.floats(1e-6, 1.0)

    def column(entries):
        return draw(st.lists(entries, min_size=size, max_size=size))

    bandwidth = column(st.floats(1e3, 1e11))
    values = dict(
        total_power=column(st.floats(1e-13, 1e7)),
        total_bandwidth=bandwidth,
        overlap_bandwidth=[w * draw(fraction) for w in bandwidth],
        density=column(st.floats(1e-28, 2e-8)),
        access_weight=column(st.floats(1e-6, 1.0)),
        beta_ue=column(st.floats(1e-85, 1e15)),
        beta_bs=column(st.floats(1e-85, 1e15)),
    )

    def pair(entries):
        return draw(arrays(np.float64, (2, size, columns), elements=entries))

    return values, pair(st.just(0.0) | st.floats(1e-13, 1e7)), pair(st.just(0.0) | st.floats(1e-3, 1e11))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(duplex_twin_inputs())
def test_a_tdd_scenario_rates_as_its_fdd_twin_at_half_power(case):
    # TDD at powers p over bandwidths w (hertz) is FDD at p / 2 over w / 2, to the bit
    values, p, w = case
    tdd = scenario("TDD", **values)
    fdd = scenario("FDD", **{**values, "total_power": np.divide(values["total_power"], 2.0)})
    got = link_rates(tdd, p, w / hertz_per_unit("TDD"))
    assert np.array_equal(got, link_rates(fdd, p / 2.0, w / 2.0 / hertz_per_unit("FDD")))


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(total_power=0.0)
    with pytest.raises(ValueError):
        make_scenario(overlap_bandwidth=50e6)
    with pytest.raises(ValueError):
        make_scenario(access_weight=0.0)
    with pytest.raises(ValueError):
        make_scenario(access_weight=1.5)
    # the batch holds no density, only the gains over it: a channel gain that is zero,
    # negative or NaN makes a gain that is not positive, and so does a negative or NaN density
    for value in (0.0, -1e-20, math.nan):
        for name in ("beta_ue", "beta_bs"):
            with pytest.raises(ValueError, match="^channel gains must be positive$"):
                make_scenario(**{name: value})
    for density in (-1e-20, math.nan):
        with pytest.raises(ValueError, match="^channel gains must be positive$"):
            make_scenario(density=density)


def test_allocation_rejects_negative_fields():
    # evaluate and validate share one check of the four numbers: a negative or NaN entry raises
    scn = make_scenario()
    for view in (evaluate, validate):
        for k, name in enumerate(("p_ue", "p_bs", "w_a", "w_b")):
            for bad in (-1.0, -0.5e-300, math.nan, -math.inf):
                alloc = [1.0, 1.0, 10e6, 10e6]
                alloc[k] = bad
                with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
                    view(scn, alloc)
        assert view(scn, (0.0, -0.0, 0.0, 0.0)) is not None  # zeros of both signs are allowed


def test_validate_power_budget_violation():
    scn = make_scenario()
    alloc = (5.005, 5.005, 10e6, 10e6)  # 1.001 * budget
    assert validate(scn, alloc) == ["1a"]


def test_validate_feasible_boundaries():
    batch = make_scenario(overlap_bandwidth=10e6)
    scn = scalars(batch)
    tight = (5.0, 5.0, scn.total_bandwidth, scn.overlap_bandwidth)
    assert validate(batch, tight) == []
    half = (scn.total_bandwidth + scn.overlap_bandwidth) / 2.0
    assert validate(batch, (5.0, 5.0, half, half)) == []


def test_validate_flags_each_constraint():
    batch = make_scenario(overlap_bandwidth=10e6)
    scn = scalars(batch)
    w_hi = scn.total_bandwidth
    w_lo = scn.overlap_bandwidth
    assert "1b" in validate(batch, (1.0, 1.0, w_hi, w_hi))
    assert "1c" in validate(batch, (1.0, 1.0, 1.2 * w_hi, w_lo))
    assert "1d" in validate(batch, (1.0, 1.0, w_hi, 0.5 * w_lo))


def test_one_scenario_views_take_one_row():
    # each view is the row of its _many call at a one-row batch, as Python values;
    # a batch of more rows is not one scenario, and a negative or NaN entry raises
    rng = np.random.default_rng(23)
    for _, scn in reference_scenarios():
        alloc = random_feasible_allocation(rng, scn)
        many = np.array([alloc])
        got = evaluate(scn, alloc)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert got == tuple(evaluate_many(scn, many)[0].tolist())
        flags = validate_many(scn, many)[0].tolist()
        assert validate(scn, alloc) == [name for name, bad in zip(CONSTRAINTS, flags) if bad]
    two = stack([make_scenario(), make_scenario(duplex="TDD")])
    alloc = (1.0, 1.0, 10e6, 10e6)
    for view in (evaluate, validate):
        with pytest.raises(ValueError):
            view(two, alloc)
        assert view(two.take(1), alloc) == view(make_scenario(duplex="TDD"), alloc)
        for bad in ((-1.0, 1.0, 10e6, 10e6), (1.0, 1.0, math.nan, 10e6)):
            with pytest.raises(ValueError, match="must be nonnegative"):
                view(make_scenario(), bad)


def test_many_calls_take_one_allocation_per_scenario():
    # an allocation array that is not (S, 4) raises, naming both shapes: (1, 4) against three
    # rows would otherwise broadcast to three rows, and (2, 4) fail deep inside numpy
    rng = np.random.default_rng(5)
    scns = [scn for _, scn in reference_scenarios()[:3]]
    batch, alloc = stack(scns), np.array([random_feasible_allocation(rng, scn) for scn in scns])
    for many in (evaluate_many, validate_many):
        assert many(batch, alloc).shape == (3, 4)
        for bad in (alloc[:1], alloc[:2], np.vstack((alloc, alloc[:1])), alloc[:, :3], alloc[0]):
            with pytest.raises(ValueError, match=re.escape(f"must have shape (3, 4), got {bad.shape}")):
                many(batch, bad)


def test_validate_many_flags_nan_entries():
    # a NaN power fails 1a, a NaN bandwidth 1b-1d: each constraint is what must hold, negated
    scn = make_scenario(overlap_bandwidth=10e6)
    alloc = np.array([[1.0, 1.0, 12e6, 12e6]])
    assert not validate_many(scn, alloc).any()
    want = {0: [True, False, False, False], 1: [True, False, False, False],
            2: [False, True, True, True], 3: [False, True, True, True]}
    for k, flags in want.items():
        bad = alloc.copy()
        bad[0, k] = math.nan
        assert validate_many(scn, bad).tolist() == [flags]
    assert validate_many(scn, np.full((1, 4), math.nan)).tolist() == [[True] * 4]


def test_validate_many_equals_the_reference_on_random_finite_rows():
    # the negated form keeps every flag of the first-written checks on finite rows,
    # near the slack boundaries too
    rng = np.random.default_rng(29)
    scns = [random_scenario(rng) for _ in range(1000)]
    alloc = np.array([random_feasible_allocation(rng, scn) for scn in scns])
    alloc *= rng.choice([1.0, 1.0 + 1e-6, 1.0 + 2e-6, 0.5, 2.0], size=alloc.shape)
    alloc[::7] *= -1e-7 * rng.random((len(alloc[::7]), 4)) + 1.0
    alloc[3::11, :2] *= -1.0
    flags = validate_many(stack(scns), alloc)
    assert flags.any(axis=0).all() and not flags.all(axis=0).any()
    for scn, row, got in zip(scns, alloc.tolist(), flags.tolist()):
        assert [name for name, bad in zip(CONSTRAINTS, got) if bad] == reference_validate(scn, *row)


def test_scenarios_are_frozen():
    scn = make_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.total_power = np.array([[20.0]])


def test_stack_joins_batches_row_by_row():
    rng = np.random.default_rng(7)
    scns = [random_scenario(rng) for _ in range(5)]
    joined = stack([stack(scns[:2]), scns[2], stack(scns[3:])])
    assert len(joined) == 5 and len(stack([])) == 0
    for field in dataclasses.fields(ScenarioBatch):
        column = getattr(joined, field.name)
        assert column.shape == (5, 1)
        assert np.array_equal(column, np.concatenate([getattr(scn, field.name) for scn in scns]))
    for field in dataclasses.fields(ScenarioBatch):
        assert getattr(stack([]), field.name).shape == (0, 1)


def test_take_with_an_index_gives_its_one_row_batch():
    rng = np.random.default_rng(11)
    scns = [random_scenario(rng) for _ in range(4)]
    batch = stack(scns)
    for index in (0, 2, -1, np.int64(1)):
        for row in (batch.take(index), batch.take([index])):
            assert len(row) == 1
            for field in dataclasses.fields(ScenarioBatch):
                assert np.array_equal(getattr(row, field.name), getattr(scns[index], field.name))
    # the one-row batch solves as the scenario alone
    orthogonal = stack([random_scenario(rng, orthogonal=True) for _ in range(3)])
    alloc, iterations, converged = solve_orthogonal_many(orthogonal.take(1))
    assert alloc.shape == (1, 4) and iterations.shape == converged.shape == (1,)
    assert solve_orthogonal(orthogonal.take(1)) == solve_orthogonal(orthogonal.take([1]))


def test_take_gives_the_columns_of_the_batch_built_with_checks():
    # take skips the checks its rows passed once; the batch built from the same rows runs
    # them, and both hold the same columns, for every kind of row selection
    rng = np.random.default_rng(13)
    batch = stack([random_scenario(rng) for _ in range(5)])
    mask = np.array([True, False, True, True, False])
    for rows in (slice(1, 4), slice(None, None, -2), [4, 0, 0], mask, 3, np.int64(-1), []):
        taken = batch.take(rows)
        checked = ScenarioBatch(**{f.name: getattr(batch, f.name)[rows].reshape(-1, 1)
                                   for f in dataclasses.fields(ScenarioBatch)})
        assert type(taken) is ScenarioBatch and len(taken) == len(checked)
        for field in dataclasses.fields(ScenarioBatch):
            assert np.array_equal(getattr(taken, field.name), getattr(checked, field.name))
            assert getattr(taken, field.name).shape == (len(checked), 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            taken.total_power = checked.total_power


def test_scenario_batch_rejects_a_column_that_is_not_s_by_1():
    # two rows, S being total_power's: a (3, 1) total_power makes the next column wrong
    two = stack([make_scenario()] * 2)
    for field in dataclasses.fields(ScenarioBatch):
        for shape in [(), (2,), (2, 2), (3, 1), (1, 2, 1)]:
            columns = {f.name: getattr(two, f.name) for f in dataclasses.fields(ScenarioBatch)}
            columns[field.name] = np.full(shape, columns[field.name][0, 0])
            named = "total_bandwidth" if (field.name, shape) == ("total_power", (3, 1)) else field.name
            with pytest.raises(ValueError, match=rf"^{named} must have shape \(S, 1\)"):
                ScenarioBatch(**columns)
