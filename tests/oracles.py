"""Independent reference computations and shared samplers for the tests.

The Bessel oracle is a plain alternating power series evaluated in
extended precision; it shares no code with the library implementation.
The golden-section solver is the exact orthogonal solver as first written,
one scenario at a time in pure Python, kept as the reference for the
batched marginal-cost solver; it compares powers by their logs, so it holds
where a power overflows. The full-grid oracle is the grid oracle as
first written, the whole grid in one rate kernel call and np.argmax, kept as
the reference for the oracle that bisects each column for its peak. The
per-row audit is the audit as first written, one point check, one scenario,
one feasibility check and one scalar evaluation per row, kept as the
reference for the audit that checks all rows as arrays; its feasibility
check and evaluation are the scalar bodies validate and the rate report
once had, on the allocation's floats, so that it shares no code with the
batch checks but the masked rate kernel.
The per-point scenario builder is build_scenarios as it was before it
converted each distinct power once, kept as its reference.
The reference swarm is the swarm as first written, an S x N x 4 tensor
with a strided column per coordinate, a fresh temporary per elementwise
step and one draw call per row and iteration, kept as the reference for
the swarm of contiguous planes, in-place steps and block draws.
The column solver is the exact solver before its link planes, each
per-link quantity an (S, 2) array summed and minimized by reductions over
axis 1, kept as the reference for the solver on (2, S) planes.
The masked rate kernel is link_rates as it was before it skipped its
fallbacks where no input needs them and before it took the links as pairs:
four per-link arrays, each link's rate by its own call of the formulas, every
stand-in and the zero-rate mask applied on every call. It is the bitwise
reference for the kernel, and the other references compute their rates with
it, so that they share no code with the kernel under test.
The mpmath level solves the exact solver's optimality conditions at 40
digits, as the reference for its accuracy. solved_rows turns the arrays of
a batch solver into one row per scenario, for tests that compare rows: the
((p_ue, p_bs, w_a, w_b), iterations, converged) tuple of the one-scenario
solver views, which golden_section_solve and full_grid_oracle return too;
reference_evaluate returns evaluate's (zeta, rate_a, rate_b, throughput).
A scenario is a one-row ScenarioBatch: make_scenario builds one from
floats, stack joins batches row by row into one, and the scalar references
read a scenario's floats through scalars, so that their arithmetic is that
of Python floats. A batch's bandwidths are airtime hertz (see satiab.expcli),
an FDD row's own hertz, and its gains are the channel gains over the
noise-plus-interference density in airtime hertz: scenario divides a duplex
mode's physical channel gains by its physical density over the mode's time
share, physical_values gives them back in units of the density (the model
sees the two only as their ratio), channel_gains computes a config's physical
channel gains, and hertz_per_unit converts a batch's bandwidths to the CSV's
hertz. reference_rate alone computes a rate from the physical values and both
duplex factors, the paper's formula.
The reference command-line parser is main's parser as first written: the
top parser, a shared parent parser of the run options and all four
subparsers, built whatever the command; main must print its help, usage
errors and exit codes, and parse what it parses.
"""

import argparse
import dataclasses
import math
import types
from collections.abc import Sequence

import mpmath as mp
import numpy as np

from satiab import (
    PsoConfig,
    ScenarioBatch,
    bandwidth_limits,
    channel_gain,
    db_to_linear,
    dbm_to_watts,
)
from satiab.allocator import _BELOW_ONE, _MAX_STEPS, _inversion_power, _log_marginal_cost
from satiab.allocator import _SolvedRow as SolvedRow
from satiab.expcli import _RANGES, _SOLVERS, DUPLEX_FACTORS, ExperimentConfig, _float_cells, build_scenario
from satiab.expcli import _cmd_audit, _cmd_solve, _cmd_sweep, run_overlap_sweep, run_power_sweep
from satiab.ratemodel import _LN2


def j1_power_series(x: float, terms: int = 80, dps: int = 50) -> float:
    """Sum_m (-1)^m / (m! (m+1)!) (x/2)^(2m+1) at extended precision."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        total = mp.mpf(0)
        for m in range(terms):
            total += (-1) ** m * (xm / 2) ** (2 * m + 1) / (mp.factorial(m) * mp.factorial(m + 1))
        return float(total)


J1_FIRST_ZERO = 3.8317059702075123


def reference_scenarios():
    """The twelve no-overlap scenarios spanned by the default config:
    transmit power 40/45/50 dBm, both duplex modes, both altitudes."""
    cfg = ExperimentConfig()
    out = []
    for power_dbm in (40.0, 45.0, 50.0):
        for duplex in ("FDD", "TDD"):
            for altitude_km in (600.0, 1200.0):
                scn = build_scenario(dataclasses.replace(
                    cfg,
                    total_power_dbm=power_dbm,
                    duplex=duplex,
                    altitude_km=altitude_km,
                    overlap_mhz=0.0,
                    access_weight=0.1,
                ))
                out.append((f"P{power_dbm:g}dBm-{duplex}-{altitude_km:g}km", scn))
    return out


def scenario(duplex: str = "FDD", **values) -> ScenarioBatch:
    """The batch of scenarios of duplex mode duplex given by physical values,
    floats for one row or columns of (S, 1) floats: the batch's columns but its
    gains, with the bandwidths in airtime hertz, and the channel gains beta_ue and
    beta_bs and the density noise plus interference in W/Hz. Each gain is
    beta / (density / alpha_o), as build_scenarios computes it."""
    columns = {name: np.array(value, dtype=float).reshape(-1, 1) for name, value in values.items()}
    density = columns.pop("density") * DUPLEX_FACTORS[duplex]
    for link in ("ue", "bs"):
        columns[f"gain_{link}"] = columns.pop(f"beta_{link}") / density
    return ScenarioBatch(**columns)


def physical_values(scn: ScenarioBatch, duplex: str) -> dict:
    """Physical values of a batch of duplex mode duplex, bandwidths in airtime hertz,
    the inverse of scenario: the density is 1 W/Hz and the channel gains are each
    gain times 1 / alpha_o, their ratio to it, exactly. So
    scenario(duplex, **physical_values(scn, duplex)) holds the columns of scn."""
    values = {f.name: getattr(scn, f.name) for f in dataclasses.fields(scn)}
    for link in ("ue", "bs"):
        values[f"beta_{link}"] = values.pop(f"gain_{link}") * DUPLEX_FACTORS[duplex]
    return values | {"density": 1.0}


def hertz_per_unit(duplex: str) -> float:
    """The CSV's hertz per airtime hertz, the unit of the bandwidths of a batch
    of duplex mode duplex in its allocations and its columns: 1 / alpha_o, so a
    solver's w_a is the CSV's w_a_hz / hertz_per_unit(duplex). Bandwidths are
    compared through it."""
    return DUPLEX_FACTORS[duplex]


def stack(batches: Sequence[ScenarioBatch]) -> ScenarioBatch:
    """The rows of batches, in order, as one batch; stack([]) is the empty batch."""
    return ScenarioBatch(*(np.concatenate([getattr(b, f.name) for b in batches] or [np.empty((0, 1))])
                           for f in dataclasses.fields(ScenarioBatch)))


def make_scenario(**overrides) -> ScenarioBatch:
    """The default config's scenario at twice its band (each link's cap 40 MHz of
    airtime), with overrides of its floats or duplex."""
    base = dict(
        total_power=10.0,
        total_bandwidth=40e6,
        overlap_bandwidth=0.0,
        density=3.981071705534973e-21 + 3.981071705534973e-21,
        access_weight=0.1,
        duplex="FDD",
        beta_ue=1.5734726039155016e-12,
        beta_bs=1.3589805953889354e-09,
    )
    return scenario(**{**base, **overrides})


def scalars(scn: ScenarioBatch) -> types.SimpleNamespace:
    """The floats of a one-row batch: each column's .item()."""
    return types.SimpleNamespace(**{f.name: getattr(scn, f.name).item() for f in dataclasses.fields(scn)})


def random_values(rng, orthogonal: bool = False) -> dict:
    """The physical values and duplex mode of a plausible random scenario, scenario's arguments."""
    total_bandwidth = 10.0 ** rng.uniform(6.5, 8.0)
    if orthogonal or rng.random() < 0.4:
        overlap = 0.0
    else:
        overlap = rng.uniform(0.0, 1.0) * total_bandwidth
    return dict(
        total_power=10.0 ** rng.uniform(0.0, 2.0),
        total_bandwidth=total_bandwidth,
        overlap_bandwidth=overlap,
        density=10.0 ** rng.uniform(-21.0, -19.5) + 10.0 ** rng.uniform(-21.0, -19.5),
        access_weight=rng.uniform(0.02, 1.0),
        duplex="FDD" if rng.random() < 0.5 else "TDD",
        beta_ue=10.0 ** rng.uniform(-13.0, -11.0),
        beta_bs=10.0 ** rng.uniform(-11.0, -8.5),
    )


def random_scenario(rng, orthogonal: bool = False) -> ScenarioBatch:
    """A physically plausible random scenario for property tests."""
    return scenario(**random_values(rng, orthogonal))


_CORNER_KEYS = (
    "total_bandwidth_mhz",
    "access_weight",
    "total_power_dbm",
    "noise_density_dbm_hz",
    "interference_density_dbm_hz",
    "satellite_antenna_gain_dbi",
    "bs_antenna_gain_dbi",
    "ue_antenna_gain_dbi",
    "carrier_frequency_ghz",
    "aperture_radius_m",
    "altitude_km",
)


def corner_config(rng) -> ExperimentConfig:
    """A config whose scenario keys each sit at one end of the range the
    config accepts, or uniformly between, with no, half or full overlap and
    either duplex mode. Near these corners an SINR can be so small that 1 + SINR rounds to 1."""
    values = {}
    for name in _CORNER_KEYS:
        lo, hi = _RANGES[name]
        values[name] = float(rng.choice([lo, hi, rng.uniform(lo, hi)]))
    values["overlap_mhz"] = values["total_bandwidth_mhz"] * float(rng.choice([0.0, 0.5, 1.0]))
    values["duplex"] = str(rng.choice(["FDD", "TDD"]))
    return dataclasses.replace(ExperimentConfig(), **values)


def corner_scenario(rng) -> ScenarioBatch:
    """The scenario of a corner_config draw."""
    return build_scenario(corner_config(rng))


def random_feasible_allocation(rng, scn: ScenarioBatch):
    """Uniformly drawn raw values projected onto the feasible set."""
    scn = scalars(scn)
    band_total = scn.total_bandwidth + scn.overlap_bandwidth
    w_lo = scn.overlap_bandwidth
    w_hi = scn.total_bandwidth
    p1, p2 = rng.random(2)
    p_scale = scn.total_power * rng.random() / (p1 + p2 + 1e-300)
    w1, w2 = rng.random(2)
    w_scale = band_total / (w1 + w2 + 1e-300)
    w_a = min(max(w1 * w_scale, w_lo), w_hi)
    w_b = min(max(w2 * w_scale, w_lo), w_hi)
    return p1 * p_scale, p2 * p_scale, w_a, w_b


def reference_evaluate(scn: ScenarioBatch, p_ue, p_bs, w_a, w_b) -> tuple[float, float, float, float]:
    """(zeta, rate_a, rate_b, throughput) of one allocation, given as floats,
    from the masked rate kernel's floats and scalar arithmetic, as the rate
    report once computed it."""
    rate_a, rate_b = (rate.item() for rate in reference_link_rates(scn, p_ue, p_bs, w_a, w_b))
    return min(rate_a / scalars(scn).access_weight, rate_b), rate_a, rate_b, rate_a + rate_b


def reference_validate(scn: ScenarioBatch, p_ue, p_bs, w_a, w_b) -> list[str]:
    """validate as first written, one constraint at a time on the floats of
    an allocation, with the nonnegative powers of 1a."""
    slack = 1e-6
    p_cap = scalars(scn).total_power
    band_cap, w_lo, w_hi = (limit.item() for limit in bandwidth_limits(scn))
    violated = []
    if p_ue + p_bs > p_cap + slack * p_cap or min(p_ue, p_bs) < -slack * p_cap:
        violated.append("1a")
    if w_a + w_b > band_cap + slack * band_cap:
        violated.append("1b")
    if w_a > w_hi + slack * w_hi or w_b > w_hi + slack * w_hi:
        violated.append("1c")
    if w_a < w_lo - slack * w_hi or w_b < w_lo - slack * w_hi:
        violated.append("1d")
    return violated


def solved_rows(solve_many, scns, *args) -> list[SolvedRow]:
    """solve_many(batch of scns, *args) as one ((p_ue, p_bs, w_a, w_b),
    iterations, converged) tuple of Python values per row."""
    alloc, iterations, converged = solve_many(stack(scns), *args)
    assert alloc.shape == (len(scns), 4) and iterations.shape == converged.shape == (len(scns),)
    return list(zip(map(tuple, alloc.tolist()), iterations.tolist(), converged.tolist()))


def level(scn: ScenarioBatch, solved: SolvedRow) -> float:
    """The max-min level zeta of a solved row's allocation under scn, by reference_evaluate."""
    return reference_evaluate(scn, *solved[0])[0]


def reference_link_rates(batch: ScenarioBatch, p_ue, p_bs, w_a, w_b):
    """link_rates on four per-link arrays, each rate of the broadcast shape of
    what it depends on, with its fallbacks applied on every call: the stand-ins
    for a zero other-link bandwidth and a zero denominator, and the zero-rate mask."""
    w_o = batch.overlap_bandwidth
    # Without overlap in any scenario the interference term is zero;
    # skipping it keeps the large orthogonal grid batches cheap.
    overlapped = np.any(w_o > 0.0)
    p_ue, p_bs, w_a, w_b = (np.asarray(x, dtype=float) for x in (p_ue, p_bs, w_a, w_b))

    def one_way(p_own, gain, w_own, p_other, w_other):
        # the gain is over the density, so the noise term is the bandwidth itself
        if overlapped:
            positive = w_other > 0.0
            # A scenario with w_o = 0 adds exactly zero interference, so the
            # other link's bandwidth may be zero there.
            other_ok = positive | (w_o == 0.0)
            interf = p_other * gain * w_o / np.where(positive, w_other, 1.0)
            den = w_own + interf
        else:
            other_ok = True
            den = w_own
        active = (w_own > 0.0) & other_ok
        sinr = p_own * gain / np.where(den > 0.0, den, 1.0)
        rate = np.log1p(sinr) * (w_own / _LN2)
        return np.where(active, rate, 0.0)

    rate_a = one_way(p_ue, batch.gain_ue, w_a, p_bs, w_b)
    rate_b = one_way(p_bs, batch.gain_bs, w_b, p_ue, w_a)
    return rate_a, rate_b


# The time share alpha_o and bandwidth share alpha_1 of each duplex mode, as the paper
# states them: FDD transmits full-time over half the band, TDD half-time over all of it.
PAPER_DUPLEX_FACTORS = {"FDD": (1.0, 0.5), "TDD": (0.5, 1.0)}


def reference_rate(alpha_o, alpha_1, p_own, beta, w_own, p_other, w_other, dens, w_o):
    """Single-link rate written out directly, for cross-checking: the paper's
    formula in hertz, with time share alpha_o, bandwidth share alpha_1 and the
    physical density dens."""
    if w_own <= 0.0:
        return 0.0
    interference = alpha_1 * p_other * beta * w_o / w_other if w_o > 0.0 else 0.0
    return alpha_o * w_own / _LN2 * math.log1p(p_own * beta / (dens * w_own + interference))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo, hi, rel_tol=1e-9, max_iter=200):
    """Minimize a unimodal f over [lo, hi]; returns (argmin, min)."""
    span = hi - lo
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if hi - lo <= rel_tol * span:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def golden_section_solve(batch: ScenarioBatch) -> SolvedRow:
    """Exact max-min solution of one orthogonal scenario: bisection on the
    level zeta, golden section over the bandwidth split for the cheapest
    power that delivers eps*zeta and zeta."""
    scn = scalars(batch)
    w_total = scn.total_bandwidth
    p_total = scn.total_power
    eps = scn.access_weight
    zeta_ub = w_total / _LN2 * math.log1p(p_total * scn.gain_bs / w_total)
    w_lo = w_total * 1e-12
    w_hi = w_total * (1.0 - 1e-12)
    log_scale_a, log_scale_b = -math.log(scn.gain_ue), -math.log(scn.gain_bs)

    def cheapest_split(zeta):
        # A link's power for rate k / ln2 over bandwidth w is
        # (2**x - 1) w / gain = e**(y + log(1 / gain)) (-expm1(-y)) w,
        # with y = x ln2 = k / w. The split minimizes the log of the links'
        # sum with the larger exponential factored out, which stays finite
        # and ordered where 2**x overflows. Returns that log, the access
        # bandwidth of the split and the two powers.
        if zeta <= 0.0:
            return -math.inf, 0.5 * w_total, 0.0, 0.0
        k_a, k_b = eps * zeta * math.log(2.0), zeta * math.log(2.0)

        def log_total(w_a):
            w_b = w_total - w_a
            y_a, y_b = k_a / w_a, k_b / w_b
            e_a, e_b = y_a + log_scale_a, y_b + log_scale_b
            top = e_a if e_a > e_b else e_b
            return top + math.log(-math.expm1(-y_a) * w_a * math.exp(e_a - top)
                                  - math.expm1(-y_b) * w_b * math.exp(e_b - top))

        w_a, log_needed = _golden_section(log_total, w_lo, w_hi)
        p_a, p_b = (math.exp(k / w + log_scale + math.log(-math.expm1(-k / w) * w))
                    for k, w, log_scale in ((k_a, w_a, log_scale_a), (k_b, w_total - w_a, log_scale_b)))
        return log_needed, w_a, p_a, p_b

    lo, hi = 0.0, zeta_ub
    converged = False
    iterations = 0
    for _ in range(200):
        if hi - lo <= 1e-13 * max(zeta_ub, 1.0):
            converged = True
            break
        iterations += 1
        mid = 0.5 * (lo + hi)
        log_needed, _, _, _ = cheapest_split(mid)
        if log_needed <= math.log(p_total):
            lo = mid
        else:
            hi = mid

    _, w_a, p_a, p_b = cheapest_split(lo)
    return (p_a, p_b, w_a, w_total - w_a), iterations, converged


def _reference_split_share(y_whole, log_gain_ratio, share):
    """_split_share on (S, 2) columns of y_whole and (S, 1) columns of the
    rest, as solve_orthogonal_many's split was written before the planes."""
    lo, hi = np.zeros_like(share), np.ones_like(share)
    done = np.zeros(share.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        pair = np.concatenate((share, 1.0 - share), axis=1)
        y = y_whole / pair
        log_h, slope = _log_marginal_cost(y)
        f = log_h[:, :1] - log_h[:, 1:] + log_gain_ratio
        lo, hi = np.where(f > 0.0, share, lo), np.where(f > 0.0, hi, share)
        new = share + f / (slope * y / pair).sum(axis=1, keepdims=True)
        newton = (new > lo) & (new < hi) | (new == share)
        new = np.minimum(np.where(newton, new, 0.5 * (lo + hi)), _BELOW_ONE)
        small = np.abs(new - share) <= 1e-8 * np.minimum.reduce(pair, axis=1, keepdims=True)
        share, done = np.where(done, share, new), done | newton & small | (new == share)
        if done.all():
            break
    return share


def reference_solve_orthogonal_many(batch: ScenarioBatch):
    """solve_orthogonal_many with one (S, 2) column pair per link quantity
    (access, then backhaul), summed and minimized by numpy reductions over
    axis 1, and (S, 1) columns per scenario quantity."""
    if (batch.overlap_bandwidth != 0.0).any():
        raise ValueError("solve_orthogonal requires overlap_bandwidth == 0")
    eps = batch.access_weight
    p_total = batch.total_power
    w_total = bandwidth_limits(batch)[0]
    gain = np.hstack((batch.gain_ue, batch.gain_bs))
    log_gain_ratio = np.log(batch.gain_bs / batch.gain_ue)
    rate_per_zeta = np.hstack((eps, np.ones_like(eps)))
    y_per_zeta = rate_per_zeta * _LN2 / w_total

    rate_a, zeta_ub = reference_link_rates(batch, p_total, p_total, w_total, w_total)
    low_snr = p_total / (_LN2 * (rate_per_zeta / gain).sum(axis=1, keepdims=True))
    zeta = np.minimum(np.minimum(zeta_ub, np.where(rate_a > 0.0, rate_a / eps, np.inf)), low_snr)
    zeta = np.where(zeta > 0.0, zeta, zeta_ub)
    lo, hi = np.zeros_like(zeta_ub), zeta_ub.copy()
    share = y_per_zeta[:, :1] / y_per_zeta.sum(axis=1, keepdims=True)
    alloc = np.hstack((0.5 * p_total, 0.5 * p_total, 0.5 * w_total, 0.5 * w_total))
    iterations = np.zeros(zeta_ub.shape, dtype=int)
    for _ in range(_MAX_STEPS):
        active = hi - lo > 1e-13 * lo
        if not active.any():
            break
        iterations += active
        rows = slice(None) if active.all() else np.flatnonzero(active)
        z, y_z = zeta[rows], zeta[rows] * y_per_zeta[rows]
        share[rows] = s = _reference_split_share(y_z, log_gain_ratio[rows], share[rows])
        pair = np.concatenate((s, 1.0 - s), axis=1)
        w = pair * w_total[rows]
        p = _inversion_power(z * rate_per_zeta[rows], w, gain[rows])
        spent = p.sum(axis=1, keepdims=True)
        feasible = spent <= p_total[rows]
        lo_s, hi_s = np.where(feasible, z, lo[rows]), np.where(feasible, hi[rows], z)
        lo[rows], hi[rows] = lo_s, hi_s
        alloc[rows] = np.where(feasible, np.concatenate((p, w), axis=1), alloc[rows])
        growth = ((p + w / gain[rows]) * (y_z / pair)).sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.abs(z * np.expm1(np.log(p_total[rows] / spent) * spent / growth))
        half_tol = 0.5e-13 * z
        past = np.maximum(0.125 * step, np.minimum(1e-14 * z, 0.5 * half_tol))
        step = np.where(step <= half_tol, step + past, step)
        new = z + np.where(feasible, step, -step)
        zeta[rows] = np.where((new > lo_s) & (new < hi_s), new, 0.5 * (lo_s + hi_s))

    return alloc, iterations.ravel(), (hi - lo <= 1e-13 * lo).ravel()


def mp_log_marginal_cost(y, dps: int = 40):
    """log h(y) and its derivative y e**y / h(y) at dps digits, with
    h(y) = expm1(y)(y - 1) + y written out as the solver defines it."""
    with mp.workdps(dps):
        y = mp.mpf(y)
        h = mp.expm1(y) * (y - 1) + y
        return mp.log(h), y * mp.exp(y) / h


def mp_orthogonal_level(batch: ScenarioBatch, dps: int = 40):
    """Optimal max-min level of an orthogonal scenario at dps digits, and
    the smaller of the two links' y = rate ln2 / w there.

    At the optimum the bandwidth split makes the links' marginal power
    costs h(y) / gain equal (the condition the exact solver uses) and the
    power that split needs equals the budget. Both conditions are solved
    together by Newton's method at dps digits, in the log of the level and
    the logit of the access share, from the golden-section solution;
    mpmath raises if the residual does not vanish.
    """
    scn = scalars(batch)
    start = golden_section_solve(batch)
    with mp.workdps(dps):
        w_total = mp.mpf(scn.total_bandwidth)
        gains = mp.mpf(scn.gain_ue), mp.mpf(scn.gain_bs)
        rates_per_zeta = mp.mpf(scn.access_weight), mp.mpf(1)

        def links(logit, log_zeta):
            share = 1 / (1 + mp.exp(-logit))
            widths = share * w_total, (1 - share) * w_total
            zeta = mp.exp(log_zeta)
            ys = [r * zeta * mp.log(2) / w for r, w in zip(rates_per_zeta, widths)]
            return widths, ys

        def equal_costs(logit, log_zeta):
            ys = links(logit, log_zeta)[1]
            return (mp_log_marginal_cost(ys[0], dps)[0] - mp.log(gains[0])
                    - mp_log_marginal_cost(ys[1], dps)[0] + mp.log(gains[1]))

        def budget_spent(logit, log_zeta):
            widths, ys = links(logit, log_zeta)
            power = sum(w / g * mp.expm1(y) for w, y, g in zip(widths, ys, gains))
            return mp.log(power / scn.total_power)

        (_, _, w_a, w_b), _, _ = start
        x0 = mp.log(mp.mpf(w_a) / w_b), mp.log(level(batch, start))
        logit, log_zeta = mp.findroot([equal_costs, budget_spent], x0, solver="mdnewton")
        return mp.exp(log_zeta), min(links(logit, log_zeta)[1])


def full_grid(batch: ScenarioBatch, resolution: int):
    """The oracle's power and bandwidth axes, and min(rate_a / eps, rate_b)
    at every point of its resolution x resolution grid, power rows by
    bandwidth columns, from one reference_link_rates call."""
    scn = scalars(batch)
    band_total, w_lo, w_hi = (limit.item() for limit in bandwidth_limits(batch))
    p_grid = np.linspace(0.0, scn.total_power, resolution)
    wa_grid = np.linspace(w_lo, w_hi, resolution)
    p_ue = p_grid[:, None]
    w_a = wa_grid[None, :]
    rate_a, rate_b = reference_link_rates(batch, p_ue, scn.total_power - p_ue, w_a, band_total - w_a)
    return p_grid, wa_grid, np.minimum(rate_a / scn.access_weight, rate_b)


def full_grid_oracle(batch: ScenarioBatch, resolution: int) -> SolvedRow:
    """The grid oracle's search in one piece: every point of the
    resolution x resolution grid in one reference_link_rates call, then np.argmax."""
    scn = scalars(batch)
    band_total = bandwidth_limits(batch)[0].item()
    p_grid, wa_grid, maxmin = full_grid(batch, resolution)

    i, j = divmod(int(np.argmax(maxmin)), resolution)
    p_ue, w_a = float(p_grid[i]), float(wa_grid[j])
    return (p_ue, float(scn.total_power - p_ue), w_a, float(band_total - w_a)), resolution * resolution, True


def row_scenario(cfg: ExperimentConfig, row) -> ScenarioBatch:
    """The scenario of one sweep row, built alone from the config with the
    row's point in place of the config's own; an overlap above the
    bandwidth (a full overlap's 9-digit cell rounded up) is the bandwidth."""
    return build_scenario(dataclasses.replace(
        cfg,
        total_power_dbm=row.power_dbm,
        duplex=row.duplex,
        altitude_km=row.altitude_km,
        overlap_mhz=min(row.overlap_mhz, cfg.total_bandwidth_mhz),
        access_weight=row.access_weight,
    ))


def channel_gains(cfg: ExperimentConfig, altitude_km: float) -> list[float]:
    """The physical channel gains (beta_ue, beta_bs) of cfg's link budget at altitude_km."""
    sat_gain = db_to_linear(cfg.satellite_antenna_gain_dbi)
    aperture, frequency = cfg.aperture_radius_m, cfg.carrier_frequency_ghz * 1e9
    nodes = [(db_to_linear(gain_dbi), math.radians(angle_deg)) for gain_dbi, angle_deg in (
        (cfg.ue_antenna_gain_dbi, cfg.boresight_ue_deg), (cfg.bs_antenna_gain_dbi, cfg.boresight_bs_deg))]
    return [channel_gain(sat_gain, gain, angle, altitude_km * 1e3, aperture, frequency)
            for gain, angle in nodes]


def per_point_build_scenarios(cfg: ExperimentConfig, points) -> ScenarioBatch:
    """build_scenarios as it once was: one dbm_to_watts and one DUPLEX_FACTORS
    lookup and division per point, and each distinct altitude's channel gains once;
    the bandwidths are half the band's hertz, a link's airtime hertz in either mode,
    and each gain is the channel gain over noise plus interference times the duplex's
    DUPLEX_FACTORS entry."""
    density = dbm_to_watts(cfg.noise_density_dbm_hz) + dbm_to_watts(cfg.interference_density_dbm_hz)
    gains: dict[float, list[float]] = {}
    rows = []
    for power_dbm, overlap_mhz, duplex, altitude_km, access_weight in points:
        if altitude_km not in gains:
            gains[altitude_km] = channel_gains(cfg, altitude_km)
        # the ScenarioBatch columns, in order
        noise = density * DUPLEX_FACTORS[duplex]
        rows.append((dbm_to_watts(power_dbm), 0.5 * cfg.total_bandwidth_mhz * 1e6, 0.5 * overlap_mhz * 1e6,
                     access_weight, *[beta / noise for beta in gains[altitude_km]]))
    columns = np.array(rows, dtype=float).reshape(-1, len(dataclasses.fields(ScenarioBatch))).T
    return ScenarioBatch(*(column.reshape(-1, 1) for column in columns.copy()))


def per_row_audit(cfg: ExperimentConfig, rows) -> list[str]:
    """audit_rows one row at a time: check the row's point against the
    config's ranges and its sweep_value against its point, build its scenario, check its allocation with
    reference_validate, re-evaluate a feasible one with reference_evaluate
    and, if its rates agree, check that it spends both budgets within the
    relative slack of validate, its bandwidths in the batch's units."""
    ranges = {
        "power_dbm": _RANGES["total_power_dbm"],
        "overlap_mhz": (0.0, float(f"{cfg.total_bandwidth_mhz:.9g}")),  # as a CSV cell
        "altitude_km": _RANGES["altitude_km"],
        "access_weight": _RANGES["access_weight"],
    }
    problems = []
    for index, row in enumerate(rows):
        outside = [f"row {index}: {name}={getattr(row, name):.9g} must lie in [{lo:.9g}, {hi:.9g}]"
                   for name, (lo, hi) in ranges.items() if not lo <= getattr(row, name) <= hi]
        if outside:
            problems += outside
            continue
        if row.sweep == "overlap":
            name, swept = "overlap_mhz/total_bandwidth_mhz", row.overlap_mhz / cfg.total_bandwidth_mhz
            mislabelled = not abs(row.sweep_value - swept) <= 1e-8 * abs(swept)
        else:
            name, swept = "power_dbm", row.power_dbm
            mislabelled = row.sweep_value != swept
        if mislabelled:
            problems.append(f"row {index}: sweep_value={row.sweep_value:g} != {name}={swept:g}")
        if not all(map(math.isfinite, _float_cells(row))):
            if row.converged:
                problems.append(f"row {index}: marked converged but holds a non-finite value")
            continue
        scn = row_scenario(cfg, row)
        hertz = hertz_per_unit(row.duplex)
        alloc = (row.p_ue_w, row.p_bs_w, row.w_a_hz / hertz, row.w_b_hz / hertz)
        violated = reference_validate(scn, *alloc)
        if violated:
            problems.append(f"row {index}: allocation violates {', '.join(violated)}")
            continue
        zeta, rate_a, rate_b, throughput = reference_evaluate(scn, *alloc)
        found = len(problems)
        recorded = {
            "zeta_mbps": (row.zeta_mbps, zeta / 1e6),
            "rate_access_mbps": (row.rate_access_mbps, rate_a / 1e6),
            "rate_backhaul_mbps": (row.rate_backhaul_mbps, rate_b / 1e6),
            "throughput_mbps": (row.throughput_mbps, throughput / 1e6),
        }
        for name, (got, want) in recorded.items():
            scale = max(abs(want), 1e-12)
            if abs(got - want) > 1e-6 * scale:
                problems.append(
                    f"row {index}: {name} recorded {got:.9g} but re-evaluates to {want:.9g}"
                )
        budgets = {
            "power": (row.p_ue_w + row.p_bs_w, scalars(scn).total_power),
            "bandwidth": (alloc[2] + alloc[3], bandwidth_limits(scn)[0].item()),
        }
        unspent = [name for name, (spent, budget) in budgets.items() if spent < (1.0 - 1e-6) * budget]
        if unspent and len(problems) == found:
            problems.append(f"row {index}: allocation leaves budget unspent: {', '.join(unspent)}")
    return problems


def _reference_normalize_population(
    population: np.ndarray,
    p_total: np.ndarray,
    band_total: np.ndarray,
    w_lo: np.ndarray,
    w_hi: np.ndarray,
) -> None:
    """Project a batch of swarms onto their feasible sets, in place.

    population is S x N x 4; the budgets and bandwidth bounds are S x 1 x 1
    columns. Power pairs are folded positive and rescaled to sum to the
    power budget; bandwidth pairs likewise to the bandwidth budget, then
    clamped into [w_lo, w_hi] (the clamps restore the budget exactly
    because the two columns overshoot symmetrically). A pair summing to
    zero goes to half of its budget each, the projection of the zero
    vector onto the pairs that spend the budget.
    """
    for cols, scale in ((slice(0, 2), p_total), (slice(2, 4), band_total)):
        block = np.abs(population[..., cols])
        sums = block[..., 0] + block[..., 1]
        zero = sums == 0.0
        block[zero], sums[zero] = 0.5, 1.0
        population[..., cols] = block * (scale[..., 0] / sums)[..., None]
    np.clip(population[..., 2:4], w_lo, w_hi, out=population[..., 2:4])


def reference_run_pso(batch: ScenarioBatch, cfg: PsoConfig, seeds: Sequence[int],
                      initial_population: np.ndarray | None = None) -> np.ndarray:
    """The (S, 4) best particles of run_pso, one swarm per scenario run in
    lockstep as one S x N x 4 tensor; the draw order per row is run_pso's:
    the N x 4 initial population row-major, then an N x 4 x 2 block per
    velocity update, r1 before r2 per element."""
    seeds, size, n = list(seeds), len(batch), cfg.population_size
    if len(seeds) != size:
        raise ValueError(f"{len(seeds)} seeds for {size} scenarios")

    eps = batch.access_weight
    p_total = batch.total_power[..., None]
    band_total, w_lo, w_hi = (limit[..., None] for limit in bandwidth_limits(batch))

    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
    if initial_population is None:
        population = np.empty((size, n, 4))
        for rng, rows in zip(rngs, population):
            rng.random(out=rows)
        population[..., 0:2] *= p_total
        population[..., 2:4] *= band_total
    else:
        population = np.array(initial_population, dtype=float, copy=True)
        if population.shape != (size, n, 4):
            raise ValueError(f"initial_population must have shape {(size, n, 4)}")
    velocity = np.zeros_like(population)
    draws = np.empty(population.shape + (2,))

    row = np.arange(size)
    idx = np.arange(n)
    ring_prev = (idx - 1) % n
    ring_next = (idx + 1) % n

    best_fitness = np.full(size, -math.inf)
    best_particle = population[:, 0].copy()

    for _ in range(cfg.max_iterations):
        _reference_normalize_population(population, p_total, band_total, w_lo, w_hi)
        rate_a, rate_b = reference_link_rates(
            batch, population[..., 0], population[..., 1], population[..., 2], population[..., 3]
        )
        fitness = np.minimum(rate_a, eps * rate_b)

        leader = np.argmax(fitness, axis=1)
        global_best = population[row, leader]
        lead_fitness = fitness[row, leader]
        improved = lead_fitness > best_fitness
        best_fitness = np.where(improved, lead_fitness, best_fitness)
        best_particle = np.where(improved[:, None], global_best, best_particle)

        candidates = np.stack((fitness, fitness[:, ring_prev], fitness[:, ring_next]))
        pick = np.argmax(candidates, axis=0)
        local_best = population[row[:, None], np.choose(pick, (idx, ring_prev, ring_next))]

        for rng, block in zip(rngs, draws):
            rng.random(out=block)
        velocity += 2.0 * draws[..., 0] * (local_best - population)
        velocity += 2.0 * draws[..., 1] * (global_best[:, None] - population)
        population = population + 0.01 * velocity

    return best_particle


def reference_cli_parser() -> argparse.ArgumentParser:
    """The parser of main as first written, every command's subparser built on each call."""
    parser = argparse.ArgumentParser(
        prog="satiab",
        description="Satellite access/backhaul allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    common = argparse.ArgumentParser(add_help=False)  # the options of the three run commands
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--seed", type=int, help="override the RNG seed")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--solvers", help=f"comma-separated subset of {','.join(_SOLVERS)}")

    p = sub.add_parser("solve", parents=[common], help="run the selected solvers on one scenario")
    p.set_defaults(handler=_cmd_solve)

    for name, run, stem, text in (
        ("sweep-power", run_power_sweep, "power_sweep", "throughput vs transmit power"),
        ("sweep-overlap", run_overlap_sweep, "overlap_sweep", "throughput vs bandwidth overlap"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(handler=_cmd_sweep, run=run, stem=stem)

    p = sub.add_parser("audit", help="re-validate a previously written sweep CSV")
    p.add_argument("--config", help="path to a JSON config file")
    p.add_argument("--csv", required=True, help="CSV file to audit")
    p.set_defaults(handler=_cmd_audit)
    return parser
