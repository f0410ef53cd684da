"""Independent reference computations and shared samplers for the tests.

The Bessel oracle is a plain alternating power series evaluated in
extended precision; it shares no code with the library implementation.
The golden-section solver is the exact orthogonal solver as first written,
one scenario at a time in pure Python, kept as the reference for the
batched marginal-cost solver. The full-grid oracle is the grid oracle as
first written, the whole grid in one link_rates call and np.argmax, kept as
the reference for the oracle that bisects each column for its peak. The
per-row audit is the audit as first written, one scalar evaluate per row,
kept as the reference for the audit that evaluates all rows in one batch.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np

from satiab import (
    Allocation,
    DuplexMode,
    ScenarioParams,
    SolverKind,
    SolveResult,
    bandwidth_limits,
    duplex_factors,
    evaluate,
    link_rates,
    validate,
)
from satiab.expcli import _RANGES, ExperimentConfig, _float_cells, build_scenario


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
                scn = build_scenario(
                    cfg,
                    power_dbm=power_dbm,
                    duplex=duplex,
                    altitude_km=altitude_km,
                    overlap_mhz=0.0,
                    access_weight=0.1,
                )
                out.append((f"P{power_dbm:g}dBm-{duplex}-{altitude_km:g}km", scn))
    return out


def random_scenario(rng, orthogonal: bool = False) -> ScenarioParams:
    """A physically plausible random scenario for property tests."""
    total_bandwidth = 10.0 ** rng.uniform(6.5, 8.0)
    if orthogonal or rng.random() < 0.4:
        overlap = 0.0
    else:
        overlap = rng.uniform(0.0, 1.0) * total_bandwidth
    return ScenarioParams(
        total_power=10.0 ** rng.uniform(0.0, 2.0),
        total_bandwidth=total_bandwidth,
        overlap_bandwidth=overlap,
        noise_density=10.0 ** rng.uniform(-21.0, -19.5),
        interference_density=10.0 ** rng.uniform(-21.0, -19.5),
        access_weight=rng.uniform(0.02, 1.0),
        duplex=DuplexMode.FDD if rng.random() < 0.5 else DuplexMode.TDD,
        beta_ue=10.0 ** rng.uniform(-13.0, -11.0),
        beta_bs=10.0 ** rng.uniform(-11.0, -8.5),
    )


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


def corner_scenario(rng) -> ScenarioParams:
    """A scenario from a config whose scenario keys each sit at one end of
    the range the config accepts, or uniformly between, with no, half or
    full overlap. Near these corners rates round to 0 or move in flat steps."""
    values = {}
    for name in _CORNER_KEYS:
        lo, hi = _RANGES[name]
        values[name] = float(rng.choice([lo, hi, rng.uniform(lo, hi)]))
    values["overlap_mhz"] = values["total_bandwidth_mhz"] * float(rng.choice([0.0, 0.5, 1.0]))
    values["duplex"] = str(rng.choice(["FDD", "TDD"]))
    return build_scenario(dataclasses.replace(ExperimentConfig(), **values))


def random_feasible_allocation(rng, scn: ScenarioParams):
    """Uniformly drawn raw values projected onto the feasible set."""
    _, alpha_1 = duplex_factors(scn.duplex)
    band_total = alpha_1 * (scn.total_bandwidth + scn.overlap_bandwidth)
    w_lo = alpha_1 * scn.overlap_bandwidth
    w_hi = alpha_1 * scn.total_bandwidth
    p1, p2 = rng.random(2)
    p_scale = scn.total_power * rng.random() / (p1 + p2 + 1e-300)
    w1, w2 = rng.random(2)
    w_scale = band_total / (w1 + w2 + 1e-300)
    w_a = min(max(w1 * w_scale, w_lo), w_hi)
    w_b = min(max(w2 * w_scale, w_lo), w_hi)
    return p1 * p_scale, p2 * p_scale, w_a, w_b


def reference_rate(alpha_o, alpha_1, p_own, beta, w_own, p_other, w_other, dens, w_o):
    """Single-link rate written out directly, for cross-checking."""
    if w_own <= 0.0:
        return 0.0
    interference = alpha_1 * p_other * beta * w_o / w_other if w_o > 0.0 else 0.0
    return alpha_o * w_own * math.log2(1.0 + p_own * beta / (dens * w_own + interference))


_MAX_EXPONENT = 1020.0  # 2**x overflows float64 just above this
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _inversion_power(rate, bandwidth, beta, alpha_o, dens):
    # Power for one orthogonal link, with overflow mapped to +inf so the
    # golden-section objective stays totally ordered.
    if rate <= 0.0:
        return 0.0
    if bandwidth <= 0.0:
        return math.inf
    exponent = rate / (alpha_o * bandwidth)
    if exponent > _MAX_EXPONENT:
        return math.inf
    return (2.0 ** exponent - 1.0) * dens * bandwidth / beta


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


def golden_section_solve(scn: ScenarioParams) -> SolveResult:
    """Exact max-min solution of one orthogonal scenario: bisection on the
    level zeta, golden section over the bandwidth split for the cheapest
    power that delivers eps*zeta and zeta."""
    alpha_o, alpha_1 = duplex_factors(scn.duplex)
    dens = scn.density
    w_total = alpha_1 * scn.total_bandwidth
    p_total = scn.total_power
    eps = scn.access_weight
    zeta_ub = alpha_o * w_total * math.log2(1.0 + p_total * scn.beta_bs / (dens * w_total))
    w_lo = w_total * 1e-12
    w_hi = w_total * (1.0 - 1e-12)

    def cheapest_split(zeta):
        if zeta <= 0.0:
            return 0.0, 0.5 * w_total, 0.0, 0.0

        def total_power(w_a):
            p_a = _inversion_power(eps * zeta, w_a, scn.beta_ue, alpha_o, dens)
            p_b = _inversion_power(zeta, w_total - w_a, scn.beta_bs, alpha_o, dens)
            return p_a + p_b

        w_a, _ = _golden_section(total_power, w_lo, w_hi)
        p_a = _inversion_power(eps * zeta, w_a, scn.beta_ue, alpha_o, dens)
        p_b = _inversion_power(zeta, w_total - w_a, scn.beta_bs, alpha_o, dens)
        return p_a + p_b, w_a, p_a, p_b

    lo, hi = 0.0, zeta_ub
    converged = False
    iterations = 0
    for _ in range(200):
        if hi - lo <= 1e-13 * max(zeta_ub, 1.0):
            converged = True
            break
        iterations += 1
        mid = 0.5 * (lo + hi)
        needed, _, _, _ = cheapest_split(mid)
        if needed <= p_total:
            lo = mid
        else:
            hi = mid

    _, w_a, p_a, p_b = cheapest_split(lo)
    alloc = Allocation(p_ue=p_a, p_bs=p_b, w_a=w_a, w_b=w_total - w_a)
    return SolveResult(
        allocation=alloc,
        report=evaluate(scn, alloc),
        solver=SolverKind.EXACT_ORTHOGONAL,
        iterations_used=iterations,
        converged=converged,
    )


def full_grid(scn: ScenarioParams, resolution: int):
    """The oracle's power and bandwidth axes, and min(rate_a / eps, rate_b)
    at every point of its resolution x resolution grid, power rows by
    bandwidth columns, from one link_rates call."""
    band_total, w_lo, w_hi = bandwidth_limits(scn)
    p_grid = np.linspace(0.0, scn.total_power, resolution)
    wa_grid = np.linspace(w_lo, w_hi, resolution)
    p_ue = p_grid[:, None]
    w_a = wa_grid[None, :]
    rate_a, rate_b = link_rates(scn, p_ue, scn.total_power - p_ue, w_a, band_total - w_a)
    return p_grid, wa_grid, np.minimum(rate_a / scn.access_weight, rate_b)


def full_grid_oracle(scn: ScenarioParams, resolution: int) -> SolveResult:
    """The grid oracle's search in one piece: every point of the
    resolution x resolution grid in one link_rates call, then np.argmax."""
    band_total = bandwidth_limits(scn)[0]
    p_grid, wa_grid, maxmin = full_grid(scn, resolution)

    i, j = divmod(int(np.argmax(maxmin)), resolution)
    alloc = Allocation(
        p_ue=float(p_grid[i]),
        p_bs=float(scn.total_power - p_grid[i]),
        w_a=float(wa_grid[j]),
        w_b=float(band_total - wa_grid[j]),
    )
    return SolveResult(
        allocation=alloc,
        report=evaluate(scn, alloc),
        solver=SolverKind.GRID_ORACLE,
        iterations_used=resolution * resolution,
        converged=True,
    )


def per_row_audit(cfg: ExperimentConfig, rows, tol: float = 1e-6) -> list[str]:
    """audit_rows one row at a time: build the row's scenario, validate its
    allocation, and re-evaluate a feasible one with the scalar evaluate."""
    problems = []
    for index, row in enumerate(rows):
        if not all(map(math.isfinite, _float_cells(row))):
            if row.converged:
                problems.append(f"row {index}: marked converged but holds a non-finite value")
            continue
        scn = build_scenario(
            cfg,
            power_dbm=row.power_dbm,
            duplex=row.duplex,
            altitude_km=row.altitude_km,
            overlap_mhz=row.overlap_mhz,
            access_weight=row.access_weight,
        )
        alloc = Allocation(p_ue=row.p_ue_w, p_bs=row.p_bs_w, w_a=row.w_a_hz, w_b=row.w_b_hz)
        violated = validate(scn, alloc, tol)
        if violated:
            problems.append(f"row {index}: allocation violates {', '.join(violated)}")
            continue
        report = evaluate(scn, alloc)
        recorded = {
            "zeta_mbps": (row.zeta_mbps, report.maxmin_level / 1e6),
            "rate_access_mbps": (row.rate_access_mbps, report.rate_access / 1e6),
            "rate_backhaul_mbps": (row.rate_backhaul_mbps, report.rate_backhaul / 1e6),
            "throughput_mbps": (row.throughput_mbps, report.throughput / 1e6),
        }
        for name, (got, want) in recorded.items():
            scale = max(abs(want), 1e-12)
            if abs(got - want) > tol * scale:
                problems.append(
                    f"row {index}: {name} recorded {got:.9g} but re-evaluates to {want:.9g}"
                )
    return problems
