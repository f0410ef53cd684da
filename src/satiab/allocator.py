"""Solvers for the max-min power/bandwidth split between access and backhaul.

Three routes to the same problem: an exact parametric solver for the
orthogonal (no-overlap) case, a particle swarm for the general case, and a
brute-force grid evaluator used as an independent cross-check.

The orthogonal solver bisects on the max-min level zeta. A level is
feasible iff the cheapest power budget that delivers rate eps*zeta on the
access link and zeta on the backhaul link, minimized over the bandwidth
split, fits inside the power budget; that inner objective is a sum of two
convex single-link power inversions, so golden-section search finds its
minimum.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ratemodel import (
    Allocation,
    RateReport,
    ScenarioBatch,
    ScenarioParams,
    duplex_factors,
    evaluate,
    link_rates,
)

__all__ = [
    "Infeasible",
    "PsoConfig",
    "PsoState",
    "SolverKind",
    "SolveResult",
    "min_power_for_rate",
    "solve_orthogonal",
    "grid_oracle",
    "run_pso",
    "pso_solve",
    "pso_solve_many",
]

_MAX_EXPONENT = 1020.0  # 2**x overflows float64 just above this


class Infeasible(Exception):
    """No feasible allocation (or power inversion overflowed)."""


class SolverKind(enum.Enum):
    EXACT_ORTHOGONAL = "exact"
    PSO = "pso"
    GRID_ORACLE = "oracle"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run."""

    allocation: Allocation
    report: RateReport
    solver: SolverKind
    iterations_used: int
    converged: bool


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters.

    The defaults reproduce the reference configuration: 50 particles,
    200 iterations, inertia weight 0.01, both learning factors 2, and a
    ring neighborhood that includes the particle itself. The generator is
    counter-based (numpy Philox) keyed by rng_seed; draws happen in a fixed
    sequential order (initialization fills the N x 4 population row-major,
    any degenerate pair is redrawn as 2 draws when projected, each velocity
    update consumes an N x 4 x 2 block row-major with r1 before r2 per
    element), so runs are reproducible regardless of how fitness evaluation
    is scheduled or how many swarms run in one batch.
    """

    population_size: int = 50
    max_iterations: int = 200
    learning_factor_1: float = 2.0
    learning_factor_2: float = 2.0
    inertia_weight: float = 0.01
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 3:
            raise ValueError("population_size must be >= 3 (ring topology)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.learning_factor_1 <= 0.0 or self.learning_factor_2 <= 0.0:
            raise ValueError("learning factors must be positive")
        if self.inertia_weight < 0.0:
            raise ValueError("inertia_weight must be nonnegative")


@dataclass
class PsoState:
    """Final swarm state.

    population/velocity are N x 4 arrays with columns (p_ue, p_bs, w_a, w_b);
    the population is returned in normalized (feasible) form. best_history
    holds the running best fitness after each iteration. The state of a
    batch of S swarms has a leading row axis on every array, and
    best_fitness is then an array of S values.
    """

    population: np.ndarray
    velocity: np.ndarray
    best_particle: np.ndarray
    best_fitness: float | np.ndarray
    iteration: int
    best_history: np.ndarray


def min_power_for_rate(
    rate_target: float, bandwidth: float, beta: float, scn: ScenarioParams
) -> float:
    """Transmit power that achieves rate_target on a single orthogonal link.

    Inverts the rate equation at overlap zero:
    p = (2**(rate / (alpha_o * w)) - 1) * (noise + interference) * w / beta.
    Raises Infeasible when the exponent would overflow a float.
    """
    if scn.overlap_bandwidth != 0.0:
        raise ValueError("power inversion is defined for the orthogonal case only")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    if rate_target < 0.0:
        raise ValueError("rate_target must be nonnegative")
    if rate_target == 0.0:
        return 0.0
    alpha_o, _ = duplex_factors(scn.duplex)
    exponent = rate_target / (alpha_o * bandwidth)
    if exponent > _MAX_EXPONENT:
        raise Infeasible(
            f"rate {rate_target:.3e} bits/s over {bandwidth:.3e} Hz needs 2**{exponent:.1f}"
        )
    return (2.0 ** exponent - 1.0) * scn.density * bandwidth / beta


def _inversion_power(rate: float, bandwidth: float, beta: float, alpha_o: float, dens: float) -> float:
    # Same inversion as min_power_for_rate, with overflow mapped to +inf so
    # the golden-section objective stays totally ordered.
    if rate <= 0.0:
        return 0.0
    if bandwidth <= 0.0:
        return math.inf
    exponent = rate / (alpha_o * bandwidth)
    if exponent > _MAX_EXPONENT:
        return math.inf
    return (2.0 ** exponent - 1.0) * dens * bandwidth / beta


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, rel_tol: float = 1e-9, max_iter: int = 200):
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


def solve_orthogonal(scn: ScenarioParams) -> SolveResult:
    """Exact max-min solver for the orthogonal case (overlap zero).

    Outer bisection on the level zeta, inner golden-section over the
    bandwidth split with the bandwidth budget fully used (both rates are
    strictly increasing in their own bandwidth, so no optimum leaves any
    spectrum idle). At the returned allocation both rate targets are tight
    and the full power budget is spent, up to the bisection tolerance.
    """
    if scn.overlap_bandwidth != 0.0:
        raise ValueError("solve_orthogonal requires overlap_bandwidth == 0")
    alpha_o, alpha_1 = duplex_factors(scn.duplex)
    dens = scn.density
    w_total = alpha_1 * scn.total_bandwidth
    p_total = scn.total_power
    eps = scn.access_weight

    zeta_ub = alpha_o * w_total * math.log2(1.0 + p_total * scn.beta_bs / (dens * w_total))

    w_lo = w_total * 1e-12
    w_hi = w_total * (1.0 - 1e-12)

    def cheapest_split(zeta: float):
        if zeta <= 0.0:
            return 0.0, 0.5 * w_total, 0.0, 0.0

        def total_power(w_a: float) -> float:
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


def grid_oracle(scn: ScenarioParams, resolution: int = 200) -> SolveResult:
    """Brute-force maximizer of the max-min level over a uniform grid.

    The grid spans the power split p_ue in [0, P] (with p_bs = P - p_ue)
    and the bandwidth split w_a in [alpha_1 w_o, alpha_1 W] with the
    bandwidth budget used exactly, which keeps every grid point feasible.
    """
    if resolution < 10:
        raise ValueError("resolution must be >= 10")
    _, alpha_1 = duplex_factors(scn.duplex)
    band_total = alpha_1 * (scn.total_bandwidth + scn.overlap_bandwidth)
    w_lo = alpha_1 * scn.overlap_bandwidth
    w_hi = alpha_1 * scn.total_bandwidth

    p_grid = np.linspace(0.0, scn.total_power, resolution)
    wa_grid = np.linspace(w_lo, w_hi, resolution)
    p_ue = p_grid[:, None]
    w_a = wa_grid[None, :]
    rate_a, rate_b = link_rates(scn, p_ue, scn.total_power - p_ue, w_a, band_total - w_a)
    maxmin = np.minimum(rate_a / scn.access_weight, rate_b)

    flat = int(np.argmax(maxmin))
    i, j = divmod(flat, resolution)
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


def _normalize_population(
    population: np.ndarray,
    p_total: np.ndarray,
    band_total: np.ndarray,
    w_lo: np.ndarray,
    w_hi: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> None:
    """Project a batch of swarms onto their feasible sets, in place.

    population is S x N x 4; the budgets and bandwidth bounds are S x 1 x 1
    columns and rngs holds each row's generator. Power pairs are folded
    positive and rescaled to sum to the power budget; bandwidth pairs
    likewise to the bandwidth budget, then clamped into [w_lo, w_hi] (the
    clamps restore the budget exactly because the two columns overshoot
    symmetrically). A pair summing to zero has no defined projection and is
    redrawn uniformly on its initialization range first, from its own
    row's generator.
    """
    for cols, scale in ((slice(0, 2), p_total), (slice(2, 4), band_total)):
        block = np.abs(population[..., cols])
        sums = block[..., 0] + block[..., 1]
        for s in np.flatnonzero((sums == 0.0).any(axis=1)):
            degenerate = sums[s] == 0.0
            while degenerate.any():
                redraw = rngs[s].random((int(degenerate.sum()), 2))
                population[s, degenerate, cols] = redraw * scale[s, 0, 0]
                block[s] = np.abs(population[s, :, cols])
                sums[s] = block[s, :, 0] + block[s, :, 1]
                degenerate = sums[s] == 0.0
        population[..., cols] = block * (scale[..., 0] / sums)[..., None]
    np.clip(population[..., 2:4], w_lo, w_hi, out=population[..., 2:4])


def run_pso(
    scn: ScenarioParams | Sequence[ScenarioParams],
    cfg: PsoConfig,
    initial_population: np.ndarray | None = None,
    seeds: Sequence[int] | None = None,
) -> PsoState:
    """Run the particle swarm and return its final state.

    Per iteration: normalize the population onto the feasible set, score
    every particle with min(rate_access, eps * rate_backhaul), pick the
    iteration-global best and each particle's ring-neighborhood best, then
    accumulate velocities
        X += u1 r1 (local_best - F) + u2 r2 (global_best - F)
    and step positions by F += mu X. The reported solution is the best
    particle seen across all iterations. Bit-identical output for a fixed
    rng_seed.

    scn may also be a sequence of S scenarios, whose swarms then run in
    lockstep as one S x N x 4 tensor: initial_population, if given, is
    S x N x 4, and the returned state has a leading row axis. Row s draws
    from its own Philox generator, keyed by seeds[s] (cfg.rng_seed for
    every row when seeds is None), in the order of a swarm run alone, so
    its result does not depend on the other rows.
    """
    single = isinstance(scn, ScenarioParams)
    scns = [scn] if single else list(scn)
    n = cfg.population_size
    seeds = [cfg.rng_seed] * len(scns) if seeds is None else list(seeds)
    if len(seeds) != len(scns):
        raise ValueError(f"{len(seeds)} seeds for {len(scns)} scenarios")

    batch = ScenarioBatch.stack(scns)
    eps = batch.access_weight
    p_total = batch.total_power[..., None]
    band_total = (batch.alpha_1 * (batch.total_bandwidth + batch.overlap_bandwidth))[..., None]
    w_lo = (batch.alpha_1 * batch.overlap_bandwidth)[..., None]
    w_hi = (batch.alpha_1 * batch.total_bandwidth)[..., None]

    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
    if initial_population is None:
        population = np.empty((len(scns), n, 4))
        for rng, rows in zip(rngs, population):
            rng.random(out=rows)
        population[..., 0:2] *= p_total
        population[..., 2:4] *= band_total
    else:
        population = np.array(initial_population, dtype=float, copy=True)
        shape = (n, 4) if single else (len(scns), n, 4)
        if population.shape != shape:
            raise ValueError(f"initial_population must have shape {shape}")
        population = population.reshape(len(scns), n, 4)
    velocity = np.zeros_like(population)
    draws = np.empty(population.shape + (2,))

    row = np.arange(len(scns))
    idx = np.arange(n)
    ring_prev = (idx - 1) % n
    ring_next = (idx + 1) % n

    best_fitness = np.full(len(scns), -math.inf)
    best_particle = population[:, 0].copy()
    best_history = np.empty((len(scns), cfg.max_iterations))

    for t in range(cfg.max_iterations):
        _normalize_population(population, p_total, band_total, w_lo, w_hi, rngs)
        rate_a, rate_b = link_rates(
            batch, population[..., 0], population[..., 1], population[..., 2], population[..., 3]
        )
        fitness = np.minimum(rate_a, eps * rate_b)

        leader = np.argmax(fitness, axis=1)
        global_best = population[row, leader]
        lead_fitness = fitness[row, leader]
        improved = lead_fitness > best_fitness
        best_fitness = np.where(improved, lead_fitness, best_fitness)
        best_particle = np.where(improved[:, None], global_best, best_particle)
        best_history[:, t] = best_fitness

        candidates = np.stack((fitness, fitness[:, ring_prev], fitness[:, ring_next]))
        pick = np.argmax(candidates, axis=0)
        local_best = population[row[:, None], np.choose(pick, (idx, ring_prev, ring_next))]

        for rng, block in zip(rngs, draws):
            rng.random(out=block)
        velocity += cfg.learning_factor_1 * draws[..., 0] * (local_best - population)
        velocity += cfg.learning_factor_2 * draws[..., 1] * (global_best[:, None] - population)
        population = population + cfg.inertia_weight * velocity

    _normalize_population(population, p_total, band_total, w_lo, w_hi, rngs)
    if single:
        population, velocity, best_particle, best_history = (
            a[0] for a in (population, velocity, best_particle, best_history)
        )
        best_fitness = float(best_fitness[0])
    return PsoState(
        population=population,
        velocity=velocity,
        best_particle=best_particle,
        best_fitness=best_fitness,
        iteration=cfg.max_iterations,
        best_history=best_history,
    )


def pso_solve_many(
    scns: Sequence[ScenarioParams], cfg: PsoConfig, seeds: Sequence[int]
) -> list[SolveResult]:
    """Particle-swarm solutions of many scenarios, one batch in lockstep.

    Row s is keyed by seeds[s] in place of cfg.rng_seed and gets exactly
    the result of :func:`pso_solve` with that seed, whatever the other rows.
    """
    state = run_pso(scns, cfg, seeds=seeds)
    results = []
    for scn, particle in zip(scns, state.best_particle):
        p_ue, p_bs, w_a, w_b = (float(v) for v in particle)
        alloc = Allocation(p_ue=p_ue, p_bs=p_bs, w_a=w_a, w_b=w_b)
        results.append(SolveResult(
            allocation=alloc,
            report=evaluate(scn, alloc),
            solver=SolverKind.PSO,
            iterations_used=state.iteration,
            converged=True,
        ))
    return results


def pso_solve(scn: ScenarioParams, cfg: PsoConfig) -> SolveResult:
    """Particle-swarm solution of the max-min allocation problem."""
    return pso_solve_many([scn], cfg, [cfg.rng_seed])[0]
