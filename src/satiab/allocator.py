"""Solvers for the max-min power/bandwidth split between access and backhaul.

Three routes to the same problem: an exact parametric solver for the
orthogonal (no-overlap) case, a particle swarm for the general case, and a
grid search used as an independent cross-check.

The orthogonal solver bisects on the max-min level zeta. A level is
feasible iff the cheapest power budget that delivers rate eps*zeta on the
access link and zeta on the backhaul link, minimized over the bandwidth
split, fits inside the power budget. That inner objective is a sum of two
convex single-link power inversions, so its minimum is where the two
links' marginal power costs of bandwidth are equal, found by bisection on
the sign of their difference.

Every solver solves a batch of scenarios at once, as arrays with one row
per scenario, and reports all rows' rates from one batched link_rates
call. The grid oracle finds the grid maximum by bisecting each bandwidth
column for its single peak, in chunks of whole scenarios.
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
    bandwidth_limits,
    evaluate,  # unused here; kept for the span tracer of bench/spans.py
    evaluate_many,
    link_rates,
)

__all__ = [
    "PsoConfig",
    "PsoState",
    "SolverKind",
    "SolveResult",
    "solve_orthogonal",
    "solve_orthogonal_many",
    "grid_oracle",
    "grid_oracle_many",
    "run_pso",
    "pso_solve",
    "pso_solve_many",
]

_LN2 = math.log(2.0)
_MAX_MARGINAL_Y = 700.0  # expm1(y) * y stays below the float64 maximum
_SPLIT_STEPS = 40
_MAX_BISECTIONS = 200
_GRID_BLOCK = 4_096  # grid columns per grid_oracle_many kernel call: 32 KiB temporaries
_SWARM_PARTICLES = 65_536  # particles per run_pso batch of pso_solve_many


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

    Each array has one row per swarm of the batch. population/velocity are
    S x N x 4 arrays with columns (p_ue, p_bs, w_a, w_b); the population is
    returned in normalized (feasible) form. best_history holds the running
    best fitness after each iteration, so its last column is the fitness of
    best_particle.
    """

    population: np.ndarray
    velocity: np.ndarray
    best_particle: np.ndarray
    best_history: np.ndarray


def _inversion_power(rate, bandwidth, beta, alpha_o, dens):
    """Power (2**(rate / (alpha_o w)) - 1) * dens * w / beta that carries rate
    over bandwidth w > 0 on one orthogonal link, elementwise; +inf on overflow."""
    with np.errstate(over="ignore"):
        return np.expm1(rate / (alpha_o * bandwidth) * _LN2) * dens * bandwidth / beta


def _cheapest_split(y_whole, weight):
    """Bandwidth shares of the access and backhaul links, as the two columns
    of an (S, 2) array, that minimize the total power delivering their rates.

    y_whole holds each link's y = rate ln2 / (alpha_o w) at w = the whole
    bandwidth budget. A link's power inversion has derivative
    -dens h(y) / beta in its bandwidth, with h(y) = expm1(y)(y - 1) + y, so
    the total power is convex in the access share and least where the two
    marginal costs, weighted by the other link's beta over the larger beta,
    are equal. Bisection on the sign of their difference brackets the
    shares to 2**-_SPLIT_STEPS; every step is a power of two, so the shares
    sum to 1 exactly. y is capped where h still fits a float, far beyond
    the y of any power a budget can pay.
    """
    share = np.full(y_whole.shape, 0.5)
    step = np.array([0.25, -0.25])
    for _ in range(_SPLIT_STEPS):
        y = np.minimum(y_whole / share, _MAX_MARGINAL_Y)
        cost = (np.expm1(y) * (y - 1.0) + y) * weight
        share -= np.sign(cost[:, 1:] - cost[:, :1]) * step
        step *= 0.5
    return share


def _results(batch, alloc, solver, iterations, converged) -> list[SolveResult]:
    """One SolveResult per row of the (S, 4) allocations alloc (p_ue, p_bs,
    w_a, w_b) of the scenarios in batch, all reported by one evaluate_many call."""
    reports = evaluate_many(batch, alloc)
    return [
        SolveResult(Allocation(*row), report, solver, n, done)
        for row, report, n, done in zip(alloc.tolist(), reports, iterations, converged)
    ]


def solve_orthogonal_many(scns: Sequence[ScenarioParams]) -> list[SolveResult]:
    """Exact max-min solutions of many orthogonal scenarios (overlap zero).

    Each row bisects on its level zeta until its own bracket is narrower
    than 1e-13 max(zeta_ub, 1); a level is feasible iff the cheapest split
    of the bandwidth budget (fully used: both rates strictly increase in
    their own bandwidth) delivers it within the power budget. At the
    returned allocation both rate targets are tight and the full power
    budget is spent, up to the bisection tolerance. Rows share only
    elementwise arithmetic, so row s is exactly solve_orthogonal(scns[s]).
    """
    if any(scn.overlap_bandwidth != 0.0 for scn in scns):
        raise ValueError("solve_orthogonal requires overlap_bandwidth == 0")
    batch = ScenarioBatch.stack(scns)
    alpha_o, eps, dens = batch.alpha_o, batch.access_weight, batch.density
    w_total = bandwidth_limits(batch)[0]  # the budget of both links, w_o being 0
    # (S, 2) arrays with one column per link: access, then backhaul
    beta = np.hstack((batch.beta_ue, batch.beta_bs))
    weight = beta[:, ::-1] / beta.max(axis=1, keepdims=True)
    rate_per_zeta = np.hstack((eps, np.ones_like(eps)))
    y_per_zeta = rate_per_zeta * _LN2 / (alpha_o * w_total)

    def split_and_power(zeta):
        w = _cheapest_split(zeta * y_per_zeta, weight) * w_total
        return w, _inversion_power(zeta * rate_per_zeta, w, beta, alpha_o, dens)

    zeta_ub = link_rates(batch, 0.0, batch.total_power, 0.0, w_total)[1]  # all on the backhaul
    tol = 1e-13 * np.maximum(zeta_ub, 1.0)
    lo, hi = np.zeros_like(zeta_ub), zeta_ub
    iterations = np.zeros(zeta_ub.shape, dtype=int)
    for _ in range(_MAX_BISECTIONS):
        active = hi - lo > tol
        if not active.any():
            break
        iterations += active
        mid = 0.5 * (lo + hi)
        _, p = split_and_power(mid)
        feasible = p[:, :1] + p[:, 1:] <= batch.total_power
        lo = np.where(active & feasible, mid, lo)
        hi = np.where(active & ~feasible, mid, hi)

    w, p = split_and_power(lo)
    return _results(batch, np.hstack((p, w)), SolverKind.EXACT_ORTHOGONAL,
                    iterations.ravel().tolist(), (hi - lo <= tol).ravel().tolist())


def solve_orthogonal(scn: ScenarioParams) -> SolveResult:
    """Exact max-min solver for the orthogonal case (overlap zero); see
    :func:`solve_orthogonal_many`."""
    return solve_orthogonal_many([scn])[0]


def _grid_maxima(scns: Sequence[ScenarioParams], resolution: int) -> np.ndarray:
    """(S, 4) allocations at the scenarios' first grid maxima; see grid_oracle_many."""
    batch = ScenarioBatch.stack(scns)
    eps, p_total = batch.access_weight, batch.total_power
    # one grid row per scenario, each from np.linspace as in a scenario alone
    p_grid = np.array([np.linspace(0.0, scn.total_power, resolution) for scn in scns])
    w_a = np.array([np.linspace(*bandwidth_limits(scn)[1:], resolution) for scn in scns])
    w_b = bandwidth_limits(batch)[0] - w_a

    def at(rows):
        # rate_a / eps and rate_b of every column at its grid row rows[s, j]
        p_ue = np.take_along_axis(p_grid, rows, axis=1)
        rate_a, rate_b = link_rates(batch, p_ue, p_total - p_ue, w_a, w_b)
        return rate_a / eps, rate_b

    # the first row with a >= b; the last row qualifies unevaluated (p_bs = 0,
    # so b = 0), and a_lo, b_hi keep a at row lo - 1 and b at row hi
    lo, hi = np.zeros(w_a.shape, dtype=np.intp), np.full(w_a.shape, resolution - 1)
    a_lo, b_hi = np.full(w_a.shape, -math.inf), np.zeros(w_a.shape)
    for _ in range((resolution - 1).bit_length()):
        mid = (lo + hi) // 2
        a, b = at(mid)
        crossed = a >= b
        hi, b_hi = np.where(crossed, mid, hi), np.where(crossed, b, b_hi)
        lo, a_lo = np.where(crossed, lo, mid + 1), np.where(crossed, a_lo, a)
    best = np.maximum(a_lo, b_hi)
    # where a wins (ties too), its first row reaching best is row 0 if best is
    # 0 (a is 0 at p_ue = 0), else in [0, hi - 1] and most often hi - 1 itself
    a_wins = a_lo >= b_hi
    hi = np.where(a_wins, np.where(best > 0.0, hi - 1, 0), hi)
    lo = np.where(a_wins, 0, hi)
    mid = np.maximum(hi - 1, lo)
    while (lo < hi).any():
        reached = at(mid)[0] >= best
        hi, lo = np.where(reached, mid, hi), np.where(reached, lo, mid + 1)
        mid = (lo + hi) // 2
    # the first maximum in row-major order: smallest row, then smallest column
    order = np.where(best < best.max(axis=1, keepdims=True), resolution**2,
                     hi * resolution + np.arange(resolution))
    i, j = np.divmod(order.min(axis=1), resolution)
    s = np.arange(len(scns))
    return np.column_stack((p_grid[s, i], p_total[:, 0] - p_grid[s, i], w_a[s, j], w_b[s, j]))


def grid_oracle_many(scns: Sequence[ScenarioParams], resolution: int) -> list[SolveResult]:
    """Maximizers of the max-min level over uniform grids, one row per scenario.

    Each grid spans the power split p_ue in [0, P] (with p_bs = P - p_ue)
    and the bandwidth split w_a in [alpha_1 w_o, alpha_1 W] with the
    bandwidth budget used exactly, which keeps every grid point feasible.
    Row s is the point np.argmax picks from min(rate_a / eps, rate_b) over
    the grid of scns[s], found without evaluating the whole grid.

    Down a column (a fixed bandwidth split), p_ue rises and p_bs = P - p_ue
    falls, so the access SINR rises (its own power up, its interferer's
    down) and the backhaul SINR falls, with or without overlap: a =
    rate_a / eps never decreases, b = rate_b never increases, and min(a, b)
    peaks where they cross. A bisection finds the first row k with a >= b
    (the last row, where b = 0, qualifies). The column's maximum is
    max(a[k - 1], b[k]), first reached at row k if b[k] is greater, else
    where a first reaches a[k - 1]: row 0 if that is 0, most often row
    k - 1 (a probe of row k - 2 tells), and else the start of a plateau,
    found by a second bisection; rounding makes such plateaus near the
    corners of the parameter ranges. Columns combine by smallest row, then
    smallest column, as np.argmax's first maximum in row-major order.

    Scenarios are searched in chunks of at most _GRID_BLOCK columns (at
    least one scenario), one kernel call per search step, and all rows are
    reported from one link_rates call, each counting resolution**2 grid
    points as iterations.
    """
    if resolution < 10:
        raise ValueError("resolution must be >= 10")
    scns = list(scns)
    rows = max(1, _GRID_BLOCK // resolution)
    alloc = [_grid_maxima(scns[k:k + rows], resolution) for k in range(0, len(scns), rows)]
    return _results(ScenarioBatch.stack(scns), np.concatenate(alloc or [np.empty((0, 4))]),
                    SolverKind.GRID_ORACLE, [resolution**2] * len(scns), [True] * len(scns))


def grid_oracle(scn: ScenarioParams, resolution: int = 200) -> SolveResult:
    """Maximizer of the max-min level over a uniform grid; see :func:`grid_oracle_many`."""
    return grid_oracle_many([scn], resolution)[0]


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
    scns: Sequence[ScenarioParams],
    cfg: PsoConfig,
    initial_population: np.ndarray | None = None,
    seeds: Sequence[int] | None = None,
) -> PsoState:
    """Run one particle swarm per scenario and return their final state.

    Per iteration: normalize the population onto the feasible set, score
    every particle with min(rate_access, eps * rate_backhaul), pick the
    iteration-global best and each particle's ring-neighborhood best, then
    accumulate velocities
        X += u1 r1 (local_best - F) + u2 r2 (global_best - F)
    and step positions by F += mu X. The reported solution is the best
    particle seen across all iterations. Bit-identical output for a fixed
    rng_seed.

    The S swarms of scns run in lockstep as one S x N x 4 tensor:
    initial_population, if given, is S x N x 4, and every array of the
    returned state has a leading row axis. Row s draws from its own Philox
    generator, keyed by seeds[s] (cfg.rng_seed for every row when seeds is
    None), in the order of a swarm run alone, so its result does not depend
    on the other rows.
    """
    scns = list(scns)
    n = cfg.population_size
    seeds = [cfg.rng_seed] * len(scns) if seeds is None else list(seeds)
    if len(seeds) != len(scns):
        raise ValueError(f"{len(seeds)} seeds for {len(scns)} scenarios")

    batch = ScenarioBatch.stack(scns)
    eps = batch.access_weight
    p_total = batch.total_power[..., None]
    band_total, w_lo, w_hi = (limit[..., None] for limit in bandwidth_limits(batch))

    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
    if initial_population is None:
        population = np.empty((len(scns), n, 4))
        for rng, rows in zip(rngs, population):
            rng.random(out=rows)
        population[..., 0:2] *= p_total
        population[..., 2:4] *= band_total
    else:
        population = np.array(initial_population, dtype=float, copy=True)
        if population.shape != (len(scns), n, 4):
            raise ValueError(f"initial_population must have shape {(len(scns), n, 4)}")
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
    return PsoState(
        population=population,
        velocity=velocity,
        best_particle=best_particle,
        best_history=best_history,
    )


def pso_solve_many(
    scns: Sequence[ScenarioParams], cfg: PsoConfig, seeds: Sequence[int]
) -> list[SolveResult]:
    """Particle-swarm solutions of many scenarios, in lockstep batches of
    at most _SWARM_PARTICLES particles (and at least one row) each.

    Row s is keyed by seeds[s] in place of cfg.rng_seed and gets exactly
    the result of :func:`pso_solve` with that seed, whatever the other rows.
    """
    scns, seeds = list(scns), list(seeds)
    if len(seeds) != len(scns):
        raise ValueError(f"{len(seeds)} seeds for {len(scns)} scenarios")
    rows = max(1, _SWARM_PARTICLES // cfg.population_size)
    best = [
        run_pso(scns[k:k + rows], cfg, seeds=seeds[k:k + rows]).best_particle
        for k in range(0, len(scns), rows)
    ]
    return _results(ScenarioBatch.stack(scns), np.concatenate(best or [np.empty((0, 4))]),
                    SolverKind.PSO, [cfg.max_iterations] * len(scns), [True] * len(scns))


def pso_solve(scn: ScenarioParams, cfg: PsoConfig) -> SolveResult:
    """Particle-swarm solution of the max-min allocation problem."""
    return pso_solve_many([scn], cfg, [cfg.rng_seed])[0]
