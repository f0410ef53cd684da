"""Solvers for the max-min power/bandwidth split between access and backhaul.

Three routes to the same problem: an exact parametric solver for the
orthogonal (no-overlap) case, a particle swarm for the general case, and a
brute-force grid evaluator used as an independent cross-check.

The orthogonal solver bisects on the max-min level zeta. A level is
feasible iff the cheapest power budget that delivers rate eps*zeta on the
access link and zeta on the backhaul link, minimized over the bandwidth
split, fits inside the power budget. That inner objective is a sum of two
convex single-link power inversions, so its minimum is where the two
links' marginal power costs of bandwidth are equal, found by bisection on
the sign of their difference.

The exact solver and the swarm each solve a batch of scenarios at once, as
arrays with one row per scenario, and report all rows' rates from one
batched link_rates call; the grid oracle solves one scenario per call,
a block of grid rows at a time.
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
    "solve_orthogonal_many",
    "grid_oracle",
    "run_pso",
    "pso_solve",
    "pso_solve_many",
]

_LN2 = math.log(2.0)
_MAX_MARGINAL_Y = 700.0  # expm1(y) * y stays below the float64 maximum
_SPLIT_STEPS = 40
_MAX_BISECTIONS = 200
# Grid points per grid_oracle block: a float temporary of at most 128 KiB stays
# in L2 and under malloc's mmap threshold, so the heap reuses it unfaulted.
_GRID_BLOCK = 16_384
_SWARM_PARTICLES = 65_536  # particles per run_pso batch of pso_solve_many


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


def _inversion_power(rate, bandwidth, beta, alpha_o, dens):
    """Power (2**(rate / (alpha_o w)) - 1) * dens * w / beta that carries rate
    over bandwidth w > 0 on one orthogonal link, elementwise; +inf on overflow."""
    with np.errstate(over="ignore"):
        return np.expm1(rate / (alpha_o * bandwidth) * _LN2) * dens * bandwidth / beta


def min_power_for_rate(
    rate_target: float, bandwidth: float, beta: float, scn: ScenarioParams
) -> float:
    """Transmit power that achieves rate_target on a single orthogonal link.

    Inverts the rate equation at overlap zero:
    p = (2**(rate / (alpha_o * w)) - 1) * (noise + interference) * w / beta.
    Raises Infeasible when the power would overflow a float.
    """
    if scn.overlap_bandwidth != 0.0:
        raise ValueError("power inversion is defined for the orthogonal case only")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    if rate_target < 0.0:
        raise ValueError("rate_target must be nonnegative")
    power = float(_inversion_power(rate_target, bandwidth, beta, scn.alpha_o, scn.density))
    if power == math.inf:
        raise Infeasible(f"rate {rate_target:.3e} bits/s over {bandwidth:.3e} Hz overflows a float")
    return power


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
    w_a, w_b) of the scenarios in batch, all reported by one link_rates call."""
    rate_a, rate_b = link_rates(batch, *(alloc[:, k:k + 1] for k in range(4)))
    # one row per scenario: p_ue, p_bs, w_a, w_b, then the rates and eps
    table = np.hstack((alloc, rate_a, rate_b, batch.access_weight)).tolist()
    return [
        SolveResult(Allocation(*row[:4]), RateReport.from_rates(*row[4:]), solver, n, done)
        for row, n, done in zip(table, iterations, converged)
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

    zeta_ub = alpha_o * w_total * np.log2(1.0 + batch.total_power * batch.beta_bs / (dens * w_total))
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


def grid_oracle(scn: ScenarioParams, resolution: int = 200) -> SolveResult:
    """Brute-force maximizer of the max-min level over a uniform grid.

    The grid spans the power split p_ue in [0, P] (with p_bs = P - p_ue)
    and the bandwidth split w_a in [alpha_1 w_o, alpha_1 W] with the
    bandwidth budget used exactly, which keeps every grid point feasible.
    It is evaluated in blocks of whole power rows of at most _GRID_BLOCK
    points; a block's best replaces the running best only if strictly
    greater, so the first maximum in row-major order wins, as in np.argmax.
    """
    if resolution < 10:
        raise ValueError("resolution must be >= 10")
    band_total, w_lo, w_hi = bandwidth_limits(scn)
    p_grid = np.linspace(0.0, scn.total_power, resolution)
    wa_grid = np.linspace(w_lo, w_hi, resolution)
    w_a = wa_grid[None, :]
    w_b = band_total - w_a
    rows = max(1, _GRID_BLOCK // resolution)
    best, i, j = -math.inf, 0, 0
    for start in range(0, resolution, rows):
        p_ue = p_grid[start:start + rows, None]
        rate_a, rate_b = link_rates(scn, p_ue, scn.total_power - p_ue, w_a, w_b)
        maxmin = np.minimum(rate_a / scn.access_weight, rate_b)
        flat = int(np.argmax(maxmin))
        if maxmin.flat[flat] > best:
            best = maxmin.flat[flat]
            i, j = divmod(start * resolution + flat, resolution)

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
