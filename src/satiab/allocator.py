"""Solvers for the max-min power/bandwidth split between access and backhaul.

Three routes to the same problem: an exact parametric solver for the
orthogonal (no-overlap) case, a particle swarm for the general case, and a
grid search used as an independent cross-check.

The orthogonal solver finds the level zeta whose cheapest power, over the
bandwidth split, meets the budget, and the split where the links' marginal
power costs are equal, by Newton steps that bisect a bracket of each root.

Every solver takes a ScenarioBatch and returns arrays with one row per
scenario: the (S, 4) allocations (p_ue, p_bs, w_a, w_b), the iterations
used and the converged flags. The one-row views stay, unexported, only for
bench/spans.py, which wraps them by name. The solvers have no names here:
the CLI's table in expcli names them.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ratemodel import _LN2, ScenarioBatch, bandwidth_limits, link_rates, rate_kernel
# Unused here: the span tracer of bench/spans.py wraps this name in this module.
from .ratemodel import evaluate  # noqa: F401

__all__ = [
    "PsoConfig",
    "solve_orthogonal_many",
    "grid_oracle_many",
    "run_pso",
    "pso_solve_many",
]

_SERIES_Y = 1e-2  # below this y, _log_marginal_cost sums g(y) / y as a series,
_G_SERIES = [-1 / 5040, 1 / 720, -1 / 120, 1 / 24, -1 / 6, 1 / 2]  # y polyval(_G_SERIES, y)
_BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest access share, so the backhaul's stays positive
_MAX_STEPS = 200
_Solved = tuple[np.ndarray, np.ndarray, np.ndarray]  # allocations, iterations, converged
_SolvedRow = tuple[tuple[float, float, float, float], int, bool]  # one row of a _Solved
_GRID_BLOCK = 4_096  # grid columns per grid_oracle_many chunk: 32 KiB per column array, made once
_SWARM_PARTICLES = 32_768  # particles per run_pso batch of pso_solve_many, each with its scenario row
_ROW_DRAWS, _BLOCK_DRAWS = 4_096, 131_072  # velocity draws read at once: about per row, at most in all
_LEARNING_FACTOR, _INERTIA_WEIGHT = 2.0, 0.01  # the reference swarm's step rule, one factor for both


@dataclass(frozen=True)
class PsoConfig:
    """The swarm's size: its particles and iterations.

    The defaults reproduce the reference configuration, 50 particles and
    200 iterations. Its step rule is fixed at the reference's: inertia weight
    0.01, both learning factors 2 (_INERTIA_WEIGHT, _LEARNING_FACTOR; run_pso holds
    the velocity over 2, a power of two, so every product rounds as the reference's),
    and a ring neighborhood that includes the particle itself. The seed is not a
    hyperparameter: each swarm is keyed by its solve call's seed, so one config serves every row.
    """

    population_size: int = 50
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if operator.index(self.population_size) < 3:
            raise ValueError("population_size must be >= 3 (ring topology)")
        if operator.index(self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")


def _inversion_power(rate, bandwidth, gain):
    """Power (2**(rate / w) - 1) * w / gain that carries rate
    over bandwidth w > 0 on one orthogonal link, elementwise; +inf on overflow."""
    with np.errstate(over="ignore"):
        return np.expm1(rate / bandwidth * _LN2) * bandwidth / gain


def _log_marginal_cost(y):
    """log h(y) and its derivative y / g(y), elementwise for y > 0, where
    h(y) = expm1(y)(y - 1) + y and g(y) = e**-y h(y) = y + expm1(-y). g / y
    is 1 + expm1(-y) / y (1 at y = inf) or, below _SERIES_Y, where that
    loses digits, its Taylor series to 1e-16; neither h nor e**y is formed.
    """
    g_over_y = 1.0 + np.expm1(-y) / y
    if y.min() < _SERIES_Y:
        small = np.minimum(y, _SERIES_Y)  # so the series cannot overflow where it is not used
        g_over_y = np.where(y < _SERIES_Y, small * np.polyval(_G_SERIES, small), g_over_y)
    return y + np.log(y) + np.log(g_over_y), 1.0 / g_over_y


def _split_share(y_whole, log_gain_ratio, share):
    """Access shares s of the bandwidth budget, an (S,) row, that minimize
    the power delivering both links' rates, given their y = rate ln2 / w
    at the whole budget (the (2, S) plane y_whole: access, then
    backhaul), log(gain_bs / gain_ue) and a starting share per scenario.

    A link's power inversion has derivative -h(y) / gain in its
    bandwidth, so the total power is convex in s and least where F(s) =
    log h(y_a) - log h(y_b) + log(gain_bs / gain_ue) is zero; F falls from
    +inf to -inf across (0, 1). Each row takes Newton steps on F in a
    bracket that starts as (0, 1), bisects the bracket where a step would
    leave it, and stops after a Newton step of at most 1e-8 min(s, 1 - s)
    (which leaves s good to rounding) or where s stalls.
    """
    lo, hi = np.zeros_like(share), np.ones_like(share)
    done = np.zeros(share.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        pair = np.stack((share, 1.0 - share))
        y = y_whole / pair
        log_h, slope = _log_marginal_cost(y)
        f = log_h[0] - log_h[1] + log_gain_ratio
        lo, hi = np.where(f > 0.0, share, lo), np.where(f > 0.0, hi, share)
        new = share + f / np.add(*(slope * y / pair))
        # a step below rounding leaves share, which may be the bracket's new end
        newton = (new > lo) & (new < hi) | (new == share)
        new = np.minimum(np.where(newton, new, 0.5 * (lo + hi)), _BELOW_ONE)
        small = np.abs(new - share) <= 1e-8 * np.minimum(*pair)
        share, done = np.where(done, share, new), done | newton & small | (new == share)
        if done.all():
            break
    return share


def _solved_alone(solve_many, scn: ScenarioBatch, *args) -> _SolvedRow:
    """solve_many(scn, *args) at the one-row batch scn: ((p_ue, p_bs, w_a, w_b), iterations, converged)."""
    (alloc,), (iterations,), (converged,) = solve_many(scn, *args)
    return tuple(alloc.tolist()), int(iterations), bool(converged)


def solve_orthogonal_many(batch: ScenarioBatch) -> _Solved:
    """Exact max-min solutions of many orthogonal scenarios (overlap zero).

    The power needed at level zeta, with the cheapest split of the whole
    bandwidth budget (from _split_share, warm-started at the row's last
    share), is convex and increasing in zeta. Each row keeps a bracket of a
    feasible lo and an infeasible hi, from [0, zeta_ub], and takes Newton
    steps on log(power needed / P) in log zeta from the least of three upper
    bounds. The envelope theorem gives the slope without differentiating
    the split: d power / d log zeta sums w / gain e**y y over the links.
    A step that would leave the bracket bisects it, and one of at most
    0.5e-13 zeta goes an eighth further (at least 1e-14 zeta), so that the
    bracket closes around the root.

    A row stops once hi - lo <= 1e-13 lo, relative to its own bracket;
    its iterations count its levels, and converged says it stopped so. It
    returns the allocation computed at its final lo, whose powers sum to at
    most P exactly, or both budgets halved where zeta_ub is 0 (p gain
    underflows, far outside the config ranges). Rows share only elementwise
    arithmetic, so row s is exactly the solve of scenario s alone.
    """
    if (batch.overlap_bandwidth != 0.0).any():
        raise ValueError("solve_orthogonal requires overlap_bandwidth == 0")
    p_total, w_total = batch.total_power, bandwidth_limits(batch)[0]  # both links' budget, w_o being 0
    # upper bounds on zeta: each link alone, and both below log2(1 + x) <= x / ln2
    rate_a, zeta_ub = link_rates(batch, np.stack((p_total,) * 2), np.stack((w_total,) * 2)).reshape(2, -1)
    # (S,) rows, one per scenario, and (2, S) planes, one row per link: access, then backhaul
    eps, p_total, w_total = (c.ravel() for c in (batch.access_weight, p_total, w_total))
    gain = np.vstack((batch.gain_ue.T, batch.gain_bs.T))
    log_gain_ratio = np.log(batch.gain_bs / batch.gain_ue).ravel()
    rate_per_zeta = np.stack((eps, np.ones_like(eps)))
    y_per_zeta = rate_per_zeta * _LN2 / w_total
    low_snr = p_total / (_LN2 * np.add(*(rate_per_zeta / gain)))
    zeta = np.minimum(np.minimum(zeta_ub, np.where(rate_a > 0.0, rate_a / eps, np.inf)), low_snr)
    zeta = np.where(zeta > 0.0, zeta, zeta_ub)
    lo, hi = np.zeros_like(zeta_ub), zeta_ub.copy()
    share = y_per_zeta[0] / np.add(*y_per_zeta)  # equal y on both links
    alloc = 0.5 * np.vstack((p_total, p_total, w_total, w_total))  # both budgets halved, spent exactly
    iterations = np.zeros(zeta_ub.shape, dtype=int)
    for _ in range(_MAX_STEPS):
        active = hi - lo > 1e-13 * lo
        if not active.any():
            break
        iterations += active
        rows = slice(None) if active.all() else np.flatnonzero(active)  # views while all rows are
        z, y_z = zeta[rows], zeta[rows] * y_per_zeta[:, rows]
        share[rows] = s = _split_share(y_z, log_gain_ratio[rows], share[rows])
        pair = np.stack((s, 1.0 - s))
        w = pair * w_total[rows]
        p = _inversion_power(z * rate_per_zeta[:, rows], w, gain[:, rows])
        spent = np.add(*p)
        feasible = spent <= p_total[rows]
        lo_s, hi_s = np.where(feasible, z, lo[rows]), np.where(feasible, hi[rows], z)
        lo[rows], hi[rows] = lo_s, hi_s
        alloc[:, rows] = np.where(feasible, np.concatenate((p, w)), alloc[:, rows])
        growth = np.add(*((p + w / gain[:, rows]) * (y_z / pair)))
        with np.errstate(divide="ignore", invalid="ignore"):  # spent 0 or inf: a NaN step bisects
            step = np.abs(z * np.expm1(np.log(p_total[rows] / spent) * spent / growth))
        step = np.where(step <= 0.5e-13 * z, step + np.maximum(0.125 * step, 1e-14 * z), step)
        new = z + np.where(feasible, step, -step)
        zeta[rows] = np.where((new > lo_s) & (new < hi_s), new, 0.5 * (lo_s + hi_s))

    return alloc.T.copy(), iterations, hi - lo <= 1e-13 * lo


def solve_orthogonal(scn: ScenarioBatch) -> _SolvedRow:
    """Exact max-min solution of the orthogonal one-row batch scn; see :func:`solve_orthogonal_many`."""
    return _solved_alone(solve_orthogonal_many, scn)


def _grid_rows(lo, hi, k, last):
    """Points k of np.linspace(lo, hi, last + 1) in each (S, 1) row, bit for bit: k (hi - lo) / last,
    or k / last (hi - lo) where that step underflows to 0, + lo; hi at k = last (a zero width: lo)."""
    step = (hi - lo) / last
    return np.where(k == last, hi, np.where(step == 0.0, k / last * (hi - lo), k * step) + lo)


def _grid_maxima(batch: ScenarioBatch, resolution: int) -> np.ndarray:
    """(S, 4) allocations at the grid maxima of batch, one search per column; see grid_oracle_many."""
    eps, p_total, last = batch.access_weight, batch.total_power, resolution - 1
    band_total, w_lo, w_hi = bandwidth_limits(batch)
    cols, p_step = np.arange(resolution), p_total / last
    w_a = _grid_rows(w_lo, w_hi, cols, last)
    w, exact = np.stack((w_a, band_total - w_a)), p_step.all()  # exact: row k < last is k p_step
    rates = rate_kernel(batch)(w)
    # the first row hi with a >= b, by binary lifting: for each power-of-two step, largest first,
    # hi moves one past its probe hi + step - 1 where a < b there (a_lo keeps that a), and b_hi
    # keeps b where a >= b, which ends as b at row hi. The last row qualifies unevaluated (p_bs = 0,
    # so b = 0): no probe passes last - 1. Each step writes in place, on rows as exact floats and
    # on terms at the grid's shape (not broadcast, which costs more).
    hi, a_lo, b_hi = np.zeros(w_a.shape), np.full(w_a.shape, -math.inf), np.zeros(w_a.shape)
    probe, crossed, p = np.empty_like(hi), np.empty(w_a.shape, dtype=bool), np.empty((2, *w_a.shape))
    step, total, weight = (np.repeat(column, resolution, axis=1) for column in (p_step, p_total, eps))
    for k in reversed(range(last.bit_length())):
        np.minimum(np.add(hi, 2**k - 1, out=probe), last - 1, out=probe)
        np.multiply(probe, step, out=p[0])
        if not exact:
            p[0] = _grid_rows(0.0, p_total, probe, last)
        np.subtract(total, p[0], out=p[1])
        a, b = rates(p)
        a /= weight
        np.greater_equal(a, b, out=crossed)
        np.copyto(b_hi, b, where=crossed)
        np.logical_not(crossed, out=crossed)
        np.copyto(hi, np.add(probe, 1, out=probe), where=crossed)
        np.copyto(a_lo, a, where=crossed)
    # a column's maximum is max(a_lo, b_hi): at row hi where b wins, else at row hi - 1, or
    # row 0 where it is 0 (a is 0 at p_ue = 0); of the columns at their scenario's maximum,
    # the smallest row, then the smallest column
    best = np.maximum(a_lo, b_hi)
    row = np.where(a_lo >= b_hi, np.where(best > 0.0, hi - 1, 0), hi)
    first = np.where(best < best.max(axis=1, keepdims=True), math.inf, row * resolution + cols)
    i, j = np.divmod(first.min(axis=1).astype(np.intp), resolution)
    p_ue = _grid_rows(0.0, p_total, i[:, None], last)
    return np.column_stack((p_ue, p_total - p_ue, *w[:, np.arange(len(batch)), j]))


def grid_oracle_many(batch: ScenarioBatch, resolution: int) -> _Solved:
    """Maximizers of the max-min level over uniform grids, one row per scenario.

    Each grid spans the power split p_ue in [0, P] (with p_bs = P - p_ue)
    and the bandwidth split w_a in [w_o, W] with the
    bandwidth budget used exactly, which keeps every grid point feasible.
    Row s is a maximizer of min(rate_a / eps, rate_b) over the grid of
    scenario s, found without evaluating the whole grid: the point np.argmax
    picks, except on a rounding plateau (below).

    Down a column (a fixed bandwidth split), p_ue rises and p_bs = P - p_ue
    falls, so the access SINR rises (its own power up, its interferer's
    down) and the backhaul SINR falls, with or without overlap: a =
    rate_a / eps never decreases, b = rate_b never increases, and min(a, b)
    peaks where they cross. A binary search in power-of-two steps finds the
    first row k with a >= b (the last row, where b = 0, qualifies). The
    column's maximum is max(a[k - 1], b[k]), taken at row k if b[k] is
    greater, else at row k - 1, or row 0 if it is 0. That is the column's
    first maximum unless a is flat for some rows before k: rounding makes
    such plateaus where an SINR is a few subnormal ulps, far outside the
    config ranges, and the search then returns the plateau's last row, at
    the same level. The columns at their scenario's maximum combine by
    smallest row, then smallest column, as np.argmax does in row-major order.

    Scenarios are searched in chunks of at most _GRID_BLOCK columns (at least
    one scenario), each with one rate_kernel and one bandwidth stage of it,
    at the grid's columns, which serves every step of the search. A step
    computes its powers from its rows: a chunk allocates no stored power grid
    or gather index. Rows count resolution**2 grid points as iterations.
    """
    resolution = operator.index(resolution)
    if resolution < 10:
        raise ValueError("resolution must be >= 10")
    n, rows = len(batch), max(1, _GRID_BLOCK // resolution)
    alloc = [_grid_maxima(batch.take(slice(k, k + rows)), resolution) for k in range(0, n, rows)]
    return np.concatenate(alloc or [np.empty((0, 4))]), np.full(n, resolution**2), np.ones(n, bool)


def grid_oracle(scn: ScenarioBatch, resolution: int) -> _SolvedRow:
    """Grid maximizer of the max-min level of the one-row batch scn; see :func:`grid_oracle_many`."""
    return _solved_alone(grid_oracle_many, scn, resolution)


def _ring_best(fitness: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Flat indices of each particle's ring-neighborhood best, ring holding those of (self,
    previous, next) in the (S, N) fitness: np.argmax's first maximum over the three."""
    here, before, after = ring
    best = np.where(fitness.take(before) > fitness, before, here)
    return np.where(fitness.take(after) > fitness.take(best), after, best)


def _normalize_population(swarm: np.ndarray, scale: np.ndarray, w_lo: np.ndarray, w_hi: np.ndarray) -> None:
    """Project the swarm's (S, N) planes p_ue, p_bs, w_a, w_b onto their feasible sets, in place
    and both pairs in one pass: fold each pair positive, rescale it to sum to its budget in the
    (2, S, N) scale pair (P, W + w_o), and clamp the bandwidths into [w_lo, w_hi],
    which keeps their budget as the two overshoot symmetrically. A pair summing to zero goes to
    the middle of its budget, the projection of the zero vector, which lies inside the clamps."""
    pairs = np.abs(swarm, out=swarm).reshape(2, 2, *swarm.shape[1:])  # views: powers, bandwidths
    sums = np.add(swarm[0::2], swarm[1::2])
    if not sums.all():
        zero = sums == 0.0
        np.copyto(pairs, 1.0, where=zero[:, None])
        np.copyto(sums, 2.0, where=zero)
    pairs *= np.divide(scale, sums, out=sums)[:, None]
    np.minimum(np.maximum(swarm[2:], w_lo, out=swarm[2:]), w_hi, out=swarm[2:])


def run_pso(batch: ScenarioBatch, cfg: PsoConfig, seeds: Sequence[int],
            initial_population: np.ndarray | None = None) -> np.ndarray:
    """Run one particle swarm per scenario and return the (S, 4) best
    particles (p_ue, p_bs, w_a, w_b), one row per scenario.

    Per iteration: normalize the population onto the feasible set, score
    every particle with min(rate_access, eps * rate_backhaul), pick the
    iteration-global best and each particle's ring-neighborhood best, then
    accumulate velocities
        X += u1 r1 (local_best - F) + u2 r2 (global_best - F)
    and step positions by F += mu X, to the bit as Y += r1 (local_best - F) + r2 (global_best -
    F) and F += (u mu) Y with Y = X / u, u1 = u2 = u being a power of two. A row's result is
    the best particle seen across all its iterations.

    The S swarms of batch run in lockstep as four contiguous (S, N) planes, one per
    coordinate, stepped in place; initial_population, if given, is S x N x 4. The rate kernel
    is built once, on one scenario row per particle, and called on the planes viewed as
    (2, S N, 1) columns, so no step broadcasts a scenario's terms along its row. Row s draws
    from its own Philox generator, keyed by seeds[s], in a fixed sequential order:
    initialization fills its N x 4 population row-major, then each velocity update consumes
    an N x 4 x 2 block row-major with r1 before r2 per element, read into an (S, K, 8 N) block
    K iterations at a time, which leaves the order unchanged. The projection takes no draws, so
    a row hands out 4 N + 8 N K ceil(T / K) draws in T iterations, whatever its swarm does. So
    a row's result is bit-identical for a fixed seed, and does not depend on the other rows or
    on how fitness evaluation is scheduled.
    """
    seeds, size, n = list(seeds), len(batch), cfg.population_size
    if len(seeds) != size:
        raise ValueError(f"{len(seeds)} seeds for {size} scenarios")

    particles = batch.take(np.repeat(np.arange(size), n))  # one scenario row per particle
    eps, p_total, band_total, w_lo, w_hi = (column.reshape(size, n) for column in (
        particles.access_weight, particles.total_power, *bandwidth_limits(particles)))
    scale, rates_of = np.stack((p_total, band_total)), rate_kernel(particles)

    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
    if initial_population is None:
        swarm = np.empty((size, n, 4))
        for rng, rows in zip(rngs, swarm):
            rng.random(out=rows)
        swarm *= scale.repeat(2, axis=0).transpose(1, 2, 0)
    else:
        swarm = np.asarray(initial_population, dtype=float)
        if swarm.shape != (size, n, 4):
            raise ValueError(f"initial_population must have shape {(size, n, 4)}")
    swarm = swarm.transpose(2, 0, 1).copy()  # (4, S, N): one contiguous plane per coordinate
    planes = swarm.reshape(4, -1)
    velocity, term, local = np.zeros_like(swarm), np.empty_like(swarm), np.empty_like(swarm)
    depth = max(1, min(_ROW_DRAWS, _BLOCK_DRAWS // max(size, 1)) // (8 * n))  # K iterations a block
    block = np.empty((size, depth, 8 * n))
    ring = np.stack([np.roll(np.arange(size * n).reshape(size, n), k, axis=1) for k in (0, 1, -1)])

    best_fitness = np.full(size, -math.inf)
    best_particle = swarm[..., 0].copy()

    for t in range(cfg.max_iterations):
        _normalize_population(swarm, scale, w_lo, w_hi)
        rate_a, rate_b = rates_of(planes[2:, :, None])(planes[:2, :, None]).reshape(2, size, n)
        fitness = np.minimum(rate_a, np.multiply(eps, rate_b, out=rate_b), out=rate_a)

        leader = ring[0, :, 0] + np.argmax(fitness, axis=1)
        global_best = planes[:, leader]
        lead_fitness = fitness.take(leader)
        improved = lead_fitness > best_fitness
        np.copyto(best_fitness, lead_fitness, where=improved)
        np.copyto(best_particle, global_best, where=improved)

        if t % depth == 0:  # each row's velocity draws of its next K iterations
            for rng, rows in zip(rngs, block):
                rng.random(out=rows)
        step = block[:, t % depth].reshape(size, n, 4, 2).transpose(3, 2, 0, 1)  # r1, r2 by plane
        np.take(planes, _ring_best(fitness, ring), axis=1, out=local, mode="clip")
        for r, best in zip(step, (local, global_best[..., None])):  # velocity over _LEARNING_FACTOR
            velocity += np.multiply(r, np.subtract(best, swarm, out=local), out=term)
        swarm += np.multiply(_LEARNING_FACTOR * _INERTIA_WEIGHT, velocity, out=term)

    return best_particle.T.copy()


def pso_solve_many(batch: ScenarioBatch, cfg: PsoConfig, seeds: Sequence[int]) -> _Solved:
    """Particle-swarm solutions of many scenarios, in lockstep batches of
    at most _SWARM_PARTICLES particles (and at least one row) each.

    Row s is the swarm keyed by seeds[s] (see :func:`run_pso`), so it
    gets exactly the result of scenario s solved alone with seeds[s],
    whatever the other rows. Each row counts cfg.max_iterations.
    """
    seeds, n = list(seeds), len(batch)
    if len(seeds) != n:
        raise ValueError(f"{len(seeds)} seeds for {n} scenarios")
    rows = max(1, _SWARM_PARTICLES // cfg.population_size)
    best = [run_pso(batch.take(slice(k, k + rows)), cfg, seeds[k:k + rows]) for k in range(0, n, rows)]
    best = np.concatenate(best or [np.empty((0, 4))])
    return best, np.full(n, cfg.max_iterations), np.ones(n, bool)


def pso_solve(scn: ScenarioBatch, cfg: PsoConfig, seed: int) -> _SolvedRow:
    """Particle-swarm solution of the one-row batch scn, keyed by seed; see :func:`pso_solve_many`."""
    return _solved_alone(pso_solve_many, scn, cfg, [seed])
