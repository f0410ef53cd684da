"""Achievable rates for a satellite splitting power and bandwidth between
an access user and a backhaul base station.

The two links may share part of the band; overlapped spectrum turns the
other link's transmission into interference. Each bandwidth v is in airtime
hertz, hertz times time share, so every rate is v log2(1 + SINR); expcli
converts FDD and TDD hertz to and from it. A link's gain is its channel gain over
the noise density per airtime hertz, so p gain / v is its SNR. Quantities are
linear SI units.

A ScenarioBatch holds S scenarios as (S, 1) columns, checked as a whole,
and one scenario is a batch of one row. evaluate_many and validate_many
take a batch and its (S, 4) allocations and return arrays. Their one-row
views evaluate and validate stay, unexported, only for bench/spans.py,
which wraps them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScenarioBatch",
    "bandwidth_limits",
    "link_rates",
    "rate_kernel",
    "evaluate_many",
    "validate_many",
    "CONSTRAINTS",
]

_SLACK = 1e-6  # relative slack of each constraint that validate_many checks
_LN2 = math.log(2.0)  # a rate is w log1p(SINR) / _LN2: log2(1 + SINR) without rounding 1 + SINR
CONSTRAINTS = ("1a", "1b", "1c", "1d")  # the columns of validate_many, in order


# The conditions of a valid scenario and their messages, each on a
# ScenarioBatch's whole columns.
_SCENARIO_CHECKS = (
    (lambda s: s.total_power > 0.0, "total_power must be positive"),
    (lambda s: s.total_bandwidth > 0.0, "total_bandwidth must be positive"),
    (lambda s: (0.0 <= s.overlap_bandwidth) & (s.overlap_bandwidth <= s.total_bandwidth),
     "overlap_bandwidth must lie in [0, total_bandwidth]"),
    (lambda s: (0.0 < s.access_weight) & (s.access_weight <= 1.0), "access_weight must lie in (0, 1]"),
    (lambda s: (s.gain_ue > 0.0) & (s.gain_bs > 0.0), "channel gains must be positive"),
)


@dataclass(frozen=True)
class ScenarioBatch:
    """The physical constants of S allocation problems as (S, 1) float columns,
    row s for scenario s, which broadcast against (S, N) arrays of allocations;
    one scenario is a batch of one row. The columns are checked as a whole.

    Attributes:
        total_power: Satellite transmit power budget P, W.
        total_bandwidth: Either link's bandwidth cap W, airtime Hz.
        overlap_bandwidth: Bandwidth shared by the two links w_o, airtime Hz.
        access_weight: QoS weight of the access link (0 < eps <= 1).
        gain_ue: Channel power gain of the access user over the noise-plus-interference
            density (thermal noise plus out-of-band emission / sync error) in W per
            airtime Hz, airtime Hz/W: p gain_ue / v is the access link's SNR.
        gain_bs: The same of the backhaul station.
    """

    total_power: np.ndarray
    total_bandwidth: np.ndarray
    overlap_bandwidth: np.ndarray
    access_weight: np.ndarray
    gain_ue: np.ndarray
    gain_bs: np.ndarray

    def __post_init__(self) -> None:
        for name, column in vars(self).items():
            if np.shape(column) != np.shape(self.total_power)[:1] + (1,):
                raise ValueError(f"{name} must have shape (S, 1), with total_power's S, got {np.shape(column)}")
        for holds, message in _SCENARIO_CHECKS:
            if not holds(self).all():
                raise ValueError(message)

    def __len__(self) -> int:
        return len(self.total_power)

    def take(self, rows) -> "ScenarioBatch":
        """The scenarios at rows (an index list, mask, slice or index), unchecked: their checks passed."""
        batch = object.__new__(ScenarioBatch)
        batch.__dict__.update({name: column[rows].reshape(-1, 1) for name, column in vars(self).items()})
        return batch


def bandwidth_limits(batch: ScenarioBatch):
    """Bandwidth bounds of the feasible set, as (S, 1) columns: the budget
    W + w_o of the two links together, and the floor w_o and cap W of each link."""
    return batch.total_bandwidth + batch.overlap_bandwidth, batch.overlap_bandwidth, batch.total_bandwidth


def _all_positive(x: np.ndarray) -> bool:
    """Whether every element of x is above zero: false if one is NaN, true if x is empty."""
    return x.min(initial=np.inf) > 0.0


def _link_pair(x) -> np.ndarray:
    """x as a float (2, rows, columns) link pair; see link_rates."""
    x = np.asarray(x, dtype=float)
    if x.shape[:1] != (2,) or x.ndim != 3:
        raise ValueError(f"link pairs must be (2, rows, columns) arrays, got shape {x.shape}")
    return x


def _denominator(den: np.ndarray, plain: bool) -> np.ndarray:
    """den, with 1.0 standing in where it is not above zero, unless plain and all of it is."""
    return den if plain and _all_positive(den) else np.where(den > 0.0, den, 1.0)


def rate_kernel(batch: ScenarioBatch):
    """link_rates(batch, p, w) in three stages, bit for bit: rate_kernel(batch)(w)(p).
    Building it computes the batch's own terms once, the (2, S, 1) gain pair and whether
    any scenario overlaps. Its call at w, the bandwidth stage, computes the terms of w alone,
    with no noise term: the prefactor w / ln 2, w with its stand-in (the orthogonal denominator
    and, reversed, the other link's bandwidth) and the zero-rate mask's inverse. The function of
    p it returns holds a view of w (do not write w while in use) and computes the rest in one
    new array a call (one more holds an overlap's denominator)."""
    w_o, gain = batch.overlap_bandwidth, np.asarray((batch.gain_ue, batch.gain_bs), dtype=float)
    overlapped = np.any(w_o > 0.0)  # if not, the interference term is zero and skipped

    def at(w):
        w = _link_pair(w)
        plain, zero = _all_positive(w), None
        safe = w if plain else np.where(w > 0.0, w, 1.0)  # 1.0 stands in where w is not above zero
        if not plain:
            # w_o = 0 adds exactly zero interference: the other link's bandwidth may be 0 there
            ok = w > 0.0
            zero = ~(ok & (ok[::-1] | (w_o == 0.0)) if overlapped else ok)
        prefactor = w / _LN2

        def rates(p) -> np.ndarray:
            p = _link_pair(p)
            rate = np.multiply(p, gain, out=np.empty(np.broadcast(w, p, gain).shape))  # at the joint shape
            if overlapped:
                term = np.multiply(p[::-1], gain, out=np.empty_like(rate))
                term *= w_o
                term /= safe[::-1]
            rate /= _denominator(np.add(w, term, out=term), plain) if overlapped else safe
            np.log1p(rate, out=rate)
            rate *= prefactor
            if zero is not None:
                np.copyto(rate, 0.0, where=zero)
            return rate

        return rates

    return at


def link_rates(batch: ScenarioBatch, p, w) -> np.ndarray:
    """Access and backhaul rates, in bits/s, of the power pair p = (p_ue, p_bs)
    and the airtime-hertz pair w = (w_a, w_b): (2, rows, columns) arrays whose
    first axis holds the access link, then the backhaul link, and whose rows
    and columns broadcast against the batch's (S, 1) columns, one row per
    scenario. The result is one (2, ...) array (rate_a, rate_b) of their joint
    shape. Powers and bandwidths are not broadcast against each other up front,
    so a term of one of them only, such as the prefactor, is computed at its size.

    Each formula is written once over the pair, the other link being p[::-1]
    and w[::-1]. A zero bandwidth yields zero rate (the x*log(1+c/x) -> 0
    limit), and so does an interference term that would divide by one: every
    allocation gets rates. These fallbacks are applied only where a min() > 0.0
    check on an input fails, as NaN does, or a zero bandwidth, which a feasible
    allocation holds only where w_o = 0 (an orthogonal grid's end columns do);
    elsewhere they would change no bit. It is rate_kernel(batch)(w)(p).
    """
    return rate_kernel(batch)(w)(p)


def _check_allocations(batch: ScenarioBatch, alloc: np.ndarray) -> None:
    """Raise ValueError unless alloc holds one allocation (p_ue, p_bs, w_a, w_b) per scenario of batch."""
    if np.shape(alloc) != (len(batch), 4):
        raise ValueError(f"allocations must have shape {(len(batch), 4)}, got {np.shape(alloc)}")


def evaluate_many(batch: ScenarioBatch, alloc: np.ndarray) -> np.ndarray:
    """The (S, 4) columns zeta = min(rate_a / eps, rate_b), rate_a, rate_b
    and throughput, in bits/s, of the (S, 4) allocations alloc (p_ue, p_bs,
    w_a, w_b), row s under scenario s of batch, from one link_rates call;
    a zero bandwidth under overlap gets its zero fallback."""
    _check_allocations(batch, alloc)
    rate_a, rate_b = link_rates(batch, alloc.T[:2, :, None], alloc.T[2:, :, None])
    return np.hstack((np.minimum(rate_a / batch.access_weight, rate_b), rate_a, rate_b,
                      rate_a + rate_b))


def _one_row(alloc) -> np.ndarray:
    """The four numbers alloc (p_ue, p_bs, w_a, w_b) as (1, 4) allocations; a negative or NaN raises."""
    row = np.array([alloc], dtype=float)
    for name, value in zip(("p_ue", "p_bs", "w_a", "w_b"), row[0], strict=True):
        if not value >= 0.0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return row


def evaluate(scn: ScenarioBatch, alloc) -> tuple[float, float, float, float]:
    """(zeta, rate_a, rate_b, throughput), in bits/s, of the four numbers alloc (p_ue, p_bs, w_a, w_b)
    under the one-row batch scn: :func:`evaluate_many` at its row, zero rates for a zero bandwidth."""
    return tuple(evaluate_many(scn, _one_row(alloc))[0].tolist())


def validate_many(batch: ScenarioBatch, alloc: np.ndarray) -> np.ndarray:
    """The (S, 4) flags of constraints 1a-1d of the (S, 4) allocations alloc,
    row s under scenario s of batch.

    Constraints, with relative slack _SLACK (scaled by the power budget in
    1a, by the bound itself in 1b, by the per-link bandwidth cap in 1c, 1d):
        1a: p_ue + p_bs <= P and p_ue, p_bs >= 0
        1b: w_a + w_b <= W + w_o
        1c: w_a, w_b <= W
        1d: w_a, w_b >= w_o

    Each is written as what must hold and negated, so a NaN entry fails it.
    """
    _check_allocations(batch, alloc)
    p_ue, p_bs, w_a, w_b = (alloc[:, k:k + 1] for k in range(4))
    p_cap = batch.total_power
    band_cap, w_lo, w_hi = bandwidth_limits(batch)
    return ~np.hstack((
        (p_ue + p_bs <= p_cap + _SLACK * p_cap) & (p_ue >= -_SLACK * p_cap) & (p_bs >= -_SLACK * p_cap),
        w_a + w_b <= band_cap + _SLACK * band_cap,
        (w_a <= w_hi + _SLACK * w_hi) & (w_b <= w_hi + _SLACK * w_hi),
        (w_a >= w_lo - _SLACK * w_hi) & (w_b >= w_lo - _SLACK * w_hi),
    ))


def validate(scn: ScenarioBatch, alloc) -> list[str]:
    """The names of the constraints that the four numbers alloc violate under the one-row batch scn."""
    return [name for name, violated in zip(CONSTRAINTS, validate_many(scn, _one_row(alloc))[0]) if violated]
