"""Achievable rates for a satellite splitting power and bandwidth between
an access user and a backhaul base station.

The two links may share part of the band; overlapped spectrum turns the
other link's transmission into interference. Duplexing enters only through
the pair of factors returned by :func:`duplex_factors`, and all quantities
are linear SI units (W, Hz, bits/s).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DuplexMode",
    "InvalidAllocation",
    "ScenarioParams",
    "ScenarioBatch",
    "Allocation",
    "RateReport",
    "duplex_factors",
    "bandwidth_limits",
    "link_rates",
    "evaluate",
    "evaluate_many",
    "validate",
]

_SLACK = 1e-6  # relative slack of each constraint that validate checks


class DuplexMode(enum.Enum):
    FDD = "FDD"
    TDD = "TDD"


class InvalidAllocation(Exception):
    """The allocation cannot be evaluated under the given scenario."""


def duplex_factors(mode: DuplexMode) -> tuple[float, float]:
    """Time-share and bandwidth-share factors (alpha_o, alpha_1) of a duplex mode.

    FDD -> (1, 1/2): full-time transmission over half the spectrum.
    TDD -> (1/2, 1): half-time transmission over the full spectrum.
    """
    if mode is DuplexMode.FDD:
        return 1.0, 0.5
    if mode is DuplexMode.TDD:
        return 0.5, 1.0
    raise ValueError(f"unknown duplex mode: {mode!r}")


@dataclass(frozen=True)
class ScenarioParams:
    """Physical constants of one allocation problem.

    Attributes:
        total_power: Satellite transmit power budget P, W.
        total_bandwidth: Total available bandwidth W, Hz.
        overlap_bandwidth: Bandwidth shared by the two links w_o, Hz.
        noise_density: Thermal noise PSD, W/Hz.
        interference_density: Out-of-band emission / sync-error PSD, W/Hz.
        access_weight: QoS weight of the access link (0 < eps <= 1).
        duplex: FDD or TDD.
        beta_ue: Channel power gain of the access user, linear.
        beta_bs: Channel power gain of the backhaul station, linear.
    """

    total_power: float
    total_bandwidth: float
    overlap_bandwidth: float
    noise_density: float
    interference_density: float
    access_weight: float
    duplex: DuplexMode
    beta_ue: float
    beta_bs: float

    def __post_init__(self) -> None:
        if self.total_power <= 0.0:
            raise ValueError("total_power must be positive")
        if self.total_bandwidth <= 0.0:
            raise ValueError("total_bandwidth must be positive")
        if not 0.0 <= self.overlap_bandwidth <= self.total_bandwidth:
            raise ValueError("overlap_bandwidth must lie in [0, total_bandwidth]")
        if self.noise_density <= 0.0 or self.interference_density <= 0.0:
            raise ValueError("noise and interference densities must be positive")
        if not 0.0 < self.access_weight <= 1.0:
            raise ValueError("access_weight must lie in (0, 1]")
        if self.beta_ue <= 0.0 or self.beta_bs <= 0.0:
            raise ValueError("channel gains must be positive")

    @property
    def density(self) -> float:
        """Noise-plus-interference PSD seen by both links, W/Hz."""
        return self.noise_density + self.interference_density

    @property
    def alpha_o(self) -> float:
        """Time-share factor of the duplex mode; see :func:`duplex_factors`."""
        return duplex_factors(self.duplex)[0]

    @property
    def alpha_1(self) -> float:
        """Bandwidth-share factor of the duplex mode; see :func:`duplex_factors`."""
        return duplex_factors(self.duplex)[1]


@dataclass(frozen=True)
class ScenarioBatch:
    """S scenarios as a struct of arrays, for :func:`link_rates` and the swarm.

    Each attribute is an (S, 1) float column holding the ScenarioParams
    attribute of the same name, row s for scenario s, so the columns
    broadcast against (S, N) arrays of allocations.
    """

    total_power: np.ndarray
    total_bandwidth: np.ndarray
    overlap_bandwidth: np.ndarray
    density: np.ndarray
    access_weight: np.ndarray
    beta_ue: np.ndarray
    beta_bs: np.ndarray
    alpha_o: np.ndarray
    alpha_1: np.ndarray

    @classmethod
    def stack(cls, scns: Sequence[ScenarioParams]) -> "ScenarioBatch":
        return cls(**{
            f.name: np.array([getattr(scn, f.name) for scn in scns], dtype=float).reshape(-1, 1)
            for f in fields(cls)
        })


@dataclass(frozen=True)
class Allocation:
    """Decision variables: per-link transmit powers (W) and bandwidths (Hz)."""

    p_ue: float
    p_bs: float
    w_a: float
    w_b: float

    def __post_init__(self) -> None:
        for name in ("p_ue", "p_bs", "w_a", "w_b"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class RateReport:
    """Rates achieved by one allocation, all in bits/s.

    maxmin_level is min(rate_access / eps, rate_backhaul); fitness is the
    equivalent min(rate_access, eps * rate_backhaul) = eps * maxmin_level.
    """

    rate_access: float
    rate_backhaul: float
    throughput: float
    maxmin_level: float
    fitness: float

    @classmethod
    def from_rates(cls, rate_a: float, rate_b: float, eps: float) -> "RateReport":
        """Report of an allocation with access rate rate_a and backhaul rate rate_b."""
        return cls(
            rate_access=rate_a,
            rate_backhaul=rate_b,
            throughput=rate_a + rate_b,
            maxmin_level=min(rate_a / eps, rate_b),
            fitness=min(rate_a, eps * rate_b),
        )


def bandwidth_limits(scn: ScenarioParams | ScenarioBatch):
    """Bandwidth bounds of the feasible set: the budget alpha_1 (W + w_o)
    of the two links together, and the floor alpha_1 w_o and cap alpha_1 W
    of each link. Floats for one scenario, (S, 1) columns for a batch."""
    alpha_1, w, w_o = scn.alpha_1, scn.total_bandwidth, scn.overlap_bandwidth
    return alpha_1 * (w + w_o), alpha_1 * w_o, alpha_1 * w


def link_rates(scn: ScenarioParams | ScenarioBatch, p_ue, p_bs, w_a, w_b):
    """Vectorized access and backhaul rates for arrays of allocations.

    Accepts scalars or broadcastable numpy arrays and returns the pair
    (access, backhaul) in bits/s. scn is one scenario, or a ScenarioBatch
    whose (S, 1) columns broadcast against allocation arrays with one row
    per scenario. Zero-bandwidth entries yield zero rate (the
    x*log(1+c/x) -> 0 limit); entries whose interference term would divide
    by a zero bandwidth also yield zero. Scalar callers that need an error
    instead of the zero fallback should use :func:`evaluate`.

    The inputs are not broadcast against each other up front, so a term
    of one axis only, such as the noise of a row of bandwidths, is computed
    at that size. Each rate has the broadcast shape of what it depends on:
    the scenario's columns, its own link's power and bandwidth and, when
    any scenario overlaps, the other link's power and bandwidth. Its values
    equal those computed from inputs broadcast to one shape first.
    """
    alpha_o, alpha_1, dens, w_o = scn.alpha_o, scn.alpha_1, scn.density, scn.overlap_bandwidth
    # Without overlap in any scenario the interference term is zero;
    # skipping it keeps the large orthogonal grid batches cheap.
    overlapped = np.any(w_o > 0.0)
    p_ue, p_bs, w_a, w_b = (np.asarray(x, dtype=float) for x in (p_ue, p_bs, w_a, w_b))

    def one_way(p_own, beta, w_own, p_other, w_other):
        noise = dens * w_own
        if overlapped:
            positive = w_other > 0.0
            # A scenario with w_o = 0 adds exactly zero interference, so the
            # other link's bandwidth may be zero there.
            other_ok = positive | (w_o == 0.0)
            interf = alpha_1 * p_other * beta * w_o / np.where(positive, w_other, 1.0)
            den = noise + interf
        else:
            other_ok = True
            den = noise
        active = (w_own > 0.0) & other_ok
        sinr = p_own * beta / np.where(den > 0.0, den, 1.0)
        rate = alpha_o * w_own * np.log2(1.0 + sinr)
        return np.where(active, rate, 0.0)

    rate_a = one_way(p_ue, scn.beta_ue, w_a, p_bs, w_b)
    rate_b = one_way(p_bs, scn.beta_bs, w_b, p_ue, w_a)
    return rate_a, rate_b


def evaluate(scn: ScenarioParams, alloc: Allocation) -> RateReport:
    """Full rate report for one allocation.

    Raises InvalidAllocation when the links overlap but one bandwidth is
    zero, which would put a zero bandwidth under the interference term.
    """
    if scn.overlap_bandwidth > 0.0 and 0.0 in (alloc.w_a, alloc.w_b):
        raise InvalidAllocation("overlapping spectrum with a zero bandwidth is not evaluable")
    rate_a, rate_b = link_rates(scn, alloc.p_ue, alloc.p_bs, alloc.w_a, alloc.w_b)
    return RateReport.from_rates(float(rate_a), float(rate_b), scn.access_weight)


def evaluate_many(batch: ScenarioBatch, alloc: np.ndarray) -> list[RateReport]:
    """Rate reports of the (S, 4) allocations alloc (p_ue, p_bs, w_a, w_b),
    row s under scenario s of batch, all from one link_rates call. Row s
    equals :func:`evaluate` where that does not raise; there the zero
    fallback of :func:`link_rates` applies."""
    rate_a, rate_b = link_rates(batch, *(alloc[:, k:k + 1] for k in range(4)))
    table = np.hstack((rate_a, rate_b, batch.access_weight)).tolist()
    return [RateReport.from_rates(*row) for row in table]


def validate(scn: ScenarioParams, alloc: Allocation) -> list[str]:
    """Feasibility check; returns the identifiers of violated constraints.

    Constraints, with relative slack _SLACK (power bounds scaled by the power
    budget, bandwidth bounds by the per-link bandwidth cap):
        1a: p_ue + p_bs <= P
        1b: w_a + w_b <= alpha_1 (W + w_o)
        1c: w_a, w_b <= alpha_1 W
        1d: w_a, w_b >= alpha_1 w_o
    """
    p_cap = scn.total_power
    band_cap, w_lo, w_hi = bandwidth_limits(scn)
    violated = []
    if alloc.p_ue + alloc.p_bs > p_cap + _SLACK * p_cap:
        violated.append("1a")
    if alloc.w_a + alloc.w_b > band_cap + _SLACK * band_cap:
        violated.append("1b")
    if alloc.w_a > w_hi + _SLACK * w_hi or alloc.w_b > w_hi + _SLACK * w_hi:
        violated.append("1c")
    if alloc.w_a < w_lo - _SLACK * w_hi or alloc.w_b < w_lo - _SLACK * w_hi:
        violated.append("1d")
    return violated
