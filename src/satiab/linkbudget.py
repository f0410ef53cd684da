"""Link budget primitives for a LEO satellite serving ground terminals.

Everything here computes in linear SI units (W, Hz, m, radians); decibel
quantities exist only at the conversion helpers. The channel gain of a
ground node combines the satellite and terminal antenna gains, the
normalized aperture pattern toward the node, and free-space path loss.
All operations are pure functions of their inputs and are safe to call
concurrently.
"""

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0  # m/s

__all__ = [
    "SPEED_OF_LIGHT",
    "GroundNodeParams",
    "SatelliteParams",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "bessel_j1",
    "antenna_pattern",
    "free_space_path_loss",
    "slant_distance",
    "channel_gain",
]


def db_to_linear(x_db: float) -> float:
    """Convert a decibel ratio (dB, dBi) to a linear power ratio."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Inverse of :func:`db_to_linear`; requires a positive ratio."""
    if ratio <= 0.0:
        raise ValueError(f"dB conversion needs a positive ratio, got {ratio}")
    return 10.0 * math.log10(ratio)


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level in dBm to watts (30 dBm = 1 W)."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class GroundNodeParams:
    """One ground terminal (UE or BS) as seen from the satellite.

    Attributes:
        antenna_gain: Receive antenna gain, linear power ratio.
        boresight_angle: Offset from the satellite antenna axis, radians.
        slant_distance: Satellite-to-node distance, meters.
    """

    antenna_gain: float
    boresight_angle: float
    slant_distance: float

    def __post_init__(self) -> None:
        if self.antenna_gain <= 0.0:
            raise ValueError("antenna_gain must be positive")
        if self.slant_distance <= 0.0:
            raise ValueError("slant_distance must be positive")
        if not abs(self.boresight_angle) < 0.5 * math.pi:
            raise ValueError("boresight_angle must satisfy |angle| < pi/2")


@dataclass(frozen=True)
class SatelliteParams:
    """Satellite-side antenna and carrier parameters.

    Attributes:
        antenna_gain: Transmit antenna gain, linear power ratio.
        aperture_radius: Radius of the circular antenna aperture, meters.
        carrier_frequency: Carrier frequency, Hz.
        altitude: Orbit altitude above ground, meters.
    """

    antenna_gain: float
    aperture_radius: float
    carrier_frequency: float
    altitude: float

    def __post_init__(self) -> None:
        for name in ("antenna_gain", "aperture_radius", "carrier_frequency", "altitude"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


_J1_SERIES_CUTOFF = 12.0


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind and first order.

    Power series below |x| = 12, Hankel asymptotic expansion above.
    Absolute error stays below 1e-10 on |x| <= 20 and the expansion only
    tightens for larger arguments. Odd: J1(-x) = -J1(x).
    """
    ax = abs(x)
    if ax <= _J1_SERIES_CUTOFF:
        val = _j1_series(ax)
    else:
        val = _j1_asymptotic(ax)
    return -val if x < 0.0 else val


def _j1_series(x: float) -> float:
    h = 0.5 * x
    term = h
    total = h
    for m in range(1, 60):
        term *= -(h * h) / (m * (m + 1))
        total += term
        if abs(term) <= 1e-17 * abs(total) + 1e-300:
            break
    return total


def _j1_asymptotic(x: float) -> float:
    # Hankel expansion J1(x) ~ sqrt(2/(pi x)) (P cos w - Q sin w), w = x - 3pi/4,
    # summed until the terms stop shrinking (optimal truncation).
    c = 1.0
    p_sum = 1.0
    q_sum = 0.0
    prev = math.inf
    for k in range(1, 40):
        c *= (4.0 - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(c) >= prev:
            break
        prev = abs(c)
        if k % 2 == 1:
            q_sum += c * (-1.0) ** ((k - 1) // 2)
        else:
            p_sum += c * (-1.0) ** (k // 2)
        if abs(c) < 1e-17:
            break
    w = x - 0.75 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p_sum * math.cos(w) - q_sum * math.sin(w))


def antenna_pattern(theta: float, aperture_radius: float, carrier_frequency: float) -> float:
    """Normalized gain factor of the satellite aperture toward an off-axis node.

    Returns exactly 1 at boresight; otherwise |J1(k a sin t)/(k a sin t)|
    with k = 2 pi f / c. The boresight case is a genuine discontinuity of
    this pattern (the off-axis ratio tends to 1/2, not 1, as theta -> 0)
    and is kept as defined.

    Args:
        theta: Boresight offset angle, radians; |theta| < pi/2.
        aperture_radius: Aperture radius, meters.
        carrier_frequency: Carrier frequency, Hz.
    """
    if not abs(theta) < 0.5 * math.pi:
        raise ValueError("theta must satisfy |theta| < pi/2")
    if theta == 0.0:
        return 1.0
    k = 2.0 * math.pi * carrier_frequency / SPEED_OF_LIGHT
    arg = k * aperture_radius * math.sin(theta)
    if abs(arg) < 1e-8:
        # series ratio J1(x)/x = 1/2 - x^2/16 + O(x^4), safe against 0/0
        return abs(0.5 - arg * arg / 16.0)
    return abs(bessel_j1(arg) / arg)


def free_space_path_loss(carrier_frequency: float, distance: float) -> float:
    """Free-space path loss (4 pi f d / c)^2 as a linear power ratio."""
    if carrier_frequency <= 0.0 or distance <= 0.0:
        raise ValueError("carrier_frequency and distance must be positive")
    return (4.0 * math.pi * carrier_frequency * distance / SPEED_OF_LIGHT) ** 2


def slant_distance(altitude: float, boresight_angle: float) -> float:
    """Satellite-to-node distance for a node seen at the given boresight angle.

    Modeled as altitude / cos(angle). The angles of interest are well below
    one degree, so this is numerically indistinguishable from the altitude;
    it exists so the off-axis node sees a (slightly) longer path.
    """
    if altitude <= 0.0:
        raise ValueError("altitude must be positive")
    if not abs(boresight_angle) < 0.5 * math.pi:
        raise ValueError("boresight_angle must satisfy |angle| < pi/2")
    return altitude / math.cos(boresight_angle)


def channel_gain(sat: SatelliteParams, node: GroundNodeParams) -> float:
    """Linear channel power gain between the satellite and one ground node.

    gain = G_sat * G_node * pattern(theta) / path_loss(f, d); strictly positive.
    """
    psi = antenna_pattern(node.boresight_angle, sat.aperture_radius, sat.carrier_frequency)
    pl = free_space_path_loss(sat.carrier_frequency, node.slant_distance)
    return sat.antenna_gain * node.antenna_gain * psi / pl
