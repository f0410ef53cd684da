"""Link budget primitives for a LEO satellite serving ground terminals.

Everything here computes in linear SI units (W, Hz, m, radians); decibel
quantities exist only at the conversion helpers. The channel gain of a
ground node combines the satellite and terminal antenna gains, the
normalized aperture pattern toward the node, and free-space path loss over
the slant distance, which it derives from the orbit altitude and the
node's boresight angle. All operations are pure functions of plain floats,
each checks the inputs it uses (NaN fails every check), and all are safe
to call concurrently.
"""

import math

SPEED_OF_LIGHT = 299792458.0  # m/s

__all__ = [
    "SPEED_OF_LIGHT",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "bessel_j1",
    "antenna_pattern",
    "free_space_path_loss",
    "slant_distance",
    "channel_gain",
]


def _require_positive(name: str, x: float) -> None:
    if not x > 0.0:  # written so that NaN fails too
        raise ValueError(f"{name} must be positive, got {x}")


def _require_boresight_angle(angle: float) -> None:
    if not abs(angle) < 0.5 * math.pi:
        raise ValueError(f"boresight angle must satisfy |angle| < pi/2, got {angle}")


def db_to_linear(x_db: float) -> float:
    """Convert a decibel ratio (dB, dBi) to a linear power ratio."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Inverse of :func:`db_to_linear`; requires a positive ratio."""
    _require_positive("ratio", ratio)
    return 10.0 * math.log10(ratio)


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level in dBm to watts (30 dBm = 1 W)."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


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

    Returns exactly 1 at boresight; otherwise |J1(k a sin t)/(k a sin t)| with k = 2 pi f / c,
    whose limit as theta -> 0 is 1/2, not 1. This power-gain form is unverified: the repository
    holds only the paper's abstract. 3GPP TR 38.811 6.4.1's 4 |J1(x)/x|**2 is continuous at
    boresight; swapped in, it moved the default sweep-power's zeta by +3.7 % to +5.0 %.

    Args:
        theta: Boresight offset angle, radians; |theta| < pi/2.
        aperture_radius: Aperture radius, meters.
        carrier_frequency: Carrier frequency, Hz.
    """
    _require_boresight_angle(theta)
    _require_positive("aperture_radius", aperture_radius)
    _require_positive("carrier_frequency", carrier_frequency)
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
    _require_positive("carrier_frequency", carrier_frequency)
    _require_positive("distance", distance)
    return (4.0 * math.pi * carrier_frequency * distance / SPEED_OF_LIGHT) ** 2


def slant_distance(altitude: float, boresight_angle: float) -> float:
    """Satellite-to-node distance for a node seen at the given boresight angle.

    Modeled as altitude / cos(angle). Small angles still matter: 0.8 degrees
    off axis at 600 km the path is 58 m longer, which lowers that node's
    channel gain by a relative 2e-4, far more than a 9-digit CSV cell
    resolves.
    """
    _require_positive("altitude", altitude)
    _require_boresight_angle(boresight_angle)
    return altitude / math.cos(boresight_angle)


def channel_gain(sat_gain: float, node_gain: float, boresight_angle: float, altitude: float,
                 aperture_radius: float, carrier_frequency: float) -> float:
    """Linear channel power gain between the satellite and one ground node.

    gain = G_sat * G_node * pattern(theta) / path_loss(f, d); strictly positive.
    The antenna gains are linear power ratios, theta is the node's boresight
    angle in radians, the orbit altitude and aperture radius are in meters,
    f is in Hz, and the slant distance d = slant_distance(altitude, theta).
    """
    _require_positive("sat_gain", sat_gain)
    _require_positive("node_gain", node_gain)
    psi = antenna_pattern(boresight_angle, aperture_radius, carrier_frequency)
    pl = free_space_path_loss(carrier_frequency, slant_distance(altitude, boresight_angle))
    return sat_gain * node_gain * psi / pl
