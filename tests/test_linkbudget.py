"""Unit conversions, the Bessel evaluation, antenna pattern, and channel gains."""

import math

import numpy as np
import pytest

from satiab import (
    GroundNodeParams,
    SatelliteParams,
    antenna_pattern,
    bessel_j1,
    channel_gain,
    db_to_linear,
    dbm_to_watts,
    free_space_path_loss,
    linear_to_db,
    slant_distance,
)
from satiab.linkbudget import SPEED_OF_LIGHT

from oracles import J1_FIRST_ZERO, j1_power_series


def test_db_identity_cases():
    assert db_to_linear(0.0) == 1.0
    assert dbm_to_watts(30.0) == 1.0
    # frozen from the extended-precision evaluation of 10**3.6
    assert db_to_linear(36.0) == pytest.approx(3981.0717055349725, abs=0.01)


def test_db_round_trip():
    for x in np.linspace(-200.0, 200.0, 801):
        back = linear_to_db(db_to_linear(x))
        assert back == pytest.approx(x, rel=1e-12, abs=1e-12)
    assert linear_to_db(dbm_to_watts(17.3)) + 30.0 == pytest.approx(17.3, rel=1e-12)


def test_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-1.0)


def test_bessel_j1_reference_points():
    assert bessel_j1(0.0) == 0.0
    # frozen from the 30-term power-series oracle
    assert bessel_j1(1.0) == pytest.approx(0.4400505857449335, abs=1e-9)
    assert bessel_j1(2.0) == pytest.approx(0.5767248077568734, abs=1e-9)


def test_bessel_j1_matches_series_oracle():
    for x in np.linspace(0.0, 20.0, 1000):
        assert abs(bessel_j1(float(x)) - j1_power_series(float(x))) < 1e-10


def test_bessel_j1_is_odd():
    for x in np.linspace(0.1, 25.0, 200):
        assert bessel_j1(-float(x)) == -bessel_j1(float(x))


def test_antenna_pattern_boresight_is_exactly_one():
    assert antenna_pattern(0.0, 1.5, 2e9) == 1.0


def test_antenna_pattern_off_axis_value():
    # 0.8 degrees, 1.5 m aperture, 2 GHz carrier; oracle value of
    # |J1(k a sin t) / (k a sin t)| is 0.45335534519007728
    value = antenna_pattern(math.radians(0.8), 1.5, 2e9)
    assert value == pytest.approx(0.45335534519007728, rel=1e-9)
    assert value == pytest.approx(0.456, abs=0.005)


def test_antenna_pattern_first_null():
    k = 2.0 * math.pi * 2e9 / SPEED_OF_LIGHT
    theta = math.asin(J1_FIRST_ZERO / (k * 1.5))
    assert antenna_pattern(theta, 1.5, 2e9) == pytest.approx(0.0, abs=1e-8)


def test_antenna_pattern_bounded_by_one():
    thetas = np.linspace(1e-6, math.pi / 2 - 1e-6, 10_000)
    values = [antenna_pattern(float(t), 1.5, 2e9) for t in thetas]
    assert max(values) <= 1.0
    assert min(values) >= 0.0


def test_antenna_pattern_rejects_right_angle():
    with pytest.raises(ValueError):
        antenna_pattern(math.pi / 2, 1.5, 2e9)


def test_free_space_path_loss_unit_case():
    f = SPEED_OF_LIGHT / (4.0 * math.pi)
    assert free_space_path_loss(f, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_free_space_path_loss_reference_value():
    pl_db = linear_to_db(free_space_path_loss(2e9, 600e3))
    assert pl_db == pytest.approx(154.03, abs=0.01)
    closed_form = 32.45 + 20.0 * math.log10(2000.0) + 20.0 * math.log10(600.0)
    assert pl_db == pytest.approx(closed_form, abs=0.01)


def test_free_space_path_loss_square_law():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        f = 10.0 ** rng.uniform(8.0, 11.0)
        d = 10.0 ** rng.uniform(3.0, 7.0)
        assert free_space_path_loss(f, 2.0 * d) == pytest.approx(
            4.0 * free_space_path_loss(f, d), rel=1e-12
        )


def test_slant_distance_nadir_and_off_axis():
    assert slant_distance(600e3, 0.0) == 600e3
    assert slant_distance(1200e3, 0.0) == 1200e3
    assert slant_distance(600e3, math.radians(0.8)) == pytest.approx(600058.49, abs=1.0)


def _default_satellite(altitude=600e3):
    return SatelliteParams(
        antenna_gain=db_to_linear(36.0),
        aperture_radius=1.5,
        carrier_frequency=2e9,
        altitude=altitude,
    )


def test_channel_gain_nadir_user():
    sat = _default_satellite()
    ue = GroundNodeParams(antenna_gain=1.0, boresight_angle=0.0, slant_distance=600e3)
    assert channel_gain(sat, ue) == pytest.approx(1.5734726039155016e-12, rel=0.01)


def test_channel_gain_backhaul_ratio():
    # gain ratio = G_bs * pattern(0.8 deg) * (d_ue/d_bs)^2 = 863.6824 from
    # the extended-precision oracle
    sat = _default_satellite()
    ue = GroundNodeParams(antenna_gain=1.0, boresight_angle=0.0, slant_distance=600e3)
    theta = math.radians(0.8)
    bs = GroundNodeParams(
        antenna_gain=db_to_linear(32.8),
        boresight_angle=theta,
        slant_distance=slant_distance(600e3, theta),
    )
    ratio = channel_gain(sat, bs) / channel_gain(sat, ue)
    assert ratio == pytest.approx(863.6824003209116, rel=0.02)


def test_channel_gain_unit_antenna_identity():
    sat = _default_satellite()
    node = GroundNodeParams(antenna_gain=1.0, boresight_angle=0.1, slant_distance=700e3)
    expected = sat.antenna_gain * antenna_pattern(0.1, 1.5, 2e9) / free_space_path_loss(2e9, 700e3)
    assert channel_gain(sat, node) == pytest.approx(expected, rel=1e-12)


def test_channel_gain_monotonicity():
    sat = _default_satellite()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        gain = 10.0 ** rng.uniform(0.0, 4.0)
        theta = rng.uniform(0.0, 0.02)
        d1 = 10.0 ** rng.uniform(5.5, 6.5)
        d2 = d1 * rng.uniform(1.01, 3.0)
        near = GroundNodeParams(antenna_gain=gain, boresight_angle=theta, slant_distance=d1)
        far = GroundNodeParams(antenna_gain=gain, boresight_angle=theta, slant_distance=d2)
        assert channel_gain(sat, near) > channel_gain(sat, far)
        stronger = GroundNodeParams(
            antenna_gain=gain * rng.uniform(1.01, 10.0), boresight_angle=theta, slant_distance=d1
        )
        assert channel_gain(sat, stronger) > channel_gain(sat, near)
        bigger_dish = SatelliteParams(
            antenna_gain=sat.antenna_gain * rng.uniform(1.01, 10.0),
            aperture_radius=sat.aperture_radius,
            carrier_frequency=sat.carrier_frequency,
            altitude=sat.altitude,
        )
        assert channel_gain(bigger_dish, near) > channel_gain(sat, near)


def test_parameter_validation():
    with pytest.raises(ValueError):
        GroundNodeParams(antenna_gain=0.0, boresight_angle=0.0, slant_distance=1.0)
    with pytest.raises(ValueError):
        GroundNodeParams(antenna_gain=1.0, boresight_angle=math.pi / 2, slant_distance=1.0)
    with pytest.raises(ValueError):
        SatelliteParams(antenna_gain=1.0, aperture_radius=-1.0, carrier_frequency=2e9, altitude=600e3)
