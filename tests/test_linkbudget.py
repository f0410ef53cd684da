"""Unit conversions, the Bessel evaluation, antenna pattern, and channel gains."""

import math

import numpy as np
import pytest

from satiab import (
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


@pytest.mark.parametrize("theta", [1e-12, -1e-12, 1e-310])
def test_antenna_pattern_near_boresight_is_its_off_axis_limit(theta):
    # below an argument of 1e-8 the pattern is its series 1/2 - x**2/16, exactly 1/2 here, also at
    # 1e-310 rad (a boresight_bs_deg of about 5.7e-309), where the argument is subnormal
    assert antenna_pattern(theta, 1.5, 2e9) == 0.5


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


# The default satellite as channel_gain's trailing arguments: 36 dBi, a
# 1.5 m aperture at 2 GHz; the altitude comes before them in each call.
SAT_GAIN = db_to_linear(36.0)
APERTURE = (1.5, 2e9)


def test_channel_gain_nadir_user():
    assert channel_gain(SAT_GAIN, 1.0, 0.0, 600e3, *APERTURE) == pytest.approx(
        1.5734726039155016e-12, rel=0.01)


def test_channel_gain_backhaul_ratio():
    # gain ratio = G_bs * pattern(0.8 deg) * (d_ue/d_bs)^2 = 863.6824 from
    # the extended-precision oracle; the slant distance d_bs is derived
    theta = math.radians(0.8)
    ue = channel_gain(SAT_GAIN, 1.0, 0.0, 600e3, *APERTURE)
    bs = channel_gain(SAT_GAIN, db_to_linear(32.8), theta, 600e3, *APERTURE)
    assert bs / ue == pytest.approx(863.6824003209116, rel=0.02)


def test_channel_gain_unit_antenna_identity():
    # the altitude at which a node 0.1 rad off axis is 700 km away
    altitude = 700e3 * math.cos(0.1)
    expected = SAT_GAIN * antenna_pattern(0.1, 1.5, 2e9) / free_space_path_loss(2e9, 700e3)
    assert channel_gain(SAT_GAIN, 1.0, 0.1, altitude, *APERTURE) == pytest.approx(expected, rel=1e-12)


def test_channel_gain_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        gain = 10.0 ** rng.uniform(0.0, 4.0)
        theta = rng.uniform(0.0, 0.02)
        h1 = 10.0 ** rng.uniform(5.5, 6.5)
        h2 = h1 * rng.uniform(1.01, 3.0)
        near = channel_gain(SAT_GAIN, gain, theta, h1, *APERTURE)
        far = channel_gain(SAT_GAIN, gain, theta, h2, *APERTURE)
        assert near > far
        stronger = channel_gain(SAT_GAIN, gain * rng.uniform(1.01, 10.0), theta, h1, *APERTURE)
        assert stronger > near
        bigger_dish = channel_gain(SAT_GAIN * rng.uniform(1.01, 10.0), gain, theta, h1, *APERTURE)
        assert bigger_dish > near


def test_channel_gain_is_the_composition_of_its_terms():
    # the same arithmetic in the same order, so equal to the last bit
    rng = np.random.default_rng(5)
    for _ in range(1000):
        theta = float(rng.choice([0.0, rng.uniform(-0.05, 0.05), rng.uniform(-1.5, 1.5)]))
        altitude = float(10.0 ** rng.uniform(3.0, 8.0))
        sat_gain, node_gain = (float(g) for g in 10.0 ** rng.uniform(-5.0, 10.0, size=2))
        psi = antenna_pattern(theta, *APERTURE)
        pl = free_space_path_loss(APERTURE[1], slant_distance(altitude, theta))
        assert channel_gain(sat_gain, node_gain, theta, altitude, *APERTURE) == sat_gain * node_gain * psi / pl


def test_parameter_validation():
    with pytest.raises(ValueError):
        channel_gain(SAT_GAIN, 0.0, 0.0, 1.0, *APERTURE)
    with pytest.raises(ValueError):
        channel_gain(SAT_GAIN, 1.0, math.pi / 2, 1.0, *APERTURE)
    with pytest.raises(ValueError):
        channel_gain(1.0, 1.0, 0.0, 600e3, -1.0, 2e9)


# Each entry calls one function with one of its positive inputs set to bad.
# theta = 0.01 rad is off axis, so the pattern's arithmetic would run.
_POSITIVE_INPUTS = {
    "linear_to_db": lambda bad: linear_to_db(bad),
    "free_space_path_loss(f)": lambda bad: free_space_path_loss(bad, 600e3),
    "free_space_path_loss(d)": lambda bad: free_space_path_loss(2e9, bad),
    "slant_distance(altitude)": lambda bad: slant_distance(bad, 0.01),
    "antenna_pattern(a)": lambda bad: antenna_pattern(0.01, bad, 2e9),
    "antenna_pattern(f)": lambda bad: antenna_pattern(0.01, 1.5, bad),
    "antenna_pattern(a) at boresight": lambda bad: antenna_pattern(0.0, bad, 2e9),
    "channel_gain(sat_gain)": lambda bad: channel_gain(bad, 1.0, 0.01, 600e3, *APERTURE),
    "channel_gain(node_gain)": lambda bad: channel_gain(SAT_GAIN, bad, 0.01, 600e3, *APERTURE),
    "channel_gain(altitude)": lambda bad: channel_gain(SAT_GAIN, 1.0, 0.01, bad, *APERTURE),
    "channel_gain(aperture)": lambda bad: channel_gain(SAT_GAIN, 1.0, 0.01, 600e3, bad, 2e9),
    "channel_gain(frequency)": lambda bad: channel_gain(SAT_GAIN, 1.0, 0.01, 600e3, 1.5, bad),
}


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
@pytest.mark.parametrize("call", list(_POSITIVE_INPUTS.values()), ids=list(_POSITIVE_INPUTS))
def test_positive_inputs_reject_nan_zero_and_negative(call, bad):
    with pytest.raises(ValueError):
        call(bad)

