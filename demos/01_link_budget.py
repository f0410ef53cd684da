"""Link budget walkthrough
==========================

Builds the downlink budget of a LEO satellite toward two ground nodes: a
handheld user with a 0 dBi antenna on the antenna axis, and a base
station with a 32.8 dBi dish sitting 0.8 degrees off axis.
"""

import math

from satiab import (
    antenna_pattern,
    channel_gain,
    db_to_linear,
    free_space_path_loss,
    linear_to_db,
)

# The satellite: 36 dBi antenna, 1.5 m circular aperture, S-band carrier,
# 600 km up. The link budget takes these as plain floats in linear SI units.
sat_gain = db_to_linear(36.0)
aperture_radius = 1.5  # m
carrier_frequency = 2e9  # Hz
altitude = 600e3  # m

print("satellite gain (linear):", f"{sat_gain:.1f}")

# Free-space path loss grows with the square of distance; at 600 km and
# 2 GHz it is already around 154 dB.
for altitude_km in (600, 1200):
    pl = free_space_path_loss(carrier_frequency, altitude_km * 1e3)
    print(f"path loss at {altitude_km:>4} km: {linear_to_db(pl):7.2f} dB")

# The aperture pattern is 1 on the axis and falls off quickly; the first
# null sits where the Bessel numerator crosses zero.
for deg in (0.0, 0.2, 0.4, 0.8, 1.6):
    psi = antenna_pattern(math.radians(deg), aperture_radius, carrier_frequency)
    print(f"pattern at {deg:.1f} deg: {psi:.4f}")

# Putting it together: channel gains for both nodes. channel_gain derives
# each node's slant distance from the altitude and its boresight angle.
beta_ue = channel_gain(sat_gain, db_to_linear(0.0), 0.0, altitude, aperture_radius, carrier_frequency)
beta_bs = channel_gain(sat_gain, db_to_linear(32.8), math.radians(0.8), altitude, aperture_radius,
                       carrier_frequency)
print(f"user channel gain:     {beta_ue:.4e}  ({linear_to_db(beta_ue):.2f} dB)")
print(f"backhaul channel gain: {beta_bs:.4e}  ({linear_to_db(beta_bs):.2f} dB)")
print(f"backhaul/user ratio:   {beta_bs / beta_ue:.1f}x")
print("the dish more than makes up for sitting off the antenna axis")
