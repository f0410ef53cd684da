"""Three solvers, one allocation problem
=========================================

Splits 10 W and 40 MHz between the access and backhaul links so that the
weighted worse link is as good as possible, then compares the exact
solver, the particle swarm, and a brute-force grid on the same scenario.
"""

import numpy as np

from satiab import PsoConfig, evaluate_many, grid_oracle_many, pso_solve_many, solve_orthogonal_many
from satiab.expcli import DUPLEX_FACTORS, ExperimentConfig, build_scenarios

# The default configuration: 40 dBm, 40 MHz, FDD, 600 km, no overlap,
# access weight 0.1 (the handheld user gets a tenth of the backhaul QoS).
# build_scenarios makes one batch row per point (power_dbm, overlap_mhz,
# duplex, altitude_km, access_weight); this batch holds the default point.
scn = build_scenarios(ExperimentConfig(), [(40.0, 0.0, "FDD", 600.0, 0.1)])

# Each solver takes a batch and returns its (S, 4) allocations
# (p_ue, p_bs, w_a, w_b), one row per scenario, the iterations and the
# converged flags. Bandwidths are airtime hertz: times the duplex's
# DUPLEX_FACTORS entry they are hertz of spectrum, as the CSVs hold them.
exact, _, _ = solve_orthogonal_many(scn)
swarm, _, _ = pso_solve_many(scn, PsoConfig(), [1])  # each row's seed keys its swarm's generator
grid, _, _ = grid_oracle_many(scn, 200)

# evaluate_many scores row s of the allocations under row s of the batch,
# so the three solvers' rows go under three copies of the one scenario:
# (level, access, backhaul, throughput) in bits/s, a row each.
alloc = np.vstack((exact, swarm, grid))
rates = evaluate_many(scn.take([0, 0, 0]), alloc).tolist()

print(f"{'solver':>10} {'level Mbps':>12} {'access Mbps':>12} {'backhaul Mbps':>14} "
      f"{'P_ue W':>8} {'W_a MHz':>8}")
for name, (level, rate_access, rate_backhaul, _), (p_ue, _, w_a, _) in zip(
        ("exact", "pso", "oracle"), rates, alloc.tolist()):
    print(f"{name:>10} {level / 1e6:12.3f} "
          f"{rate_access / 1e6:12.3f} {rate_backhaul / 1e6:14.3f} "
          f"{p_ue:8.3f} {w_a * DUPLEX_FACTORS['FDD'] / 1e6:8.3f}")

(level, rate_access, rate_backhaul, _), (swarm_level, *_), _ = rates
gap = abs(level - swarm_level) / level
print(f"\nswarm lands within {gap:.4%} of the exact optimum")

# At the optimum both rate targets bind: the access link delivers exactly
# a tenth of the level and the backhaul exactly the level, to rounding,
# which 12 significant digits leave out.
print(f"access / (0.1 * level): {rate_access / (0.1 * level):.12g}")
print(f"backhaul / level:       {rate_backhaul / level:.12g}")

# With overlapping spectrum the problem stops being convex; the swarm and
# the grid still agree.
overlapped = build_scenarios(ExperimentConfig(), [(40.0, 20.0, "FDD", 600.0, 0.1)])
swarm_o, _, _ = pso_solve_many(overlapped, PsoConfig(), [1])
grid_o, _, _ = grid_oracle_many(overlapped, 200)
levels = evaluate_many(overlapped.take([0, 0]), np.vstack((swarm_o, grid_o)))[:, 0]
swarm_level, grid_level = levels.tolist()
print(f"\nhalf overlap: swarm {swarm_level / 1e6:.3f} Mbps, grid {grid_level / 1e6:.3f} Mbps")
print("interference knocks the level down by roughly a factor of five")
