"""Three solvers, one allocation problem
=========================================

Splits 10 W and 40 MHz between the access and backhaul links so that the
weighted worse link is as good as possible, then compares the exact
solver, the particle swarm, and a brute-force grid on the same scenario.
"""

from satiab import PsoConfig, grid_oracle, pso_solve, solve_orthogonal
from satiab.expcli import ExperimentConfig, build_scenario

# The default configuration: 40 dBm, 40 MHz, FDD, 600 km, no overlap,
# access weight 0.1 (the handheld user gets a tenth of the backhaul QoS).
scn = build_scenario(ExperimentConfig())

exact = solve_orthogonal(scn)
swarm = pso_solve(scn, PsoConfig(), 1)  # the seed keys the swarm's generator
grid = grid_oracle(scn, 200)

print(f"{'solver':>10} {'level Mbps':>12} {'access Mbps':>12} {'backhaul Mbps':>14} "
      f"{'P_ue W':>8} {'W_a MHz':>8}")
for name, result in (("exact", exact), ("pso", swarm), ("oracle", grid)):
    report = result.report
    alloc = result.allocation
    print(f"{name:>10} {report.maxmin_level / 1e6:12.3f} "
          f"{report.rate_access / 1e6:12.3f} {report.rate_backhaul / 1e6:14.3f} "
          f"{alloc.p_ue:8.3f} {alloc.w_a / 1e6:8.3f}")

gap = abs(exact.report.maxmin_level - swarm.report.maxmin_level) / exact.report.maxmin_level
print(f"\nswarm lands within {gap:.4%} of the exact optimum")

# At the optimum both rate targets bind: the access link delivers exactly
# a tenth of the level and the backhaul exactly the level.
level = exact.report.maxmin_level
print("access / (0.1 * level):", exact.report.rate_access / (0.1 * level))
print("backhaul / level:      ", exact.report.rate_backhaul / level)

# With overlapping spectrum the problem stops being convex; the swarm and
# the grid still agree.
overlapped = build_scenario(ExperimentConfig(overlap_mhz=20.0))
swarm_o = pso_solve(overlapped, PsoConfig(), 1)
grid_o = grid_oracle(overlapped, 200)
print(f"\nhalf overlap: swarm {swarm_o.report.maxmin_level / 1e6:.3f} Mbps, "
      f"grid {grid_o.report.maxmin_level / 1e6:.3f} Mbps")
print("interference knocks the level down by roughly a factor of five")
