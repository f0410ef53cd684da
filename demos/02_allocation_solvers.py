"""Three solvers, one allocation problem
=========================================

Splits 10 W and 40 MHz between the access and backhaul links so that the
weighted worse link is as good as possible, then compares the exact
solver, the particle swarm, and a brute-force grid on the same scenario.
"""

from satiab import PsoConfig, evaluate, grid_oracle, pso_solve, solve_orthogonal
from satiab.expcli import ExperimentConfig, build_scenario

# The default configuration: 40 dBm, 40 MHz, FDD, 600 km, no overlap,
# access weight 0.1 (the handheld user gets a tenth of the backhaul QoS).
scn = build_scenario(ExperimentConfig())

# Each solver returns ((p_ue, p_bs, w_a, w_b), iterations, converged), and
# evaluate gives an allocation's (level, access, backhaul, throughput) in bits/s.
exact, _, _ = solve_orthogonal(scn)
swarm, _, _ = pso_solve(scn, PsoConfig(), 1)  # the seed keys the swarm's generator
grid, _, _ = grid_oracle(scn, 200)

print(f"{'solver':>10} {'level Mbps':>12} {'access Mbps':>12} {'backhaul Mbps':>14} "
      f"{'P_ue W':>8} {'W_a MHz':>8}")
for name, alloc in (("exact", exact), ("pso", swarm), ("oracle", grid)):
    level, rate_access, rate_backhaul, _ = evaluate(scn, alloc)
    p_ue, _, w_a, _ = alloc
    print(f"{name:>10} {level / 1e6:12.3f} "
          f"{rate_access / 1e6:12.3f} {rate_backhaul / 1e6:14.3f} "
          f"{p_ue:8.3f} {w_a / 1e6:8.3f}")

level, rate_access, rate_backhaul, _ = evaluate(scn, exact)
gap = abs(level - evaluate(scn, swarm)[0]) / level
print(f"\nswarm lands within {gap:.4%} of the exact optimum")

# At the optimum both rate targets bind: the access link delivers exactly
# a tenth of the level and the backhaul exactly the level.
print("access / (0.1 * level):", rate_access / (0.1 * level))
print("backhaul / level:      ", rate_backhaul / level)

# With overlapping spectrum the problem stops being convex; the swarm and
# the grid still agree.
overlapped = build_scenario(ExperimentConfig(overlap_mhz=20.0))
swarm_o, _, _ = pso_solve(overlapped, PsoConfig(), 1)
grid_o, _, _ = grid_oracle(overlapped, 200)
print(f"\nhalf overlap: swarm {evaluate(overlapped, swarm_o)[0] / 1e6:.3f} Mbps, "
      f"grid {evaluate(overlapped, grid_o)[0] / 1e6:.3f} Mbps")
print("interference knocks the level down by roughly a factor of five")
