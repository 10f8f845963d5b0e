"""
One solve, inside out
=====================

Poses a single tracking problem to the trajectory optimizer and inspects
the solution bundle: cost split, constraint residuals, and what a warm
start buys on the re-solve.
"""

import time

import numpy as np

from landersim.cbf import CbfConfig, ObstacleSpec
from landersim.dynamics import QuadrotorParams, make_state
from landersim.ocp import NmpcConfig, NmpcSolver, ReferencePlan, \
    gradient_check

params = QuadrotorParams()
cfg = NmpcConfig()
cbf = CbfConfig(gamma=0.4,
                obstacles=[ObstacleSpec(center=(1.0, 0.0), radius=0.2)])
solver = NmpcSolver(cfg, cbf, params)

# fly from the origin toward a setpoint 2 m away with a pole in between
x0 = make_state(pos=(0.0, 0.01, 2.0))
target = make_state(pos=(2.0, 0.0, 1.3))
plan = ReferencePlan(x_ref=np.tile(target, (cfg.n + 1, 1)),
                     x_terminal=target)

t0 = time.perf_counter()
sol = solver.solve(x0, plan)
cold_ms = (time.perf_counter() - t0) * 1e3

print(f"cold solve: converged={sol.converged} in {sol.iterations} outer / "
      f"{sol.inner_iterations} inner iterations, {cold_ms:.1f} ms")
print(f"  objective {sol.cost:.2f}")
print(f"  worst dynamics defect {sol.defect_norm:.2e}, "
      f"min barrier-decay residual {sol.min_cbf_residual:+.2e}")
print(f"  first control u = {np.round(sol.u_apply, 3)} N")

# the planned path detours around the safety circle
y_max = np.abs(sol.decision.states[:, 1]).max()
print(f"  planned lateral detour {y_max:.2f} m")

# re-solving the same problem from the returned warm start is nearly free
t0 = time.perf_counter()
sol2 = solver.solve(x0, plan, warm=sol.warm)
warm_ms = (time.perf_counter() - t0) * 1e3
print(f"warm re-solve: {sol2.iterations} outer iteration(s), "
      f"{warm_ms:.1f} ms ({cold_ms / max(warm_ms, 1e-9):.0f}x faster)")

# the analytic gradients the solver trusts, audited by finite differences
rep = gradient_check(solver, plan, n_points=20)
print(f"gradient audit: max relative error {rep.max_rel_err:.2e} "
      f"over {rep.n_points} random points")
