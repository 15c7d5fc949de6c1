"""Very small k: the 1-center and the farthest-first 2-approximation,
both on the skyline, where one bisection finds each bisector, and the
(1+eps)-approximation built on top of them.  Each takes the staircase,
built once by slow_skyline.
"""

from pareto_kcenter import (InstanceSpec, approx_solve, generate,
                            gonzalez_2approx, slow_skyline, solve_one_center,
                            solve_via_matrix)
from pareto_kcenter.instrument import counters

P = generate(InstanceSpec("clustered", n=30000, seed=3))
S = slow_skyline(P)
h = len(S)

counters.reset()
res = solve_one_center(S)
print(f"1-center: lambda* = {res.lambda_star:.3f} using "
      f"{counters.get('dist_evals'):,} distance evaluations "
      f"(n = {len(P):,}, h = {h}: one bisection over the skyline)")
assert res.lambda_star_sq == solve_via_matrix(S, 1).lambda_star_sq

k = 5
two = gonzalez_2approx(S, k)
print(f"farthest-first k={k}: psi = {two.lambda_star:.3f} "
      f"(guaranteed within 2x of optimal)")

for eps in (0.5, 0.1, 0.01):
    res = approx_solve(S, k, eps)
    print(f"  (1+{eps}) refinement: radius <= {res.lambda_star:.4f}")

# On a small instance, compare everything against the exact value.
Q = generate(InstanceSpec("clustered", n=400, seed=3))
T = slow_skyline(Q)
opt = solve_via_matrix(T, k).lambda_star_sq
g = gonzalez_2approx(T, k).lambda_star_sq
a = approx_solve(T, k, 0.01).lambda_star_sq
print(f"small instance: opt^2 = {opt:.4f}, gonzalez^2 = {g:.4f}, "
      f"approx(0.01)^2 = {a:.4f}")
assert g <= 4 * opt and a <= 1.01 ** 2 * opt
