"""Exact optimization: the smallest radius lambda* such that k skyline
centers cover the skyline.

The row route runs the greedy at the unknown optimum, bisecting one
staircase row per step.  The matrix route runs a multi-array search over
the increasing rows of the sorted distance matrix, one decision per
probe.  The parametric route simulates the grouped greedy at the unknown
optimum (the paper's parametric search).  All three return the same
bitwise value, a pairwise skyline distance, and the decision procedure
certifies it.  The row and matrix routes take the staircase, built once
by slow_skyline; the parametric route takes the points.
"""

import math

from pareto_kcenter import (InstanceSpec, decide_materialized, generate,
                            slow_skyline, solve_by_rows, solve_parametric,
                            solve_via_matrix)
from pareto_kcenter.instrument import counters

P = generate(InstanceSpec("circle-quadrant", n=2500, seed=11))
sky = slow_skyline(P)
print(f"n={len(P)} points on a quarter circle (h = n here)")

for k in (2, 3, 5, 9):
    counters.reset()
    a = solve_via_matrix(sky, k)
    probes = counters.get("multiarray_probes")
    decisions = counters.get("decide_calls")
    counters.reset()
    b = solve_parametric(P, k)
    parametric_probes = counters.get("multiarray_probes")
    counters.reset()
    c = solve_by_rows(sky, k)
    assert a.lambda_star_sq == b.lambda_star_sq == c.lambda_star_sq
    print(f"k={k}: lambda* = {a.lambda_star:10.4f} "
          f"[row route: {counters.get('decide_calls')} decisions; "
          f"matrix route: {probes} probes, {decisions} decisions; "
          f"parametric route: {parametric_probes} probes]")

# A certificate on another instance: k disks of radius lambda* cover
# the skyline, and k disks of the next smaller float radius do not.
Q = generate(InstanceSpec("uniform-square", n=250, seed=11))
S = slow_skyline(Q)
for k in (1, 2, 4):
    lam_sq = solve_by_rows(S, k).lambda_star_sq
    assert lam_sq == solve_via_matrix(S, k).lambda_star_sq
    assert lam_sq == solve_parametric(Q, k).lambda_star_sq
    assert decide_materialized(S, k, lam_sq).feasible
    assert lam_sq == 0.0 or not decide_materialized(
        S, k, math.nextafter(lam_sq, 0.0)).feasible
print("on a second instance the three routes agree, and the decision is")
print("feasible at lambda* and infeasible just below it")
