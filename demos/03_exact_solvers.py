"""Exact optimization: the smallest radius lambda* such that k skyline
centers cover the skyline.

Route one runs a multi-array search over the increasing rows of the
sorted distance matrix, one decision per probe.  Route two simulates the
grouped greedy at the unknown optimum (parametric search).  Both return
the same bitwise value, a pairwise skyline distance.
"""

from pareto_kcenter import (InstanceSpec, generate, solve_parametric,
                            solve_via_matrix)
from pareto_kcenter.instrument import counters
from pareto_kcenter.oracle import brute_opt, brute_psi_sq, brute_skyline

P = generate(InstanceSpec("circle-quadrant", n=2500, seed=11))
print(f"n={len(P)} points on a quarter circle (h = n here)")

for k in (2, 3, 5, 9):
    counters.reset()
    a = solve_via_matrix(P, k)
    probes = counters.get("multiarray_probes")
    decisions = counters.get("decide_calls")
    counters.reset()
    b = solve_parametric(P, k)
    assert a.lambda_star_sq == b.lambda_star_sq
    print(f"k={k}: lambda* = {a.lambda_star:10.4f} "
          f"[matrix route: {probes} probes, {decisions} decisions; "
          f"parametric route: {counters.get('multiarray_probes')} probes]")

# Ground truth on a smaller instance, plus the rescan certificate.
Q = generate(InstanceSpec("uniform-square", n=250, seed=11))
for k in (1, 2, 4):
    res = solve_via_matrix(Q, k)
    assert res.lambda_star_sq == brute_opt(Q, k)
    sky = brute_skyline(Q)
    assert brute_psi_sq(sky, res.centers) == res.lambda_star_sq
print("small-instance values match the brute-force oracle exactly,")
print("and the returned centers certify lambda* on rescan")
