"""Skyline construction two ways.

The skyline (Pareto front) of a planar point set is the subset not
dominated by any other point; it forms a descending staircase.  This
demo builds one instance and computes its skyline with the production
sort-and-scan route and with the paper's output-sensitive driver.
"""

from pareto_kcenter import (InstanceSpec, generate, skyline_bounded,
                            skyline_optimal, slow_skyline)
from pareto_kcenter.instrument import counters

P = generate(InstanceSpec("clustered", n=5000, seed=42))
print(f"instance: n={len(P)} clustered points")

sky_slow = slow_skyline(P)
sky_fast = skyline_optimal(P)
assert sky_slow.pts == sky_fast.pts
h = len(sky_fast)
print(f"skyline size h={h}; both routes agree")
print("first points:", [(round(p.x, 1), round(p.y, 1)) for p in sky_fast[:4]])

# The bounded probe answers "is h <= s?" without ever overshooting much.
for s in (4, 16, 256):
    result = skyline_bounded(P, s)
    print(f"  guess s={s:>3}: {'complete' if result.complete else 'incomplete'}")

# Output sensitivity: work grows with n but only log-slowly with the
# guess schedule, since each probe costs O(n log s).
for n in (20000, 40000, 80000):
    Q = generate(InstanceSpec("clustered", n=n, seed=42))
    counters.reset()
    skyline_optimal(Q)
    print(f"n={n:>6}: comparison counter = {counters.get('skyline_comparisons'):,}")
