"""The balancing LP: the point of a halfspace system {x : G x <= h} in a box
nearest a start in the max norm, which pdnrm.demand_balance solves."""

import numpy as np

FEASIBLE_TOL = 1e-9  # the residual at which feasible_point's start passes


def max_violation(G, h, x) -> float:
    return float(np.maximum.reduce(G @ x - h, initial=0.0))


def project_polytope(*args, **kwargs):
    """Removed; the name stays only for perfbench/tracer.py's FUNCTIONS and
    tests/test_perfbench_names.py until the benchmark refresh (ROADMAP 1a)."""
    raise NotImplementedError("project_polytope was removed; see feasible_point")


def feasible_point(G, h, x0, lo, hi):
    """(x, True) for the point x of {G x <= h} in the box [lo, hi] nearest x0 in
    the max norm, by one HiGHS LP (min t, -t <= x - x0 <= t); (x0 clipped, False)
    when HiGHS proves the set empty or a NaN or infinity is left once the rows
    with h = +inf are dropped. A clipped x0 within FEASIBLE_TOL comes back as is."""
    G, h, x0 = (np.asarray(v, float) for v in (G, h, x0))
    x = np.minimum(np.maximum(x0, lo), hi)
    if max_violation(G, h, x) <= FEASIBLE_TOL:
        return x, True
    G, h = G[h != np.inf], h[h != np.inf]
    if not all(np.isfinite(v).all() for v in (G, h, x0, lo, hi)):
        return x, False
    from scipy.optimize import linprog   # deferred: `import nrmlab` stays scipy-free
    n = len(x)
    eye, t = np.eye(n), -np.ones((n, 1))
    res = linprog(np.r_[np.zeros(n), 1.0],
                  A_ub=np.block([[G, np.zeros((len(h), 1))], [eye, t], [-eye, t]]),
                  b_ub=np.r_[h, x0, -x0],
                  bounds=[*zip(np.broadcast_to(lo, n), np.broadcast_to(hi, n)), (0.0, None)],
                  method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"balancing LP failed: HiGHS status {res.status} ({res.message})")
    return (res.x[:-1], True) if res.status == 0 else (x, False)
