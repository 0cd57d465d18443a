"""Halfspace systems {x : G x <= h}: the balancing LP and a Dykstra projection."""

import numpy as np

FEASIBLE_TOL = 1e-9  # the residual at which feasible_point's start passes


def max_violation(G, h, x) -> float:
    return float(np.maximum.reduce(G @ x - h, initial=0.0))


# no caller in the package; perfbench/tracer.py wraps it by name
def project_polytope(G, h, x, sweeps: int = 500, tol: float = 1e-12) -> np.ndarray:
    """Euclidean projection onto {x : G x <= h} by Dykstra's alternating method.

    Exact in the limit for intersections of halfspaces; each sweep costs
    O(rows * dim).
    """
    G = np.asarray(G, float)
    h = np.asarray(h, float)
    x = np.asarray(x, float).copy()
    if max_violation(G, h, x) <= tol:
        return x
    K = G.shape[0]
    norms2 = np.einsum("ij,ij->i", G, G)
    corrections = np.zeros((K, x.shape[0]))
    for _ in range(sweeps):
        shift = 0.0
        for k in range(K):
            if norms2[k] <= 1e-30:
                continue
            y = x + corrections[k]
            excess = (G[k] @ y - h[k]) / norms2[k]
            x_new = y - max(excess, 0.0) * G[k]
            corrections[k] = y - x_new
            shift = max(shift, float(np.max(np.abs(x_new - x))))
            x = x_new
        if shift <= tol and max_violation(G, h, x) <= 10 * tol:
            break
    return x


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
