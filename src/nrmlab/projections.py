"""Alternating-projection utilities for halfspace systems {x : G x <= h}."""

import numpy as np

FEASIBLE_TOL = 1e-9  # feasible_point's residual tolerance


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


def feasible_point(G, h, x0, lo, hi, sweeps: int = 500, tol: float = FEASIBLE_TOL):
    """Cyclic projections from x0 toward {G x <= h} intersected with box [lo, hi].

    Returns (x, ok). ok is False when the residual stays above tol after the
    sweep cap (the system may be infeasible or just slow).
    """
    G = np.asarray(G, float)
    h = np.asarray(h, float)

    def clip(v):
        return np.minimum(np.maximum(v, lo), hi)

    # a passing start passes each zero row too (its h >= -tol), so it goes first
    x = clip(np.asarray(x0, float))
    if max_violation(G, h, x) <= tol:
        return x, True
    norms2 = np.einsum("ij,ij->i", G, G)
    for k in range(G.shape[0]):
        if norms2[k] <= 1e-30 and h[k] < -tol:
            return np.asarray(x0, float).copy(), False
    for _ in range(sweeps):
        for k in range(G.shape[0]):
            if norms2[k] <= 1e-30:
                continue
            excess = G[k] @ x - h[k]
            if excess > 0:
                x = x - (excess / norms2[k]) * G[k]
        x = clip(x)
        if max_violation(G, h, x) <= tol:
            return x, True
    return x, max_violation(G, h, x) <= tol
