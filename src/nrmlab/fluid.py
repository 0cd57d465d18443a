"""Exact fluid-approximation and Lagrangian-dual oracle.

Solves max phi(d) s.t. A d <= gamma over the demand image, evaluates the
Lagrangians L(lam, p) / H(lam, d), the dual function Q(lam) with its
derivatives, and certifies strong duality. Used by benchmarks and tests;
never by the learning policy's data path.
"""

import numpy as np
from dataclasses import dataclass

from .demand import (
    revenue_f,
    revenue_phi,
    grad_revenue_phi,
    grad_revenue_f,
)
from .instance import Instance
from .projections import project_polytope, feasible_point


class FluidError(RuntimeError):
    """Oracle failure: infeasible instance or non-convergence (residual attached)."""


@dataclass(frozen=True)
class DualSet:
    """Box Lambda = prod_j [0, lambda_max_j] known to contain the optimal dual."""

    lambda_max: np.ndarray

    def __post_init__(self):
        lm = np.asarray(self.lambda_max, dtype=float)
        if np.any(lm <= 0):
            raise ValueError("lambda_max must be strictly positive")
        object.__setattr__(self, "lambda_max", lm)

    @property
    def lambda_bar(self) -> float:
        """An l2 bound on Lambda."""
        return float(np.linalg.norm(self.lambda_max))

    def contains(self, lam: np.ndarray, tol: float = 1e-12) -> bool:
        return bool(np.all(lam >= -tol) and np.all(lam <= self.lambda_max + tol))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.random(self.lambda_max.shape[0]) * self.lambda_max


@dataclass(frozen=True)
class FluidSolution:
    d_star: np.ndarray
    p_star: np.ndarray
    lambda_star: np.ndarray
    value: float
    binding_mask: np.ndarray
    duality_gap: float

    def to_dict(self) -> dict:
        return {
            "d_star": self.d_star.tolist(),
            "p_star": self.p_star.tolist(),
            "lambda_star": self.lambda_star.tolist(),
            "value": self.value,
            "binding_mask": self.binding_mask.tolist(),
            "duality_gap": self.duality_gap,
        }


def lagrangian_L(instance: Instance, lam, p) -> float:
    """L(lam, p) = f(p) - <lam, A D(p) - gamma>."""
    lam = np.asarray(lam, float)
    slack = instance.A @ instance.model.mean(np.asarray(p, float)) - instance.gamma
    return revenue_f(instance.model, p) - float(lam @ slack)


def lagrangian_H(instance: Instance, lam, d) -> float:
    """H(lam, d) = phi(d) - <lam, A d - gamma>; equals L(lam, D^{-1}(d))."""
    lam = np.asarray(lam, float)
    d = np.asarray(d, float)
    return revenue_phi(instance.model, d) - float(lam @ (instance.A @ d - instance.gamma))


def grad_lagrangian_L(instance: Instance, lam, p) -> np.ndarray:
    """d/dp L(lam, p) = grad f(p) - J_D(p)^T A^T lam."""
    p = np.asarray(p, float)
    return grad_revenue_f(instance.model, p) - instance.model.jacobian(p).T @ (
        instance.A.T @ np.asarray(lam, float))


def _image_system(instance: Instance):
    return instance.model.image_halfspaces(instance.price_min, instance.price_max)


def _image_start(instance: Instance):
    mid = np.full(instance.N, 0.5 * (instance.price_min + instance.price_max))
    return instance.model.mean(mid)


def _ascend(grad_fn, value_fn, G, h, d0, tol, max_iter):
    """Projected gradient ascent; returns (d, gradient-map norm).

    Phase 1 backtracks on the objective value; once value comparisons hit the
    float64 noise floor, phase 2 polishes with a value-free fixed step, which
    keeps contracting the iterates well below that floor.
    """
    d = project_polytope(G, h, np.asarray(d0, float))
    val = value_fn(d)
    step = 0.1
    residual = np.inf
    iters = 0
    while iters < max_iter:
        iters += 1
        g = grad_fn(d)
        d_new = project_polytope(G, h, d + step * g)
        residual = float(np.linalg.norm(d_new - d)) / step
        if residual <= tol:
            return d, residual
        val_new = value_fn(d_new)
        if val_new < val - 1e-13 * max(1.0, abs(val)):
            step *= 0.5
            if step < 1e-12:
                break
            continue
        if val_new <= val:
            break  # below the value-resolution floor: polish without values
        d, val = d_new, val_new
        step = min(step * 1.25, 1.0)

    best_res = residual
    best_d = d
    stale = 0
    while iters < max_iter:
        iters += 1
        g = grad_fn(d)
        d_new = project_polytope(G, h, d + step * g)
        residual = float(np.linalg.norm(d_new - d)) / step
        if residual <= tol:
            return d_new, residual
        if residual < best_res * (1.0 - 1e-6):
            best_res, best_d, stale = residual, d_new, 0
        else:
            stale += 1
            if stale >= 30:
                # oscillating across an active face: damp and restart from best
                step *= 0.5
                stale = 0
                d = best_d
                if step < 1e-12:
                    break
                continue
        d = d_new
    return best_d, best_res


def solve_inner_max(instance: Instance, lam, tol: float = 1e-9,
                    max_iter: int = 100_000, start=None):
    """Maximize the concave H(lam, .) over the demand image.

    Returns (p_star_lam, d_star_lam). Projected gradient ascent with exact
    gradients grad phi(d) - A^T lam and a backtracking step (the image corner
    curvature makes a global fixed step impractically small).
    """
    lam = np.asarray(lam, float)
    G, h = _image_system(instance)

    def grad(d):
        return grad_revenue_phi(instance.model, d) - instance.A.T @ lam

    def value(d):
        return lagrangian_H(instance, lam, d)

    d0 = _image_start(instance) if start is None else start
    d, residual = _ascend(grad, value, G, h, d0, tol, max_iter)
    if residual > tol:
        raise FluidError(f"inner maximization stalled at gradient-map norm {residual:.3e}")
    return instance.model.inverse(d), d


def dual_Q(instance: Instance, lam, tol: float = 1e-9, start=None) -> float:
    """Q(lam) = max_p L(lam, p) = max_d H(lam, d)."""
    _, d = solve_inner_max(instance, lam, tol=tol, start=start)
    return lagrangian_H(instance, lam, d)


def grad_Q(instance: Instance, lam, tol: float = 1e-9, start=None) -> np.ndarray:
    """grad Q(lam) = gamma - A d_star_lam."""
    _, d = solve_inner_max(instance, lam, tol=tol, start=start)
    return instance.gamma - instance.A @ d


def default_dual_set(instance: Instance) -> DualSet:
    """The dual box Lambda with lambda_max_j = price_max / gamma_j.

    It contains lambda* whenever no fluid price sits at price_max. KKT on the
    demand image gives grad phi(d*) = A^T lambda* + G^T nu with nu >= 0 on the
    active image faces; a dot product with d* and complementary slackness give
    lambda*^T gamma = grad phi(d*)^T d* - nu^T h. For logit the price_min faces
    have h = w_hi > 0, so with no price at price_max,
    lambda*^T gamma <= grad phi(d*)^T d*. For logit,
    grad phi_i(d) = p_i - 1/b_i - sum_k d_k / (b_k (1 - sum d)) < p_i, so
    lambda*_j gamma_j <= lambda*^T gamma < phi* = <p*, d*> < price_max (the
    d*_i sum to less than 1) and lambda*_j < price_max / gamma_j.
    For linear demand grad phi(d)^T d = phi(d) - d^T B^{-1} d <= phi(d) too,
    but the price_min faces' offsets have either sign, so the argument needs
    p* strictly inside the box (and a mean in the probability simplex).
    """
    return DualSet(instance.price_max / instance.gamma)


def solve_fluid(instance: Instance, tol: float = 1e-5, grad_tol: float = 1e-10,
                max_iter: int = 100_000) -> FluidSolution:
    """Solve the fluid program and its dual; populate a duality certificate.

    Primal: projected gradient ascent on phi over image /\\ {A d <= gamma}.
    Dual: projected gradient descent on Q over lambda >= 0, warm-started from
    the primal KKT multiplier. Raises FluidError when infeasible or stalled.
    """
    G_img, h_img = _image_system(instance)
    G = np.vstack([G_img, instance.A])
    h = np.concatenate([h_img, instance.gamma])

    d0, ok = feasible_point(G, h, _image_start(instance), sweeps=1000, tol=1e-10)
    if not ok:
        raise FluidError("no feasible demand vector: instance appears infeasible")

    def grad(d):
        return grad_revenue_phi(instance.model, d)

    def value(d):
        return revenue_phi(instance.model, d)

    d_star, residual = _ascend(grad, value, G, h, d0, grad_tol, max_iter)
    if residual > grad_tol:
        raise FluidError(f"primal solve stalled at gradient-map norm {residual:.3e}")
    value_star = revenue_phi(instance.model, d_star)
    p_star = instance.model.inverse(d_star)

    # Dual: lambda solves grad phi(d*) ~ A^T lambda on the active set; polish
    # with projected gradient descent on Q to certify optimality.
    lam, *_ = np.linalg.lstsq(instance.A.T, grad_revenue_phi(instance.model, d_star),
                              rcond=None)
    lam = np.maximum(lam, 0.0)
    q_warm = d_star.copy()
    step = 0.5
    q_val = None
    for _ in range(200):
        _, d_lam = solve_inner_max(instance, lam, tol=1e-10, start=q_warm)
        q_warm = d_lam
        g = instance.gamma - instance.A @ d_lam
        q_val = lagrangian_H(instance, lam, d_lam)
        lam_new = np.maximum(lam - step * g, 0.0)
        move = float(np.linalg.norm(lam_new - lam)) / step
        if move <= 1e-9 or q_val - value_star <= 0.2 * tol:
            lam = lam_new
            break
        q_new = dual_Q(instance, lam_new, tol=1e-10, start=q_warm)
        if q_new > q_val + 1e-14:
            step *= 0.5
            continue
        lam = lam_new
        step = min(step * 1.2, 2.0)

    q_star = dual_Q(instance, lam, tol=1e-11, start=q_warm)
    gap = q_star - value_star
    slack = instance.gamma - instance.A @ d_star
    binding = slack <= max(10 * tol, 1e-4) * np.maximum(instance.gamma, 1.0)
    comp = abs(float(lam @ (instance.A @ d_star - instance.gamma)))
    if abs(gap) > tol or comp > tol:
        raise FluidError(
            f"dual certificate out of tolerance: gap={gap:.3e}, comp. slackness={comp:.3e}")
    return FluidSolution(
        d_star=d_star,
        p_star=p_star,
        lambda_star=lam,
        value=value_star,
        binding_mask=binding,
        duality_gap=float(gap),
    )


def fluid_upper_bound(instance: Instance, solution: FluidSolution) -> float:
    """T * phi(d*): upper bound on any admissible policy's expected revenue."""
    return instance.T * solution.value
