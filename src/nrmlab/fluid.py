"""Exact fluid-approximation and Lagrangian-dual oracle.

Solves max phi(d) s.t. A d <= gamma over the demand image, evaluates the
Lagrangians L(lam, p) / H(lam, d), the dual function Q(lam) with its
derivatives, and certifies strong duality. Every maximization is one SLSQP
solve in price space with the price box as bounds: D maps the box one-to-one
onto the demand image, where phi is concave, so the KKT point SLSQP returns
is the global optimum. Used by benchmarks and tests; never by the learning
policy's data path.
"""

import numpy as np
from dataclasses import dataclass

from .demand import (
    revenue_f,
    revenue_phi,
    grad_revenue_phi,  # no caller here; perfbench/tracer.py counts calls through this name
    grad_revenue_f,
)
from .instance import Instance

CERTIFICATE_TOL = 1e-5  # solve_fluid certifies a duality gap and complementary slackness within it


class FluidError(RuntimeError):
    """Oracle failure: infeasible instance or a duality certificate out of tolerance."""


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


def _maximize(instance: Instance, lam, p0, capacity: bool = False):
    """Maximize L(lam, .) over the price box by SLSQP in price space, subject
    to A D(p) <= gamma when capacity is set.

    Returns (p, multipliers of the capacity rows clipped at 0). The box is
    passed as bounds, so D and D^{-1} are only evaluated where they are
    defined. SLSQP's success flag is not read: at this ftol it often reports a
    failed line search at a point that certifies, so solve_fluid gates on the
    duality certificate instead.
    """
    from scipy.optimize import minimize   # deferred: `import nrmlab` stays scipy-free
    model = instance.model
    constraints = ()
    if capacity:
        constraints = ({"type": "ineq",
                        "fun": lambda p: instance.gamma - instance.A @ model.mean(p),
                        "jac": lambda p: -instance.A @ model.jacobian(p)},)
    res = minimize(lambda p: -lagrangian_L(instance, lam, p),
                   np.clip(p0, instance.price_min, instance.price_max),
                   jac=lambda p: -grad_lagrangian_L(instance, lam, p), method="SLSQP",
                   bounds=[instance.price_box] * instance.N, constraints=constraints,
                   options={"ftol": 1e-15, "maxiter": 1000})
    p = np.clip(res.x, instance.price_min, instance.price_max)
    return p, np.maximum(res.multipliers, 0.0)


def solve_inner_max(instance: Instance, lam, start=None):
    """Maximize H(lam, .) over the demand image, as L(lam, .) over the price box.

    Returns (p_star_lam, d_star_lam). start is a demand vector; by default the
    solve starts at the mid price.
    """
    mid = np.full(instance.N, 0.5 * (instance.price_min + instance.price_max))
    p, _ = _maximize(instance, np.asarray(lam, float),
                     mid if start is None else instance.model.inverse(start))
    return p, instance.model.mean(p)


def dual_Q(instance: Instance, lam, start=None) -> float:
    """Q(lam) = max_p L(lam, p) = max_d H(lam, d)."""
    _, d = solve_inner_max(instance, lam, start=start)
    return lagrangian_H(instance, lam, d)


def grad_Q(instance: Instance, lam, start=None) -> np.ndarray:
    """grad Q(lam) = gamma - A d_star_lam."""
    _, d = solve_inner_max(instance, lam, start=start)
    return instance.gamma - instance.A @ d


def _chebyshev_center(instance: Instance) -> np.ndarray:
    """Center of the largest ball in {G d <= h, A d <= gamma}, the demand
    vectors that the price box and the capacity allow (G, h from
    image_halfspaces). Raises FluidError when that set has no interior."""
    from scipy.optimize import linprog   # deferred: `import nrmlab` stays scipy-free
    G_img, h_img = instance.model.image_halfspaces(instance.price_min, instance.price_max)
    G = np.vstack([G_img, instance.A])
    h = np.concatenate([h_img, instance.gamma])
    # maximize r s.t. G_k d + r ||G_k|| <= h_k
    res = linprog(np.r_[np.zeros(instance.N), -1.0],
                  A_ub=np.hstack([G, np.linalg.norm(G, axis=1)[:, None]]), b_ub=h,
                  bounds=[(None, None)] * (instance.N + 1), method="highs")
    if res.status != 0 or res.x[-1] <= 0:
        raise FluidError("no feasible demand vector: instance appears infeasible")
    return res.x[:-1]


def _inside_capacity(instance: Instance, p, center):
    """(p, D(p)) with A D(p) <= gamma exactly.

    SLSQP meets the capacity rows only to about 1e-11 gamma; a d* outside
    them would make noiseless play at p* shut off in the last period. So d*
    moves toward the interior point center in doubling steps from 1e-14 of
    the way until the recomputed mean passes.
    """
    model = instance.model
    d_opt = d = model.mean(p)
    t = 1e-14
    while np.any(instance.A @ d > instance.gamma):
        if t > 1.0:
            raise FluidError("could not place d* inside the capacity constraints")
        p = np.clip(model.inverse(d_opt + t * (center - d_opt)),
                    instance.price_min, instance.price_max)
        d = model.mean(p)
        t *= 2.0
    return p, d


def default_dual_set(instance: Instance) -> np.ndarray:
    """lambda_max of the dual box Lambda = prod_j [0, lambda_max_j]: price_max / gamma_j.

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
    return instance.price_max / instance.gamma


def solve_fluid(instance: Instance) -> FluidSolution:
    """Solve the fluid program and its dual; populate a duality certificate.

    Primal: one SLSQP solve of max f(p) s.t. A D(p) <= gamma over the price
    box, started at the Chebyshev center of the feasible demand set, then
    moved inside the capacity rows exactly. Dual: lambda* is SLSQP's
    multiplier on the capacity rows; one dual_Q(lambda*) call certifies it.
    Raises FluidError when infeasible or when the certificate fails.
    """
    center = _chebyshev_center(instance)
    p, lam = _maximize(instance, np.zeros(instance.M), instance.model.inverse(center),
                       capacity=True)
    p_star, d_star = _inside_capacity(instance, p, center)
    value_star = revenue_phi(instance.model, d_star)

    gap = dual_Q(instance, lam, start=d_star) - value_star
    slack = instance.gamma - instance.A @ d_star
    binding = slack <= 10 * CERTIFICATE_TOL * np.maximum(instance.gamma, 1.0)
    comp = abs(float(lam @ slack))
    if abs(gap) > CERTIFICATE_TOL or comp > CERTIFICATE_TOL:
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
