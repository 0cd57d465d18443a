"""Exact fluid-approximation and Lagrangian-dual oracle.

Solves max phi(d) s.t. A d <= gamma over the demand image, evaluates the
Lagrangians L(lam, p) / H(lam, d), the dual function Q(lam) with its
derivatives, and certifies strong duality. Every maximization is one SLSQP
solve in price space with the price box as bounds: D maps the box one-to-one
onto the demand image, where phi is concave, so the KKT point SLSQP returns
is the global optimum. Each point SLSQP visits costs one evaluation of D
(and of J_D, built from that D, where a derivative is asked for), shared by
the objective, the capacity rows and their derivatives. No LP is solved:
every solve starts at the mid price, and an instance whose capacity no
demand vector meets is caught by an exact check of SLSQP's answer. Used by
benchmarks and tests; never by the learning policy's data path.
"""

import numpy as np
from dataclasses import dataclass, fields

from .demand import (
    revenue_phi,
    grad_revenue_phi,  # no caller here; perfbench/tracer.py counts calls through this name
)
from .instance import Instance

CERTIFICATE_TOL = 1e-5  # solve_fluid certifies a duality gap and complementary slackness within it
# SLSQP meets its capacity rows only to about 1e-11 gamma, and in a few random
# instances in 10,000 to about 6e-10 gamma, while a d* outside the capacity
# would shut noiseless play at p* off in its last period. So solve_fluid's rows
# are gamma (1 - margin), and its answer must meet A D(p*) <= gamma exactly.
# The second margin serves only an answer that missed the first by less than
# _RETRY_BAND gamma: 1e-9 alone would move the bundled phi* by 1.4e-10, and on
# the infeasible instances measured the answer misses by about 1e-3 gamma or more.
_CAPACITY_MARGINS = (1e-10, 1e-9)
_RETRY_BAND = 1e-6


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
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values}


def lagrangian_L(instance: Instance, lam, p) -> float:
    """L(lam, p) = f(p) - <lam, A D(p) - gamma>."""
    p = np.asarray(p, float)
    return _lagrangian(instance, np.asarray(lam, float), p, instance.model.mean(p))


def lagrangian_H(instance: Instance, lam, d) -> float:
    """H(lam, d) = phi(d) - <lam, A d - gamma>; equals L(lam, D^{-1}(d))."""
    lam = np.asarray(lam, float)
    d = np.asarray(d, float)
    return revenue_phi(instance.model, d) - float(lam @ (instance.A @ d - instance.gamma))


def _lagrangian(instance: Instance, lam, p, d, J=None):
    """L(lam, p) from d = D(p), or with J = J_D(p) its gradient in p,
    grad f(p) - J^T A^T lam with grad f(p) = d + J^T p: the one definition of
    both, which lagrangian_L and _maximize's callbacks share."""
    if J is None:
        return float(p @ d) - float(lam @ (instance.A @ d - instance.gamma))
    return d + J.T @ p - J.T @ (instance.A.T @ lam)


def _mid_price(instance: Instance) -> np.ndarray:
    return np.full(instance.N, 0.5 * (instance.price_min + instance.price_max))


def _maximize(instance: Instance, lam, p0, rows=None):
    """Maximize L(lam, .) over the price box by SLSQP in price space, subject
    to A D(p) <= rows when rows is given.

    Returns (p, multipliers of the capacity rows clipped at 0). The box is
    passed as bounds, so D and D^{-1} are only evaluated where they are
    defined. SLSQP asks for the objective, its gradient, the capacity rows and
    their Jacobian at each point it visits; D(p) is evaluated once per point
    and J_D(p), from that D(p), once per point that needs a derivative, and
    all four callbacks read that evaluation. SLSQP's success flag is not
    read: at this ftol it often reports a failed line search at a point that
    certifies, so solve_fluid gates on the duality certificate instead.
    """
    from scipy.optimize import minimize   # deferred: `import nrmlab` stays scipy-free
    model, A = instance.model, instance.A
    at = [None, None, None]   # SLSQP's last point (as bytes), D there, J_D there

    def evaluated(p, jacobian=False):
        key = p.tobytes()
        if at[0] != key:
            at[:] = key, model.mean(p), None
        if jacobian and at[2] is None:
            at[2] = model.jacobian(p, at[1])
        return at[1], at[2]

    constraints = ()
    if rows is not None:
        constraints = ({"type": "ineq",
                        "fun": lambda p: rows - A @ evaluated(p)[0],
                        "jac": lambda p: -A @ evaluated(p, True)[1]},)
    res = minimize(lambda p: -_lagrangian(instance, lam, p, evaluated(p)[0]),
                   np.clip(p0, instance.price_min, instance.price_max),
                   jac=lambda p: -_lagrangian(instance, lam, p, *evaluated(p, True)),
                   method="SLSQP", bounds=[instance.price_box] * instance.N,
                   constraints=constraints, options={"ftol": 1e-15, "maxiter": 1000})
    p = np.clip(res.x, instance.price_min, instance.price_max)
    return p, np.maximum(res.multipliers, 0.0)


def solve_inner_max(instance: Instance, lam, start=None):
    """Maximize H(lam, .) over the demand image, as L(lam, .) over the price box.

    Returns (p_star_lam, d_star_lam). start is a demand vector; by default the
    solve starts at the mid price.
    """
    p, _ = _maximize(instance, np.asarray(lam, float),
                     _mid_price(instance) if start is None else instance.model.inverse(start))
    return p, instance.model.mean(p)


def dual_Q(instance: Instance, lam, start=None) -> float:
    """Q(lam) = max_p L(lam, p) = max_d H(lam, d)."""
    _, d = solve_inner_max(instance, lam, start=start)
    return lagrangian_H(instance, lam, d)


def grad_Q(instance: Instance, lam) -> np.ndarray:
    """grad Q(lam) = gamma - A d_star_lam."""
    _, d = solve_inner_max(instance, lam)
    return instance.gamma - instance.A @ d


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

    Primal: one SLSQP solve of max f(p) s.t. A D(p) <= gamma (1 - 1e-10)
    over the price box, started at the mid price. Its answer must meet
    A D(p*) <= gamma exactly, which no answer does on an infeasible instance
    (p* lies in the box). An answer that misses by less than 1e-6 gamma is
    solved once more from the mid price against gamma (1 - 1e-9). Dual:
    lambda* is SLSQP's multiplier on the capacity rows; one dual_Q(lambda*)
    call certifies it. Every SLSQP solve evaluates D once per point it visits.
    Raises FluidError when d* exceeds a capacity row (naming the row with the
    largest excess), when the fluid value is not positive (every loss divides
    by it) or when the certificate fails, as a NaN gap or multiplier does.
    """
    for margin in _CAPACITY_MARGINS:
        p_star, lam = _maximize(instance, np.zeros(instance.M), _mid_price(instance),
                                instance.gamma * (1.0 - margin))
        d_star = instance.model.mean(p_star)
        excess = instance.A @ d_star - instance.gamma
        if not np.any(excess > 0) or np.any(excess > _RETRY_BAND * instance.gamma):
            break
    worst = int(np.argmax(excess))
    if excess[worst] > 0:
        raise FluidError(f"A d* exceeds gamma in row {worst} by {excess[worst]:.3e}: "
                         "the instance appears infeasible")
    value_star = revenue_phi(instance.model, d_star)
    if not value_star > 0:
        raise FluidError(f"fluid value {value_star:.3e} is not positive: no loss can divide by it")

    gap = dual_Q(instance, lam, start=d_star) - value_star
    slack = instance.gamma - instance.A @ d_star
    binding = slack <= 10 * CERTIFICATE_TOL * np.maximum(instance.gamma, 1.0)
    comp = abs(float(lam @ slack))
    if not (abs(gap) <= CERTIFICATE_TOL and comp <= CERTIFICATE_TOL):
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
