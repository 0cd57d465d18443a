"""Primal-dual pricing policy with demand balancing.

Structure: the horizon is split into epochs with exponentially growing
lengths, one dual update per epoch; each epoch runs primal gradient-ascent
loops of exponentially growing lengths; each loop spends half its budget
estimating the demand curve by two-point perturbations and the other half
posting a balanced price chosen so the two-phase average resource use stays
near the per-period inventory rate.
"""

import math
import numpy as np
from dataclasses import dataclass, fields, replace
from typing import Optional

from .instance import Instance, _is_integral, _is_number
from .fluid import DualSet, default_dual_set
from .projections import feasible_point
from .demand import _dot
from .sim import CommitPolicy, _as_schedule, _serve

@dataclass
class PdNrmConfig:
    """Learning constants, built by constants_tuned or constants_theory.
    kappa2 = sqrt(kappa5) is derived, not stored."""

    n0: int
    kappa1: float
    kappa3: float
    kappa5: float
    kappa6: float
    eta1: float
    eta2: float
    mu: float
    contraction: float = 0.5
    warm_start: bool = True
    p_margin: float = 0.05
    primal_init: str = "low"          # "low" | "center" | explicit vector
    lambda_max: Optional[np.ndarray] = None  # dual box [0, lambda_max]; None: default_dual_set
    lambda0: Optional[np.ndarray] = None     # first dual iterate; None: zero

    @property
    def kappa2(self) -> float:
        return math.sqrt(self.kappa5)

    def validate(self, instance: Instance) -> None:
        """The one check of every field, against the instance's N and M."""
        N, M = instance.N, instance.M
        _require("n0", _is_integral(self.n0) and self.n0 >= 4 * N,
                 f"an integer of at least 4N = {4 * N}", self.n0)
        for name in ("kappa1", "kappa3", "kappa5", "kappa6", "eta1", "eta2", "mu"):
            val = getattr(self, name)
            _require(name, _is_number(val) and val > 0, "a positive number", val)
        c, m, warm = self.contraction, self.p_margin, self.warm_start
        _require("contraction", _is_number(c) and 0 < c < 1, "a number in (0, 1)", c)
        _require("p_margin", _is_number(m) and 0 <= m < 0.5, "a number in [0, 0.5)", m)
        _require("warm_start", isinstance(warm, (bool, np.bool_)), "true or false", warm)
        init = self.primal_init
        _require("primal_init", init in ("low", "center") if isinstance(init, str)
                 else _is_vector(init, N), f"'low', 'center' or a list of {N} numbers", init)
        if self.lambda_max is not None or self.lambda0 is not None:
            lam0, box = self.lambda0, _dual_box(instance, self.lambda_max)
            _require("lambda0", lam0 is None or _is_vector(lam0, M)
                     and box.contains(np.asarray(lam0, float)),
                     f"a list of {M} numbers inside the dual box [0, lambda_max]", lam0)

    def to_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if val is not None:
                doc[f.name] = val.tolist() if isinstance(val, np.ndarray) else val
        return doc


_FIELD_NAMES = frozenset(f.name for f in fields(PdNrmConfig))


def _require(key: str, ok: bool, what: str, val) -> None:
    if not ok:
        shown = val.tolist() if isinstance(val, np.ndarray) else val
        raise ValueError(f"pdnrm config key {key!r} must be {what}, not {shown!r}")


def _is_vector(x, n: Optional[int] = None) -> bool:
    listed = isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim == 1
    return listed and (n is None or len(x) == n) and all(map(_is_number, x))


def _dual_box(instance: Instance, lambda_max) -> DualSet:
    """The dual box [0, lambda_max] of the policy and the theory constants."""
    if lambda_max is None:
        return default_dual_set(instance)
    _require("lambda_max", _is_vector(lambda_max, instance.M) and all(x > 0 for x in lambda_max),
             f"a list of {instance.M} positive numbers, one per resource", lambda_max)
    return DualSet(np.asarray(lambda_max, float))


def _overrides(doc: dict) -> dict:
    """A document's keys as field values: a list of numbers becomes a float array
    and an integral n0 an int; any other value is left for validate to reject."""
    unknown = sorted(set(doc) - _FIELD_NAMES)
    if unknown:
        hint = "; kappa2 is sqrt(kappa5); set kappa5" if "kappa2" in unknown else ""
        raise ValueError(f"unknown pdnrm config keys {unknown}{hint}")
    patch = dict(doc)
    for key in ("lambda_max", "lambda0", "primal_init"):
        if _is_vector(patch.get(key)):
            patch[key] = np.asarray(patch[key], dtype=float)
    if _is_integral(patch.get("n0")):
        patch["n0"] = int(patch["n0"])
    return patch


def constants_tuned(N: int, T: int, **overrides) -> PdNrmConfig:
    """Hand-tuned constants: n0 = ceil(0.1 N^4 ln^2(NT)); kappa1 = n0^.25;
    kappa5 = (2/3)e-8 (N^5.5 ln^3(NT) + N^4 ln^6(NT)); kappa2 = sqrt(kappa5);
    kappa3 = 8 kappa1 sqrt(N^3 ln(2NT)) + 12 kappa1^2; kappa6 = sqrt(N);
    eta1 = eta2 = mu = 1. Each keyword overrides its field; validate checks them."""
    if N < 1 or T < 2:
        raise ValueError("need N >= 1 and T >= 2")
    ln_nt = math.log(N * T)
    ln_2nt = math.log(2 * N * T)
    n0 = max(int(math.ceil(0.1 * N**4 * ln_nt**2)), 4 * N)
    kappa1 = n0**0.25
    tuned = dict(
        n0=n0,
        kappa1=kappa1,
        kappa3=8.0 * kappa1 * math.sqrt(N**3 * ln_2nt) + 12.0 * kappa1**2,
        kappa5=(2.0 / 3.0) * 1e-8 * (N**5.5 * ln_nt**3 + N**4 * ln_nt**6),
        kappa6=math.sqrt(N),
        eta1=1.0,
        eta2=1.0,
        mu=1.0,
    )
    return PdNrmConfig(**{**tuned, **_overrides(overrides)})


def constants_theory(instance: Instance, regularity, T: int, *,
                     p_margin: float = 0.05,
                     rho_bar: Optional[float] = None,
                     rho_lo: Optional[float] = None,
                     **overrides) -> PdNrmConfig:
    """Constants from the convergence analysis for the config's dual box, with
    grid-estimated regularity bounds. Faithful but impractical (n0 may exceed T).

    rho_lo / rho_bar default to the inner-box margin and diameter; they are
    treated as given problem constants by the analysis and can be pinned."""
    reg = regularity
    patch = _overrides(overrides)
    box = _dual_box(instance, patch.get("lambda_max"))
    lam_bar = box.lambda_bar
    # the analysis never bounds ||J_D|| separately, and one purchase per
    # period bounds the demand: B_J = B_D and d_bar = 1
    B_J = reg.B_D
    d_bar = 1.0
    N = instance.N
    width = instance.price_max - instance.price_min
    if rho_lo is None:
        rho_lo = p_margin * width
    if rho_bar is None:
        rho_bar = math.sqrt(N) * (width - 2 * rho_lo)
    ln_t = math.log(T)
    ln_2nt = math.log(2 * N * T)

    eta1 = 1.0 / (8.0 * (reg.B_f + reg.B_A * B_J * lam_bar))
    eta2 = reg.sigma_phi / reg.B_A**2
    mu = reg.sigma_A**2 / reg.B_phi
    kappa4 = 2.0 * d_bar * max(reg.L_D * math.sqrt(N),
                               reg.B_f * math.sqrt(N) + reg.B_r) * math.sqrt(N * ln_2nt)
    n0 = max(
        (1.0 + reg.B_A * lam_bar)**4 * kappa4**4 * ln_t**2
        / (reg.B_phi**2 * reg.B_D**4 * rho_bar**4),
        N**2 / rho_lo**4,
        4.0 * N,
    )
    n0 = int(math.ceil(n0))
    kappa1 = math.sqrt(8.0 * reg.B_phi * reg.B_D**2 * rho_bar**2
                       / (reg.sigma_phi * reg.sigma_D**2)) * n0**0.25
    kappa3 = 4.0 * d_bar * reg.L_D * kappa1 * math.sqrt(N**3 * ln_2nt) \
        + 3.0 * reg.L_D * kappa1**2
    mu_eta2 = mu * eta2
    kappa6 = 2.0 * (reg.B_phi + lam_bar * (reg.B_A * d_bar + reg.gamma_max)
                    * math.sqrt(N)) * (1.0 + mu_eta2)**1.5 / mu_eta2
    kappa5 = max(
        32.0 * kappa3**2 * kappa6**2 * lam_bar * reg.B_A * ln_t**2
        / (mu**2 * eta2 * d_bar * math.sqrt(N)),
        16.0 * kappa1**4 * kappa6**2 * lam_bar**2 * reg.B_D**4 * (1.0 + mu_eta2)
        / (mu**4 * eta2**2 * d_bar**2 * N),
        1.0,  # the analysis requires kappa5 >= 1
    )
    contraction = 1.0 - eta1 * reg.sigma_D**2 * reg.sigma_phi / 2.0
    cfg = PdNrmConfig(
        n0=n0,
        kappa1=kappa1,
        kappa3=kappa3,
        kappa5=kappa5,
        kappa6=kappa6,
        eta1=eta1,
        eta2=eta2,
        mu=mu,
        contraction=contraction,
        p_margin=p_margin,
        lambda_max=box.lambda_max.copy(),
    )
    cfg = replace(cfg, **patch)
    cfg.validate(instance)
    return cfg


def config_from_dict(doc: dict, instance: Instance,
                     T: Optional[int] = None) -> PdNrmConfig:
    """Resolve a JSON config document: the tuned formulas at (instance.N, T or
    instance.T), then every other key overrides the field of its name. The
    optional "mode" key must be "tuned"; a theory document, as printed by
    `nrmlab constants --mode theory`, sets every field."""
    if not isinstance(doc, dict):
        raise ValueError(f"a pdnrm config must be a JSON object, not {type(doc).__name__}")
    rest = dict(doc)
    mode = rest.pop("mode", "tuned")
    if mode != "tuned":
        raise ValueError(f"config mode {mode!r} is not supported: a config is the tuned "
                         "formulas plus field overrides; for the theory constants pass the "
                         "output of `nrmlab constants --mode theory`")
    cfg = constants_tuned(instance.N, instance.T if T is None else T, **rest)
    cfg.validate(instance)
    return cfg


@dataclass
class GradEstOutput:
    D_hat: np.ndarray
    J_hat: np.ndarray
    grad_f: np.ndarray
    tilde_p: np.ndarray
    balancing_feasible: bool
    periods_consumed: int
    u: float
    degraded: bool = False


def demand_balance(D_hat, J_hat, p, lam, n, gamma, A,
                   kappa1, kappa2, kappa3, price_box):
    """Find a balanced price near p whose model-predicted two-phase average
    consumption sits in the target band around gamma.

    Constraints on x = p_tilde - p (all linear):
      |x_i| <= kappa1 n^{-1/4}, p + x in the price box,
      <a_j, D_hat + J_hat x / 2> <= gamma_j + kappa3/sqrt(n),
      <a_j, D_hat + J_hat x / 2> >= gamma_j - kappa2/((1 ^ lam_j) sqrt(n)) - kappa3/sqrt(n).
    Solved by projections.feasible_point from x = 0; (p, False) when no point
    passes the residual tolerance within the sweep cap.
    """
    p = np.asarray(p, float)
    lam = np.asarray(lam, float)
    n_products = p.shape[0]
    m_res = gamma.shape[0]
    root_n = math.sqrt(n)
    radius = kappa1 * n**-0.25
    lo = np.maximum(-radius, price_box[0] - p)
    hi = np.minimum(radius, price_box[1] - p)

    C = 0.5 * (np.asarray(J_hat).T @ np.asarray(A).T)  # column j: d<a_j, model>/dx
    base = np.asarray(A) @ np.asarray(D_hat)
    ub = np.asarray(gamma) + kappa3 / root_n - base
    lb = np.array([gamma[j] - kappa2 / (min(1.0, lam[j]) * root_n) - kappa3 / root_n - base[j]
                   if lam[j] > 0 else -np.inf for j in range(m_res)])
    # rows interleaved as C_j x <= ub_j, -C_j x <= -lb_j
    G = np.empty((2 * m_res, n_products))
    G[0::2], G[1::2] = C.T, -C.T
    h = np.empty(2 * m_res)
    h[0::2], h[1::2] = ub, -lb
    x, ok = feasible_point(G, h, np.zeros(n_products), lo, hi)
    return (p + x, True) if ok else (p.copy(), False)


def _grad_est_gen(instance: Instance, cfg: PdNrmConfig, p, lam, n):
    """Generator: yields commitments and schedules, receives average demand,
    returns a GradEstOutput. Consumes exactly n periods."""
    N = instance.N
    p = np.asarray(p, float)
    m = n // (4 * N)
    u = 0.0 if m == 0 else min(math.sqrt(N) / n**0.25,
                               float(np.min(p - instance.price_min)),
                               float(np.min(instance.price_max - p)))
    if u <= 0:
        avg = yield (p, n)
        zeros = np.zeros((N, N))
        return GradEstOutput(D_hat=avg[0], J_hat=zeros,
                             grad_f=np.zeros(N), tilde_p=p.copy(),
                             balancing_feasible=False, periods_consumed=n,
                             u=0.0, degraded=True)

    # the 2N two-point probes p + u e_i, p - u e_i read no feedback until the
    # last one, so they are one schedule
    probes = np.empty((2 * N, N))
    probes[0::2] = p + u * np.eye(N)
    probes[1::2] = p - u * np.eye(N)
    avgs = yield (probes, np.full(2 * N, m))
    d_plus, d_minus = avgs[0::2], avgs[1::2]
    D_hat = (d_plus.sum(axis=0) + d_minus.sum(axis=0)) / (2 * N)
    J_hat = ((d_plus - d_minus) / (2 * u)).T
    grad_f = (_dot(probes[0::2], d_plus) - _dot(probes[1::2], d_minus)) / (2 * u)

    tilde_p, feasible = demand_balance(
        D_hat, J_hat, p, lam, n, instance.gamma, instance.A,
        cfg.kappa1, cfg.kappa2, cfg.kappa3, instance.price_box)
    rest = n - 2 * N * m
    if rest > 0:
        yield (tilde_p, rest)
    return GradEstOutput(D_hat=D_hat, J_hat=J_hat, grad_f=grad_f,
                         tilde_p=tilde_p, balancing_feasible=feasible,
                         periods_consumed=n, u=u)


class DemandOracle:
    """Noiseless environment handle: each schedule returns the exact mean
    demand of its rows in one stacked evaluation, so a grad_est call costs two
    model evaluations, not n periods."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.periods = 0
        self.commits = 0

    def commit(self, prices, lengths):
        """The (K, N) average demand of a schedule's rows."""
        self.periods += int(lengths.sum())
        self.commits += len(lengths)
        return self.instance.model.mean(prices)


class SamplingOracle:
    """Stochastic environment handle backed by the simulator's market kernel,
    without inventory: a schedule of any length costs one count draw."""

    def __init__(self, instance: Instance, rng: np.random.Generator):
        self.instance = instance
        self.rng = rng
        self.periods = 0

    def commit(self, prices, lengths):
        """The (K, N) average demand of a schedule's rows."""
        self.periods += int(lengths.sum())
        _, counts, _ = _serve(self.instance.model, self.instance.A, prices, lengths, None,
                              self.rng)
        return counts[:, :-1] / lengths[:, None]


def _drive(gen, env):
    """Run a commitment generator against an environment handle: each request,
    a plain commitment being the one-row schedule, is one env.commit call."""
    try:
        request = next(gen)
        while True:
            request = gen.send(np.asarray(env.commit(*_as_schedule(request)), float))
    except StopIteration as stop:
        return stop.value


def grad_est(env, instance: Instance, cfg: PdNrmConfig, p, lam, n) -> GradEstOutput:
    """Run the estimation-and-balancing routine against an environment handle
    with a commit(prices (K, N), lengths (K,)) -> (K, N) average-demand method."""
    return _drive(_grad_est_gen(instance, cfg, p, lam, n), env)


def prox_dual_step(lam_s, grad_h, mu, eta2, lambda_max) -> np.ndarray:
    """Exact minimizer over the box of
    <grad_h, lam> + (mu/2)||lam||^2 + (1/(2 eta2))||lam - lam_s||^2.

    With grad_h = grad_q - mu lam_s, as the policy passes it, the shrinkage
    cancels and this is the projected step
    clip(lam_s - eta2/(1 + mu eta2) grad_q, 0, lambda_max)."""
    lam_s = np.asarray(lam_s, float)
    raw = (lam_s - eta2 * np.asarray(grad_h, float)) / (1.0 + mu * eta2)
    return np.clip(raw, 0.0, np.asarray(lambda_max, float))


def _primal_gen(instance: Instance, cfg: PdNrmConfig, lam, eps_bar, p_start,
                events: Optional[list] = None, epoch: int = 0):
    """One PrimalOpt run. Returns (p_hat, D_hat, p_next) where p_hat is the
    price of the final executed loop (whose estimate feeds the dual update)
    and p_next is the post-update iterate used for warm starts."""
    P_lo, P_hi = _inner_box(instance, cfg)
    lam = np.asarray(lam, float)
    At_lam = instance.A.T @ lam
    p = np.asarray(p_start, float).copy()
    tau = 0
    threshold = cfg.kappa5 / eps_bar**2 if eps_bar > 0 else math.inf
    while True:
        n_tau = int(math.ceil(min(cfg.contraction ** (-2 * tau), 2.0**62) * cfg.n0))
        est = yield from _grad_est_gen(instance, cfg, p, lam, n_tau)
        grad_L = est.grad_f - est.J_hat.T @ At_lam
        raw = p + cfg.eta1 * grad_L
        p_next = np.clip(raw, P_lo, P_hi)
        if events is not None:
            events.append({
                "kind": "loop", "s": epoch, "tau": tau, "n_tau": n_tau,
                "lambda": lam.tolist(), "p": p.tolist(), "u": est.u,
                "tilde_p": est.tilde_p.tolist(),
                "balancing_feasible": bool(est.balancing_feasible),
                "degraded": bool(est.degraded),
                "clipped": bool(np.any(raw != p_next)),
            })
        if n_tau > threshold:
            return p, est.D_hat, p_next
        p = p_next
        tau += 1


def primal_opt(env, instance: Instance, cfg: PdNrmConfig, lam, eps_bar,
               p_start=None, events: Optional[list] = None):
    """Standalone PrimalOpt against an environment handle; returns
    (p_hat, D_hat)."""
    if p_start is None:
        p_start = _initial_price(instance, cfg)
    p_hat, D_hat, _ = _drive(
        _primal_gen(instance, cfg, lam, eps_bar, p_start, events=events), env)
    return p_hat, D_hat


def _inner_box(instance: Instance, cfg: PdNrmConfig):
    margin = cfg.p_margin * (instance.price_max - instance.price_min)
    return instance.price_min + margin, instance.price_max - margin


def _initial_price(instance: Instance, cfg: PdNrmConfig) -> np.ndarray:
    P_lo, P_hi = _inner_box(instance, cfg)
    init = cfg.primal_init   # checked by PdNrmConfig.validate
    if not isinstance(init, str):
        return np.clip(np.asarray(init, float), P_lo, P_hi)
    return np.full(instance.N, 0.5 * (P_lo + P_hi) if init == "center" else P_lo)


class PdNrmPolicy(CommitPolicy):
    """The full primal-dual policy as a simulator policy."""

    name = "pdnrm"

    def __init__(self, instance: Instance, config: Optional[PdNrmConfig] = None):
        if config is None:
            config = constants_tuned(instance.N, instance.T)
        config.validate(instance)
        self.instance = instance
        self.config = config
        self.dual_set = _dual_box(instance, config.lambda_max)
        self.events: list = []
        super().__init__()

    def _driver(self):
        instance, cfg = self.instance, self.config
        lam = np.zeros(instance.M) if cfg.lambda0 is None else np.array(cfg.lambda0, float)
        p_warm = _initial_price(instance, cfg)
        s = 0
        while True:
            eps_bar = cfg.kappa6 * (1.0 + cfg.mu * cfg.eta2) ** (-s / 2.0)
            self.events.append({
                "kind": "epoch", "s": s, "lambda": lam.tolist(), "eps_bar": eps_bar,
            })
            start = p_warm if cfg.warm_start else _initial_price(instance, cfg)
            p_hat, D_hat, p_next = yield from _primal_gen(
                instance, cfg, lam, eps_bar, start, events=self.events, epoch=s)
            p_warm = p_next
            grad_q = instance.gamma - instance.A @ D_hat
            grad_h = grad_q - cfg.mu * lam
            lam_next = prox_dual_step(lam, grad_h, cfg.mu, cfg.eta2,
                                      self.dual_set.lambda_max)
            self.events.append({
                "kind": "dual", "s": s, "grad_q": grad_q.tolist(),
                "lambda_next": lam_next.tolist(),
            })
            lam = lam_next
            s += 1


def epoch_count_bound(cfg: PdNrmConfig, T: int) -> float:
    """Dual updates never exceed 2 ln(T)/(mu eta2) + 1."""
    return 2.0 * math.log(T) / (cfg.mu * cfg.eta2) + 1.0
