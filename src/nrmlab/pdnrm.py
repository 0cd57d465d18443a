"""Primal-dual pricing policy with demand balancing.

Structure: the horizon is split into epochs, one dual update per epoch; each
epoch runs primal gradient-ascent loops of exponentially growing lengths, up
to the first longer than kappa5 / eps_bar_s^2; each loop spends half its
budget estimating the demand curve by two-point perturbations and the other
half on a balanced price chosen so the two-phase average resource use stays
near the per-period inventory rate. So loop lengths and epoch ends depend on
the config alone: loop_skeleton lists them and `nrmlab constants` reports them.

The feedback of a balanced price is never read, so a loop's balanced row and
the next loop's 2N probes are one schedule, one kernel call, even across
epochs. A balanced row that would end after the horizon is served alone: a
loop is logged once its balanced row is served whole, as when rows are served
one at a time. A loop's arithmetic is on Python floats, rounded as numpy rounds
it; its matrix products stay numpy's, whose BLAS rounding is the contract."""

import functools
import itertools
import math
import operator
import numpy as np
from dataclasses import dataclass, fields, replace
from typing import Optional

from .instance import Instance, _is_integral, _is_number, _is_vector, _require_object
from .instance import _require as _require_document
from .fluid import default_dual_set
from .projections import FEASIBLE_TOL, feasible_point
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
                     and all(0 <= x <= b for x, b in zip(lam0, box.tolist())),
                     f"a list of {M} numbers inside the dual box [0, lambda_max]", lam0)

    def to_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if val is not None:
                doc[f.name] = val.tolist() if isinstance(val, np.ndarray) else val
        return doc


_FIELD_NAMES = frozenset(f.name for f in fields(PdNrmConfig))


_require = functools.partial(_require_document, "pdnrm config")


def _dual_box(instance: Instance, lambda_max) -> np.ndarray:
    """The checked lambda_max of the policy's dual box; None means default_dual_set's."""
    box = default_dual_set(instance) if lambda_max is None else lambda_max
    _require("lambda_max", _is_vector(box, instance.M) and all(0 < x < math.inf for x in box),
             f"a list of {instance.M} finite positive numbers, one per resource", box)
    return np.asarray(box, float)


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


def check_horizon(N: int, T: int) -> None:
    """The one horizon check of both constants formulas (and of the constants command)."""
    if N < 1 or T < 2:
        raise ValueError("need N >= 1 and T >= 2")


def constants_tuned(N: int, T: int, **overrides) -> PdNrmConfig:
    """Hand-tuned constants: n0 = ceil(0.1 N^4 ln^2(NT)); kappa1 = n0^.25;
    kappa5 = (2/3)e-8 (N^5.5 ln^3(NT) + N^4 ln^6(NT)); kappa2 = sqrt(kappa5);
    kappa3 = 8 kappa1 sqrt(N^3 ln(2NT)) + 12 kappa1^2; kappa6 = sqrt(N);
    eta1 = eta2 = mu = 1. Each keyword overrides its field; validate checks them."""
    check_horizon(N, T)
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
    check_horizon(instance.N, T)
    box = _dual_box(instance, patch.get("lambda_max"))
    lam_bar = float(np.linalg.norm(box))   # an l2 bound on the box
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
        lambda_max=box,
    )
    cfg = replace(cfg, **patch)
    cfg.validate(instance)
    return cfg


def config_from_dict(doc: dict, instance: Instance,
                     T: Optional[int] = None) -> PdNrmConfig:
    """Resolve a JSON config document: the tuned formulas at (instance.N, T or
    instance.T), then every other key overrides the field of its name. An
    optional "mode" key can only say "tuned"; a theory document, as printed by
    `nrmlab constants --mode theory`, sets every field."""
    _require_object("a pdnrm config", doc)
    rest = dict(doc)
    mode = rest.pop("mode", "tuned")
    _require("mode", mode == "tuned", "'tuned': a config is the tuned formulas plus field "
             "overrides; for the theory constants pass the output of "
             "`nrmlab constants --mode theory`", mode)
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
    Solved by projections.feasible_point from x = 0, an LP for the point nearest
    p in the max norm; (p, False) when HiGHS proves that no such point exists.
    """
    ps = list(map(float, p))
    A = np.asarray(A)
    root_n = math.sqrt(n)
    radius = kappa1 * n**-0.25
    lo = [_maximum(-radius, price_box[0] - x) for x in ps]
    hi = [_minimum(radius, price_box[1] - x) for x in ps]
    JA = np.asarray(J_hat).T @ A.T  # column j: 2 d<a_j, model>/dx
    band = kappa3 / root_n
    # rows interleaved as C_j x <= ub_j, -C_j x <= -lb_j, C = JA / 2
    h = []
    for g, l, base in zip(np.asarray(gamma).tolist(), np.asarray(lam, float).tolist(),
                          (A @ np.asarray(D_hat)).tolist()):
        lb = g - kappa2 / (min(1.0, l) * root_n) - band - base if l > 0 else -math.inf
        h += (g + band - base, -lb)
    # feasible_point's first test, made without building G: with G finite,
    # G x - h is -h at the clipped start x = +-0; a NaN fails every comparison
    start = [_minimum(_maximum(0.0, a), b) for a, b in zip(lo, hi)]
    if (not any(start) and all(v >= -FEASIBLE_TOL for v in h)
            and math.isfinite(sum(JA.ravel().tolist()))):
        return np.array([x + d for x, d in zip(ps, start)]), True
    G = (0.5 * JA).T.repeat(2, axis=0)
    G[1::2] *= -1.0
    x, ok = feasible_point(G, np.array(h), np.zeros(len(ps)), np.array(lo), np.array(hi))
    return (np.asarray(p, float) + x, True) if ok else (np.array(ps), False)


def _grad_est_gen(instance: Instance, cfg: PdNrmConfig, p: list, lam, n, head=None, hold=False):
    """Generator: yields schedules, receives their rows' average demand,
    returns (GradEstOutput, held row). Consumes exactly n periods. A head row,
    a balanced (price, length) row held by the previous loop, goes first in
    this call's first request, its answer dropped. With hold, this call's
    balanced row is held, not served alone, and returned (None if degraded)."""
    N = instance.N
    m = n // (4 * N)
    # rounding is monotone, so min(p) - price_min is min(p - price_min)
    u = 0.0 if m == 0 else min(math.sqrt(N) / n**0.25,
                               functools.reduce(_minimum, p) - instance.price_min,
                               instance.price_max - functools.reduce(_maximum, p))
    # the 2N two-point probes p + u e_i, p - u e_i (u <= 0: p for n periods)
    # read no feedback until the last one, so they are one schedule
    K, k = (2 * N, m) if u > 0 else (1, n)
    rows = u * _probe_signs(N) + p if u > 0 else np.array([p, p])
    lengths = np.array([k] * (K + 1))
    if head is not None:
        rows[0], lengths[0] = head
    avgs = (yield (rows, lengths) if head is not None else (rows[1:], lengths[1:]))[-K:]
    if u <= 0:
        return GradEstOutput(D_hat=avgs[0], J_hat=np.zeros((N, N)),
                             grad_f=np.zeros(N), tilde_p=np.array(p),
                             balancing_feasible=False, periods_consumed=n,
                             u=0.0, degraded=True), None
    rev, avgs = _dot(rows[1:], avgs).tolist(), avgs.tolist()
    plus, minus = avgs[0::2], avgs[1::2]
    # np.add.reduce sums each column as a fold from its first row
    D_hat = np.array([(functools.reduce(operator.add, a) + functools.reduce(operator.add, b)) / K
                      for a, b in zip(zip(*plus), zip(*minus))])
    J_hat = np.array([[(a - b) / (2 * u) for a, b in zip(*pair)] for pair in zip(plus, minus)]).T
    grad_f = np.array([(a - b) / (2 * u) for a, b in zip(rev[0::2], rev[1::2])])

    tilde_p, feasible = demand_balance(
        D_hat, J_hat, p, lam, n, instance.gamma, instance.A,
        cfg.kappa1, cfg.kappa2, cfg.kappa3, instance.price_box)
    balanced = (tilde_p, n - 2 * N * m)
    if not hold:
        yield balanced
    return GradEstOutput(D_hat=D_hat, J_hat=J_hat, grad_f=grad_f, tilde_p=tilde_p,
                         balancing_feasible=feasible, periods_consumed=n,
                         u=u), balanced if hold else None


def _maximum(a: float, b: float) -> float:
    """np.maximum(a, b) on floats: a NaN wins, and of equal values (0.0, -0.0) b."""
    return a if a > b or a != a else b


def _minimum(a: float, b: float) -> float:
    """np.minimum(a, b) on floats: a NaN wins, and of equal values b."""
    return a if a < b or a != a else b


@functools.lru_cache(maxsize=None)
def _probe_signs(N: int) -> np.ndarray:
    """The (2N + 1, N) probe directions: 0, then e_i and -e_i for each product i."""
    return np.vstack([np.zeros(N), np.kron(np.eye(N), [[1.0], [-1.0]])])


class DemandOracle:
    """Environment handle: the instance's own market without inventory, in its
    noise mode. A schedule's rows get their exact mean demand in one stacked
    evaluation (noise "none"), or one count draw of the market kernel over their
    lengths (noise "multinomial", which needs rng), so a grad_est call costs two
    model evaluations or draws, not n periods."""

    def __init__(self, instance: Instance, rng: Optional[np.random.Generator] = None):
        if instance.noise != "none" and rng is None:
            raise ValueError(f"a market with {instance.noise!r} noise samples: pass an rng")
        self.instance = instance
        self.rng = rng
        self.periods = 0
        self.commits = 0

    def commit(self, prices, lengths):
        """The (K, N) average demand of a schedule's rows."""
        self.periods += int(lengths.sum())
        self.commits += len(lengths)
        inst = self.instance
        if inst.noise == "none":
            return inst.model.mean(prices)
        _, counts, _ = _serve(inst.model, inst.A, prices, lengths, None, self.rng)
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
    return _drive(_grad_est_gen(instance, cfg, np.asarray(p, float).tolist(), lam, n), env)[0]


def prox_dual_step(lam_s, grad_h, mu, eta2, lambda_max) -> np.ndarray:
    """Exact minimizer over the box of
    <grad_h, lam> + (mu/2)||lam||^2 + (1/(2 eta2))||lam - lam_s||^2.

    With grad_h = grad_q - mu lam_s, as the policy passes it, the shrinkage
    cancels and this is the projected step
    clip(lam_s - eta2/(1 + mu eta2) grad_q, 0, lambda_max)."""
    lam_s, grad_h, lam_max = (np.asarray(a, float).tolist() for a in (lam_s, grad_h, lambda_max))
    return np.array([_minimum(_maximum((x - eta2 * g) / (1.0 + mu * eta2), 0.0), b)
                     for x, g, b in zip(lam_s, grad_h, lam_max)])


def _primal_gen(instance: Instance, cfg: PdNrmConfig, lam, loops, p_start,
                events: Optional[list] = None, pending=None):
    """One PrimalOpt run over an epoch's (s, tau, n_tau, end) loops, after a pending
    row held before them; a loop that ends by instance.T holds its balanced row.
    Returns (p_hat, D_hat, p_next, pending): the final loop's price, whose estimate
    feeds the dual update, the post-update iterate for warm starts and its held row."""
    P_lo, P_hi = _inner_box(instance, cfg)
    lam = np.asarray(lam, float)
    At_lam = instance.A.T @ lam
    p = np.asarray(p_start, float).tolist()
    for s, tau, n_tau, end in loops:
        est, pending = yield from _grad_est_gen(instance, cfg, p, lam, n_tau, pending,
                                                end <= instance.T)
        raw = [x + cfg.eta1 * (g - v) for x, g, v in
               zip(p, est.grad_f.tolist(), (est.J_hat.T @ At_lam).tolist())]
        p_hat, p = p, [_minimum(_maximum(r, P_lo), P_hi) for r in raw]
        if events is not None:
            events.append({
                "kind": "loop", "s": s, "tau": tau, "n_tau": n_tau,
                "lambda": lam.tolist(), "p": p_hat, "u": est.u,
                "tilde_p": est.tilde_p.tolist(),
                "balancing_feasible": bool(est.balancing_feasible),
                "degraded": bool(est.degraded),
                "clipped": any(r != q for r, q in zip(raw, p)),
            })
    return np.array(p_hat), est.D_hat, np.array(p), pending


def primal_opt(env, instance: Instance, cfg: PdNrmConfig, lam, eps_bar,
               p_start=None, events: Optional[list] = None):
    """Standalone PrimalOpt against an environment handle, logged as epoch 0,
    each balanced row served alone; returns (p_hat, D_hat)."""
    if p_start is None:
        p_start = _initial_price(instance, cfg)
    loops = ((0, tau, n_tau, math.inf) for tau, n_tau in enumerate(_loop_lengths(cfg, eps_bar)))
    return _drive(_primal_gen(instance, cfg, lam, loops, p_start, events), env)[:2]


def _loop_lengths(cfg: PdNrmConfig, eps_bar: float):
    """n_tau = ceil(min(contraction^(-2 tau), 2^62) n0), tau = 0, 1, ... up to the first
    over kappa5 / eps_bar^2; a capped growth is not raised again, as that would overflow."""
    threshold = cfg.kappa5 / eps_bar**2 if eps_bar > 0 else math.inf
    grow = 0.0
    for tau in itertools.count():
        grow = grow if grow == 2.0**62 else min(cfg.contraction ** (-2 * tau), 2.0**62)
        n_tau = int(math.ceil(grow * cfg.n0))
        yield n_tau
        if n_tau > threshold:
            return


def _eps_bar(cfg: PdNrmConfig, s: int) -> float:
    """Epoch s's target accuracy, kappa6 (1 + mu eta2)^(-s/2)."""
    return cfg.kappa6 * (1.0 + cfg.mu * cfg.eta2) ** (-s / 2.0)


def loop_skeleton(cfg: PdNrmConfig):
    """Lazily, (epoch s, tau, n_tau, end) for every loop of an episode in order,
    end being the periods served by the loop's end. The config alone sets it:
    an episode of horizon T logs the loops with end <= T."""
    end = 0
    for s in itertools.count():
        for tau, n_tau in enumerate(_loop_lengths(cfg, _eps_bar(cfg, s))):
            end += n_tau
            yield s, tau, n_tau, end


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
        self.lambda_max = _dual_box(instance, config.lambda_max)
        self.events: list = []
        super().__init__()

    def _driver(self):
        instance, cfg = self.instance, self.config
        lam = np.zeros(instance.M) if cfg.lambda0 is None else np.array(cfg.lambda0, float)
        p_warm = _initial_price(instance, cfg)
        pending = None   # the held balanced row, carried across loops and epochs
        for s, loops in itertools.groupby(loop_skeleton(cfg), operator.itemgetter(0)):
            self.events.append({
                "kind": "epoch", "s": s, "lambda": lam.tolist(), "eps_bar": _eps_bar(cfg, s),
            })
            start = p_warm if cfg.warm_start else _initial_price(instance, cfg)
            p_hat, D_hat, p_warm, pending = yield from _primal_gen(
                instance, cfg, lam, loops, start, self.events, pending)
            grad_q = instance.gamma - instance.A @ D_hat
            lam = prox_dual_step(lam, grad_q - cfg.mu * lam, cfg.mu, cfg.eta2,
                                 self.lambda_max)
            self.events.append({
                "kind": "dual", "s": s, "grad_q": grad_q.tolist(), "lambda_next": lam.tolist(),
            })


def epoch_count_bound(cfg: PdNrmConfig, T: int) -> float:
    """Dual updates never exceed 2 ln(T)/(mu eta2) + 1."""
    return 2.0 * math.log(T) / (cfg.mu * cfg.eta2) + 1.0
