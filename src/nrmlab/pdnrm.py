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
one at a time.

The loop's float rule: elementwise arithmetic is on Python floats, which round
as numpy rounds it, and every matrix product stays numpy's, whose BLAS
rounding is the contract: the probes' revenues (demand._dot), A D_hat, J_hat^T
(A^T lam) and, per epoch, A^T lam. So a loop makes arrays only for its
schedule, its probe answers and those products; the rest are lists and floats.
What no loop or epoch changes is derived once per run (_constants), and what
a loop's length alone sets once per length: its probe offset's cap, the probe
directions scaled by it and a schedule's lengths (memos in _constants), and
the length itself, the same in every epoch (loop_skeleton)."""

import functools
import itertools
import math
import operator
import numpy as np
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

from .instance import Instance, _is_integral, _is_number, _read
from .instance import _require as _require_document
from .fluid import default_dual_set
from .projections import FEASIBLE_TOL, feasible_point
from .demand import _dot
from .sim import CommitPolicy, _as_schedule, _averages, _serve

@dataclass
class PdNrmConfig:
    """Learning constants, built by constants_tuned or constants_theory.
    kappa2 = sqrt(kappa5) is derived, not stored; the boxes come from the instance."""

    n0: int
    kappa1: float
    kappa3: float
    kappa5: float
    kappa6: float
    eta1: float
    eta2: float
    mu: float
    contraction: float = 0.5
    primal_init: str = "low"          # "low" | "center"
    p_margin = 0.05   # not a field: _inner_box's share; perfbench reads it (ROADMAP 1a)

    @property
    def kappa2(self) -> float:
        return math.sqrt(self.kappa5)

    def validate(self, instance: Instance) -> None:
        """The one check of every field, against the instance's N and M."""
        N = instance.N
        _require("n0", _is_integral(self.n0) and self.n0 >= 4 * N,
                 f"an integer of at least 4N = {4 * N}", self.n0)
        for name in ("kappa1", "kappa3", "kappa5", "kappa6", "eta1", "eta2", "mu"):
            val = getattr(self, name)
            _require(name, _is_number(val) and 0 < val < math.inf, "a finite positive number", val)
        c, init = self.contraction, self.primal_init
        _require("contraction", _is_number(c) and 0 < c < 1, "a number in (0, 1)", c)
        _require("primal_init", isinstance(init, str) and init in ("low", "center"),
                 "'low' or 'center'", init)
        _dual_box(instance)

    def to_dict(self) -> dict:
        return asdict(self)


_FIELD_NAMES = frozenset(f.name for f in fields(PdNrmConfig))


_require = functools.partial(_require_document, "pdnrm config")


def _dual_box(instance: Instance) -> np.ndarray:
    """default_dual_set's lambda_max, after the one check of the instance: the dual box
    is positive and the inner price box is strictly inside the price box in floats."""
    box, (P_lo, P_hi) = default_dual_set(instance), _inner_box(instance)
    _require_document("instance", "price_max", all(0 < x < math.inf for x in box.tolist())
                      and instance.price_min < P_lo and P_hi < instance.price_max,
                      "positive and far enough above price_min for pdnrm's dual box [0, "
                      f"price_max / gamma] and its inner price box, {PdNrmConfig.p_margin:.0%} "
                      "in from each edge in floats", instance.price_max)
    return box


def check_horizon(N: int, T: int) -> None:
    """The one horizon check of both constants formulas."""
    if N < 1 or T < 2:
        raise ValueError("need N >= 1 and T >= 2")


def constants_tuned(N: int, T: int) -> PdNrmConfig:
    """Hand-tuned constants: n0 = ceil(0.1 N^4 ln^2(NT)); kappa1 = n0^.25;
    kappa5 = (2/3)e-8 (N^5.5 ln^3(NT) + N^4 ln^6(NT)); kappa2 = sqrt(kappa5);
    kappa3 = 8 kappa1 sqrt(N^3 ln(2NT)) + 12 kappa1^2; kappa6 = sqrt(N);
    eta1 = eta2 = mu = 1. The formulas only: a document overrides them through
    config_from_dict."""
    check_horizon(N, T)
    ln_nt = math.log(N * T)
    ln_2nt = math.log(2 * N * T)
    n0 = max(int(math.ceil(0.1 * N**4 * ln_nt**2)), 4 * N)
    kappa1 = n0**0.25
    return PdNrmConfig(
        n0=n0,
        kappa1=kappa1,
        kappa3=8.0 * kappa1 * math.sqrt(N**3 * ln_2nt) + 12.0 * kappa1**2,
        kappa5=(2.0 / 3.0) * 1e-8 * (N**5.5 * ln_nt**3 + N**4 * ln_nt**6),
        kappa6=math.sqrt(N),
        eta1=1.0,
        eta2=1.0,
        mu=1.0,
    )


def constants_theory(instance: Instance, regularity, T: int) -> PdNrmConfig:
    """Constants from the convergence analysis, with grid-estimated regularity
    bounds. Faithful but impractical (n0 may exceed T). The instance sets the
    analysis' problem constants: the dual box's l2 bound lam_bar and the inner
    price box's margin rho_lo and diameter rho_bar."""
    check_horizon(instance.N, T)
    lam_bar = float(np.linalg.norm(_dual_box(instance)))
    width = instance.price_max - instance.price_min
    rho_lo = PdNrmConfig.p_margin * width
    cfg = _theory(instance.N, regularity, T, lam_bar, rho_lo,
                  math.sqrt(instance.N) * (width - 2 * rho_lo))
    cfg.validate(instance)
    return cfg


def _theory(N: int, reg, T: int, lam_bar: float, rho_lo: float, rho_bar: float) -> PdNrmConfig:
    """The analysis' formulas, unchecked, at N products and horizon T for a dual box of
    l2 bound lam_bar and an inner price box of margin rho_lo and diameter rho_bar."""
    # the analysis never bounds ||J_D|| separately, and one purchase per
    # period bounds the demand: B_J = B_D and d_bar = 1
    B_J = reg.B_D
    d_bar = 1.0
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
    return PdNrmConfig(
        n0=n0,
        kappa1=kappa1,
        kappa3=kappa3,
        kappa5=kappa5,
        kappa6=kappa6,
        eta1=eta1,
        eta2=eta2,
        mu=mu,
        contraction=contraction,
    )


def config_from_dict(doc: dict, instance: Instance,
                     T: Optional[int] = None) -> PdNrmConfig:
    """Resolve a JSON config document, the one way to override the tuned formulas:
    the key rule refuses an unknown key, an integral n0 becomes an int, then each
    key replaces its field of constants_tuned(instance.N, T or instance.T) and
    validate checks the result. A theory document, as printed by `nrmlab constants
    --mode theory`, sets every field."""
    _read("pdnrm config", doc, (), _FIELD_NAMES)
    if _is_integral(doc.get("n0")):
        doc = {**doc, "n0": int(doc["n0"])}
    cfg = replace(constants_tuned(instance.N, instance.T if T is None else T), **doc)
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
    The start x = 0 is decided first, by _start_passes, from A D_hat and floats
    alone; only a start that fails builds J_hat^T A^T, the box and the LP. The
    price comes back as a list of floats. The vectors may be arrays or lists;
    lam and gamma given as lists of floats are used as they are.
    """
    A, J_hat = np.asarray(A), np.asarray(J_hat)
    root_n = math.sqrt(n)
    band = kappa3 / root_n
    # rows interleaved as C_j x <= ub_j, -C_j x <= -lb_j, C = J_hat^T A^T / 2: h
    # holds ub_j - <a_j, D_hat> and -(lb_j - <a_j, D_hat>) for each resource j
    h = []
    for g, l, base in zip(_floats(gamma), _floats(lam), (A @ D_hat).tolist()):
        h += (g + band - base,
              -(g - kappa2 / (min(1.0, l) * root_n) - band - base) if l > 0 else math.inf)
    ps, radius = _floats(p), kappa1 * n**-0.25
    if _start_passes(ps, h, radius, price_box, J_hat, A):
        return [x + 0.0 for x in ps], True
    ps = list(map(float, ps))
    lo = [_maximum(-radius, price_box[0] - x) for x in ps]
    hi = [_minimum(radius, price_box[1] - x) for x in ps]
    G = (0.5 * (J_hat.T @ A.T)).T.repeat(2, axis=0)
    G[1::2] *= -1.0
    x, ok = feasible_point(G, np.array(h), np.zeros(len(ps)), np.array(lo), np.array(hi))
    return ([a + d for a, d in zip(ps, x.tolist())], True) if ok else (ps, False)


def _start_passes(ps: list, h: list, radius: float, price_box, J_hat: np.ndarray,
                  A: np.ndarray) -> bool:
    """Whether demand_balance's start x = 0 is its answer: x = 0 is in the box
    when the radius is >= 0 and p in the price box, and G x - h is -h there
    when G = J_hat^T A^T / 2 is finite, which sum|J_hat| sum|A| < 2^1000 shows;
    min and max pass over a NaN, which the sums keep."""
    return (radius >= 0 and price_box[0] <= min(ps) and max(ps) <= price_box[1]
            and min(h) >= -FEASIBLE_TOL and not math.isnan(sum(ps) + sum(h))
            and sum(map(abs, J_hat.ravel("K").tolist()))
            * sum(map(abs, A.ravel("K").tolist())) < 2.0**1000)


def _floats(v) -> list:
    """A vector as a list of floats; a list is taken to be one."""
    return v if type(v) is list else np.asarray(v, float).tolist()


def _constants(instance: Instance, cfg: PdNrmConfig) -> tuple:
    """What no loop or epoch of a run changes, derived once: (N, price_min,
    price_max, sqrt(N), the (2N + 1, N) probe directions 0, e_i and -e_i,
    demand_balance's arguments after n, the inner box's edges, A^T, eta1, T,
    and two memos that the run fills: per loop length n, (n // 4N, the probe
    offset's cap sqrt(N) n^(-1/4), the cap times the directions), and per
    (held row's length, n // 4N), a schedule's read-only lengths)."""
    N = instance.N
    return (N, instance.price_min, instance.price_max, math.sqrt(N),
            np.vstack([np.zeros(N), np.kron(np.eye(N), [[1.0], [-1.0]])]),
            (instance.gamma.tolist(), instance.A, cfg.kappa1, cfg.kappa2, cfg.kappa3,
             instance.price_box), *_inner_box(instance), instance.A.T, cfg.eta1, instance.T,
            {}, {})


def _probe_constants(memo: dict, n: int, K: int, root_N: float, signs: np.ndarray) -> tuple:
    """memo[n], derived on its first use: (m = n // 2K, root_N n^(-1/4), root_N
    n^(-1/4) signs); a budget below 2K refused."""
    m = n // (2 * K)
    if m < 1:
        raise ValueError(f"grad_est needs n >= 4N = {2 * K}, not n = {n}")
    cap = root_N / n**0.25
    memo[n] = m, cap, cap * signs
    return memo[n]


def _probe_lengths(memo: dict, held: int, m: int, K: int) -> np.ndarray:
    """memo[held, m], made on its first use: a schedule's lengths, the held
    row's first if held, then m for each of the K probes, read-only, so that
    every request of a run with them can share the array."""
    lengths = memo[held, m] = np.array(([held] if held else []) + [m] * K)
    lengths.flags.writeable = False
    return lengths


def _maximum(a: float, b: float) -> float:
    """np.maximum(a, b) on floats: a NaN wins, and of equal values (0.0, -0.0) b."""
    return a if a > b or a != a else b


def _minimum(a: float, b: float) -> float:
    """np.minimum(a, b) on floats: a NaN wins, and of equal values b."""
    return a if a < b or a != a else b


class DemandOracle:
    """Environment handle: the instance's own market without inventory, in its
    noise mode. One call of the market kernel serves a schedule's rows, and
    each row gets the answer run_episode gives it, bit for bit: its exact mean
    demand, below zero counting as none (noise "none"), or its count draw over
    its length (noise "multinomial", which needs rng). So a grad_est call
    costs two model evaluations or draws, not n periods."""

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
        inst, noiseless = self.instance, self.instance.noise == "none"
        _, demand, _ = _serve(inst.model, inst.A, prices, lengths, None, self.rng, noiseless)
        return _averages(demand, lengths, noiseless)


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
    """Run the estimation-and-balancing routine, one loop of n periods whose
    balanced row is served alone, against an environment handle with a
    commit(prices (K, N), lengths (K,)) -> (K, N) average-demand method."""
    _, D_hat, _, _, (J_hat, grad_f, tilde_p, feasible, u) = _drive(
        _primal_gen(instance, cfg, lam, ((0, 0, n, math.inf),), p), env)
    return GradEstOutput(D_hat=np.array(D_hat), J_hat=J_hat, grad_f=np.array(grad_f),
                         tilde_p=np.array(tilde_p), balancing_feasible=feasible,
                         periods_consumed=n, u=u)


def prox_dual_step(lam_s, grad_h, mu, eta2, lambda_max) -> np.ndarray:
    """Exact minimizer over the box of
    <grad_h, lam> + (mu/2)||lam||^2 + (1/(2 eta2))||lam - lam_s||^2.

    With grad_h = grad_q - mu lam_s, as the policy passes it, the shrinkage
    cancels and this is the projected step
    clip(lam_s - eta2/(1 + mu eta2) grad_q, 0, lambda_max)."""
    return np.array(_dual_step(_floats(lam_s), _floats(grad_h), mu, eta2, _floats(lambda_max)))


def _dual_step(lam_s: list, grad_h: list, mu, eta2, lam_max: list) -> list:
    """prox_dual_step on lists of floats."""
    return [_minimum(_maximum((x - eta2 * g) / (1.0 + mu * eta2), 0.0), b)
            for x, g, b in zip(lam_s, grad_h, lam_max)]


def _primal_gen(instance: Instance, cfg: PdNrmConfig, lam, loops, p_start,
                events: Optional[list] = None, pending=None, const=None):
    """Generator: one PrimalOpt run over an epoch's (s, tau, n_tau, end) loops,
    after a pending (price, length) row held before them. A loop of n periods
    posts the 2N two-point probes p + u e_i, p - u e_i for n // 4N periods
    each; they read no feedback until the last one, so they are one schedule,
    after the held row, whose answer goes unread. Their average demand gives
    D_hat, J_hat and grad_f, then demand_balance's price for the loop's other
    periods: held for the next schedule if the loop ends by instance.T, else
    served alone. Then the primal step. Returns (p_hat, D_hat, p_next, pending,
    (J_hat, grad_f, tilde_p, feasible, u)): the final loop's price, whose
    estimate feeds the dual update, the post-update iterate (the next epoch's
    start), the held row and the rest of the final loop's estimate; J_hat is
    an array, the vectors lists. const is _constants(instance, cfg), passed by
    a caller that runs several epochs. It raises ValueError at n < 4N or a p
    not strictly inside the price box: no valid config's loop has one."""
    (N, p_min, p_max, root_N, signs, fixed, P_lo, P_hi, At, eta1, T, per_n,
     per_lengths) = const or _constants(instance, cfg)
    K = 2 * N
    P_low = _minimum(P_lo, P_hi)   # np.minimum(np.maximum(r, P_lo), P_hi) at r <= P_lo
    lam = _floats(lam)
    At_lam = At @ lam
    p = _floats(p_start)
    for s, tau, n_tau, end in loops:
        m, cap, steps = per_n.get(n_tau) or _probe_constants(per_n, n_tau, K, root_N, signs)
        # rounding is monotone, so min(p) - price_min is min(p - price_min); a NaN in p,
        # which min and max can pass over, makes the sum NaN
        u = min(min(p) - p_min, p_max - max(p), cap)
        if not u > 0 or math.isnan(sum(p)):
            raise ValueError(f"grad_est needs p strictly inside the price box, not p = {p}")
        rows = (steps if u == cap else u * signs) + p   # row 0 is p, for the held row
        held = 0 if pending is None else pending[1]
        lengths = per_lengths.get((held, m))
        if lengths is None:
            lengths = _probe_lengths(per_lengths, held, m, K)
        if held:
            rows[0] = pending[0]
        else:
            rows = rows[1:]
        avgs = yield rows, lengths
        rev, avgs = _dot(rows, avgs).tolist(), avgs.tolist()
        h, two_u = len(avgs) - K, 2 * u   # h = 1 after a held row
        plus, minus = avgs[h::2], avgs[h + 1::2]
        # np.add.reduce sums each column as a fold from its first row
        D_hat = [(functools.reduce(operator.add, a) + functools.reduce(operator.add, b)) / K
                 for a, b in zip(zip(*plus), zip(*minus))]
        J_T = np.array([(a - b) / two_u for pm in zip(plus, minus)
                        for a, b in zip(*pm)]).reshape(N, N)   # J_hat^T, C-ordered
        grad_f = [(a - b) / two_u for a, b in zip(rev[h::2], rev[h + 1::2])]
        tilde_p, feasible = demand_balance(D_hat, J_T.T, p, lam, n_tau, *fixed)
        pending = (tilde_p, n_tau - K * m)
        if end > T:
            yield pending
            pending = None
        raw = [x + eta1 * (g - v) for x, g, v in zip(p, grad_f, (J_T @ At_lam).tolist())]
        p_hat, p = p, [P_low if r <= P_lo else P_hi if r >= P_hi else r for r in raw]
        if events is not None:
            events.append({
                "kind": "loop", "s": s, "tau": tau, "n_tau": n_tau,
                "lambda": lam, "p": p_hat, "u": u, "tilde_p": tilde_p,
                "balancing_feasible": bool(feasible),
                "degraded": False,   # every loop probes; perfbench reads it (ROADMAP 1a)
                "clipped": raw != p,
            })
    return p_hat, D_hat, p, pending, (J_T.T, grad_f, tilde_p, feasible, u)


def primal_opt(env, instance: Instance, cfg: PdNrmConfig, lam, eps_bar,
               events: Optional[list] = None):
    """Standalone PrimalOpt from the initial price against an environment handle,
    logged as epoch 0, each balanced row served alone; returns (p_hat, D_hat)."""
    loops = ((0, tau, n_tau, math.inf) for tau, n_tau in enumerate(_loop_lengths(cfg, eps_bar)))
    start = _initial_price(instance, cfg)
    p_hat, D_hat = _drive(_primal_gen(instance, cfg, lam, loops, start, events), env)[:2]
    return np.array(p_hat), np.array(D_hat)


def _loop_lengths(cfg: PdNrmConfig, eps_bar: float):
    """n_tau = ceil(min(contraction^(-2 tau), 2^62) n0), tau = 0, 1, ... up to the first
    over kappa5 / eps_bar^2; a capped growth is not raised again, as that would overflow."""
    threshold = _threshold(cfg, eps_bar)
    grow = 0.0
    for tau in itertools.count():
        grow = grow if grow == 2.0**62 else min(cfg.contraction ** (-2 * tau), 2.0**62)
        n_tau = int(math.ceil(grow * cfg.n0))
        yield n_tau
        if n_tau > threshold:
            return


def _threshold(cfg: PdNrmConfig, eps_bar: float) -> float:
    """kappa5 / eps_bar^2, the loop length past which an epoch of target accuracy
    eps_bar ends; no end at eps_bar = 0."""
    return cfg.kappa5 / eps_bar**2 if eps_bar > 0 else math.inf


def _eps_bar(cfg: PdNrmConfig, s: int) -> float:
    """Epoch s's target accuracy, kappa6 (1 + mu eta2)^(-s/2)."""
    return cfg.kappa6 * (1.0 + cfg.mu * cfg.eta2) ** (-s / 2.0)


def loop_skeleton(cfg: PdNrmConfig):
    """Lazily, (epoch s, tau, n_tau, end) for every loop of an episode in order,
    end being the periods served by the loop's end. The config alone sets it:
    an episode of horizon T logs the loops with end <= T. Every epoch's loop
    lengths start the same sequence, each cut at its own threshold, so each
    length is derived once."""
    lengths, grow, end = [], _loop_lengths(cfg, 0.0), 0
    for s in itertools.count():
        threshold = _threshold(cfg, _eps_bar(cfg, s))
        for tau in itertools.count():
            if tau == len(lengths):
                lengths.append(next(grow))
            n_tau = lengths[tau]
            end += n_tau
            yield s, tau, n_tau, end
            if n_tau > threshold:
                break


def _epochs(cfg: PdNrmConfig, T: int):
    """loop_skeleton's loops as one list per epoch, up to the first loop that
    ends after T: an episode of horizon T posts no request after it."""
    loops = []
    for loop in loop_skeleton(cfg):
        if loops and not loop[1]:
            yield loops
            loops = []
        loops.append(loop)
        if loop[3] > T:
            break
    yield loops


def _inner_box(instance: Instance):
    margin = PdNrmConfig.p_margin * (instance.price_max - instance.price_min)
    return instance.price_min + margin, instance.price_max - margin


def _initial_price(instance: Instance, cfg: PdNrmConfig) -> np.ndarray:
    P_lo, P_hi = _inner_box(instance)
    return np.full(instance.N, 0.5 * (P_lo + P_hi) if cfg.primal_init == "center" else P_lo)


class PdNrmPolicy(CommitPolicy):
    """The full primal-dual policy as a simulator policy."""

    name = "pdnrm"

    def __init__(self, instance: Instance, config: Optional[PdNrmConfig] = None):
        if config is None:
            config = constants_tuned(instance.N, instance.T)
        config.validate(instance)   # checks the instance's boxes too
        self.instance = instance
        self.config = config
        self.lambda_max = default_dual_set(instance)
        self.events: list = []
        super().__init__()

    def _driver(self):
        instance, cfg = self.instance, self.config
        const, A, gamma = _constants(instance, cfg), instance.A, instance.gamma.tolist()
        mu, eta2, lam_max = cfg.mu, cfg.eta2, self.lambda_max.tolist()
        lam = [0.0] * instance.M
        p = _initial_price(instance, cfg)   # each epoch starts where the last one ended
        pending = None   # the held balanced row, carried across loops and epochs
        for loops in _epochs(cfg, instance.T):
            s = loops[0][0]
            self.events.append({"kind": "epoch", "s": s, "lambda": lam,
                                "eps_bar": _eps_bar(cfg, s)})
            _, D_hat, p, pending, _ = yield from _primal_gen(
                instance, cfg, lam, loops, p, self.events, pending, const)
            grad_q = [g - x for g, x in zip(gamma, (A @ D_hat).tolist())]
            lam = _dual_step(lam, [g - mu * x for g, x in zip(grad_q, lam)], mu, eta2, lam_max)
            self.events.append({"kind": "dual", "s": s, "grad_q": grad_q, "lambda_next": lam})


def epoch_count_bound(cfg: PdNrmConfig, T: int) -> float:
    """Dual updates never exceed 2 ln(T)/(mu eta2) + 1."""
    return 2.0 * math.log(T) / (cfg.mu * cfg.eta2) + 1.0
