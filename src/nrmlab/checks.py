"""Fast invariant suite behind the `check` CLI subcommand.

Each check returns (name, ok, detail); the suite is a smoke screen over the
module contracts, sized to run in seconds. The pytest suite is the full gate.
"""

import dataclasses
import math
import numpy as np

from .instance import Instance
from .fluid import solve_fluid, dual_Q, grad_Q, lagrangian_L, lagrangian_H, default_dual_set
from .sim import run_episode, Policy
from .pdnrm import (DemandOracle, PdNrmPolicy, config_from_dict, epoch_count_bound, grad_est,
                    loop_skeleton, prox_dual_step)


class _RecordingPolicy(Policy):
    """Posts a fixed price; verifies the simulator only feeds past data in order."""

    name = "recording"

    def __init__(self, price):
        self.price = np.asarray(price, float)
        self.queries = []
        self.observations = []
        self.ordered = True

    def next_price(self, period):
        if self.observations and self.observations[-1][0] >= period:
            self.ordered = False
        self.queries.append(period)
        return self.price

    def observe(self, period, y):
        if not self.queries or self.queries[-1] != period:
            self.ordered = False
        self.observations.append((period, np.array(y)))


def run_checks(instance: Instance) -> list:
    rng = np.random.default_rng(20240715)
    model = instance.model
    p_lo, p_hi = instance.price_box
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    # demand: inverse round trip
    P = p_lo + (p_hi - p_lo) * rng.random((100, instance.N))
    back = model.inverse(model.mean(P))
    worst = float(np.max(np.abs(back - P) / np.maximum(np.abs(P), 1e-12)))
    check("demand.round_trip", worst <= 1e-8, f"max rel err {worst:.2e}")

    # demand: analytic Jacobian vs central differences
    h = 1e-5
    P = (p_lo + h) + (p_hi - p_lo - 2 * h) * rng.random((100, instance.N))
    J = model.jacobian(P)
    J_fd = np.empty_like(J)
    for i in range(instance.N):
        e = np.zeros(instance.N)
        e[i] = h
        J_fd[:, :, i] = (model.mean(P + e) - model.mean(P - e)) / (2 * h)
    worst = float(np.max(np.abs(J - J_fd).max(axis=(1, 2))
                         / np.maximum(np.abs(J).max(axis=(1, 2)), 1e-12)))
    check("demand.jacobian_fd", worst <= 1e-5, f"max rel err {worst:.2e}")

    # demand: own-price monotonicity
    P = p_lo + (p_hi - p_lo) * rng.random((50, instance.N))
    check("demand.monotone", np.all(np.diagonal(model.jacobian(P), axis1=1, axis2=2) < 0))

    # demand: a sampled market's counts are unbiased over valid category probabilities
    if instance.noise == "none":
        check("demand.sampler_unbiased", True, "noiseless: exact means, nothing sampled")
    else:
        p = p_lo + (p_hi - p_lo) * rng.random(instance.N)
        probs = model.mean(p)
        ok = bool(np.all(probs >= 0) and probs.sum() <= 1.0)
        n = 200_000
        freq = DemandOracle(instance, rng).commit(p[None], np.array([n]))[0]
        se = np.sqrt(probs * (1 - probs) / n)
        ok = ok and bool(np.all(np.abs(freq - probs) <= 6 * se + 1e-12))
        check("demand.sampler_unbiased", ok)

    # fluid: weak duality + H/L consistency (solve_fluid raises on a failed certificate)
    sol = solve_fluid(instance)
    box = default_dual_set(instance)
    ok = True
    for _ in range(5):
        lam = rng.random(instance.M) * box
        if dual_Q(instance, lam) < sol.value - 1e-6:
            ok = False
    check("fluid.weak_duality", ok)
    ok = True
    for _ in range(20):
        p = p_lo + (p_hi - p_lo) * rng.random(instance.N)
        lam = rng.random(instance.M) * box
        L = lagrangian_L(instance, lam, p)
        H = lagrangian_H(instance, lam, model.mean(p))
        if abs(L - H) > 1e-9 * max(1.0, abs(L)):
            ok = False
    check("fluid.H_matches_L", ok)
    lam = sol.lambda_star + 0.1
    g = grad_Q(instance, lam)
    h = 1e-5
    g_fd = np.empty_like(g)
    for j in range(instance.M):
        e = np.zeros(instance.M)
        e[j] = h
        g_fd[j] = (dual_Q(instance, lam + e) - dual_Q(instance, lam - e)) / (2 * h)
    rel = float(np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-8))
    check("fluid.grad_q_fd", rel <= 1e-4, f"rel err {rel:.2e}")

    # simulator: determinism, inventory, shutoff, accounting, admissibility
    small = instance.with_horizon(2000)
    pol_a = _RecordingPolicy(sol.p_star)
    tr_a = run_episode(small, pol_a, seed=7, record_periods=True)
    pol_b = _RecordingPolicy(sol.p_star)
    tr_b = run_episode(small, pol_b, seed=7, record_periods=True)
    check("sim.deterministic", tr_a.fingerprint == tr_b.fingerprint
          and tr_a.total_revenue == tr_b.total_revenue)
    check("sim.inventory_nonnegative", tr_a.inventory_ok,
          f"min inventory {min(tr_a.final_inventory.tolist()):.3e}")
    # Starve the resource the fewest products use: the first purchase of one
    # that uses it shuts the market while the others could still sell.
    j = int(np.argmin((instance.A > 0).sum(axis=1)))
    gamma = np.full(instance.M, float(instance.A.sum()))
    gamma[j] = 0.5 * instance.A[j][instance.A[j] > 0].min() / small.T
    tr_s = run_episode(dataclasses.replace(small, gamma=gamma),
                       _RecordingPolicy(np.full(instance.N, p_lo)), seed=7, record_periods=True)
    check("sim.shutoff_permanent", tr_s.shutoff_period is not None
          and not tr_s.periods["demand"][tr_s.shutoff_period:].any()
          and np.isnan(tr_s.periods["price"][tr_s.shutoff_period:]).all(),
          f"shutoff at {tr_s.shutoff_period}")
    # a loop of 1-D dots on purpose: a noiseless ledger sums the stacked _dot, and
    # only here, on the user's own numpy build, does anything check that both round
    # alike (the pytest suite's TestBroadcast checks it where the suite runs)
    per = tr_a.periods
    terms = []
    for t in range(per["price"].shape[0]):
        pr = per["price"][t]
        terms.append(float(pr @ per["demand"][t]) if np.all(np.isfinite(pr)) else 0.0)
    recomputed = math.fsum(terms)
    check("sim.revenue_accounting", recomputed == tr_a.total_revenue,
          f"recomputed {recomputed!r} vs {tr_a.total_revenue!r}")
    observed = small.T if tr_a.shutoff_period is None else tr_a.shutoff_period - 1
    check("sim.admissible", pol_a.ordered and len(pol_a.observations) == observed)

    # pdnrm: prox closed form and a short stochastic run
    out = prox_dual_step(np.array([1.0, 1.0]), np.zeros(2), 1.0, 1.0, np.array([10.0, 10.0]))
    check("pdnrm.prox", np.allclose(out, [0.5, 0.5]))
    # kappa3 = 1 narrows the band kappa3/sqrt(n) until balancing binds; at the
    # tuned kappa3 the start x = 0 passes every loop and no price moves
    cfg = config_from_dict({"kappa3": 1.0}, instance, 20_000)
    pol = PdNrmPolicy(instance.with_horizon(20_000), cfg)
    trace = run_episode(instance.with_horizon(20_000), pol, seed=11)
    # the episode logs the loops that end by T and whose estimation rows (the first
    # 2N floor(n_tau / 4N) periods) end before the shutoff, and the epochs up to
    # that of the first loop not logged
    N, shutoff = instance.N, trace.shutoff_period or math.inf
    loops = []
    for s, tau, n_tau, end in loop_skeleton(cfg):
        if end > 20_000 or end - n_tau + 2 * N * (n_tau // (4 * N)) >= shutoff:
            break
        loops.append((s, tau, n_tau))
    logged = [(e["s"], e["tau"], e["n_tau"]) for e in trace.events if e["kind"] == "loop"]
    epochs = [e["s"] for e in trace.events if e["kind"] == "epoch"]
    bound = epoch_count_bound(cfg, 20_000)
    check("pdnrm.epoch_bound", logged == loops and epochs == list(range(s + 1))
          and 0 < s + 1 <= bound, f"{len(epochs)} epochs and {len(logged)} loops logged, "
          f"{s + 1} and {len(loops)} expected, bound {bound:.1f}")
    loop_events = [e for e in trace.events if e["kind"] == "loop"]
    moved = [e for e in loop_events if e["balancing_feasible"] and e["tilde_p"] != e["p"]]
    empty = sum(not e["balancing_feasible"] for e in loop_events)
    far = sum(max(abs(a - b) for a, b in zip(e["tilde_p"], e["p"]))
              > cfg.kappa1 * e["n_tau"] ** -0.25 + 1e-12 for e in moved)
    # each loop's verdict, remade by grad_est at the loop's price, dual and n on the
    # instance's market, holds apart from demand_balance: a balanced x = tilde_p - p
    # meets the band within the box, and an empty set has no such x, the least band
    # violation over the box (an LP) being positive
    from scipy.optimize import linprog   # deferred: `import nrmlab` stays scipy-free
    inst, wrong = pol.instance, 0
    oracle = DemandOracle(inst, rng)
    for e in loop_events:
        p, lam, n = np.array(e["p"]), e["lambda"], e["n_tau"]
        out = grad_est(oracle, inst, cfg, p, lam, n)
        band, radius = cfg.kappa3 / math.sqrt(n), cfg.kappa1 * n**-0.25
        lo, hi = np.maximum(-radius, p_lo - p), np.minimum(radius, p_hi - p)
        floor = [g - cfg.kappa2 / (min(1.0, y) * math.sqrt(n)) - band if y > 0 else -math.inf
                 for g, y in zip(inst.gamma, lam)]
        use, slope = inst.A @ out.D_hat, inst.A @ out.J_hat / 2
        G, h = np.r_[slope, -slope], np.r_[inst.gamma + band - use, use - floor]
        G, h = G[h < math.inf], h[h < math.inf]
        if out.balancing_feasible:
            x = out.tilde_p - p
            wrong += not (np.all(G @ x <= h + 1e-6) and np.all(lo - 1e-12 <= x)
                          and np.all(x <= hi + 1e-12))
        else:
            res = linprog(np.r_[0 * p, 1.0], A_ub=np.c_[G, -np.ones(len(h))], b_ub=h,
                          bounds=[*zip(lo, hi), (None, None)], method="highs")
            wrong += not (res.status == 0 and res.fun > -1e-6)
    check("pdnrm.balance_locality", not far and not wrong,
          f"{len(moved)} of {len(loop_events)} loops moved a price, {empty} sets empty, "
          f"{far} moved beyond the radius, {wrong} verdicts wrong")

    return results
