"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured quantities. Heavy Monte Carlo fixtures are shared module-wide.
"""

import math
import time
import numpy as np
import pytest

from nrmlab import (
    BenchPlan,
    BenchSummary,
    DemandOracle,
    constants_tuned,
    grad_est,
    loglog_slope,
    run_bench,
    run_episode,
    solve_fluid,
    solve_inner_max,
    build_policy,
)
from nrmlab.demand import grad_revenue_f
from nrmlab.fluid import dual_Q, grad_Q, lagrangian_H, lagrangian_L
from nrmlab.pdnrm import epoch_count_bound, config_from_dict
from conftest import loop_count_bound, recorded_revenue, summary_row

# dual box satisfying the interior-optimizer requirement on this instance
# (every sampled dual keeps the Lagrangian maximizer inside the price box)
LAMBDA_TEST = np.array([2.0, 0.8])

# scaling benchmark configuration: tuned kappas with the dual step split
# (mu, eta2) = (0.05, 1.0); the smaller mu*eta2 refines the epoch schedule
# (more, shorter epochs) while keeping every epoch/loop bound intact
SCALING_CONFIG = {"mu": 0.05, "eta2": 1.0}

REPORT = []


def report(num, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    REPORT.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bench_tuned(instance):
    """Criterion 7 protocol: tuned constants, 20 reps, T in 1e3..1e6."""
    plan = BenchPlan(
        instance=instance,
        policies=("pdnrm",),
        T_grid=(10**3, 10**4, 10**5, 10**6),
        replications=20,
        base_seed=2024,
        workers=2,
    )
    t0 = time.perf_counter()
    summary = run_bench(plan)
    summary.wall = time.perf_counter() - t0
    return plan, summary


@pytest.fixture(scope="module")
def bench_scaling(instance):
    """Criteria 8/9 protocol: three policies, scaling config, 20 reps."""
    plan = BenchPlan(
        instance=instance,
        policies=("pdnrm", "clairvoyant", "etc"),
        T_grid=(10**4, 10**5, 10**6),
        replications=20,
        base_seed=515,
        pdnrm_config=SCALING_CONFIG,
        workers=2,
    )
    t0 = time.perf_counter()
    summary = run_bench(plan)
    summary.wall = time.perf_counter() - t0
    return plan, summary


@pytest.fixture(scope="module")
def bench_tail(instance):
    """Criterion 8 tail: ten replications at T = 1e7."""
    plan = BenchPlan(
        instance=instance,
        policies=("pdnrm",),
        T_grid=(10**7,),
        replications=10,
        base_seed=515,
        pdnrm_config=SCALING_CONFIG,
        workers=2,
    )
    t0 = time.perf_counter()
    summary = run_bench(plan)
    summary.wall = time.perf_counter() - t0
    return plan, summary


def test_criterion_1_fluid_correctness(instance, fluid_solution):
    t0 = time.perf_counter()
    sol = solve_fluid(instance)
    feas = np.all(instance.A @ sol.d_star <= instance.gamma + 1e-6)
    gap_ok = abs(sol.duality_gap) <= 1e-5
    comp = abs(sol.lambda_star @ (instance.A @ sol.d_star - instance.gamma))
    # independent oracle: exhaustive 2000 x 2000 grid over the demand image
    g1 = np.linspace(1e-4, 0.48, 2000)
    D1, D2 = np.meshgrid(g1, g1, indexing="ij")
    pts = np.stack([D1.ravel(), D2.ravel()], axis=1)
    G, h = instance.model.image_halfspaces(instance.price_min, instance.price_max)
    ok_mask = np.all(pts @ G.T <= h[None, :] + 1e-12, axis=1)
    ok_mask &= np.all(pts @ instance.A.T <= instance.gamma[None, :] + 1e-12, axis=1)
    from nrmlab.demand import revenue_phi
    vals = np.full(len(pts), -np.inf)
    vals[ok_mask] = revenue_phi(instance.model, pts[ok_mask])
    best = pts[int(np.argmax(vals))]
    spacing = g1[1] - g1[0]
    grid_ok = np.max(np.abs(sol.d_star - best)) <= 2 * spacing
    wall = time.perf_counter() - t0
    report(1, feas and gap_ok and comp <= 1e-5 and grid_ok and wall < 10.0,
           f"gap={sol.duality_gap:.2e} comp={comp:.2e} "
           f"grid_dev={np.max(np.abs(sol.d_star - best)):.2e} wall={wall:.1f}s")


def test_criterion_2_derivative_identities(instance, regularity, rng):
    t0 = time.perf_counter()
    h = 1e-5
    worst_rel = 0.0
    for _ in range(10):
        lam = rng.random(2) * LAMBDA_TEST
        g = grad_Q(instance, lam)
        g_fd = np.empty(instance.M)
        for j in range(instance.M):
            e = np.zeros(instance.M)
            e[j] = h
            g_fd[j] = (dual_Q(instance, lam + e) - dual_Q(instance, lam - e)) / (2 * h)
        worst_rel = max(worst_rel,
                        float(np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-8)))
    floor = regularity.sigma_A**2 / regularity.B_phi - 1e-3
    min_eig = np.inf
    for _ in range(5):
        lam = rng.random(2) * LAMBDA_TEST
        H = np.empty((instance.M, instance.M))
        hh = 1e-4
        for j in range(instance.M):
            e = np.zeros(instance.M)
            e[j] = hh
            H[:, j] = (grad_Q(instance, lam + e) - grad_Q(instance, lam - e)) / (2 * hh)
        H = 0.5 * (H + H.T)
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(H))))
    wall = time.perf_counter() - t0
    report(2, worst_rel <= 1e-4 and min_eig >= floor and wall < 30.0,
           f"grad rel err={worst_rel:.2e} min eig={min_eig:.3e} "
           f"floor={floor:.3e} wall={wall:.1f}s")


def test_criterion_3_estimator_bias(noiseless_instance, regularity, rng):
    inst = noiseless_instance
    cfg = constants_tuned(inst.N, inst.T)
    t0 = time.perf_counter()
    worst = {"D": 0.0, "J": 0.0, "f": 0.0}
    for n in (10**4, 10**6):
        for _ in range(10):
            p = 0.95 + 3.9 * rng.random(inst.N)
            lam = rng.random(2) * LAMBDA_TEST
            out = grad_est(DemandOracle(inst), inst, cfg, p, lam, n)
            u = out.u
            D = inst.model.mean(p)
            J = inst.model.jacobian(p)
            gf = grad_revenue_f(inst.model, p)
            d_err = np.max(np.abs(out.D_hat - D)) / (2 * regularity.L_D * u**2)
            j_err = max(np.linalg.norm(out.J_hat[:, i] - J[:, i]) for i in range(inst.N)) \
                / (0.5 * regularity.L_D * u)
            f_err = np.linalg.norm(out.grad_f - gf) \
                / (regularity.B_f * u * math.sqrt(inst.N) / 2 + 1e-9)
            worst = {"D": max(worst["D"], d_err), "J": max(worst["J"], j_err),
                     "f": max(worst["f"], f_err)}
    wall = time.perf_counter() - t0
    ok = all(v <= 1.0 for v in worst.values()) and wall < 10.0
    report(3, ok, "bias/bound ratios "
           f"D={worst['D']:.3f} J={worst['J']:.3f} gradf={worst['f']:.3f} wall={wall:.1f}s")


def test_criterion_4_balancing_sandwich(noiseless_instance, rng):
    inst = noiseless_instance
    cfg = constants_tuned(inst.N, inst.T)
    accepted = 0
    violations = 0
    for _ in range(100):
        p = 1.0 + 2.8 * rng.random(inst.N)
        lam = 2.0 * rng.random(inst.M)
        n = int(10 ** (3 + 3 * rng.random()))
        out = grad_est(DemandOracle(inst), inst, cfg, p, lam, n)
        if not out.balancing_feasible:
            continue
        accepted += 1
        avg = 0.5 * (inst.model.mean(p) + inst.model.mean(out.tilde_p))
        root_n = math.sqrt(n)
        for j in range(inst.M):
            val = inst.A[j] @ avg
            if val > inst.gamma[j] + 2 * cfg.kappa3 / root_n + 1e-12:
                violations += 1
            if lam[j] > 0:
                lo = inst.gamma[j] - cfg.kappa2 / (min(1.0, lam[j]) * root_n) \
                    - 2 * cfg.kappa3 / root_n
                if val < lo - 1e-12:
                    violations += 1
    report(4, violations == 0 and accepted > 0,
           f"{accepted}/100 accepted, {violations} sandwich violations")


def test_criterion_5_pl_and_quadratic_decay(instance, regularity, rng):
    const = regularity.sigma_D**2 * regularity.sigma_phi
    violations = 0
    model, A = instance.model, instance.A
    for _ in range(100):
        lam = rng.random(2) * LAMBDA_TEST
        p = 0.8 + 4.2 * rng.random(instance.N)
        p_opt, d_opt = solve_inner_max(instance, lam)
        L_opt = lagrangian_H(instance, lam, d_opt)
        L_p = lagrangian_L(instance, lam, p)
        grad_L = grad_revenue_f(model, p) - model.jacobian(p).T @ (A.T @ lam)
        lhs = 0.5 * np.linalg.norm(grad_L) ** 2
        if lhs < const * (L_opt - L_p) - 1e-8:
            violations += 1
        decay = L_opt - 0.5 * const * np.linalg.norm(p - p_opt) ** 2
        if L_p > decay + 1e-8:
            violations += 1
    report(5, violations == 0, f"{violations} violations over 100 (lam,p) pairs")


def test_criterion_6_update_counts(bench_tuned, bench_scaling, bench_tail):
    bad = 0
    total = 0
    for plan, summary in (bench_tuned, bench_scaling, bench_tail):
        for ep in summary.episodes:
            if ep.policy != "pdnrm":
                continue
            cfg = config_from_dict(plan.pdnrm_config or {},
                                   instance=plan.instance, T=ep.T)
            total += 1
            if ep.dual_updates > epoch_count_bound(cfg, ep.T):
                bad += 1
            if ep.max_loops_per_epoch > loop_count_bound(cfg, ep.T):
                bad += 1
    report(6, bad == 0 and total > 0,
           f"{total} episodes, {bad} epoch/loop bound violations")


def test_criterion_7_experiment_trend(bench_tuned):
    plan, summary = bench_tuned
    losses = {T: summary_row(summary, "pdnrm", T)["mean_loss"] for T in plan.T_grid}
    decreasing = all(losses[a] > losses[b]
                     for a, b in zip(plan.T_grid, plan.T_grid[1:]))
    ok = decreasing and losses[10**5] <= 0.25 and losses[10**6] <= 0.15 \
        and summary.wall < 1200
    report(7, ok, "tuned losses "
           + " ".join(f"T=1e{int(math.log10(T))}:{losses[T]*100:.1f}%"
                      for T in plan.T_grid)
           + f" wall={summary.wall:.0f}s")


def test_criterion_8_regret_scaling(bench_scaling, bench_tail):
    plan_a, summary_a = bench_scaling
    plan_b, summary_b = bench_tail
    merged = BenchSummary(
        plan=plan_a,
        fluid=summary_a.fluid,
        rows=[r for r in summary_a.rows if r["policy"] == "pdnrm"] + summary_b.rows,
        episodes=[],
    )
    slope = loglog_slope(merged, "pdnrm")
    wall = summary_a.wall + summary_b.wall
    report(8, 0.35 <= slope <= 0.75 and wall < 3600,
           f"slope={slope:.3f} over T=1e4..1e7 wall={wall:.0f}s")


def test_criterion_9_policy_ordering(bench_scaling):
    plan, summary = bench_scaling
    ok = True
    details = []
    for T in (10**5, 10**6):
        pd = summary_row(summary, "pdnrm", T)
        et = summary_row(summary, "etc", T)
        cl = summary_row(summary, "clairvoyant", T)
        margin_pe = et["mean_loss"] - pd["mean_loss"] \
            - 2 * math.hypot(et["stderr"], pd["stderr"])
        margin_cp = pd["mean_loss"] - cl["mean_loss"] \
            - 2 * math.hypot(cl["stderr"], pd["stderr"])
        ok = ok and margin_pe > 0 and margin_cp > 0
        details.append(f"T=1e{int(math.log10(T))}: "
                       f"clair={cl['mean_loss']*100:.2f}% < pd={pd['mean_loss']*100:.2f}% "
                       f"< etc={et['mean_loss']*100:.2f}%")
    report(9, ok, "; ".join(details))


def test_criterion_10_simulator_invariants(instance, bench_tuned, bench_scaling,
                                           bench_tail):
    violations = 0
    total = 0
    for plan, summary in (bench_tuned, bench_scaling, bench_tail):
        for ep in summary.episodes:
            total += 1
            if not (ep.inventory_ok and ep.shutoff_ok):
                violations += 1
        rerun = run_bench(plan)
        for ea, eb in zip(summary.episodes, rerun.episodes):
            if ea.fingerprint != eb.fingerprint or ea.revenue != eb.revenue \
                    or ea.shutoff != eb.shutoff:
                violations += 1
    # revenue-accounting identity on recorded episodes across all policies
    fluid = solve_fluid(instance)
    for name in ("pdnrm", "clairvoyant", "etc"):
        short = instance.with_horizon(50_000)
        policy = build_policy(name, short, fluid,
                              pdnrm_config=SCALING_CONFIG if name == "pdnrm" else None)
        trace = run_episode(short, policy, seed=99, record_periods=True)
        if recorded_revenue(trace) != trace.total_revenue:
            violations += 1
        if not (trace.inventory_ok and trace.shutoff_ok):
            violations += 1
    report(10, violations == 0 and total > 0,
           f"{total} episodes re-run bit-identically, 0 invariant violations"
           if violations == 0 else f"{violations} violations over {total} episodes")


def test_zz_report_summary():
    print()
    for line in REPORT:
        print(line)
    assert len(REPORT) == 10
