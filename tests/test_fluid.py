import dataclasses
import time

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose
from scipy.optimize import linprog, minimize

import nrmlab.fluid
from nrmlab import (
    ClairvoyantPolicy,
    Instance,
    LinearDemand,
    LogitDemand,
    PdNrmPolicy,
    solve_fluid,
    solve_inner_max,
    dual_Q,
    grad_Q,
    lagrangian_L,
    lagrangian_H,
    fluid_upper_bound,
    default_dual_set,
    example_logit_instance,
    FluidError,
    FluidSolution,
    run_episode,
)
from nrmlab.demand import revenue_f, revenue_phi, grad_revenue_f, grad_revenue_phi
from nrmlab.fluid import CERTIFICATE_TOL
from nrmlab.instance import instance_from_dict
from fingerprint_digest import _random_logit_instance

# frozen from an exact KKT solve of the example instance (stationarity on the
# binding face d_1 + d_2 = gamma_1, verified independently by the grid oracle)
D_STAR = np.array([0.05781211944544516, 0.04218788055455487])
P_STAR = np.array([2.0967975537590697, 1.9301308870899176])
LAM_STAR = np.array([1.3638693834913942, 0.0])
PHI_STAR = 0.20264844195004303


def grid_oracle_argmax(instance, resolution, constrained=True):
    """Exhaustive grid search for the fluid optimum over the demand image."""
    g1 = np.linspace(1e-4, 0.48, resolution)
    g2 = np.linspace(1e-4, 0.48, resolution)
    D1, D2 = np.meshgrid(g1, g2, indexing="ij")
    pts = np.stack([D1.ravel(), D2.ravel()], axis=1)
    G, h = instance.model.image_halfspaces(instance.price_min, instance.price_max)
    ok = np.all(pts @ G.T <= h[None, :] + 1e-12, axis=1)
    if constrained:
        ok &= np.all(pts @ instance.A.T <= instance.gamma[None, :] + 1e-12, axis=1)
    vals = np.full(len(pts), -np.inf)
    vals[ok] = revenue_phi(instance.model, pts[ok])
    best = pts[int(np.argmax(vals))]
    spacing = max(g1[1] - g1[0], g2[1] - g2[0])
    return best, spacing


class TestLagrangians:
    def test_zero_dual_reduces_to_revenue(self, instance, rng):
        for _ in range(10):
            p = 0.8 + 4.2 * rng.random(2)
            assert lagrangian_L(instance, np.zeros(2), p) == pytest.approx(
                revenue_f(instance.model, p), rel=1e-12)
            d = instance.model.mean(p)
            assert lagrangian_H(instance, np.zeros(2), d) == pytest.approx(
                revenue_phi(instance.model, d), rel=1e-12)

    def test_example_value(self, instance):
        p = np.array([0.8, 0.8])
        lam = np.ones(2)
        d = instance.model.mean(p)
        expected = revenue_f(instance.model, p) - lam @ (instance.A @ d - instance.gamma)
        assert lagrangian_L(instance, lam, p) == pytest.approx(expected, rel=1e-12)

    def test_H_matches_L_at_random_points(self, instance, rng):
        for _ in range(100):
            p = 0.8 + 4.2 * rng.random(2)
            lam = 3.0 * rng.random(2)
            L = lagrangian_L(instance, lam, p)
            H = lagrangian_H(instance, lam, instance.model.mean(p))
            assert abs(L - H) <= 1e-9 * max(1.0, abs(L))

    def test_zero_slack_face(self, instance, fluid_solution):
        # on the binding face A d = gamma (resource 1), L = f for duals
        # supported on that resource
        d = fluid_solution.d_star
        lam = np.array([2.5, 0.0])
        assert lagrangian_H(instance, lam, d) == pytest.approx(
            revenue_phi(instance.model, d), abs=1e-9)


class TestInnerMax:
    def test_first_order_condition_interior(self, instance):
        lam = np.array([1.0, 0.5])
        p_star, d_star = solve_inner_max(instance, lam)
        g = grad_revenue_phi(instance.model, d_star) - instance.A.T @ lam
        assert np.linalg.norm(g) <= 1e-6

    def test_zero_dual_matches_grid_search(self, instance):
        _, d0 = solve_inner_max(instance, np.zeros(2))
        best, spacing = grid_oracle_argmax(instance, 400, constrained=False)
        assert np.max(np.abs(d0 - best)) <= 2 * spacing

    def test_start_point_invariance(self, instance, rng):
        lam = np.array([0.7, 0.2])
        starts = [instance.model.mean(0.8 + 4.2 * rng.random(2)) for _ in range(2)]
        sols = [solve_inner_max(instance, lam, start=s)[1] for s in starts]
        assert np.linalg.norm(sols[0] - sols[1]) <= 1e-6

    def test_price_demand_consistency(self, instance):
        lam = np.array([0.3, 0.1])
        p, d = solve_inner_max(instance, lam)
        assert_allclose(instance.model.mean(p), d, rtol=1e-9)

    def test_pl_inequality(self, instance, regularity, rng):
        # 0.5 ||grad_p L||^2 >= sigma_D^2 sigma_phi (L(lam, p*_lam) - L(lam, p))
        const = regularity.sigma_D**2 * regularity.sigma_phi
        box = default_dual_set(instance)
        model, A = instance.model, instance.A
        for _ in range(100):
            lam = rng.random(instance.M) * box * 0.05
            p = 0.8 + 4.2 * rng.random(2)
            _, d_opt = solve_inner_max(instance, lam)
            gap = lagrangian_H(instance, lam, d_opt) - lagrangian_L(instance, lam, p)
            grad_L = grad_revenue_f(model, p) - model.jacobian(p).T @ (A.T @ lam)
            lhs = 0.5 * np.linalg.norm(grad_L) ** 2
            assert lhs >= const * gap - 1e-8

    def test_quadratic_decay(self, instance, regularity, rng):
        const = 0.5 * regularity.sigma_phi * regularity.sigma_D**2
        for _ in range(50):
            lam = np.array([1.5, 0.8]) * rng.random(2)
            p_opt, d_opt = solve_inner_max(instance, lam)
            L_opt = lagrangian_H(instance, lam, d_opt)
            p = 0.8 + 4.2 * rng.random(2)
            L_p = lagrangian_L(instance, lam, p)
            assert L_p <= L_opt - const * np.linalg.norm(p - p_opt) ** 2 + 1e-8


class TestDualFunction:
    def test_weak_duality(self, instance, fluid_solution, rng):
        box = default_dual_set(instance)
        for _ in range(50):
            lam = rng.random(instance.M) * box
            assert dual_Q(instance, lam) >= fluid_solution.value - 1e-6

    def test_midpoint_convexity(self, instance, rng):
        box = default_dual_set(instance)
        for _ in range(50):
            a = rng.random(instance.M) * box * 0.1
            b = rng.random(instance.M) * box * 0.1
            mid = dual_Q(instance, (a + b) / 2)
            assert mid <= (dual_Q(instance, a) + dual_Q(instance, b)) / 2 + 1e-9

    def test_gradient_matches_finite_differences(self, instance, rng):
        h = 1e-5
        for _ in range(10):
            lam = np.array([2.0, 1.0]) * rng.random(2) + 0.05
            g = grad_Q(instance, lam)
            g_fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                g_fd[j] = (dual_Q(instance, lam + e) - dual_Q(instance, lam - e)) / (2 * h)
            rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-8)
            assert rel <= 1e-4

    def test_gradient_zero_on_binding_face(self, instance, fluid_solution):
        # at lam* the binding coordinate of grad Q vanishes
        g = grad_Q(instance, fluid_solution.lambda_star)
        assert abs(g[0]) <= 1e-6

    def test_hessian_psd_with_curvature_floor(self, instance, regularity, rng):
        h = 1e-4
        floor = regularity.sigma_A**2 / regularity.B_phi
        for _ in range(5):
            lam = np.array([1.5, 0.6]) * rng.random(2) + 0.1
            H = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                H[:, j] = (grad_Q(instance, lam + e) - grad_Q(instance, lam - e)) / (2 * h)
            H = 0.5 * (H + H.T)
            assert np.min(np.linalg.eigvalsh(H)) >= floor - 1e-3


class TestSolveFluid:
    def test_matches_grid_oracle(self, instance, fluid_solution):
        best, spacing = grid_oracle_argmax(instance, 2000)
        assert np.max(np.abs(fluid_solution.d_star - best)) <= 2 * spacing

    def test_frozen_values(self, fluid_solution):
        assert_allclose(fluid_solution.d_star, D_STAR, atol=1e-7)
        assert_allclose(fluid_solution.p_star, P_STAR, atol=1e-6)
        assert_allclose(fluid_solution.lambda_star, LAM_STAR, atol=1e-6)
        assert fluid_solution.value == pytest.approx(PHI_STAR, abs=1e-10)

    def test_certificate(self, instance, fluid_solution):
        sol = fluid_solution
        assert np.all(instance.A @ sol.d_star <= instance.gamma + 1e-6)
        assert abs(sol.duality_gap) <= 1e-5
        comp = abs(sol.lambda_star @ (instance.A @ sol.d_star - instance.gamma))
        assert comp <= 1e-5
        assert_allclose(instance.model.mean(sol.p_star), sol.d_star, rtol=1e-8)
        assert sol.binding_mask[0] and not sol.binding_mask[1]

    def test_stationarity(self, instance, fluid_solution):
        g = grad_revenue_phi(instance.model, fluid_solution.d_star)
        kkt = g - instance.A.T @ fluid_solution.lambda_star
        assert np.linalg.norm(kkt) <= 1e-5

    def test_unconstrained_when_capacity_huge(self, instance):
        import dataclasses
        big = dataclasses.replace(instance, gamma=np.array([10.0, 10.0]))
        sol = solve_fluid(big)
        assert_allclose(sol.lambda_star, [0.0, 0.0], atol=1e-7)
        best, spacing = grid_oracle_argmax(big, 400, constrained=False)
        assert np.max(np.abs(sol.d_star - best)) <= 2 * spacing

    def test_certifies_without_dual_box(self, instance, fluid_solution, monkeypatch):
        # weak duality needs only lambda >= 0: solve_fluid never sizes a box
        def no_box(_):
            raise AssertionError("solve_fluid must not use the dual box")

        monkeypatch.setattr(nrmlab.fluid, "default_dual_set", no_box)
        sol = solve_fluid(instance)
        assert abs(sol.duality_gap) <= 1e-5
        assert_allclose(sol.lambda_star, fluid_solution.lambda_star, rtol=0, atol=0)

    def test_infeasible_instance_raises(self, instance):
        import dataclasses
        # demand image lower corner exceeds a tiny capacity: infeasible
        bad = dataclasses.replace(instance, gamma=np.array([1e-6, 1e-6]))
        with pytest.raises(FluidError, match=r"^A d\* exceeds gamma in row [01] by \d"):
            solve_fluid(bad)

    def test_solves_no_lp(self, instance, fluid_solution, monkeypatch):
        # SLSQP starts at the mid price and the capacity check is exact, so
        # neither a certified nor an infeasible instance needs an LP
        def no_lp(*args, **kwargs):
            raise AssertionError("solve_fluid must not solve an LP")

        monkeypatch.setattr(scipy.optimize, "milp", no_lp)
        monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
        assert outcome(solve_fluid, instance) == outcome(lambda _: fluid_solution, instance)
        with pytest.raises(FluidError, match=r"^A d\* exceeds gamma in row"):
            solve_fluid(dataclasses.replace(instance, gamma=np.array([1e-6, 1e-6])))

    def test_an_answer_outside_the_capacity_is_solved_once_more(self, instance, monkeypatch):
        # SLSQP now and then ends a little outside its rows: here the first
        # solve's rows sit 1e-9 above gamma, so its answer misses, and the
        # second solve, against gamma (1 - 1e-9), must place d* inside
        real, calls = nrmlab.fluid._maximize, []

        def maximize(instance, lam, p0, rows=None):
            if rows is not None:
                calls.append(rows)
                if len(calls) == 1:
                    rows = instance.gamma * (1 + 1e-9)
            return real(instance, lam, p0, rows)

        monkeypatch.setattr(nrmlab.fluid, "_maximize", maximize)
        sol = solve_fluid(instance)
        assert_allclose(calls, [instance.gamma * (1 - 1e-10), instance.gamma * (1 - 1e-9)],
                        rtol=0, atol=0)
        assert np.all(instance.A @ sol.d_star <= instance.gamma)
        assert sol.value == pytest.approx(PHI_STAR, abs=1e-9)
        # an answer that misses by more than 1e-6 gamma, as on an infeasible
        # instance, is refused after the one solve
        calls.clear()
        with pytest.raises(FluidError, match=r"^A d\* exceeds gamma"):
            solve_fluid(dataclasses.replace(instance, gamma=np.array([1e-6, 1e-6])))
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["bundled", "n3m1", "n4m2"])
    def test_noiseless_play_at_p_star_never_shuts_off(self, name):
        # A D(p*) <= gamma exactly, so a market that sells D(p*) every period
        # keeps T gamma of capacity open to the horizon, however long
        inst = {"bundled": lambda: example_logit_instance(T=10**9),
                "n3m1": lambda: _random_logit_instance(3, 1),
                "n4m2": lambda: _random_logit_instance(4, 2)}[name]()
        inst = dataclasses.replace(inst, T=10**9, noise="none")
        sol = solve_fluid(inst)
        trace = run_episode(inst, ClairvoyantPolicy(inst, sol), seed=1)
        assert trace.shutoff_period is None
        assert np.all(trace.final_inventory >= 0)

    @pytest.mark.parametrize("box", [(-0.5, 0.0), (-5.0, -1.0)], ids=["zero-box", "negative-box"])
    def test_a_value_that_is_not_positive_raises(self, instance, box):
        # every loss divides by the fluid value; on these boxes the program
        # certifies, at -2.6e-17 and -0.96, so only the sign refuses them
        bad = dataclasses.replace(instance, price_min=box[0], price_max=box[1], gamma=[5.0, 5.0])
        with pytest.raises(FluidError, match=r"^fluid value -\S+ is not positive"):
            solve_fluid(bad)

    def test_a_nan_gap_raises(self, instance, monkeypatch):
        monkeypatch.setattr(nrmlab.fluid, "dual_Q", lambda *args, **kwargs: float("nan"))
        with pytest.raises(FluidError, match="^dual certificate out of tolerance: gap=nan"):
            solve_fluid(instance)

    def test_nan_multipliers_raise(self, instance, monkeypatch):
        real = nrmlab.fluid._maximize

        def maximize(instance, lam, p0, rows=None):
            p, mult = real(instance, lam, p0, rows)
            return p, mult if rows is None else np.full_like(mult, np.nan)

        monkeypatch.setattr(nrmlab.fluid, "_maximize", maximize)
        with pytest.raises(FluidError, match="^dual certificate out of tolerance"):
            solve_fluid(instance)


def random_logit_family(seed, sizes):
    """Logit instances with one resource whose capacity is 1-2x its
    consumption at the mid price, so that it binds at the fluid optimum."""
    rng = np.random.default_rng(seed)
    family = []
    for N in sizes:
        model = LogitDemand(rng.uniform(0.2, 1.0, N), rng.uniform(1.0, 2.5, N))
        A = rng.integers(1, 3, size=(1, N)).astype(float)
        gamma = rng.uniform(1.0, 2.0, 1) * (A @ model.mean(np.full(N, 2.9)))
        family.append(Instance(model=model, A=A, gamma=gamma, T=100_000,
                               price_min=0.8, price_max=5.0))
    return family


class TestDefaultDualSet:
    def test_box_is_price_max_over_gamma_and_the_policy_default(self, instance):
        box = default_dual_set(instance)
        assert_allclose(box, instance.price_max / instance.gamma, rtol=0, atol=0)
        assert_allclose(PdNrmPolicy(instance).lambda_max, box, rtol=0, atol=0)

    def test_contains_lambda_star(self, instance, fluid_solution):
        family = random_logit_family(20260, [3, 3, 3, 4])
        sols = [fluid_solution] + [solve_fluid(inst) for inst in family]
        for inst, sol in zip([instance] + family, sols):
            # the documented condition of the bound: no price at price_max
            assert np.max(sol.p_star) < inst.price_max
            assert np.any(sol.lambda_star > 0)
            assert np.all((0 <= sol.lambda_star) & (sol.lambda_star <= default_dual_set(inst)))


# Random draws on which the earlier projected-gradient oracle stalled, failed
# or evaluated phi outside its domain (copies of the benchmark's exclusions).
HARD_INSTANCES = [
    {"N": 3, "M": 2, "A": [2.0, 0.0, 1.0, 2.0, 1.0, 0.0],
     "gamma": [0.08788776560820892, 0.14437110354768132],
     "demand": {"type": "logit",
                "a": [0.40673940964143346, 0.3135757189601674, 0.8541708272884265],
                "b": [1.225250506867614, 1.972724542878236, 2.293694067242374]}},
    {"N": 3, "M": 3, "A": [2.0, 1.0, 0.0, 2.0, 2.0, 1.0, 2.0, 0.0, 2.0],
     "gamma": [0.058249171439037364, 0.05867930228987212, 0.04227087882573374],
     "demand": {"type": "logit",
                "a": [0.6985769626464176, 0.6552916107526997, 0.611142563119069],
                "b": [1.7871109379567938, 1.8566362341525515, 2.47330583218406]}},
    {"N": 2, "M": 2, "A": [2.0, 0.0, 2.0, 1.0],
     "gamma": [0.00548179288693101, 0.005180904475230045],
     "demand": {"type": "logit", "a": [0.5394068114636255, 0.26553238031988147],
                "b": [2.4402541508521813, 2.4897509793021864]}},
    {"N": 2, "M": 2, "A": [2.0, 1.0, 1.0, 1.0],
     "gamma": [0.038904096308279665, 0.03914760208966646],
     "demand": {"type": "logit", "a": [0.34082531248893877, 0.8347375688226366],
                "b": [1.9186569454987774, 1.5120639018830264]}},
    {"N": 2, "M": 1, "A": [2.0, 2.0], "gamma": [0.07244039044098376],
     "demand": {"type": "logit", "a": [0.683588068972786, 0.6061138172950012],
                "b": [1.7906484704145877, 1.5859917481295271]}},
]


def random_network_family(seed, count, gamma_range):
    """Logit instances with N in 2..16 and M <= N/2 resources whose capacities
    are gamma_range times their consumption at the mid price."""
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(count):
        N = int(rng.integers(2, 17))
        M = int(rng.integers(1, N // 2 + 1))
        model = LogitDemand(rng.uniform(0.2, 1.0, N), rng.uniform(1.0, 2.5, N))
        A = rng.integers(0, 3, size=(M, N)).astype(float)
        while np.linalg.matrix_rank(A) < M:
            A = rng.integers(0, 3, size=(M, N)).astype(float)
        gamma = rng.uniform(*gamma_range, M) * (A @ model.mean(np.full(N, 2.9)))
        family.append(Instance(model=model, A=A, gamma=gamma, T=100_000,
                               price_min=0.8, price_max=5.0))
    return family


def lp_feasible(instance):
    """Exact feasibility of {G d <= h, A d <= gamma} by one LP."""
    G, h = instance.model.image_halfspaces(instance.price_min, instance.price_max)
    res = linprog(np.zeros(instance.N), A_ub=np.vstack([G, instance.A]),
                  b_ub=np.concatenate([h, instance.gamma]),
                  bounds=[(None, None)] * instance.N, method="highs")
    assert res.status in (0, 2)
    return res.status == 0


def assert_certified(instance):
    """Certified within 1e-9 in under 1 s, with A d* <= gamma exactly."""
    t0 = time.perf_counter()
    sol = solve_fluid(instance)
    assert time.perf_counter() - t0 < 1.0
    assert np.all(instance.A @ sol.d_star <= instance.gamma)
    assert np.all(instance.A @ instance.model.mean(sol.p_star) <= instance.gamma)
    assert abs(sol.duality_gap) <= 1e-9
    assert abs(float(sol.lambda_star @ (instance.A @ sol.d_star - instance.gamma))) <= 1e-9
    assert np.all(sol.lambda_star >= 0)
    return sol


def hard_instance(doc):
    return instance_from_dict({**doc, "T": 100_000, "price_min": 0.8, "price_max": 5.0})


def random_families():
    """The random members of TestCertifiesAtAnySize; the second family's tight
    capacities make some draws infeasible."""
    return (random_network_family(7, 40, (0.3, 2.0))
            + random_network_family(11, 30, (0.02, 0.2)))


def linear_instance():
    return Instance(model=LinearDemand([0.5, 0.6], [[0.1, 0.02], [0.02, 0.1]]),
                    A=np.array([[1.0, 1.0]]), gamma=np.array([0.2]), T=1000,
                    price_min=0.5, price_max=4.0)


class TestCertifiesAtAnySize:
    @pytest.mark.parametrize("doc", HARD_INSTANCES, ids=lambda d: f"N{d['N']}M{d['M']}")
    def test_former_failures(self, doc):
        assert_certified(hard_instance(doc))

    def test_random_families(self):
        family = random_families()
        verdicts = [lp_feasible(inst) for inst in family]
        assert any(verdicts) and not all(verdicts)
        for inst, feasible in zip(family, verdicts):
            if feasible:
                assert_certified(inst)
            else:
                with pytest.raises(FluidError, match=r"^A d\* exceeds gamma in row"):
                    solve_fluid(inst)

    def test_linear_demand_exact_multiplier(self):
        sol = assert_certified(linear_instance())
        assert sol.lambda_star[0] == pytest.approx(3.0, abs=1e-9)


def reference_maximize(instance, lam, p0, rows=None):
    """fluid._maximize with each SLSQP callback evaluating the model afresh."""
    model, A, gamma = instance.model, instance.A, instance.gamma
    constraints = ()
    if rows is not None:
        constraints = ({"type": "ineq", "fun": lambda p: rows - A @ model.mean(p),
                        "jac": lambda p: -A @ model.jacobian(p)},)
    res = minimize(lambda p: -(revenue_f(model, p) - float(lam @ (A @ model.mean(p) - gamma))),
                   np.clip(p0, instance.price_min, instance.price_max),
                   jac=lambda p: -(grad_revenue_f(model, p) - model.jacobian(p).T @ (A.T @ lam)),
                   method="SLSQP", bounds=[instance.price_box] * instance.N,
                   constraints=constraints, options={"ftol": 1e-15, "maxiter": 1000})
    return np.clip(res.x, instance.price_min, instance.price_max), np.maximum(res.multipliers, 0.0)


def reference_solve_fluid(instance):
    """solve_fluid with the callbacks of reference_maximize: capacitated
    solves from the mid price against each margin until an answer meets the
    capacity exactly or misses it by more than 1e-6 gamma, and the
    certificate from one inner maximization at lambda*."""
    model = instance.model
    mid = np.full(instance.N, 0.5 * (instance.price_min + instance.price_max))
    for margin in nrmlab.fluid._CAPACITY_MARGINS:
        p_star, lam = reference_maximize(instance, np.zeros(instance.M), mid,
                                         instance.gamma * (1.0 - margin))
        d_star = model.mean(p_star)
        excess = instance.A @ d_star - instance.gamma
        if np.all(excess <= 0) or np.any(excess > nrmlab.fluid._RETRY_BAND * instance.gamma):
            break
    if np.any(excess > 0):
        raise FluidError("A d* exceeds gamma")
    value = revenue_phi(model, d_star)
    p_lam, _ = reference_maximize(instance, lam, model.inverse(d_star))
    gap = lagrangian_H(instance, lam, model.mean(p_lam)) - value
    slack = instance.gamma - instance.A @ d_star
    if abs(gap) > CERTIFICATE_TOL or abs(float(lam @ slack)) > CERTIFICATE_TOL:
        raise FluidError("dual certificate out of tolerance")
    return FluidSolution(
        d_star=d_star, p_star=p_star, lambda_star=lam, value=value,
        binding_mask=slack <= 10 * CERTIFICATE_TOL * np.maximum(instance.gamma, 1.0),
        duality_gap=float(gap))


def outcome(solve, instance):
    """Each FluidSolution field's dtype and bytes, or the FluidError's type."""
    try:
        sol = solve(instance)
    except FluidError:
        return FluidError
    return [(np.asarray(v).dtype, np.asarray(v).tobytes())
            for v in dataclasses.astuple(sol)]


class TestReferenceSolver:
    def test_every_field_equals_the_reference_bit_for_bit(self, instance):
        members = ([instance, linear_instance()] + [hard_instance(doc) for doc in HARD_INSTANCES]
                   + random_families())
        outcomes = [(outcome(solve_fluid, inst), outcome(reference_solve_fluid, inst))
                    for inst in members]
        assert sum(new == FluidError for new, _ in outcomes) >= 1
        for new, ref in outcomes:
            assert new == ref

    def test_one_model_evaluation_per_slsqp_point(self, monkeypatch):
        # D(p) once per point SLSQP visits, and J_D(p) at most once, built
        # from that D(p): J_D evaluates no D of its own
        instance = example_logit_instance(T=100_000)
        model = instance.model
        mean, jacobian, slsqp = model.mean, model.jacobian, scipy.optimize.minimize
        runs, active = [], []   # active: the run SLSQP is inside

        def counted_mean(p):
            if active:
                active[0]["mean"] += 1
            return mean(p)

        def counted_jacobian(p, d=None):
            if active:
                active[0]["jacobian"] += 1
            return jacobian(p, d)

        def recorded_minimize(fun, x0, jac, constraints, **kwargs):
            run = {"mean": 0, "jacobian": 0, "points": set()}

            def at_point(f):
                def g(p):
                    run["points"].add(p.tobytes())
                    return f(p)
                return g

            runs.append(run)
            active.append(run)
            try:
                return slsqp(at_point(fun), x0, jac=at_point(jac), constraints=[
                    {**c, "fun": at_point(c["fun"]), "jac": at_point(c["jac"])}
                    for c in constraints], **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(model, "mean", counted_mean)
        monkeypatch.setattr(model, "jacobian", counted_jacobian)
        monkeypatch.setattr(scipy.optimize, "minimize", recorded_minimize)
        sol = solve_fluid(instance)
        assert len(runs) == 2   # the capacitated solve and dual_Q's certificate
        for run in runs:
            assert run["mean"] == len(run["points"])
            assert 1 <= run["jacobian"] <= len(run["points"])
        assert len(runs[0]["points"]) >= 5
        assert outcome(lambda _: sol, instance) == outcome(reference_solve_fluid, instance)


class TestFluidUpperBound:
    def test_value_and_scaling(self, instance, fluid_solution):
        bound = fluid_upper_bound(instance, fluid_solution)
        assert bound == pytest.approx(instance.T * fluid_solution.value, rel=1e-15)
        double = fluid_upper_bound(instance.with_horizon(2 * instance.T), fluid_solution)
        assert double == pytest.approx(2 * bound, rel=1e-15)

    def test_dominates_simulated_policies(self, instance, fluid_solution):
        from nrmlab import run_episode, build_policy
        short = instance.with_horizon(5000)
        bound = fluid_upper_bound(short, fluid_solution)
        revs = []
        for rep in range(50):
            pol = build_policy("clairvoyant", short, fluid_solution)
            revs.append(run_episode(short, pol, seed=900 + rep).total_revenue)
        mean = np.mean(revs)
        se = np.std(revs, ddof=1) / np.sqrt(len(revs))
        assert mean <= bound + 4 * se
