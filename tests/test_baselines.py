import dataclasses
import numpy as np
import pytest

from nrmlab import (
    EtcConfig,
    ClairvoyantPolicy,
    ExploreThenCommitPolicy,
    run_episode,
    percentage_loss,
    solve_fluid,
)
from nrmlab.baselines import _FULL_MASTER, _mixture_lp
from nrmlab.demand import revenue_f
from fingerprint_digest import _random_logit_instance


def _assert_falls_back(points: int):
    from nrmlab import example_logit_instance
    inst = example_logit_instance(T=5000, noise="none")
    # every grid point's true consumption exceeds this capacity rate, so
    # no mixture is feasible; the schedule must fall back to the highest
    # grid price
    inst = dataclasses.replace(inst, gamma=np.array([2e-4, 2e-5]))
    pol = ExploreThenCommitPolicy(inst, EtcConfig(grid_points_per_axis=points))
    pol.D_hat = inst.model.mean(pol.grid)
    prices, lengths = pol._commit_schedule()
    assert pol.mixture is None
    assert np.allclose(prices[-1], pol.grid[-1])


class TestClairvoyant:
    def test_posts_constant_price(self, instance, fluid_solution):
        short = instance.with_horizon(2000)
        pol = ClairvoyantPolicy(short, fluid_solution)
        trace = run_episode(short, pol, seed=3, record_periods=True)
        prices = trace.periods["price"]
        open_rows = np.all(np.isfinite(prices), axis=1)
        assert np.allclose(prices[open_rows], fluid_solution.p_star)

    def test_noiseless_revenue_equals_fluid_value(self, fluid_solution):
        # with a slack-capacity instance the deterministic play never shuts off
        from nrmlab import example_logit_instance
        inst = example_logit_instance(T=5000, noise="none")
        inst = dataclasses.replace(inst, gamma=np.array([0.12, 0.12]))
        sol = solve_fluid(inst)
        pol = ClairvoyantPolicy(inst, sol)
        trace = run_episode(inst, pol, seed=4)
        assert trace.shutoff_period is None
        assert trace.total_revenue == pytest.approx(
            inst.T * revenue_f(inst.model, sol.p_star), rel=1e-12)

    def test_stochastic_loss_small(self, instance, fluid_solution):
        short = instance.with_horizon(200_000)
        losses = []
        for rep in range(20):
            pol = ClairvoyantPolicy(short, fluid_solution)
            trace = run_episode(short, pol, seed=600 + rep)
            losses.append(percentage_loss(short, trace, fluid_solution.value))
        mean = np.mean(losses)
        assert 0 < mean < 0.05

    def test_expected_consumption_within_capacity(self, instance, fluid_solution):
        assert np.all(instance.A @ fluid_solution.d_star <= instance.gamma + 1e-9)


class TestExploreThenCommit:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EtcConfig(grid_points_per_axis=1)
        with pytest.raises(ValueError):
            EtcConfig(exploration_fraction=1.5)

    def test_fraction_schedule(self):
        cfg = EtcConfig()
        assert cfg.resolve_fraction(1000) == 0.5
        assert cfg.resolve_fraction(10**6) == pytest.approx(0.05)
        assert 0.05 < cfg.resolve_fraction(10**5) < 0.5

    def test_noiseless_commit_matches_grid_restricted_fluid(self, fluid_solution):
        from nrmlab import example_logit_instance
        inst = example_logit_instance(T=40_000, noise="none")
        pol = ExploreThenCommitPolicy(inst, EtcConfig(grid_points_per_axis=6))
        trace = run_episode(inst, pol, seed=5)
        assert pol.mixture is not None
        # oracle: the LP over exact grid demands bounds the commit value
        demands = inst.model.mean(pol.grid)
        rev = np.einsum("kn,kn->k", pol.grid, demands)
        from scipy.optimize import linprog
        res = linprog(-rev, A_ub=inst.A @ demands.T, b_ub=inst.gamma,
                      A_eq=np.ones((1, len(pol.grid))), b_eq=[1.0],
                      bounds=[(0.0, 1.0)] * len(pol.grid), method="highs")
        assert res.success
        grid_value = -res.fun
        committed_value = float(pol.mixture @ rev)
        assert committed_value >= grid_value - 1e-9
        assert grid_value <= fluid_solution.value + 1e-9

    def test_exploration_fraction_one_edge(self, instance):
        short = instance.with_horizon(2000)
        pol = ExploreThenCommitPolicy(short, EtcConfig(exploration_fraction=0.999))
        trace = run_episode(short, pol, seed=6)
        assert pol.n_explore >= 1998
        assert trace.total_revenue > 0

    def test_infeasible_empirical_program_falls_back(self):
        _assert_falls_back(points=4)

    def test_infeasible_program_on_a_grid_past_the_full_master_falls_back(self):
        # 23 points per axis is 529 > _FULL_MASTER: the seed master and then
        # the full LP are infeasible
        _assert_falls_back(points=23)

    def test_admissible_periods_observed(self, instance):
        short = instance.with_horizon(3000)
        pol = ExploreThenCommitPolicy(short)
        run_episode(short, pol, seed=8)
        # the commitment that the horizon cuts goes unanswered
        assert pol.periods_observed == pol.n_explore

    def test_loses_more_than_clairvoyant(self, instance, fluid_solution):
        short = instance.with_horizon(100_000)
        etc_losses, clair_losses = [], []
        for rep in range(10):
            etc = ExploreThenCommitPolicy(short)
            clair = ClairvoyantPolicy(short, fluid_solution)
            etc_losses.append(percentage_loss(
                short, run_episode(short, etc, seed=700 + rep), fluid_solution.value))
            clair_losses.append(percentage_loss(
                short, run_episode(short, clair, seed=800 + rep), fluid_solution.value))
        assert np.mean(etc_losses) > np.mean(clair_losses)


def _mixture_inputs(N: int, sampled: bool):
    """(rev, consumption, gamma) of ETC's mixture LP on the seeded random
    instance of size N, with exact grid demands or demands averaged over 20
    multinomial draws per grid point."""
    inst = _random_logit_instance(N, max(1, N // 2))
    grid = ExploreThenCommitPolicy(inst).grid
    D = inst.model.mean(grid)
    if sampled:
        rng = np.random.default_rng([17, N])
        D = rng.multinomial(20, np.column_stack([D, 1.0 - D.sum(axis=1)]))[:, :N] / 20
    return np.einsum("kn,kn->k", grid, D), inst.A @ D.T, inst.gamma


def _assert_certified(rev, C, gamma):
    """The mixture is feasible, every one of the K reduced costs is at most
    the stopping tolerance, and the primal and dual values agree."""
    w, lam, nu = _mixture_lp(rev, C, gamma)
    tol = 1e-9 * max(1.0, np.abs(rev).max())
    assert w.min() >= -1e-12 and w.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(C @ w <= gamma + 1e-9)
    assert np.all(lam >= -1e-12)
    assert (rev - lam @ C - nu).max() <= tol
    assert rev @ w == pytest.approx(gamma @ lam + nu, rel=1e-9, abs=1e-12)
    return w


def _full_linprog(rev, consumption, gamma):
    from scipy.optimize import linprog
    return linprog(-rev, A_ub=consumption, b_ub=gamma, A_eq=np.ones((1, len(rev))),
                   b_eq=[1.0], bounds=(0.0, 1.0), method="highs")


class TestMixtureByColumnGeneration:
    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_optimality_certificate(self, N, sampled):
        _assert_certified(*_mixture_inputs(N, sampled))

    def test_a_one_point_mixture_is_certified(self):
        # HiGHS holds a lone optimal point at its bound w <= 1 and prices that
        # bound apart from sum w = 1
        rng = np.random.default_rng(31)
        C, rev = rng.uniform(0.5, 2.0, (2, 600)), rng.uniform(0.0, 1.0, 600)
        rev[77], C[:, 77] = 5.0, 0.1
        w = _assert_certified(rev, C, np.ones(2))
        assert w[77] == 1.0

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_value_and_slack_match_the_full_lp(self, N, sampled):
        rev, C, gamma = _mixture_inputs(N, sampled)
        w = _mixture_lp(rev, C, gamma)[0]
        full = _full_linprog(rev, C, gamma)
        assert full.status == 0
        assert rev @ w == pytest.approx(-full.fun, rel=1e-12)
        assert np.allclose(gamma - C @ w, full.slack, rtol=0, atol=1e-12)

    def test_small_grid_is_the_full_lp_bit_for_bit(self):
        # N = 3 at 8 points per axis is 512 = _FULL_MASTER columns
        inst = dataclasses.replace(_random_logit_instance(3, 1), T=200_000)
        pol = ExploreThenCommitPolicy(inst)
        assert len(pol.grid) == _FULL_MASTER
        run_episode(inst, pol, seed=2)
        rev = np.einsum("kn,kn->k", pol.grid, pol.D_hat)
        full = _full_linprog(rev, inst.A @ pol.D_hat.T, inst.gamma)
        weights = np.maximum(full.x, 0.0)
        assert pol.mixture.tobytes() == weights.tobytes()
        lengths = np.floor(weights * (inst.T - pol.n_explore)).astype(np.int64)
        order = np.argsort(-weights)
        order = order[lengths[order] > 0]
        prices, got = pol._commit_schedule()
        assert prices.tobytes() == pol.grid[order].tobytes()
        assert got.tobytes() == lengths[order].tobytes()

    def test_infeasible_seed_master_hands_over_to_the_full_lp(self):
        # K = 600 > _FULL_MASTER. The seed master is the best-revenue point f,
        # the least worst-case point e and the least-consuming points c and d:
        # every mixture of them uses more than 2 = sum(gamma) in all. Only
        # mixing a and b half and half fits.
        K = 600
        C = np.full((2, K), 3.0)
        rev = np.ones(K)
        a, b, c, d, e, f = 100, 200, 300, 400, 450, 500
        C[:, a], C[:, b], C[:, c], C[:, d] = (0.2, 1.6), (1.6, 0.2), (0.0, 5.0), (5.0, 0.0)
        C[:, e], C[:, f] = (1.5, 1.5), (4.0, 4.0)
        rev[a], rev[b], rev[f] = 2.0, 3.0, 10.0
        gamma = np.array([1.0, 1.0])
        w = _mixture_lp(rev, C, gamma)[0]
        full = _full_linprog(rev, C, gamma)
        assert full.status == 0
        assert rev @ w == pytest.approx(-full.fun, rel=1e-12)
        assert set(np.flatnonzero(w > 1e-12)) <= {a, b, e, f}
        assert np.all(C @ w <= gamma + 1e-12)

    @pytest.mark.parametrize("status", [1, 3, 4])
    def test_an_lp_failure_other_than_infeasible_raises(self, monkeypatch, status):
        pol = _policy_with_stubbed_lp(monkeypatch, status)
        with pytest.raises(RuntimeError, match=f"HiGHS status {status}"):
            pol._commit_schedule()

    def test_a_stubbed_infeasible_lp_posts_the_highest_price(self, monkeypatch):
        pol = _policy_with_stubbed_lp(monkeypatch, 2)
        prices, lengths = pol._commit_schedule()
        assert pol.mixture is None
        assert prices.tobytes() == pol.grid[-1:].tobytes()
        assert lengths.tolist() == [5000 - pol.n_explore]


def _policy_with_stubbed_lp(monkeypatch, status: int):
    """An ETC policy on the bundled instance, past its exploration, whose
    every LP returns HiGHS status `status`."""
    import scipy.optimize
    from nrmlab import example_logit_instance
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: scipy.optimize.OptimizeResult(
        status=status, success=False, message="stub"))
    pol = ExploreThenCommitPolicy(example_logit_instance(T=5000))
    pol.D_hat = pol.instance.model.mean(pol.grid)
    return pol
