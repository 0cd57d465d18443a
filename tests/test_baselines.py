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
from nrmlab.demand import revenue_f


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
        from nrmlab import example_logit_instance
        inst = example_logit_instance(T=5000, noise="none")
        # every grid point's true consumption exceeds this capacity rate, so
        # no mixture is feasible; the schedule must fall back to the highest
        # grid price
        inst = dataclasses.replace(inst, gamma=np.array([2e-4, 2e-5]))
        pol = ExploreThenCommitPolicy(inst, EtcConfig(grid_points_per_axis=4))
        pol.D_hat = inst.model.mean(pol.grid)
        prices, lengths = pol._commit_schedule()
        assert pol.mixture is None
        assert np.allclose(prices[-1], pol.grid[-1])

    def test_admissible_periods_observed(self, instance):
        short = instance.with_horizon(3000)
        pol = ExploreThenCommitPolicy(short)
        run_episode(short, pol, seed=8)
        assert pol.periods_observed == short.T

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
