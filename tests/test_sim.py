import math
import dataclasses
import numpy as np
import pytest

from nrmlab import (
    example_logit_instance,
    run_episode,
    percentage_loss,
    export_trace_csv,
    export_events_jsonl,
    Policy,
    CommitPolicy,
    PolicyError,
    mix64,
)
from nrmlab.demand import revenue_f


class FixedPricePolicy(Policy):
    name = "fixed"

    def __init__(self, price):
        self.price = np.asarray(price, float)

    def next_price(self, period):
        return self.price

    def observe(self, period, y):
        pass


class FixedCommitPolicy(CommitPolicy):
    name = "fixed-commit"

    def __init__(self, price, n_products=2):
        self.price = np.asarray(price, float)
        super().__init__(n_products)

    def _driver(self):
        while True:
            yield (self.price, 1 << 40)


class RecordingPolicy(Policy):
    """Captures exactly what the simulator hands it, in call order."""

    name = "recording"

    def __init__(self, price):
        self.price = np.asarray(price, float)
        self.calls = []

    def next_price(self, period):
        self.calls.append(("ask", period))
        return self.price

    def observe(self, period, y):
        self.calls.append(("obs", period, y.copy()))


class OutOfBoxPolicy(FixedPricePolicy):
    pass


def recompute_revenue(trace):
    per = trace.periods
    terms = []
    for t in range(per["price"].shape[0]):
        p = per["price"][t]
        terms.append(float(p @ per["demand"][t]) if np.all(np.isfinite(p)) else 0.0)
    return math.fsum(terms)


class TestRunEpisode:
    def test_noiseless_fixed_price_unconstrained(self):
        inst = example_logit_instance(T=500, noise="none")
        inst = dataclasses.replace(inst, gamma=np.array([5.0, 5.0]))
        p = np.array([1.2, 1.1])
        trace = run_episode(inst, FixedCommitPolicy(p), seed=1)
        assert trace.total_revenue == pytest.approx(500 * revenue_f(inst.model, p), rel=1e-12)
        assert trace.shutoff_period is None

    def test_zero_capacity_shuts_off_at_first_attempt(self):
        inst = example_logit_instance(T=100, noise="none")
        inst = dataclasses.replace(inst, gamma=np.array([1e-12, 1e-12]))
        trace = run_episode(inst, FixedCommitPolicy(np.array([1.0, 1.0])), seed=2)
        assert trace.total_revenue == 0.0
        assert trace.shutoff_period == 1

    def test_same_seed_bit_identical(self, instance):
        short = instance.with_horizon(20_000)
        a = run_episode(short, FixedCommitPolicy(np.array([1.0, 1.0])), seed=42)
        b = run_episode(short, FixedCommitPolicy(np.array([1.0, 1.0])), seed=42)
        assert a.fingerprint == b.fingerprint
        assert a.total_revenue == b.total_revenue
        assert a.shutoff_period == b.shutoff_period
        c = run_episode(short, FixedCommitPolicy(np.array([1.0, 1.0])), seed=43)
        assert c.fingerprint != a.fingerprint

    def test_out_of_box_price_rejected(self, instance):
        with pytest.raises(PolicyError):
            run_episode(instance.with_horizon(10), OutOfBoxPolicy(np.array([0.1, 1.0])),
                        seed=3)

    def test_policy_requested_shutoff(self, instance):
        class Quitter(FixedPricePolicy):
            def next_price(self, period):
                return None if period > 5 else self.price

        trace = run_episode(instance.with_horizon(50), Quitter(np.array([1.0, 1.0])),
                            seed=4, record_periods=True)
        assert np.all(trace.periods["demand"][5:] == 0)
        assert np.all(np.isnan(trace.periods["price"][5:]))

    def test_inventory_never_negative(self, instance):
        short = instance.with_horizon(50_000)
        for seed in range(5):
            trace = run_episode(short, FixedCommitPolicy(np.array([0.8, 0.8])), seed=seed)
            assert trace.inventory_ok
            assert np.all(trace.final_inventory >= 0)

    def test_shutoff_permanence(self, instance):
        short = instance.with_horizon(30_000)
        trace = run_episode(short, FixedCommitPolicy(np.array([0.8, 0.8])), seed=9,
                            record_periods=True)
        assert trace.shutoff_period is not None
        after = trace.periods["demand"][trace.shutoff_period:]
        assert np.all(after == 0)
        assert trace.shutoff_ok

    def test_revenue_accounting_identity(self, instance):
        short = instance.with_horizon(10_000)
        trace = run_episode(short, FixedCommitPolicy(np.array([0.9, 1.0])), seed=5,
                            record_periods=True)
        assert recompute_revenue(trace) == trace.total_revenue

    def test_inventory_trajectory_monotone_and_exact(self, instance):
        short = instance.with_horizon(5_000)
        trace = run_episode(short, FixedCommitPolicy(np.array([0.9, 1.0])), seed=6,
                            record_periods=True)
        inv = trace.periods["inventory"]
        assert np.all(np.diff(inv, axis=0) <= 1e-12)
        # per-period: inventory equals capacity minus cumulative consumption
        cum = np.cumsum(trace.periods["demand"] @ short.A.T, axis=0)
        assert np.allclose(inv, short.capacity[None, :] - cum, atol=1e-9)
        assert np.all(inv >= 0)

    def test_admissibility_no_lookahead(self, instance):
        short = instance.with_horizon(200)
        pol = RecordingPolicy(np.array([1.0, 1.0]))
        run_episode(short, pol, seed=7)
        # strict ask/observe alternation with increasing periods
        assert len(pol.calls) == 2 * short.T
        for t in range(short.T):
            ask, obs = pol.calls[2 * t], pol.calls[2 * t + 1]
            assert ask == ("ask", t + 1)
            assert obs[0] == "obs" and obs[1] == t + 1

    def test_blocked_and_stepwise_policies_agree_on_aggregate(self, instance):
        # same underlying price stream; block sizes must not change semantics
        short = instance.with_horizon(4_000)
        p = np.array([1.0, 1.1])
        t1 = run_episode(short, FixedCommitPolicy(p), seed=11)
        t2 = run_episode(short, FixedPricePolicy(p), seed=11)
        assert t1.total_revenue == pytest.approx(t2.total_revenue, rel=1e-12)
        assert t1.shutoff_period == t2.shutoff_period


def reference_episode(instance, policy, seed):
    """Per-period simulator: one uniform draw per open period, inventory checked
    purchase by purchase. Returns (shutoff_period, price, demand, inventory rows)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    N, M, T = instance.N, instance.M, instance.T
    A = instance.A
    remaining = instance.capacity.astype(float).copy()
    price, demand = np.full((T, N), np.nan), np.zeros((T, N))
    inventory = np.empty((T, M))
    shutoff = None
    for t in range(T):
        p = policy.next_price(t + 1)
        y = np.zeros(N)
        if p is not None and shutoff is None:
            price[t] = p
            cum = np.cumsum(instance.model.mean(np.asarray(p, float)))
            i = int(np.searchsorted(cum, rng.random(), side="right"))
            if i < N and np.any(A[:, i] > remaining):
                shutoff = t + 1
            elif i < N:
                y[i] = 1.0
                remaining = remaining - A[:, i]
        demand[t] = y
        inventory[t] = remaining
        policy.observe(t + 1, y)
    return shutoff, price, demand, inventory


class TestReferenceSimulator:
    """The block simulator against the per-period reference, on an instance
    whose inventory is tight enough that most episodes shut off. Capacities
    and consumptions are integers, so both inventory paths are exact."""

    @pytest.mark.parametrize("policy", ["pdnrm", "clairvoyant", "etc"])
    def test_matches_per_period_reference(self, policy, instance, fluid_solution):
        from nrmlab import build_policy
        tight = dataclasses.replace(instance.with_horizon(10_000), gamma=np.array([0.04, 0.04]))
        assert np.all(tight.capacity == np.round(tight.capacity))
        shutoffs = 0
        for seed in range(1, 11):
            # the clairvoyant policy posts the loose instance's p*, which overspends
            trace = run_episode(tight, build_policy(policy, tight, fluid_solution), seed,
                                record_periods=True)
            shutoff, price, demand, inventory = reference_episode(
                tight, build_policy(policy, tight, fluid_solution), seed)
            assert trace.shutoff_period == shutoff
            np.testing.assert_array_equal(trace.periods["price"], price)
            np.testing.assert_array_equal(trace.periods["demand"], demand)
            np.testing.assert_array_equal(trace.periods["inventory"], inventory)
            shutoffs += shutoff is not None
        assert shutoffs >= 5


class TestPercentageLoss:
    def test_limits(self, instance, fluid_solution):
        bound = instance.T * fluid_solution.value
        full = dataclasses.replace(
            run_episode(instance.with_horizon(10), FixedCommitPolicy([1.0, 1.0]), seed=1),
            total_revenue=bound, T=instance.T)
        full = dataclasses.replace(full, total_revenue=bound)
        assert percentage_loss(instance, full, fluid_solution.value) == pytest.approx(0.0)
        zero = dataclasses.replace(full, total_revenue=0.0)
        assert percentage_loss(instance, zero, fluid_solution.value) == pytest.approx(1.0)

    def test_clairvoyant_loses_little(self, instance, fluid_solution):
        from nrmlab import build_policy
        short = instance.with_horizon(100_000)
        losses = []
        for rep in range(5):
            pol = build_policy("clairvoyant", short, fluid_solution)
            tr = run_episode(short, pol, seed=100 + rep)
            losses.append(percentage_loss(short, tr, fluid_solution.value))
        assert 0 < np.mean(losses) < 0.05


class TestExports:
    def test_csv_round_trip(self, instance, tmp_path):
        short = instance.with_horizon(300)
        trace = run_episode(short, FixedCommitPolicy(np.array([1.0, 1.2])), seed=8,
                            record_periods=True)
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, str(path))
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "period,p_1,p_2,y_1,y_2,revenue,inv_1,inv_2"
        assert len(rows) == 301
        data = np.genfromtxt(str(path), delimiter=",", skip_header=1)
        assert math.fsum(data[:, 5].tolist()) == trace.total_revenue

    def test_events_jsonl(self, instance, tmp_path):
        import json
        from nrmlab import PdNrmPolicy, constants_tuned
        short = instance.with_horizon(3_000)
        pol = PdNrmPolicy(short, constants_tuned(2, 3_000))
        trace = run_episode(short, pol, seed=12)
        path = tmp_path / "events.jsonl"
        export_events_jsonl(trace, str(path))
        lines = [json.loads(line) for line in path.read_text().strip().split("\n")]
        kinds = {e["kind"] for e in lines}
        assert {"epoch", "loop", "dual"} <= kinds


class TestSeedMixing:
    def test_mix64_is_deterministic_and_spread(self):
        a = mix64(1, 2, 3)
        assert a == mix64(1, 2, 3)
        assert a != mix64(1, 2, 4)
        assert a != mix64(2, 2, 3)
        vals = {mix64(0, i) for i in range(1000)}
        assert len(vals) == 1000
