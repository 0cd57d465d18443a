import itertools
import math
import os
import time
import dataclasses
import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from nrmlab import (
    Instance,
    LogitDemand,
    example_logit_instance,
    run_episode,
    percentage_loss,
    export_trace_csv,
    export_events_jsonl,
    Policy,
    CommitPolicy,
    PolicyError,
    mix64,
    loop_skeleton,
)
from nrmlab.demand import revenue_f
from nrmlab import sim
from conftest import (FixedPricePolicy, boxless_instances, estimation_ends, recorded_revenue,
                      serve_one)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FixedCommitPolicy(CommitPolicy):
    name = "fixed-commit"

    def __init__(self, price, length=1 << 40):
        self.price = np.asarray(price, float)
        self.length = length
        self.answers = []
        super().__init__()

    def _driver(self):
        while True:
            self.answers.append((yield (self.price, self.length)))


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


def plain_calls(T, shutoff):
    """The (kind, period) calls of a policy without schedules: asked for
    every period up to the shutoff period (T if none) and observed in every
    period before it."""
    last = T if shutoff is None else shutoff
    calls = [(kind, t) for t in range(1, last + 1) for kind in ("ask", "obs")]
    return calls if shutoff is None else calls[:-1]


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
            run_episode(instance.with_horizon(10), FixedPricePolicy(np.array([0.1, 1.0])),
                        seed=3)

    def test_a_none_price_is_refused(self, instance):
        # None is no price, not the end of the episode: the price check refuses it
        class Quitter(RecordingPolicy):
            def next_price(self, period):
                price = super().next_price(period)
                return None if period > 5 else price

        pol = Quitter(np.array([1.0, 1.0]))
        short = dataclasses.replace(instance.with_horizon(50), gamma=np.array([5.0, 5.0]))
        with pytest.raises(PolicyError, match="outside"):
            run_episode(short, pol, seed=4, record_periods=True)
        assert [call[:2] for call in pol.calls] == plain_calls(6, 6)

    def test_inventory_never_negative(self, instance):
        short = instance.with_horizon(50_000)
        for seed in range(5):
            trace = run_episode(short, FixedCommitPolicy(np.array([0.8, 0.8])), seed=seed)
            assert trace.inventory_ok
            assert np.all(trace.final_inventory >= 0)

    def test_inventory_ok_reads_the_final_inventory(self):
        # inventory only falls, so the final inventory is its minimum: a trace whose
        # final inventory has a negative entry fails the check, whatever came before
        inventory = np.array([[1.0, 2.0], [0.5, 1.0], [0.5, -0.25]])
        price, demand, revenue = np.ones((3, 2)), np.zeros((3, 2)), np.zeros(3)
        assert not hand_built_trace(price, demand, revenue, inventory).inventory_ok
        assert hand_built_trace(price, demand, revenue, abs(inventory)).inventory_ok
        assert hand_built_trace(price, demand, revenue, 0 * inventory).inventory_ok

    def test_shutoff_permanence(self, instance):
        # At this price resource 2 runs out first, so product 1 could still sell
        # in the blocks that follow the shutoff.
        short = instance.with_horizon(30_000)
        trace = run_episode(short, FixedCommitPolicy(np.array([1.5, 0.8]), length=1_000),
                            seed=9, record_periods=True)
        assert trace.shutoff_period is not None
        assert trace.shutoff_period < short.T - 1_000
        assert trace.final_inventory[0] >= 1
        after = trace.periods["demand"][trace.shutoff_period:]
        assert np.all(after == 0)
        assert trace.shutoff_ok

    def test_revenue_accounting_identity(self, instance):
        short = instance.with_horizon(10_000)
        trace = run_episode(short, FixedCommitPolicy(np.array([0.9, 1.0])), seed=5,
                            record_periods=True)
        assert recorded_revenue(trace) == trace.total_revenue

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
        trace = run_episode(short, pol, seed=7)
        # strict ask/observe alternation with increasing periods, up to the shutoff
        assert trace.shutoff_period is not None
        assert [call[:2] for call in pol.calls] == plain_calls(short.T, trace.shutoff_period)

    def test_hold_does_not_batch_a_plain_policy(self, instance):
        class Holding(RecordingPolicy):
            def hold(self):
                return 5

        short = instance.with_horizon(20)
        pol = Holding(np.array([1.0, 1.0]))
        trace = run_episode(short, pol, seed=7)
        assert [call[:2] for call in pol.calls] == plain_calls(short.T, trace.shutoff_period)

    def test_blocked_and_stepwise_policies_agree_on_aggregate(self, instance):
        # block sizes must not change the outcome distribution (see
        # TestReferenceSimulator for the test and its threshold)
        tight = tight_instance(instance)
        p = np.array([1.0, 1.1])
        blocked = [episode_stats(run_episode(tight, FixedCommitPolicy(p), seed,
                                             record_periods=True)) for seed in GATE_SEEDS]
        stepwise = [episode_stats(run_episode(tight, FixedPricePolicy(p), seed,
                                              record_periods=True)) for seed in REFERENCE_SEEDS]
        assert_same_distributions(blocked, stepwise)


class OnePeriodRows(CommitPolicy):
    """Posts one price for one period per row, `rows` rows per request."""

    name = "one-period-rows"

    def __init__(self, price, rows):
        self.prices = np.tile(np.asarray(price, float), (rows, 1))
        super().__init__()

    def _driver(self):
        while True:
            yield (self.prices, np.ones(len(self.prices), dtype=np.int64))


class RecordingCommitPolicy(FixedCommitPolicy):
    """Captures the periods of its next_price and observe_block calls."""

    def __init__(self, price, length):
        self.calls = []
        super().__init__(price, length)

    def next_price(self, period):
        self.calls.append(("ask", period))
        return super().next_price(period)

    def observe_block(self, period, y_avgs, lengths):
        self.calls.append(("obs", period))
        super().observe_block(period, y_avgs, lengths)


class TestShutoff:
    """An episode ends with the request in which the market shuts."""

    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    def test_the_shutoff_request_is_the_last_and_never_answered(self, instance, noise):
        starved = dataclasses.replace(instance.with_horizon(10_000), noise=noise,
                                      gamma=np.array([0.01, 0.01]))
        pol = RecordingCommitPolicy(np.array([1.0, 1.0]), length=100)
        trace = run_episode(starved, pol, seed=3, record_periods=True)
        assert trace.shutoff_period is not None and trace.shutoff_period < starved.T - 1_000
        start = (trace.shutoff_period - 1) // 100 * 100   # periods before the shutoff request
        assert pol.calls == [(kind, t + 1) for t in range(0, start, 100)
                             for kind in ("ask", "obs")] + [("ask", start + 1)]
        assert len(pol.answers) == start // 100 and pol.periods_observed == start
        assert np.isnan(trace.periods["price"][trace.shutoff_period:]).all()
        assert not np.isnan(trace.periods["price"][:trace.shutoff_period]).any()
        after = trace.periods["inventory"][trace.shutoff_period - 1:]
        assert (after == trace.final_inventory).all()


class TestLedger:
    """run_episode buffers sim._LEDGER_ROWS served requests, then tallies and
    hashes their rows once, however many rows they hold; the result must not
    depend on where a batch ends."""

    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    def test_chunks_fold_as_rows_served_alone(self, instance, noise):
        T = 3 * sim._LEDGER_ROWS
        inst = dataclasses.replace(instance.with_horizon(T), noise=noise,
                                   gamma=np.array([0.12, 0.5]))
        p = np.array([1.5, 1.5])
        per_period = run_episode(inst, FixedPricePolicy(p), seed=5, record_periods=True)
        assert sim._LEDGER_ROWS + 1000 < per_period.shutoff_period < T - 1000
        assert math.fsum(per_period.periods["revenue"]) == per_period.total_revenue
        for rows in (1000, 5000):   # a few requests, all folded in one batch at the end
            scheduled = run_episode(inst, OnePeriodRows(p, rows), seed=5)
            assert scheduled.fingerprint == per_period.fingerprint
            assert scheduled.total_revenue == per_period.total_revenue
            assert scheduled.shutoff_period == per_period.shutoff_period


class AnsweredOnce(FixedCommitPolicy):
    """A driver that returns after its first answer."""

    def _driver(self):
        self.answers.append((yield (self.price, self.length)))


class TestCommitPolicy:
    """A commit policy is answered once per request, with its average demand;
    a request that the horizon cuts short is never answered."""

    ROWS = np.array([[1.0, 1.2], [1.4, 0.9], [1.1, 1.1]])

    @pytest.mark.parametrize("price, length, noise", [
        (ROWS[0], 60, "multinomial"),                   # the horizon cuts a one-row request
        (ROWS, np.array([20, 10, 30]), "multinomial"),  # ... a schedule inside its last row
        (ROWS, np.array([30, 20, 20]), "multinomial"),  # ... on the boundary after its first row
        (ROWS[0], 60, "none"),                          # the same, in a noiseless market
        (ROWS, np.array([20, 10, 30]), "none"),
        (ROWS, np.array([30, 20, 20]), "none"),
    ], ids=["row", "schedule-inside-row", "schedule-on-boundary",
            "noiseless-row", "noiseless-schedule-inside-row", "noiseless-schedule-on-boundary"])
    @pytest.mark.parametrize("policy_class", [FixedCommitPolicy, AnsweredOnce])
    def test_cut_request_is_never_answered(self, instance, policy_class, price, length, noise):
        inst = dataclasses.replace(instance.with_horizon(100), gamma=np.array([5.0, 5.0]),
                                   noise=noise)
        policy = policy_class(price, length)
        trace = run_episode(inst, policy, seed=1, record_periods=True)
        prices, lengths = np.atleast_2d(price), np.atleast_1d(length)
        ends = np.cumsum(lengths)
        demand = trace.periods["demand"]
        # noiseless: the exact mean demand, as DemandOracle answers it
        avgs = (inst.model.mean(prices) if noise == "none" else
                np.array([demand[e - k:e].sum(axis=0) / k for e, k in zip(ends, lengths)]))
        assert trace.shutoff_period is None and ends[-1] < inst.T < 2 * ends[-1]
        assert len(policy.answers) == 1
        # a (price, length) pair is the one-row schedule, answered (1, N)
        np.testing.assert_array_equal(policy.answers[0], avgs, strict=True)
        assert policy.answers[0].tobytes() == avgs.tobytes()
        assert policy.periods_observed == ends[-1]
        posted = np.repeat(prices, lengths, axis=0)
        if policy_class is AnsweredOnce:   # frozen at its last price
            posted = np.vstack([posted, np.repeat(prices[-1:], inst.T - ends[-1], axis=0)])
        else:   # the request again, cut at the horizon
            posted = np.vstack([posted, posted])[:inst.T]
        np.testing.assert_array_equal(trace.periods["price"], posted)

    @pytest.mark.parametrize("length", [0, -5, True, False, np.int64(0),
                                        [True], [2.7], np.array([2.0]), []])
    def test_one_row_length_must_be_a_positive_integer(self, length):
        # a pair's length and an array's lengths are checked by one rule
        prices = self.ROWS[0] if np.ndim(length) == 0 else self.ROWS[:len(length)]
        with pytest.raises(ValueError, match="at least 1"):
            sim._as_schedule((prices, length))

    @pytest.mark.parametrize("length", [3, np.int32(3), [3], np.array([3], dtype=np.uint8)])
    def test_integer_lengths_of_any_width_are_accepted(self, length):
        prices = self.ROWS[0] if np.ndim(length) == 0 else self.ROWS[:1]
        prices, lengths = sim._as_schedule((prices, length))
        np.testing.assert_array_equal(prices, self.ROWS[:1], strict=True)
        np.testing.assert_array_equal(lengths, np.array([3]), strict=True)

    def test_zero_length_request_raises_instead_of_hanging(self, instance):
        class ZeroAfterFirst(CommitPolicy):
            def _driver(self):
                yield (TestCommitPolicy.ROWS[0], 5)
                for _ in range(100):   # bounded, so that accepting it ends the episode
                    yield (TestCommitPolicy.ROWS[0], 0)

        with pytest.raises(ValueError, match="at least 1"):
            run_episode(instance.with_horizon(100), ZeroAfterFirst(), seed=1)


def reference_episode(instance, policy, seed):
    """Per-period simulator: one uniform draw per open period, inventory checked
    purchase by purchase. Each request (a schedule, or one period of a policy
    without one), cut at the horizon, is posted period by period and then
    observed whole with each row's average demand, as run_episode observes
    it, unless the horizon cut it or the market shut in it.
    Returns (shutoff_period, price, demand, inventory rows)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    N, M, T = instance.N, instance.M, instance.T
    A = instance.A
    remaining = instance.capacity.astype(float).copy()
    price, demand = np.full((T, N), np.nan), np.zeros((T, N))
    inventory = np.empty((T, M))
    shutoff = None
    t = 0
    while t < T:
        start = t
        p = policy.next_price(t + 1)
        plan = policy.schedule()
        rows = [(p, 1)] if plan is None else list(zip(*plan))
        sums, ks = [], []
        for row_price, length in rows:
            if t == T:
                break
            k = min(int(length), T - t)
            for u in range(t, t + k):
                if shutoff is None:
                    price[u] = row_price
                    cum = np.cumsum(instance.model.mean(np.asarray(row_price, float)))
                    i = int(np.searchsorted(cum, rng.random(), side="right"))
                    if i < N and np.any(A[:, i] > remaining):
                        shutoff = u + 1
                    elif i < N:
                        demand[u, i] = 1.0
                        remaining = remaining - A[:, i]
                inventory[u] = remaining
            sums.append(demand[t:t + k].sum(axis=0))
            ks.append(k)
            t += k
        if shutoff is not None or sum(int(k) for _, k in rows) > t - start:
            break   # the market shut, or the horizon cut the request: no answer
        avgs = np.array(sums) / np.array(ks)[:, None]
        if plan is None:
            policy.observe(start + 1, avgs[0])
        else:
            policy.observe_block(start + 1, avgs, np.array(ks))
    inventory[t:] = remaining
    return shutoff, price, demand, inventory


# The distributional gate. Fixed in advance: 2,000 seeds per side (disjoint
# ranges), the tight instance below, and per statistic a chi-square test of
# homogeneity over consecutive values binned to at least 20 pooled episodes
# per bin, which must give p >= 1e-4 (12 such tests over the three policies:
# a familywise false alarm rate of at most 0.12%).
GATE_SEEDS = range(1, 2_001)
REFERENCE_SEEDS = range(1_000_001, 1_002_001)
GATE_MIN_BIN = 20
GATE_P_MIN = 1e-4


def tight_instance(instance):
    """T = 100 with two units of each resource, so nearly every episode shuts
    off within a few dozen periods. Capacities and consumptions are integers,
    so both inventory paths are exact."""
    tight = dataclasses.replace(instance.with_horizon(100), gamma=np.array([0.02, 0.02]))
    assert np.all(tight.capacity == np.round(tight.capacity))
    return tight


def episode_stats(trace=None, shutoff=None, demand=None):
    """Per-product units sold, the shutoff period (T + 1 if none) and the gap
    from the last sale to the shutoff (-1 if none). The gap is exact for
    recorded rows too: given a block's served counts, their order is uniform."""
    if trace is not None:
        shutoff, demand = trace.shutoff_period, trace.periods["demand"]
    T = demand.shape[0]
    sales = np.nonzero(demand.any(axis=1))[0] + 1
    gap = -1 if shutoff is None else shutoff - (sales[-1] if sales.size else 0)
    return tuple(demand.sum(axis=0).astype(int)) + (shutoff or T + 1, gap)


def homogeneity_pvalue(a, b, min_bin=GATE_MIN_BIN):
    """Chi-square test that two integer samples share one distribution, over
    bins of consecutive values holding at least min_bin pooled samples."""
    values, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    edges, acc = [], 0
    for value, count in zip(values, counts):
        acc += count
        if acc >= min_bin:
            edges.append(value)
            acc = 0
    edges = edges[:-1]   # the last bin takes whatever is left over
    if not edges:
        return 1.0
    table = [np.bincount(np.searchsorted(edges, x), minlength=len(edges) + 1) for x in (a, b)]
    return chi2_contingency(table, correction=False).pvalue


def assert_same_distributions(stats_a, stats_b):
    a, b = np.array(stats_a), np.array(stats_b)
    names = [f"sold_{i + 1}" for i in range(a.shape[1] - 2)] + ["shutoff_period", "gap"]
    pvalues = {name: homogeneity_pvalue(a[:, j], b[:, j]) for j, name in enumerate(names)}
    assert min(pvalues.values()) >= GATE_P_MIN, pvalues


@pytest.fixture(scope="module")
def reference_stats(instance, fluid_solution):
    """episode_stats of a policy's per-period reference episodes on the tight
    instance over REFERENCE_SEEDS, by policy name, each sample made once."""
    from nrmlab import build_policy
    tight, samples = tight_instance(instance), {}

    def stats(policy):
        if policy not in samples:
            samples[policy] = []
            for seed in REFERENCE_SEEDS:
                shutoff, _, demand, _ = reference_episode(
                    tight, build_policy(policy, tight, fluid_solution), seed)
                samples[policy].append(episode_stats(shutoff=shutoff, demand=demand))
        return samples[policy]

    return stats


class TestReferenceSimulator:
    """The schedule kernel against the per-period reference, in distribution:
    the random streams differ, so episodes are compared as samples. Kernel
    episodes serve pdnrm's probes and ETC's grid as multi-row schedules, and
    nearly all of them shut off inside one (1,996 of 2,000 pdnrm episodes,
    1,992 of 2,000 ETC episodes); the reference posts them period by period."""

    @pytest.mark.parametrize("policy", ["pdnrm", "clairvoyant", "etc"])
    def test_matches_per_period_reference(self, policy, instance, fluid_solution,
                                          reference_stats):
        from nrmlab import build_policy
        tight = tight_instance(instance)
        # the clairvoyant policy posts the loose instance's p*, which overspends
        kernel = [episode_stats(run_episode(tight, build_policy(policy, tight, fluid_solution),
                                            seed, record_periods=True)) for seed in GATE_SEEDS]
        assert np.mean([s[-2] <= tight.T for s in kernel]) >= 0.9
        assert_same_distributions(kernel, reference_stats(policy))

    def test_reference_answers_each_row_with_its_mean_demand(self, instance):
        # a loose instance keeps the market open, so the answer is read: the
        # schedule ends at period 60, and the horizon cuts the next request
        loose = dataclasses.replace(instance.with_horizon(100), gamma=np.array([5.0, 5.0]))
        rows, lengths = TestCommitPolicy.ROWS, np.array([20, 10, 30])
        policy = FixedCommitPolicy(rows, lengths)
        shutoff, price, demand, _ = reference_episode(loose, policy, seed=1)
        ends = np.cumsum(lengths)
        assert shutoff is None
        np.testing.assert_array_equal(price, np.vstack([np.repeat(rows, lengths, axis=0)] * 2)[:100])
        means = np.array([demand[e - k:e].mean(axis=0) for e, k in zip(ends, lengths)])
        assert len(policy.answers) == 1 and policy.periods_observed == ends[-1]
        np.testing.assert_array_equal(policy.answers[0], means)

    @pytest.mark.parametrize("policy", ["pdnrm", "clairvoyant"])
    def test_gate_catches_a_biased_shutoff(self, policy, instance, fluid_solution,
                                           reference_stats, monkeypatch):
        # A mutant kernel whose halving puts a segment's no-purchase periods
        # first: its counts stay consistent, but sales and the shutoff come
        # late. Fixed in advance: 300 seeds per side from the gate's ranges.
        from nrmlab import build_policy
        tight = tight_instance(instance)
        reference = reference_stats(policy)[:300]
        split = sim._split
        monkeypatch.setattr(sim, "_split", lambda A, seg, k, remaining, rng:
                            split(A, seg, k, remaining, IdleFirst(rng)))
        mutant = [episode_stats(run_episode(tight, build_policy(policy, tight, fluid_solution),
                                            seed, record_periods=True)) for seed in GATE_SEEDS[:300]]
        with pytest.raises(AssertionError):
            assert_same_distributions(mutant, reference)
        shutoffs = [np.array(stats)[:, -2] for stats in (mutant, reference)]
        assert homogeneity_pvalue(*shutoffs) < GATE_P_MIN


class TestLongRows:
    """A sampled row longer than sim._ROW_LIMIT is served as consecutive
    sub-rows at its price, each drawn before the fit is known, so the halving
    inside the row that runs out never splits more periods than the limit."""

    def test_a_row_of_3e9_periods_sells_out_inside_it(self, instance, fluid_solution):
        # the bundled p* overspends a 0.1% smaller capacity, so the one row,
        # cut at the horizon, runs out near its end
        long = dataclasses.replace(instance.with_horizon(3 * 10**9), gamma=instance.gamma * 0.999)
        for seed in (1, 2, 3):
            t0 = time.perf_counter()
            trace = run_episode(long, FixedCommitPolicy(fluid_solution.p_star), seed)
            assert time.perf_counter() - t0 < 0.5
            assert 0.99 * long.T < trace.shutoff_period <= long.T
            assert trace.inventory_ok

    def test_a_long_row_that_fits_draws_as_without_a_limit(self, instance):
        # the estimation oracle serves rows without an inventory limit, so a
        # row that fits draws the same counts and leaves the same stream
        price, k = np.array([[1.5, 1.5]]), np.array([3 * 10**9 + 7])
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        _, free, _ = sim._serve(instance.model, instance.A, price, k, None, a)
        served, counts, after = sim._serve(instance.model, instance.A, price, k,
                                           np.array([1e12, 1e12]), b)
        assert served.tolist() == k.tolist() and counts.sum() == k[0]
        np.testing.assert_array_equal(free, counts)
        np.testing.assert_array_equal(after[-1], 1e12 - instance.A @ counts[0, :-1])
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("K", [1, 3, 9])
    def test_sub_rows_keep_one_call_equal_to_row_by_row(self, instance, K, monkeypatch):
        # with every row longer than 7 periods served as sub-rows, a schedule in
        # one call is still its rows one at a time, and each row's counts, served
        # periods and inventory after it add up
        monkeypatch.setattr(sim, "_ROW_LIMIT", 7)
        A = TestScheduleKernel.A
        rng = np.random.default_rng(K)
        prices, lengths = 0.8 + 4.2 * rng.random((K, 2)) ** 2, rng.integers(5, 60, size=K)
        short = 0
        for seed in range(50):
            remaining = np.random.default_rng([seed, 9]).uniform(0.0, 0.1 * lengths.sum(), 2)
            a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            served, counts, after = sim._serve(instance.model, A, prices, lengths,
                                               remaining.copy(), a)
            ref_served, ref_counts, ref_after = serve_row_by_row(
                instance.model, A, prices, lengths, remaining.copy(), b, False)
            assert served.tolist() == ref_served
            np.testing.assert_array_equal(counts, ref_counts)
            np.testing.assert_array_equal(after[-1], ref_after)
            assert a.bit_generator.state == b.bit_generator.state
            assert counts.sum(axis=1).tolist() == served.tolist()
            np.testing.assert_allclose(after, remaining - np.cumsum(counts[:, :-1] @ A.T, axis=0))
            short += served[-1] < lengths[len(served) - 1]
        assert short >= 25

    @pytest.mark.parametrize("policy", ["clairvoyant", "pdnrm"])
    def test_sub_rows_match_per_period_reference(self, policy, instance, fluid_solution,
                                                 reference_stats, monkeypatch):
        # the reference gate's rule on the law of sales, the shutoff and the
        # gap, with every row longer than 3 periods served as sub-rows
        from nrmlab import build_policy
        tight = tight_instance(instance)
        parts, real = [], sim._serve_parts
        monkeypatch.setattr(sim, "_ROW_LIMIT", 3)
        monkeypatch.setattr(sim, "_serve_parts", lambda *args: parts.append(1) or real(*args))
        kernel = [episode_stats(run_episode(tight, build_policy(policy, tight, fluid_solution),
                                            seed, record_periods=True)) for seed in GATE_SEEDS]
        assert len(parts) >= len(GATE_SEEDS)
        assert_same_distributions(kernel, reference_stats(policy))


class IdleFirst:
    """Generator stand-in whose multivariate hypergeometric head draw takes
    the no-purchase periods (the last color) first, not in uniform order."""

    def __init__(self, rng):
        self.rng = rng

    def multivariate_hypergeometric(self, colors, nsample):
        head = np.zeros_like(colors)
        head[-1] = idle = min(int(colors[-1]), nsample)
        if nsample > idle:
            head[:-1] = self.rng.multivariate_hypergeometric(colors[:-1], nsample - idle)
        return head


class FixedCounts:
    """Generator stand-in: the block's multinomial draw returns fixed counts,
    and the kernel's splits come from a real generator."""

    def __init__(self, counts, seed):
        self.counts = np.asarray(counts)
        self.rng = np.random.default_rng(seed)

    def multinomial(self, k, pvals):
        assert k == self.counts.sum()
        return self.counts.copy()

    def multivariate_hypergeometric(self, colors, n):
        return self.rng.multivariate_hypergeometric(colors, n)


class FixedMean:
    """Demand model stand-in with one mean demand at every price."""

    def __init__(self, d):
        self.d = np.asarray(d, float)

    def mean(self, p):
        return np.broadcast_to(self.d, np.shape(p)).copy()


def split_schedules(policy_class):
    """policy_class with every schedule its driver yields posted as single
    commitments, one row after another: the simulator serves each as a
    one-row schedule."""
    driver = policy_class._driver

    class Split(policy_class):
        def _driver(self):
            gen = driver(self)
            request = next(gen)
            while True:
                prices, lengths = request
                if np.ndim(lengths) == 0:
                    answer = yield request
                else:
                    answer = np.empty(np.shape(prices))
                    for i, (price, length) in enumerate(zip(prices, lengths)):
                        answer[i] = yield (price, int(length))
                try:
                    request = gen.send(answer)
                except StopIteration:
                    return

    return Split


def serve_row_by_row(model, A, prices, lengths, remaining, rng, noiseless):
    """The schedule served by one-row kernel calls, as an episode serves
    single commitments: rows after the first short one go unserved."""
    served, demand = [], []
    for i in range(len(lengths)):
        s, d, after = sim._serve(model, A, prices[i:i + 1], lengths[i:i + 1], remaining, rng,
                                 noiseless)
        served.append(int(s[0]))
        demand.append(d[0])
        remaining = after[-1]
        if s[0] < lengths[i]:
            break
    return served, np.array(demand), remaining


class TestScheduleKernel:
    """One kernel call on a K-row schedule against K one-row calls."""

    A = np.array([[1.0, 1.0], [0.0, 2.0]])

    def schedule(self, K):
        rng = np.random.default_rng(K)
        return 0.8 + 4.2 * rng.random((K, 2)) ** 2, rng.integers(20, 60, size=K)

    # where the first unservable period falls; noiseless consumption is not
    # integral, so no inventory fits a noiseless schedule exactly
    @pytest.mark.parametrize("where, noiseless", [
        (where, noiseless) for where in ("first", "middle", "last", "none", "exact")
        for noiseless in (False, True) if not (noiseless and where == "exact")])
    @pytest.mark.parametrize("K", [3, 9])
    def test_one_call_equals_row_by_row(self, instance, K, where, noiseless):
        model = instance.model
        prices, lengths = self.schedule(K)
        checked = 0
        for seed in range(25):
            # the cumulative consumption of the rows, served without an inventory limit
            rng = np.random.default_rng([seed, 1])
            sold = lengths[:, None] * model.mean(prices) if noiseless else np.array(
                [sim._serve(model, self.A, prices[i:i + 1], lengths[i:i + 1], None, rng)[1][0, :2]
                 for i in range(K)])
            used = np.cumsum(sold @ self.A.T, axis=0)
            r = {"first": 0, "middle": K // 2, "last": K - 1}.get(where, K - 1)
            if where not in ("none", "exact") and np.array_equal(used[r], used[r - 1] if r else [0, 0]):
                continue    # row r sells nothing, so it cannot be the short one
            checked += 1
            if where in ("none", "exact"):
                remaining = used[-1] + (1.0 if where == "none" else 0.0)
            else:
                before = used[r - 1] if r else np.zeros(2)
                remaining = before + np.floor((used[r] - before) / 2)
            a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            served, demand, after = sim._serve(model, self.A, prices, lengths, remaining.copy(),
                                               a, noiseless)
            ref_served, ref_demand, ref_after = serve_row_by_row(
                model, self.A, prices, lengths, remaining.copy(), b, noiseless)
            assert served.tolist() == ref_served
            np.testing.assert_array_equal(demand, ref_demand)
            np.testing.assert_array_equal(after[-1], ref_after)
            assert a.bit_generator.state == b.bit_generator.state
            short = len(served) - 1 if served[-1] < lengths[len(served) - 1] else None
            # the rows draw as they did without a limit, so the first one whose
            # consumption crosses `remaining` is row r
            assert short == (None if where in ("none", "exact") else r)
        assert checked >= 15

    @pytest.mark.parametrize("case", ["short", "rounding", "floor", "restock"])
    def test_schedule_that_runs_out_equals_row_by_row(self, instance, case):
        from nrmlab import LinearDemand

        class AlwaysBuys:   # one product, bought every period
            def mean(self, p):
                return np.ones_like(p)

        model, A = instance.model, self.A
        prices, lengths = self.schedule(5)
        remaining = np.array([30.0, 30.0])
        if case == "rounding":
            # 1 - 0.1 * 3 - 0.1 * 7 rounds below 0, though 10 * 0.1 == 1.0
            model, A, prices = AlwaysBuys(), np.array([[0.1]]), np.ones((2, 1))
            lengths, remaining = np.array([3, 7]), np.array([1.0])
        elif case == "floor":
            # noiseless: row 2 leaves 2048.1 - 20481 * 0.1 == 0, so it serves
            # whole, though 2048.1 / 0.1 is 20480.999999999996; row 3 serves none
            model, A, prices = AlwaysBuys(), np.array([[0.1]]), np.ones((3, 1))
            lengths, remaining = np.array([5, 20481, 7]), np.array([2048.6])
        elif case == "restock":
            # noiseless: D_1 is 0 at the corner (5, 0.8) but evaluates to
            # -5.6e-17, which sells nothing, so resource 1 stays at 0;
            # resource 2 runs out in row 2
            B = np.array([[0.1, -0.01], [-0.01, 0.1]])
            model = LinearDemand(np.maximum(B * 0.8, B * 5.0).sum(axis=1), B)
            A, prices = np.eye(2), np.array([[5.0, 0.8], [5.0, 0.8], [0.8, 5.0]])
            lengths, remaining = np.array([3, 7, 4]), np.array([0.0, 3.0])
            assert model.mean(prices[0])[0] < 0
        noiseless = case in ("floor", "restock")
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        served, demand, after = sim._serve(model, A, prices, lengths, remaining.copy(), a,
                                           noiseless)
        ref_served, ref_demand, ref_after = serve_row_by_row(model, A, prices, lengths,
                                                             remaining.copy(), b, noiseless)
        if noiseless:
            assert served.tolist() == {"floor": [5, 20481, 0], "restock": [3, 3]}[case]
        assert served.tolist() == ref_served
        np.testing.assert_array_equal(demand, ref_demand)
        np.testing.assert_array_equal(after[-1], ref_after)
        assert a.bit_generator.state == b.bit_generator.state
        assert served[-1] < lengths[len(served) - 1]

    @pytest.mark.parametrize("case, expected", [
        ("exact", 8), ("one_short", 7), ("unused", 8), ("below_zero", 6), ("barely_used", 6),
        ("quotient_rounds_down", 7), ("product_rounds_up", 2)])
    def test_noiseless_row_serves_what_each_resource_covers(self, case, expected):
        """A one-row noiseless request serves the periods _noiseless_served
        allows and leaves remaining - served * consumption."""
        from nrmlab import LinearDemand

        # B's demand at the corner (5, 0.8) is 0 for product 1 but rounds to -5.6e-17
        B = np.array([[0.1, -0.01], [-0.01, 0.1]])
        corner = LinearDemand(np.maximum(B * 0.8, B * 5.0).sum(axis=1), B)
        model, A, remaining = {
            "exact": (FixedMean([0.25, 0.25]), self.A, [4.0, 4.0]),       # uses (0.5, 0.5)
            "one_short": (FixedMean([0.25, 0.25]), self.A, [3.75, 4.0]),  # 7.5 periods fit
            "unused": (FixedMean([0.25, 0.0]), self.A, [2.0, 0.0]),       # resource 2 is empty
            "below_zero": (corner, np.eye(2), [0.0, 3.0]),                # 0.462 per period
            # resource 2 would cover about 1e25 periods, resource 1 covers 6.7
            "barely_used": (FixedMean([0.3, 1.3307881755738656e-22]), np.eye(2),
                            [2.0, 1428.5714285714287]),
            # 4.55 / 0.65 rounds to 6.999999999999999, but 7 * 0.65 == 4.55
            "quotient_rounds_down": (FixedMean([0.65, 0.0]), self.A, [4.55, 1.0]),
            # 0.3 / 0.1 rounds to 2.9999999999999996, and 3 * 0.1 rounds above 0.3
            "product_rounds_up": (FixedMean([0.1, 0.0]), self.A, [0.3, 1.0]),
        }[case]
        price, remaining = np.array([5.0, 0.8]), np.array(remaining)
        mean = model.mean(price)
        assert (mean[0] < 0) == (case == "below_zero")
        sold = np.maximum(mean, 0.0)   # a mean below zero sells nothing
        cons = A.dot(sold)
        served, demand, after = sim._serve(model, A, price[None], np.array([8]),
                                           remaining.copy(), None, noiseless=True)
        assert served.tolist() == [expected] == [sim._noiseless_served(remaining, cons, 8)]
        np.testing.assert_array_equal(demand, sold[None])
        np.testing.assert_array_equal(after, [remaining - expected * cons])
        if case == "below_zero":
            assert after[0, 0] == 0.0

    @staticmethod
    def largest_fit(before, c, k):
        """The largest s in 0..k with fl(s c) <= before, 0 if none, by
        bisection; c <= 0 never limits."""
        if c <= 0:
            return k
        lo, hi = -1, k   # fl(lo c) <= before or lo == -1; the answer is at most hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid * c <= before else (lo, mid - 1)
        return max(lo, 0)

    def test_noiseless_rule_equals_a_loop_over_resources(self):
        """_noiseless_served against the largest fit of each resource found
        by bisection, on inventories of a whole number of periods'
        consumption, some one ulp less, and on resources used barely or not
        at all. Its start, the floor of the quotient, lies below the answer on
        exact fits and above it where the product rounds up."""
        rng = np.random.default_rng(27)
        K, M = 2_000, 3
        cons = rng.random((K, M)) * rng.choice([1.0, 1e-22, 0.0, -1e-17], size=(K, M),
                                               p=[0.85, 0.05, 0.05, 0.05])
        lengths = rng.integers(1, 5_000, size=K)
        before = rng.integers(0, 6_000, size=(K, M)) * cons
        before = np.where(rng.random((K, M)) < 0.5, np.nextafter(before, 0.0), before)
        before[cons <= 0] = rng.random(np.count_nonzero(cons <= 0))
        below = above = 0
        for b, c, k in zip(before, cons, lengths.tolist()):
            each = [self.largest_fit(x, y, k) for x, y in zip(b.tolist(), c.tolist())]
            served = sim._noiseless_served(b, c, k)
            assert type(served) is int and served == min(each)
            for x, y, s in zip(b.tolist(), c.tolist(), each):
                if y > 0 and s < k:
                    below += math.floor(x / y) < s
                    above += math.floor(x / y) > s
        assert below >= 10 and above >= 10

    @staticmethod
    def fits_by_condition(before, cons, lengths):
        """Per row, the scan's inventory after it and whether it leaves two
        periods' margin: k < 2**51 and each resource has cons <= 0 or
        after >= 2 cons."""
        after = before - lengths[:, None] * cons
        with np.errstate(invalid="ignore"):
            pairs = (cons <= 0.0) | (after >= 2.0 * cons)
        return after, (lengths < 2**51) & pairs.all(axis=1)

    def test_rows_that_fit_serve_their_whole_length(self):
        """Any row whose scan leaves every resource at 0 or more serves its
        whole length, margin or none."""
        rng = np.random.default_rng(32)
        held = near = 0
        for _ in range(400):
            K, M = int(rng.integers(1, 65)), int(rng.integers(1, 4))
            lengths = np.minimum(np.exp2(rng.uniform(0.0, 50.0, size=K)).astype(np.int64), 2**50)
            cons = rng.random((K, M)) * np.exp2(rng.uniform(-30.0, 10.0, size=(K, M)))
            cons = np.where(rng.random((K, M)) < 0.1, rng.choice(
                [0.0, -0.0, -1e-17, -0.3, np.nan, np.inf, -np.inf], size=(K, M)), cons)
            with np.errstate(invalid="ignore", over="ignore"):   # inf and NaN consumption
                # inventories that leave about two periods' consumption, a few
                # ulps either side, or none (an exact fit), one period or many
                spare = rng.choice([0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 1e6], size=(K, M)) * cons
                before = lengths[:, None] * cons + spare
                for _ in range(int(rng.integers(0, 4))):
                    before = np.nextafter(before, rng.choice([-np.inf, np.inf], size=(K, M)))
                before = np.where(rng.random((K, M)) < 0.05, -rng.random((K, M)), before)
                after = before - lengths[:, None] * cons
                ok = (after >= 0.0).all(axis=1)
                near += int((ok[:, None] & (cons > 0) & (after < cons)).sum())
            served = [sim._noiseless_served(b, c, k)
                      for b, c, k in zip(before, cons, lengths.tolist())]
            assert np.array(served)[ok].tolist() == lengths[ok].tolist()
            held += int(ok.sum())
        assert held >= 2_000 and near >= 200

    @pytest.mark.parametrize("before, c, k, fits", [
        (2.5, 0.25, 8, True),                  # after is exactly 2 cons
        (2.75, 0.25, 8, True),
        (np.nextafter(2.5, 0.0), 0.25, 8, False),
        (0.0, 0.0, 8, True),                   # cons 0.0 and -0.0 never limit a row
        (0.0, -0.0, 8, True),
        (-1.0, -0.0, 8, True),                 # nor does a negative one, from below zero too
        (-1.0, -1e-17, 8, True),
        (1.0, -np.inf, 8, True),
        (1.0, np.inf, 8, False),
        (np.inf, np.inf, 8, False),            # inf - inf is NaN
        (1.0, np.nan, 8, False),
        (np.nan, 0.25, 8, False),
        (-1.0, 0.25, 8, False),                # below zero, with the resource used
        (2048.1, 0.1, 20481, False),           # the `floor` case's row 2, an exact fit
        (2048.6, 0.1, 5, True),                # ... and its row 1
        (float(2**51 + 2), 1.0, 2**51, False),  # too long for a margin argument
        (float(2**50 + 2), 1.0, 2**50, True),
    ])
    def test_the_shortcuts_edge_cases(self, before, c, k, fits):
        """fits: the row has two periods' margin. A margin implies a whole
        row, and the row serves whole exactly when c <= 0 or fl(k c) <= before."""
        with np.errstate(invalid="ignore"):
            _, margin = self.fits_by_condition(np.array([[before]]), np.array([[c]]),
                                               np.array([k]))
        served = sim._noiseless_served(np.array([before]), np.array([c]), k)
        assert margin[0] == fits
        assert served == k or not fits
        assert (served == k) == (c <= 0 or k * c <= before)
        assert 0 <= served <= k

    def test_exact_fits_serve_their_whole_length(self):
        """A row whose k periods the inventory covers exactly, fl(k cons) ==
        before, serves k through the kernel and leaves 0, at k in [2**14,
        2**50], where fl(before / cons) often rounds below k."""
        rng = np.random.default_rng(0)
        lengths = np.exp2(rng.uniform(14.0, 50.0, size=2_000)).astype(np.int64)
        cons = rng.random(2_000)
        befores = lengths * cons
        for k, c, before in zip(lengths.tolist(), cons.tolist(), befores.tolist()):
            served, _, after = sim._serve(FixedMean([c]), np.eye(1), np.ones((1, 1)), np.array([k]),
                                          np.array([before]), None, noiseless=True)
            assert served.tolist() == [k] and after.tolist() == [[0.0]]
        assert all(sim._noiseless_served(np.array([b]), np.array([c]), k) == k
                   for k, c, b in zip(lengths.tolist(), cons.tolist(), befores.tolist()))
        assert (np.floor(befores / cons) < lengths).sum() >= 50

    def test_a_noiseless_episode_runs_the_rule_only_near_its_shutoff(self, monkeypatch):
        """The bundled instance without noise, plan_scaling's constants, T = 1e6:
        only a request that runs short takes _noiseless_served, and every row
        served is the one the rule gives from the inventory before it."""
        from nrmlab import PdNrmPolicy, config_from_dict, load_plan
        plan = load_plan(os.path.join(ROOT, "configs", "plan_scaling.json"))
        inst = dataclasses.replace(plan.instance.with_horizon(10**6), noise="none")
        cfg = config_from_dict(plan.pdnrm_config, inst)
        calls, rule, serve, rows = [], sim._noiseless_served, sim._serve, []

        def counted(*args):
            calls.append(1)
            return rule(*args)

        def spy(model, A, prices, lengths, remaining, *args):
            served, demand, after = serve(model, A, prices, lengths, remaining, *args)
            befores = [remaining] + list(after[:-1])
            rows.extend(zip(befores, demand, lengths.tolist(), served.tolist(), after))
            return served, demand, after

        monkeypatch.setattr(sim, "_noiseless_served", counted)
        monkeypatch.setattr(sim, "_serve", spy)
        run_episode(inst, PdNrmPolicy(inst, cfg), seed=1)
        assert len(calls) <= 2
        assert len(rows) > 300
        for before, mean, k, s, after in rows:
            cons = inst.A.dot(mean)
            assert s == rule(before, cons, k)
            np.testing.assert_array_equal(after, before - s * cons)

    def test_a_barely_used_resource_does_not_stall_a_noiseless_episode(self):
        """At (0.8, 5.0) product 2 sells 1.3e-22 a period, so its resource
        would cover about 1e25 periods; each 1,000-period row bounds that
        first. Resource 1 holds 5,000 units at 0.31 a period, so 16,127
        periods sell and period 16,128 shuts the market."""
        inst = Instance(LogitDemand([0.4, 0.0], [1.5, 10.0]), A=np.eye(2),
                        gamma=np.array([0.05, 0.014285714285714287]), T=100_000,
                        price_min=0.8, price_max=5.0, noise="none")
        trace = run_episode(inst, FixedCommitPolicy([0.8, 5.0], 1_000), seed=1)
        assert trace.shutoff_period == 16_128

    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    @pytest.mark.parametrize("policy", ["pdnrm", "etc"])
    def test_episodes_equal_with_schedules_split(self, instance, policy, noise, monkeypatch):
        from nrmlab import PdNrmPolicy, ExploreThenCommitPolicy
        cls = {"pdnrm": PdNrmPolicy, "etc": ExploreThenCommitPolicy}[policy]
        tight = dataclasses.replace(tight_instance(instance), noise=noise)
        serve, cut = sim._serve, []

        def spy(model, A, prices, lengths, *args):
            served, demand, after = serve(model, A, prices, lengths, *args)
            cut.append(len(lengths) > 1 and served[-1] < lengths[len(served) - 1])
            return served, demand, after

        monkeypatch.setattr(sim, "_serve", spy)
        inside = 0
        for seed in range(40):
            cut.clear()
            whole = run_episode(tight, cls(tight), seed, record_periods=True)
            inside += any(cut)   # shut off inside a multi-row schedule
            split = run_episode(tight, split_schedules(cls)(tight), seed, record_periods=True)
            assert whole.fingerprint == split.fingerprint
            assert repr(whole.total_revenue) == repr(split.total_revenue)
            assert whole.shutoff_period == split.shutoff_period
            assert whole.events == split.events
            for key, rows in whole.periods.items():
                np.testing.assert_array_equal(rows, split.periods[key])
        assert inside >= 30


def pdnrm_event_keys(cfg, T, N, shutoff=None):
    """The events of a pdnrm episode of horizon T with N products whose market
    shuts at period `shutoff` (None: never), as (kind, epoch) and, for a loop,
    (tau, n_tau) too: the skeleton's loops that end by T and whose estimation
    rows end before the shutoff, and after an epoch's last loop that is
    logged, its dual update and the next epoch."""
    keys = [("epoch", 0)]
    for s, tau, n_tau, end, estimated in estimation_ends(cfg, N):
        if tau == 0 and s > 0:
            keys += [("dual", s - 1), ("epoch", s)]
        if end > T or shutoff is not None and estimated >= shutoff:
            return keys
        keys.append(("loop", s, tau, n_tau))


def event_keys(events):
    return [(e["kind"], e["s"]) + ((e["tau"], e["n_tau"]) if e["kind"] == "loop" else ())
            for e in events]


class TestPdNrmRequests:
    """pdnrm posts each loop's balanced row with the next loop's probes."""

    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    @pytest.mark.parametrize("doc", [{}, {"mu": 0.05, "eta2": 1.0}], ids=["desk", "scaling"])
    def test_events_end_where_the_horizon_ends(self, instance, doc, noise):
        from nrmlab import PdNrmPolicy, config_from_dict
        cfg = config_from_dict(doc, instance, T=5_000)
        # the first loop, a loop followed by one of its epoch, and the first
        # loop with tau = 2, the last of its epoch
        skeleton = loop_skeleton(cfg)
        loops = [next(skeleton)]
        while loops[-1][1] < 2:
            loops.append(next(skeleton))
        assert next(skeleton)[1] == 0
        estimated = [e[4] for e in itertools.islice(estimation_ends(cfg, instance.N), len(loops))]
        for end in (loops[0][3], loops[-2][3], loops[-1][3]):
            for T in (end - 1, end, end + 1):
                inst = dataclasses.replace(instance.with_horizon(T), noise=noise)
                whole = run_episode(inst, PdNrmPolicy(inst, cfg), seed=4)
                shutoff = whole.shutoff_period
                expected = pdnrm_event_keys(cfg, T, inst.N, shutoff)
                assert event_keys(whole.events) == expected
                assert sum(k[0] == "loop" for k in expected) == sum(
                    k[3] <= T and (shutoff is None or e < shutoff)
                    for k, e in zip(loops, estimated))
                split = run_episode(inst, split_schedules(PdNrmPolicy)(inst, cfg), seed=4)
                assert split.events == whole.events
                assert split.fingerprint == whole.fingerprint

    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    @pytest.mark.parametrize("name", ["bundled", "n3m1", "n4m2"])
    def test_loops_are_logged_until_the_market_shuts(self, name, noise):
        # the digest's instances and pdnrm configs: a loop is logged iff it
        # ends by T and its estimation rows end before the shutoff period
        from nrmlab import PdNrmPolicy, config_from_dict
        from fingerprint_digest import PDNRM_CONFIGS, instances
        base = instances(quick=False)[name]
        shut = 0
        for T in (10_000, 200_000):
            inst = dataclasses.replace(base, T=T, noise=noise)
            for doc in PDNRM_CONFIGS.values():
                cfg = config_from_dict(doc, inst)
                trace = run_episode(inst, PdNrmPolicy(inst, cfg), seed=1)
                shut += trace.shutoff_period is not None
                assert event_keys(trace.events) == pdnrm_event_keys(
                    cfg, T, inst.N, trace.shutoff_period)
        assert shut >= 3

    def test_a_margin_without_room_to_probe_is_refused(self, instance):
        # an instance whose inner price box has no room inside its price box in
        # floats, or whose dual box is zero, is refused; on any other, every loop probes
        from nrmlab import PdNrmPolicy, config_from_dict
        for inst in boxless_instances().values():
            with pytest.raises(ValueError, match="instance key 'price_max' must be"):
                config_from_dict({}, inst)
        cfg = config_from_dict({}, instance)
        trace = run_episode(instance, PdNrmPolicy(instance, cfg), seed=1)
        loops = [e for e in trace.events if e["kind"] == "loop"]
        assert event_keys(trace.events) == pdnrm_event_keys(
            cfg, instance.T, instance.N, trace.shutoff_period)
        assert len(loops) >= 20
        assert all(e["u"] > 0 and not e["degraded"] for e in loops)

    def test_theory_constants_learn_nothing_at_1e4(self, instance, regularity):
        from nrmlab import PdNrmPolicy, constants_theory
        inst = instance.with_horizon(10_000)
        cfg = constants_theory(inst, regularity, inst.T)
        trace = run_episode(inst, PdNrmPolicy(inst, cfg), seed=1)
        assert event_keys(trace.events) == pdnrm_event_keys(cfg, inst.T, inst.N) == [("epoch", 0)]

    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    @pytest.mark.parametrize("doc", [{}, {"mu": 0.05, "eta2": 1.0}], ids=["desk", "scaling"])
    def test_a_loop_is_one_kernel_call(self, instance, doc, noise, monkeypatch):
        from nrmlab import PdNrmPolicy, config_from_dict
        inst = dataclasses.replace(instance, noise=noise)
        serve, calls = sim._serve, []

        def spy(*args):
            calls.append(len(args[3]))
            return serve(*args)

        monkeypatch.setattr(sim, "_serve", spy)
        trace = run_episode(inst, PdNrmPolicy(inst, config_from_dict(doc, inst)), seed=2)
        loops = [e for e in trace.events if e["kind"] == "loop"]
        assert len(loops) >= 20
        assert len(calls) <= len(loops) + 2
        # every request after the first carries a balanced row and 2N probes
        assert calls.count(2 * inst.N + 1) >= len(loops) - 2


class TestServeBlock:
    A = np.array([[1.0, 1.0], [0.0, 2.0]])

    def test_first_infeasible_period_matches_orderings(self, instance):
        # Every distinct ordering of the counts is equally likely; the halving
        # search must find the same (served, served counts) law. Chi-square
        # goodness of fit over 20,000 draws, p >= 1e-4.
        counts, remaining = (2, 3, 3), np.array([3.0, 3.0])
        outcomes = np.repeat(np.arange(3), counts)
        exact = {}
        orderings = set(itertools.permutations(outcomes.tolist()))
        for order in orderings:
            used, kept, served = np.zeros(2), np.zeros(3, int), len(order)
            for period, i in enumerate(order):
                if i < 2 and np.any(used + self.A[:, i] > remaining):
                    served = period
                    break
                used += self.A[:, i] if i < 2 else 0.0
                kept[i] += 1
            key = (served,) + tuple(kept)
            exact[key] = exact.get(key, 0) + 1 / len(orderings)
        assert len(orderings) == 560 and min(k[0] for k in exact) < 8
        rng = FixedCounts(counts, seed=2024)
        n = 20_000
        seen = {}
        for _ in range(n):
            served, kept = serve_one(instance.model, self.A, np.array([1.0, 1.0]), 8,
                                     remaining, rng)
            key = (served,) + tuple(kept.tolist())
            seen[key] = seen.get(key, 0) + 1
        assert set(seen) <= set(exact)
        keys = sorted(exact)
        result = chisquare([seen.get(k, 0) for k in keys], [n * exact[k] for k in keys])
        assert result.pvalue >= 1e-4, (result, seen, exact)

    def test_block_that_exactly_exhausts_a_resource_is_fully_served(self, instance):
        p = np.array([1.0, 1.0])
        served, counts = serve_one(instance.model, self.A, p, 8, np.array([3.0, 0.0]),
                                   FixedCounts((3, 0, 5), seed=1))
        assert served == 8 and counts.tolist() == [3, 0, 5]
        served, counts = serve_one(instance.model, self.A, p, 8, np.array([2.0, 0.0]),
                                   FixedCounts((3, 0, 5), seed=1))
        assert served < 8 and counts.tolist()[:2] == [2, 0]

    def test_demand_rounded_below_zero_at_a_corner_is_no_sale(self):
        # D_1 is exactly 0 at the corner (5, 0.8) but evaluates to -5.6e-17;
        # ETC posts every corner of its grid
        from nrmlab import Instance, LinearDemand, ExploreThenCommitPolicy
        B = np.array([[0.1, -0.01], [-0.01, 0.1]])
        model = LinearDemand(np.maximum(B * 0.8, B * 5.0).sum(axis=1), B)
        corner = np.array([5.0, 0.8])
        assert model.mean(corner)[0] < 0
        served, counts = serve_one(model, np.eye(2), corner, 1_000, None,
                                   np.random.default_rng(3))
        assert served == 1_000 and counts[0] == 0
        inst = Instance(model=model, A=np.eye(2), gamma=np.array([0.1, 0.1]), T=10_000,
                        price_min=0.8, price_max=5.0)
        assert run_episode(inst, ExploreThenCommitPolicy(inst), seed=1).inventory_ok

    def test_a_negative_noiseless_mean_sells_nothing(self):
        """Noiseless, the mean -5.6e-17 at the corner sells nothing, as the
        sampled market's clipped probability does: the episode leaves
        resource 1 where it started and answers 0, and so does DemandOracle."""
        from nrmlab import Instance, LinearDemand, DemandOracle
        B = np.array([[0.1, -0.01], [-0.01, 0.1]])
        model = LinearDemand(np.maximum(B * 0.8, B * 5.0).sum(axis=1), B)
        corner = np.array([5.0, 0.8])
        d = model.mean(corner)
        assert d[0] < 0
        # resource 1 holds 0.001 units, so a gain of 5.6e-15 would show
        inst = Instance(model=model, A=np.eye(2), gamma=np.array([1e-6, 1.0]), T=1_000,
                        price_min=0.8, price_max=5.0, noise="none")
        policy = FixedCommitPolicy(corner, 100)
        trace = run_episode(inst, policy, seed=1)
        assert trace.shutoff_period is None and len(policy.answers) == 10
        assert trace.final_inventory[0] == inst.capacity[0] == min(trace.final_inventory)
        assert all(answer.tolist() == [[0.0, d[1]]] for answer in policy.answers)
        assert trace.total_revenue == pytest.approx(1_000 * d[1] * corner[1], rel=1e-12)
        answer = DemandOracle(inst).commit(np.array([corner, corner]), np.array([3, 4]))
        assert answer.tolist() == [[0.0, d[1]]] * 2

    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    @pytest.mark.parametrize("policy", ["pdnrm", "clairvoyant", "etc"])
    def test_recording_and_reruns_do_not_change_the_episode(self, policy, noise, instance,
                                                            fluid_solution):
        from nrmlab import build_policy
        inst = dataclasses.replace(instance.with_horizon(20_000), gamma=np.array([0.03, 0.03]),
                                   noise=noise)

        def run(record):
            return run_episode(inst, build_policy(policy, inst, fluid_solution), 31,
                               record_periods=record)

        plain, recorded, again = run(False), run(True), run(False)
        assert plain.shutoff_period is not None
        assert recorded.fingerprint == plain.fingerprint
        assert recorded.shutoff_period == plain.shutoff_period
        np.testing.assert_array_equal(recorded.final_inventory, plain.final_inventory)
        assert recorded.total_revenue == plain.total_revenue
        assert plain.total_revenue == math.fsum(recorded.periods["revenue"].tolist())
        assert again.fingerprint == plain.fingerprint
        assert again.total_revenue == plain.total_revenue
        assert again.shutoff_period == plain.shutoff_period

    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    def test_revenue_is_the_fsum_of_the_recorded_rows(self, noise, instance, fluid_solution):
        # a horizon at which per-block subtotals, rounded and summed, used to
        # miss the fsum of the per-period rows in the last bits
        from nrmlab import build_policy
        inst = dataclasses.replace(instance.with_horizon(200_000), noise=noise)
        plain, recorded = (run_episode(inst, build_policy("clairvoyant", inst, fluid_solution),
                                       5, record_periods=record) for record in (False, True))
        assert plain.total_revenue == recorded.total_revenue
        assert plain.total_revenue == math.fsum(recorded.periods["revenue"].tolist())


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


def reference_trace_csv(trace, path):
    """The csv-module trace writer that export_trace_csv replaced: the byte
    reference for its output."""
    import csv
    price, demand = trace.periods["price"], trace.periods["demand"]
    revenue, inventory = trace.periods["revenue"], trace.periods["inventory"]
    n, m = price.shape[1], inventory.shape[1]
    header = (["period"] + [f"p_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
              + ["revenue"] + [f"inv_{j+1}" for j in range(m)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(price.shape[0]):
            writer.writerow([t + 1] + [format(v, ".17g") for v in price[t]]
                            + [format(v, ".17g") for v in demand[t]]
                            + [format(revenue[t], ".17g")]
                            + [format(v, ".17g") for v in inventory[t]])


def hand_built_trace(price, demand, revenue, inventory):
    """An unrecorded episode's trace around the given per-period arrays."""
    return sim.EpisodeTrace(
        T=len(revenue), seed=0, policy_name="hand-built", total_revenue=0.0,
        shutoff_period=None, final_inventory=inventory[-1], fingerprint="",
        periods={"price": price, "demand": demand, "revenue": revenue, "inventory": inventory})


class TestExports:
    @staticmethod
    def assert_matches_reference(trace, tmp_path, blocks=(None,), monkeypatch=None):
        reference_trace_csv(trace, str(tmp_path / "ref.csv"))
        for block in blocks:
            if block is not None:
                monkeypatch.setattr(sim, "_EXPORT_BLOCK", block)
            export_trace_csv(trace, str(tmp_path / "new.csv"))
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_matches_reference_writer(self, instance, noiseless_instance, fluid_solution,
                                          monkeypatch, tmp_path):
        from nrmlab import PdNrmPolicy, ClairvoyantPolicy, ExploreThenCommitPolicy
        shutoff = run_episode(instance.with_horizon(30_000),
                              FixedCommitPolicy(np.array([1.5, 0.8]), length=1_000),
                              seed=9, record_periods=True)
        assert shutoff.shutoff_period is not None
        assert np.isnan(shutoff.periods["price"][-1]).all()
        single = Instance(model=LogitDemand(np.array([0.5]), np.array([1.5])),
                          A=np.array([[1.0]]), gamma=np.array([0.05]), T=2_000,
                          price_min=0.8, price_max=5.0)
        one_product = run_episode(single, FixedCommitPolicy(np.array([1.3]), length=300),
                                  seed=5, record_periods=True)
        # Instance rejects M > N, so a copy of the one-product trace gets
        # three resource columns
        wide = dataclasses.replace(one_product, periods=dict(one_product.periods))
        inv = one_product.periods["inventory"]
        wide.periods["inventory"] = np.hstack([inv, 0.5 * inv, inv - 1 / 3])
        short = instance.with_horizon(5_000)
        pdnrm = run_episode(short, PdNrmPolicy(short), seed=3, record_periods=True)
        assert pdnrm.shutoff_period is not None
        # a commitment's price is one run that spans several 7-row blocks
        assert (pdnrm.periods["price"][:14] == pdnrm.periods["price"][0]).all()
        quiet = noiseless_instance.with_horizon(5_000)
        noiseless = run_episode(quiet, PdNrmPolicy(quiet), seed=1, record_periods=True)
        clairvoyant = run_episode(short, ClairvoyantPolicy(short, fluid_solution), seed=4,
                                  record_periods=True)
        etc = run_episode(short, ExploreThenCommitPolicy(short), seed=6, record_periods=True)
        blocks = (sim._EXPORT_BLOCK, 1000, 7)
        for trace in (shutoff, one_product, wide, pdnrm, noiseless, clairvoyant, etc):
            self.assert_matches_reference(trace, tmp_path, blocks, monkeypatch)
            # one-row blocks cost 60 us each, so they write the last 1,000 rows
            last = dataclasses.replace(trace, periods={k: v[-1_000:]
                                                       for k, v in trace.periods.items()})
            self.assert_matches_reference(last, tmp_path, (1,), monkeypatch)
        export_trace_csv(wide, str(tmp_path / "wide.csv"))
        assert (tmp_path / "wide.csv").read_bytes().startswith(
            b"period,p_1,y_1,revenue,inv_1,inv_2,inv_3\r\n")

    @pytest.mark.parametrize("block", [1, 7, 1000, 1001, 4096])
    def test_csv_period_column_across_digit_and_block_edges(self, block):
        # export writes block j as _csv_block(1 + j * block, rows); the three
        # blocks around each period whose digit count grows are written here
        rng = np.random.default_rng(block)
        for edge in (1_000, 10_000, 1_000_000, 10_000_000):
            j = (edge - 2) // block   # the block that holds period edge - 1
            first = 1 + max(j - 1, 0) * block
            rows = (j + 2) * block - first + 1
            table = np.repeat(rng.integers(-2, 3, (rows, 4)) / 3, 3, axis=0)[:rows]
            text = "".join(sim._csv_block(s, table[s - first:s - first + block])
                           for s in range(first, first + rows, block))
            lines = text.split("\r\n")
            assert lines.pop() == "" and len(lines) == rows
            for t, line, row in zip(range(first, first + rows), lines, table.tolist()):
                assert line == ",".join([str(t)] + [format(v, ".17g") for v in row])
            assert f"\r\n{edge - 1}," in "\r\n" + text and f"\r\n{edge}," in text

    def test_csv_memory_is_bounded_by_the_block(self, tmp_path):
        # inventory values all distinct: a formatting cache kept across blocks
        # would grow with the rows, the block's strings do not
        import tracemalloc

        def peak(T):
            trace = hand_built_trace(np.full((T, 1), 1.5), np.zeros((T, 1)), np.zeros(T),
                                     np.linspace(1.0, 2.0, T)[:, None])
            tracemalloc.start()
            try:
                export_trace_csv(trace, str(tmp_path / "t.csv"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # tracemalloc makes the export about 5x slower: 0.9 s for both traces
        small, large = peak(20_000), peak(80_000)
        assert large < 1.5 * small, (small, large)

    @pytest.mark.parametrize("block", [1, 2, 7, 4096])
    def test_csv_keeps_values_that_compare_equal_apart(self, block, monkeypatch, tmp_path):
        # runs are split by bit pattern: -0.0 and 0.0 format differently, and
        # NaNs (which compare unequal) still form runs
        neg_nan = -np.float64(np.nan)
        col = np.array([-0.0, 0.0, 0.0, -0.0, np.nan, np.nan, neg_nan, np.inf, -np.inf,
                        5e-324, 2.2e-310, 1 / 3, 1 / 3, 0.1 + 0.2, 0.3])
        trace = hand_built_trace(np.column_stack([col, col[::-1]]),
                                 np.column_stack([np.roll(col, 3), np.zeros(len(col))]),
                                 np.roll(col, 7), col[:, None] * -1.0)
        self.assert_matches_reference(trace, tmp_path, (block,), monkeypatch)
        text = (tmp_path / "new.csv").read_text()
        assert text.splitlines()[1].startswith("1,-0,")
        assert ",inf," in text and ",nan," in text and ",4.9406564584124654e-324," in text
        # whole rows that compare equal but differ in bits are runs of their own
        same = np.column_stack([col, col])
        self.assert_matches_reference(hand_built_trace(same, same, col, col[:, None]), tmp_path,
                                      (block,), monkeypatch)

    def test_csv_needs_recorded_periods(self, instance, tmp_path):
        trace = run_episode(instance.with_horizon(100), FixedCommitPolicy(np.array([1.0, 1.2])),
                            seed=1)
        with pytest.raises(ValueError, match="without per-period data"):
            export_trace_csv(trace, str(tmp_path / "t.csv"))
        assert not (tmp_path / "t.csv").exists()

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
        with open(tmp_path / "per_event.jsonl", "w") as fh:
            for event in trace.events:
                fh.write(json.dumps(event) + "\n")
        assert path.read_bytes() == (tmp_path / "per_event.jsonl").read_bytes()


class TestSeedMixing:
    def test_mix64_is_deterministic_and_spread(self):
        a = mix64(1, 2, 3)
        assert a == mix64(1, 2, 3)
        assert a != mix64(1, 2, 4)
        assert a != mix64(2, 2, 3)
        vals = {mix64(0, i) for i in range(1000)}
        assert len(vals) == 1000
