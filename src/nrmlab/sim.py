"""Discrete-time market simulator: inventory dynamics, hard shutoff, trace recording.

One episode is strictly sequential; distinct episodes may run concurrently,
each owning its RNG. A price held for k periods is served as one block whose
outcome counts are drawn at once (`_serve_block`: O(log k) draws, exact in
distribution); per-period rows are made only when recording. The per-period
semantics are unchanged.
"""

import json
import math
import hashlib
import zlib
import numpy as np
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from .instance import Instance

_MASK64 = (1 << 64) - 1
_NO_PURCHASE = np.zeros(1)  # multinomial's last category takes 1 - sum D(p)
_EXPORT_BLOCK = 4096  # trace CSV rows formatted and written at a time
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves


def mix64(*parts) -> int:
    """Splittable-counter seed derivation (splitmix64 finalizer folded over parts)."""
    z = 0x9E3779B97F4A7C15
    for part in parts:
        z = (z + int(part) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
    return z


def fold_name(seed: int, name: str) -> int:
    return mix64(seed, zlib.crc32(name.encode()))


def _exact_product(a: float, b: float) -> tuple:
    """(x, e) with x = fl(a b) and x + e = a b exactly (Dekker's product),
    barring overflow and underflow."""
    x = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return x, a_lo * b_lo - (((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


class Policy(ABC):
    """Admissible pricing policy. next_price at period t may depend only on
    the realized history {p_s, y_s : s < t}; the simulator enforces this by
    construction (it hands the policy nothing else)."""

    name = "policy"

    @abstractmethod
    def next_price(self, period: int) -> Optional[np.ndarray]:
        """Price vector for the 1-based period, or None to request shutoff."""

    @abstractmethod
    def observe(self, period: int, y: np.ndarray) -> None:
        """Realized demand for the given period."""

    def hold(self) -> int:
        """How many upcoming periods (at least 1) the current price persists.
        A batching hint; policies returning >1 must implement observe_block."""
        return 1

    def observe_block(self, period: int, y_sum: np.ndarray, k: int) -> None:
        raise NotImplementedError("per-period policies are observed one period at a time")

    @property
    def events(self) -> list:
        return []


class CommitPolicy(Policy):
    """Policy driven by a generator of (price, length) commitments.

    Subclasses implement _driver(), a generator yielding (price, length) and
    receiving the average realized demand over the commitment. Drivers that
    return are frozen at their last price; the horizon truncates everything.
    """

    def __init__(self, n_products: int):
        self._n = n_products
        self._gen = self._driver()
        self._commit = next(self._gen)
        self._seen = 0
        self._acc = np.zeros(n_products)
        self._done = False
        self.periods_observed = 0

    @abstractmethod
    def _driver(self):
        ...

    def _advance(self):
        avg = self._acc / self._seen
        self._seen = 0
        self._acc = np.zeros(self._n)
        try:
            self._commit = self._gen.send(avg)
        except StopIteration:
            self._done = True
            self._commit = (self._commit[0], 1 << 62)

    def next_price(self, period: int) -> Optional[np.ndarray]:
        return self._commit[0]

    def hold(self) -> int:
        return max(1, int(self._commit[1]) - self._seen)

    def observe(self, period: int, y: np.ndarray) -> None:
        self.observe_block(period, y, 1)

    def observe_block(self, period: int, y_sum: np.ndarray, k: int) -> None:
        self._acc += y_sum
        self._seen += k
        self.periods_observed += k
        if self._seen >= self._commit[1] and not self._done:
            self._advance()


@dataclass
class EpisodeTrace:
    T: int
    seed: int
    policy_name: str
    total_revenue: float
    shutoff_period: Optional[int]
    final_inventory: np.ndarray
    fingerprint: str
    min_inventory: float
    demand_after_shutoff: float
    periods: Optional[dict] = None
    events: list = field(default_factory=list)

    @property
    def inventory_ok(self) -> bool:
        return self.min_inventory >= 0.0

    @property
    def shutoff_ok(self) -> bool:
        return self.demand_after_shutoff == 0.0


class PolicyError(RuntimeError):
    """Policy emitted an out-of-box, non-shutoff price."""


def _serve_block(model, A, p, k, remaining, rng):
    """The purchases of k periods at price p, served until the first one that
    `remaining` cannot cover. Returns (served, counts): the periods before
    that purchase (k if there is none) and their outcome counts, counts[i]
    for product i < N and counts[N] for no purchase.

    One multinomial draw gives the block's counts. If they do not fit, halving
    finds the first unservable period: given a segment's counts, the counts of
    its first h periods are multivariate hypergeometric, so every split is
    exact in distribution and a block costs O(log k) draws."""
    pvals = np.concatenate((model.mean(p), _NO_PURCHASE))
    # a linear demand that is 0 at a box corner can evaluate to -1e-17 there
    counts = rng.multinomial(k, np.maximum(pvals, 0.0, out=pvals))
    if min((remaining - A.dot(counts[:-1])).tolist()) >= 0.0:
        return k, counts
    served, kept, seg = 0, np.zeros_like(counts), counts
    while k > 1:
        h = k // 2
        head = rng.multivariate_hypergeometric(seg, h)
        trial = kept + head
        if min((remaining - A.dot(trial[:-1])).tolist()) >= 0.0:
            served, kept, seg, k = served + h, trial, seg - head, k - h
        else:
            seg, k = head, h
    return served, kept


def run_episode(instance: Instance, policy: Policy, seed: int,
                record_periods: bool = False) -> EpisodeTrace:
    """Run one episode of T periods.

    Each period: query the policy; if shut off, force zero demand; otherwise
    sample demand and attempt fulfillment. A realized purchase that any
    resource cannot fully serve is lost (y := 0) and triggers permanent
    shutoff. Deterministic given the seed.

    A held price is served as one block of k periods. A closed block sells
    nothing, a noiseless block sells the exact mean demand each period, and a
    sampled block draws its outcome counts with `_serve_block` in O(log k)
    draws. Each yields the periods served before the first unservable
    purchase and their demand; shutoff, inventory, the fingerprint (price,
    counts, served) and recording are common to all three. Recorded rows
    order a sampled block's served outcomes by a uniform random permutation
    from a second generator derived from the seed, so a recorded and an
    unrecorded run of one seed are the same episode. Block revenues enter the
    total as exact products summed by one fsum, so in both modes it equals the
    fsum of the recorded per-period revenues.
    """
    T = instance.T
    N, M = instance.N, instance.M
    model, A = instance.model, instance.A
    rng = np.random.default_rng(np.random.PCG64(seed))
    remaining = instance.capacity.astype(float).copy()
    noiseless = instance.noise == "none"
    eps = 1e-9 * max(1.0, abs(instance.price_max))
    p_lo, p_hi = instance.price_min - eps, instance.price_max + eps

    hasher = hashlib.blake2b(digest_size=16)
    revenue_parts: list = []
    min_inventory = float(remaining.min())
    shutoff_period: Optional[int] = None
    demand_after_shutoff = 0.0
    if record_periods:
        order_rng = np.random.default_rng(np.random.PCG64(fold_name(seed, "record")))
        A_ext = np.hstack([A, np.zeros((M, 1))])
        # NaN prices mark the periods in which the market is shut.
        periods = {"price": np.full((T, N), np.nan), "demand": np.zeros((T, N)),
                   "revenue": np.zeros(T), "inventory": np.empty((T, M))}

    t = 0  # completed periods
    while t < T:
        p = policy.next_price(t + 1)
        if p is not None:
            p = np.asarray(p, dtype=float)
            prices = p.tolist()
            if p.shape != (N,) or not all(p_lo <= x <= p_hi for x in prices):
                raise PolicyError(
                    f"price {p} outside [{instance.price_min}, {instance.price_max}]")
        k = min(max(1, int(policy.hold())), T - t)
        was_shut = shutoff_period is not None
        is_open = p is not None and not was_shut

        if not is_open:
            # Market closed: zero demand, no RNG consumption.
            served, y_sum, used = 0, np.zeros(N), 0.0
            outcome = b"z" + k.to_bytes(8, "little")
        elif noiseless:
            y = model.mean(p)
            cons = A @ y
            served = k
            for j in np.nonzero(cons > 0)[0]:
                cap = int(math.floor(remaining[j] / cons[j] + 1e-12))
                while cap > 0 and cap * cons[j] > remaining[j]:
                    cap -= 1
                served = min(served, max(cap, 0))
            y_sum, used = y * served, served * cons
            revenue_parts += _exact_product(served, float(y @ p))
            outcome = p.tobytes() + served.to_bytes(8, "little")
            if record_periods:
                y_rows, cum = y, np.arange(1, served + 1)[:, None] * cons
        else:
            served, counts = _serve_block(model, A, p, k, remaining, rng)
            y_sum, used = counts[:N].astype(float), A.dot(counts[:N])
            for count, price in zip(counts.tolist(), prices):
                if count:
                    revenue_parts += _exact_product(count, price)
            outcome = p.tobytes() + counts.tobytes() + served.to_bytes(8, "little")
            if record_periods:
                idx = order_rng.permutation(np.repeat(np.arange(N + 1), counts))
                y_rows, cum = np.eye(N + 1)[idx, :N], np.cumsum(A_ext[:, idx], axis=1).T

        if was_shut:
            demand_after_shutoff += float(y_sum.sum())
        elif is_open and served < k:
            shutoff_period = t + served + 1
        start, remaining = remaining, remaining - used
        hasher.update(outcome)
        min_inventory = min(min_inventory, min(remaining.tolist()))

        if record_periods:
            if is_open:
                # the period whose purchase could not be served still posted p
                periods["price"][t:t + min(served + 1, k)] = p
            if served:
                periods["demand"][t:t + served] = y_rows
                periods["inventory"][t:t + served] = start - cum
                periods["revenue"][t:t + served] = y_rows @ p
            periods["inventory"][t + max(served - 1, 0):t + k] = remaining

        if k == 1:
            policy.observe(t + 1, y_sum)
        else:
            policy.observe_block(t + 1, y_sum, k)
        t += k

    if not record_periods:
        periods = None

    return EpisodeTrace(
        T=T,
        seed=seed,
        policy_name=getattr(policy, "name", type(policy).__name__),
        total_revenue=math.fsum(revenue_parts),
        shutoff_period=shutoff_period,
        final_inventory=remaining,
        fingerprint=hasher.hexdigest(),
        min_inventory=min_inventory,
        demand_after_shutoff=demand_after_shutoff,
        periods=periods,
        events=list(getattr(policy, "events", [])),
    )


def percentage_loss(instance: Instance, trace: EpisodeTrace, fluid_value: float) -> float:
    """(T phi* - revenue) / (T phi*), with the fluid upper bound standing in
    for the unknown optimal reward (so the reported loss is conservative)."""
    bound = instance.T * fluid_value
    return (bound - trace.total_revenue) / bound


def _format_runs(col: np.ndarray) -> list:
    """'%.17g' strings of a float column, one format call per run of equal
    bits (so -0.0 stays apart from 0.0 and NaN rows are kept)."""
    bits = col.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    lengths = np.diff(np.append(starts, len(col)))
    strs = np.array(["%.17g" % x for x in col[starts].tolist()], dtype=object)
    return np.repeat(strs, lengths).tolist()


def export_trace_csv(trace: EpisodeTrace, path: str) -> None:
    """Per-period CSV: period, p_1..p_N, y_1..y_N, revenue, inv_1..inv_M.
    Values are '%.17g', rows end in CRLF, and rows are formatted and written
    _EXPORT_BLOCK at a time, so export memory is bounded by the block."""
    if trace.periods is None:
        raise ValueError("trace was recorded without per-period data")
    price = trace.periods["price"]
    inventory = trace.periods["inventory"]
    n = price.shape[1]
    m = inventory.shape[1]
    header = (["period"] + [f"p_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
              + ["revenue"] + [f"inv_{j+1}" for j in range(m)])
    columns = [*price.T, *trace.periods["demand"].T, trace.periods["revenue"], *inventory.T]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for s in range(0, len(price), _EXPORT_BLOCK):
            e = min(s + _EXPORT_BLOCK, len(price))
            cols = [map(str, range(s + 1, e + 1))] + [_format_runs(c[s:e]) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


def export_events_jsonl(trace: EpisodeTrace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(event) + "\n" for event in trace.events))
