"""Discrete-time market simulator: inventory dynamics, hard shutoff, trace recording.

One episode is strictly sequential; distinct episodes may run concurrently,
each owning its RNG. Every request is a schedule: rows of (price, periods)
posted in order with no feedback read in between, a price held for k periods
being the one-row schedule and a plain policy's price the one-period one.
One kernel (`_serve`) serves a whole schedule with stacked numpy calls: one
draw gives every row's outcome counts in a sampled market, and a noiseless
market sells each row's mean demand every period, a mean below zero selling
nothing. One scan finds the row in which inventory runs out, and only that
row is cut: a sampled one by halving, in O(log k) more draws, and a
noiseless one by the exact rule `_noiseless_served`. Every step is exact in
distribution, and a schedule is the same episode, bit for bit, as its rows
served one at a time. A served row is answered with its average demand per
period (`_averages`), in the simulator as in the estimation oracle. Per-period
rows are made only when recording; the per-period semantics are unchanged.
The first purchase that inventory cannot serve shuts the market for good and
ends the episode.
"""

import json
import math
import hashlib
import zlib
import numpy as np
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from .demand import _dot, _on_vectors
from .instance import Instance

_MASK64 = (1 << 64) - 1
_EXPORT_BLOCK = 4096  # trace CSV rows formatted and written at a time
_THOUSANDS = ["%03d," % i for i in range(1000)]  # period t's CSV cell after str(t // 1000)
_LEDGER_ROWS = 4096  # served requests buffered before one tally and hash of their rows
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_FEW = 32  # up to this many values are checked in Python, and tallied without merging
# a commitment's length, which the horizon cuts only while T - t < 2**62: a sampled row
# is served as length / _ROW_LIMIT sub-rows, so an uncut one asks for 2**33 (64 GiB)
_FOREVER = 1 << 62
_ONE_PERIOD = np.broadcast_to(np.int64(1), 1)  # a one-period request's lengths, read-only
_ROW_LIMIT = 1 << 29  # longer sampled rows are served as sub-rows; _split's draw needs totals < 1e9


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


def _exact_product(a, b) -> tuple:
    """(x, e) with x = fl(a b) and x + e = a b exactly (Dekker's product),
    barring overflow and underflow; elementwise on arrays."""
    x = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return x, a_lo * b_lo - (((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _tally(prices: np.ndarray, units: np.ndarray) -> tuple:
    """(prices, units) of units[i] sold at prices[i], beyond _FEW values one
    entry per distinct price. Unit counts are integers, so their sums are
    exact (below 2**53) in any order."""
    prices, units = prices.ravel(), units.ravel()
    if units.size > _FEW:
        prices, index = np.unique(prices, return_inverse=True)
        units = np.bincount(index, weights=units)
    return prices, units


def _revenue(sold: list) -> float:
    """The revenue of a list of (prices, units) tallies: one fsum of the
    exact products, so it is rounded once, whatever the order or grouping."""
    if not sold:
        return 0.0
    prices, units = _tally(*(sold[0] if len(sold) == 1
                             else (np.concatenate(col) for col in zip(*sold))))
    if units.size <= _FEW:
        return math.fsum(x for u, q in zip(units.tolist(), prices.tolist()) if u
                         for x in _exact_product(u, q))
    some = units != 0
    x, e = _exact_product(units[some], prices[some])
    return math.fsum(x.tolist() + e.tolist())


def _as_schedule(request) -> tuple:
    """A generator's request as (prices (K, N), lengths (K,)). A plain
    (price, length) pair writes the one-row schedule. Lengths are integers,
    not bools, one of at least 1 per row."""
    prices, lengths = request
    prices = np.asarray(prices, dtype=float)
    if isinstance(lengths, (int, np.generic)):
        prices, lengths = prices[None], [lengths]
    lengths = np.asarray(lengths)
    if (lengths.dtype.kind not in "iu" or lengths.shape != prices.shape[:1]
            or not len(lengths) or min(lengths.tolist()) < 1):
        raise ValueError("a schedule needs one length of at least 1 per price row")
    return prices, lengths.astype(np.int64, copy=False)


class Policy(ABC):
    """Admissible pricing policy. next_price at period t may depend only on
    the realized history {p_s, y_s : s < t}; the simulator enforces this by
    construction (it hands the policy nothing else).

    Every request is a schedule, served whole and answered by observe_block.
    A plain subclass requests one period at next_price's price, and the
    default observe_block hands that period's demand to observe."""

    name = "policy"

    @abstractmethod
    def next_price(self, period: int) -> np.ndarray:
        """Price vector for the 1-based period."""

    @abstractmethod
    def observe(self, period: int, y: np.ndarray) -> None:
        """Realized demand for the given period."""

    def observe_block(self, period: int, y_avgs: np.ndarray, lengths: np.ndarray) -> None:
        """The answer to the request that started at period: each row's
        average demand per period and the periods each row lasted (see
        schedule). By default the request is one period, whose demand goes
        to observe."""
        self.observe(period, y_avgs[0])

    def hold(self) -> int:
        """No caller in the package; perfbench/tracer.py wraps it by name."""
        return 1

    def schedule(self):
        """The open-loop schedule (prices (K, N), lengths (K,)), K >= 1, that
        starts now, or None for one period at next_price's price. It posts
        prices[0] (next_price's price) for lengths[0] periods, then prices[1]
        for lengths[1], and so on, reading no feedback in between; the
        simulator serves it in one kernel call and answers it with one
        observe_block(period, y_avgs (K, N), lengths (K,)) call: each row's
        average demand per period (its mean demand in a noiseless market)
        and the periods each row lasted. A request that the horizon cuts (its
        last row short, or rows dropped) or the market shuts goes unanswered."""
        return None


class CommitPolicy(Policy):
    """Policy driven by a generator of requests.

    Subclasses implement _driver(), a generator that yields an open-loop
    schedule (prices (K, N), lengths (K,)), or a (price, length) pair for the
    one-row schedule, and receives the (K, N) average demand of its rows, as
    observe_block hands it: bit for bit DemandOracle's answer to the same
    schedule. Every request is the policy's schedule() and is observed once,
    whole, never period by period, if run_episode answers it (see schedule).
    Drivers that return are frozen at their last price.
    """

    def __init__(self):
        self._gen = self._driver()
        self.periods_observed = 0
        self._prices, self._lengths = _as_schedule(next(self._gen))

    @abstractmethod
    def _driver(self):
        ...

    def next_price(self, period: int) -> np.ndarray:
        return self._prices[0]

    def schedule(self):
        return self._prices, self._lengths

    def observe(self, period: int, y: np.ndarray) -> None:
        self.observe_block(period, np.asarray(y)[None], _ONE_PERIOD)

    def observe_block(self, period: int, y_avgs: np.ndarray, lengths: np.ndarray) -> None:
        self.periods_observed += sum(lengths.tolist())
        try:
            request = self._gen.send(y_avgs)
        except StopIteration:   # frozen at the last price
            request = (self._prices[-1], _FOREVER)
        self._prices, self._lengths = _as_schedule(request)


@dataclass
class EpisodeTrace:
    """One episode's facts; what follows from them is derived, not stored:
    inventory only falls, so inventory_ok reads the final inventory."""

    T: int
    seed: int
    policy_name: str
    total_revenue: float
    shutoff_period: Optional[int]
    final_inventory: np.ndarray
    fingerprint: str
    periods: Optional[dict] = None
    events: list = field(default_factory=list)
    shutoff_ok = True   # an episode ends when its market shuts; perfbench reads it (ROADMAP 1a)

    @property
    def inventory_ok(self) -> bool:
        return min(self.final_inventory.tolist()) >= 0.0


class PolicyError(RuntimeError):
    """Policy emitted an out-of-box, non-shutoff price."""


def _serve(model, A, prices, lengths, remaining, rng, noiseless=False):
    """Serve a schedule, prices[r] for lengths[r] periods row after row, until
    the first purchase that `remaining` cannot cover (None: no limit).
    Returns (served, demand, after) for the rows up to the one cut short (the
    rest go unserved): the periods each served, its outcome counts (N products,
    then no purchase) or, noiseless, its mean demand per period, and the
    inventory after it (None without a limit). `_averages` turns either
    into the rows' answer. A mean below zero (a linear D can be -1e-17 at a
    box corner) sells nothing in either mode, so inventory only falls.

    One stacked model.mean, then each row's demand: a row-wise count draw, or
    the mean itself if noiseless. One scan of cumulative consumption
    (np.subtract.accumulate rounds as row-by-row subtraction does) finds the
    first row that does not fit, and only that row is cut, by
    `_noiseless_served` if noiseless. Sampled, the draws after it are then
    taken back: the generator state saved before the draw is restored and the
    rows up to it drawn again, which consumes the stream as one draw per row
    does. Inside that row, halving finds the first unservable period: given a
    segment's counts, the counts of its first h periods are multivariate
    hypergeometric, so each split is exact in distribution. A one-row schedule
    never touches the bit generator. A sampled schedule with a row longer than
    _ROW_LIMIT is served by `_serve_parts`."""
    K = len(lengths)
    if not noiseless and max(lengths.tolist()) > _ROW_LIMIT:
        return _serve_parts(model, A, prices, lengths, remaining, rng)
    # a single row takes the vector call, which costs less than a one-row stack
    means = model.mean(prices[0])[None] if K == 1 else model.mean(prices)
    if noiseless:
        demand = np.maximum(means, 0.0)
    else:
        # no purchase takes 1 - sum D(p)
        pvals = np.zeros((K, means.shape[1] + 1))
        np.maximum(means, 0.0, out=pvals[:, :-1])
        state = rng.bit_generator.state if K > 1 and remaining is not None else None
        demand = _draw(rng, lengths, pvals)
    if remaining is None:
        return lengths, demand, None
    if noiseless:
        cons = _on_vectors(np.matmul, A, demand)
        used = lengths[:, None] * cons
    else:
        used = _on_vectors(np.matmul, A, demand[:, :-1])
    after = _scan(remaining, used)
    # inventory only falls, so the last row fits if every row does
    if min(after[-1].tolist()) >= 0.0:
        return lengths, demand, after
    r = int(np.flatnonzero((after < 0.0).any(axis=1))[0])
    before = after[r - 1] if r else remaining
    served = lengths[:r + 1].copy()
    if noiseless:
        served[r] = _noiseless_served(before, cons[r], int(lengths[r]))
        used = served[r] * cons[r]
    else:
        if K > 1:
            rng.bit_generator.state = state
            demand = _draw(rng, lengths[:r + 1], pvals[:r + 1])
        served[r], demand[r] = _split(A, demand[r], int(lengths[r]), before, rng)
        used = A.dot(demand[r, :-1])
    after[r] = before - used
    return served, demand[:r + 1], after[:r + 1]


def _serve_parts(model, A, prices, lengths, remaining, rng):
    """`_serve` of a sampled schedule with a row longer than _ROW_LIMIT: every
    row is served as consecutive sub-rows of at most _ROW_LIMIT periods at its
    price, each drawn before the fit is known (one multinomial per row is the
    sum of its sub-rows' draws in law), and the sub-rows' periods and counts
    are summed back into their rows. So the halving inside the row that runs
    out splits at most _ROW_LIMIT periods."""
    parts = -(-lengths // _ROW_LIMIT)
    ends = np.cumsum(parts)
    sub = np.full(ends[-1], _ROW_LIMIT, dtype=np.int64)
    sub[ends - 1] = lengths - (parts - 1) * _ROW_LIMIT
    served, counts, after = _serve(model, A, prices.repeat(parts, axis=0), sub, remaining, rng)
    r = int(np.searchsorted(ends, len(served)))   # the row of the last sub-row served
    starts = ends[:r + 1] - parts[:r + 1]
    if after is not None:
        after = after[np.append(ends[:r] - 1, len(served) - 1)]
    return np.add.reduceat(served, starts), np.add.reduceat(counts, starts), after


def _averages(demand, lengths, noiseless: bool) -> np.ndarray:
    """The answer to served rows of `_serve`'s demand: each row's average
    demand per period, its mean if noiseless, else its counts over its length."""
    return demand if noiseless else demand[:, :-1] / lengths[:, None]


def _draw(rng, lengths, pvals):
    """Multinomial counts of each row; a stacked draw consumes the stream as
    one draw per row does, and a single row takes the cheaper scalar call."""
    if len(lengths) == 1:
        return rng.multinomial(lengths[0], pvals[0])[None]
    return rng.multinomial(lengths, pvals)


def _scan(remaining, used):
    """The inventory after each row, rounded as row-by-row subtraction rounds
    it; may overwrite used."""
    used[0] = remaining - used[0]
    return np.subtract.accumulate(used)


def _split(A, seg, k, remaining, rng):
    """(served, counts) of a k-period segment whose counts seg do not fit:
    the periods before the first purchase that `remaining` cannot cover, and
    their counts, by halving."""
    served, kept = 0, np.zeros_like(seg)
    while k > 1:
        h = k // 2
        head = rng.multivariate_hypergeometric(seg, h)
        trial = kept + head
        if min((remaining - A.dot(trial[:-1])).tolist()) >= 0.0:
            served, kept, seg, k = served + h, trial, seg - head, k - h
        else:
            seg, k = head, h
    return served, kept


def _noiseless_served(before, cons, k: int) -> int:
    """The periods a noiseless row of length k serves from the inventory
    `before` it, consuming cons a period: the largest s <= k with
    fl(s cons_j) <= before_j for every resource, or 0 if none. A resource
    with cons_j <= 0 never limits the row. For each resource that does, s
    starts from fl(before_j / cons_j), which is within a step or two of the
    answer below 2**52, and steps down, then up, to it."""
    s = k
    for b, c in zip(before.tolist(), cons.tolist()):
        if c <= 0.0 or s * c <= b:
            continue
        q = b / c
        t = int(q) if 0.0 <= q < s else (s - 1 if q >= s else 0)   # a NaN takes 0
        while t > 0 and t * c > b:
            t -= 1
        while t + 1 < s and (t + 1) * c <= b:
            t += 1
        s = t
    return s


def _cut(prices, lengths, left: int) -> tuple:
    """A schedule's rows within the `left` periods that remain, the last cut short."""
    ends = np.cumsum(lengths)
    K = int(np.searchsorted(ends, left)) + 1
    lengths = lengths[:K].copy()
    lengths[-1] = left - (ends[K - 2] if K > 1 else 0)
    return prices[:K], lengths


def _in_box(prices: np.ndarray, lo: float, hi: float) -> bool:
    flat = prices.ravel()
    if flat.size > _FEW:
        return bool(lo <= flat.min() and flat.max() <= hi)   # a NaN fails both
    return all(lo <= x <= hi for x in flat.tolist())


def _fold(ledger: list, sold: list, hasher, noiseless: bool) -> None:
    """Tally and hash the buffered (prices, outcomes, served) of served
    requests, one tally and one hash update for the whole batch, and empty the
    buffer. The hash streams and the revenue is one fsum of exact products, so
    where a batch ends changes neither."""
    if not ledger:
        return
    prices, outcomes, served = (ledger[0] if len(ledger) == 1
                                else (np.concatenate(col) for col in zip(*ledger)))
    ledger.clear()
    sold.append(_tally(_dot(outcomes, prices), served) if noiseless
                else _tally(prices, outcomes[:, :-1]))
    hasher.update(_outcomes(prices, None if noiseless else outcomes, served))


def _outcomes(prices, counts, served) -> bytes:
    """Fingerprint bytes of served rows, row after row as each row served alone
    hashes: price, outcome counts (sampled rows only) and periods served."""
    cols = [prices.view(np.int64)] + ([] if counts is None else [counts]) + [served[:, None]]
    return np.concatenate(cols, axis=1).tobytes()


def run_episode(instance: Instance, policy: Policy, seed: int,
                record_periods: bool = False) -> EpisodeTrace:
    """Run one episode of at most T periods.

    Each period: query the policy, sample demand and attempt fulfillment; a
    purchase that any resource cannot fully serve is lost, shuts the market
    for good and ends the episode at shutoff_period. Deterministic given the seed.

    Each query takes the policy's schedule (the one-period schedule at its
    price when it has none), cut at the horizon, and serves it with one
    `_serve` call: a noiseless market sells the exact mean demand each
    period, and a sampled one draws outcome counts. observe_block answers
    the request with each row's average demand (`_averages`) unless the
    horizon cut it or the market shut in it. The fingerprint hashes each
    served row (price, counts, served) as a row served alone. Recorded rows
    order a sampled row's served outcomes by a uniform random permutation
    from a second generator derived from the seed, so a recorded and an
    unrecorded run of one seed are the same episode; the periods after the
    episode ended record NaN prices, no demand and the final inventory.
    Served requests are buffered and folded into the fingerprint and a tally
    of the units sold at each price, _LEDGER_ROWS requests at a time. The revenue
    is one fsum of exact products of units and prices: in both modes it
    equals the fsum of the recorded per-period revenues.
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
    sold: list = []   # tallies of units by price; noiseless: of periods by revenue per period
    ledger = []   # served requests not yet tallied and hashed
    shutoff_period: Optional[int] = None
    periods = None
    if record_periods:
        order_rng = np.random.default_rng(np.random.PCG64(fold_name(seed, "record")))
        A_ext = np.hstack([A, np.zeros((M, 1))])
        # NaN prices mark the periods after the episode ended.
        periods = {"price": np.full((T, N), np.nan), "demand": np.zeros((T, N)),
                   "revenue": np.zeros(T), "inventory": np.empty((T, M))}

    t = 0  # completed periods
    while t < T:
        p = policy.next_price(t + 1)
        plan = policy.schedule()
        prices, lengths = (np.asarray(p, dtype=float)[None], _ONE_PERIOD) if plan is None else plan
        span = sum(lengths.tolist())
        cut = span > T - t
        if cut:
            span = T - t
            prices, lengths = _cut(prices, lengths, span)
        if prices.shape != (len(lengths), N) or not _in_box(prices, p_lo, p_hi):
            shown = prices[0] if len(prices) == 1 else "of a schedule"
            raise PolicyError(f"price {shown} outside [{instance.price_min}, {instance.price_max}]")

        served, demand, after = _serve(model, A, prices, lengths, remaining, rng, noiseless)
        # copies: a policy may reuse its arrays for its next request
        ledger.append((prices[:len(served)].copy(), demand, served.copy()))
        if len(ledger) >= _LEDGER_ROWS:
            _fold(ledger, sold, hasher, noiseless)

        if record_periods:
            start = t
            for i, (k, s) in enumerate(zip(lengths.tolist(), served.tolist())):
                # the period whose purchase could not be served still posted p
                periods["price"][start:start + min(s + 1, k)] = prices[i]
                if s:
                    if noiseless:
                        y_rows = demand[i]
                        cum = np.arange(1, s + 1)[:, None] * (A @ demand[i])
                    else:
                        idx = order_rng.permutation(np.repeat(np.arange(N + 1), demand[i]))
                        y_rows, cum = np.eye(N + 1)[idx, :N], np.cumsum(A_ext[:, idx], axis=1).T
                    periods["demand"][start:start + s] = y_rows
                    periods["inventory"][start:start + s] = (after[i - 1] if i else remaining) - cum
                    periods["inventory"][start + s - 1] = after[i]
                    periods["revenue"][start:start + s] = y_rows @ prices[i]
                start += k
        remaining = after[-1].copy()

        if sum(served.tolist()) < span:
            # the first unservable purchase shuts the market for good
            t += sum(served.tolist())
            shutoff_period = t + 1
            break
        if not cut:   # a request that the horizon cut goes unanswered
            policy.observe_block(t + 1, _averages(demand, lengths, noiseless), lengths)
        t += span

    _fold(ledger, sold, hasher, noiseless)
    if periods is not None:   # the periods after the episode ended
        periods["inventory"][t:] = remaining

    return EpisodeTrace(
        T=T,
        seed=seed,
        policy_name=getattr(policy, "name", type(policy).__name__),
        total_revenue=_revenue(sold),
        shutoff_period=shutoff_period,
        final_inventory=remaining,
        fingerprint=hasher.hexdigest(),
        periods=periods,
        events=list(getattr(policy, "events", [])),
    )


def percentage_loss(instance: Instance, trace: EpisodeTrace, fluid_value: float) -> float:
    """(T phi* - revenue) / (T phi*), with the fluid upper bound standing in
    for the unknown optimal reward (so the reported loss is conservative)."""
    bound = instance.T * fluid_value
    return (bound - trace.total_revenue) / bound


def _csv_block(first: int, table: np.ndarray) -> str:
    """CSV rows of periods first, first + 1, ... whose values are the rows of
    a float64 table: '%.17g' cells, CRLF row ends. String work is done once
    per run of rows equal bit for bit (so -0.0 stays apart from 0.0 and NaN
    rows form runs) and each distinct bit pattern is formatted once; period t
    is str(t // 1000) and a cell of _THOUSANDS. Nothing outlives the call."""
    rows = len(table)
    bits = table.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], np.any(bits[1:] != bits[:-1], axis=1))))
    keys, which = np.unique(bits[starts], return_inverse=True)
    cells = np.array(["%.17g" % x for x in keys.view(np.float64).tolist()], dtype=object)
    tails = list(map(",".join, zip(*cells[which.reshape(len(starts), -1).T].tolist())))
    out = ["\r\n"] * (4 * rows)   # per row: period prefix, period suffix, values, row end
    out[2::4] = np.repeat(np.array(tails, dtype=object), np.diff(starts, append=rows)).tolist()
    prefix, suffix = [], []
    t, end = first, first + rows
    while t < end:
        k, r = divmod(t, 1000)
        n = min(1000 - r, end - t)
        prefix += [str(k) if k else ""] * n
        suffix += _THOUSANDS[r:r + n] if k else ["%d," % i for i in range(t, t + n)]
        t += n
    out[0::4], out[1::4] = prefix, suffix
    return "".join(out)


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
    columns = [price, trace.periods["demand"], trace.periods["revenue"][:, None], inventory]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for s in range(0, len(price), _EXPORT_BLOCK):
            table = np.concatenate([c[s:s + _EXPORT_BLOCK] for c in columns], axis=1, dtype=float)
            fh.write(_csv_block(s + 1, table))


def export_events_jsonl(trace: EpisodeTrace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(event) + "\n" for event in trace.events))
