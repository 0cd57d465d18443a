"""The four workloads and the stages they are made of.

Every run executes all four kinds of stage, because every run reports every
metric. The workload decides which stage is large (its primary stage, most of
the run's time); the others run at a small companion size:

- ``sweep``: ``run_bench`` over seeded episodes. Primary on ``plans``: the two
  bundled plans, unchanged but for their replications (chunks of one
  replicate each), where the market sampler in ``sim`` is about 90% of
  episode time. Companion: plan_scaling's pdnrm config at T = 1e3..1e5, so loss and
  regret slope exist on every workload.
- ``noiseless``: pdnrm (tuned default and the scaling config) and ETC episodes
  at T = 1e7 with ``noise="none"``, plus ``grad_est`` / ``primal_opt`` against
  ``DemandOracle``. The sampler is bypassed, so policy compute is a large share:
  a pdnrm change shows here and barely on ``plans``.
- ``oracle``: certify the bundled instance (N = 2) and a seeded random logit
  family (N = 3, 4) with ``solve_fluid``, and run ``estimate_regularity`` on
  the bundled instance and the first N = 3 member. No episode depends on it,
  so it shows a fluid/dual change that ``plans`` (one N = 2 solve per plan)
  barely sees. The one N = 4 member is where the 25^N grid of
  ``default_dual_set`` dominates. N = 4 is the largest size whose solve fits
  a run.
- ``trace``: the ``nrmlab run --trace --events`` path: recorded pdnrm episodes
  exported with ``export_trace_csv`` and ``export_events_jsonl``. Export costs
  about 25x the recorded episode, so a streaming writer shows here on time.
  One more episode at T = 1e6 is recorded and held without export: its
  arrays are most of the run's peak RSS, so a writer that stops holding the
  trace shows on memory too.

Each stage is cut into units (a chunk of a plan, a round of episodes, a
solve, a trace) and the units of all stages are interleaved evenly over the
run, so a companion metric samples the whole run, not one moment of it.
Work that repeats (chunks, rounds, repeated solves and traces) is timed as
the median over its runs. On a shared 2-vCPU Xeon VM (2.1 GHz) the speed
swings by up to 1.5x for tens of seconds at a time, so each unit's time is
also rescaled to a reference speed by a probe that runs no nrmlab code (see
``speed_probe``); the raw stage walls are printed beside the metrics.
"""

import dataclasses
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import nrmlab
import inputs
import tracer as tracing

NOMINAL_SECONDS = 20          # run length the primary sizes below are set for
WORKLOADS = ("plans", "noiseless", "oracle", "trace")
PRIMARY = {"plans": "sweep", "noiseless": "noiseless", "oracle": "oracle", "trace": "trace"}
# Where periods_per_s and ns_per_period.* come from on each workload.
EPISODE_SOURCE = {"plans": "sweep", "noiseless": "noiseless", "oracle": "sweep",
                  "trace": "sweep"}

# Primary sweep: each bundled plan in PLANS_CHUNKS chunks of one replicate,
# each chunk with its own base seed and one run_bench call per policy (a short
# unit the speed probes bracket closely): 12 of plan_desk's 20 replications
# and 6 of plan_scaling's 10. A (policy, T) cell is timed at as many moments
# of the run as it has chunks, so its median does not rest on a few seconds of
# a machine whose speed swings.
PLANS_CHUNKS = {"plan_desk": 12, "plan_scaling": 6}
COMPANION_SWEEP = dict(T_grid=(1_000, 10_000, 100_000), replications=3, chunks=6)
NOISELESS_HORIZON = {"primary": 10_000_000, "companion": 1_000_000}
NOISELESS_ROUNDS = {"primary": 20, "companion": 4}
# Members have one resource: with M >= 2 at N >= 3 the oracle stalls or fails
# on ordinary draws, and random N = 2 draws fail or stall in 0.2-0.7% of
# cases, so N = 2 is the bundled instance (see the exclusions in
# reference.json). A primary family keeps at least one N = 3 member.
ORACLE_FAMILY = {"primary": {3: 2, 4: 1}, "companion": {}}
ORACLE_M = {3: 1, 4: 1}
# Regularity scans: the first family member of each N, or the bundled
# instance when the family has none (N = 2, and the companion size).
REGULARITY_GRID = {"primary": {2: 41, 3: 9}, "companion": {2: 21}}
# Repeats of each timed oracle unit (the N = 4 solve runs once: it alone
# takes about 10 s) and of each trace episode.
REPEATS = {"primary": 3, "companion": 3}
# solve_ms.p50 times the solve every `nrmlab run` and `nrmlab bench` pays:
# the bundled instance. The family's own solve times vary 5x between draws.
BUNDLED_SOLVES = 6
TRACE_EPISODES = {"primary": (3, 100_000), "companion": (4, 5_000)}
# Horizon of the one recorded episode that is held, not exported (0: none).
# At T = 1e6 its arrays take about 110 MiB, most of the trace run's peak RSS.
TRACE_HELD = {"primary": 1_000_000, "companion": 0}
# ns_per_period.* take one value per episode, from episodes of at least this
# horizon: at T = 1e3 an episode lasts 1-5 ms, mostly noise on a shared
# machine. The slowest per period are the short episodes, where work done
# once per episode (policy set-up, ETC's LP, pdnrm's first epochs) weighs
# most, so p90 follows that work.
PERCENTILE_MIN_T = 10_000
CERTIFICATE_TOL = 1e-5        # solve_fluid's default certificate tolerance
REVENUE_ROUNDING = 1e-12
# Timings are reported at reference speed: each unit's seconds are scaled by
# PROBE_REFERENCE_S / (the speed probe's seconds around the unit).
# 2.7 ms is about the probe's fastest time on a 2-vCPU Xeon VM at 2.1 GHz.
PROBE_REFERENCE_S = 2.7e-3
PROBE_EDGES = np.array([0.2, 0.4, 0.6])
PROBE_ONES = np.ones((2, 4))
LONG_RUN_S = 5.0
GRAD_EST_CALLS = 8
PRIMAL_OPT_EPOCHS = (0, 20, 40, 60)


@dataclass
class Ledger:
    """Counts every checked operation; a failed check is kept, never dropped."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Inputs:
    seed: int
    bundled: nrmlab.Instance
    plans: list                    # (family, BenchPlan); a family has several chunks
    slope_family: str              # whose pdnrm rows give regret_slope
    oracle_instances: list         # (label, Instance) of the random family
    regularity: dict               # label -> (Instance, grid points) of a regularity scan
    oracle_repeats: int            # runs of each timed oracle unit
    trace_repeats: int             # runs of each trace episode
    noiseless_instances: list      # (label, Instance)
    noiseless_rounds: int
    scaling_config: dict
    trace_seeds: list
    trace_horizon: int
    held_horizon: int              # recorded and held, not exported; 0: none


@dataclass
class Results:
    ledger: Ledger = field(default_factory=Ledger)
    # (stage, what) -> [(work, seconds, probe index)]: one entry per run of
    # the same work, where work is periods, rows or 1.
    timings: dict = field(default_factory=dict)
    stage_wall: dict = field(default_factory=dict)
    summaries: list = field(default_factory=list)       # (family, BenchPlan, BenchSummary)
    first: dict = field(default_factory=dict)           # key -> first result, for reruns
    pdnrm_cells: list = field(default_factory=list)     # (family, T, mean loss %, stderr %)
    slope: float = math.nan
    slope_se: float = math.nan
    trace_rows: int = 0                                 # rows exported, repeats included
    export_bytes: dict = field(default_factory=dict)    # trace episode -> bytes written
    probes: list = field(default_factory=list)           # speed probe seconds, unit by unit

    def record(self, key, work, seconds):
        """One run of a unit's work; the unit is bracketed by probes[-1] and
        the probe taken after it."""
        self.timings.setdefault(key, []).append((work, seconds, len(self.probes) - 1))

    def times(self, stage, normalized=True) -> dict:
        """key -> (work, seconds) for one stage's keys: the median over the
        key's runs, each rescaled to reference speed unless normalized is
        False."""
        out = {}
        for key, runs in self.timings.items():
            if key[0] == stage:
                out[key] = (runs[0][0], statistics.median(
                    sec * (self.speed_scale(sec, i) if normalized else 1.0)
                    for _, sec, i in runs))
        return out

    def speed_scale(self, seconds: float, i: int) -> float:
        """Factor to reference speed for a run of the given length bracketed
        by probes i and i + 1. A run longer than LONG_RUN_S has averaged the
        machine's swings itself, and the two point probes around it would add
        noise, so it is rescaled by the run's median probe instead."""
        probe = (statistics.median(self.probes) if seconds > LONG_RUN_S
                 else statistics.fmean(self.probes[i:i + 2]))
        return PROBE_REFERENCE_S / probe


# -- inputs ---------------------------------------------------------------


def build_inputs(root: str, workload: str, seed: int, seconds: float, tmpdir: str) -> Inputs:
    """Everything the run hands to nrmlab, made from the seed alone. The
    primary stage's size scales with seconds / NOMINAL_SECONDS."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    f = seconds / NOMINAL_SECONDS

    def size(stage):
        return "primary" if PRIMARY[workload] == stage else "companion"

    bundled = nrmlab.load_instance(os.path.join(root, "configs", "instance_logit.json"))
    if size("sweep") == "primary":
        chunks = {name: max(2, round(c * f)) for name, c in PLANS_CHUNKS.items()}
        seeds = [seed] + inputs.episode_seeds(seed, inputs.STREAM_SWEEP, max(chunks.values()) - 1)
        ordered = []
        for c, chunk_seed in enumerate(seeds):
            for name, plan in inputs.bundled_plans(root, chunk_seed,
                                                   os.path.join(tmpdir, str(c))).items():
                if c < chunks[name]:
                    # Each plan's chunks spread evenly over the stage.
                    ordered += [((c + 0.5) / chunks[name], name, dataclasses.replace(
                        plan, replications=1, policies=(policy,),
                        output_dir=os.path.join(plan.output_dir, policy)))
                        for policy in plan.policies]
        ordered.sort(key=lambda item: item[0])
        plans = [(name, plan) for _, name, plan in ordered]
        slope_family = "plan_scaling"
    else:
        sweep = COMPANION_SWEEP
        seeds = inputs.episode_seeds(seed, inputs.STREAM_SWEEP, sweep["chunks"])
        plans = [("scaling_short", inputs.short_scaling_plan(
            root, s, sweep["T_grid"], sweep["replications"])) for s in seeds]
        slope_family = "scaling_short"
    scaling_config = next(p for name, p in plans if name == slope_family).pdnrm_config

    counts = ORACLE_FAMILY[size("oracle")]
    if size("oracle") == "primary":
        counts = {n: max(round(c * f), 1 if n == 3 else 0) for n, c in counts.items()}
    sizes = [(n, ORACLE_M[n]) for n in sorted(counts) for _ in range(counts[n])]
    oracle_instances = [(f"n{inst.N}m{inst.M}#{i}", inst)
                        for i, inst in enumerate(inputs.oracle_family(seed, sizes))]
    regularity = {}
    for n, grid in REGULARITY_GRID[size("oracle")].items():
        members = [(lab, inst) for lab, inst in oracle_instances if inst.N == n]
        label, inst = members[0] if members else ("bundled", bundled)
        if inst.N == n:
            regularity[label] = (inst, grid)

    T = NOISELESS_HORIZON[size("noiseless")]
    noiseless_instances = [("bundled", nrmlab.Instance(
        model=bundled.model, A=bundled.A, gamma=bundled.gamma, T=T,
        price_min=bundled.price_min, price_max=bundled.price_max, noise="none"))]
    rounds = NOISELESS_ROUNDS[size("noiseless")]
    if size("noiseless") == "primary":
        noiseless_instances.append(("n4m2", inputs.noiseless_instance(seed, 4, 2, T)))
        rounds = max(2, round(rounds * f))

    count, horizon = TRACE_EPISODES[size("trace")]
    if size("trace") == "primary":
        count, horizon = max(1, round(count * max(f, 1.0))), max(10_000, round(horizon * min(f, 1.0)))
    return Inputs(seed=seed, bundled=bundled, plans=plans,
                  slope_family=slope_family, oracle_instances=oracle_instances,
                  regularity=regularity, oracle_repeats=REPEATS[size("oracle")],
                  trace_repeats=REPEATS[size("trace")],
                  noiseless_instances=noiseless_instances, noiseless_rounds=rounds,
                  scaling_config=scaling_config,
                  trace_seeds=inputs.episode_seeds(seed, inputs.STREAM_TRACE, count),
                  trace_horizon=horizon, held_horizon=TRACE_HELD[size("trace")])


# -- checks ---------------------------------------------------------------


def check_certificate(ledger: Ledger, label: str, inst, sol, tol: float = CERTIFICATE_TOL) -> bool:
    """Strong duality, complementary slackness and A d* <= gamma, each within
    the solve tolerance."""
    excess = inst.A @ sol.d_star - inst.gamma
    comp = abs(float(sol.lambda_star @ excess))
    ok = (abs(sol.duality_gap) <= tol and comp <= tol and float(excess.max()) <= tol
          and bool(np.all(sol.lambda_star >= 0)))
    return ledger.check(ok, f"certificate {label}: gap={sol.duality_gap:.3e} "
                            f"comp={comp:.3e} excess={float(excess.max()):.3e}")


def check_episode(ledger: Ledger, label: str, inventory_ok: bool, shutoff_ok: bool) -> bool:
    return ledger.check(inventory_ok and shutoff_ok,
                        f"episode {label}: inventory_ok={inventory_ok} shutoff_ok={shutoff_ok}")


def check_rerun(ledger: Ledger, label: str, a_fingerprint, a_revenue, b) -> bool:
    return ledger.check(a_fingerprint == b.fingerprint and a_revenue == b.total_revenue,
                        f"rerun {label}: fingerprint or revenue differs")


def check_trace_files(ledger: Ledger, label: str, trace, csv_path: str, events_path: str) -> bool:
    """The CSV has T rows and its revenue column sums (fsum) to the episode's
    total revenue; the JSONL has one line per event."""
    with open(csv_path) as fh:
        col = fh.readline().rstrip("\n").split(",").index("revenue")
        revenue = [float(line.split(",")[col]) for line in fh]
    with open(events_path) as fh:
        n_events = sum(1 for _ in fh)
    return ledger.check(len(revenue) == trace.T and math.fsum(revenue) == trace.total_revenue
                        and n_events == len(trace.events),
                        f"trace files {label}: rows={len(revenue)} events={n_events}")


# -- stage units ----------------------------------------------------------
#
# A unit is one call into the package with its checks. Units are listed
# repeat by repeat, so the runs of one piece of work sit about 1/repeats of
# the run apart once the scheduler spreads them.


def sweep_units(inp: Inputs, res: Results) -> list:
    first = {}
    for family, plan in inp.plans:
        first.setdefault((family, plan.policies), plan)

    def unit(family, plan):
        def run():
            summary = nrmlab.run_bench(plan)
            res.summaries.append((family, plan, summary))
            for e in summary.episodes:
                # Chunks repeat the same (policy, T, replicate) with other seeds:
                # one key, timed as the median over chunks.
                res.record(("sweep", family, e.policy, e.T, e.replicate), e.T, e.wall_ms / 1e3)
                check_episode(res.ledger, f"{family}/{e.policy}/T={e.T}/seed={e.seed}",
                              e.inventory_ok, e.shutoff_ok)
            for err in summary.errors:
                res.ledger.check(False, f"episode {family}/{err['policy']}/T={err['T']}/"
                                        f"seed={err['seed']}: {err['error']}")
            if plan is first[(family, plan.policies)]:
                rerun_sweep(res, family, plan, summary)
        return run

    return [unit(family, plan) for family, plan in inp.plans]


def rerun_sweep(res: Results, family: str, plan, summary) -> None:
    """One rerun per policy, from the public API: the episode at the
    smallest horizon must give the same fingerprint and revenue."""
    for policy in plan.policies:
        cell = [e for e in summary.episodes if e.policy == policy]
        if not cell:
            res.ledger.check(False, f"rerun {family}/{policy}: no episode to rerun")
            continue
        e = min(cell, key=lambda e: (e.T, e.replicate))
        inst = plan.instance.with_horizon(e.T)
        pol = nrmlab.build_policy(policy, inst, summary.fluid, pdnrm_config=plan.pdnrm_config,
                                  etc_config=plan.etc_config)
        check_rerun(res.ledger, f"{family}/{policy}/T={e.T}", e.fingerprint, e.revenue,
                    nrmlab.run_episode(inst, pol, e.seed))


def noiseless_units(inp: Inputs, res: Results) -> list:
    def unit(rnd):
        def run():
            for label, inst in inp.noiseless_instances:
                for policy, config in (("pdnrm", None), ("pdnrm", inp.scaling_config),
                                       ("etc", None)):
                    what = f"{label}/{policy}/{'scaling' if config else 'default'}"
                    pol = nrmlab.build_policy(policy, inst, None, pdnrm_config=config)
                    t0 = time.perf_counter()
                    trace = nrmlab.run_episode(inst, pol, seed=inp.seed)
                    res.record(("noiseless", what), inst.T, time.perf_counter() - t0)
                    check_episode(res.ledger, f"noiseless {what}", trace.inventory_ok,
                                  trace.shutoff_ok)
                    ref = res.first.setdefault(("noiseless", what), trace)
                    if rnd > 0:
                        check_rerun(res.ledger, f"noiseless {what}", ref.fingerprint,
                                    ref.total_revenue, trace)
                oracle_calls(res.ledger, label, inst, inp.scaling_config, rnd)
        return run

    return [unit(rnd) for rnd in range(inp.noiseless_rounds)]


def oracle_calls(ledger: Ledger, label: str, inst, scaling_config: dict, rnd: int) -> None:
    """grad_est and primal_opt against the exact-mean DemandOracle, at prices
    and multipliers that vary by round."""
    cfg = nrmlab.config_from_dict(scaling_config, instance=inst, T=inst.T)
    margin = cfg.p_margin * (inst.price_max - inst.price_min)
    lo, hi = inst.price_min + margin, inst.price_max - margin
    lam = np.full(inst.M, 0.25 * (1 + rnd % 4))
    for k, price in enumerate(np.linspace(lo, hi, GRAD_EST_CALLS + 2)[1:-1]):
        env = nrmlab.DemandOracle(inst)
        n = cfg.n0 * 4 ** (k % 6)
        out = nrmlab.grad_est(env, inst, cfg, np.full(inst.N, price), lam, n)
        ledger.check(env.periods == n and out.periods_consumed == n
                     and bool(np.all(np.isfinite(out.grad_f)))
                     and bool(np.all(out.tilde_p >= inst.price_min))
                     and bool(np.all(out.tilde_p <= inst.price_max)),
                     f"grad_est {label} p={price:.3f} n={n}")
    for s in PRIMAL_OPT_EPOCHS:
        env = nrmlab.DemandOracle(inst)
        eps_bar = cfg.kappa6 * (1.0 + cfg.mu * cfg.eta2) ** (-s / 2.0)
        p_hat, d_hat = nrmlab.primal_opt(env, inst, cfg, lam, eps_bar)
        ledger.check(bool(np.all(p_hat >= lo - 1e-12) and np.all(p_hat <= hi + 1e-12)
                          and np.all(np.isfinite(d_hat))),
                     f"primal_opt {label} epoch {s}: p_hat={p_hat.tolist()}")


def oracle_units(inp: Inputs, res: Results, family: bool) -> list:
    """Solves of the random family and its regularity scans, or (family
    False) the solves of the bundled instance."""
    def solve(stage, label, inst):
        def run():
            t0 = time.perf_counter()
            try:
                sol = nrmlab.solve_fluid(inst)
            except (nrmlab.FluidError, nrmlab.DomainError) as exc:
                res.ledger.check(False, f"solve_fluid {label}: {type(exc).__name__}: {exc}")
                return
            res.record((stage, label), 1, time.perf_counter() - t0)
            check_certificate(res.ledger, label, inst, sol)
            ref = res.first.setdefault((stage, label), sol)
            if ref is not sol:
                res.ledger.check(np.array_equal(ref.d_star, sol.d_star)
                                 and np.array_equal(ref.lambda_star, sol.lambda_star),
                                 f"rerun solve_fluid {label}: a different certificate")
        return run

    def regularity(label, inst, grid):
        def run():
            t0 = time.perf_counter()
            reg = nrmlab.estimate_regularity(inst.model, inst.price_box, grid, inst.A, inst.gamma)
            res.record(("oracle", f"regularity {label}"), 1, time.perf_counter() - t0)
            values = np.array([reg.B_D, reg.sigma_D, reg.L_D, reg.B_f, reg.B_phi,
                               reg.sigma_phi, reg.B_A, reg.sigma_A])
            res.ledger.check(bool(np.all(np.isfinite(values)) and np.all(values > 0)
                                  and reg.sigma_D <= reg.B_D),
                             f"estimate_regularity {label}: {values.tolist()}")
        return run

    units = []
    for r in range(inp.oracle_repeats):
        if not family:
            units += [solve("bundled", f"bundled#{k}", inp.bundled) for k in range(BUNDLED_SOLVES)]
            continue
        units += [solve("oracle", label, inst) for label, inst in inp.oracle_instances
                  if inst.N < 4 or r == 0]
        units += [regularity(label, inst, grid) for label, (inst, grid) in inp.regularity.items()]
    return units


def trace_units(inp: Inputs, res: Results, tmpdir: str) -> list:
    inst = inp.bundled.with_horizon(inp.trace_horizon)

    def unit(i, seed):
        def run():
            csv_path = os.path.join(tmpdir, f"trace-{i}.csv")
            events_path = os.path.join(tmpdir, f"events-{i}.jsonl")
            t0 = time.perf_counter()
            trace = nrmlab.run_episode(inst, nrmlab.build_policy("pdnrm", inst, None), seed,
                                       record_periods=True)
            t1 = time.perf_counter()
            nrmlab.export_trace_csv(trace, csv_path)
            nrmlab.export_events_jsonl(trace, events_path)
            t2 = time.perf_counter()
            again = nrmlab.run_episode(inst, nrmlab.build_policy("pdnrm", inst, None), seed)
            t3 = time.perf_counter()
            res.record(("trace", i), inst.T, t2 - t0)
            res.record(("recorded", i), inst.T, t1 - t0)
            res.record(("unrecorded", i), inst.T, t3 - t2)
            res.trace_rows += inst.T
            res.export_bytes[i] = os.path.getsize(csv_path) + os.path.getsize(events_path)
            label = f"trace seed={seed}"
            check_episode(res.ledger, label, trace.inventory_ok, trace.shutoff_ok)
            ref = res.first.setdefault(("trace", i), trace)
            if ref is not trace:
                check_rerun(res.ledger, label, ref.fingerprint, ref.total_revenue, trace)
            # Recording must not change the episode. The recorded total is an
            # fsum over periods and the unrecorded one over block subtotals,
            # so the revenues agree to rounding, not bit for bit.
            res.ledger.check(again.fingerprint == trace.fingerprint and math.isclose(
                again.total_revenue, trace.total_revenue, rel_tol=REVENUE_ROUNDING),
                f"{label}: recording changed the episode")
            check_trace_files(res.ledger, label, trace, csv_path, events_path)
            os.remove(csv_path)
            os.remove(events_path)
        return run

    def held():
        big = inp.bundled.with_horizon(inp.held_horizon)
        seed = inp.trace_seeds[0]
        trace = nrmlab.run_episode(big, nrmlab.build_policy("pdnrm", big, None), seed,
                                   record_periods=True)
        revenue = trace.periods["revenue"]
        label = f"held trace T={big.T} seed={seed}"
        check_episode(res.ledger, label, trace.inventory_ok, trace.shutoff_ok)
        res.ledger.check(len(revenue) == big.T and math.fsum(revenue) == trace.total_revenue,
                         f"{label}: rows={len(revenue)}")

    units = [unit(i, seed) for _ in range(inp.trace_repeats)
             for i, seed in enumerate(inp.trace_seeds)]
    return units + [held] if inp.held_horizon else units


def run_workload(inp: Inputs, res: Results, tmpdir: str) -> None:
    """Run every stage's units, interleaved evenly: unit j of a stage with k
    units runs at fraction (j + 0.5) / k of the run."""
    stages = {"sweep": sweep_units(inp, res), "oracle": oracle_units(inp, res, True),
              "bundled": oracle_units(inp, res, False), "noiseless": noiseless_units(inp, res),
              "trace": trace_units(inp, res, tmpdir)}
    order = sorted(((j + 0.5) / len(units), s, j)
                   for s, units in enumerate(stages.values()) for j in range(len(units)))
    names = list(stages)
    res.probes.append(speed_probe())
    for _, s, j in order:
        t0 = time.perf_counter()
        stages[names[s]][j]()
        res.stage_wall[names[s]] = res.stage_wall.get(names[s], 0.0) + time.perf_counter() - t0
        res.probes.append(speed_probe())
    reduce_sweeps(inp, res)


def speed_probe() -> float:
    """Seconds for a fixed piece of work that uses no nrmlab code: a sampler-
    like draw, search and cumulative sum over 16 blocks of 4096 numbers, and
    a Python loop. On a shared virtual machine whose speed swings by up to
    1.5x for tens of seconds, dividing each unit's time by the probes around
    it removes most of the swing, and no change to nrmlab can change the
    probe. Its arrays stay below glibc's mmap threshold: larger ones made the
    probe time page faults, which depend on the heap's history, not on the
    machine's speed."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(16):
        idx = np.searchsorted(PROBE_EDGES, rng.random(1 << 12), side="right")
        acc += float(np.cumsum(PROBE_ONES[:, idx], axis=1)[0, -1])
    for i in range(10_000):
        acc += i
    return time.perf_counter() - t0


# -- reductions and metrics -----------------------------------------------


def reduce_sweeps(inp: Inputs, res: Results) -> None:
    """Pool each family's chunks into (policy, T) rows the way run_bench
    aggregates one plan, then take pdnrm's cells and the regret slope."""
    families = {}
    for family, plan, summary in res.summaries:
        families.setdefault(family, []).append(summary)
    for family, summaries in families.items():
        rows = pooled_rows(summaries)
        res.pdnrm_cells += [(family, r["T"], 100 * r["mean_loss"], 100 * r["stderr"])
                            for r in rows if r["policy"] == "pdnrm"]
        if family == inp.slope_family:
            pooled = nrmlab.BenchSummary(plan=summaries[0].plan, fluid=summaries[0].fluid,
                                         rows=rows)
            try:
                res.slope = nrmlab.loglog_slope(pooled, "pdnrm")
                res.slope_se = slope_stderr(rows, "pdnrm")
            except ValueError as exc:
                res.ledger.check(False, f"regret slope {family}: {exc}")


def pooled_rows(summaries) -> list:
    cells = {}
    for summary in summaries:
        for e in summary.episodes:
            cells.setdefault((e.policy, e.T), []).append(e)
    rows = []
    for (policy, T), cell in sorted(cells.items()):
        n = len(cell)
        mean_loss = math.fsum(e.loss for e in cell) / n
        var = math.fsum((e.loss - mean_loss) ** 2 for e in cell) / (n - 1) if n > 1 else 0.0
        rows.append({"policy": policy, "T": T, "mean_loss": mean_loss,
                     "stderr": math.sqrt(var / n),
                     "mean_revenue": math.fsum(e.revenue for e in cell) / n})
    return rows


def slope_stderr(rows, policy: str) -> float:
    """Standard error of the log-log slope, propagating each horizon's
    standard error of the mean loss through ln(regret) and the least-squares
    slope (the loss is regret / (T phi*), so se(ln regret) = se / loss)."""
    xs, ses = [], []
    for row in rows:
        if row["policy"] == policy and row["mean_loss"] > 0:
            xs.append(math.log(row["T"]))
            ses.append(row["stderr"] / row["mean_loss"])
    dx = np.array(xs) - np.mean(xs)
    return float(math.sqrt(np.sum(dx**2 * np.array(ses) ** 2)) / np.sum(dx**2))


def pdnrm_loss(res: Results) -> float:
    """Mean % loss of pdnrm over the run's (plan, T) cells, equally weighted."""
    return math.fsum(c[2] for c in res.pdnrm_cells) / len(res.pdnrm_cells)


def loss_stderr(res: Results) -> float:
    """Standard error of pdnrm_loss (cells are independent)."""
    return math.sqrt(math.fsum(c[3] ** 2 for c in res.pdnrm_cells)) / len(res.pdnrm_cells)


def period_ns(res: Results, stage: str) -> list:
    """ns per period of every timed episode of at least PERCENTILE_MIN_T
    periods, each at the median of its class: (family, policy, T) for a
    sweep, the episode for noiseless."""
    classes = {}
    for key, (periods, sec) in res.times(stage).items():
        if periods >= PERCENTILE_MIN_T:
            cls = key[:4] if stage == "sweep" else key
            classes.setdefault(cls, []).extend([sec * 1e9 / periods] * len(res.timings[key]))
    return [statistics.median(runs) for runs in classes.values() for _ in runs]


def end_to_end(workload: str, res: Results) -> dict:
    source = EPISODE_SOURCE[workload]
    episodes = res.times(source).values()
    ns = np.asarray(period_ns(res, source))
    traces = res.times("trace").values()
    return {
        "periods_per_s": sum(w for w, _ in episodes) / sum(s for _, s in episodes),
        "ns_per_period.p50": float(np.percentile(ns, 50)),
        "ns_per_period.p90": float(np.percentile(ns, 90)),
        "oracle_s": sum(s for stage in ("oracle", "bundled") for _, s in res.times(stage).values()),
        "solve_ms.p50": 1e3 * statistics.median(s for _, s in res.times("bundled").values()),
        "trace_rows_per_s": sum(w for w, _ in traces) / sum(s for _, s in traces),
        "loss_pct.pdnrm": pdnrm_loss(res),
        "regret_slope": res.slope,
    }


def per_layer(tracer, res: Results) -> dict:
    """Per-layer metrics of a traced run (names as in BENCHMARK.json)."""
    totals = tracer.totals()

    def calls(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def incl_ns(*names):
        return sum(totals[n][1] for n in names if n in totals)

    def methods(*policies):
        return [f"{p}.{m}" for p in policies for m in tracing.POLICY_METHODS]

    loops = [ev for name, _, events in tracer.episode_events if name == "pdnrm"
             for ev in events if ev["kind"] == "loop"]
    epochs = sum(1 for name, _, events in tracer.episode_events if name == "pdnrm"
                 for ev in events if ev["kind"] == "epoch")
    recorded, unrecorded = res.times("recorded", False), res.times("unrecorded", False)
    rows = sum(w for w, _ in recorded.values())
    out = {
        "sim.ns_per_period": totals["run_episode"][2]
        / sum(T for _, T, _ in tracer.episode_events),
        "sim.commits": calls(*(n for n in totals if n.endswith(".next_price"))),
        "sim.record_ms_per_1e5": sum(recorded[k][1] - unrecorded[("unrecorded", k[1])][1]
                                     for k in recorded) * 1e8 / rows,
        "sim.export_csv_ms_per_1e5": incl_ns("export_trace_csv") / 10 / res.trace_rows,
        "sim.export_bytes": sum(res.export_bytes.values()),
        "sim.export_events_ms": incl_ns("export_events_jsonl") / 1e6,
        "pdnrm.us_per_commit": incl_ns(*methods("pdnrm")) / 1e3 / calls("pdnrm.next_price"),
        "pdnrm.demand_balance_us": incl_ns("demand_balance") / 1e3 / calls("demand_balance"),
        "pdnrm.demand_balance_calls": calls("demand_balance"),
        "pdnrm.grad_est_us": incl_ns("grad_est") / 1e3 / calls("grad_est"),
        "pdnrm.epochs": epochs,
        "pdnrm.loops": len(loops),
        "pdnrm.balance_feasible_frac": sum(ev["balancing_feasible"] for ev in loops) / len(loops),
        "pdnrm.clipped_frac": sum(ev["clipped"] for ev in loops) / len(loops),
        "pdnrm.degraded_loops": sum(ev["degraded"] for ev in loops),
        "baselines.us_per_commit": incl_ns(*methods("clairvoyant", "etc")) / 1e3
        / calls("clairvoyant.next_price", "etc.next_price"),
        "fluid.solve_ms.n2": statistics.median(tracer.durations_ms("solve_fluid[n2]")),
        "fluid.dual_set_ms": incl_ns("default_dual_set") / 1e6,
        "fluid.inner_max_calls": calls("solve_inner_max"),
        "fluid.inner_max_ms": incl_ns("solve_inner_max") / 1e6,
        "fluid.grad_phi_evals": tracer.counts["fluid.grad_phi_evals"],
        "projections.project_calls": calls("project_polytope", "feasible_point"),
        "projections.project_ms": incl_ns("project_polytope", "feasible_point") / 1e6,
        "demand.regularity_s": incl_ns("estimate_regularity") / 1e9,
        "bench.harness_ms": totals["run_bench"][2] / 1e6,
    }
    self_ns = tracer.layer_self_ns()
    for layer in tracing.LAYERS:
        out[f"self_pct.{layer}"] = 100.0 * self_ns.get(layer, 0) / tracer.root_ns()
    return out


def solve_ms_by_size(tracer) -> dict:
    """N -> (median traced solve ms, solves, share of their time spent in
    default_dual_set); only the oracle workload solves N > 2."""
    dual_ns = {}
    for span in tracer.spans:
        if span["name"] == "default_dual_set":
            dual_ns[span["parent"]] = dual_ns.get(span["parent"], 0) + span["end_ns"] - span["start_ns"]
    out = {}
    for n in (2, 3, 4):
        solves = [s for s in tracer.spans if s["name"] == f"solve_fluid[n{n}]"]
        if solves:
            total = sum(s["end_ns"] - s["start_ns"] for s in solves)
            out[n] = (statistics.median(tracer.durations_ms(f"solve_fluid[n{n}]")), len(solves),
                      sum(dual_ns.get(s["id"], 0) for s in solves) / total)
    return out
