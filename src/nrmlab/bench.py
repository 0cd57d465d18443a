"""Replication harness: T-sweeps over seeded episodes, loss aggregation,
CSV/JSON outputs, and regret-scaling slopes.

Episodes are the unit of parallelism; the reduction is order-independent
(tasks are sorted by (policy, T, replicate) and results keep that order
before stable summation), so parallel and serial runs of the same plan
produce identical aggregates.
"""

import os
import csv
import json
import math
import time
import dataclasses
import functools
import numpy as np
from dataclasses import dataclass, field
from typing import Optional

from .instance import Instance, instance_from_dict, load_instance, _is_integral, _read, _require
from .fluid import solve_fluid, FluidSolution
from .sim import run_episode, percentage_loss, mix64, fold_name
from .pdnrm import PdNrmPolicy, PdNrmConfig, config_from_dict
from .baselines import ClairvoyantPolicy, ExploreThenCommitPolicy

POLICY_NAMES = ("pdnrm", "clairvoyant", "etc")
SUMMARY_HEADER = ["policy", "T", "mean_loss", "stderr", "mean_revenue",
                  "mean_shutoff", "episodes_failed", "wall_ms"]
EPISODES_HEADER = ["policy", "T", "replicate", "seed", "revenue", "loss", "shutoff"]


@dataclass(frozen=True)
class BenchPlan:
    instance: Instance
    policies: tuple
    T_grid: tuple
    replications: int
    base_seed: int
    output_dir: Optional[str] = None
    pdnrm_config: Optional[dict] = None     # JSON-style doc, resolved per horizon
    workers: int = 1
    etc_config = None   # not a field: perfbench/workloads.py reads it (ROADMAP 1a)

    def __post_init__(self):
        for key, what in (("replications", "a positive integer"), ("base_seed", "an integer"),
                          ("workers", "a positive integer")):
            val = getattr(self, key)
            _require("plan", key, _is_integral(val) and (key == "base_seed" or val >= 1), what, val)
            object.__setattr__(self, key, int(val))
        grid = self.T_grid
        _require("plan", "T_grid", isinstance(grid, (list, tuple, np.ndarray)) and len(grid) > 0
                 and all(_is_integral(t) and t >= 1 for t in grid)
                 and all(a < b for a, b in zip(grid, grid[1:])),
                 "a non-empty, strictly increasing list of positive integers", grid)
        object.__setattr__(self, "T_grid", tuple(int(t) for t in grid))
        _require("plan", "policies", isinstance(self.policies, (list, tuple))
                 and len(self.policies) > 0 and all(name in POLICY_NAMES for name in self.policies)
                 and len(set(self.policies)) == len(self.policies),
                 f"a non-empty list of distinct names from {list(POLICY_NAMES)}", self.policies)
        object.__setattr__(self, "policies", tuple(self.policies))
        _require("plan", "output_dir", self.output_dir is None
                 or isinstance(self.output_dir, (str, os.PathLike)), "a path", self.output_dir)
        if "pdnrm" in self.policies or self.pdnrm_config is not None:
            _require("plan", "T_grid", all(T >= 2 for T in self.T_grid),
                     "horizons of at least 2 for pdnrm, which needs T >= 2", self.T_grid)
            # run_bench resolves the document again, once per horizon (none is the tuned
            # formulas'); a malformed one, or an instance without pdnrm's boxes, fails here
            doc = {} if self.pdnrm_config is None else self.pdnrm_config
            for T in self.T_grid:
                config_from_dict(doc, self.instance, T)


@dataclass
class EpisodeResult:
    policy: str
    T: int
    replicate: int
    seed: int
    revenue: float
    loss: float
    shutoff: int          # shutoff period, or T when the market stayed open
    fingerprint: str
    inventory_ok: bool
    dual_updates: int
    max_loops_per_epoch: int
    wall_ms: float
    shutoff_ok = True   # as EpisodeTrace's; perfbench reads it (ROADMAP 1a)


@dataclass
class BenchSummary:
    plan: BenchPlan
    fluid: FluidSolution
    rows: list = field(default_factory=list)       # per (policy, T) dicts
    episodes: list = field(default_factory=list)   # EpisodeResult, sorted
    errors: list = field(default_factory=list)     # failed episodes, recorded not fatal


def episode_seed(base_seed: int, policy: str, T: int, replicate: int) -> int:
    return mix64(fold_name(base_seed, policy), T, replicate)


def build_policy(name: str, instance: Instance, fluid: FluidSolution,
                 pdnrm_config: Optional[dict] = None, etc_config=None):
    if etc_config is not None:   # kept for perfbench/workloads.py's call (ROADMAP 1a)
        raise ValueError("ETC has no options: etc_config must be None")
    if name == "pdnrm":
        if pdnrm_config is not None and not isinstance(pdnrm_config, PdNrmConfig):
            pdnrm_config = config_from_dict(pdnrm_config, instance)
        return PdNrmPolicy(instance, pdnrm_config)
    if name == "clairvoyant":
        return ClairvoyantPolicy(instance, fluid)
    if name == "etc":
        return ExploreThenCommitPolicy(instance)
    raise ValueError(f"unknown policy {name!r}")


def _count_events(events):
    """(dual updates, most loops in one epoch) of an episode's events."""
    duals = 0
    loops_per_epoch = {}
    for ev in events:
        if ev.get("kind") == "dual":
            duals += 1
        elif ev.get("kind") == "loop":
            loops_per_epoch[ev["s"]] = loops_per_epoch.get(ev["s"], 0) + 1
    max_loops = max(loops_per_epoch.values(), default=0)
    return duals, max_loops


def _run_task(plan: BenchPlan, fluid: FluidSolution, configs: dict, task: tuple):
    """Run one (policy, T, replicate, seed) episode of the plan, with the pdnrm
    config resolved at T in configs. Returns its EpisodeResult, or an error
    record when the episode fails."""
    policy_name, T, replicate, seed = task
    try:
        instance = plan.instance.with_horizon(T)
        policy = build_policy(policy_name, instance, fluid, pdnrm_config=configs.get(T))
        t0 = time.perf_counter()
        trace = run_episode(instance, policy, seed)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        duals, max_loops = _count_events(trace.events)
        return EpisodeResult(
            policy=policy_name, T=T, replicate=replicate, seed=seed,
            revenue=trace.total_revenue,
            loss=percentage_loss(instance, trace, fluid.value),
            shutoff=trace.shutoff_period if trace.shutoff_period is not None else T,
            fingerprint=trace.fingerprint,
            inventory_ok=trace.inventory_ok,
            dual_updates=duals,
            max_loops_per_epoch=max_loops,
            wall_ms=wall_ms,
        )
    except Exception as exc:  # recorded per episode, not fatal to the sweep
        return {"policy": policy_name, "T": T, "replicate": replicate, "seed": seed,
                "error": f"{type(exc).__name__}: {exc}"}


def run_bench(plan: BenchPlan) -> BenchSummary:
    """Execute the plan, aggregate, and (when output_dir is set) write
    summary.csv, episodes.csv, and run-metadata JSON."""
    fluid = solve_fluid(plan.instance)
    tasks = sorted((policy, T, rep, episode_seed(plan.base_seed, policy, T, rep))
                   for policy in plan.policies for T in plan.T_grid
                   for rep in range(plan.replications))
    doc = {} if plan.pdnrm_config is None else plan.pdnrm_config
    configs = {T: config_from_dict(doc, plan.instance, T)
               for T in plan.T_grid} if "pdnrm" in plan.policies else {}
    run_task = functools.partial(_run_task, plan, fluid, configs)

    wall_start = time.perf_counter()
    if plan.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            raw = list(pool.map(run_task, tasks, chunksize=1))
    else:
        raw = [run_task(t) for t in tasks]
    errors = [r for r in raw if isinstance(r, dict)]
    episodes = [r for r in raw if isinstance(r, EpisodeResult)]

    rows = []
    for policy in plan.policies:
        for T in plan.T_grid:
            cell = [e for e in episodes if e.policy == policy and e.T == T]
            # a cell whose episodes all failed keeps its row, with empty statistics
            row = dict.fromkeys(SUMMARY_HEADER)
            row.update(policy=policy, T=int(T), episodes_failed=sum(
                1 for r in errors if r["policy"] == policy and r["T"] == T))
            rows.append(row)
            if not cell:
                continue
            n = len(cell)
            mean_loss = math.fsum(e.loss for e in cell) / n
            var = math.fsum((e.loss - mean_loss) ** 2 for e in cell) / (n - 1) if n > 1 else 0.0
            row.update(mean_loss=mean_loss, stderr=math.sqrt(var / n),
                       mean_revenue=math.fsum(e.revenue for e in cell) / n,
                       mean_shutoff=math.fsum(e.shutoff for e in cell) / n,
                       wall_ms=math.fsum(e.wall_ms for e in cell))
    summary = BenchSummary(plan=plan, fluid=fluid, rows=rows, episodes=episodes,
                           errors=errors)

    if plan.output_dir:
        os.makedirs(plan.output_dir, exist_ok=True)
        write_summary_csv(summary, os.path.join(plan.output_dir, "summary.csv"))
        write_episodes_csv(summary, os.path.join(plan.output_dir, "episodes.csv"))
        meta = {
            "git_hash": _git_hash(),
            "wall_seconds": time.perf_counter() - wall_start,
            "episode_errors": errors,
            "fluid": fluid.to_dict(),
            "plan": {**{f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)},
                     "instance": plan.instance.to_dict(),
                     "output_dir": os.fspath(plan.output_dir)},
            "loss_denominator": "fluid upper bound T * phi(d*)",
        }
        with open(os.path.join(plan.output_dir, "run-metadata.json"), "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
    return summary


def loglog_slope(summary: BenchSummary, policy: str) -> float:
    """Least-squares slope of ln(mean regret) against ln(T), over the rows
    with at least one completed episode."""
    points = []
    for row in summary.rows:
        if row["policy"] != policy or row["mean_revenue"] is None:
            continue
        bound = row["T"] * summary.fluid.value
        regret = bound - row["mean_revenue"]
        if regret > 0:
            points.append((math.log(row["T"]), math.log(regret)))
    if len(points) < 3:
        raise ValueError("need at least 3 horizons with positive mean regret")
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    return float(np.polyfit(x, y, 1)[0])


def write_summary_csv(summary: BenchSummary, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for row in summary.rows:
            stats = ["" if row[k] is None else format(row[k], ".17g") for k in SUMMARY_HEADER[2:6]]
            wall = "" if row["wall_ms"] is None else format(row["wall_ms"], ".3f")
            writer.writerow([row["policy"], row["T"], *stats, row["episodes_failed"], wall])


def write_episodes_csv(summary: BenchSummary, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODES_HEADER)
        for e in summary.episodes:
            writer.writerow([
                e.policy, e.T, e.replicate, e.seed,
                format(e.revenue, ".17g"),
                format(e.loss, ".17g"),
                e.shutoff,
            ])


@functools.cache
def _git_hash() -> str:
    """HEAD of the source checkout this package sits in (<root>/src/nrmlab),
    wherever the caller runs; 'unknown' for an installed copy."""
    import subprocess
    package_dir = os.path.dirname(os.path.abspath(__file__))
    git_dir = os.path.join(os.path.dirname(os.path.dirname(package_dir)), ".git")
    if not os.path.exists(git_dir):
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def plan_from_dict(doc: dict, base_dir: str = ".") -> BenchPlan:
    """A plan document's keys are BenchPlan's fields, `policies` defaulting to ["pdnrm"]."""
    _read("plan", doc, ("instance", "T_grid", "replications", "base_seed"),
          [f.name for f in dataclasses.fields(BenchPlan)])
    inst = doc["instance"]
    _require("plan", "instance", isinstance(inst, (str, dict)), "a path or an object", inst)
    instance = (load_instance(os.path.join(base_dir, inst)) if isinstance(inst, str)
                else instance_from_dict(inst))   # join keeps an absolute path as it is
    return BenchPlan(**{"policies": ["pdnrm"], **doc, "instance": instance})


def load_plan(path: str) -> BenchPlan:
    with open(path) as fh:
        return plan_from_dict(json.load(fh), base_dir=os.path.dirname(os.path.abspath(path)))
