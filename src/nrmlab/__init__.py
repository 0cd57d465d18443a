"""Blind network revenue management laboratory: primal-dual pricing with
demand balancing, an exact fluid/dual oracle, baselines, and a benchmark
harness."""

from .demand import (
    DemandModel,
    LogitDemand,
    LinearDemand,
    RegularityConstants,
    estimate_regularity,
    revenue_f,
    revenue_phi,
    DomainError,
)
from .instance import Instance, load_instance, example_logit_instance
from .fluid import (
    FluidSolution,
    FluidError,
    lagrangian_L,
    lagrangian_H,
    solve_inner_max,
    dual_Q,
    grad_Q,
    solve_fluid,
    fluid_upper_bound,
    default_dual_set,
)
from .sim import (
    Policy,
    CommitPolicy,
    EpisodeTrace,
    PolicyError,
    run_episode,
    percentage_loss,
    export_trace_csv,
    export_events_jsonl,
    mix64,
)
from .pdnrm import (
    PdNrmConfig,
    PdNrmPolicy,
    constants_tuned,
    constants_theory,
    config_from_dict,
    grad_est,
    demand_balance,
    primal_opt,
    loop_skeleton,
    prox_dual_step,
    DemandOracle,
)
from .baselines import (
    EtcConfig,
    ClairvoyantPolicy,
    ExploreThenCommitPolicy,
)
from .bench import (
    BenchPlan,
    BenchSummary,
    run_bench,
    loglog_slope,
    plan_from_dict,
    load_plan,
    episode_seed,
    build_policy,
)

__version__ = "0.1.0"
