"""Command-line front end.

Subcommands: fluid, run, bench, check, constants. Malformed inputs exit 2;
a failed invariant suite, an oracle failure or a failed bench episode exits 1.
"""

import sys
import json
import argparse
import dataclasses

from .instance import load_instance
from .fluid import solve_fluid, fluid_upper_bound, FluidError
from .sim import run_episode, percentage_loss, export_trace_csv, export_events_jsonl
from .pdnrm import check_horizon, constants_tuned, constants_theory, loop_skeleton
from .demand import estimate_regularity
from .bench import POLICY_NAMES, load_plan, run_bench, loglog_slope, build_policy
from .checks import run_checks


def _cmd_fluid(args) -> int:
    instance = load_instance(args.instance)
    solution = solve_fluid(instance)
    doc = solution.to_dict()
    doc["upper_bound"] = fluid_upper_bound(instance, solution)
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_run(args) -> int:
    instance = load_instance(args.instance)
    if args.T is not None:
        instance = instance.with_horizon(args.T)
    fluid = solve_fluid(instance)
    pdnrm_config = None
    if args.config:
        with open(args.config) as fh:
            pdnrm_config = json.load(fh)
    policy = build_policy(args.policy, instance, fluid, pdnrm_config=pdnrm_config)
    record = bool(args.trace)
    trace = run_episode(instance, policy, seed=args.seed, record_periods=record)
    if args.trace:
        export_trace_csv(trace, args.trace)
    if args.events:
        export_events_jsonl(trace, args.events)
    print(json.dumps({
        "policy": trace.policy_name,
        "T": trace.T,
        "seed": trace.seed,
        "revenue": trace.total_revenue,
        "loss": percentage_loss(instance, trace, fluid.value),
        "shutoff_period": trace.shutoff_period,
        "final_inventory": trace.final_inventory.tolist(),
        "fingerprint": trace.fingerprint,
    }, indent=2))
    return 0


def _cmd_bench(args) -> int:
    plan = load_plan(args.plan)
    if args.workers is not None:
        plan = dataclasses.replace(plan, workers=args.workers)
    if args.output_dir:
        plan = dataclasses.replace(plan, output_dir=args.output_dir)
    summary = run_bench(plan)
    slopes = {}
    for policy in plan.policies:
        try:
            slopes[policy] = loglog_slope(summary, policy)
        except ValueError:
            slopes[policy] = None
    print(json.dumps({
        "rows": summary.rows,
        "loglog_slopes": slopes,
        "episodes_failed": len(summary.errors),
        "output_dir": plan.output_dir,
    }, indent=2))
    if summary.errors:
        print(f"error: {len(summary.errors)} episode(s) failed, first: "
              f"{summary.errors[0]['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args) -> int:
    instance = load_instance(args.instance)
    results = run_checks(instance)
    failed = 0
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{tag}] {name}{suffix}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_constants(args) -> int:
    instance = load_instance(args.instance)
    T = instance.T if args.T is None else args.T
    check_horizon(instance.N, T)
    if args.mode == "tuned":
        cfg = constants_tuned(instance.N, T)
    else:
        reg = estimate_regularity(instance.model, instance.price_box,
                                  args.grid_points, instance.A, instance.gamma)
        cfg = constants_theory(instance, reg, T)
    print(json.dumps(cfg.to_dict(), indent=2))
    print(_skeleton_summary(cfg, T), file=sys.stderr)
    return 0


def _skeleton_summary(cfg, T: int) -> str:
    """One line on what pdnrm can learn by T: the loops and epochs that end by
    then, which the config alone sets."""
    ends = []   # (epoch, end) of each loop that ends by T
    for s, _, _, end in loop_skeleton(cfg):
        if end > T:
            break
        ends.append((s, end))
    if not ends:
        return (f"pdnrm: no loop ends by T = {T}; the first ends at period {end}, "
                "so nothing is learned")
    dual = (f"the first dual update at period {max(e for k, e in ends if k == 0)}" if s
            else "no dual update")
    return (f"pdnrm: {len(ends)} loops and {s} epochs end by T = {T}; the first loop "
            f"ends at period {ends[0][1]}, {dual}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrmlab",
        description="Blind network revenue management laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fluid", help="solve the fluid program and print the certificate")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_fluid)

    p = sub.add_parser("run", help="run one episode")
    p.add_argument("instance")
    p.add_argument("policy", choices=POLICY_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--T", type=int, default=None, help="override the instance horizon")
    p.add_argument("--trace", default=None, help="write per-period CSV here")
    p.add_argument("--events", default=None, help="write the event log as JSON lines")
    p.add_argument("--config", default=None, help="pdnrm config JSON")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="execute a benchmark plan")
    p.add_argument("plan")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check", help="run the invariant suite")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("constants", help="print resolved learning constants")
    p.add_argument("instance")
    p.add_argument("--mode", choices=["theory", "tuned"], default="tuned")
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=21)
    p.set_defaults(func=_cmd_constants)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FluidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
