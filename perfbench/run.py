"""nrmlab benchmark: seeded workloads through the public API, checked outputs,
and every metric of BENCHMARK.json printed by name with its unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plans --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` wraps nrmlab's
public functions and prints the per-layer metrics instead. ``--workload all``
runs every workload, untraced and traced, each in a fresh process, and
prints the tracing overhead as the difference of the two walls.

The load is a closed loop driven by one client: each call starts when the
previous one returned. Human-readable lines start with ``#``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os
import sys
import time

# Pinned before numpy is imported anywhere in this process or its children,
# so no BLAS pool competes with the single benchmark thread.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
SETUP_SPEED_PROBES = 5
TMP_DIR = ".perfbench_tmp"      # temporary outputs, removed at exit
SPANS_DIR = ".perfbench_spans"  # span files of traced runs
WORKLOADS = ("plans", "noiseless", "oracle", "trace")


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing package, configs or spec)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} not found")
    with open(path) as fh:
        return json.load(fh)


def import_package():
    """Import nrmlab from this checkout's sources, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    for required in (os.path.join(src, "nrmlab", "__init__.py"),
                     os.path.join(ROOT, "configs", "plan_desk.json"),
                     os.path.join(ROOT, "configs", "plan_scaling.json"),
                     os.path.join(ROOT, "configs", "instance_logit.json")):
        if not os.path.isfile(required):
            raise BenchError(f"{required} not found: run from the root of an nrmlab checkout")
    sys.path.insert(0, src)
    import nrmlab
    if os.path.dirname(os.path.dirname(os.path.abspath(nrmlab.__file__))) != src:
        raise BenchError(f"nrmlab was imported from {nrmlab.__file__}, not from {src}")
    return nrmlab


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_hash": git_hash(),
        "seed": seed,
        "thread_pins": THREAD_PINS,
    }


def git_hash() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_probe(args) -> None:
    """Child process: import, load configs and generate the inputs, then
    print the seconds that took since the interpreter reached this file and
    the median of a few speed probes taken right after."""
    import_package()
    import workloads
    workloads.build_inputs(ROOT, args.workload, args.seed, args.seconds, tmpdir=TMP_DIR)
    seconds = time.perf_counter() - PROCESS_START
    probe = statistics.median(workloads.speed_probe() for _ in range(SETUP_SPEED_PROBES))
    print(seconds, probe)


def measure_setup(args) -> list:
    """(seconds, speed probe seconds) of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise BenchError(f"setup probe failed: {out.stderr.strip()}")
        samples.append(tuple(float(x) for x in out.stdout.strip().splitlines()[-1].split()))
    return samples


def run_workload(args, spec) -> dict:
    import_package()
    import workloads
    import tracer as tracing

    setup = measure_setup(args)
    print("# env " + json.dumps(environment(args.seed)))
    tmp_root = os.path.join(ROOT, TMP_DIR)
    os.makedirs(tmp_root, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        inp = workloads.build_inputs(ROOT, args.workload, args.seed, args.seconds, tmpdir)
        res = workloads.Results()
        tracer = tracing.Tracer() if args.trace else None
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
            try:
                with tracer.root("workload"):
                    workloads.run_workload(inp, res, tmpdir)
            finally:
                tracer.uninstall()
        else:
            workloads.run_workload(inp, res, tmpdir)
        body_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run's directory is still in use

    ledger = res.ledger
    reference_check(args.workload, ledger, workloads.pdnrm_loss(res),
                    workloads.loss_stderr(res), res.slope, res.slope_se)
    e2e = workloads.end_to_end(args.workload, res)
    # At reference speed, as every other timing: each sample is rescaled by
    # the speed probes its own process took.
    e2e["setup_s"] = statistics.median(sec * workloads.PROBE_REFERENCE_S / probe
                                       for sec, probe in setup)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# workload {args.workload}  seed {args.seed}  body {body_s:.2f} s  "
          f"setup samples {', '.join(f'{sec:.3f}' for sec, _ in setup)} s, their speed "
          f"probes {', '.join(f'{1e3 * probe:.2f}' for _, probe in setup)} ms")
    print("# stage walls: " + ", ".join(f"{k} {v:.2f} s" for k, v in res.stage_wall.items()))
    source = workloads.EPISODE_SOURCE[args.workload]
    print(f"# ns_per_period.* over {len(workloads.period_ns(res, source))} {source} episodes "
          f"with T >= {workloads.PERCENTILE_MIN_T}")
    for stage in ("oracle", "bundled"):
        print(f"# {stage}, median run at reference speed: " + ", ".join(
            f"{key[1]} {1e3 * sec:.1f} ms" for key, (_, sec) in res.times(stage).items()))
    for plan, T, loss, se in res.pdnrm_cells:
        print(f"# pdnrm loss {plan:14s} T={T:<9d} {loss:7.3f} % +- {se:.3f}")
    print(f"# regret slope {res.slope:.4f} +- {res.slope_se:.4f}")
    print(f"# speed probe: median {1e3 * statistics.median(res.probes):.3f} ms over "
          f"{len(res.probes)} probes, reference {1e3 * workloads.PROBE_REFERENCE_S:.3f} ms")

    if args.trace:
        metrics = workloads.per_layer(tracer, res)
        spans_dir = os.path.join(ROOT, SPANS_DIR)
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        per_call = tracing.wrapper_cost_ns()
        est = tracer.wrapped_calls() * per_call / 1e9
        print(f"# traced wall {tracer.root_ns() / 1e9:.3f} s; {tracer.wrapped_calls()} wrapped "
              f"calls at ~{per_call:.0f} ns each: estimated tracing overhead {est:.3f} s; "
              f"spans in {os.path.relpath(spans_path, ROOT)}")
        root = tracer.root_ns()
        top = sorted(tracer.totals().items(), key=lambda kv: -kv[1][2])[:8]
        print("# self time by function: " + ", ".join(
            f"{name} {100 * t[2] / root:.1f}%" for name, t in top))
        for n, (ms, count, dual_share) in workloads.solve_ms_by_size(tracer).items():
            print(f"# fluid.solve_ms.n{n} {ms:.1f} ms (median of {count} traced solves; "
                  f"default_dual_set is {100 * dual_share:.0f}% of their time)")
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise BenchError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in out.items():
        print(f"# {name:32s} {m['value']:>16.6g} {m['unit']}")
    failed = len(ledger.failures)
    print(f"# failed_frac {failed / ledger.attempted:.6g} ({failed} of {ledger.attempted} "
          f"checked operations)")
    for what in ledger.failures[:20]:
        print(f"# FAILED {what}")
    return {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
            "metrics": out}


def reference_check(workload: str, ledger, loss, loss_se, slope, slope_se) -> None:
    """loss_pct.pdnrm and regret_slope against reference values, within
    z standard errors of the run and of the reference combined."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref_doc = json.load(fh)
    z = ref_doc["z"]
    ref = ref_doc["references"]["plans" if workload == "plans" else "companion"]
    for name, value, se in (("loss_pct.pdnrm", loss, loss_se),
                            ("regret_slope", slope, slope_se)):
        r = ref[name]
        tol = z * (se**2 + r["se"] ** 2) ** 0.5
        ledger.check(abs(value - r["mean"]) <= tol,
                     f"{name} = {value:.4f}, reference {r['mean']:.4f} +- {tol:.4f}")


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        walls = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            walls[trace] = time.perf_counter() - t0
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                raise BenchError(f"{workload} --trace {trace} exited {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = m
        print(f"# {workload}: tracing overhead {walls[1] - walls[0]:+.2f} s "
              f"({100 * (walls[1] / walls[0] - 1):+.1f}% of the untraced process wall)")
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.setup_probe:
            setup_probe(args)
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
