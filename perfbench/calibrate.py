"""Measure the reference values that run.py checks loss_pct.pdnrm and
regret_slope against, and write them to reference.json.

    python3 perfbench/calibrate.py --seeds 9001-9008

For each seed it runs only the sweep stage of the plans workload (the two
bundled plans) and of any other workload (the short scaling sweep), exactly
as a benchmark run of run_seconds (BENCHMARK.json) builds them. A reference is the mean over seeds with its
standard error. Use seeds that benchmark runs do not use.
"""

import argparse
import json
import math
import os
import statistics
import sys
import tempfile

import run  # pins BLAS threads before numpy is imported

run.import_package()
import workloads  # noqa: E402

SWEEPS = {"plans": "plans", "companion": "oracle"}   # reference key -> workload built


def sweep_only(workload: str, seed: int, seconds: float, tmpdir: str):
    inp = workloads.build_inputs(run.ROOT, workload, seed, seconds, tmpdir)
    res = workloads.Results()
    for unit in workloads.sweep_units(inp, res):
        unit()
    workloads.reduce_sweeps(inp, res)
    if res.ledger.failures:
        raise SystemExit(f"seed {seed}: {res.ledger.failures}")
    return workloads.pdnrm_loss(res), res.slope


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args(argv)
    seconds = float(run.load_spec()["run_seconds"])
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    path = os.path.join(run.HERE, "reference.json")
    with open(path) as fh:
        doc = json.load(fh)
    tmp_root = os.path.join(run.ROOT, run.TMP_DIR)
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmpdir:
        for key, workload in SWEEPS.items():
            values = [sweep_only(workload, s, seconds, tmpdir) for s in seeds]
            ref = {}
            for i, name in enumerate(("loss_pct.pdnrm", "regret_slope")):
                xs = [v[i] for v in values]
                ref[name] = {"mean": statistics.fmean(xs),
                             "se": statistics.stdev(xs) / math.sqrt(len(xs))}
                print(f"{key:10s} {name:16s} {ref[name]['mean']:.4f} +- {ref[name]['se']:.4f} "
                      f"from {[round(x, 4) for x in xs]}", flush=True)
            doc["references"][key] = ref
    os.rmdir(tmp_root)
    doc["calibration_seeds"] = args.seeds
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
