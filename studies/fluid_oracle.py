"""The fluid oracle by N: solve_fluid's wall, and a census of what it certifies.

Run from any directory; it imports nrmlab from its own checkout's src/ and
loads perfbench/inputs.py by path for its random instances:

    python studies/fluid_oracle.py

It prints two parts.

- Solve ms: the median wall of 5 solve_fluid calls after one warm-up, on the
  bundled instance and on perfbench/inputs.py's random_logit_instance with
  rng default_rng([4, N]), N = 3, 4, 6 and 8, M = max(1, N // 2).
- Census: 240 random members, random_logit_instance(default_rng([77, k]), N,
  M, 10**6) for k = 0..239 with N = 2 + k % 5 and M = 1 + (k // 5) % min(N, 3).
  One LP over the demand image's halfspaces (DemandModel.image_halfspaces)
  and the capacity rows says whether a member is feasible. Each member is
  counted as certified (LP-feasible, and solve_fluid's answer meets
  A d* <= gamma exactly, lambda* >= 0, and a duality gap and complementary
  slackness within 1e-9), as LP-infeasible and refused with FluidError, or
  as other, which is listed with its k and what happened. The census prints
  its wall and the slowest solve of each verdict.

Like perfbench/run.py, the script pins BLAS to one thread before numpy loads.
Apart from image_halfspaces it uses nrmlab's public API only. It is a report
with no threshold: it exits 0 whatever it counts.
"""

import os
import sys

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

import importlib.util  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import nrmlab  # noqa: E402

SOLVE_SIZES = (3, 4, 6, 8)
CENSUS_SEED, CENSUS_MEMBERS = 77, 240
GATE = 1e-9   # tests/test_fluid.py's assert_certified gates


def load_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve_ms(inst) -> float:
    """Median wall of 5 solve_fluid calls after one warm-up, in ms."""
    nrmlab.solve_fluid(inst)
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        nrmlab.solve_fluid(inst)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e3


def lp_feasible(inst) -> bool:
    """Whether some demand vector of the image meets the capacity, by one LP."""
    G, h = inst.model.image_halfspaces(inst.price_min, inst.price_max)
    res = linprog(np.zeros(inst.N), A_ub=np.vstack([G, inst.A]),
                  b_ub=np.concatenate([h, inst.gamma]),
                  bounds=[(None, None)] * inst.N, method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"feasibility LP ended with status {res.status}: {res.message}")
    return res.status == 0


def verdict(inst) -> tuple:
    """(verdict, solve ms, detail) of one census member."""
    feasible = lp_feasible(inst)
    t0 = time.perf_counter()
    try:
        sol = nrmlab.solve_fluid(inst)
    except nrmlab.FluidError as exc:
        ms = (time.perf_counter() - t0) * 1e3
        return ("refused" if not feasible else "other"), ms, f"FluidError: {exc}"
    ms = (time.perf_counter() - t0) * 1e3
    slack = inst.gamma - inst.A @ sol.d_star
    gates = (np.all(slack >= 0) and np.all(sol.lambda_star >= 0)
             and abs(sol.duality_gap) <= GATE and abs(float(sol.lambda_star @ slack)) <= GATE)
    if feasible and gates:
        return "certified", ms, ""
    return "other", ms, (f"LP-feasible {feasible}, min slack {slack.min():.3e}, "
                         f"gap {sol.duality_gap:.3e}, comp {float(sol.lambda_star @ slack):.3e}")


def census_member(inputs, k: int):
    N = 2 + k % 5
    M = 1 + (k // 5) % min(N, 3)
    return inputs.random_logit_instance(np.random.default_rng([CENSUS_SEED, k]), N, M, 10**6)


def main() -> int:
    inputs = load_inputs()
    cases = [("bundled N = 2, M = 2", nrmlab.example_logit_instance())] + [
        (f"N = {N}, M = {max(1, N // 2)}",
         inputs.random_logit_instance(np.random.default_rng([4, N]), N, max(1, N // 2), 10**6))
        for N in SOLVE_SIZES]
    print("# fluid_oracle: solve_fluid ms, median of 5 after one warm-up")
    for label, inst in cases:
        print(f"{label:22s} {solve_ms(inst):8.2f}")

    start = time.perf_counter()
    counts = {"certified": 0, "refused": 0, "other": 0}
    slowest = dict.fromkeys(counts, 0.0)
    others = []
    for k in range(CENSUS_MEMBERS):
        inst = census_member(inputs, k)
        name, ms, detail = verdict(inst)
        counts[name] += 1
        slowest[name] = max(slowest[name], ms)
        if name == "other":
            others.append(f"k = {k} (N = {inst.N}, M = {inst.M}): {detail}")
    wall = time.perf_counter() - start
    print(f"# census: default_rng([{CENSUS_SEED}, k]), k = 0..{CENSUS_MEMBERS - 1}, "
          "N = 2 + k % 5, M = 1 + (k // 5) % min(N, 3)")
    print(f"certified {counts['certified']}, LP-infeasible and refused {counts['refused']}, "
          f"other {counts['other']}; wall {wall:.2f} s")
    print("slowest solve ms: " + ", ".join(f"{name} {slowest[name]:.1f}" for name in counts))
    for line in others:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
