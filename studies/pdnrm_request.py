"""pdnrm's cost per request: the whole episode, the policy alone and the kernel alone.

Run from any directory; it imports nrmlab from its own checkout's src/:

    python studies/pdnrm_request.py              # 3 runs per cell
    python studies/pdnrm_request.py --runs 5

The bundled instance with plan_scaling's pdnrm config, at T = 1e5, 1e6 and
1e7, sampled (seeds 1-3) and noiseless (seed 1). A request is one schedule the
policy posts, so one pdnrm loop. Each cell prints:

- whole: the wall of run_episode, from a built policy to the trace, over the
  episode's requests;
- policy: the wall of a fresh policy that replays the episode's own answers
  through schedule() and observe_block(), over the same requests;
- kernel: the wall of run_episode with a generator policy that does no work:
  it posts the episode's own schedules in order and reads no answer, so the
  market kernel, run_episode's glue and the generator hand-off are all it
  times. Its trace must carry the episode's fingerprint;
- rest: whole less policy less kernel, what the policy costs inside an
  episode beyond its cost alone. whole less kernel is the policy's cost in
  the episode.

Each figure is the median over the runs of the cell's wall summed over its
seeds. The answers and schedules come from one more run of each episode
through a policy that passes every call on and keeps what it posts and what
observe_block is given; a seeded episode is the same with or without it. Like
perfbench/run.py, the script pins BLAS to one thread before numpy loads. It
uses nrmlab's public API only.
"""

import os
import sys

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import nrmlab  # noqa: E402

HORIZONS = (10**5, 10**6, 10**7)
SEEDS = {"multinomial": (1, 2, 3), "none": (1,)}


class Recorder(nrmlab.Policy):
    """Passes every call on to a policy and keeps the schedules it posts and
    the answers it is given."""

    def __init__(self, policy):
        self.policy, self.name, self.schedules, self.answers = policy, policy.name, [], []

    def next_price(self, period):
        return self.policy.next_price(period)

    def schedule(self):
        prices, lengths = self.policy.schedule()
        self.schedules.append((prices.copy(), lengths.copy()))
        return prices, lengths

    def observe(self, period, y):
        raise AssertionError("pdnrm's requests are answered whole")

    def observe_block(self, period, y_avgs, lengths):
        self.answers.append((period, y_avgs.copy(), lengths.copy()))
        self.policy.observe_block(period, y_avgs, lengths)


class Replay(nrmlab.CommitPolicy):
    """Posts recorded schedules in order and reads no answer."""

    name = "replay"

    def __init__(self, schedules):
        self.schedules = schedules
        super().__init__()

    def _driver(self):
        for schedule in self.schedules:
            yield schedule


def cell(plan, noise: str, T: int, runs: int) -> tuple:
    """(requests, whole us, policy us, kernel us) per request of one (noise, T) cell."""
    inst = dataclasses.replace(plan.instance.with_horizon(T), noise=noise)
    cfg = nrmlab.config_from_dict(plan.pdnrm_config, inst)
    answers, schedules = [], []
    for seed in SEEDS[noise]:
        recorder = Recorder(nrmlab.PdNrmPolicy(inst, cfg))
        trace = nrmlab.run_episode(inst, recorder, seed)
        answers.append(recorder.answers)
        schedules.append(recorder.schedules)
        replayed = nrmlab.run_episode(inst, Replay(recorder.schedules), seed)
        assert replayed.fingerprint == trace.fingerprint, (noise, T, seed)
    # the request that the horizon cuts or the market shuts goes unanswered
    requests = sum(len(a) + 1 for a in answers)
    whole, alone, kernel = [], [], []
    for _ in range(runs):
        wall = 0.0
        for seed in SEEDS[noise]:
            policy = nrmlab.PdNrmPolicy(inst, cfg)
            t0 = time.perf_counter()
            nrmlab.run_episode(inst, policy, seed)
            wall += time.perf_counter() - t0
        whole.append(wall)
        wall = 0.0
        for replies in answers:
            policy = nrmlab.PdNrmPolicy(inst, cfg)
            t0 = time.perf_counter()
            for period, y_avgs, lengths in replies:
                policy.schedule()
                policy.observe_block(period, y_avgs, lengths)
            policy.schedule()
            wall += time.perf_counter() - t0
        alone.append(wall)
        wall = 0.0
        for seed, posted in zip(SEEDS[noise], schedules):
            policy = Replay(posted)
            t0 = time.perf_counter()
            nrmlab.run_episode(inst, policy, seed)
            wall += time.perf_counter() - t0
        kernel.append(wall)
    return requests, *(statistics.median(w) / requests * 1e6 for w in (whole, alone, kernel))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per cell (median)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    plan = nrmlab.load_plan(os.path.join(ROOT, "configs", "plan_scaling.json"))
    print(f"# pdnrm_request: bundled instance, plan_scaling config {plan.pdnrm_config}, "
          f"median of {args.runs} runs")
    print(f"{'noise':12s} {'T':>9s} {'seeds':>6s} {'requests':>9s} {'whole':>9s} "
          f"{'policy':>9s} {'kernel':>9s} {'rest':>9s}   (us per request)")
    for noise in SEEDS:
        for T in HORIZONS:
            requests, whole, alone, kernel = cell(plan, noise, T, args.runs)
            seeds = ",".join(map(str, SEEDS[noise]))
            print(f"{noise:12s} {T:9.0e} {seeds:>6s} {requests:9d} {whole:9.1f} "
                  f"{alone:9.1f} {kernel:9.1f} {whole - alone - kernel:9.1f}")
    print(f"# wall {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
