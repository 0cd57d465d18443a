"""One digest of nrmlab's episodes over a fixed case set, for bit-identity checks.

Run from any directory; it imports nrmlab from its own checkout's src/:

    python tests/fingerprint_digest.py           # the full set
    python tests/fingerprint_digest.py --quick   # a small slice
    python tests/fingerprint_digest.py --cases   # one hash per case, then the digest

For every case it hashes the episode's fingerprint, repr(total_revenue), the
shutoff period, the events as JSON and, at T <= 1e4, the bytes of every
recorded per-period array; then the arrays, flags and events that grad_est
and primal_opt return against a DemandOracle of the instance made noiseless
and one of the (multinomial) instance with a seeded generator. It
prints one blake2b digest and the case count. With --cases it first prints a
short hash of every case beside its label, so that diffing the output of two
trees names the cases that moved.

There are no golden values: OpenBLAS picks its kernels by CPU, and they round
differently, so compare the digests of two trees on one machine. A change
that keeps episodes bit-identical prints its parent's digest.

Run as a script, it pins OpenBLAS, OpenMP and MKL to one thread before numpy
loads, whatever the shell sets, as perfbench/run.py does: at N >= 3 the BLAS
thread count moves the last bits of SLSQP's fluid solution, and with them
every clairvoyant case of n3m1 and n4m2. Imported, it runs with the BLAS of
the importing process.

The full set: the bundled instance and the seeded random logit instances
N = 3 (M = 1) and N = 4 (M = 2) of perfbench/inputs.py; pdnrm with the tuned
default, plan_scaling's config and the centre start, clairvoyant and ETC;
multinomial and noiseless; seeds 1-3; T = 1e4 and 2e5. Then, after the oracle
cases, pdnrm with kappa3 = 1 on the bundled instance and the N = 3 instance,
multinomial and noiseless, seeds 1-3, T = 1e5: the band binds there, so these
episodes reach the balancing LP, which the tuned constants never do.
"""

import os
import sys

if __name__ == "__main__":   # before numpy loads; see the docstring
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from nrmlab import (DemandOracle, build_policy, config_from_dict, grad_est,  # noqa: E402
                    load_instance, primal_opt, run_episode, solve_fluid)

PDNRM_CONFIGS = {"pdnrm": {}, "pdnrm_scaling": {"mu": 0.05, "eta2": 1.0},
                 "pdnrm_center": {"primal_init": "center"}, "pdnrm_kappa3": {"kappa3": 1.0}}
POLICIES = ("pdnrm", "pdnrm_scaling", "pdnrm_center", "clairvoyant", "etc")
RECORD_T = 10_000   # periods are recorded up to this horizon
BALANCING_T = 100_000   # the horizon of the kappa3 = 1 cases


def _random_logit_instance(N: int, M: int):
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_logit_instance(np.random.default_rng([4, N]), N, M, 10_000)


def instances(quick: bool) -> dict:
    bundled = load_instance(os.path.join(ROOT, "configs", "instance_logit.json"))
    if quick:
        return {"bundled": bundled}
    return {"bundled": bundled, "n3m1": _random_logit_instance(3, 1),
            "n4m2": _random_logit_instance(4, 2)}


def episode_cases(quick: bool):
    """(label, instance, policy name, seed) of every episode in the set."""
    seeds, horizons = ((1,), (RECORD_T,)) if quick else ((1, 2, 3), (RECORD_T, 200_000))
    for name, base in instances(quick).items():
        for noise in ("multinomial", "none"):
            for T in horizons:
                inst = dataclasses.replace(base, T=T, noise=noise)
                for policy in POLICIES:
                    for seed in seeds:
                        yield f"{name}/{noise}/T={T}/{policy}/{seed}", inst, policy, seed


def balancing_cases(quick: bool):
    """(label, instance, policy name, seed) of the kappa3 = 1 episodes, none if quick."""
    if quick:
        return
    for name, base in instances(quick).items():
        if name == "n4m2":
            continue
        for noise in ("multinomial", "none"):
            inst = dataclasses.replace(base, T=BALANCING_T, noise=noise)
            for seed in (1, 2, 3):
                yield f"{name}/{noise}/T={BALANCING_T}/pdnrm_kappa3/{seed}", inst, "pdnrm_kappa3", seed


def _episode(inst, policy: str, seed: int, fluid) -> list:
    cfg = PDNRM_CONFIGS.get(policy)
    pol = build_policy("pdnrm" if cfg is not None else policy, inst, fluid,
                       pdnrm_config=cfg)
    trace = run_episode(inst, pol, seed, record_periods=inst.T <= RECORD_T)
    parts = [trace.fingerprint, repr(trace.total_revenue), repr(trace.shutoff_period),
             json.dumps(trace.events)]
    if trace.periods is not None:
        parts += [trace.periods[k].tobytes().hex() for k in sorted(trace.periods)]
    return parts


def _oracle_calls(inst) -> list:
    """grad_est and primal_opt against the exact and the sampled market of a
    multinomial instance, at an inner price, a price so near the box edge
    that the edge caps the probe offset u, and a few sample sizes."""
    parts = []
    cfg = config_from_dict({}, inst)
    lam = np.full(inst.M, 0.5)
    inner = np.full(inst.N, 0.5 * (inst.price_min + inst.price_max))
    near_edge = inner.copy()
    near_edge[0] = inst.price_min + 0.01 * (inst.price_max - inst.price_min)
    exact = DemandOracle(dataclasses.replace(inst, noise="none"))
    for i, env in enumerate((exact, DemandOracle(inst, np.random.default_rng(7)))):
        for p in (inner, near_edge):
            for n in (8 * inst.N, 1001, 50_000):
                out = grad_est(env, inst, cfg, p, lam, n)
                parts += [repr(out.u), repr(out.balancing_feasible)]
                parts += [a.tobytes().hex() for a in (out.D_hat, out.J_hat, out.grad_f,
                                                       out.tilde_p)]
        events = []
        p_hat, D_hat = primal_opt(env, inst, cfg, lam, 0.5 if i else 0.2, events=events)
        parts += [p_hat.tobytes().hex(), D_hat.tobytes().hex(), json.dumps(events),
                  repr(env.periods)]
    return parts


def cases(quick: bool = False):
    """(label, bytes hashed) of every episode and oracle case, in digest order."""
    fluids = {}
    for label, inst, policy, seed in episode_cases(quick):
        key = id(inst.model)
        if key not in fluids:
            fluids[key] = solve_fluid(inst)
        yield label, "\n".join([label] + _episode(inst, policy, seed, fluids[key])).encode()
    for name, inst in instances(quick).items():
        yield f"{name}/oracle", "\n".join([name] + _oracle_calls(inst)).encode()
    for label, inst, policy, seed in balancing_cases(quick):   # pdnrm reads no fluid solution
        yield label, "\n".join([label] + _episode(inst, policy, seed, None)).encode()


def digest(quick: bool = False, on_case=None) -> tuple:
    """(hex digest, number of cases) over the episode and oracle cases;
    on_case(label, data), if given, sees each case as it is hashed."""
    hasher = hashlib.blake2b(digest_size=16)
    count = 0
    for label, data in cases(quick):
        hasher.update(data)
        if on_case is not None:
            on_case(label, data)
        count += 1
    return hasher.hexdigest(), count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="a small slice of the set")
    parser.add_argument("--cases", action="store_true",
                        help="print a short hash of every case above the digest")
    args = parser.parse_args(argv)

    def show(label, data):
        print(f"{hashlib.blake2b(data, digest_size=8).hexdigest()}  {label}", flush=True)

    value, count = digest(args.quick, show if args.cases else None)
    print(f"{value}  ({count} cases{', quick' if args.quick else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
