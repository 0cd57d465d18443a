"""Seeded input generator for the benchmark.

Every input a workload hands to nrmlab is built here from the workload seed,
so the same seed always gives the same instances, plans and episode seeds.

Random logit instances follow one recipe:

- intercepts ``a_i`` are drawn from ``A_RANGE`` and price slopes ``b_i`` from
  ``B_RANGE``; these bracket the bundled instance (a = 0.4, 0.8; b = 1.5, 2.0)
  so that random members are priced on the same scale;
- the consumption matrix ``A`` is integer, non-negative, ``M x N`` with full
  row rank, and every product uses some resource and every resource serves
  some product;
- ``gamma_j`` is resource j's consumption at the mid price of the box times a
  factor drawn from ``GAMMA_FACTOR``. The unconstrained logit optimum prices
  well below the mid price and consumes several times more, so resources bind
  at the fluid optimum and the dual certificate has a non-trivial lambda*.
  Factors below 1 push the optimum towards the price cap, where products are
  priced out and ``solve_fluid`` stalls for 5-30 s or fails (see the
  exclusions in ``reference.json``).
"""

import dataclasses
import json
import os

import numpy as np

from nrmlab import Instance, LogitDemand, load_plan, plan_from_dict

A_RANGE = (0.2, 1.0)
B_RANGE = (1.0, 2.5)
GAMMA_FACTOR = (1.0, 2.0)
PRICE_BOX = (0.8, 5.0)
CONSUMPTION_VALUES = (0, 1, 2)

# Stream identifiers: each consumer of randomness draws from its own stream,
# so resizing one part of a workload never shifts the inputs of another.
STREAM_ORACLE = 1
STREAM_NOISELESS = 2
STREAM_TRACE = 3
STREAM_SWEEP = 4


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def episode_seeds(seed: int, stream: int, count: int) -> list:
    rng = rng_for(seed, stream)
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


def random_consumption(rng: np.random.Generator, M: int, N: int) -> np.ndarray:
    while True:
        A = rng.choice(CONSUMPTION_VALUES, size=(M, N)).astype(float)
        if (np.linalg.matrix_rank(A) == M and A.sum(axis=0).min() > 0
                and A.sum(axis=1).min() > 0):
            return A


def random_logit_instance(rng: np.random.Generator, N: int, M: int, T: int,
                          noise: str = "multinomial") -> Instance:
    if not 1 <= M <= N:
        raise ValueError("need 1 <= M <= N")
    model = LogitDemand(rng.uniform(*A_RANGE, size=N), rng.uniform(*B_RANGE, size=N))
    A = random_consumption(rng, M, N)
    mid = np.full(N, 0.5 * (PRICE_BOX[0] + PRICE_BOX[1]))
    gamma = rng.uniform(*GAMMA_FACTOR, size=M) * (A @ model.mean(mid))
    return Instance(model=model, A=A, gamma=gamma, T=T, price_min=PRICE_BOX[0],
                    price_max=PRICE_BOX[1], noise=noise)


def oracle_family(seed: int, sizes) -> list:
    """Random instances for the fluid oracle, one per (N, M) entry of sizes,
    in that order. T only scales inventories and plays no part in a solve."""
    rng = rng_for(seed, STREAM_ORACLE)
    return [random_logit_instance(rng, N, M, T=100_000) for N, M in sizes]


def noiseless_instance(seed: int, N: int, M: int, T: int) -> Instance:
    return random_logit_instance(rng_for(seed, STREAM_NOISELESS), N, M, T=T, noise="none")


def bundled_plans(root: str, seed: int, output_dir: str) -> dict:
    """The two bundled plans, serial, with seed as base_seed and outputs under
    output_dir."""
    plans = {}
    for name in ("plan_desk", "plan_scaling"):
        plan = load_plan(os.path.join(root, "configs", name + ".json"))
        plans[name] = dataclasses.replace(
            plan, base_seed=int(seed), workers=1,
            output_dir=os.path.join(output_dir, name))
    return plans


def short_scaling_plan(root: str, seed: int, T_grid, replications: int):
    """plan_scaling's instance and pdnrm config over a shorter horizon grid."""
    path = os.path.join(root, "configs", "plan_scaling.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc.update(T_grid=list(T_grid), replications=int(replications), base_seed=int(seed),
               workers=1, output_dir=None)
    return plan_from_dict(doc, base_dir=os.path.dirname(path))
