import dataclasses
import json
import math
import numpy as np
import pytest

import nrmlab.bench
from nrmlab import Policy, example_logit_instance, loop_skeleton, solve_fluid, estimate_regularity
from nrmlab.demand import _dot
from nrmlab.sim import _serve


def save_instance(instance, path):
    """Write an instance document that load_instance reads back."""
    with open(path, "w") as fh:
        json.dump(instance.to_dict(), fh, indent=2)
        fh.write("\n")


def boxless_instances(T=100_000):
    """The bundled instance with price boxes that leave pdnrm no boxes, by name:
    [-0.5, 0] makes the dual box [0, price_max / gamma] zero (gamma [5, 5] keeps
    the fluid program solvable), and [1e17, 1e17 + 64] is too narrow in floats for
    the inner price box, 5% of the width in from each edge."""
    base = example_logit_instance(T)
    return {"zero-box": dataclasses.replace(base, price_min=-0.5, price_max=0.0,
                                            gamma=[5.0, 5.0]),
            "narrow-box": dataclasses.replace(base, price_min=1e17, price_max=1e17 + 64)}


def loop_count_bound(cfg, T):
    """Primal loops per epoch never exceed 2 ln(T) / (eta1-scaled rate) + 1."""
    return 2.0 * math.log(T) / (cfg.eta1 * (1.0 - cfg.contraction)) + 1.0


def estimation_ends(cfg, N):
    """(s, tau, n_tau, end, estimated) of every pdnrm loop of the skeleton,
    estimated being the periods served by the end of the loop's estimation
    rows, its first 2N floor(n_tau / 4N) periods. A loop's estimation rows
    end the request that carries them."""
    for s, tau, n_tau, end in loop_skeleton(cfg):
        yield s, tau, n_tau, end, end - n_tau + 2 * N * (n_tau // (4 * N))


def summary_row(summary, policy, T):
    """The row of a BenchSummary for (policy, T)."""
    (row,) = [r for r in summary.rows if r["policy"] == policy and r["T"] == T]
    return row


def recorded_revenue(trace):
    """The fsum of p_t . y_t over a recorded episode's periods that post a
    price: after a shutoff the price is NaN and nothing sells."""
    price, demand = trace.periods["price"], trace.periods["demand"]
    posted = np.isfinite(price).all(axis=1)
    return math.fsum(_dot(price[posted], demand[posted]).tolist())


def serve_one(model, A, p, k, remaining, rng):
    """(served, counts) of one k-period commitment at price p through the
    schedule kernel; remaining None: no inventory limit."""
    served, counts, _ = _serve(model, A, np.asarray(p, float)[None], np.array([k]),
                               remaining, rng)
    return served[0], counts[0]


@pytest.fixture(scope="session")
def instance():
    return example_logit_instance(T=100_000)


@pytest.fixture(scope="session")
def noiseless_instance():
    return example_logit_instance(T=100_000, noise="none")


@pytest.fixture(scope="session")
def fluid_solution(instance):
    return solve_fluid(instance)


@pytest.fixture(scope="session")
def regularity(instance):
    return estimate_regularity(instance.model, instance.price_box, 41,
                               instance.A, instance.gamma)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240715)


class FixedPricePolicy(Policy):
    """The plain policy that posts one price in every period; a price outside
    the price box fails its episode."""

    name = "fixed"

    def __init__(self, price):
        self.price = np.asarray(price, float)

    def next_price(self, period):
        return self.price

    def observe(self, period, y):
        pass


@pytest.fixture()
def fail_pdnrm_episodes(monkeypatch):
    """Every pdnrm episode of a bench sweep posts an out-of-box price."""
    real = nrmlab.bench.build_policy

    def build(name, *args, **kwargs):
        return FixedPricePolicy([1e6, 1e6]) if name == "pdnrm" else real(name, *args, **kwargs)

    monkeypatch.setattr(nrmlab.bench, "build_policy", build)
