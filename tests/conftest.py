import json
import math
import numpy as np
import pytest

import nrmlab.bench
from nrmlab import Policy, example_logit_instance, loop_skeleton, solve_fluid, estimate_regularity
from nrmlab.sim import _serve


def save_instance(instance, path):
    """Write an instance document that load_instance reads back."""
    with open(path, "w") as fh:
        json.dump(instance.to_dict(), fh, indent=2)
        fh.write("\n")


def loop_count_bound(cfg, T):
    """Primal loops per epoch never exceed 2 ln(T) / (eta1-scaled rate) + 1."""
    return 2.0 * math.log(T) / (cfg.eta1 * (1.0 - cfg.contraction)) + 1.0


def estimation_ends(cfg, N, degraded=False):
    """(s, tau, n_tau, end, estimated) of every pdnrm loop of the skeleton,
    estimated being the periods served by the end of the loop's estimation
    rows: its first 2N floor(n_tau / 4N) periods, or all n_tau when the loop
    is degraded. A loop's estimation rows end the request that carries them."""
    for s, tau, n_tau, end in loop_skeleton(cfg):
        yield s, tau, n_tau, end, end - n_tau + (n_tau if degraded else 2 * N * (n_tau // (4 * N)))


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


class OutOfBoxPolicy(Policy):
    """Posts a price outside every price box, so its episode fails."""

    name = "broken"

    def next_price(self, period):
        return np.full(2, 1e6)

    def observe(self, period, y):
        pass


@pytest.fixture()
def fail_pdnrm_episodes(monkeypatch):
    """Every pdnrm episode of a bench sweep posts an out-of-box price."""
    real = nrmlab.bench.build_policy

    def build(name, *args, **kwargs):
        return OutOfBoxPolicy() if name == "pdnrm" else real(name, *args, **kwargs)

    monkeypatch.setattr(nrmlab.bench, "build_policy", build)
