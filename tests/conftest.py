import numpy as np
import pytest

import nrmlab.bench
from nrmlab import Policy, example_logit_instance, solve_fluid, estimate_regularity
from nrmlab.sim import _serve


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
