import json
import numpy as np
import pytest
from numpy.testing import assert_allclose

from nrmlab import Instance, LogitDemand, LinearDemand, example_logit_instance
from nrmlab.instance import instance_from_dict, load_instance
from conftest import save_instance


def logit():
    return LogitDemand([0.4, 0.8], [1.5, 2.0])


class TestValidation:
    def test_more_resources_than_products_rejected(self):
        with pytest.raises(ValueError, match="resource"):
            Instance(model=logit(), A=np.ones((3, 2)), gamma=np.ones(3),
                     T=10, price_min=0.8, price_max=5.0)

    def test_rank_deficient_consumption_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            Instance(model=logit(), A=np.array([[1.0, 1.0], [2.0, 2.0]]),
                     gamma=np.ones(2), T=10, price_min=0.8, price_max=5.0)

    def test_negative_consumption_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Instance(model=logit(), A=np.array([[1.0, -1.0], [0.0, 2.0]]),
                     gamma=np.ones(2), T=10, price_min=0.8, price_max=5.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            Instance(model=logit(), A=np.eye(2), gamma=np.array([0.1, 0.0]),
                     T=10, price_min=0.8, price_max=5.0)

    def test_bad_noise_mode_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            Instance(model=logit(), A=np.eye(2), gamma=np.ones(2), T=10,
                     price_min=0.8, price_max=5.0, noise="poisson")

    def test_linear_demand_outside_simplex_rejected_under_multinomial_noise(self):
        # D(5, 5) = (-0.75, -0.65): not a distribution over purchase events
        kwargs = dict(model=LinearDemand([0.5, 0.6], [[0.2, 0.05], [0.05, 0.2]]), A=np.eye(2),
                      gamma=np.array([0.1, 0.1]), T=100, price_min=0.5, price_max=5.0)
        with pytest.raises(ValueError, match="simplex"):
            Instance(**kwargs)
        Instance(noise="none", **kwargs)

    def test_linear_demand_total_above_one_rejected(self):
        # min D = 0.2 at p = (4, 4), but D(0.5, 0.5) sums to 1.1
        with pytest.raises(ValueError, match="simplex"):
            Instance(model=LinearDemand([0.6, 0.6], np.eye(2) * 0.1), A=np.eye(2),
                     gamma=np.array([0.1, 0.1]), T=100, price_min=0.5, price_max=4.0)

    def test_linear_demand_inside_simplex_accepted(self):
        # min D = (0.02, 0.12) at p = (4, 4), max sum D = 0.98 at p = (0.5, 0.5)
        Instance(model=LinearDemand([0.5, 0.6], [[0.1, 0.02], [0.02, 0.1]]),
                 A=np.array([[1.0, 1.0]]), gamma=np.array([0.2]), T=100,
                 price_min=0.5, price_max=4.0)
        # the bound is closed: D(4, 4) = (0, 0) exactly
        Instance(model=LinearDemand([0.4, 0.4], np.eye(2) * 0.1), A=np.eye(2),
                 gamma=np.array([0.1, 0.1]), T=100, price_min=0.0, price_max=4.0)

    def test_horizon_override(self, instance):
        other = instance.with_horizon(77)
        assert other.T == 77
        assert_allclose(other.capacity, instance.gamma * 77)


class TestSerialization:
    def test_json_round_trip_logit(self, instance, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(instance, str(path))
        back = load_instance(str(path))
        assert back.N == instance.N and back.M == instance.M
        assert_allclose(back.A, instance.A)
        assert_allclose(back.gamma, instance.gamma)
        assert back.noise == instance.noise
        p = np.array([1.3, 2.1])
        assert_allclose(back.model.mean(p), instance.model.mean(p), rtol=1e-15)

    def test_json_round_trip_linear(self, tmp_path):
        inst = Instance(model=LinearDemand([2.0, 2.0], [[1.0, 0.1], [0.2, 0.9]]),
                        A=np.eye(2), gamma=np.array([0.5, 0.5]), T=100,
                        price_min=0.0, price_max=1.5, noise="none")
        doc = json.loads(json.dumps(inst.to_dict()))
        back = instance_from_dict(doc)
        p = np.array([0.7, 0.3])
        assert_allclose(back.model.mean(p), inst.model.mean(p), rtol=1e-15)

    @pytest.mark.parametrize("key, val", [("T", 2.7), ("T", "100"), ("T", True), ("T", [1]),
                                          ("N", 2.5), ("M", "2")])
    def test_integers_checked_by_key(self, instance, key, val):
        doc = {**instance.to_dict(), key: val}
        with pytest.raises(ValueError, match=f"instance key '{key}' must be an integer"):
            instance_from_dict(doc)

    def test_integral_float_integers_accepted(self, instance):
        doc = {**instance.to_dict(), "N": 2.0, "M": 2.0, "T": 1000.0}
        back = instance_from_dict(doc)
        assert (back.N, back.M, back.T) == (2, 2, 1000) and type(back.T) is int

    def test_missing_key_raises_value_error(self):
        with pytest.raises(ValueError, match="missing"):
            instance_from_dict({"N": 2, "M": 2})

    def test_schema_fields(self, instance):
        doc = instance.to_dict()
        assert set(doc) == {"N", "M", "A", "gamma", "T", "price_min", "price_max",
                            "demand", "noise"}
        assert doc["demand"]["type"] == "logit"
        assert len(doc["A"]) == 4  # row-major flattening
