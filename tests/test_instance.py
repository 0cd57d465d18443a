import json
import dataclasses
import numpy as np
import pytest
from numpy.testing import assert_allclose

from nrmlab import (Instance, LogitDemand, LinearDemand, config_from_dict, constants_tuned,
                    example_logit_instance, plan_from_dict)
from nrmlab.instance import instance_from_dict, load_instance
from conftest import save_instance


def logit():
    return LogitDemand([0.4, 0.8], [1.5, 2.0])


class TestValidation:
    def test_more_resources_than_products_rejected(self):
        with pytest.raises(ValueError, match="instance key 'A' must be .* at most 2 rows"):
            Instance(model=logit(), A=np.ones((3, 2)), gamma=np.ones(3),
                     T=10, price_min=0.8, price_max=5.0)

    def test_rank_deficient_consumption_rejected(self):
        with pytest.raises(ValueError, match="instance key 'A' must be .*full-row-rank"):
            Instance(model=logit(), A=np.array([[1.0, 1.0], [2.0, 2.0]]),
                     gamma=np.ones(2), T=10, price_min=0.8, price_max=5.0)

    def test_negative_consumption_rejected(self):
        with pytest.raises(ValueError, match="instance key 'A' must be .*nonnegative"):
            Instance(model=logit(), A=np.array([[1.0, -1.0], [0.0, 2.0]]),
                     gamma=np.ones(2), T=10, price_min=0.8, price_max=5.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError, match="instance key 'gamma' must be .*positive"):
            Instance(model=logit(), A=np.eye(2), gamma=np.array([0.1, 0.0]),
                     T=10, price_min=0.8, price_max=5.0)

    def test_bad_noise_mode_rejected(self):
        with pytest.raises(ValueError, match="instance key 'noise' must be one of"):
            Instance(model=logit(), A=np.eye(2), gamma=np.ones(2), T=10,
                     price_min=0.8, price_max=5.0, noise="poisson")

    def test_linear_demand_outside_simplex_rejected_under_multinomial_noise(self):
        # D(5, 5) = (-0.75, -0.65): not a distribution over purchase events
        kwargs = dict(model=LinearDemand([0.5, 0.6], [[0.2, 0.05], [0.05, 0.2]]), A=np.eye(2),
                      gamma=np.array([0.1, 0.1]), T=100, price_min=0.5, price_max=5.0)
        with pytest.raises(ValueError, match="instance key 'demand' must be .* simplex"):
            Instance(**kwargs)
        Instance(noise="none", **kwargs)

    def test_linear_demand_total_above_one_rejected(self):
        # min D = 0.2 at p = (4, 4), but D(0.5, 0.5) sums to 1.1
        with pytest.raises(ValueError, match="instance key 'demand' must be .* simplex"):
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

    @pytest.mark.parametrize("build, rule", [
        (lambda inst: dataclasses.replace(inst, T=2.5), "instance key 'T' must be an integer"),
        (lambda inst: dataclasses.replace(inst, T=True), "instance key 'T' must be an integer"),
        (lambda inst: inst.with_horizon(0), "instance key 'T' must be an integer of at least 1"),
        (lambda inst: dataclasses.replace(inst, A=np.array([[1.0, -1.0], [0.0, 2.0]])),
         "instance key 'A' must be"),
        (lambda inst: LogitDemand([float("nan"), 0.8], [1.5, 2.0]), "finite"),
        (lambda inst: LinearDemand([2.0, 2.0], [[1.0, float("nan")], [0.0, 1.0]]), "finite"),
    ], ids=["T-2.5", "T-True", "T-0", "A-negative", "logit-nan-a", "linear-nan-B"])
    def test_python_built_values_refused_like_documents(self, instance, build, rule):
        # the rule a document meets holds for an instance or a model built in Python
        with pytest.raises(ValueError, match=rule):
            build(instance)

    def test_integral_float_horizon_stored_as_int(self, instance):
        assert type(dataclasses.replace(instance, T=500.0).T) is int

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

    @pytest.mark.parametrize("key, val, rule", [
        ("price_min", "0.8", "instance key 'price_min' must be a number"),
        ("price_max", None, "instance key 'price_max' must be a number"),
        ("price_max", float("inf"), r"instance key 'price_max' must be a number \(finite"),
        ("demand", [1], "instance key 'demand' must be an object"),
        ("gamma", [float("inf"), 0.1], "instance key 'gamma' must be .* finite and positive"),
        ("gamma", {"0": 0.1}, "instance key 'gamma' must be a list of 2 numbers"),
        ("A", [float("nan"), 1.0, 0.0, 2.0], "instance key 'A' must be a finite nonnegative"),
        ("A", [1.0, 1.0, 0.0], "instance key 'A' must be a list of 4 numbers"),
        # appended below, so the ids above keep their numbers
        ("demand", {"type": "logit", "a": {}, "b": [1.5, 2.0]},
         "instance key 'demand' must be an object whose 'a' is a list of 2 numbers"),
        ("demand", {"type": "logit", "a": "x", "b": [1.5, 2.0]},
         "instance key 'demand' must be an object whose 'a' is a list of 2 numbers"),
        ("demand", {"type": "logit", "a": [float("nan"), 0.8], "b": [1.5, 2.0]},
         "instance key 'demand' must be a valid logit model"),
        ("demand", {"type": "logit", "a": [0.4, 0.8], "b": [0, 2]},
         "instance key 'demand' must be a valid logit model"),
        ("demand", {"type": "logit", "a": [0.4, 0.8], "b": [1.5]},
         "instance key 'demand' must be an object whose 'b' is a list of 2 numbers"),
        ("demand", {"type": "poisson", "a": [0.4, 0.8], "b": [1.5, 2.0]},
         "instance key 'demand' must be of type 'logit' or 'linear', not 'poisson'"),
        ("T", 0, "instance key 'T' must be an integer of at least 1"),
        ("demand", {"type": "linear", "a": [0.5, 0.5], "B": "x"},
         "instance key 'demand' must be an object whose 'B' is a list of 2 rows of 2 numbers"),
        ("demand", {"type": "linear", "a": [0.5, 0.5], "B": [[1.0, float("nan")], [0.0, 1.0]]},
         "instance key 'demand' must be a valid linear model"),
    ])
    def test_values_checked_by_key(self, instance, key, val, rule):
        with pytest.raises(ValueError, match=rule):
            instance_from_dict({**instance.to_dict(), key: val})

    def test_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="an instance document must be a JSON object"):
            instance_from_dict([1, 2])

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


# Every key a document once held and holds no longer, with a value it took. The key rule
# refuses each as it refuses a typo, so retiring one more key only adds a row here.
RETIRED_KEYS = [("pdnrm config", "kappa2", 1.0),
                ("pdnrm config", "mode", "tuned"),
                ("pdnrm config", "warm_start", True),
                ("pdnrm config", "lambda0", [0.0, 0.0]),
                ("pdnrm config", "lambda_max", [4.0, 4.0]),
                ("pdnrm config", "p_margin", 0.05),
                ("plan", "etc_config", {"grid_points_per_axis": 8})]


@pytest.mark.parametrize("what, key, value", RETIRED_KEYS, ids=[k for _, k, _ in RETIRED_KEYS])
def test_a_retired_key_is_refused_as_any_unknown_key(instance, what, key, value):
    # one line that names the key, with nothing after it, from every reader of the
    # document; the config dataclass has no such field either
    if what == "plan":
        doc = {"instance": instance.to_dict(), "T_grid": [1000], "replications": 1,
               "base_seed": 1}
        reads = [lambda: plan_from_dict({**doc, key: value})]
        built = plan_from_dict(doc)
    else:
        reads = [lambda: config_from_dict({key: value}, instance)]
        built = constants_tuned(instance.N, instance.T)
    for read in reads:
        with pytest.raises(ValueError) as err:
            read()
        assert str(err.value) == f"unknown {what} keys {[key]}"
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
        dataclasses.replace(built, **{key: value})
