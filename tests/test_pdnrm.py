import itertools
import math
import json
from dataclasses import replace
import numpy as np
import pytest
from numpy.testing import assert_allclose

from nrmlab import (
    Instance,
    LinearDemand,
    RegularityConstants,
    constants_tuned,
    constants_theory,
    config_from_dict,
    PdNrmPolicy,
    grad_est,
    demand_balance,
    default_dual_set,
    primal_opt,
    prox_dual_step,
    DemandOracle,
    example_logit_instance,
    percentage_loss,
    run_episode,
    solve_fluid,
    solve_inner_max,
)
from nrmlab import pdnrm
from nrmlab.demand import grad_revenue_f, revenue_f
from nrmlab.pdnrm import epoch_count_bound
from nrmlab.projections import FEASIBLE_TOL, feasible_point, max_violation
from nrmlab.sim import _as_schedule, _serve
from conftest import boxless_instances, estimation_ends, loop_count_bound


def unit_regularity():
    return RegularityConstants(B_D=1, sigma_D=1, L_D=1, B_f=1, B_phi=1,
                               sigma_phi=1, B_A=1, sigma_A=1, B_r=1, gamma_max=1)


def unit_box_bound(N):
    """lam_bar, the l2 bound, of the dual box [0, 1/sqrt(N)]^N: 1 up to rounding."""
    return float(np.linalg.norm(np.full(N, 1.0 / math.sqrt(N))))


def synthetic_instance(N):
    return Instance(
        model=LinearDemand(np.full(N, 2.0), np.eye(N)),
        A=np.eye(N),
        gamma=np.full(N, 0.5),
        T=1000,
        price_min=0.0,
        price_max=1.0,
        noise="none",
    )


def log_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


class TestConstantsTuned:
    def test_frozen_example(self):
        cfg = constants_tuned(2, 10**5)
        assert cfg.n0 == 239
        assert cfg.kappa1 == pytest.approx(239**0.25, rel=1e-12)
        assert cfg.kappa1 == pytest.approx(3.932, abs=5e-4)
        assert cfg.kappa6 == pytest.approx(math.sqrt(2), rel=1e-12)
        assert cfg.eta1 == cfg.eta2 == cfg.mu == 1.0

    def test_kappa2_squared_equals_kappa5(self):
        for T in (10**3, 10**5, 10**7):
            cfg = constants_tuned(2, T)
            assert cfg.kappa2**2 == pytest.approx(cfg.kappa5, rel=1e-12)

    def test_kappa3_formula(self):
        cfg = constants_tuned(3, 10**4)
        expected = 8 * cfg.kappa1 * math.sqrt(27 * math.log(2 * 3 * 10**4)) \
            + 12 * cfg.kappa1**2
        assert cfg.kappa3 == pytest.approx(expected, rel=1e-12)

    def test_n0_floor(self):
        cfg = constants_tuned(1, 10)
        assert cfg.n0 >= 4


class TestConstantsTheory:
    def test_positive_on_example(self, instance, regularity):
        cfg = constants_theory(instance, regularity, instance.T)
        for name in ("n0", "kappa1", "kappa2", "kappa3", "kappa5",
                     "kappa6", "eta1", "eta2", "mu"):
            assert getattr(cfg, name) > 0
        assert cfg.kappa2**2 == pytest.approx(cfg.kappa5, rel=1e-9)
        assert 0 < cfg.contraction < 1
        assert cfg.kappa5 >= 1.0

    @pytest.mark.parametrize("name", ["zero-box", "narrow-box"])
    def test_margin_without_room_to_probe_is_refused(self, regularity, name):
        # the instance is checked before rho_lo, the inner box's margin, is
        # computed, whose fourth power n0 divides by
        inst = boxless_instances()[name]
        with pytest.raises(ValueError, match="instance key 'price_max' must be"):
            constants_theory(inst, regularity, inst.T)

    def test_asymptotic_orders_in_n(self):
        # slopes of ln(constant) vs ln(N) with smoothness, dual and radius
        # parameters held at 1, matching the asymptotic-order accounting
        reg = unit_regularity()
        Ns = [4, 8, 16, 32]
        cfgs = [pdnrm._theory(N, reg, 10**6, unit_box_bound(N), 1.0, 1.0) for N in Ns]
        assert 3.5 <= log_slope(Ns, [c.n0 for c in cfgs]) <= 4.5
        # kappa3 = 4 d L kappa1 sqrt(N^3 ln) + 3 L kappa1^2 with kappa1 ~ N:
        # the quadratic term (slope 2) carries desk-scale N; the sqrt(N^3)
        # term (slope 2.5) takes over only beyond N ~ 1e4
        assert 0.9 <= log_slope(Ns, [c.kappa1 for c in cfgs]) <= 1.2
        assert 1.8 <= log_slope(Ns, [c.kappa3 for c in cfgs]) <= 3.0
        big = [64, 256]
        cfg_big = [pdnrm._theory(N, reg, 10**6, unit_box_bound(N), 1.0, 1.0) for N in big]
        assert 0.35 <= log_slope(big, [c.kappa6 for c in cfg_big]) <= 0.65

    def test_polylog_in_horizon(self):
        reg = unit_regularity()
        Ts = [10**6, 10**9, 10**12]
        cfgs = [pdnrm._theory(2, reg, T, float(np.linalg.norm(np.full(2, 0.7))), 1.0, 1.0)
                for T in Ts]
        assert log_slope(Ts, [c.n0 for c in cfgs]) <= 0.5
        assert log_slope(Ts, [c.kappa3 for c in cfgs]) <= 0.3

    def test_sized_for_the_default_dual_box(self, instance, regularity):
        # the box the policy steps in is the box its constants are sized for,
        # derived from the instance and not stored
        cfg = constants_theory(instance, regularity, instance.T)
        box = default_dual_set(instance)
        assert PdNrmPolicy(instance, cfg).lambda_max.tolist() == box.tolist()
        lam_bar = float(np.linalg.norm(box))
        reg = regularity
        assert cfg.eta1 == 1.0 / (8.0 * (reg.B_f + reg.B_A * reg.B_D * lam_bar))
        assert not {"lambda_max", "p_margin"} & cfg.to_dict().keys()


class TestConfigValidation:
    def test_n0_floor_enforced(self):
        with pytest.raises(ValueError):
            replace(constants_tuned(2, 10**4), n0=4).validate(synthetic_instance(2))

    def test_kappa2_consistency_enforced(self):
        # kappa2 = sqrt(kappa5) is derived, so a document cannot set it
        cfg = constants_tuned(2, 10**4)
        with pytest.raises(ValueError, match=r"^unknown pdnrm config keys \['kappa2'\]$"):
            config_from_dict({"kappa2": cfg.kappa2 * 2},
                             instance=synthetic_instance(2), T=10**4)

    def test_kappa5_override_derives_kappa2(self):
        cfg = config_from_dict({"kappa5": 100.0}, synthetic_instance(2), T=10**4)
        assert cfg.kappa5 == 100.0
        assert cfg.kappa2 == 10.0

    @pytest.mark.parametrize("mode", ["tuned", "theory", "explicit"])
    def test_mode_key_refused_with_its_hint(self, mode):
        # a config is the tuned formulas plus overrides, so no document names a mode; the
        # key gets the plain refusal, whose hint is the key's name and nothing after it
        with pytest.raises(ValueError, match=r"^unknown pdnrm config keys \['mode'\]$"):
            config_from_dict({"mode": mode}, synthetic_instance(2))

    def test_theory_document_resolves_to_theory_config(self, instance, regularity):
        cfg = constants_theory(instance, regularity, instance.T)
        back = config_from_dict(json.loads(json.dumps(cfg.to_dict())), instance)
        assert back.to_dict() == cfg.to_dict()
        assert back.kappa2 == cfg.kappa2

    def test_json_round_trip(self):
        cfg = replace(constants_tuned(2, 10**5), primal_init="center", contraction=0.4)
        doc = json.loads(json.dumps(cfg.to_dict()))
        back = config_from_dict(doc, synthetic_instance(2))
        assert back.n0 == cfg.n0
        assert back.kappa5 == pytest.approx(cfg.kappa5, rel=1e-12)
        assert back.contraction == 0.4
        assert back.primal_init == "center"

    def test_tuned_overrides(self, instance):
        cfg = config_from_dict({"contraction": 0.3}, instance=instance)
        assert cfg.contraction == 0.3

    def test_a_document_is_the_one_override_path(self, monkeypatch):
        # constants_tuned gives the formulas alone, and config_from_dict reads a
        # document's keys once
        with pytest.raises(TypeError, match="unexpected keyword argument 'kappa3'"):
            constants_tuned(2, 10**4, kappa3=1.0)
        reads = []
        monkeypatch.setattr(pdnrm, "_read", lambda *args: reads.append(args))
        cfg = config_from_dict({"kappa3": 1.0}, synthetic_instance(2), T=10**4)
        assert len(reads) == 1
        assert cfg == replace(constants_tuned(2, 10**4), kappa3=1.0)

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match="must be a JSON object, not list"):
            config_from_dict([1, 2], synthetic_instance(2))

    @pytest.mark.parametrize("doc, key", [
        ({"eta2": "5"}, "eta2"),
        ({"eta2": True}, "eta2"),
        ({"kappa5": [1.0]}, "kappa5"),
        ({"contraction": None}, "contraction"),
        ({"n0": 1000.5}, "n0"),
        ({"n0": "1000"}, "n0"),
        ({"n0": False}, "n0"),
        ({"n0": float("inf")}, "n0"),
        ({"lambda_max": 4.0}, "lambda_max"),
        ({"lambda_max": ["4", "4"]}, "lambda_max"),
        ({"lambda0": [[0.0, 0.0]]}, "lambda0"),
        ({"lambda0": [True, False]}, "lambda0"),
        ({"warm_start": "false"}, "warm_start"),
        ({"warm_start": 1}, "warm_start"),
        ({"warm_start": None}, "warm_start"),
        ({"primal_init": ["1.5", "2"]}, "primal_init"),
        ({"primal_init": "middle"}, "primal_init"),
        ({"primal_init": [1.0, 2.0, 3.0]}, "primal_init"),
        ({"primal_init": [[1.0, 2.0]]}, "primal_init"),
        ({"primal_init": None}, "primal_init"),
        ({"primal_init": 1.5}, "primal_init"),
        ({"lambda_max": [4, 4, 4]}, "lambda_max"),
        ({"lambda_max": [4, -1]}, "lambda_max"),
        ({"lambda0": [0.1]}, "lambda0"),
        ({"lambda0": [100.0, 0.0]}, "lambda0"),
        # json.load reads NaN and Infinity; no constant can be either
        *[(json.loads(text), key) for text, key in [
            ('{"eta1": Infinity}', "eta1"), ('{"mu": Infinity}', "mu"),
            ('{"kappa1": Infinity}', "kappa1"), ('{"kappa5": Infinity}', "kappa5"),
            ('{"primal_init": [NaN, 1.0]}', "primal_init"),
            ('{"primal_init": [0.5, -Infinity]}', "primal_init")]],
    ])
    def test_wrong_typed_override_names_its_key(self, doc, key):
        # warm_start, lambda0 and lambda_max are no fields: a document naming one is refused
        # whatever its value
        removed = key in ("warm_start", "lambda0", "lambda_max")
        with pytest.raises(ValueError, match=rf"unknown pdnrm config keys \['{key}'\]" if removed
                           else f"pdnrm config key '{key}' must be"):
            config_from_dict(doc, synthetic_instance(2), T=10**4)

    @pytest.mark.parametrize("doc, match", [
        ({"warm_start": True}, r"unknown pdnrm config keys \['warm_start'\]"),
        ({"lambda0": [0.0, 0.0]}, r"unknown pdnrm config keys \['lambda0'\]"),
        ({"primal_init": [0.5, 1.0]}, "pdnrm config key 'primal_init' must be 'low' or 'center'"),
    ], ids=["warm_start", "lambda0", "primal_init"])
    def test_a_start_that_no_run_sets_is_refused(self, doc, match):
        # each epoch starts from the last one's iterate, the dual at 0 and the primal at
        # the low corner or the center of the inner box; well-formed values are refused too
        with pytest.raises(ValueError, match=match):
            config_from_dict(doc, synthetic_instance(2), T=10**4)

    def test_well_typed_overrides_resolve_as_before(self):
        cfg = config_from_dict({"n0": 1000.0, "eta2": 5, "mu": 0.5, "primal_init": "center"},
                               synthetic_instance(2), T=10**4)
        assert cfg.n0 == 1000 and isinstance(cfg.n0, int)
        assert cfg.primal_init == "center"
        assert cfg.eta2 == 5 and cfg.mu == 0.5
        kw = config_from_dict({"n0": np.int64(1000), "eta2": np.float64(5.0)},
                              synthetic_instance(2), T=10**4)
        assert (kw.n0, kw.eta2) == (1000, 5.0) and isinstance(kw.n0, int)

    @pytest.mark.parametrize("field, value", [("primal_init", [0.5, 1.0]),
                                              ("primal_init", "middle"),
                                              ("primal_init", np.zeros(3))])
    def test_policy_rejects_unchecked_field(self, field, value):
        inst = synthetic_instance(2)
        cfg = replace(constants_tuned(2, inst.T), **{field: value})
        with pytest.raises(ValueError, match=f"pdnrm config key '{field}' must be"):
            PdNrmPolicy(inst, cfg)

    @pytest.mark.parametrize("field, value", [
        *[(name, bad) for name in ("kappa1", "kappa3", "kappa5", "kappa6", "eta1", "eta2", "mu")
          for bad in ("5", None, True, 0.0, float("nan"))],
        ("n0", "1000"), ("n0", 1000.5), ("n0", True), ("n0", 7),
        ("contraction", "0.5"), ("contraction", 1.0), ("contraction", None),
        ("p_margin", "0.1"), ("p_margin", 0.5), ("p_margin", -0.1),
        ("primal_init", [0.5, 1.0]), ("primal_init", np.array([0.5, 1.0])),
        ("primal_init", ["low"]), ("primal_init", "middle"), ("primal_init", ["1.5", "2"]),
        ("primal_init", [1.0]), ("primal_init", None),
        ("lambda_max", [4.0, 4.0, 4.0]), ("lambda_max", [4.0]), ("lambda_max", "4"),
        ("lambda_max", [4.0, 0.0]), ("lambda_max", ["4", "4"]), ("lambda_max", np.ones((2, 1))),
        ("lambda_max", [-4.0, 4.0]), ("lambda_max", [True, True]), ("lambda_max", [None, 4.0]),
        ("lambda_max", [4.0, -np.inf]), ("lambda_max", np.full(3, 4.0)), ("lambda_max", 4.0),
        ("lambda_max", [np.inf, 4.0]), ("lambda_max", [np.nan, 4.0]),
        *[(name, math.inf) for name in ("kappa1", "kappa3", "kappa5", "kappa6", "eta1",
                                        "eta2", "mu")],
        ("primal_init", [math.nan, 2.0]), ("primal_init", [2.0, math.inf]),
        ("p_margin", 0.0), ("p_margin", 1e-16), ("p_margin", math.nan),
    ])
    def test_validate_names_every_bad_field(self, instance, field, value):
        # a directly built config is checked like a document, against N = M = 2; the
        # boxes come from the instance, so neither p_margin nor lambda_max can be set,
        # and a document naming either is refused by the key rule whatever its value
        cfg = constants_tuned(2, instance.T)
        if field in ("p_margin", "lambda_max"):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
                replace(cfg, **{field: value})
            with pytest.raises(ValueError, match=rf"unknown pdnrm config keys \['{field}'\]"):
                config_from_dict({field: value}, instance)
            return
        cfg = replace(cfg, **{field: value})
        with pytest.raises(ValueError, match=f"pdnrm config key '{field}' must be"):
            cfg.validate(instance)
        with pytest.raises(ValueError, match=f"pdnrm config key '{field}' must be"):
            PdNrmPolicy(instance, cfg)

    def test_default_box_must_be_positive(self):
        # price_max = 0 makes default_dual_set's lambda_max zero: there is no box to step in
        flat = boxless_instances()["zero-box"]
        with pytest.raises(ValueError, match="instance key 'price_max' must be positive"):
            PdNrmPolicy(flat)
        # validate checks the instance too, so a document is refused at load
        with pytest.raises(ValueError, match="instance key 'price_max' must be positive"):
            config_from_dict({}, flat)


class TestGradEst:
    def test_noiseless_bias_bounds(self, noiseless_instance, regularity, rng):
        # second-order-only bias when sampling noise is absent
        inst = noiseless_instance
        cfg = constants_tuned(2, inst.T)
        for n in (10**4, 10**6):
            for _ in range(10):
                p = 1.0 + 3.0 * rng.random(2)
                lam = np.array([1.0, 0.1]) * rng.random(2)
                env = DemandOracle(inst)
                out = grad_est(env, inst, cfg, p, lam, n)
                D = inst.model.mean(p)
                J = inst.model.jacobian(p)
                g = grad_revenue_f(inst.model, p)
                u = out.u
                assert np.max(np.abs(out.D_hat - D)) <= 2 * regularity.L_D * u**2
                for i in range(2):
                    col_err = np.linalg.norm(out.J_hat[:, i] - J[:, i])
                    assert col_err <= 0.5 * regularity.L_D * u
                assert np.linalg.norm(out.grad_f - g) <= \
                    regularity.B_f * u * math.sqrt(2) / 2 + 1e-9

    def test_oracle_cost_is_constant_in_n(self, noiseless_instance):
        env = DemandOracle(noiseless_instance)
        cfg = constants_tuned(2, 10**6)
        grad_est(env, noiseless_instance, cfg, np.array([2.0, 2.0]),
                 np.zeros(2), 10**6)
        assert env.commits == 2 * 2 + 1
        assert env.periods == 10**6

    SCHEDULE = (np.array([[2.0, 2.0], [1.5, 3.0], [4.0, 0.9]]), np.array([55, 1, 20_000]))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_noiseless_oracle_answers_exact_means(self, noiseless_instance, rows):
        prices, lengths = (a[:rows] for a in self.SCHEDULE)
        env = DemandOracle(noiseless_instance)
        got = env.commit(prices, lengths)
        means = noiseless_instance.model.mean(prices)
        # the first row's (mean * 55) / 55 rounds off its mean, so an answer
        # rebuilt from the row's sum fails here
        assert (means[0] * 55 / 55).tobytes() != means[0].tobytes()
        assert got.tobytes() == means.tobytes()
        assert (env.periods, env.commits) == (int(lengths.sum()), rows)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_sampling_oracle_is_one_kernel_draw(self, instance, seed):
        # the market kernel without inventory, under a twin generator
        prices, lengths = self.SCHEDULE
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        env = DemandOracle(instance, rng)
        got = env.commit(prices, lengths)
        counts = _serve(instance.model, instance.A, prices, lengths, None, twin)[1]
        assert got.tobytes() == (counts[:, :-1] / lengths[:, None]).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        assert (env.periods, env.commits) == (int(lengths.sum()), len(lengths))

    def test_sampled_market_needs_an_rng(self, instance):
        with pytest.raises(ValueError, match="'multinomial' noise samples"):
            DemandOracle(instance)

    def test_u_capped_at_box_distance(self, noiseless_instance):
        inst = noiseless_instance
        cfg = constants_tuned(2, inst.T)
        p = np.array([0.85, 2.0])  # 0.05 from the lower edge
        env = DemandOracle(inst)
        out = grad_est(env, inst, cfg, p, np.zeros(2), 10**4)
        assert out.u == pytest.approx(0.05, rel=1e-12)
        p_free = np.array([2.0, 2.0])
        out2 = grad_est(DemandOracle(inst), inst, cfg, p_free, np.zeros(2), 10**4)
        assert out2.u == pytest.approx(math.sqrt(2) / 10, rel=1e-12)

    @pytest.mark.parametrize("n", [7, 0, -8])
    def test_refuses_a_budget_below_4n(self, noiseless_instance, n):
        # no loop of a valid config has n < n0 <= 4N: two probes per product
        # need a period each
        inst = noiseless_instance
        env = DemandOracle(inst)
        with pytest.raises(ValueError, match=f"n >= 4N = 8, not n = {n}"):
            grad_est(env, inst, constants_tuned(2, inst.T), np.array([2.0, 2.0]),
                     np.zeros(2), n)
        assert env.commits == 0

    @pytest.mark.parametrize("p", [[0.8, 2.0], [2.0, 5.0], [0.7, 2.0], [2.0, 5.5], [2.0, math.nan]],
                             ids=["low edge", "high edge", "below", "above", "nan"])
    def test_refuses_a_price_without_room_to_probe(self, noiseless_instance, p):
        # u is capped by the distance to the box, which is 0 on its edge
        inst = noiseless_instance
        cfg = constants_tuned(2, inst.T)
        env = DemandOracle(inst)
        with pytest.raises(ValueError, match="p strictly inside the price box"):
            grad_est(env, inst, cfg, np.array(p), np.zeros(2), 10**4)
        assert env.commits == 0

    def test_stochastic_estimates_concentrate(self, instance):
        # over 50 replications the mean deviation stays within 4 standard
        # errors of the noiseless bias
        inst = instance
        cfg = constants_tuned(2, inst.T)
        p = np.array([1.5, 1.5])
        n = 20_000
        m = n // 8
        devs = []
        for rep in range(50):
            env = DemandOracle(inst, np.random.default_rng(500 + rep))
            out = grad_est(env, inst, cfg, p, np.zeros(2), n)
            devs.append(out.D_hat - inst.model.mean(p))
        devs = np.array(devs)
        se = math.sqrt(1.0 / (16 * m * 50))  # var(D_hat coord) <= 1/(16 m)
        noiseless = grad_est(DemandOracle(replace(inst, noise="none")), inst, cfg, p,
                             np.zeros(2), n)
        bias = np.abs(noiseless.D_hat - inst.model.mean(p))
        assert np.all(np.abs(devs.mean(axis=0)) <= bias + 4 * se)


def reference_balance(D_hat, J_hat, p, lam, n, gamma, A, kappa1, kappa2, kappa3, price_box):
    """demand_balance without its shortcut: every row of G x <= h built and
    projections.feasible_point run from x = 0."""
    p = np.asarray(p, float)
    root_n = math.sqrt(n)
    radius = kappa1 * n**-0.25
    lo = np.maximum(-radius, price_box[0] - p)
    hi = np.minimum(radius, price_box[1] - p)
    C = 0.5 * (J_hat.T @ A.T)
    band = kappa3 / root_n
    G = C.T.repeat(2, axis=0)
    G[1::2] *= -1.0
    h = []
    for g, l, base in zip(gamma.tolist(), lam.tolist(), (A @ D_hat).tolist()):
        lb = g - kappa2 / (min(1.0, l) * root_n) - band - base if l > 0 else -math.inf
        h += [g + band - base, -lb]
    x, ok = feasible_point(G, np.array(h), np.zeros(len(p)), lo, hi)
    return (p + x, True) if ok else (p.copy(), False)


def linprog_feasible_point(G, h, x0, lo, hi):
    """feasible_point's LP, for a start that fails and finite rows, solved by
    scipy's linprog: the reference whose x and verdict milp's must equal."""
    from scipy.optimize import linprog
    G, h = G[h != np.inf], h[h != np.inf]
    n = len(x0)
    eye, t = np.eye(n), -np.ones((n, 1))
    res = linprog(np.r_[np.zeros(n), 1.0],
                  A_ub=np.block([[G, np.zeros((len(h), 1))], [eye, t], [-eye, t]]),
                  b_ub=np.r_[h, x0, -x0],
                  bounds=[*zip(np.broadcast_to(lo, n), np.broadcast_to(hi, n)), (0.0, None)],
                  method="highs")
    assert res.status in (0, 2)
    return (res.x[:-1], True) if res.status == 0 else (np.minimum(np.maximum(x0, lo), hi), False)


def balance_inputs(rng, case):
    """Seeded demand_balance arguments on the box [0.8, 5] for N in 1..4."""
    N = int(rng.integers(1, 5))
    M = int(rng.integers(1, N + 1))
    A = rng.uniform(0.0, 2.0, size=(M, N))
    D = rng.uniform(0.0, 0.3, size=N)
    J = rng.normal(scale=0.3, size=(N, N))
    p = rng.uniform(1.0, 4.8, size=N)
    lam = np.zeros(M)
    gamma = (A @ D) * rng.uniform(1.0, 1.2, size=M)
    kappa1, kappa2, kappa3 = rng.uniform(0.1, 3.0), rng.uniform(0.01, 1.0), 1.0
    n = int(rng.integers(100, 10**6))
    if case == "binding band":
        lam = rng.uniform(0.1, 2.0, size=M)
        gamma = (A @ D) * rng.uniform(0.5, 1.5, size=M)
        kappa3 = 1e-6
    elif case == "box edge":
        p[rng.integers(N)] = rng.choice([0.8, 5.0])
        lam = rng.uniform(0.0, 2.0, size=M)
        kappa3 = rng.uniform(1e-6, 1.0)
    elif case == "nan p":
        p[rng.integers(N)] = np.nan
    elif case == "nan h":   # a NaN in the rows of the last resource only
        gamma[-1] = np.nan
    elif case == "bad J":
        J.flat[rng.integers(N * N)] = rng.choice([np.inf, -np.inf, np.nan])
    elif case == "huge J":   # finite, but J^T A^T overflows for most draws
        J = np.sign(J) * rng.uniform(1e307, 1.7e308, size=(N, N))
    return D, J, p, lam, n, gamma, A, kappa1, kappa2, kappa3, (0.8, 5.0)


class TestDemandBalance:
    def setup_method(self):
        self.inst = None

    @pytest.mark.parametrize("case", ["start passes", "binding band", "box edge", "nan p",
                                      "nan h", "bad J", "huge J"])
    def test_shortcut_matches_the_full_path(self, case, monkeypatch):
        # the start x = 0 is tested without G; the result must be the one
        # that building G and h and calling feasible_point gives
        calls, refused = [], 0

        def counted(*args, **kwargs):
            calls.append(1)
            return feasible_point(*args, **kwargs)

        monkeypatch.setattr(pdnrm, "feasible_point", counted)
        rng = np.random.default_rng([17, sum(case.encode())])
        for _ in range(200 if case == "start passes" else 30):
            args = balance_inputs(rng, case)
            # inf * 0 in G x, on both paths, and J^T A^T's overflow
            with np.errstate(invalid="ignore", over="ignore"):
                tilde, ok = demand_balance(*args)
                ref, ref_ok = reference_balance(*args)
            refused += not ref_ok
            assert ok == ref_ok
            assert np.array_equal(tilde, ref, equal_nan=True)
            assert np.array_equal(np.signbit(tilde), np.signbit(ref))
        # the passing start skips feasible_point; a start that fails calls it
        if case == "start passes":
            assert not calls
        elif case in ("binding band", "nan p", "nan h", "bad J"):
            assert len(calls) >= 15
        elif case == "huge J":   # where J^T A^T overflows, the start must not pass
            assert refused >= 10 and len(calls) >= refused

    def test_set_the_sweep_cap_called_empty_balances(self):
        # recorded from a bundled kappa3 = 1 episode: 500 cyclic-projection
        # sweeps stopped at residual 6.9e-9 and called this set empty
        G = np.array([[-0.06807247944575417, 0.011345413240959027],
                      [0.06807247944575417, -0.011345413240959027],
                      [0.04538165296383614, -0.02269082648191807],
                      [-0.04538165296383614, 0.02269082648191807]])
        h = np.array([-0.05560847628943938, 0.1480945712963334,
                      0.10785306217209906, -0.001575063325061625])
        r = 0.7071067811865475
        x, ok = feasible_point(G, h, np.zeros(2), np.full(2, -r), np.full(2, r))
        assert ok
        assert max_violation(G, h, x) == 0.0
        assert np.all(np.abs(x) <= r)

    @pytest.mark.parametrize("G, h, lo, hi, nearest", [
        ([[-1.0]], [-0.5], [-1.0], [1.0], [0.5]),                        # 1-D: x >= 0.5
        ([[1.0]], [-0.25], [-1.0], [1.0], [-0.25]),                      # 1-D: x <= -0.25
        ([[-1.0, -1.0]], [-2.0], [-5.0, -5.0], [5.0, 5.0], [1.0, 1.0]),  # x1 + x2 >= 2
        ([[-1.0, -1.0]], [-2.0], [-5.0, -5.0], [0.5, 5.0], [0.5, 1.5]),  # ... with x1 <= 0.5
        ([[-1.0, -1.0], [1.0, 0.0]], [-2.0, np.inf], [-5.0, -5.0], [5.0, 5.0], [1.0, 1.0]),
        ([[-1.0, -1.0], [np.nan, 0.0]], [-2.0, np.inf], [-5.0, -5.0], [5.0, 5.0], [1.0, 1.0]),
    ])
    def test_the_point_nearest_x0_in_the_max_norm(self, G, h, lo, hi, nearest):
        # a row whose bound is +inf binds nothing, whatever its coefficients
        x, ok = feasible_point(np.array(G), np.array(h), np.zeros(len(lo)),
                               np.array(lo), np.array(hi))
        assert ok
        assert_allclose(x, nearest, atol=1e-12)

    @pytest.mark.parametrize("G, h, lo, hi", [
        ([[np.nan]], [-1.0], [-2.0], [2.0]),
        ([[np.inf]], [-1.0], [-2.0], [2.0]),
        ([[1.0]], [np.nan], [-2.0], [2.0]),
        ([[1.0]], [-np.inf], [-2.0], [2.0]),
        ([[1.0]], [-1.0], [np.nan], [2.0]),
        ([[1.0]], [-1.0], [-np.inf], [2.0]),
        ([[1.0]], [-1.0], [-2.0], [np.inf]),
    ])
    def test_non_finite_input_is_empty_without_the_lp(self, G, h, lo, hi, monkeypatch):
        import scipy.optimize
        calls = []
        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: calls.append(1))
        x0 = np.array([0.5])
        x, ok = feasible_point(np.array(G), np.array(h), x0, np.array(lo), np.array(hi))
        assert not ok
        assert np.array_equal(x, np.minimum(np.maximum(x0, lo), hi), equal_nan=True)
        assert not calls

    def test_other_lp_status_raises(self, monkeypatch):
        import scipy.optimize
        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: scipy.optimize.OptimizeResult(
            status=4, message="numerical difficulties"))
        with pytest.raises(RuntimeError, match="HiGHS status 4"):
            feasible_point(np.array([[-1.0]]), np.array([-0.5]), np.zeros(1),
                           np.array([-1.0]), np.array([1.0]))

    @pytest.mark.parametrize("case", ["binding band", "box edge"])
    def test_accepted_points_satisfy_every_row(self, case, monkeypatch):
        solved = []

        def recorded(G, h, x0, lo, hi):
            x, ok = feasible_point(G, h, x0, lo, hi)
            if ok:
                solved.append((G, h, lo, hi, x))
            return x, ok

        monkeypatch.setattr(pdnrm, "feasible_point", recorded)
        rng = np.random.default_rng([23, sum(case.encode())])
        for _ in range(200):
            demand_balance(*balance_inputs(rng, case))
        assert len(solved) >= 20
        for G, h, lo, hi, x in solved:
            assert max_violation(G, h, x) <= FEASIBLE_TOL
            assert np.all((lo <= x) & (x <= hi))

    @pytest.mark.parametrize("case", ["binding band", "box edge"])
    def test_lp_equals_the_linprog_reference(self, case, monkeypatch):
        # feasible_point's LP through milp against the same LP through linprog:
        # the same x, bit for bit, and the same verdict
        solved = []

        def recorded(G, h, x0, lo, hi):
            x, ok = feasible_point(G, h, x0, lo, hi)
            solved.append((G, h, x0, lo, hi, x, ok))
            return x, ok

        monkeypatch.setattr(pdnrm, "feasible_point", recorded)
        rng = np.random.default_rng([29, sum(case.encode())])
        for _ in range(200):
            demand_balance(*balance_inputs(rng, case))
        assert sum(ok for *_, ok in solved) >= 20 and not all(ok for *_, ok in solved)
        for G, h, x0, lo, hi, x, ok in solved:
            ref_x, ref_ok = linprog_feasible_point(G, h, x0, lo, hi)
            assert ok == ref_ok
            assert x.tobytes() == ref_x.tobytes()

    def test_already_feasible_returns_p(self, instance, fluid_solution):
        inst = instance
        p = fluid_solution.p_star
        D = inst.model.mean(p)
        J = inst.model.jacobian(p)
        cfg = constants_tuned(2, inst.T)
        tilde, ok = demand_balance(D, J, p, fluid_solution.lambda_star, 10**4,
                                   inst.gamma, inst.A, cfg.kappa1, cfg.kappa2,
                                   cfg.kappa3, inst.price_box)
        assert ok
        assert_allclose(tilde, p)

    def test_contradictory_constraints_fall_back(self, instance):
        inst = instance
        p = np.array([0.9, 0.9])
        D = inst.model.mean(p)       # far above gamma
        J = inst.model.jacobian(p)
        tilde, ok = demand_balance(D, J, p, np.zeros(2), 10**8, inst.gamma,
                                   inst.A, kappa1=1e-4, kappa2=1e-6, kappa3=1e-6,
                                   price_box=inst.price_box)
        assert not ok
        assert_allclose(tilde, p)

    def test_sandwich_with_true_demand(self, noiseless_instance, rng):
        # accepted balanced prices keep the true two-phase average consumption
        # inside the target band
        inst = noiseless_instance
        cfg = constants_tuned(2, inst.T)
        accepted = 0
        for _ in range(100):
            p = 1.0 + 2.5 * rng.random(2)
            lam = 2.0 * rng.random(2)
            n = int(10 ** (3 + 3 * rng.random()))
            env = DemandOracle(inst)
            out = grad_est(env, inst, cfg, p, lam, n)
            if not out.balancing_feasible:
                continue
            accepted += 1
            avg = 0.5 * (inst.model.mean(p) + inst.model.mean(out.tilde_p))
            root_n = math.sqrt(n)
            for j in range(2):
                hi = inst.gamma[j] + 2 * cfg.kappa3 / root_n
                assert inst.A[j] @ avg <= hi + 1e-12
                if lam[j] > 0:
                    lo = inst.gamma[j] - cfg.kappa2 / (min(1.0, lam[j]) * root_n) \
                        - 2 * cfg.kappa3 / root_n
                    assert inst.A[j] @ avg >= lo - 1e-12
        assert accepted >= 90

    def test_locality_bound_exact(self, noiseless_instance, rng):
        inst = noiseless_instance
        cfg = constants_tuned(2, inst.T)
        for _ in range(20):
            p = 1.0 + 2.5 * rng.random(2)
            n = 5000
            out = grad_est(DemandOracle(inst), inst, cfg, p, np.array([2.0, 2.0]), n)
            assert np.max(np.abs(out.tilde_p - p)) <= cfg.kappa1 * n**-0.25 + 1e-12


class TestBalancingInEpisodes:
    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    def test_a_start_forced_to_fail_gives_the_same_episode(self, noise, monkeypatch):
        # at kappa3 = 1 the band binds: the LP moves some prices and finds some sets
        # empty. With the start test forced to fail, every loop's balancing goes to
        # feasible_point, and the episode must be the one that the start test shortens
        inst = example_logit_instance(T=100_000, noise=noise)
        cfg = config_from_dict({"kappa3": 1.0}, inst)
        calls = []

        def counted(*args):
            calls.append(1)
            return feasible_point(*args)

        monkeypatch.setattr(pdnrm, "feasible_point", counted)
        normal = run_episode(inst, PdNrmPolicy(inst, cfg), seed=7)
        solved = len(calls)
        monkeypatch.setattr(pdnrm, "_start_passes", lambda *args: False)
        forced = run_episode(inst, PdNrmPolicy(inst, cfg), seed=7)
        loops = [e for e in normal.events if e["kind"] == "loop"]
        assert any(e["balancing_feasible"] and e["tilde_p"] != e["p"] for e in loops)
        assert not all(e["balancing_feasible"] for e in loops)
        assert 0 < solved < len(loops) <= len(calls) - solved
        assert forced.fingerprint == normal.fingerprint
        assert forced.total_revenue == normal.total_revenue
        assert forced.events == normal.events


class TestPrimalOpt:
    def test_stopping_rule(self, noiseless_instance):
        inst = noiseless_instance
        cfg = replace(constants_tuned(2, inst.T), kappa5=100.0)
        events = []
        primal_opt(DemandOracle(inst), inst, cfg, np.zeros(2), eps_bar=1.0,
                   events=events)
        n_taus = [e["n_tau"] for e in events if e["kind"] == "loop"]
        assert all(n <= 100 for n in n_taus[:-1])
        assert n_taus[-1] > 100

    @pytest.mark.parametrize("eps_bar", [1.0, 0.05, 2e-4])
    def test_logged_loops_are_the_loop_lengths(self, noiseless_instance, eps_bar):
        inst = noiseless_instance
        cfg = replace(constants_tuned(2, inst.T), kappa5=100.0)
        env, events = DemandOracle(inst), []
        primal_opt(env, inst, cfg, np.zeros(2), eps_bar=eps_bar, events=events)
        lengths = list(pdnrm._loop_lengths(cfg, eps_bar))
        assert [(e["s"], e["tau"], e["n_tau"]) for e in events] == \
            [(0, tau, n) for tau, n in enumerate(lengths)]
        assert env.periods == sum(lengths)

    def test_loop_lengths_stay_at_their_cap(self):
        # eps_bar = 0 never ends the epoch; contraction^(-2 tau) alone would
        # overflow at tau = 512
        cfg = constants_tuned(2, 10**5)
        lengths = list(itertools.islice(pdnrm._loop_lengths(cfg, 0.0), 600))
        assert lengths[31] == lengths[-1] == 2**62 * cfg.n0

    def test_noiseless_zero_dual_finds_revenue_max(self, noiseless_instance):
        # a price box whose inner box [0.725, 4.775] holds the zero-dual maximizer
        # ~[1.06, 0.89], as the primal-dual set assumption requires
        inst = replace(noiseless_instance, price_min=0.5)
        cfg = constants_tuned(2, inst.T)
        p_hat, _ = primal_opt(DemandOracle(inst), inst, cfg, np.zeros(2),
                              eps_bar=2e-4)
        # grid-search oracle for the unconstrained revenue maximum
        grid = np.linspace(inst.price_min, inst.price_max, 400)
        P = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = revenue_f(inst.model, P)
        f_best = vals.max()
        assert revenue_f(inst.model, p_hat) >= f_best - 1e-3

    def test_tracks_inner_maximizer_at_fluid_dual(self, noiseless_instance,
                                                  fluid_solution):
        inst = noiseless_instance
        # slower loop growth buys enough gradient steps for one call to converge
        cfg = replace(constants_tuned(2, inst.T), contraction=0.8)
        lam = fluid_solution.lambda_star
        p_opt, _ = solve_inner_max(inst, lam)
        events = []
        primal_opt(DemandOracle(inst), inst, cfg, lam, eps_bar=1e-6, events=events)
        dists = [np.linalg.norm(np.array(e["p"]) - p_opt)
                 for e in events if e["kind"] == "loop"]
        assert len(dists) >= 20
        assert dists[-1] <= 0.05
        # monotone decrease until the perturbation bias floor
        floor = 0.05
        for a, b in zip(dists, dists[1:]):
            if a > floor:
                assert b <= a + 1e-9


class TestProxDualStep:
    def test_shrinkage_example(self):
        out = prox_dual_step(np.array([1.0, 1.0]), np.zeros(2), 1.0, 1.0,
                             np.array([10.0, 10.0]))
        assert_allclose(out, [0.5, 0.5])

    def test_projection_example(self):
        out = prox_dual_step(np.array([0.0, 0.0]), np.array([-1.0, 2.0]), 1.0, 1.0,
                             np.array([10.0, 10.0]))
        assert_allclose(out, [0.5, 0.0])

    def test_minimizes_prox_objective(self, rng):
        lam_s = np.array([1.3, 0.4])
        g = np.array([0.6, -0.9])
        mu, eta2 = 0.7, 1.4
        lam_max = np.array([2.0, 2.0])
        out = prox_dual_step(lam_s, g, mu, eta2, lam_max)

        def objective(lam):
            return (g @ lam + 0.5 * mu * lam @ lam
                    + (0.5 / eta2) * np.sum((lam - lam_s) ** 2))

        samples = rng.random((1_000_000, 2)) * lam_max
        vals = (samples @ g + 0.5 * mu * np.einsum("kn,kn->k", samples, samples)
                + (0.5 / eta2) * np.sum((samples - lam_s) ** 2, axis=1))
        assert objective(out) <= vals.min() + 1e-8


@pytest.fixture(scope="module")
def episode(instance):
    inst = instance.with_horizon(50_000)
    policy = PdNrmPolicy(inst, constants_tuned(2, inst.T))
    trace = run_episode(inst, policy, seed=77)
    return inst, policy, trace


class TestDualOptPolicy:
    def test_epoch_count_bound(self, episode):
        inst, policy, trace = episode
        epochs = sum(1 for e in trace.events if e["kind"] == "epoch")
        assert 1 <= epochs <= epoch_count_bound(policy.config, inst.T)

    def test_loop_count_bound(self, episode):
        inst, policy, trace = episode
        per_epoch = {}
        for e in trace.events:
            if e["kind"] == "loop":
                per_epoch[e["s"]] = per_epoch.get(e["s"], 0) + 1
        assert max(per_epoch.values()) <= loop_count_bound(policy.config, inst.T)

    def test_period_accounting_exact(self, episode):
        # a commit policy observes every request before the one in which the
        # market shuts, and pdnrm's requests end where estimation rows end
        inst, policy, trace = episode
        assert trace.shutoff_period is not None
        ends = (loop[4] for loop in estimation_ends(policy.config, inst.N))
        start = max(itertools.takewhile(lambda e: e < trace.shutoff_period, ends), default=0)
        assert policy.periods_observed == start

    def test_lambda_stays_in_dual_box(self, episode):
        inst, policy, trace = episode
        for e in trace.events:
            if e["kind"] == "dual":
                lam = np.array(e["lambda_next"])
                assert np.all(lam >= 0)
                assert np.all(lam <= policy.lambda_max + 1e-12)

    def test_eps_bar_strictly_decreasing_geometric(self, episode):
        _, policy, trace = episode
        eps = [e["eps_bar"] for e in trace.events if e["kind"] == "epoch"]
        ratio = (1 + policy.config.mu * policy.config.eta2) ** -0.5
        for a, b in zip(eps, eps[1:]):
            assert b == pytest.approx(a * ratio, rel=1e-9)

    def test_loop_lengths_increase_within_epoch(self, episode):
        _, _, trace = episode
        per_epoch = {}
        for e in trace.events:
            if e["kind"] == "loop":
                per_epoch.setdefault(e["s"], []).append(e["n_tau"])
        for lens in per_epoch.values():
            assert all(b > a for a, b in zip(lens, lens[1:]))

    def test_balanced_price_locality_logged(self, episode):
        _, policy, trace = episode
        cfg = policy.config
        checked = 0
        for e in trace.events:
            if e["kind"] == "loop" and e["balancing_feasible"]:
                r = cfg.kappa1 * e["n_tau"] ** -0.25
                gap = np.max(np.abs(np.array(e["tilde_p"]) - np.array(e["p"])))
                assert gap <= r + 1e-12
                checked += 1
        assert checked > 0

    def test_each_epoch_starts_where_the_last_ended(self, instance, monkeypatch):
        # the first epoch starts at the initial price, each later one at the post-update
        # iterate that the previous epoch returned
        starts, ends, real = [], [], pdnrm._primal_gen

        def recorded(instance, cfg, lam, loops, p_start, *args):
            starts.append(np.array(p_start))
            out = yield from real(instance, cfg, lam, loops, p_start, *args)
            ends.append(np.array(out[2]))
            return out

        monkeypatch.setattr(pdnrm, "_primal_gen", recorded)
        inst = instance.with_horizon(20_000)
        policy = PdNrmPolicy(inst, constants_tuned(2, inst.T))
        run_episode(inst, policy, seed=13)
        assert starts[0].tolist() == pdnrm._initial_price(inst, policy.config).tolist()
        assert len(ends) >= len(starts) - 1 >= 2
        assert all(a.tolist() == b.tolist() for a, b in zip(ends, starts[1:]))
        assert len({tuple(p) for p in starts}) > 1


# plan_scaling's constants: the dual step split (mu, eta2) = (0.05, 1.0)
SCALING_OVERRIDES = {"mu": 0.05, "eta2": 1.0}


class TestNoiselessTwin:
    """The noiseless twin of an instance is its estimation oracle bit for bit,
    and on it the primal-dual loop converges."""

    @staticmethod
    def oracle_events(inst, cfg):
        """The events of pdnrm's driver run on DemandOracle request by request,
        up to the last request that fits in the horizon."""
        policy = PdNrmPolicy(inst, cfg)
        policy.events = []   # drop the first epoch event of the policy's own driver
        gen, env, left = policy._driver(), DemandOracle(inst), inst.T
        prices, lengths = _as_schedule(next(gen))
        while sum(lengths.tolist()) <= left:
            left -= sum(lengths.tolist())
            prices, lengths = _as_schedule(gen.send(np.asarray(env.commit(prices, lengths), float)))
        return policy.events

    @pytest.mark.parametrize("overrides", [{}, SCALING_OVERRIDES], ids=["default", "scaling"])
    def test_episode_events_equal_the_oracle_runs(self, overrides):
        # gamma x 50: the market never shuts, so every request that fits is answered
        base = example_logit_instance(T=10**6, noise="none")
        inst = replace(base, gamma=50 * base.gamma)
        cfg = config_from_dict(overrides, inst)
        trace = run_episode(inst, PdNrmPolicy(inst, cfg), seed=1)
        assert trace.shutoff_period is None
        events = self.oracle_events(inst, cfg)
        assert sum(e["kind"] == "dual" for e in events) > 10
        assert trace.events == events

    def test_plan_scaling_converges(self):
        # measured: loss 0.4955% and ||lambda - lambda*||_inf 0.0243 at the
        # last of 215 dual updates; the dual step's sign flipped reads 49.3%
        # and 1.36
        inst = example_logit_instance(T=10**6, noise="none")
        fluid = solve_fluid(inst)
        trace = run_episode(inst, PdNrmPolicy(inst, config_from_dict(SCALING_OVERRIDES, inst)),
                            seed=1)
        lam = [e["lambda_next"] for e in trace.events if e["kind"] == "dual"][-1]
        assert percentage_loss(inst, trace, fluid.value) <= 0.01
        assert np.max(np.abs(np.array(lam) - fluid.lambda_star)) <= 0.05
