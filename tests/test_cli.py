import dataclasses
import json
import re
import numpy as np
import pytest

import nrmlab.bench
from nrmlab import (Instance, LogitDemand, PdNrmPolicy, config_from_dict, default_dual_set,
                    example_logit_instance, load_instance, pdnrm)
from nrmlab.checks import run_checks
from nrmlab.cli import cli_main
from conftest import boxless_instances, save_instance
from fingerprint_digest import _random_logit_instance


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "instance.json"
    save_instance(example_logit_instance(T=5000), str(path))
    return str(path)


@pytest.fixture(scope="module")
def boxless_files(tmp_path_factory):
    """Instance documents of boxless_instances, by name."""
    root = tmp_path_factory.mktemp("boxless")
    for name, inst in boxless_instances(T=5000).items():
        save_instance(inst, str(root / f"{name}.json"))
    return {name: str(root / f"{name}.json") for name in boxless_instances()}


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFluidCommand:
    def test_prints_certificate(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "fluid", instance_file)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["duality_gap"]) <= 1e-5
        assert doc["value"] == pytest.approx(0.20264844195, abs=1e-8)
        assert doc["upper_bound"] == pytest.approx(5000 * doc["value"])


class TestRunCommand:
    def test_same_seed_identical_trace_files(self, capsys, instance_file, tmp_path):
        t1 = tmp_path / "a.csv"
        t2 = tmp_path / "b.csv"
        code1, out1, _ = run_cli(capsys, "run", instance_file, "pdnrm",
                                 "--seed", "9", "--trace", str(t1))
        code2, out2, _ = run_cli(capsys, "run", instance_file, "pdnrm",
                                 "--seed", "9", "--trace", str(t2))
        assert code1 == code2 == 0
        assert t1.read_bytes() == t2.read_bytes()
        assert json.loads(out1)["revenue"] == json.loads(out2)["revenue"]

    def test_revenue_same_with_and_without_trace(self, capsys, instance_file, tmp_path):
        argv = ("run", instance_file, "clairvoyant", "--seed", "5", "--T", "200000")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv, "--trace", str(tmp_path / "t.csv"))
        assert code1 == code2 == 0
        assert json.loads(out1)["revenue"] == json.loads(out2)["revenue"]

    def test_events_export(self, capsys, instance_file, tmp_path):
        ev = tmp_path / "events.jsonl"
        code, out, _ = run_cli(capsys, "run", instance_file, "pdnrm",
                               "--seed", "3", "--events", str(ev))
        assert code == 0
        lines = [json.loads(x) for x in ev.read_text().strip().split("\n")]
        assert any(e["kind"] == "dual" for e in lines)

    def test_theory_constants_document_runs(self, capsys, instance_file, tmp_path):
        code, out, _ = run_cli(capsys, "constants", instance_file, "--mode", "theory")
        assert code == 0
        assert not {"mode", "kappa2"} & json.loads(out).keys()
        config = tmp_path / "theory.json"
        config.write_text(out)
        code, out, err = run_cli(capsys, "run", instance_file, "pdnrm", "--seed", "1",
                                 "--config", str(config))
        assert code == 0, err
        assert json.loads(out)["T"] == 5000

    def test_theory_document_stores_no_default_box(self, capsys, instance_file, tmp_path):
        # the dual box and the inner price box come from the instance, so a theory
        # document stores neither; one from an earlier tree, which stored p_margin,
        # is refused by the key rule
        code, out, _ = run_cli(capsys, "constants", instance_file, "--mode", "theory")
        doc = json.loads(out)
        assert code == 0 and not {"lambda_max", "p_margin"} & doc.keys()
        inst = load_instance(instance_file)
        policy = PdNrmPolicy(inst, config_from_dict(doc, inst))
        assert policy.lambda_max.tolist() == default_dual_set(inst).tolist()
        config = tmp_path / "theory.json"
        config.write_text(json.dumps({**doc, "p_margin": 0.05}))
        code, run, err = run_cli(capsys, "run", instance_file, "pdnrm", "--seed", "1",
                                 "--config", str(config))
        assert code == 2 and run == ""
        assert err.endswith("error: unknown pdnrm config keys ['p_margin']\n")

    @pytest.mark.parametrize("config", [False, True], ids=["no-config", "config"])
    def test_pdnrm_refuses_an_instance_without_its_boxes(self, capsys, boxless_files,
                                                         tmp_path, config):
        # price_max = 0 leaves pdnrm no dual box; the other policies need none, but the
        # fluid value on that box is not positive, so no loss can be reported
        path = boxless_files["zero-box"]
        doc = tmp_path / "config.json"
        doc.write_text("{}")
        argv = ("run", path, "pdnrm", "--seed", "1", *(("--config", str(doc)) if config else ()))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "error: instance key 'price_max' must be positive" in err
        code, out, err = run_cli(capsys, "run", path, "clairvoyant", "--seed", "1")
        assert code == 1 and out == ""
        assert "error: fluid value" in err and "is not positive" in err

    @pytest.mark.parametrize("name", ["zero-box", "narrow-box"])
    def test_pdnrm_refuses_an_instance_without_its_boxes_before_the_solve(
            self, capsys, boxless_files, monkeypatch, name):
        # the narrow box's fluid program has no feasible demand vector either, so
        # a solve before the refusal would exit 1 and name no key
        solves = []
        monkeypatch.setattr(nrmlab.cli, "solve_fluid", lambda *args: solves.append(args))
        code, out, err = run_cli(capsys, "run", boxless_files[name], "pdnrm", "--seed", "1")
        assert code == 2 and out == ""
        assert "error: instance key 'price_max' must be" in err
        assert solves == []

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_a_non_negative_integer(self, capsys, instance_file, seed):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", instance_file, "etc", "--seed", seed, "--T", "1000"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument --seed: expected a non-negative integer, not '{seed}'" in out.err

    def test_unknown_config_key_exits_2(self, capsys, instance_file, tmp_path):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"eta_2": 5.0}))
        code, _, err = run_cli(capsys, "run", instance_file, "pdnrm", "--seed", "1",
                               "--config", str(config))
        assert code == 2
        assert "eta_2" in err

    @pytest.mark.parametrize("policy", ["pdnrm", "clairvoyant", "etc"])
    def test_config_resolved_whatever_the_policy(self, capsys, instance_file, tmp_path, policy):
        # as a plan refuses a malformed pdnrm_config whatever its policies
        config = tmp_path / "oops.json"
        config.write_text(json.dumps({"eta2": "oops"}))
        code, out, err = run_cli(capsys, "run", instance_file, policy, "--seed", "1",
                                 "--T", "1000", "--config", str(config))
        assert code == 2 and out == ""
        assert "pdnrm config key 'eta2' must be" in err

    @pytest.mark.parametrize("doc, key", [
        ({"eta2": "5"}, "eta2"),
        ({"eta2": True}, "eta2"),
        ({"n0": 1000.5}, "n0"),
        ({"lambda_max": "4"}, "lambda_max"),
        ([1, 2], "JSON object"),
        ({"warm_start": "false"}, "warm_start"),
        ({"primal_init": "middle"}, "primal_init"),
        ({"primal_init": [1.0, 2.0, 3.0]}, "primal_init"),
    ])
    def test_wrong_typed_config_exits_2(self, capsys, instance_file, tmp_path, doc, key):
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "run", instance_file, "pdnrm", "--seed", "1",
                               "--config", str(config))
        assert code == 2
        assert key in err

    def test_t_override(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "run", instance_file, "clairvoyant",
                               "--seed", "1", "--T", "700")
        assert code == 0
        assert json.loads(out)["T"] == 700

    def test_zero_horizon_exits_2(self, capsys, instance_file):
        code, out, err = run_cli(capsys, "run", instance_file, "clairvoyant",
                                 "--seed", "1", "--T", "0")
        assert code == 2 and out == ""
        assert "instance key 'T' must be an integer of at least 1" in err


class TestBenchCommand:
    def test_bench_writes_outputs(self, capsys, instance_file, tmp_path):
        plan = {
            "instance": instance_file,
            "policies": ["clairvoyant"],
            "T_grid": [400, 800, 1600],
            "replications": 2,
            "base_seed": 21,
            "output_dir": str(tmp_path / "out"),
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, out, _ = run_cli(capsys, "bench", str(plan_path))
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "episodes.csv").exists()
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert doc["episodes_failed"] == 0

    def test_output_dir_option_overrides_the_plans(self, capsys, instance_file, tmp_path):
        plan = {"instance": instance_file, "policies": ["clairvoyant"], "T_grid": [400],
                "replications": 1, "base_seed": 21, "output_dir": str(tmp_path / "plan_out")}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, out, _ = run_cli(capsys, "bench", str(plan_path),
                               "--output-dir", str(tmp_path / "cli_out"))
        assert code == 0
        assert json.loads(out)["output_dir"] == str(tmp_path / "cli_out")
        assert sorted(p.name for p in (tmp_path / "cli_out").iterdir()) == [
            "episodes.csv", "run-metadata.json", "summary.csv"]
        assert not (tmp_path / "plan_out").exists()

    def test_failed_episodes_exit_1(self, capsys, instance_file, tmp_path,
                                    fail_pdnrm_episodes):
        # every pdnrm episode posts an out-of-box price
        plan = {
            "instance": instance_file,
            "policies": ["pdnrm", "clairvoyant"],
            "T_grid": [400],
            "replications": 2,
            "base_seed": 21,
            "pdnrm_config": {},
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, out, err = run_cli(capsys, "bench", str(plan_path))
        assert code == 1
        doc = json.loads(out)
        assert doc["episodes_failed"] == 2
        assert [(row["policy"], row["episodes_failed"]) for row in doc["rows"]] == [
            ("pdnrm", 2), ("clairvoyant", 0)]
        assert doc["rows"][0]["mean_loss"] is None
        assert "2 episode(s) failed" in err and "PolicyError" in err

    @pytest.mark.parametrize("config, key", [
        ({"pdnrm_config": {"eta_2": 5.0}}, "eta_2"),
        ({"pdnrm_config": {"eta2": "5"}}, "eta2"),
        ({"pdnrm_config": {"warm_start": "false"}}, "warm_start"),
        # ETC's removed options, set on pdnrm
        ({"pdnrm_config": {"grid": 4}}, "grid"),
        ({"pdnrm_config": {"grid_points_per_axis": "8"}}, "grid_points_per_axis"),
        ({"pdnrm_config": {"lambda_max": [4, 4, 4]}}, "'lambda_max'"),
        ({"pdnrm_config": {"lambda0": [0.1]}}, "'lambda0'"),
        ({"replications": [1]}, "'replications'"),
        ({"replications": 2.7}, "'replications'"),
        ({"workers": 1.5}, "'workers'"),
        ({"output_dir": 5}, "'output_dir'"),
        ({"T_grid": [1, 400]}, "'T_grid'"),
        ({"T_grid": [1, 400], "pdnrm_config": {}}, "'T_grid'"),
        ({"T_grid": []}, "'T_grid'"),
        ({"policies": []}, "'policies'"),
        ({"policies": ["pdnrm", "etc", "pdnrm"]}, "'policies'"),
        ({"pdnrm_cofig": {"mu": 0.05}}, "unknown plan keys ['pdnrm_cofig']"),
        ({"workerz": 2}, "unknown plan keys ['workerz']"),
        ({"pdnrm_config": {"mode": "tuned"}}, "unknown pdnrm config keys ['mode']"),
        ({"etc_config": {"grid_points_per_axis": 8}}, "unknown plan keys ['etc_config']"),
        # a plan that runs pdnrm is refused on an instance without its boxes, whether
        # or not it names a pdnrm_config
        *[({"instance": boxless_instances(T=5000)["zero-box"].to_dict(),
            "policies": ["pdnrm", "clairvoyant"], **doc}, "'price_max'")
          for doc in ({}, {"pdnrm_config": {}})],
    ])
    def test_malformed_plan_config_exits_2(self, capsys, instance_file, tmp_path,
                                           monkeypatch, config, key):
        ran = []
        monkeypatch.setattr(nrmlab.bench, "run_episode",
                            lambda *args, **kwargs: ran.append(args))
        monkeypatch.setattr(nrmlab.bench, "solve_fluid",
                            lambda *args, **kwargs: ran.append(args))
        plan = {"instance": instance_file, "policies": ["pdnrm", "etc"], "T_grid": [400],
                "replications": 2, "base_seed": 21, **config}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, out, err = run_cli(capsys, "bench", str(plan_path))
        assert code == 2
        assert key in err and out == ""
        assert ran == []

    def test_zero_workers_exits_2(self, capsys, instance_file, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(nrmlab.bench, "run_episode",
                            lambda *args, **kwargs: ran.append(args))
        plan = {"instance": instance_file, "policies": ["clairvoyant"], "T_grid": [400],
                "replications": 1, "base_seed": 21, "workers": 0}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, out, err = run_cli(capsys, "bench", str(plan_path))
        assert code == 2
        assert "plan key 'workers' must be a positive integer, not 0" in err and out == ""
        assert ran == []

    @pytest.mark.parametrize("argv", [("bench", "plan.json", "--workers", "2"),
                                      ("constants", "instance.json", "--grid-points", "9")],
                             ids=["bench-workers", "constants-grid-points"])
    def test_removed_options_refused_by_argparse(self, capsys, argv):
        # a plan's workers key sets the workers; theory mode scans 21 points per axis
        with pytest.raises(SystemExit) as exc:
            cli_main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and f"unrecognized arguments: {' '.join(argv[2:])}" in out.err


class TestCheckCommand:
    def test_check_passes_on_example(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "check", instance_file)
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out
        assert re.search(r"balance_locality  \([1-9]\d* of \d+ loops moved a price", out)

    def test_check_passes_on_noiseless_demand_outside_the_simplex(self, capsys, tmp_path):
        # mean demand 2 - p of each product is no category probability, and a
        # noiseless market never draws from it
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({
            "N": 2, "M": 1, "A": [1.0, 1.0], "gamma": [3.0], "T": 10000,
            "price_min": 0.0, "price_max": 1.0, "noise": "none",
            "demand": {"type": "linear", "a": [2.0, 2.0], "B": [[1.0, 0.0], [0.0, 1.0]]}}))
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 0, err
        assert "FAIL" not in out
        assert "16/16 checks passed" in out
        assert "demand.sampler_unbiased  (noiseless: exact means, nothing sampled)" in out

    @pytest.mark.parametrize("noise", ["multinomial", "none"])
    @pytest.mark.parametrize("N, M", [(3, 1), (4, 2)])
    def test_balance_locality_holds_where_every_set_is_empty(self, N, M, noise):
        # at kappa3 = 1 no balancing set of these instances has a point, so no price moves
        inst = dataclasses.replace(_random_logit_instance(N, M), noise=noise)
        results = {name: (ok, detail) for name, ok, detail in run_checks(inst)}
        ok, detail = results["pdnrm.balance_locality"]
        assert re.fullmatch(r"0 of ([1-9]\d*) loops moved a price, \1 sets empty, "
                            r"0 moved beyond the radius, 0 verdicts wrong", detail), detail
        assert ok and all(ok for ok, _ in results.values())

    def test_balance_locality_holds_where_no_band_binds(self, instance):
        # capacity no episode can use: every loop's start x = 0 meets the band
        slack = dataclasses.replace(instance, gamma=np.array([5.0, 5.0]))
        results = {name: (ok, detail) for name, ok, detail in run_checks(slack)}
        assert results["pdnrm.balance_locality"] == (
            True, "0 of 25 loops moved a price, 0 sets empty, 0 moved beyond the radius, "
                  "0 verdicts wrong")

    def test_balance_locality_fails_when_balancing_is_cut_out(self, instance, monkeypatch):
        # mutant A: demand_balance keeps every price and calls its set feasible
        monkeypatch.setattr(pdnrm, "demand_balance", lambda D, J, p, *args: (list(p), True))
        ok, detail = {name: (ok, detail) for name, ok, detail in run_checks(instance)}[
            "pdnrm.balance_locality"]
        assert not ok
        assert re.fullmatch(r"0 of 22 loops moved a price, 0 sets empty, 0 moved beyond the "
                            r"radius, [1-9]\d* verdicts wrong", detail), detail

    def test_balance_locality_fails_when_no_price_moves(self, instance, monkeypatch):
        monkeypatch.setattr(pdnrm, "feasible_point", lambda G, h, x0, lo, hi: (x0, False))
        results = {name: (ok, detail) for name, ok, detail in run_checks(instance)}
        assert results["pdnrm.balance_locality"][0] is False
        assert results["pdnrm.balance_locality"][1].startswith("0 of 22 loops moved a price")


class TestConstantsCommand:
    def test_tuned_constants(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "constants", instance_file,
                               "--mode", "tuned", "--T", "100000")
        assert code == 0
        doc = json.loads(out)
        assert doc["n0"] == 239
        assert doc["eta1"] == doc["eta2"] == doc["mu"] == 1.0

    def test_tuned_constants_report_the_loops_that_end(self, capsys, instance_file):
        code, out, err = run_cli(capsys, "constants", instance_file, "--T", "100000")
        assert code == 0 and json.loads(out)["n0"] == 239
        assert err.startswith("pdnrm: 33 loops and 17 epochs end by T = 100000; "
                              "the first loop ends at period 239")

    def test_theory_constants_report_that_no_loop_ends(self, capsys, instance_file):
        code, out, err = run_cli(capsys, "constants", instance_file, "--mode", "theory",
                                 "--T", "10000")
        assert code == 0 and json.loads(out)["n0"] > 10_000
        assert "no loop ends by T = 10000" in err

    def test_theory_constants_report_loops_without_a_dual_update(self, capsys, instance_file):
        # the theory's first epoch spans many loops: loops end by T = 1e12, no epoch does
        code, out, err = run_cli(capsys, "constants", instance_file, "--mode", "theory",
                                 "--T", str(10**12))
        assert code == 0 and json.loads(out)["n0"] > 10_000
        assert re.fullmatch(r"pdnrm: [1-9]\d* loops and 0 epochs end by T = 1000000000000; "
                            r"the first loop ends at period \d+, no dual update\n", err)

    def test_zero_horizon_exits_2(self, capsys, instance_file):
        code, out, err = run_cli(capsys, "constants", instance_file, "--T", "0")
        assert code == 2 and out == ""
        assert "T >= 2" in err

    @pytest.mark.parametrize("mode, T", [("theory", "0"), ("theory", "1"), ("tuned", "1")])
    def test_short_horizon_exits_2(self, capsys, instance_file, monkeypatch, mode, T):
        # refused before theory mode's regularity scan
        monkeypatch.setattr(nrmlab.cli, "estimate_regularity", None)
        code, out, err = run_cli(capsys, "constants", instance_file, "--mode", mode,
                                 "--T", T)
        assert code == 2 and out == ""
        assert "T >= 2" in err

    @pytest.mark.parametrize("mode", ["tuned", "theory"])
    @pytest.mark.parametrize("name", ["zero-box", "narrow-box"])
    def test_an_instance_without_pdnrm_boxes_exits_2(self, capsys, boxless_files, monkeypatch,
                                                     mode, name):
        # both modes print a document only for an instance pdnrm runs on, and theory
        # mode refuses before its regularity scan
        monkeypatch.setattr(nrmlab.cli, "estimate_regularity", None)
        code, out, err = run_cli(capsys, "constants", boxless_files[name], "--mode", mode)
        assert code == 2 and out == ""
        assert "error: instance key 'price_max' must be" in err

    def test_theory_constants(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "constants", instance_file, "--mode", "theory")
        assert code == 0
        doc = json.loads(out)
        assert doc["n0"] > 0
        assert doc["kappa5"] >= 1.0

    def test_theory_constants_three_products(self, capsys, tmp_path):
        rng = np.random.default_rng(303)
        model = LogitDemand(rng.uniform(0.2, 1.0, 3), rng.uniform(1.0, 2.5, 3))
        A = np.array([[1.0, 1.0, 2.0]])
        instance = Instance(model=model, A=A, gamma=0.6 * (A @ model.mean(np.full(3, 2.9))),
                            T=10_000, price_min=0.8, price_max=5.0)
        path = tmp_path / "instance3.json"
        save_instance(instance, str(path))
        code, out, _ = run_cli(capsys, "constants", str(path), "--mode", "theory")
        assert code == 0
        doc = json.loads(out)
        assert doc["n0"] > 0
        assert all(v > 0 for v in doc.values() if isinstance(v, (int, float)))


class TestErrorHandling:
    def test_malformed_instance_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "fluid", str(bad))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "fluid", "/nonexistent/instance.json")
        assert code == 2

    def test_linear_demand_outside_simplex_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "linear.json"
        bad.write_text(json.dumps({
            "N": 2, "M": 2, "A": [1, 0, 0, 1], "gamma": [0.1, 0.1], "T": 100,
            "price_min": 0.5, "price_max": 5.0, "noise": "multinomial",
            "demand": {"type": "linear", "a": [0.5, 0.6], "B": [[0.2, 0.05], [0.05, 0.2]]}}))
        code, _, err = run_cli(capsys, "fluid", str(bad))
        assert code == 2
        assert "simplex" in err

    def test_invalid_instance_document_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"N": 2}))
        code, _, err = run_cli(capsys, "fluid", str(bad))
        assert code == 2

    @pytest.mark.parametrize("demand", [
        {"type": "logit", "a": {}, "b": [1.5, 2.0]},
        {"type": "logit", "a": "x", "b": [1.5, 2.0]},
        {"type": "logit", "a": [float("nan"), 0.8], "b": [1.5, 2.0]},
        {"type": "logit", "a": [0.4, 0.8], "b": [1.5]},
        {"type": "logit", "a": [0.4, 0.8], "b": [0, 2]},
        {"type": "linear", "a": [0.5, 0.5], "B": "x"},
        {"type": "linear", "a": [0.5, 0.5], "B": [[1.0, float("nan")], [0.0, 1.0]]},
        {"type": "poisson", "a": [0.4, 0.8], "b": [1.5, 2.0]},
    ])
    def test_malformed_demand_exits_2(self, capsys, tmp_path, instance, demand):
        bad = tmp_path / "demand.json"
        bad.write_text(json.dumps({**instance.to_dict(), "demand": demand}))
        code, out, err = run_cli(capsys, "fluid", str(bad))
        assert code == 2 and out == ""
        assert "'demand'" in err

    @pytest.mark.parametrize("edit, refusal", [
        (lambda doc: doc.update(nosie="none"), "unknown instance document keys ['nosie']"),
        (lambda doc: doc.pop("T"), "instance document missing keys ['T']"),
        (lambda doc: doc["demand"].update(c=[1.0, 1.0]), "unknown demand object keys ['c']"),
        (lambda doc: doc["demand"].pop("b"), "demand object missing keys ['b']"),
        (lambda doc: doc["demand"].pop("type"), "demand object missing keys ['type']"),
        (lambda doc: doc["demand"].update(B=[[1.0, 0.0], [0.0, 1.0]]),
         "unknown demand object keys ['B']"),
    ], ids=["nosie", "no-T", "demand-c", "demand-no-b", "demand-no-type", "logit-B"])
    def test_key_outside_the_rule_exits_2(self, capsys, tmp_path, instance, edit, refusal):
        # a misspelled optional key is refused, not read as its default
        doc = instance.to_dict()
        edit(doc)
        bad = tmp_path / "keys.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "fluid", str(bad))
        assert code == 2 and out == ""
        assert refusal in err

    def test_non_integer_horizon_exits_2(self, capsys, tmp_path, instance):
        bad = tmp_path / "bad3.json"
        bad.write_text(json.dumps({**instance.to_dict(), "T": [1]}))
        code, out, err = run_cli(capsys, "fluid", str(bad))
        assert code == 2
        assert "'T'" in err and not out
