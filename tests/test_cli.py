import json
import re
import numpy as np
import pytest

import nrmlab.bench
from nrmlab import Instance, LogitDemand, example_logit_instance, pdnrm
from nrmlab.checks import run_checks
from nrmlab.cli import cli_main
from conftest import save_instance


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "instance.json"
    save_instance(example_logit_instance(T=5000), str(path))
    return str(path)


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
        code, out, _ = run_cli(capsys, "constants", instance_file, "--mode", "theory",
                               "--grid-points", "9")
        assert code == 0
        assert not {"mode", "kappa2"} & json.loads(out).keys()
        config = tmp_path / "theory.json"
        config.write_text(out)
        code, out, err = run_cli(capsys, "run", instance_file, "pdnrm", "--seed", "1",
                                 "--config", str(config))
        assert code == 0, err
        assert json.loads(out)["T"] == 5000

    def test_unknown_config_key_exits_2(self, capsys, instance_file, tmp_path):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"mode": "tuned", "eta_2": 5.0}))
        code, _, err = run_cli(capsys, "run", instance_file, "pdnrm", "--seed", "1",
                               "--config", str(config))
        assert code == 2
        assert "eta_2" in err

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

    def test_failed_episodes_exit_1(self, capsys, instance_file, tmp_path,
                                    fail_pdnrm_episodes):
        # every pdnrm episode posts an out-of-box price
        plan = {
            "instance": instance_file,
            "policies": ["pdnrm", "clairvoyant"],
            "T_grid": [400],
            "replications": 2,
            "base_seed": 21,
            "pdnrm_config": {"mode": "tuned"},
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
        ({"pdnrm_config": {"mode": "tuned", "eta_2": 5.0}}, "eta_2"),
        ({"pdnrm_config": {"eta2": "5"}}, "eta2"),
        ({"pdnrm_config": {"warm_start": "false"}}, "warm_start"),
        ({"etc_config": {"grid": 4}}, "grid"),
        ({"etc_config": {"grid_points_per_axis": "8"}}, "grid_points_per_axis"),
        ({"pdnrm_config": {"lambda_max": [4, 4, 4]}}, "'lambda_max'"),
        ({"pdnrm_config": {"lambda0": [0.1]}}, "'lambda0'"),
        ({"replications": [1]}, "'replications'"),
        ({"replications": 2.7}, "'replications'"),
        ({"workers": 1.5}, "'workers'"),
        ({"output_dir": 5}, "'output_dir'"),
        ({"T_grid": [1, 400]}, "'T_grid'"),
        ({"T_grid": [1, 400], "pdnrm_config": {"mode": "tuned"}}, "'T_grid'"),
    ])
    def test_malformed_plan_config_exits_2(self, capsys, instance_file, tmp_path,
                                           monkeypatch, config, key):
        ran = []
        monkeypatch.setattr(nrmlab.bench, "run_episode",
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
                "replications": 1, "base_seed": 21}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, out, err = run_cli(capsys, "bench", str(plan_path), "--workers", "0")
        assert code == 2
        assert "'workers'" in err and out == ""
        assert ran == []


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
                                 "--grid-points", "9", "--T", "10000")
        assert code == 0 and json.loads(out)["n0"] > 10_000
        assert "no loop ends by T = 10000" in err

    def test_zero_horizon_exits_2(self, capsys, instance_file):
        code, out, err = run_cli(capsys, "constants", instance_file, "--T", "0")
        assert code == 2 and out == ""
        assert "T >= 2" in err

    @pytest.mark.parametrize("mode, T", [("theory", "0"), ("theory", "1"), ("tuned", "1")])
    def test_short_horizon_exits_2(self, capsys, instance_file, monkeypatch, mode, T):
        # refused before theory mode's regularity scan
        monkeypatch.setattr(nrmlab.cli, "estimate_regularity", None)
        code, out, err = run_cli(capsys, "constants", instance_file, "--mode", mode,
                                 "--T", T, "--grid-points", "3")
        assert code == 2 and out == ""
        assert "T >= 2" in err

    def test_theory_constants(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "constants", instance_file,
                               "--mode", "theory", "--grid-points", "9")
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
        code, out, _ = run_cli(capsys, "constants", str(path), "--mode", "theory",
                               "--grid-points", "15")
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

    def test_non_integer_horizon_exits_2(self, capsys, tmp_path, instance):
        bad = tmp_path / "bad3.json"
        bad.write_text(json.dumps({**instance.to_dict(), "T": [1]}))
        code, out, err = run_cli(capsys, "fluid", str(bad))
        assert code == 2
        assert "'T'" in err and not out
