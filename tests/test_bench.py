import json
import math
import os
import subprocess
import numpy as np
import pytest

import nrmlab.bench
from nrmlab import (
    BenchPlan,
    BenchSummary,
    run_bench,
    loglog_slope,
    plan_from_dict,
    episode_seed,
)
from nrmlab.baselines import EtcConfig
from nrmlab.bench import SUMMARY_HEADER, EPISODES_HEADER
from nrmlab.fluid import FluidSolution


def small_plan(instance, tmp_path=None, **kw):
    defaults = dict(
        instance=instance,
        policies=("clairvoyant", "etc"),
        T_grid=(500, 2000),
        replications=3,
        base_seed=11,
        output_dir=str(tmp_path) if tmp_path else None,
    )
    defaults.update(kw)
    return BenchPlan(**defaults)


class TestBenchPlan:
    def test_grid_must_increase(self, instance):
        with pytest.raises(ValueError):
            small_plan(instance, T_grid=(2000, 500))

    def test_unknown_policy_rejected(self, instance):
        with pytest.raises(ValueError):
            small_plan(instance, policies=("pdnrm", "oracle"))

    def test_plan_from_dict_inline_instance(self, instance):
        doc = {
            "instance": instance.to_dict(),
            "policies": ["pdnrm"],
            "T_grid": [1000, 2000],
            "replications": 2,
            "base_seed": 5,
            "etc_config": {"grid_points_per_axis": 4, "exploration_fraction": 0.2},
        }
        plan = plan_from_dict(doc)
        assert plan.instance.N == 2
        assert plan.T_grid == (1000, 2000)
        assert plan.etc_config == EtcConfig(grid_points_per_axis=4, exploration_fraction=0.2)

    def test_plan_missing_key_raises(self):
        with pytest.raises(ValueError, match="missing"):
            plan_from_dict({"policies": ["pdnrm"]})

    @pytest.mark.parametrize("config, key", [
        ({"mode": "tuned", "eta_2": 5.0}, "eta_2"),
        ({"eta2": "5"}, "eta2"),
        ({"warm_start": "false"}, "warm_start"),
        ([1, 2], "JSON object"),
        ({"lambda_max": [4, 4, 4]}, "lambda_max"),
        ({"lambda0": [0.1]}, "lambda0"),
    ])
    def test_malformed_pdnrm_config_rejected_at_build(self, instance, config, key):
        with pytest.raises(ValueError, match=key):
            small_plan(instance, policies=("pdnrm",), pdnrm_config=config)

    def test_pdnrm_config_resolved_at_every_horizon(self, instance):
        # the tuned formulas need T >= 2, so this document fails at T = 1 only
        small_plan(instance, T_grid=(2, 500), pdnrm_config={"mode": "tuned"})
        with pytest.raises(ValueError, match="T >= 2"):
            small_plan(instance, T_grid=(1, 500), pdnrm_config={"mode": "tuned"})

    @pytest.mark.parametrize("config", [None, {"mode": "tuned"}], ids=["no-config", "tuned"])
    def test_pdnrm_horizon_below_2_refused_at_load(self, instance, config):
        with pytest.raises(ValueError, match=r"'T_grid'.*T >= 2"):
            small_plan(instance, policies=("pdnrm", "etc"), T_grid=(1, 500), pdnrm_config=config)
        # ETC and the clairvoyant policy run at T = 1
        summary = run_bench(small_plan(instance, T_grid=(1, 500), replications=1))
        assert not summary.errors and len(summary.episodes) == 4

    def test_pdnrm_config_resolved_once_per_horizon(self, instance, monkeypatch):
        import nrmlab.bench
        plan = small_plan(instance.with_horizon(1000), policies=("pdnrm", "clairvoyant"),
                          T_grid=(300, 600), pdnrm_config={"mu": 0.5})
        real, calls = nrmlab.bench.config_from_dict, []

        def counted(doc, inst, T=None):
            calls.append(T)
            return real(doc, inst, T)

        monkeypatch.setattr(nrmlab.bench, "config_from_dict", counted)
        summary = run_bench(plan)
        assert sorted(calls) == [300, 600]
        assert not summary.errors and len(summary.episodes) == 2 * 2 * 3
        # the policies run the config resolved at their own horizon
        built = []
        real_build = nrmlab.bench.build_policy
        def build(name, inst, *args, **kwargs):
            if name == "pdnrm":
                built.append((inst.T, kwargs["pdnrm_config"]))
            return real_build(name, inst, *args, **kwargs)

        monkeypatch.setattr(nrmlab.bench, "build_policy", build)
        run_bench(plan)
        assert [T for T, _ in built] == [300, 300, 300, 600, 600, 600]
        assert all(cfg.to_dict() == real({"mu": 0.5}, instance, T).to_dict() for T, cfg in built)

    @pytest.mark.parametrize("patch, key", [
        ({"replications": 2.7}, "replications"),
        ({"replications": [1]}, "replications"),
        ({"replications": "2"}, "replications"),
        ({"replications": True}, "replications"),
        ({"replications": 0}, "replications"),
        ({"base_seed": "7"}, "base_seed"),
        ({"base_seed": 7.5}, "base_seed"),
        ({"base_seed": None}, "base_seed"),
        ({"workers": 1.5}, "workers"),
        ({"workers": 0}, "workers"),
        ({"workers": False}, "workers"),
        ({"T_grid": [1000.5]}, "T_grid"),
        ({"T_grid": ["1000"]}, "T_grid"),
        ({"T_grid": 1000}, "T_grid"),
        ({"T_grid": [0, 1000]}, "T_grid"),
        ({"T_grid": [2000, 1000]}, "T_grid"),
        ({"instance": 5}, "instance"),
        ({"instance": [1, 2]}, "instance"),
        ({"policies": 5}, "policies"),
        ({"policies": "etc"}, "policies"),
        ({"policies": ["etc", "ucb"]}, "policies"),
        ({"output_dir": 5}, "output_dir"),
    ])
    def test_plan_numbers_checked(self, instance, patch, key):
        doc = {"instance": instance.to_dict(), "policies": ["clairvoyant"], "T_grid": [1000],
               "replications": 1, "base_seed": 5, **patch}
        with pytest.raises(ValueError, match=f"plan key '{key}' must be"):
            plan_from_dict(doc)

    def test_plan_must_be_an_object(self, instance):
        with pytest.raises(ValueError, match="a plan must be a JSON object, not list"):
            plan_from_dict([{"instance": instance.to_dict()}])

    def test_integral_float_plan_numbers_accepted(self, instance):
        doc = {"instance": instance.to_dict(), "policies": ["clairvoyant"],
               "T_grid": [1000.0, 2000], "replications": 2.0, "base_seed": 7.0, "workers": 1.0,
               "etc_config": {"grid_points_per_axis": 8.0}}
        plan = plan_from_dict(doc)
        assert (plan.T_grid, plan.replications, plan.base_seed, plan.workers,
                plan.etc_config.grid_points_per_axis) == ((1000, 2000), 2, 7, 1, 8)
        assert all(type(v) is int for v in (*plan.T_grid, plan.replications, plan.base_seed,
                                             plan.workers, plan.etc_config.grid_points_per_axis))

    @pytest.mark.parametrize("etc, key", [
        ({"grid": 4}, "grid"),
        ({"grid_points_per_axis": "8"}, "grid_points_per_axis"),
        ({"grid_points_per_axis": 8.5}, "grid_points_per_axis"),
        ({"exploration_fraction": "0.1"}, "exploration_fraction"),
        ([8], "etc_config"),
        ([], "etc_config"),
    ])
    def test_malformed_etc_config_rejected(self, instance, etc, key):
        doc = {"instance": instance.to_dict(), "policies": ["etc"], "T_grid": [1000],
               "replications": 1, "base_seed": 5, "etc_config": etc}
        with pytest.raises(ValueError, match=key):
            plan_from_dict(doc)


class TestRunBench:
    def test_single_episode_matches_summary(self, instance):
        plan = small_plan(instance, policies=("clairvoyant",), T_grid=(1500,),
                          replications=1)
        summary = run_bench(plan)
        row = summary.row("clairvoyant", 1500)
        ep = summary.episodes[0]
        assert row["mean_loss"] == ep.loss
        assert row["mean_revenue"] == ep.revenue
        assert row["stderr"] == 0.0

    def test_deterministic_outputs(self, instance, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        sa = run_bench(small_plan(instance, tmp_path=out_a))
        sb = run_bench(small_plan(instance, tmp_path=out_b))
        assert (out_a / "episodes.csv").read_bytes() == (out_b / "episodes.csv").read_bytes()
        # summary identical except the wall-clock column
        rows_a = (out_a / "summary.csv").read_text().strip().split("\n")
        rows_b = (out_b / "summary.csv").read_text().strip().split("\n")
        strip = lambda rows: [",".join(r.split(",")[:-1]) for r in rows]
        assert strip(rows_a) == strip(rows_b)
        for ea, eb in zip(sa.episodes, sb.episodes):
            assert ea.fingerprint == eb.fingerprint

    def test_parallel_matches_serial(self, instance):
        serial = run_bench(small_plan(instance, replications=4))
        parallel = run_bench(small_plan(instance, replications=4, workers=2))
        for ra, rb in zip(serial.rows, parallel.rows):
            assert ra["mean_loss"] == rb["mean_loss"]
            assert ra["mean_revenue"] == rb["mean_revenue"]
        for ea, eb in zip(serial.episodes, parallel.episodes):
            assert ea.fingerprint == eb.fingerprint

    def test_replicate_seeds_are_exchangeable(self, instance):
        # aggregates are symmetric functions of per-replicate metrics
        summary = run_bench(small_plan(instance, replications=5,
                                       policies=("clairvoyant",), T_grid=(800,)))
        losses = [e.loss for e in summary.episodes]
        mean = math.fsum(losses) / len(losses)
        shuffled = list(reversed(losses))
        assert math.fsum(shuffled) / len(shuffled) == mean

    def test_csv_schemas(self, instance, tmp_path):
        run_bench(small_plan(instance, tmp_path=tmp_path))
        summary_lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert summary_lines[0] == ",".join(SUMMARY_HEADER)
        episodes_lines = (tmp_path / "episodes.csv").read_text().strip().split("\n")
        assert episodes_lines[0] == ",".join(EPISODES_HEADER)
        assert len(episodes_lines) == 1 + 2 * 2 * 3
        meta = json.loads((tmp_path / "run-metadata.json").read_text())
        assert "git_hash" in meta and "plan" in meta
        # numeric fields round-trip at full precision
        row = summary_lines[1].split(",")
        reread = float(row[2])
        summary2 = run_bench(small_plan(instance))
        assert reread == summary2.rows[0]["mean_loss"]

    @pytest.fixture
    def git_hash(self):
        """bench._git_hash with its per-process cache emptied before and after."""
        nrmlab.bench._git_hash.cache_clear()
        yield nrmlab.bench._git_hash
        nrmlab.bench._git_hash.cache_clear()

    def test_git_hash_names_the_package_checkout(self, instance, tmp_path, monkeypatch, git_hash):
        package_dir = os.path.dirname(os.path.abspath(nrmlab.bench.__file__))
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=30, cwd=package_dir)
        except OSError:
            pytest.skip("git is not installed")
        if head.returncode != 0:
            pytest.skip("nrmlab is not in a git checkout")
        monkeypatch.chdir(tmp_path)   # a directory outside the checkout
        run_bench(small_plan(instance, tmp_path=tmp_path / "out", policies=("clairvoyant",),
                             T_grid=(500,), replications=1))
        meta = json.loads((tmp_path / "out" / "run-metadata.json").read_text())
        assert meta["git_hash"] == head.stdout.strip()

    def test_git_hash_ignores_a_repository_around_an_installed_copy(self, tmp_path, monkeypatch,
                                                                    git_hash):
        """A copy installed into a venv inside another project's repository
        names no commit: the project's HEAD is not nrmlab's."""
        project = tmp_path / "project"
        package_dir = project / ".venv" / "lib" / "python3" / "site-packages" / "nrmlab"
        package_dir.mkdir(parents=True)
        git = ["git", "-C", str(project), "-c", "user.name=t", "-c", "user.email=t@example.com",
               "-c", "commit.gpgsign=false"]
        try:
            for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "init"]):
                made = subprocess.run(git + args, capture_output=True, text=True, timeout=30)
                assert made.returncode == 0, made.stderr
        except OSError:
            pytest.skip("git is not installed")
        monkeypatch.setattr(nrmlab.bench, "__file__", str(package_dir / "bench.py"))
        monkeypatch.chdir(package_dir)
        assert git_hash() == "unknown"

    def test_seed_derivation_stable(self):
        s = episode_seed(42, "pdnrm", 1000, 3)
        assert s == episode_seed(42, "pdnrm", 1000, 3)
        assert s != episode_seed(42, "pdnrm", 1000, 4)
        assert s != episode_seed(42, "etc", 1000, 3)
        assert s != episode_seed(43, "pdnrm", 1000, 3)

    def test_episode_errors_recorded_not_fatal(self, instance, tmp_path, fail_pdnrm_episodes):
        # each pdnrm episode fails on an out-of-box price; the sweep completes,
        # the failures are recorded and the all-failed cell keeps its row with
        # empty statistics
        plan = small_plan(instance, tmp_path=tmp_path, policies=("pdnrm", "clairvoyant"),
                          T_grid=(600,), replications=2)
        summary = run_bench(plan)
        assert len(summary.errors) == 2
        assert all("PolicyError" in e["error"] for e in summary.errors)
        failed = summary.row("pdnrm", 600)
        assert failed["episodes_failed"] == 2
        assert all(failed[k] is None for k in SUMMARY_HEADER if k not in
                   ("policy", "T", "episodes_failed"))
        assert summary.row("clairvoyant", 600)["episodes_failed"] == 0
        lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert lines[1] == "pdnrm,600,,,,,2,"
        assert lines[2].split(",")[:2] == ["clairvoyant", "600"]
        assert lines[2].split(",")[6] == "0"


class TestLogLogSlope:
    def _synthetic_summary(self, instance, regret_fn):
        fluid = FluidSolution(
            d_star=np.zeros(2), p_star=np.zeros(2), lambda_star=np.zeros(2),
            value=1.0, binding_mask=np.array([True, False]), duality_gap=0.0)
        plan = small_plan(instance, policies=("pdnrm",), T_grid=(10, 100, 1000, 10000),
                          replications=1)
        rows = [{"policy": "pdnrm", "T": T, "mean_loss": 0.0, "stderr": 0.0,
                 "mean_revenue": T * 1.0 - regret_fn(T), "mean_shutoff": T,
                 "wall_ms": 0.0} for T in plan.T_grid]
        return BenchSummary(plan=plan, fluid=fluid, rows=rows, episodes=[])

    def test_exact_sqrt_law(self, instance):
        summary = self._synthetic_summary(instance, lambda T: 3.0 * math.sqrt(T))
        assert loglog_slope(summary, "pdnrm") == pytest.approx(0.5, abs=1e-12)

    def test_exact_linear_law(self, instance):
        summary = self._synthetic_summary(instance, lambda T: 0.25 * T)
        assert loglog_slope(summary, "pdnrm") == pytest.approx(1.0, abs=1e-12)

    def test_skips_all_failed_rows(self, instance):
        summary = self._synthetic_summary(instance, lambda T: 3.0 * math.sqrt(T))
        summary.rows.append(dict.fromkeys(SUMMARY_HEADER, None)
                            | {"policy": "pdnrm", "T": 100_000, "episodes_failed": 1})
        assert loglog_slope(summary, "pdnrm") == pytest.approx(0.5, abs=1e-12)

    def test_needs_three_points(self, instance):
        summary = self._synthetic_summary(instance, lambda T: math.sqrt(T))
        summary.rows = summary.rows[:2]
        with pytest.raises(ValueError):
            loglog_slope(summary, "pdnrm")
