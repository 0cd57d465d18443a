"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run short workloads (a few seconds each), so they check the benchmark's
contract and bookkeeping, not nrmlab's speed.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads first)

run.import_package()
import nrmlab  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SHORT = 2.0   # seconds: primary stages at their smallest size
COUNTS = ("sim.commits", "sim.export_bytes", "pdnrm.demand_balance_calls", "pdnrm.epochs",
          "pdnrm.loops", "pdnrm.degraded_loops", "fluid.inner_max_calls",
          "fluid.grad_phi_evals", "projections.project_calls")


def bench(workload, seed, trace, cwd=run.ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SHORT), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def oracle_runs():
    return {trace: [result(bench("oracle", 7, trace)) for _ in range(2)] for trace in (0, 1)}


def test_output_names_every_metric_with_its_unit(spec, oracle_runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        doc = oracle_runs[trace][0]
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
        assert all(np.isfinite(v["value"]) for v in doc["metrics"].values())


def test_same_seed_repeats_counts_loss_and_slope(oracle_runs):
    (a, b), (ta, tb) = oracle_runs[0], oracle_runs[1]
    for name in ("loss_pct.pdnrm", "regret_slope"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    for name in COUNTS:
        assert ta["metrics"][name]["value"] == tb["metrics"][name]["value"], name


def test_every_end_to_end_metric_is_positive(oracle_runs):
    assert all(v["value"] > 0 for v in oracle_runs[0][0]["metrics"].values())


def small_inputs(workload, tmp_path, seed=3):
    return workloads.build_inputs(run.ROOT, workload, seed, SHORT, str(tmp_path))


SELF_TIME_SLACK = 0.01   # of the traced wall


def test_traced_self_times_add_up_to_traced_wall(tmp_path):
    inp = small_inputs("noiseless", tmp_path)
    res = workloads.Results()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter_ns()
        with tracer.root("workload"):
            workloads.run_workload(inp, res, str(tmp_path))
        wall = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    self_total = sum(tracer.layer_self_ns().values())
    assert self_total == tracer.root_ns()
    assert abs(wall - self_total) <= SELF_TIME_SLACK * wall
    shares = workloads.per_layer(tracer, res)
    assert abs(sum(v for k, v in shares.items() if k.startswith("self_pct.")) - 100) < 1e-6
    assert not res.ledger.failures


def test_uninstall_restores_every_patched_function():
    before = {name: getattr(nrmlab, name) for name in ("run_bench", "run_episode", "solve_fluid")}
    method = nrmlab.PdNrmPolicy.next_price
    tracer = tracing.Tracer()
    tracer.install()
    assert nrmlab.run_episode is not before["run_episode"]
    tracer.uninstall()
    assert all(getattr(nrmlab, n) is f for n, f in before.items())
    assert nrmlab.bench.run_episode is before["run_episode"]
    assert nrmlab.PdNrmPolicy.next_price is method
    assert "next_price" not in nrmlab.PdNrmPolicy.__dict__


class OutOfBoxPolicy(nrmlab.Policy):
    name = "broken"

    def next_price(self, period):
        return np.full(2, 1e6)

    def observe(self, period, y):
        pass


def test_failing_episode_raises_failed_count(tmp_path, monkeypatch):
    inp = small_inputs("oracle", tmp_path)
    res = workloads.Results()
    real = nrmlab.bench.build_policy

    def build(name, instance, *args, **kwargs):
        if instance.T == 1_000:
            return OutOfBoxPolicy()
        return real(name, instance, *args, **kwargs)

    monkeypatch.setattr(nrmlab.bench, "build_policy", build)
    for unit in workloads.sweep_units(inp, res):
        unit()
    failed = [f for f in res.ledger.failures if "PolicyError" in f]
    assert len(failed) == sum(plan.replications for _, plan in inp.plans)
    assert res.ledger.attempted > len(res.ledger.failures) > 0


def test_failing_certificate_raises_failed_count(tmp_path, monkeypatch):
    inp = small_inputs("oracle", tmp_path)
    res = workloads.Results()
    real = nrmlab.solve_fluid
    solves = []

    def wrong_dual(instance, *args, **kwargs):
        sol = real(instance, *args, **kwargs)
        solves.append(instance)
        return nrmlab.FluidSolution(d_star=sol.d_star, p_star=sol.p_star,
                                    lambda_star=sol.lambda_star + 1.0, value=sol.value,
                                    binding_mask=sol.binding_mask, duality_gap=1e-3)

    monkeypatch.setattr(nrmlab, "solve_fluid", wrong_dual)
    units = workloads.oracle_units(inp, res, True) + workloads.oracle_units(inp, res, False)
    for unit in units:
        unit()
    failed = [f for f in res.ledger.failures if f.startswith("certificate")]
    assert len(failed) == len(solves) > len(inp.oracle_instances)


def test_solve_that_raises_is_counted_not_fatal(tmp_path, monkeypatch):
    inp = small_inputs("oracle", tmp_path)
    res = workloads.Results()

    def outside_domain(instance, *args, **kwargs):
        raise nrmlab.DomainError("demand must be componentwise positive with sum < 1")

    monkeypatch.setattr(nrmlab, "solve_fluid", outside_domain)
    units = workloads.oracle_units(inp, res, False)
    for unit in units:
        unit()
    assert len(res.ledger.failures) == res.ledger.attempted == len(units) > 0
    assert all("DomainError" in f for f in res.ledger.failures)


def test_trace_file_check_catches_a_missing_row(tmp_path):
    inst = nrmlab.example_logit_instance(T=2_000)
    trace = nrmlab.run_episode(inst, nrmlab.build_policy("pdnrm", inst, None), 5,
                               record_periods=True)
    csv_path, events_path = str(tmp_path / "t.csv"), str(tmp_path / "e.jsonl")
    nrmlab.export_trace_csv(trace, csv_path)
    nrmlab.export_events_jsonl(trace, events_path)
    ledger = workloads.Ledger()
    assert workloads.check_trace_files(ledger, "whole", trace, csv_path, events_path)
    with open(csv_path) as fh:
        lines = fh.readlines()
    with open(csv_path, "w") as fh:
        fh.writelines(lines[:-1])
    assert not workloads.check_trace_files(ledger, "cut", trace, csv_path, events_path)
    assert ledger.attempted == 2 and len(ledger.failures) == 1


def test_same_seed_gives_same_inputs_and_family_is_valid(tmp_path):
    a, b = small_inputs("oracle", tmp_path, 11), small_inputs("oracle", tmp_path, 11)
    c = small_inputs("oracle", tmp_path, 12)
    assert [i.to_dict() for _, i in a.oracle_instances] == [i.to_dict() for _, i in b.oracle_instances]
    assert [i.to_dict() for _, i in a.oracle_instances] != [i.to_dict() for _, i in c.oracle_instances]
    assert a.oracle_instances
    for _, inst in a.oracle_instances:
        assert np.all(inst.A == np.round(inst.A)) and np.all(inst.A >= 0)
        assert np.linalg.matrix_rank(inst.A) == inst.M


def test_checkout_without_package_fails_without_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("trace", 1, 0, cwd=str(tmp_path),
                script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
