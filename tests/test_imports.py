"""`import nrmlab` loads numpy and light standard-library modules only.
scipy.optimize is imported by the calls that solve (the fluid oracle and ETC's
mixture LP), so a process that never solves never loads it. Each check runs
in a fresh interpreter: this test process imported scipy long ago."""

import glob
import inspect
import json
import os
import re
import subprocess
import sys

import nrmlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nrmlab.__file__)))
INSTANCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "configs", "instance_logit.json")
HEAVY = ("scipy", "concurrent.futures", "subprocess")
LOADED = f"[m for m in {HEAVY!r} if m in sys.modules]"


def fresh(body: str):
    """Run body in a new interpreter that imports this checkout's nrmlab and
    return the JSON value it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    code = "import contextlib, io, json, sys\nimport nrmlab\n" + body
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def cli_body(argv) -> str:
    """Child code: run the CLI on argv, muted, then print [exit code, loaded]."""
    return (f"from nrmlab.cli import cli_main\n"
            f"with contextlib.redirect_stdout(io.StringIO()), "
            f"contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = cli_main({argv!r})\n"
            f"print(json.dumps([code, {LOADED}]))\n")


def test_import_loads_no_solver_or_process_machinery():
    assert fresh(f"print(json.dumps({LOADED}))") == []


def test_constants_command_loads_no_scipy():
    assert fresh(cli_body(["constants", INSTANCE, "--mode", "tuned"])) == [0, []]


def test_malformed_plan_exits_2_without_scipy(tmp_path):
    plan = tmp_path / "bad_plan.json"
    plan.write_text(json.dumps({"instance": INSTANCE, "T_grid": [1000], "replications": 1,
                                "base_seed": 1, "pdnrm_config": {"eta2": "5"}}))
    assert fresh(cli_body(["bench", str(plan)])) == [2, []]


def test_pdnrm_episode_and_trace_export_load_no_scipy(tmp_path):
    assert fresh(
        f"inst = nrmlab.example_logit_instance(T=10_000)\n"
        f"trace = nrmlab.run_episode(inst, nrmlab.PdNrmPolicy(inst), seed=1, record_periods=True)\n"
        f"nrmlab.export_trace_csv(trace, {str(tmp_path / 't.csv')!r})\n"
        f"nrmlab.export_events_jsonl(trace, {str(tmp_path / 'e.jsonl')!r})\n"
        f"print(json.dumps({LOADED}))\n") == []


def test_first_solve_loads_scipy_and_certifies():
    before, after, gap = fresh(
        f"before = {LOADED}\n"
        f"sol = nrmlab.solve_fluid(nrmlab.load_instance({INSTANCE!r}))\n"
        f"print(json.dumps([before, 'scipy.optimize' in sys.modules, sol.duality_gap]))\n")
    assert before == [] and after
    assert abs(gap) <= 1e-5


def test_every_export_has_a_user():
    """Each public name that nrmlab exports, modules aside, is named as a whole
    word by the README, a study, perfbench or CI; a name that only tests use is
    imported from its module."""
    root = os.path.dirname(SRC)
    paths = [os.path.join(root, "README.md")] + [
        path for pattern in ("studies/*.py", "perfbench/*.py", ".github/workflows/*.yml")
        for path in glob.glob(os.path.join(root, pattern))]
    text = "\n".join(open(path).read() for path in paths)
    unused = [name for name, value in vars(nrmlab).items()
              if not name.startswith("_") and not inspect.ismodule(value)
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
