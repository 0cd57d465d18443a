"""Span tracer that wraps nrmlab's public functions from outside the package.

A wrapped call records a span: name, layer, start, end, parent span and the
identifier of the episode or solve it belongs to. Spans stay in memory until
the run ends. Functions called thousands of times per episode or solve are
aggregated per name (calls, inclusive and self time) instead of spanned, and
``grad_revenue_phi`` as called by the fluid oracle is only counted, because
even an aggregating wrapper would double its cost.

Self time is a call's duration minus the time of the wrapped calls it made,
so the self times of all layers add up to the root span's duration.

Functions are patched on every nrmlab module that binds them (``bench`` binds
``run_episode`` and ``solve_fluid`` by name, ``fluid`` binds the projection
helpers), and policy methods are patched on the policy classes.
"""

import contextlib
import json
import time
from collections import defaultdict

import nrmlab
from nrmlab import baselines, bench, demand, fluid, pdnrm, projections, sim

# (module defining the function, name, layer, mode). mode "span" records one
# span per call, "agg" aggregates per name; "group" spans start a new
# episode/solve identifier.
FUNCTIONS = (
    (bench, "run_bench", "bench", "span"),
    (sim, "run_episode", "sim", "group"),
    (sim, "export_trace_csv", "sim", "span"),
    (sim, "export_events_jsonl", "sim", "span"),
    (pdnrm, "demand_balance", "pdnrm", "agg"),
    (pdnrm, "grad_est", "pdnrm", "span"),
    (pdnrm, "primal_opt", "pdnrm", "span"),
    (fluid, "solve_fluid", "fluid", "group"),
    (fluid, "default_dual_set", "fluid", "span"),
    (fluid, "solve_inner_max", "fluid", "agg"),
    (projections, "project_polytope", "projections", "agg"),
    (projections, "feasible_point", "projections", "agg"),
    (demand, "estimate_regularity", "demand", "span"),
)
POLICY_CLASSES = (
    (pdnrm.PdNrmPolicy, "pdnrm"),
    (baselines.ClairvoyantPolicy, "baselines"),
    (baselines.ExploreThenCommitPolicy, "baselines"),
)
POLICY_METHODS = ("next_price", "hold", "observe", "observe_block")
COUNTED = ((fluid, "grad_revenue_phi", "fluid.grad_phi_evals"),)
MODULES = (nrmlab, baselines, bench, demand, fluid, pdnrm, projections, sim)
ROOT_LAYER = "perfbench"
LAYERS = ("sim", "pdnrm", "baselines", "fluid", "projections", "demand", "bench", ROOT_LAYER)


def _span_name(name, args, kwargs):
    """Qualify names whose cost depends on the argument: recorded episodes
    and the oracle's problem size."""
    if name == "run_episode" and kwargs.get("record_periods", args[3] if len(args) > 3 else False):
        return "run_episode[recorded]"
    if name == "solve_fluid":
        return f"solve_fluid[n{args[0].N}]"
    return name


class Tracer:
    """Install with ``install()``, run the workload inside ``root(name)``,
    then ``uninstall()``. Not thread-safe: one tracer per process."""

    def __init__(self):
        self.spans = []                      # dicts, in completion order
        self.aggregates = defaultdict(lambda: [0, 0, 0])   # name -> calls, incl ns, self ns
        self.layer_of = {}
        self.counts = defaultdict(int)
        self.episode_events = []             # (policy name, T, events) per unrecorded episode
        self._stack = []                     # [span id, child ns, group id]
        self._next_id = 0
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        for module, name, layer, mode in FUNCTIONS:
            self._patch_everywhere(getattr(module, name), self._wrap(getattr(module, name),
                                                                     name, layer, mode))
        for cls, layer in POLICY_CLASSES:
            for method in POLICY_METHODS:
                original = getattr(cls, method)
                wrapped = self._wrap(original, f"{cls.name}.{method}", layer, "agg")
                self._patches.append((cls, method, cls.__dict__.get(method)))
                setattr(cls, method, wrapped)
        for module, name, counter in COUNTED:
            original = getattr(module, name)
            self._patches.append((module, name, original))
            setattr(module, name, self._count(original, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _patch_everywhere(self, original, wrapped):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    # -- wrappers -----------------------------------------------------------

    def _count(self, fn, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, name, layer, mode):
        tracer = self

        def wrapped(*args, **kwargs):
            label = _span_name(name, args, kwargs)
            tracer.layer_of[label] = layer
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            group = span_id if mode == "group" or parent is None else parent[2]
            frame = [span_id, 0, group]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self_ns = duration - frame[1]
                if mode == "agg":
                    agg = tracer.aggregates[label]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += self_ns
                else:
                    tracer.spans.append({
                        "id": span_id, "parent": parent[0] if parent else None,
                        "group": group, "name": label, "layer": layer,
                        "start_ns": start, "end_ns": end, "self_ns": self_ns,
                    })
            if label == "run_episode":
                tracer.episode_events.append((result.policy_name, result.T, result.events))
            return result

        return wrapped

    @contextlib.contextmanager
    def root(self, name):
        """The workload's root span, opened by hand around a block; the
        benchmark's own code between layer calls is its self time."""
        frame = [self._next_id, 0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.layer_of[name] = ROOT_LAYER
            self.spans.append({"id": frame[0], "parent": None, "group": frame[2], "name": name,
                               "layer": ROOT_LAYER, "start_ns": start, "end_ns": end,
                               "self_ns": end - start - frame[1]})

    # -- reduction ----------------------------------------------------------

    def wrapped_calls(self) -> int:
        return len(self.spans) + sum(a[0] for a in self.aggregates.values())

    def totals(self) -> dict:
        """name -> (calls, inclusive ns, self ns) over spans and aggregates."""
        out = defaultdict(lambda: [0, 0, 0])
        for span in self.spans:
            t = out[span["name"]]
            t[0] += 1
            t[1] += span["end_ns"] - span["start_ns"]
            t[2] += span["self_ns"]
        for name, (calls, incl, self_ns) in self.aggregates.items():
            t = out[name]
            t[0] += calls
            t[1] += incl
            t[2] += self_ns
        return out

    def layer_self_ns(self) -> dict:
        layers = defaultdict(int)
        for name, (_, _, self_ns) in self.totals().items():
            layers[self.layer_of[name]] += self_ns
        return dict(layers)

    def root_ns(self) -> int:
        roots = [s for s in self.spans if s["parent"] is None]
        return sum(s["end_ns"] - s["start_ns"] for s in roots)

    def durations_ms(self, name) -> list:
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name, (calls, incl, self_ns) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": name, "layer": self.layer_of[name],
                                     "calls": calls, "incl_ns": incl, "self_ns": self_ns}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def wrapper_cost_ns(calls: int = 100_000) -> float:
    """Added cost of one aggregated wrapped call, timed on a no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "noop", ROOT_LAYER, "agg")
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter_ns()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
