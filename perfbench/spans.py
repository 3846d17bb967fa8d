"""In-memory span tracer for the benchmark's traced run.

The tracer replaces module attributes of the program with thin wrappers, from
the benchmark's side only: each public function a workload calls, and each
name one module imports from another, at the name the caller sees (so
``unitdist.e8._max_clique_masks`` is traced where e8 calls it, while the
solver's own internal call to the same function is not). Every call becomes a
span (name, layer, start, end, parent, operation) kept in memory; per-layer
counters are folded in as each span closes. Nothing inside the program is
instrumented.

A layer is the module that defines the wrapped function. A layer's self time
is the time its spans cover minus the part their child spans cover.
"""
from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "core", "e8", "formats", "hypercube", "solve")

# (module, attribute) wrapped in the traced run. Left out on purpose:
# iter_bits and sq_dist, which are called per bit and per point pair, so a
# span around each would cost more than the work it measures.
WRAPPED = (
    ("cli", "main"),
    ("cli", "ratio_lower_bound"),
    ("e8", "build_g0"),
    ("e8", "enumerate_ball"),
    ("e8", "gosset_roots"),
    ("e8", "shipped_certificate"),
    ("e8", "initial_state"),
    ("e8", "augment_greedy"),
    ("e8", "verify_certificate"),
    # e8's per-candidate step and neighbour scan: not imports, but the only
    # boundary where an accepted point can be told from a rejected one.
    ("e8", "_alpha_after_adding"),
    ("e8", "_neighbor_mask"),
    ("e8", "graph_from_points"),
    ("e8", "induced_subgraph"),
    ("e8", "ratio_lower_bound"),
    ("e8", "_max_clique_masks"),
    ("e8", "_complement_rows"),
    ("e8", "max_independent_set"),
    ("formats", "write_certificate"),
    ("formats", "read_certificate"),
    ("formats", "parse_certificate"),
    ("hypercube", "hamming_graph"),
    ("hypercube", "half_cube"),
    ("hypercube", "slice_graph"),
    ("hypercube", "induced_subgraph"),
    ("solve", "max_independent_set"),
    ("solve", "alpha_vertex_transitive"),
    ("solve", "chromatic_number"),
    ("solve", "k_colorable"),
    ("solve", "greedy_coloring_bound"),
    ("solve", "clique_lower_bound"),
    ("solve", "induced_subgraph"),
    ("solve", "connected_components"),
    ("solve", "ratio_lower_bound"),
)

# Per-layer metrics: (name, unit, better). Every traced run prints all of
# them; a metric whose layer the workload never reaches reads 0.
PER_LAYER = (
    ("solve.mis_calls", "count", "lower"),
    ("solve.mis_nodes", "count", "lower"),
    ("solve.mis_s", "s", "lower"),
    ("solve.clique_calls", "count", "lower"),
    ("solve.clique_nodes", "count", "lower"),
    ("solve.clique_s", "s", "lower"),
    ("e8.augment_accepted", "count", "higher"),
    ("e8.augment_rejected", "count", "lower"),
    ("e8.augment_accept_s", "s", "lower"),
    ("e8.augment_reject_s", "s", "lower"),
    ("core.induced_subgraph_calls", "count", "lower"),
    ("core.induced_subgraph_s", "s", "lower"),
    ("e8.neighbor_mask_s", "s", "lower"),
    ("solve.kcolor_calls", "count", "lower"),
    ("solve.kcolor_nodes", "count", "lower"),
    ("solve.kcolor_s", "s", "lower"),
    ("solve.kcolor_decided_frac", "ratio", "higher"),
    ("solve.greedy_s", "s", "lower"),
    ("solve.budget_hits", "count", "lower"),
    ("e8.initial_state_s", "s", "lower"),
    ("e8.verify_s", "s", "lower"),
    ("core.graph_from_points_s", "s", "lower"),
    ("hypercube.build_s", "s", "lower"),
    ("e8.build_g0_s", "s", "lower"),
    ("e8.enumerate_ball_s", "s", "lower"),
    ("core.connected_components_s", "s", "lower"),
    ("formats.certificate_io_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.pass_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Span name -> (group, metric prefix). A group counts only its outermost
# span, so alpha_vertex_transitive's inner max_independent_set is one call.
_GROUPS = {
    "max_independent_set": "solve.mis",
    "alpha_vertex_transitive": "solve.mis",
    "_max_clique_masks": "solve.clique",
    "k_colorable": "solve.kcolor",
    "greedy_coloring_bound": "solve.greedy",
    "clique_lower_bound": "solve.greedy",
    "_alpha_after_adding": "e8.augment",
    "induced_subgraph": "core.induced_subgraph",
    "_neighbor_mask": "e8.neighbor_mask",
    "initial_state": "e8.initial_state",
    "verify_certificate": "e8.verify",
    "graph_from_points": "core.graph_from_points",
    "hamming_graph": "hypercube.build",
    "half_cube": "hypercube.build",
    "slice_graph": "hypercube.build",
    "build_g0": "e8.build_g0",
    "enumerate_ball": "e8.enumerate_ball",
    "connected_components": "core.connected_components",
    "write_certificate": "formats.certificate_io",
    "read_certificate": "formats.certificate_io",
    "parse_certificate": "formats.certificate_io",
}


def _observe(counts: dict, name: str, args: tuple, result, seconds: float) -> None:
    """Fold one finished outermost span of a group into the counters."""
    group = _GROUPS[name]
    counts[f"{group}_s"] += seconds
    counts[f"{group}_calls"] += 1
    if group == "solve.mis":
        counts["solve.mis_nodes"] += result.nodes_explored
        if hasattr(result, "upper_bound"):  # MisIncomplete
            counts["solve.budget_hits"] += 1
    elif group == "solve.clique":
        counts["solve.clique_nodes"] += result[2]
        if result[3] == "budget":
            counts["solve.budget_hits"] += 1
    elif group == "e8.augment":
        outcome = "accept" if result[0] == args[2] else "reject"  # args[2]: current alpha
        counts[f"e8.augment_{outcome}ed"] += 1
        counts[f"e8.augment_{outcome}_s"] += seconds
    elif group == "solve.kcolor":
        counts["solve.kcolor_nodes"] += result.nodes_explored
        if result.status == "unknown":
            counts["solve.budget_hits"] += 1
        else:
            counts["solve.kcolor_decided"] += 1


class Tracer:
    """Spans and counters of one traced run, grouped by benchmark operation."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, layer, parent, op run, start, end)
        self._ids = itertools.count()
        self._stack: list[list] = []  # open spans: [id, child_seconds]
        self._group_depth: dict[str, int] = defaultdict(int)
        self._op = self._label = ""
        self._counts: dict[str, float] = defaultdict(float)
        self.per_op: dict[str, list[dict]] = defaultdict(list)
        self._patched: list[tuple] = []

    # -- operations -------------------------------------------------------

    def begin_op(self, op: str) -> None:
        """Start one execution of an operation; its spans share one label."""
        self._op = op
        self._label = f"{op}#{len(self.per_op[op])}"
        self._counts = defaultdict(float)

    def end_op(self) -> None:
        self.per_op[self._op].append(self._counts)

    # -- wrapping ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every WRAPPED attribute that exists in this version of the package."""
        for module_name, attr in WRAPPED:
            module = getattr(package, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrap(fn, fn.__name__, layer))
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str):
        group = _GROUPS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            outermost = group is not None and self._group_depth[group] == 0
            if group is not None:
                self._group_depth[group] += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if group is not None:
                    self._group_depth[group] -= 1
                seconds = end - start
                if stack:
                    stack[-1][1] += seconds
                self._counts[f"{layer}.self_s"] += seconds - frame[1]
                self._counts["trace.spans"] += 1
                self.spans.append((span_id, name, layer, parent, self._label, start, end))
            if outermost:
                _observe(self._counts, name, args, result, seconds)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def _per_pass(self, ops) -> dict[str, float]:
        """Counters of the given operations for one pass: each operation's
        counters averaged over its executions, then summed over operations."""
        total: dict[str, float] = defaultdict(float)
        for op in ops:
            runs = self.per_op.get(op, [])
            for key in {k for counts in runs for k in counts}:
                total[key] += sum(counts.get(key, 0.0) for counts in runs) / len(runs)
        return total

    def layer_metrics(self, ops, pass_s: float) -> dict[str, float]:
        """Every PER_LAYER metric for one pass of ``ops`` plus one set-up.

        trace.* describe the timed operations only: traced pass time in
        calibrated seconds, spans, and their estimated cost (spans times the
        cost of one span). Span times are measured seconds and include the
        reference kernels of calibrate.py that interrupt them (about 4%).
        """
        timed = self._per_pass(ops)
        setup = self._per_pass(["setup"])
        values = {name: timed.get(name, 0.0) + setup.get(name, 0.0) for name, _, _ in PER_LAYER}
        calls = values["solve.kcolor_calls"]
        decided = timed.get("solve.kcolor_decided", 0.0) + setup.get("solve.kcolor_decided", 0.0)
        values["solve.kcolor_decided_frac"] = decided / calls if calls else 0.0
        values["trace.pass_s"] = pass_s
        values["trace.spans"] = timed.get("trace.spans", 0.0)
        values["trace.overhead_s"] = values["trace.spans"] * span_cost()
        return values

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "layer", "parent", "op", "start", "end")
        with path.open("w", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a function that does nothing."""

    def nothing():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(nothing, "nothing", "bench")
    tracer.begin_op("calibrate")
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        nothing()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        wrapped()
    traced = clock() - start
    return max(traced - bare, 0.0) / calls
