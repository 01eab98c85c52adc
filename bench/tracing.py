"""Span recording around pliersim's public functions, from outside the package.

A traced child process calls :func:`install`, which replaces each name in
:data:`TARGETS` with a wrapper that records one span per call: name, start,
end and the index of the enclosing span. Each wrapper is installed on the
name the caller actually looks up (a module global of the calling module,
or a method on the class), so nothing inside ``pliersim`` changes. The
spans stay in memory and are written out once, at the end of the child;
:func:`layer_metrics` turns the file back into per-layer numbers.

The program is single-threaded, so spans nest strictly and one stack gives
every span its parent.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from typing import Callable

# (module of pliersim, class or None, attribute, span name). A name that two
# modules import from a third is listed once per module that calls it.
TARGETS = (
    ("traces", None, "parse_contacts", "traces.parse_contacts"),
    ("traces", None, "parse_contents", "traces.parse_contents"),
    ("traces", None, "metrics_csv_text", "traces.metrics_csv_text"),
    ("traces", None, "correlation_for_run", "traces.correlation_for_run"),
    ("graph", None, "load_graph_tsv", "graph.load_graph_tsv"),
    ("graph", "FolksonomyGraph", "merge", "graph.merge"),
    ("graph", "FolksonomyGraph", "add_content", "graph.add_content"),
    ("graph", "FolksonomyGraph", "flatten", "graph.flatten"),
    ("graph", "FolksonomyGraph", "copy", "graph.copy"),
    ("simulator", "Simulation", "encounter", "simulator.encounter"),
    ("simulator", None, "compute_step_metrics", "simulator.compute_step_metrics"),
    ("simulator", None, "pliers_tripartite", "recommend.pliers_tripartite"),
    ("simulator", None, "rank", "recommend.rank"),
    ("simulator", None, "jaccard", "evaluation.jaccard"),
    ("simulator", None, "spearman_similarity", "evaluation.spearman_similarity"),
    ("recommend", None, "pliers_tripartite", "recommend.pliers_tripartite"),
    ("recommend", None, "probs_scores", "recommend.probs_scores"),
    ("recommend", None, "heats_scores", "recommend.heats_scores"),
    ("recommend", None, "hybrid_scores", "recommend.hybrid_scores"),
    ("recommend", None, "cf_user_based", "recommend.cf_user_based"),
    ("recommend", None, "tag_expansion", "recommend.tag_expansion"),
    ("recommend", None, "tag_cooccurrence", "recommend.tag_cooccurrence"),
    ("evaluation", None, "rank", "recommend.rank"),
    ("evaluation", None, "prune_for_link_prediction", "evaluation.prune_for_link_prediction"),
    ("evaluation", None, "evaluate_on_pruned", "evaluation.evaluate_on_pruned"),
)


def _edge_count(graph) -> int:
    return len(graph.user_item_edges) + len(graph.item_tag_edges)


def _merge_leave(tracer: "Tracer", args, result, edges_before) -> None:
    if _edge_count(args[0]) == edges_before:
        tracer.count("graph.merge.noop")


def _encounter_leave(tracer: "Tracer", args, result, _state) -> None:
    new_a, new_b = result
    tracer.count("simulator.encounter.new_items", len(new_a) + len(new_b))


# span name -> (enter, leave): counters taken outside the span's own interval
PROBES = {
    "graph.merge": (lambda args: _edge_count(args[0]), _merge_leave),
    "simulator.encounter": (lambda args: None, _encounter_leave),
}


class Tracer:
    """In-memory span list ``[name, start, end, parent]`` plus counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn: Callable, name: str, probe=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            state = probe[0](args) if probe else None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe:
                probe[1](self, args, result, state)
            return result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[ids[n], b, e, p] for n, b, e, p in self.spans],
            "counters": self.counters,
            "absent": self.absent,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every name in TARGETS that exists; record the missing ones.

    A public function that a later change removes (``merge``, say) is
    reported as absent instead of failing the traced run.
    """
    for module_name, class_name, attr, span_name in TARGETS:
        owner = importlib.import_module(f"pliersim.{module_name}")
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            tracer.absent.append(span_name)
            continue
        setattr(owner, attr, tracer.wrap(fn, span_name, PROBES.get(span_name)))


# ----------------------------------------------------------------------
# from spans to per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (single thread), so their summed
    durations are exactly the part of the parent's interval they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# metric name -> unit, in report order; every traced run reports all of them
PER_LAYER_UNITS = {
    "traces.parse_contacts.s": "s",
    "traces.parse_contents.s": "s",
    "traces.metrics_csv_text.s": "s",
    "traces.correlation_for_run.s": "s",
    "graph.merge.calls": "count",
    "graph.merge.self_s": "s",
    "graph.merge.noop_ratio": "1",
    "graph.add_content.calls": "count",
    "graph.add_content.self_s": "s",
    "graph.flatten.calls": "count",
    "graph.flatten.self_s": "s",
    "graph.load_graph_tsv.s": "s",
    "graph.copy.self_s": "s",
    "graph.lkg_edges_end": "count",
    "graph.distinct_lkgs_end": "count",
    "simulator.encounter.calls": "count",
    "simulator.encounter.self_s": "s",
    "simulator.encounter.new_items": "count",
    "simulator.discovery_scoring.calls": "count",
    "simulator.discovery_scoring.self_s": "s",
    "simulator.compute_step_metrics.calls": "count",
    "simulator.compute_step_metrics.s": "s",
    "simulator.compute_step_metrics.self_s": "s",
    "simulator.compute_step_metrics.p50_ms": "ms",
    "simulator.compute_step_metrics.p99_ms": "ms",
    "recommend.pliers_tripartite.calls": "count",
    "recommend.pliers_tripartite.self_s": "s",
    "recommend.pliers_tripartite.p50_ms": "ms",
    "recommend.pliers_tripartite.p99_ms": "ms",
    "recommend.probs_scores.self_s": "s",
    "recommend.heats_scores.self_s": "s",
    "recommend.hybrid_scores.self_s": "s",
    "recommend.cf_user_based.self_s": "s",
    "recommend.tag_expansion.self_s": "s",
    "recommend.tag_cooccurrence.calls": "count",
    "recommend.cooc_cache_hit_ratio": "1",
    "recommend.rank.calls": "count",
    "recommend.rank.self_s": "s",
    "evaluation.jaccard.calls": "count",
    "evaluation.jaccard.self_s": "s",
    "evaluation.spearman_similarity.calls": "count",
    "evaluation.spearman_similarity.self_s": "s",
    "evaluation.prune_for_link_prediction.s": "s",
    "evaluation.evaluate_on_pruned.s": "s",
    "synth.inputs_gen_s": "s",
    "trace.run_s": "s",
    "trace.overhead_ratio": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child from its written-out trace.

    Metrics that need ``inputs_gen_s`` or the untraced run are filled in by
    the caller. A metric whose function was absent reads 0; the absent
    names are in ``trace["absent"]``.
    """
    names = trace["names"]
    spans = [[names[n], b, e, p] for n, b, e, p in trace["spans"]]
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    discovery_calls, discovery_self = 0, 0.0
    for (name, start, end, parent), own_s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own_s
        durations.setdefault(name, []).append(end - start)
        if (
            name == "recommend.pliers_tripartite"
            and parent >= 0
            and spans[parent][0] == "simulator.encounter"
        ):
            discovery_calls += 1
            discovery_self += own_s
    counters = trace["counters"]

    out = {m: 0.0 for m in PER_LAYER_UNITS}
    for metric in out:
        span_name, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = float(calls.get(span_name, 0))
        elif kind == "self_s":
            out[metric] = self_s.get(span_name, 0.0)
        elif kind == "s":
            out[metric] = total.get(span_name, 0.0)
        elif kind in ("p50_ms", "p99_ms"):
            q = 50.0 if kind == "p50_ms" else 99.0
            out[metric] = 1000.0 * _percentile(durations.get(span_name, []), q)
    new_items = counters.get("simulator.encounter.new_items", 0)
    out["graph.merge.noop_ratio"] = _ratio(
        counters.get("graph.merge.noop", 0), calls.get("graph.merge", 0)
    )
    out["simulator.encounter.new_items"] = float(new_items)
    out["simulator.discovery_scoring.calls"] = float(discovery_calls)
    out["simulator.discovery_scoring.self_s"] = discovery_self
    expansions = calls.get("recommend.tag_expansion", 0)
    out["recommend.cooc_cache_hit_ratio"] = (
        1.0 - _ratio(calls.get("recommend.tag_cooccurrence", 0), expansions)
        if expansions
        else 0.0
    )
    for key in ("graph.lkg_edges_end", "graph.distinct_lkgs_end"):
        out[key] = float(trace.get(key, 0))
    out["trace.run_s"] = trace["run_s"]
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {m: statistics.median(r[m] for r in runs) for m in runs[0]}
