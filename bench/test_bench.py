"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import child  # noqa: E402
import spotcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pliersim import evaluation, graph, recommend, synth, traces  # noqa: E402
from pliersim.graph import FolksonomyGraph  # noqa: E402
from pliersim.recommend import RecommendationVector  # noqa: E402

TINY_CONFIG = "step_length_s = 60\nmetric_cadence = 1\ndownload_policy = percentile_threshold\n"
TINY_WINDOWS = [None, 300]


@pytest.fixture
def tiny_replay(tmp_path):
    workloads.replay_inputs(tmp_path, 1, 12, 3, 1200, 1200, TINY_CONFIG, TINY_WINDOWS)
    return tmp_path


@pytest.fixture
def tiny_linkpred(tmp_path):
    graph.save_graph_tsv(synth.generate_folksonomy(60, 120, 40, 0), tmp_path / "graph.tsv")
    return tmp_path, {"prune_seed": 0, "k": 10, "lambda": 0.5}


@pytest.fixture
def restore_targets(monkeypatch):
    """Let tracing.install patch pliersim, and undo it after the test."""
    for module_name, class_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"pliersim.{module_name}")
        if class_name is not None:
            owner = getattr(owner, class_name)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    return monkeypatch


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def test_self_time_of_a_nested_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.5, 1],
        ["b", 5.0, 9.0, 0],
        ["b.inner", 6.0, 6.5, 3],
        ["b.inner", 7.0, 8.0, 3],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 2.5, 0.5, 1.0])


def test_wrappers_record_parents_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "recommend.pliers_tripartite")
    outer = tracer.wrap(lambda: (inner(), inner()), "simulator.encounter")
    outer()
    inner()
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    names = sorted({s[0] for s in tracer.spans})
    trace = {
        "names": names,
        "spans": [[names.index(n), b, e, p] for n, b, e, p in tracer.spans],
        "counters": {},
        "run_s": 1.0,
    }
    metrics = tracing.layer_metrics(trace)
    # outer spans ticks 0..5 and covers two 1-tick children
    assert metrics["simulator.encounter.self_s"] == 3.0
    assert metrics["simulator.discovery_scoring.calls"] == 2
    assert metrics["recommend.pliers_tripartite.calls"] == 3


def test_traced_replay_counts_merges(tiny_replay, restore_targets, tmp_path):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    params = {"windows": TINY_WINDOWS}
    _, extra = child.replay(tiny_replay, params, tracer)
    tracer.dump(tmp_path / "trace.json", {"run_s": extra["t_done"] - extra["t_ready"]})
    metrics = tracing.layer_metrics(json.loads((tmp_path / "trace.json").read_text()))
    assert tracer.absent == []
    assert metrics["graph.merge.calls"] == 2 * metrics["simulator.encounter.calls"] > 0
    assert 0.0 < metrics["graph.merge.noop_ratio"] < 1.0
    assert metrics["simulator.compute_step_metrics.calls"] == 2 * 20
    assert metrics["simulator.discovery_scoring.calls"] > 0
    assert metrics["graph.merge.self_s"] <= metrics["trace.run_s"]


def test_absent_function_is_reported_not_fatal(restore_targets, tmp_path):
    restore_targets.delattr(FolksonomyGraph, "merge")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert tracer.absent == ["graph.merge"]
    evaluation.prune_for_link_prediction(synth.generate_folksonomy(30, 40, 10, 0), 0)
    tracer.dump(tmp_path / "trace.json", {"run_s": 1.0})
    metrics = tracing.layer_metrics(json.loads((tmp_path / "trace.json").read_text()))
    assert metrics["graph.merge.calls"] == 0
    assert metrics["graph.copy.self_s"] > 0


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def test_compare_counts_changed_and_missing_operations():
    reference = {"rows:None": ["a", "b", "c"], "policies": ["x"]}
    produced = {"rows:None": ["a", "B"], "extra": ["y"]}
    assert run.compare(reference, produced) == (5, 4)
    assert run.compare(reference, reference) == (4, 0)


def test_tampered_metrics_row_is_a_failure(tiny_replay, monkeypatch):
    params = {"windows": TINY_WINDOWS}
    reference, _ = child.replay(tiny_replay, params, None)
    real = traces.metrics_csv_text
    calls = []

    def one_row_off(rows):
        calls.append(1)
        if len(calls) == 1:
            last = dataclasses.replace(rows[-1], avg_graph_jaccard=rows[-1].avg_graph_jaccard / 2)
            rows = [*rows[:-1], last]
        return real(rows)

    monkeypatch.setattr(traces, "metrics_csv_text", one_row_off)
    produced, _ = child.replay(tiny_replay, params, None)
    attempted, failed = run.compare(reference, produced)
    assert failed == 1 and attempted == sum(map(len, reference.values()))
    assert produced["rows:None"][-1] != reference["rows:None"][-1]


def test_tampered_ranked_list_is_a_failure(tiny_linkpred, monkeypatch):
    d, params = tiny_linkpred
    reference, _ = child.linkpred(d, params, 0, 0)
    real = evaluation.rank
    calls = []

    def first_list_reversed(*args, **kwargs):
        rec = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            assert len(rec.ranked) > 1
            return RecommendationVector(rec.target, rec.ranked[::-1])
        return rec

    monkeypatch.setattr(evaluation, "rank", first_list_reversed)
    produced, _ = child.linkpred(d, params, 0, 0)
    _, failed = run.compare(reference, produced)
    assert failed >= 1
    assert produced["lists:pliers"][0] != reference["lists:pliers"][0]
    assert produced["lists:pliers"][1:] == reference["lists:pliers"][1:]


def test_tampered_input_file_stops_the_benchmark(monkeypatch):
    real = workloads.GENERATORS["gossip"]

    def one_more_content(d, seed):
        real(d, seed)
        with open(d / "contents.csv", "a", encoding="utf-8") as fh:
            fh.write("899,a0001,i99999,t0001\n")

    monkeypatch.setitem(workloads.GENERATORS, "gossip", one_more_content)
    with pytest.raises(run.BenchError, match="differ from the recorded"):
        run.run_workload("gossip", 0, 1, False)


def test_changed_policy_state_is_a_failure():
    reference = run.load_reference("gossip", 0)["policy"]
    inputs, _, _ = run.make_inputs("gossip", 0)
    states = reference["policies"]
    agent, observed, downloaded = states[0].split(":")
    changed = {**reference, "policies": [f"{agent}:{observed}:{int(downloaded) + 1}", *states[1:]]}
    assert run.check_policy("gossip", inputs, reference, 60) == (sum(map(len, reference.values())), 0)
    assert run.check_policy("gossip", inputs, changed, 60)[1] == 1


# ----------------------------------------------------------------------
# oracle spot check
# ----------------------------------------------------------------------

def _random_graph(rng: random.Random) -> FolksonomyGraph:
    users = [f"u{i}" for i in range(rng.randint(3, 8))]
    tags = [f"t{i}" for i in range(rng.randint(2, 6))]
    g = FolksonomyGraph()
    for idx in range(rng.randint(4, 12)):
        item_tags = rng.sample(tags, rng.randint(1, min(3, len(tags))))
        for u in users:
            if u == users[idx % len(users)] or rng.random() < 0.3:
                g.add_content(u, f"i{idx}", item_tags, idx)
    return g


def test_oracle_views_keep_every_sampled_score():
    oracles = spotcheck.load_oracles()
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        g = _random_graph(rng)
        target = rng.choice(sorted(g.users))
        others = sorted(set(g.items) - g.items_of_user(target))
        if not others:
            continue
        candidates = rng.sample(others, min(3, len(others)))
        full_a = oracles.pliers_oracle(g, target)
        full_s = oracles.similarity_oracle(g, target)
        view_a = oracles.pliers_oracle(spotcheck.affinity_view(g, target, candidates), target)
        view_s = oracles.similarity_oracle(spotcheck.similarity_view(g, target), target)
        for j in candidates:
            assert view_a[j] == pytest.approx(full_a[j], abs=1e-12)
            assert view_s.get(j, 0.0) == pytest.approx(full_s[j], abs=1e-12)
            checked += 1
    assert checked > 100


def test_spot_check_flags_a_wrong_score():
    g = synth.generate_folksonomy(40, 60, 20, 1)
    pruned, removal = evaluation.prune_for_link_prediction(g, 1)
    user = sorted(removal.removals)[0]
    ranked = recommend.rank(recommend.pliers_tripartite(pruned, user, 0.5), pruned).ranked
    removed = removal.removals[user]
    assert spotcheck.check_user(pruned, user, ranked, removed, 0.5, 0) <= spotcheck.TOLERANCE
    wrong = [(ranked[0][0], ranked[0][1] * 1.001), *ranked[1:]]
    assert spotcheck.check_user(pruned, user, wrong, removed, 0.5, 0) > spotcheck.TOLERANCE


# ----------------------------------------------------------------------
# the contract with BENCHMARK.json
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_contract(trace, capsys):
    assert run.main(["--workload", "gossip", "--seed", "9", "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    children = json.loads((run.WORK / "gossip" / "result.json").read_text())["children"]
    assert all(c["run_rel"] == c["run_s"] / c["ref_s"] > 0 for c in children)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
