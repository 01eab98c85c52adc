"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy criteria
(static-scenario replication, gossip convergence, expiry sweep) take a
couple of minutes in total; every tolerance is pinned in the assertions.
"""

import hashlib
import random
import time

import pytest

from pliersim import cli
from pliersim.evaluation import (
    evaluate_on_pruned,
    jaccard,
    precision,
    prune_for_link_prediction,
    recall,
    spearman_similarity,
)
from pliersim.graph import save_graph_tsv
from pliersim.recommend import (
    affinity_scores,
    heats_scores,
    hybrid_scores,
    pliers_tripartite,
    probs_scores,
    rank,
    similarity_scores,
)
from pliersim.simulator import (
    ContactEvent,
    ContentEvent,
    SimConfig,
    Simulation,
    agent_name,
    generate_synthetic_contacts,
    run,
)
from pliersim.synth import generate_folksonomy
from pliersim.traces import write_contacts, write_contents

from conftest import build_random_graph, random_target
from oracles import heats_oracle, pliers_oracle, probs_oracle, similarity_oracle


def report(criterion: int, name: str) -> None:
    print(f"\n[acceptance] criterion {criterion} ({name}): PASS")


# ----------------------------------------------------------------------
# shared random-graph corpus (criteria 1 and 2)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260810)
    graphs = []
    for n in range(1000):
        if n % 10 == 0:
            g = build_random_graph(
                rng, 20, 20, 15, min_users=20, min_items=20, min_tags=15
            )
        else:
            g = build_random_graph(rng, 20, 20, 15)
        graphs.append((g, random_target(rng, g)))
    return graphs


def test_criterion_1_oracle_equivalence(corpus):
    started = time.time()
    pairs = [
        (probs_scores, probs_oracle),
        (heats_scores, heats_oracle),
        (affinity_scores, pliers_oracle),
        (similarity_scores, similarity_oracle),
    ]
    worst = 0.0
    for graph, target in corpus:
        for impl, oracle in pairs:
            got = impl(graph, target).scores
            want = oracle(graph, target)
            assert got.keys() == want.keys()
            for item, expected in want.items():
                worst = max(worst, abs(got[item] - expected))
    elapsed = time.time() - started
    assert worst <= 1e-9, f"max deviation {worst}"
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
    report(1, f"oracle equivalence, max|delta|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_conservation_and_bounds(corpus):
    for graph, target in corpus:
        probs = probs_scores(graph, target).scores
        mass = sum(probs.values())
        assert abs(mass - len(graph.items_of_user(target))) <= 1e-12
        pliers = affinity_scores(graph, target).scores
        for item, value in pliers.items():
            assert -1e-15 <= value <= probs[item] + 1e-12
    report(2, "mass conservation and popularity-matched bound")


def test_criterion_3_endpoint_invariance():
    rng = random.Random(3)
    for _ in range(100):
        graph = build_random_graph(rng, 12, 12, 8)
        target = random_target(rng, graph)
        assert (
            rank(hybrid_scores(graph, target, 1.0), graph).item_keys()
            == rank(probs_scores(graph, target), graph).item_keys()
        )
        assert (
            rank(hybrid_scores(graph, target, 0.0), graph).item_keys()
            == rank(heats_scores(graph, target), graph).item_keys()
        )
        assert (
            pliers_tripartite(graph, target, 1.0).scores
            == affinity_scores(graph, target).scores
        )
        assert (
            pliers_tripartite(graph, target, 0.0).scores
            == similarity_scores(graph, target).scores
        )
    report(3, "endpoint rankings and elementwise endpoints")


def test_criterion_4_static_scenario_ordering():
    started = time.time()
    seeds = range(10)
    names = ["pliers"] + [f"cf{k}" for k in (5, 10, 20)] + [
        f"tagexp{k}" for k in (5, 10, 20)
    ]
    totals = {name: [0.0, 0.0] for name in names}
    for seed in seeds:
        graph = generate_folksonomy(500, 800, 300, seed)
        pruned, removal = prune_for_link_prediction(graph, seed)
        assert len(removal.removals) >= 200
        scorers = {"pliers": cli.make_scorer("pliers", 1, 0.5)}
        for k in (5, 10, 20):
            scorers[f"cf{k}"] = cli.make_scorer("cf", k, 0.5)
            scorers[f"tagexp{k}"] = cli.make_scorer("tagexp", k, 0.5)
        for name, scorer in scorers.items():
            rep = evaluate_on_pruned(pruned, removal, scorer)
            totals[name][0] += rep.precision / 10
            totals[name][1] += rep.recall / 10
    elapsed = time.time() - started
    p_pliers, r_pliers = totals["pliers"]
    for name in names[1:]:
        p, r = totals[name]
        assert p_pliers > p, f"precision: pliers {p_pliers:.4f} !> {name} {p:.4f}"
        assert r_pliers > r, f"recall: pliers {r_pliers:.4f} !> {name} {r:.4f}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    margin_p = min(p_pliers - totals[n][0] for n in names[1:])
    margin_r = min(r_pliers - totals[n][1] for n in names[1:])
    report(
        4,
        f"pliers P={p_pliers:.4f} R={r_pliers:.4f} beats all baselines "
        f"(margins {margin_p:.4f}/{margin_r:.4f}), {elapsed:.0f}s",
    )


def _poisson_contents(rng, n_agents, until, mean_gap_s=30.0, n_tags=40):
    events = []
    t, idx = 0.0, 0
    while True:
        t += rng.expovariate(1.0 / mean_gap_s)
        if t >= until:
            return events
        tags = tuple({f"t{rng.randrange(n_tags):03d}" for _ in range(rng.randint(1, 3))})
        events.append(
            ContentEvent(int(t), agent_name(rng.randrange(n_agents)), f"i{idx:05d}", tags)
        )
        idx += 1


def test_criterion_5_gossip_convergence_shape():
    started = time.time()
    duration = 4 * 3600
    contacts = generate_synthetic_contacts(250, 60, 0.1, duration, 42)
    contents = _poisson_contents(random.Random(7), 250, duration / 2)
    metrics = run(SimConfig(metric_cadence=10), contacts, contents)

    last_content_step = max(ev.time for ev in contents) // 60
    tail = [m.avg_graph_jaccard for m in metrics if m.step > last_content_step]
    assert len(tail) >= 8
    assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:])), "tail not monotone"

    mid_step = duration // 60 // 2
    mid_values = [m.avg_graph_jaccard for m in metrics if m.step <= mid_step]
    assert mid_values[-1] >= 0.7, f"mid-run similarity {mid_values[-1]:.3f} < 0.7"

    quarter = [m.avg_graph_jaccard for m in metrics if m.step >= duration // 60 * 3 // 4]
    assert max(quarter) - min(quarter) <= 0.02, "no plateau"

    # complete mixing: full pairwise contact every step
    import itertools

    agents = [agent_name(i) for i in range(12)]
    mix_contents = [
        ContentEvent(0, agents[0], "m1", ("t1",)),
        ContentEvent(65, agents[5], "m2", ("t2",)),
    ]
    mix_contacts = [
        ContactEvent(step * 60, a, b)
        for step in range(6)
        for a, b in itertools.combinations(agents, 2)
    ]
    mix = run(SimConfig(), mix_contacts, mix_contents)
    last_content = max(ev.time for ev in mix_contents) // 60
    for m in mix:
        if m.step >= last_content + 1:
            assert m.avg_graph_jaccard == 1.0
    elapsed = time.time() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(
        5,
        f"convergence: mid-run {mid_values[-1]:.3f} >= 0.7, monotone static tail, "
        f"plateau, complete mixing hits 1.0, {elapsed:.0f}s",
    )


def test_criterion_6_expiry_windows():
    started = time.time()
    duration = 2 * 3600
    windows = [None, duration, duration // 2, duration // 4, duration // 8]
    steady: dict[int | None, list[float]] = {w: [] for w in windows}
    for seed in range(5):
        contacts = generate_synthetic_contacts(250, 60, 0.1, duration, 100 + seed)
        contents = _poisson_contents(random.Random(seed), 250, duration)
        sim = Simulation(SimConfig(metric_cadence=20))
        rows = sim.run_windows(contacts, contents, windows)
        assert rows[duration] == rows[None], "covering window differs from no expiry"
        for w in windows:
            values = [m.avg_graph_jaccard for m in rows[w] if m.step >= 90]
            steady[w].append(sum(values) / len(values))
    means = {w: sum(v) / len(v) for w, v in steady.items()}
    order = [means[None], means[duration // 2], means[duration // 4], means[duration // 8]]
    assert all(a >= b - 1e-9 for a, b in zip(order, order[1:])), (
        "shrinking window increased steady-state similarity: "
        + str([round(v, 4) for v in order])
    )
    elapsed = time.time() - started
    report(
        6,
        "expiry: covering window exact, steady-state "
        + " >= ".join(f"{v:.3f}" for v in order)
        + f", {elapsed:.0f}s",
    )


def test_criterion_7_metric_identities():
    assert jaccard({"a", "b"}, {"a", "b"}) == 1.0
    assert spearman_similarity(["a", "b"], ["a", "b"], "corrected") == 1.0
    assert spearman_similarity(["a"], ["b"], "corrected") == 0.0
    assert spearman_similarity(["a", "b"], ["b", "a"], "corrected") == 0.5
    # the literal formula rates disjoint lists as identical; kept as documented
    assert spearman_similarity(["a"], ["b"], "literal") == 1.0
    assert spearman_similarity(["a", "b"], ["b", "a"], "literal") == 0.0
    assert precision({"u1": ["a"]}, {"u1": ["a"]}) == 1.0
    assert precision({"u1": ["x", "y", "z", "a"]}, {"u1": ["a"]}) == 0.25
    assert precision({"u1": ["x", "a"], "u2": ["y"]}, {"u1": ["a"], "u2": ["b"]}) == 0.25
    assert recall({"u1": ["a"], "u2": ["b"]}, {"u1": ["a"], "u2": ["b"]}) == 1.0
    assert recall({"u1": ["x"], "u2": ["y"]}, {"u1": ["a"], "u2": ["b"]}) == 0.0
    assert recall({"u1": ["a", "x"], "u2": ["y"]}, {"u1": ["a"], "u2": ["b"]}) == 0.5
    report(7, "jaccard, spearman (both modes), precision, recall identities")


GOLDEN_METRICS = (
    "# pliersim metrics v1\n"
    "# avg_graph_jaccard: mean over all agents; an empty local graph scores 0 "
    "against a non-empty global graph and 1 against an empty one\n"
    "# rec columns: agents whose local and global recommendation vectors are both "
    "empty are skipped; if every agent is skipped the average is 1\n"
    "step,sim_time_s,avg_graph_jaccard,avg_rec_jaccard,"
    "avg_rec_spearman_corrected,avg_rec_spearman_literal,n_contacts,n_contents\n"
    "0,60,0.333333333,1,1,1,0,1\n"
    "1,120,0.666666667,1,1,1,1,0\n"
    "2,180,0.533333333,0,0,1,0,1\n"
    "3,240,0.533333333,0,0,1,0,0\n"
    "4,300,0.866666667,0.5,0.5,1,1,0\n"
)


def test_criterion_8_golden_run(tmp_path):
    """Byte-exact replay of a 3-agent, 5-step scenario traced by hand.

    a1 creates i1 (tags x, y) at t=0 and meets a3 at t=60; a2 creates i2
    (tag y) at t=120 and meets a3 at t=240. The expected CSV below was
    derived by hand: graph similarities are means of flattened-edge Jaccard
    values (2/5+0+0)/3 style fractions, recommendation rows follow the
    tag-diffusion scores (i2 scores 1/8 for a1 against the global graph,
    i1 scores 1/8 for a2), and agents with two empty vectors are skipped.
    """
    contacts_path = tmp_path / "contacts.csv"
    contents_path = tmp_path / "contents.csv"
    write_contacts(
        contacts_path,
        [ContactEvent(60, "a1", "a3"), ContactEvent(240, "a2", "a3")],
    )
    write_contents(
        contents_path,
        [
            ContentEvent(0, "a1", "i1", ("x", "y")),
            ContentEvent(120, "a2", "i2", ("y",)),
        ],
    )
    digests = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        code = cli.main(
            ["simulate", str(contacts_path), str(contents_path), "--outdir", str(outdir)]
        )
        assert code == 0
        data = (outdir / "metrics.csv").read_bytes()
        digests.append(hashlib.sha256(data).hexdigest())
    assert data.decode("utf-8") == GOLDEN_METRICS
    assert digests[0] == digests[1]
    report(8, f"golden metrics CSV byte-identical, digest {digests[0][:12]}...")


GOLDEN_LINKPRED = (
    "algorithm,k,precision,recall,removed_fraction\n"
    "pliers,,0.401179752,0.99796334,0.076947187\n"
    "cf,5,0.323244115,0.782077393,0.076947187\n"
    "cf,10,0.362735639,0.879837067,0.076947187\n"
    "tagexp,5,0.30945875,0.99389002,0.076947187\n"
    "tagexp,10,0.303865408,0.99389002,0.076947187\n"
    "probs,,0.393306102,0.99796334,0.076947187\n"
    "heats,,0.112960348,0.99796334,0.076947187\n"
    "hybrid,,0.388035971,0.99796334,0.076947187\n"
)


def test_golden_linkpred_report(tmp_path):
    """``pliersim linkpred --k 5 10`` on the criterion-4 seed-0 graph, byte for byte."""
    graph_path, out = tmp_path / "graph.tsv", tmp_path / "linkpred.csv"
    save_graph_tsv(generate_folksonomy(500, 800, 300, 0), graph_path)
    code = cli.main(["linkpred", str(graph_path), "--k", "5", "10", "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == GOLDEN_LINKPRED
