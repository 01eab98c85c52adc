import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pliersim import recommend, simulator
from pliersim.evaluation import jaccard, spearman_similarity
from pliersim.graph import FolksonomyGraph, GraphIndex
from pliersim.recommend import Scorer, ScoreVector, rank
from pliersim.simulator import (
    ContactEvent,
    ContentEvent,
    DownloadPolicyState,
    SimConfig,
    Simulation,
    apply_download_policy,
    compute_step_metrics,
    generate_synthetic_contacts,
    run,
)
from pliersim.synth import generate_synthetic_contents
from pliersim.traces import ContactTrace

from oracles import (
    graph_of,
    merge_replay,
    prune_older_than,
    reference_masks,
    reference_step_metrics,
    rows_over,
    view_graph,
    window_graphs,
)


def whole(graph):
    """Masks that hold every edge of ``graph``."""
    return np.ones(len(graph.user_item_edges), bool), np.ones(len(graph.item_tag_edges), bool)


def stack(*views):
    """The views as two 2-D masks, one row per view."""
    return np.array([ui for ui, _ in views]), np.array([it for _, it in views])


class CountedScorer(Scorer):
    """A Scorer that records the user of every row it is asked to score."""

    targets: list = []

    def rows(self, index, rows):
        users = index.users
        CountedScorer.targets.extend(users[r % len(users)] for r in rows.tolist() if r >= 0)
        return super().rows(index, rows)


class TestEvents:
    def test_self_contact_rejected(self):
        with pytest.raises(ValueError):
            ContactEvent(0, "a", "a")

    def test_untagged_content_rejected(self):
        with pytest.raises(ValueError):
            ContentEvent(0, "a", "i1", ())

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            ContactEvent(-1, "a", "b")
        with pytest.raises(ValueError):
            ContentEvent(-5, "a", "i1", ("t",))


class TestEncounter:
    @staticmethod
    def _sim(agents):
        return Simulation(SimConfig(), agents)

    def test_identical_graphs_no_new_items(self):
        sim = self._sim(["a", "b"])
        sim.apply_content(ContentEvent(0, "a", "i1", ("t1",)))
        sim.encounter("a", "b", 0)
        new_a, new_b = sim.encounter("a", "b", 60)
        assert new_a == set() and new_b == set()
        assert sim.lkgs["a"] == sim.lkgs["b"]

    def test_local_graphs_are_read_only(self):
        sim = self._sim(["a", "b"])
        with pytest.raises(TypeError):
            sim.lkgs["a"] = FolksonomyGraph()

    def test_converged_agents_share_one_graph(self):
        sim = self._sim(["a", "b"])
        sim.apply_content(ContentEvent(0, "a", "i1", ("t1",)))
        lkgs = sim.lkgs
        assert lkgs["a"] is not lkgs["b"]
        sim.encounter("a", "b", 60)
        lkgs = sim.lkgs
        assert lkgs["a"] is lkgs["b"]

    def test_replay_builds_one_index_per_global_state(self, monkeypatch):
        # every view, discovery scoring included, is a mask over gkg's index
        graphs, indexes, states = [], [], [0]
        real_init, real_add = FolksonomyGraph.__init__, FolksonomyGraph.add_content
        real_index = GraphIndex.__init__

        def counted_init(graph, *args):
            graphs.append(graph)
            real_init(graph, *args)

        def counted_add(graph, *args):
            states[0] += 1
            real_add(graph, *args)

        def counted_index(index, graph):
            indexes.append((graph is sim.gkg, states[0]))
            real_index(index, graph)

        config = SimConfig(download_policy="mean_threshold")
        contacts, contents = TestExpiryRuns._fixture()
        sim = Simulation(config)
        monkeypatch.setattr(FolksonomyGraph, "__init__", counted_init)
        monkeypatch.setattr(FolksonomyGraph, "add_content", counted_add)
        monkeypatch.setattr(GraphIndex, "__init__", counted_index)
        sim.run_windows(contacts, contents, [None, 20 * 60, 300])
        assert graphs == []
        assert indexes and all(of_gkg for of_gkg, _ in indexes)
        assert len({state for _, state in indexes}) == len(indexes)
        assert any(p.observed for p in sim.policies.values())

    def test_contact_between_equal_knowledge_makes_no_encounter(self, monkeypatch):
        # a contact between equal knowledge changes no state and queues no
        # discovery: the step's policies see b's one discovery alone
        queued = []
        real_decide = Simulation._decide

        def recorded_decide(sim):
            queued.extend(sim._discoveries)
            real_decide(sim)

        monkeypatch.setattr(Simulation, "_decide", recorded_decide)
        contents = [ContentEvent(0, "a", "i1", ("t1",))]
        # a and b know the same after their first contact; c and d know nothing
        contacts = [
            ContactEvent(60, "a", "b"),
            ContactEvent(61, "b", "a"),
            ContactEvent(62, "c", "d"),
        ]
        sim = Simulation(SimConfig(download_policy="mean_threshold"))
        sim.run_windows(contacts, contents, [None])
        a, b, c, d = (sim._ids[agent] for agent in "abcd")
        assert queued == [(b, 0b1, 0b1, 60)]
        assert {agent: p.observed for agent, p in sim.policies.items()} == {
            "a": 0, "b": 1, "c": 0, "d": 0
        }
        assert set(sim.lkgs["b"].items) == {"i1"} and not sim.lkgs["d"].items
        state = list(sim._event_bits), list(sim._item_bits)
        sim._contacts([b, c], [a, d], [120, 121])
        assert (list(sim._event_bits), list(sim._item_bits)) == state
        assert not sim._discoveries
        assert sim.encounter("a", "b", 122) == (set(), set())
        assert (list(sim._event_bits), list(sim._item_bits)) == state
        assert not sim._discoveries

    def test_contacts_listed_out_of_step_order(self):
        # the replay orders contacts by step: b meets c in step 2, after it
        # learnt i1 from a in step 0, although that contact is listed first
        contents = [ContentEvent(0, "a", "i1", ("t1",))]
        contacts = [ContactEvent(130, "b", "c"), ContactEvent(10, "a", "b")]
        sim = Simulation(SimConfig())
        rows = sim.run_windows(contacts, contents, [None])[None]
        assert [m.avg_graph_jaccard for m in rows] == [2 / 3, 2 / 3, 1.0]
        assert [m.n_contacts for m in rows] == [1, 0, 1]
        assert set(sim.lkgs["c"].items) == {"i1"}

    def test_union_after_exchange(self):
        sim = self._sim(["a", "b"])
        sim.apply_content(ContentEvent(0, "a", "i1", ("t1",)))
        sim.apply_content(ContentEvent(0, "b", "i2", ("t2",)))
        new_a, new_b = sim.encounter("a", "b", 60)
        assert new_a == {"i2"} and new_b == {"i1"}
        assert set(sim.lkgs["a"].items) == {"i1", "i2"}
        assert sim.lkgs["a"] == sim.lkgs["b"]

    def test_symmetric_in_argument_order(self):
        left = self._sim(["a", "b"])
        right = self._sim(["a", "b"])
        for sim in (left, right):
            sim.apply_content(ContentEvent(0, "a", "i1", ("t1",)))
            sim.apply_content(ContentEvent(5, "b", "i2", ("t2",)))
        left.encounter("a", "b", 60)
        right.encounter("b", "a", 60)
        assert left.lkgs["a"] == right.lkgs["a"]
        assert left.lkgs["b"] == right.lkgs["b"]

    def test_store_and_forward_within_step(self):
        config = SimConfig()
        contents = [ContentEvent(0, "a", "i1", ("t1",))]
        contacts = [ContactEvent(60, "a", "b"), ContactEvent(61, "b", "c")]
        sim = Simulation(config)
        sim.run_windows(contacts, contents, [None])
        assert set(sim.lkgs["c"].items) == {"i1"}

    def test_discoveries_not_scored_without_policy(self, monkeypatch):
        monkeypatch.setattr(recommend, "Scorer", CountedScorer)
        monkeypatch.setattr(CountedScorer, "targets", [])
        monkeypatch.setattr(simulator, "compute_step_metrics", lambda *args, **kwargs: None)
        contents = [ContentEvent(0, "a", "i1", ("t1",)), ContentEvent(0, "b", "i2", ("t2",))]
        sim = Simulation(SimConfig())
        sim.run_windows([ContactEvent(60, "a", "b")], contents, [None])
        assert set(sim.lkgs["a"].items) == {"i1", "i2"}
        assert CountedScorer.targets == []

    @staticmethod
    def _stacked_builds(monkeypatch):
        """Record the two masks of every stacked index built."""
        built, real_stacked = [], GraphIndex.stacked

        def counted_stacked(index, ui, it):
            built.append((ui, it))
            return real_stacked(index, ui, it)

        monkeypatch.setattr(GraphIndex, "stacked", counted_stacked)
        return built

    @staticmethod
    def _six_views():
        """Five creators and six contacts: 10 gkg edges, six distinct discovered views."""
        contents = [ContentEvent(0, agent, f"i_{agent}", ("t1",)) for agent in "abcde"]
        pairs = ("ab", "cb", "da", "ec", "ed", "ab")
        return contents, [ContactEvent(1 + n, a, b) for n, (a, b) in enumerate(pairs)]

    def test_one_stacked_index_per_step(self, monkeypatch):
        # a step's discoveries are scored once, on one index stacked to each
        # distinct post-contact view; policies decide after the step's contacts
        built = self._stacked_builds(monkeypatch)
        monkeypatch.setattr(simulator, "compute_step_metrics", lambda *args, **kwargs: None)
        config = SimConfig(download_policy="mean_threshold")
        contents = [ContentEvent(0, agent, f"i_{agent}", ("t1",)) for agent in ("a", "b", "c")]
        # both sides learn, both learn, only a learns: two distinct views
        contacts = [ContactEvent(60 + n, a, b) for n, (a, b) in enumerate(("ab", "bc", "ac"))]
        sim = Simulation(config)
        sim.run_windows(contacts, contents, [None])
        ((ui, it),) = built
        want_ui, want_it = sim.masks([0b011, 0b111])
        assert ui.tolist() == want_ui.tolist() and it.tolist() == want_it.tolist()
        assert {a: p.observed for a, p in sim.policies.items()} == {"a": 2, "b": 2, "c": 2}

    def test_more_views_than_agents_share_one_stacked_index(self, monkeypatch):
        # five agents reach six distinct views in one step, and all six fill
        # one index: only the edge cap bounds a batch. The last index built
        # is the metric evaluation's
        built = self._stacked_builds(monkeypatch)
        config = SimConfig(download_policy="mean_threshold")
        contents, contacts = self._six_views()
        sim = Simulation(config)
        rows = sim.run_windows(contacts, contents, [None])
        assert [len(ui) for ui, _ in built] == [6, 4]
        _, _, ref_rows, ref_policies = merge_replay(config, contacts, contents, [None])
        assert rows == ref_rows
        assert sim.policies == ref_policies

    @pytest.mark.parametrize("cap", [1, 25])
    def test_a_batch_stacks_at_most_the_edge_cap(self, monkeypatch, cap):
        # a cap of 25 takes two views a batch, a cap below one view's edges
        # still takes one
        monkeypatch.setattr(simulator, "_STACKED_EDGES", cap)
        built = self._stacked_builds(monkeypatch)
        monkeypatch.setattr(simulator, "compute_step_metrics", lambda *args, **kwargs: None)
        config = SimConfig(download_policy="mean_threshold")
        contents, contacts = self._six_views()
        sim = Simulation(config)
        sim.run_windows(contacts, contents, [None])
        assert [len(ui) for ui, _ in built] == ([1] * 6 if cap == 1 else [2, 2, 2])
        for ui, it in built:
            assert len(ui) * (ui.shape[1] + it.shape[1]) <= max(cap, ui.shape[1] + it.shape[1])
        _, _, _, ref_policies = merge_replay(config, contacts, contents, [None])
        assert sim.policies == ref_policies

    @pytest.mark.parametrize("cap, stacks", [(1, [2, 2, 2]), (30, [3, 2])])
    def test_an_evaluation_stacks_at_most_the_edge_cap(self, monkeypatch, cap, stacks):
        # the global view and three local views over 10 gkg edges: a cap of
        # 30 takes three views a stack, a cap below two views' edges still
        # takes the global view and one local view. Without a policy, every
        # stack is an evaluation's
        monkeypatch.setattr(simulator, "_STACKED_EDGES", cap)
        built = self._stacked_builds(monkeypatch)
        contents, contacts = self._six_views()
        sim = Simulation(SimConfig())
        rows = sim.run_windows(contacts, contents, [None])
        assert [len(ui) for ui, _ in built] == stacks
        for ui, it in built:
            assert ui[0].all() and it[0].all()
        _, _, ref_rows, _ = merge_replay(SimConfig(), contacts, contents, [None])
        assert rows == ref_rows

    def test_content_applies_after_masks(self):
        # masks views the per-event edge-id arrays, which apply_content
        # grows: a view left alive would make the append raise BufferError
        sim = self._sim(["a", "b"])
        sim.apply_content(ContentEvent(0, "a", "i1", ("t1", "t2")))
        ui, it = sim.masks([0b1])
        sim.apply_content(ContentEvent(5, "b", "i2", ("t1",)))
        sim.apply_content(ContentEvent(6, "b", "i1", ("t2",)))
        assert ui.tolist() == [[True]] and it.tolist() == [[True, True]]
        ui, it = sim.masks([0b001, 0b010, 0b100, 0b111])
        assert ui.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        assert it.tolist() == [[1, 1, 0], [0, 0, 1], [0, 1, 0], [1, 1, 1]]

    def test_masks_of_hand_events(self):
        # i1 announced before and after the cutoff, and the edge (a, i2) held
        # by two events
        sim = self._sim(["a", "b"])
        for ev in [
            ContentEvent(5, "a", "i1", ("t1",)),
            ContentEvent(50, "b", "i1", ("t2",)),
            ContentEvent(30, "a", "i2", ("t1",)),
            ContentEvent(40, "a", "i2", ("t2",)),
        ]:
            sim.apply_content(ev)
        every = list(range(16))
        for cutoff in (-1, 0, 20, 35, 45, 60):
            got, want = sim.masks(every, cutoff), reference_masks(sim, every, cutoff)
            assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        ui, it = sim.masks([0b0010, 0b0011, 0b0100, 0b1000, 0b1100], 35)
        assert ui.tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]]
        assert it.tolist() == [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]

    def test_trace_agents_join_the_roster(self):
        # the population is the roster plus every agent the traces name
        sim = Simulation(SimConfig(), ["a"])
        contents = [ContentEvent(60, "a", "i1", ("t1",))]
        rows = sim.run_windows([ContactEvent(0, "a", "zz")], contents, [None])[None]
        assert set(sim.lkgs) == {"a", "zz"}
        # after step 1, a knows i1 and zz does not: both count
        assert [m.avg_graph_jaccard for m in rows] == [1.0, 0.5]
        sim = Simulation(SimConfig(), ["a"])
        rows = sim.run_windows([], [ContentEvent(0, "zz", "i1", ("t1",))], [None])[None]
        assert set(sim.lkgs) == {"a", "zz"}
        assert [m.avg_graph_jaccard for m in rows] == [0.5]

    def test_population_order(self):
        # the roster, then contact agents in the trace's order, then the
        # creators that the trace does not name, in content order
        config = SimConfig(download_policy="mean_threshold")
        sim = Simulation(config, ["r", "c2"])
        contents = [
            ContentEvent(0, "c2", "i1", ("t1",)),
            ContentEvent(1, "c1", "i2", ("t1",)),
            ContentEvent(2, "c2", "i3", ("t1",)),
            ContentEvent(2, "c3", "i4", ("t1",)),
        ]
        contacts = [
            ContactEvent(3, "x", "c1"),
            ContactEvent(4, "y", "x"),
            ContactEvent(5, "z", "r"),
        ]
        sim.run_windows(contacts, contents, [None])
        assert list(sim.lkgs) == list(sim.policies) == ["r", "c2", "x", "c1", "y", "z", "c3"]

    def test_unregistered_agent_raises_and_changes_nothing(self):
        sim = self._sim(["a", "b"])
        sim.apply_content(ContentEvent(0, "a", "i1", ("t1",)))

        def state():
            return dict(sim.lkgs), dict(sim.gkg.user_item_edges), dict(sim.gkg.item_tag_edges)

        before = state()
        with pytest.raises(KeyError):
            sim.apply_content(ContentEvent(1, "zz", "i2", ("t2",)))
        with pytest.raises(KeyError):
            sim.encounter("a", "zz", 2)
        with pytest.raises(KeyError):
            sim.encounter("zz", "b", 2)
        assert state() == before


class TestRun:
    def test_no_contacts_single_creator(self):
        config = SimConfig()
        agents = ["a1", "a2", "a3", "a4"]
        contents = [
            ContentEvent(0, "a1", "i1", ("t1",)),
            ContentEvent(200, "a1", "i2", ("t2",)),
        ]
        metrics = run(config, [], contents, agents)
        assert len(metrics) == 4  # steps 0..3 cover t=200
        for m in metrics:
            assert m.avg_graph_jaccard == pytest.approx(1 / 4)

    def test_complete_mixing_reaches_one_next_step(self):
        agents = [f"a{i}" for i in range(6)]
        contents = [ContentEvent(0, "a0", "i1", ("t1",)), ContentEvent(1, "a3", "i2", ("t2",))]
        contacts = [
            ContactEvent(step * 60, a, b)
            for step in range(4)
            for a, b in itertools.combinations(agents, 2)
        ]
        metrics = run(SimConfig(), contacts, contents)
        for m in metrics[1:]:
            assert m.avg_graph_jaccard == 1.0

    def test_empty_content_stream(self):
        agents = ["a", "b"]
        metrics = run(SimConfig(), [ContactEvent(0, "a", "b")], [], agents)
        assert metrics[0].avg_graph_jaccard == 1.0  # empty vs empty
        assert metrics[0].n_contacts == 1 and metrics[0].n_contents == 0

    def test_no_events_no_rows(self):
        assert run(SimConfig(), [], [], ["a", "b"]) == []

    def test_metric_cadence(self):
        config = SimConfig(metric_cadence=2)
        contents = [ContentEvent(0, "a", "i1", ("t1",))]
        contacts = [ContactEvent(t * 60, "a", "b") for t in range(5)]
        metrics = run(config, contacts, contents)
        assert [m.step for m in metrics] == [1, 3, 4]  # every 2nd step plus final

    def test_far_content_visits_only_busy_and_metric_steps(self):
        # a content at 2^40 s ends step 18,325,193,796 of 60 s: the replay
        # visits the two busy steps and the metric steps before the last
        far = 1 << 40
        contents = [ContentEvent(far, "a", "i1", ("t1",))]
        metrics = run(SimConfig(metric_cadence=10**9), [ContactEvent(0, "a", "b")], contents)
        assert [m.step for m in metrics] == [k * 10**9 - 1 for k in range(1, 19)] + [far // 60]
        assert [m.n_contents for m in metrics] == [0] * 18 + [1]
        assert metrics[-1].sim_time_s == (far // 60 + 1) * 60
        assert [m.avg_graph_jaccard for m in metrics] == [1.0] * 18 + [0.5]

    @pytest.mark.parametrize("policy", [None, "mean_threshold"])
    def test_metric_steps_between_events_match_merge_replay(self, policy):
        # events in steps 0, 1, 9, 16 and 30 of 60 s: most metric steps of
        # cadence 4 hold no event, at some of them the 600 s window expires
        # items without an event marking the step, and step 16 holds only a
        # contact
        contents = [
            ContentEvent(0, "a", "i1", ("t1",)),
            ContentEvent(70, "b", "i2", ("t1", "t2")),
            ContentEvent(560, "c", "i3", ("t2",)),
        ]
        contacts = [
            ContactEvent(30, "a", "b"),
            ContactEvent(65, "b", "c"),
            ContactEvent(1000, "c", "a"),
            ContactEvent(1810, "c", "a"),
        ]
        config = SimConfig(metric_cadence=4, download_policy=policy)
        sim = Simulation(config)
        rows = sim.run_windows(contacts, contents, [None, 600])
        _, _, ref_rows, ref_policies = merge_replay(config, contacts, contents, [None, 600])
        assert [m.step for m in rows[None]] == [3, 7, 11, 15, 19, 23, 27, 30]
        assert rows == ref_rows
        assert sim.policies == ref_policies

    @pytest.mark.parametrize("policy", [None, "mean_threshold"])
    def test_item_of_two_creators_walked_once_matches_merge_replay(self, monkeypatch, policy):
        # a and b both announce r, so both own it in gkg's view and every
        # call that scores both their global rows walks r once for both
        contents = [
            ContentEvent(0, "a", "r", ("t1",)),
            ContentEvent(20, "b", "r", ("t1", "t2")),
            ContentEvent(40, "b", "i2", ("t2",)),
            ContentEvent(70, "c", "i3", ("t1", "t3")),
        ]
        contacts = [
            ContactEvent(30, "a", "c"),
            ContactEvent(80, "b", "c"),
            ContactEvent(130, "a", "b"),
        ]
        tables = []
        real_paths_of = recommend._paths_of

        def paths_of(index, sources, *args):
            tables.append(sources.tolist())
            return real_paths_of(index, sources, *args)

        monkeypatch.setattr(recommend, "_paths_of", paths_of)
        config = SimConfig(metric_cadence=1, download_policy=policy)
        sim = Simulation(config)
        rows = sim.run_windows(contacts, contents, [None, 60])
        _, _, ref_rows, ref_policies = merge_replay(config, contacts, contents, [None, 60])
        assert tables
        assert rows == ref_rows
        assert sim.policies == ref_policies

    def test_containment_and_monotonicity(self):
        agents = 20
        contacts = generate_synthetic_contacts(agents, 4, 0.2, 15 * 60, 5)
        contents = [
            ContentEvent(i, f"a{i % agents:04d}", f"i{i}", (f"t{i % 5}",))
            for i in range(10)
        ]
        config = SimConfig()
        sim = Simulation(config)
        metrics = sim.run_windows(contacts, contents, [None])[None]
        flat_gkg = sim.gkg.flatten()
        for lkg in sim.lkgs.values():
            assert lkg.flatten() <= flat_gkg
        sims = [m.avg_graph_jaccard for m in metrics]
        assert all(b >= a - 1e-12 for a, b in zip(sims, sims[1:]))

    def test_deterministic_metric_series(self):
        contacts = generate_synthetic_contacts(10, 2, 0.3, 10 * 60, 9)
        contents = [
            ContentEvent(i * 30, f"a{i % 10:04d}", f"i{i}", ("t1", f"t{i % 3}"))
            for i in range(8)
        ]
        assert run(SimConfig(), contacts, contents) == run(
            SimConfig(), contacts, contents
        )


class TestStepMetrics:
    def test_all_local_graphs_equal_global(self):
        gkg = FolksonomyGraph()
        gkg.add_content("a", "i1", ["t1"], 0)
        gkg.add_content("b", "i2", ["t1"], 1)
        views = stack(whole(gkg), whole(gkg))
        m = compute_step_metrics(gkg, views, [["a", "b"]], 0.5, None, now=60)
        assert m.avg_graph_jaccard == 1.0
        assert m.avg_rec_jaccard == 1.0
        assert m.avg_rec_spearman_corrected == 1.0
        assert m.avg_rec_spearman_literal == 1.0

    def test_empty_local_graph_scores_zero(self):
        gkg = FolksonomyGraph()
        gkg.add_content("a", "i1", ["t1"], 0)
        empty = np.zeros(1, bool), np.zeros(1, bool)
        views = stack(whole(gkg), whole(gkg), empty)
        m = compute_step_metrics(gkg, views, [["a"], ["b"]], 0.5, None, now=60)
        assert m.avg_graph_jaccard == 0.5

    def test_rec_similarity_ceiling_at_equality(self):
        gkg = FolksonomyGraph()
        gkg.add_content("a", "i1", ["t1"], 0)
        gkg.add_content("b", "i2", ["t1"], 1)
        views = stack(whole(gkg), whole(gkg))
        m = compute_step_metrics(gkg, views, [["a"]], 0.5, None, now=60)
        assert (
            m.avg_rec_jaccard
            == m.avg_rec_spearman_corrected
            == m.avg_rec_spearman_literal
            == 1.0
        )

    def test_five_agent_fixture_matches_hand_trace(self):
        contents = [
            ContentEvent(0, "a", "x", ("p",)),
            ContentEvent(0, "b", "y", ("p", "q")),
            ContentEvent(130, "c", "z", ("q",)),
        ]
        contacts = [
            ContactEvent(60, "a", "b"),
            ContactEvent(70, "b", "d"),
            ContactEvent(180, "c", "d"),
        ]
        metrics = run(SimConfig(), contacts, contents, ["a", "b", "c", "d", "e"])
        assert [m.avg_graph_jaccard for m in metrics] == pytest.approx(
            [0.2, 0.6, 17 / 35, 24 / 35]
        )
        last = metrics[-1]
        assert last.step == 3 and last.sim_time_s == 240
        assert last.avg_rec_jaccard == pytest.approx(2.5 / 3)
        assert last.avg_rec_spearman_corrected == pytest.approx(2.5 / 3)
        assert last.avg_rec_spearman_literal == pytest.approx(1.0)
        assert last.n_contacts == 1 and last.n_contents == 0

    def test_views_computed_once_per_distinct_graph(self, monkeypatch):
        built, steps = [], []
        real_stacked, real_metrics = GraphIndex.stacked, simulator.compute_step_metrics

        def counted_stacked(index, ui, it):
            built.append(len(ui))
            return real_stacked(index, ui, it)

        def counted_metrics(gkg, views, holders, *args, **kwargs):
            built.clear()
            row = real_metrics(gkg, views, holders, *args, **kwargs)
            assert sorted(a for group in holders for a in group) == sorted(sim.lkgs)
            steps.append((list(built), len(holders)))
            return row

        monkeypatch.setattr(GraphIndex, "stacked", counted_stacked)
        monkeypatch.setattr(simulator, "compute_step_metrics", counted_metrics)
        contacts, contents = TestExpiryRuns._fixture()
        sim = Simulation(SimConfig())
        sim.run_windows(contacts, contents, [None, 20 * 60, 300])
        # one stacked index per evaluation, with a row for the global view
        # and one per distinct knowledge: agents with equal knowledge share
        # theirs
        assert steps and all(built == [1 + distinct] for built, distinct in steps)
        assert min(distinct for _, distinct in steps) < 12

    def test_expiry_hides_old_items_from_metrics(self):
        # a knows "old" and "new", b only "new"; a 100 s window at t=540
        # leaves only "new" anywhere, so every agent holds the whole view
        contents = [ContentEvent(0, "a", "old", ("t1",)), ContentEvent(500, "b", "new", ("t1",))]
        contacts = [ContactEvent(501, "b", "d"), ContactEvent(502, "d", "a")]
        rows = Simulation(SimConfig()).run_windows(contacts, contents, [None, 100])
        assert rows[100][-1].sim_time_s == 540
        assert rows[100][-1].avg_graph_jaccard == 1.0
        assert rows[None][-1].avg_graph_jaccard == (1.0 + 0.5 + 1.0) / 3

    def test_expiry_follows_the_announcement_each_holder_knows(self):
        # x is announced by a at t=0 and again by b at t=500; at t=540 a
        # 100 s window expires x for a and for the global view, which know
        # the older announcement, while b keeps its newer copy
        sim = Simulation(SimConfig(), ["a", "b"])
        sim.apply_content(ContentEvent(0, "a", "x", ("t1",)))
        sim.apply_content(ContentEvent(500, "b", "x", ("t2",)))
        lviews, gview = window_graphs(sim, 540, 100)
        assert not lviews["a"].items and not gview.items
        assert dict(lviews["b"].user_item_edges) == {("b", "x"): 500}
        assert dict(lviews["b"].item_tag_edges) == {("x", "t2"): 500}
        for agent in ("a", "b"):
            assert lviews[agent] == prune_older_than(sim.lkgs[agent], 540, 100)
        assert gview == prune_older_than(sim.gkg, 540, 100)
        # b, the later-only holder, keeps the edges of its own announcement
        everything = (1 << len(sim._events)) - 1
        known = [sim._event_bits[sim._ids[agent]] for agent in ("a", "b")]
        ui, it = sim.masks([everything, *known], 540 - 100)
        held = view_graph(sim.gkg, (ui[2], it[2]))
        assert held.user_item_edges.keys() == {("b", "x")}
        assert held.item_tag_edges.keys() == {("x", "t2")}
        row = compute_step_metrics(sim.gkg, (ui, it), [["a"], ["b"]], 0.5, None, now=540)
        assert row.avg_graph_jaccard == (1.0 + 0.0) / 2
        assert row == reference_step_metrics(lviews, gview, 0.5, None, now=540, step=0,
                                             n_contacts=0, n_contents=0)


    @pytest.mark.parametrize("top_n", [None, 0, 2])
    @pytest.mark.parametrize("budget", [1, 64, 1024])
    def test_rows_do_not_depend_on_the_ranked_block_size(self, monkeypatch, top_n, budget):
        # a budget of 1 ranks one agent a block; 64 ranks two while the
        # replay holds at most 4 items; 1024 ranks several, cut mid-stack
        contacts, contents = TestExpiryRuns._fixture()
        config = SimConfig(top_n=top_n)
        want = Simulation(config).run_windows(contacts, contents, [None, 300])
        monkeypatch.setattr(recommend, "_BLOCK_ENTRIES", budget)
        assert Simulation(config).run_windows(contacts, contents, [None, 300]) == want


class TestExpiryRuns:
    @staticmethod
    def _fixture():
        contacts = generate_synthetic_contacts(12, 3, 0.2, 20 * 60, 2)
        contents = [
            ContentEvent(i * 90, f"a{i % 12:04d}", f"i{i}", ("t1", f"t{i % 4}"))
            for i in range(12)
        ]
        return contacts, contents

    def test_window_covering_run_equals_no_expiry(self):
        contacts, contents = self._fixture()
        duration = 20 * 60
        no_expiry = run(SimConfig(), contacts, contents)
        covering = run(SimConfig(expiry_window=duration), contacts, contents)
        assert [
            (m.avg_graph_jaccard, m.avg_rec_jaccard, m.avg_rec_spearman_corrected)
            for m in no_expiry
        ] == [
            (m.avg_graph_jaccard, m.avg_rec_jaccard, m.avg_rec_spearman_corrected)
            for m in covering
        ]

    def test_run_windows_single_pass_matches_separate_runs(self):
        contacts, contents = self._fixture()
        sim = Simulation(SimConfig())
        both = sim.run_windows(contacts, contents, [None, 300])
        assert both[None] == run(SimConfig(), contacts, contents)
        expiry_only = [
            (m.avg_graph_jaccard, m.avg_rec_jaccard) for m in both[300]
        ]
        separate = [
            (m.avg_graph_jaccard, m.avg_rec_jaccard)
            for m in run(SimConfig(expiry_window=300), contacts, contents)
        ]
        assert expiry_only == separate

    @pytest.mark.parametrize("windows", [[300, 300], [None, None], [0], [None, -60]])
    def test_bad_windows_raise_before_any_agent_registers(self, windows):
        contacts, contents = self._fixture()
        sim = Simulation(SimConfig())
        with pytest.raises(ValueError, match="must be distinct and positive"):
            sim.run_windows(contacts, contents, windows)
        assert not sim.lkgs

    def test_two_views_a_stack_give_the_rows_of_one_stack(self, monkeypatch):
        # every stack of an evaluation holds its global view in row 0 and
        # the next local view in row 1, and the rows are those of a replay
        # that stacks all views at once
        contacts, contents = self._fixture()
        config = SimConfig(metric_cadence=2)
        want = Simulation(config).run_windows(contacts, contents, [None, 300])
        built = TestEncounter._stacked_builds(monkeypatch)
        real_metrics = simulator.compute_step_metrics
        evaluations = []

        def two_views_a_stack(gkg, views, *args, **kwargs):
            edges = len(gkg.user_item_edges) + len(gkg.item_tag_edges)
            monkeypatch.setattr(simulator, "_STACKED_EDGES", 2 * edges)
            start = len(built)
            row = real_metrics(gkg, views, *args, **kwargs)
            evaluations.append((views, built[start:]))
            return row

        monkeypatch.setattr(simulator, "compute_step_metrics", two_views_a_stack)
        assert Simulation(config).run_windows(contacts, contents, [None, 300]) == want
        for (ui, it), stacks in evaluations:
            assert len(stacks) == len(ui) - 1
            for v, (stack_ui, stack_it) in enumerate(stacks, start=1):
                assert np.array_equal(stack_ui, ui[[0, v]]) and np.array_equal(stack_it, it[[0, v]])
        assert max(len(np.unique(np.hstack(views), axis=0)) for views, _ in evaluations) >= 4


def _columns_of(trace):
    return trace.times.tobytes(), trace.a.tobytes(), trace.b.tobytes(), list(trace.agents)


class TestContactColumns:
    """The replay reads a trace's columns in place where they serve, and never changes them."""

    @staticmethod
    def _gossip():
        contacts = generate_synthetic_contacts(16, 4, 0.2, 30 * 60, 3)
        contents = generate_synthetic_contents(16, 30, 8, 30 * 60, 3)
        return contacts, contents

    @staticmethod
    def _recorded_columns(monkeypatch):
        """The agent columns of every replay, as ``_step_columns`` returns them."""
        columns, real = [], Simulation._step_columns

        def step_columns(self, contacts):
            out = real(self, contacts)
            columns.append(out[:2])
            return out

        monkeypatch.setattr(Simulation, "_step_columns", step_columns)
        return columns

    @pytest.mark.parametrize("policy", [None, "mean_threshold"])
    @pytest.mark.parametrize("in_place", [True, False], ids=["in_place", "copied"])
    def test_rows_and_policies_equal_merge_replay(self, monkeypatch, policy, in_place):
        """Read in place: a step-ordered trace, no roster. Copied: a shuffled one, a roster."""
        contacts, contents = self._gossip()
        roster = []
        if not in_place:
            random.Random(0).shuffle(contacts)
            roster = ["s1", "a0005", "s2"]
        trace = ContactTrace.of(contacts)
        before = _columns_of(trace)
        config = SimConfig(metric_cadence=3, download_policy=policy, top_n=4)
        columns = self._recorded_columns(monkeypatch)
        sim = Simulation(config, roster)
        rows = sim.run_windows(trace, contents, [None, 600])
        _, _, ref_rows, ref_policies = merge_replay(config, contacts, contents, [None, 600], roster)
        assert rows == ref_rows
        assert sim.policies == ref_policies
        ((xs, ys),) = columns
        assert (xs is trace.a and ys is trace.b) == in_place
        assert _columns_of(trace) == before
        # no numpy view of a column outlives the replay
        for column in (trace.times, trace.a, trace.b):
            column.append(0)

    def test_out_of_order_times_within_a_step_are_in_step_order(self, monkeypatch):
        # 50 s before 10 s is still step order: both fall in step 0
        contacts = [
            ContactEvent(50, "a", "b"), ContactEvent(10, "b", "c"), ContactEvent(70, "c", "a")
        ]
        columns = self._recorded_columns(monkeypatch)
        trace = ContactTrace.of(contacts)
        Simulation(SimConfig()).run_windows(trace, [ContentEvent(0, "a", "i1", ("t1",))], [None])
        assert columns[0][0] is trace.a

    def test_in_place_replay_holds_no_per_contact_array(self, monkeypatch):
        """At the first metric step, the replay holds less than one per-contact column.

        With 20 agents meeting in 100-minute steps, a step holds 2,000
        contacts, so the busy steps' ends take far less than a column of
        8 bytes a contact. Copied columns, which a roster makes the replay
        take, show in the same measure.
        """
        trace = ContactTrace.of(generate_synthetic_contacts(20, 4, 0.2, 2000 * 60, 0))
        contents = [ContentEvent(0, "a0000", "i1", ("t1",))]
        column = 8 * len(trace.a)
        real_metrics = simulator.compute_step_metrics

        def held(roster):
            growth = []

            def first_step(*args, **kwargs):
                if not growth:
                    growth.append(tracemalloc.get_traced_memory()[0] - start)
                return real_metrics(*args, **kwargs)

            monkeypatch.setattr(simulator, "compute_step_metrics", first_step)
            sim = Simulation(SimConfig(step_length=6000), roster)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                sim.run_windows(trace, contents, [None])
            finally:
                tracemalloc.stop()
            return growth[0]

        assert held([]) < column
        assert held(["r"]) > 2 * column

    def test_population_keeps_the_trace_ids(self):
        trace = ContactTrace.of(generate_synthetic_contacts(10, 2, 0.2, 10 * 60, 1))
        contents = [ContentEvent(0, "c", "i1", ("t1",)), ContentEvent(5, "a0003", "i2", ("t1",))]
        sim = Simulation(SimConfig())
        sim.run_windows(trace, contents, [None])
        assert list(sim.lkgs) == [*trace.agents, "c"]


class TestDownloadPolicies:
    def test_cold_start_downloads(self):
        for kind in ("mean_threshold", "percentile_threshold"):
            state = DownloadPolicyState(SimConfig(download_policy=kind))
            assert apply_download_policy(state, "i1", 0.0, now=0) is True

    def test_mean_threshold_is_strict(self):
        state = DownloadPolicyState(SimConfig(download_policy="mean_threshold"))
        for n, score in enumerate((1.0, 2.0, 3.0)):
            apply_download_policy(state, f"h{n}", score, now=0)
        assert apply_download_policy(state, "i1", 2.0, now=0) is False
        assert apply_download_policy(state, "i2", 2.51, now=0) is True

    def test_mean_threshold_adds_left_to_right(self):
        # added in order the mean is 0.3333333333333333; a compensated sum,
        # such as builtin sum from Python 3.12 on, gives 0.3333333333333334
        state = DownloadPolicyState(SimConfig(download_policy="mean_threshold"))
        for n, score in enumerate((1.0, 1e-16, 1e-16)):
            apply_download_policy(state, f"h{n}", score, now=0)
        assert apply_download_policy(state, "i1", math.nextafter(1 / 3, 1), now=0) is True

    def test_percentile_threshold(self):
        state = DownloadPolicyState(
            SimConfig(download_policy="percentile_threshold", download_percentile=90.0)
        )
        for n in range(10):
            apply_download_policy(state, f"h{n}", float(n), now=0)
        assert apply_download_policy(state, "low", 5.0, now=0) is False
        assert apply_download_policy(state, "high", 9.5, now=0) is True

    def test_bounded_buffer_replaces_minimum(self):
        state = DownloadPolicyState(SimConfig(download_policy="bounded_buffer", download_buffer_capacity=2))
        assert apply_download_policy(state, "i1", 1.0, now=0) is True
        assert apply_download_policy(state, "i2", 2.0, now=0) is True
        assert apply_download_policy(state, "i3", 3.0, now=0) is True
        assert state.buffer == {"i2": 2.0, "i3": 3.0}
        assert apply_download_policy(state, "i4", 0.5, now=0) is False
        assert state.buffer == {"i2": 2.0, "i3": 3.0}
        # the buffer never reads a score history, so none is kept
        assert not state.history and state.observed == 4

    def test_history_span_eviction(self):
        config = SimConfig(download_policy="mean_threshold", download_history_s=100)
        state = DownloadPolicyState(config)
        apply_download_policy(state, "i1", 10.0, now=0)
        # the old high score leaves the window, so 5 > mean({1}) succeeds
        apply_download_policy(state, "i2", 1.0, now=150)
        assert apply_download_policy(state, "i3", 5.0, now=200) is True

    def test_history_records_skips_too(self):
        state = DownloadPolicyState(SimConfig(download_policy="mean_threshold"))
        apply_download_policy(state, "i1", 4.0, now=0)
        apply_download_policy(state, "i2", 1.0, now=0)  # skipped
        assert [s for _, s in state.history] == [4.0, 1.0]
        assert state.downloaded == 1 and state.observed == 2

    def test_policy_wired_into_simulation(self):
        config = SimConfig(download_policy="mean_threshold")
        contents = [ContentEvent(0, "a", "i1", ("t1",)), ContentEvent(0, "b", "i2", ("t1",))]
        contacts = [ContactEvent(60, "a", "b")]
        sim = Simulation(config)
        sim.run_windows(contacts, contents, [None])
        assert sim.policies["a"].observed == 1  # discovered i2
        assert sim.policies["a"].downloaded == 1  # cold start
        assert sim.policies["b"].observed == 1

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(download_policy="shiny")
        with pytest.raises(ValueError):
            SimConfig(download_policy="bounded_buffer", download_buffer_capacity=0)
        with pytest.raises(ValueError):
            SimConfig(download_policy="percentile_threshold", download_percentile=120.0)

    def test_negative_history_span_rejected(self):
        # with a span of -10 every observation emptied the history, so this
        # policy downloaded all five items instead of the first one only
        with pytest.raises(ValueError, match="download_history_s must be >= 0"):
            SimConfig(download_policy="mean_threshold", download_history_s=-10)
        state = DownloadPolicyState(SimConfig(download_policy="mean_threshold", download_history_s=0))
        decisions = [apply_download_policy(state, f"i{n}", s, now=0)
                     for n, s in enumerate((5.0, 1.0, 0.5, 0.2, 0.1))]
        assert decisions == [True, False, False, False, False]


class TestSyntheticContacts:
    @staticmethod
    def _communities(n_agents, n_communities):
        return {f"a{i:04d}": i % n_communities for i in range(n_agents)}

    def test_zero_rewiring_keeps_contacts_internal(self):
        comm = self._communities(20, 4)
        events = generate_synthetic_contacts(20, 4, 0.0, 10 * 60, 1)
        assert events
        assert all(comm[e.a] == comm[e.b] for e in events)

    def test_full_rewiring_contacts_all_external(self):
        comm = self._communities(10, 2)
        events = generate_synthetic_contacts(10, 2, 1.0, 10 * 60, 1)
        assert events
        assert all(comm[e.a] != comm[e.b] for e in events)

    def test_deterministic_and_sorted(self):
        a = generate_synthetic_contacts(15, 3, 0.1, 5 * 60, 7)
        b = generate_synthetic_contacts(15, 3, 0.1, 5 * 60, 7)
        assert a == b
        assert all(x.time <= y.time for x, y in zip(a, a[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic_contacts(5, 6, 0.1, 60, 0)
        with pytest.raises(ValueError):
            generate_synthetic_contacts(5, 2, 1.5, 60, 0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_length": 0},
            {"metric_cadence": 0},
            {"expiry_window": 0},
            {"affinity_weight": -0.1},
            {"affinity_weight": 2.0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_policy_table_names_config_fields(self):
        fields = {f.name for f in dataclasses.fields(SimConfig)}
        for kind, read in simulator.POLICY_FIELDS.items():
            assert read and set(read) <= fields, kind


def test_gossip_convergence_hundred_agents():
    agents = 100
    contacts = generate_synthetic_contacts(agents, 1, 0.0, 20 * 60, 13)
    contents = [
        ContentEvent(0, f"a{i:04d}", f"i{i}", (f"t{i % 7}",)) for i in range(agents)
    ]
    config = SimConfig(metric_cadence=5)
    metrics = run(config, contacts, contents)
    sims = [m.avg_graph_jaccard for m in metrics]
    assert all(b >= a - 1e-12 for a, b in zip(sims, sims[1:]))
    assert sims[-1] >= 0.99


AGENTS = ["a", "b", "c", "d"]


@st.composite
def replays(draw):
    """Random traces over four agents plus two silent ones, with forced cases.

    Always present: an item announced again by another creator with other
    tags and an earlier time, and a three-hop chain of contacts in one step.
    """
    times = st.integers(0, 299)
    tag_lists = st.lists(
        st.sampled_from(["t0", "t1", "t2", "t3"]), min_size=1, max_size=3, unique=True
    )
    contents = draw(
        st.lists(
            st.builds(
                ContentEvent,
                time=times,
                creator=st.sampled_from(AGENTS),
                item=st.sampled_from(["i0", "i1", "i2", "i3"]),
                tags=tag_lists.map(tuple),
            ),
            max_size=10,
        )
    )
    step = draw(st.integers(0, 4))
    contents += [
        ContentEvent(step * 60 + 50, "a", "r", ("t0",)),
        ContentEvent(step * 60 + 10, "b", "r", ("t1", "t2")),
    ]
    pairs = st.lists(st.sampled_from(AGENTS), min_size=2, max_size=2, unique=True)
    contacts = draw(
        st.lists(st.builds(lambda t, p: ContactEvent(t, *p), times, pairs), max_size=15)
    )
    hop = draw(st.integers(0, 4)) * 60
    contacts += [
        ContactEvent(hop + 1, "a", "b"),
        ContactEvent(hop + 2, "b", "c"),
        ContactEvent(hop + 3, "c", "d"),
    ]
    config = SimConfig(
        download_policy=draw(st.sampled_from(list(simulator.POLICY_FIELDS))),
        download_percentile=draw(st.floats(0.0, 100.0)),
        download_buffer_capacity=draw(st.integers(1, 3)),
        download_history_s=draw(st.none() | st.integers(30, 300)),
        metric_cadence=draw(st.integers(1, 3)),
        top_n=draw(st.none() | st.integers(1, 3)),
    )
    window = draw(st.integers(30, 400))
    return config, contacts, contents, [None, window]


def encounters_in_step_order(config, contacts, contents, roster):
    """The new-item sets of every contact, by ``encounter`` in the replay's order.

    Agents register as the replay registers them; each step applies its
    contents, then meets its contacts, each in input order. Returns the
    sets and the simulation.
    """
    sim = Simulation(config, roster)
    for agent in [*(ev.creator for ev in contents), *(x for ev in contacts for x in (ev.a, ev.b))]:
        sim.register(agent)
    length = config.step_length
    timeline = sorted(
        [(ev.time // length, 0, n, ev) for n, ev in enumerate(contents)]
        + [(ev.time // length, 1, n, ev) for n, ev in enumerate(contacts)],
        key=lambda entry: entry[:3],
    )
    encounters = []
    for _, kind, _, ev in timeline:
        if kind == 0:
            sim.apply_content(ev)
        else:
            encounters.append(sim.encounter(ev.a, ev.b, ev.time))
    return encounters, sim


@settings(max_examples=80, deadline=None)
@given(replays())
def test_event_set_replay_matches_merge_replay(replay):
    config, contacts, contents, windows = replay
    # a roster of every agent plus silent ones, and one that omits the trace agents
    for roster in (AGENTS + ["s1", "s2"], ["s1"]):
        ref_encounters, ref_lkgs, ref_rows, ref_policies = merge_replay(
            config, contacts, contents, windows, roster
        )

        # the replay does not call encounter; fed the same contacts in the
        # same order, it moves the items that the merges move, none between
        # equal knowledge included
        encounters, stepped = encounters_in_step_order(config, contacts, contents, roster)
        assert encounters == ref_encounters
        assert dict(stepped.lkgs) == ref_lkgs

        sim = Simulation(config, roster)
        rows = sim.run_windows(contacts, contents, windows)
        assert dict(sim.lkgs) == ref_lkgs
        assert rows == ref_rows
        assert {a: (p.observed, p.downloaded) for a, p in sim.policies.items()} == {
            a: (p.observed, p.downloaded) for a, p in ref_policies.items()
        }


@settings(max_examples=40, deadline=None)
@given(replays())
def test_agents_outside_both_views_are_not_scored(replay):
    """An agent that is a user of neither view is not scored; rows stay the same."""
    config, contacts, contents, windows = replay
    roster = AGENTS + ["s1", "s2"]
    _, _, ref_rows, _ = merge_replay(config, contacts, contents, windows, roster)
    real_metrics = simulator.compute_step_metrics
    skipped = []

    def checked_metrics(gkg, views, holders, weight, top_n, **kwargs):
        CountedScorer.targets.clear()  # discovery scoring after the step's contacts
        row = real_metrics(gkg, views, holders, weight, top_n, **kwargs)
        scored = set(CountedScorer.targets)
        ui, it = views
        global_graph = view_graph(gkg, (ui[0], it[0]))
        for v, group in enumerate(holders, start=1):
            local_graph = view_graph(gkg, (ui[v], it[v]))
            outside = [a for a in group if a not in local_graph.users | global_graph.users]
            assert not set(outside) & scored
            # scored, both of their lists would be empty, and the row skips those
            for agent in outside:
                for graph in (local_graph, global_graph):
                    scores = simulator.pliers_tripartite(graph, agent, weight)
                    assert not simulator.rank(scores, graph, top_n).ranked
            skipped.extend(outside)
        return row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recommend, "Scorer", CountedScorer)
        patch.setattr(CountedScorer, "targets", [])
        patch.setattr(simulator, "compute_step_metrics", checked_metrics)
        rows = Simulation(config, roster).run_windows(contacts, contents, windows)
    assert rows == ref_rows
    assert {"s1", "s2"} <= set(skipped)


@settings(max_examples=60, deadline=None)
@given(replays(), st.lists(st.integers(30, 400), min_size=1, max_size=3))
def test_masked_views_equal_built_graphs(replay, more_windows):
    """Every view scored on the stacked global index as on its own graph's index.

    Each time the replay takes masks, for a metric step of a window or for
    a batch of discoveries, its rows are stacked into one index, and every
    target is scored on its row of every view in one ``Scorer.rows`` pass.
    Each row holds the edges of its event set's own graph pruned at the
    cutoff; each score row equals with ``==`` the target's row on the index
    of that graph over its items, every other item scores exactly 0, and
    the mask-count Jaccard with row 0 equals the edge-map Jaccard.
    """
    config, contacts, contents, windows = replay
    roster = AGENTS + ["s1", "s2"]
    pliers = recommend.scorer("pliers", 1, config.affinity_weight)
    targets = [*roster, "nobody"]
    sim = Simulation(config, roster)
    real_masks = sim.masks
    checked = []

    def checked_masks(bitsets, cutoff=0):
        ui, it = real_masks(bitsets, cutoff)
        index = sim.gkg.index()
        n_users = len(index.users)
        user_rows = [index.user_pos.get(t, -1) for t in targets]
        rows = [v * n_users + u if u >= 0 else -1 for v in range(len(bitsets)) for u in user_rows]
        got = pliers.rows(index.stacked(ui, it), np.array(rows, np.intp))
        # prune_older_than keeps the items created at or after now - window
        graphs = [prune_older_than(graph_of(sim, bits), cutoff, 0) for bits in bitsets]
        for v, (graph, graph_sim) in enumerate(zip(graphs, simulator._mask_jaccards((ui, it)))):
            held = view_graph(sim.gkg, (ui[v], it[v]))
            assert held.user_item_edges.keys() == graph.user_item_edges.keys()
            assert held.item_tag_edges.keys() == graph.item_tag_edges.keys()
            for want in rows_over(pliers, graph, index.items, targets):
                assert next(got).tolist() == want
            assert graph_sim == jaccard(graph.flatten(), graphs[0].flatten())
            checked.append(bitsets[v])
        return ui, it

    sim.masks = checked_masks
    sim.run_windows(contacts, contents, list(dict.fromkeys([*windows, *more_windows])))
    assert checked


@settings(max_examples=200, deadline=None)
@given(
    contents=st.lists(
        st.builds(
            ContentEvent,
            time=st.integers(0, 99),
            creator=st.sampled_from(AGENTS),
            item=st.sampled_from(["i0", "i1", "i2"]),
            tags=st.lists(
                st.sampled_from(["t0", "t1", "t2"]), min_size=1, max_size=3, unique=True
            ).map(tuple),
        ),
        max_size=9,
    ),
    bitsets=st.lists(st.integers(0, (1 << 9) - 1), max_size=5),
    cutoff=st.integers(-5, 105),
)
@example(contents=[], bitsets=[0, 3], cutoff=50)
def test_masks_equal_pair_reference(contents, bitsets, cutoff):
    """Grouped ORs give the masks that writing each held (view, event) pair gives."""
    sim = Simulation(SimConfig(), AGENTS)
    for ev in contents:
        sim.apply_content(ev)
    bitsets = [bits & ((1 << len(contents)) - 1) for bits in bitsets]
    got, want = sim.masks(bitsets, cutoff), reference_masks(sim, bitsets, cutoff)
    for g, w in zip(got, want):
        assert g.dtype == bool and g.shape == w.shape
        assert g.tolist() == w.tolist()


RANKED_ITEMS = ["i0", "i1", "i2", "i3", "i4"]
# few distinct values, so that rows hold exact ties and zeros
score_rows = st.lists(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 4.0),
    min_size=len(RANKED_ITEMS),
    max_size=len(RANKED_ITEMS),
)


@settings(max_examples=300, deadline=None)
@given(
    owned=st.lists(st.sets(st.sampled_from(RANKED_ITEMS)), min_size=1, max_size=3),
    pairs=st.lists(st.tuples(st.integers(0, 3), score_rows, score_rows), min_size=1, max_size=6),
    top_n=st.none() | st.integers(0, 4),
)
# an empty pair, two disjoint lists, and lists that only owned items would fill
@example(
    owned=[{"i0", "i1"}],
    pairs=[
        (1, [0.0] * 5, [0.0] * 5),
        (0, [0.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0, 0.5]),
        (0, [3.0, 3.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0, 0.0]),
    ],
    top_n=None,
)
def test_block_similarities_equal_references(owned, pairs, top_n):
    """Block ranking equals ``rank``, and its pair similarities the reference functions.

    Each pair is one agent's local and global score rows. Users are the
    index's users; ``z`` owns every item, so its lists are empty.
    """
    gkg = FolksonomyGraph()
    for item in RANKED_ITEMS:
        gkg.add_content("z", item, ("t",), 0)
    for u, items in enumerate(owned):
        for item in sorted(items):
            gkg.add_content(f"u{u}", item, ("t",), 0)
    index = gkg.index()
    names = [index.users[k % len(index.users)] for k, _, _ in pairs]
    scores = np.array([row for _, local, glob in pairs for row in (local, glob)])
    users = np.array([index.user_pos[name] for name in names], np.intp).repeat(2)
    row, item, place = simulator._ranked_rows(index, users, scores.copy(), top_n)
    got = simulator._pair_similarities(scores.shape, row, item, place)
    assert len(got) == len(pairs)
    for i, name in enumerate(names):
        lists = []
        for r in (2 * i, 2 * i + 1):
            want = rank(ScoreVector(name, index.items, scores[r]), gkg, top_n).items
            assert [index.items[j] for j in item[row == r].tolist()] == want
            assert place[row == r].tolist() == list(range(1, len(want) + 1))
            lists.append(want)
        lk, gk = lists
        expected = None
        if lk or gk:
            expected = (
                jaccard(set(lk), set(gk)),
                spearman_similarity(lk, gk, "corrected"),
                spearman_similarity(lk, gk, "literal"),
            )
        assert got[i] == expected
