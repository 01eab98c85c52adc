import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pliersim.graph import (
    FolksonomyGraph,
    GraphFormatError,
    load_graph_tsv,
    save_graph_tsv,
)
from pliersim.evaluation import jaccard

from conftest import build_random_graph
from oracles import merged_components


@st.composite
def graphs(draw):
    records = draw(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 5),
                st.lists(st.integers(0, 4), min_size=1, max_size=3),
                st.integers(0, 100),
            ),
            max_size=12,
        )
    )
    g = FolksonomyGraph()
    for u, i, tags, t in records:
        g.add_content(f"u{u}", f"i{i}", [f"t{x}" for x in tags], t)
    return g


def earliest_edge_times(g: FolksonomyGraph) -> dict[str, int]:
    """Item -> earliest time of any incident edge, read off the adjacency sets."""
    return {
        i: min(
            [g.user_item_edges[(u, i)] for u in g.users_of_item(i)]
            + [g.item_tag_edges[(i, t)] for t in g.tags_of_item(i)]
        )
        for i in g.items
    }


class TestAddContent:
    def test_counts_after_single_insert(self):
        g = FolksonomyGraph()
        g.add_content("u1", "i1", ["t1", "t2"], 60)
        assert len(g.users) == 1
        assert len(g.items) == 1
        assert len(g.tags) == 2
        assert len(g.user_item_edges) == 1
        assert len(g.item_tag_edges) == 2
        assert g.item_created_at["i1"] == 60

    def test_idempotent(self):
        g1 = FolksonomyGraph()
        g1.add_content("u1", "i1", ["t1", "t2"], 60)
        g2 = FolksonomyGraph()
        g2.add_content("u1", "i1", ["t1", "t2"], 60)
        g2.add_content("u1", "i1", ["t1", "t2"], 60)
        assert g1 == g2

    def test_empty_tags_rejected(self):
        g = FolksonomyGraph()
        with pytest.raises(ValueError):
            g.add_content("u1", "i1", [], 0)

    def test_reannouncement_keeps_earliest_time(self):
        g = FolksonomyGraph()
        g.add_content("u1", "i1", ["t1"], 50)
        g.add_content("u2", "i1", ["t1"], 10)
        assert g.item_created_at["i1"] == 10
        assert g.user_item_edges[("u1", "i1")] == 50
        assert g.user_item_edges[("u2", "i1")] == 10
        g.validate()

    def test_same_key_as_item_and_tag(self):
        g = FolksonomyGraph()
        g.add_content("u1", "x", ["x"], 0)
        assert "x" in g.items and "x" in g.tags


class TestMerge:
    def test_self_merge_is_identity(self, rng):
        g = build_random_graph(rng)
        before = g.copy()
        g.merge(g.copy())
        assert g == before

    def test_disjoint_union_adds_counts(self):
        a = FolksonomyGraph()
        a.add_content("u1", "i1", ["t1"], 0)
        b = FolksonomyGraph()
        b.add_content("u2", "i2", ["t2"], 0)
        a.merge(b)
        assert len(a.users) == 2 and len(a.items) == 2 and len(a.tags) == 2
        assert len(a.user_item_edges) == 2 and len(a.item_tag_edges) == 2

    def test_earlier_timestamp_wins(self):
        a = FolksonomyGraph()
        a.add_content("u1", "i1", ["t1"], 30)
        b = FolksonomyGraph()
        b.add_content("u1", "i1", ["t1"], 10)
        a.merge(b)
        assert a.user_item_edges[("u1", "i1")] == 10
        assert a.item_tag_edges[("i1", "t1")] == 10
        assert a.item_created_at["i1"] == 10

    def test_associativity_against_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            a = build_random_graph(rng, 6, 6, 4)
            b = build_random_graph(rng, 6, 6, 4)
            c = build_random_graph(rng, 6, 6, 4)
            left = a.copy()
            left.merge(b)
            ui, it, created = merged_components(left, c)
            left.merge(c)
            right_bc = b.copy()
            right_bc.merge(c)
            right = a.copy()
            right.merge(right_bc)
            assert left == right
            assert dict(left.user_item_edges) == ui
            assert dict(left.item_tag_edges) == it
            assert dict(left.item_created_at) == created

    @settings(max_examples=60, deadline=None)
    @given(graphs(), graphs())
    def test_commutative_and_monotone(self, a, b):
        ab = a.copy()
        ab.merge(b)
        ba = b.copy()
        ba.merge(a)
        assert ab == ba
        assert a.flatten() <= ab.flatten() and b.flatten() <= ab.flatten()


class TestPrune:
    def test_wide_window_changes_nothing(self, rng):
        g = build_random_graph(rng)
        assert g.prune_older_than(now=10**9, window=10**9) == g

    def test_full_expiry(self):
        g = FolksonomyGraph()
        g.add_content("u1", "i1", ["t1"], 0)
        pruned = g.prune_older_than(now=7200, window=3600)
        assert len(pruned.items) == 0
        assert len(pruned.users) == 0 and len(pruned.tags) == 0

    def test_against_brute_force_filter(self, rng):
        g = build_random_graph(rng)
        times = sorted(g.item_created_at.values())
        now = times[-1]
        window = now - times[len(times) // 2]
        if window <= 0:
            window = 1
        pruned = g.prune_older_than(now, window)
        keep = {i for i, t in g.item_created_at.items() if t >= now - window}
        assert set(pruned.items) == keep
        assert dict(pruned.user_item_edges) == {
            e: t for e, t in g.user_item_edges.items() if e[1] in keep
        }
        assert dict(pruned.item_tag_edges) == {
            e: t for e, t in g.item_tag_edges.items() if e[0] in keep
        }

    def test_idempotent_and_no_isolated_nodes(self, rng):
        g = build_random_graph(rng)
        pruned = g.prune_older_than(100, 40)
        assert pruned.prune_older_than(100, 40) == pruned
        for u in pruned.users:
            assert pruned.items_of_user(u)
        for t in pruned.tags:
            assert pruned.items_of_tag(t)
        pruned.validate()

    def test_age_bound(self, rng):
        g = build_random_graph(rng)
        pruned = g.prune_older_than(100, 30)
        assert all(100 - t <= 30 for t in pruned.item_created_at.values())


class TestFlatten:
    def test_empty(self):
        assert FolksonomyGraph().flatten() == set()

    def test_three_tuples(self):
        g = FolksonomyGraph()
        g.add_content("u1", "i1", ["t1", "t2"], 0)
        assert g.flatten() == {
            ("UI", "u1", "i1"),
            ("IT", "i1", "t1"),
            ("IT", "i1", "t2"),
        }

    def test_self_jaccard_is_one(self, rng):
        g = build_random_graph(rng)
        assert jaccard(g.flatten(), g.flatten()) == 1.0

    def test_size_is_edge_count(self, rng):
        g = build_random_graph(rng)
        assert len(g.flatten()) == len(g.user_item_edges) + len(g.item_tag_edges)

    @settings(max_examples=60, deadline=None)
    @given(graphs(), graphs())
    def test_flatten_of_merge_is_union(self, a, b):
        m = a.copy()
        m.merge(b)
        assert m.flatten() == a.flatten() | b.flatten()

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_flatten_with_creation_times_reconstructs_graph(self, g):
        # every edge of a gossip-built graph carries its item's creation time,
        # so the flattened edge set plus item_created_at determines the graph
        single = FolksonomyGraph()
        for (u, i) in g.user_item_edges:
            single.add_content(u, i, sorted(g.tags_of_item(i)), g.item_created_at[i])
        rebuilt = FolksonomyGraph()
        created = dict(single.item_created_at)
        tags_by_item: dict[str, list[str]] = {}
        for kind, x, y in sorted(single.flatten()):
            if kind == "IT":
                tags_by_item.setdefault(x, []).append(y)
        for kind, u, i in sorted(single.flatten()):
            if kind == "UI":
                rebuilt.add_content(u, i, tags_by_item[i], created[i])
        assert rebuilt == single


class TestCreationTimes:
    @settings(max_examples=80, deadline=None)
    @given(graphs(), graphs(), st.data())
    def test_earliest_incident_edge_after_every_operation(self, a, b, data):
        def check(g):
            g.validate()
            assert g.item_created_at == earliest_edge_times(g)

        check(a)
        m = a.copy()
        check(m)
        m.merge(b)
        check(m)
        if m.user_item_edges:
            m.remove_user_item_edge(*data.draw(st.sampled_from(sorted(m.user_item_edges))))
            check(m)
        u, i, tags, t = data.draw(
            st.tuples(st.integers(0, 4), st.integers(0, 7),
                      st.lists(st.integers(0, 4), min_size=1, max_size=3), st.integers(0, 100))
        )
        m.add_content(f"u{u}", f"i{i}", [f"t{x}" for x in tags], t)
        check(m)
        now, window = data.draw(st.integers(0, 120)), data.draw(st.integers(1, 120))
        pruned = m.prune_older_than(now, window)
        check(pruned)
        assert pruned.item_created_at == {
            i: t for i, t in m.item_created_at.items() if t >= now - window
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.tsv"
            save_graph_tsv(m, path)
            loaded = load_graph_tsv(path)
        check(loaded)
        assert loaded.item_created_at == m.item_created_at

    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.data())
    def test_never_stale(self, g, data):
        if not g.items:
            return
        item = data.draw(st.sampled_from(sorted(g.items)))
        created = g.item_created_at[item]
        earlier = created - data.draw(st.integers(1, 50))
        g.add_content("u9", item, ["t9"], earlier)
        assert g.item_created_at[item] == earlier
        # the cutoff earlier + 1 keeps an item created at ``created`` only
        assert item not in g.prune_older_than(created + 1, created - earlier).items

    def test_snapshot_removal_follows_remaining_edges(self, tmp_path):
        # a snapshot may hold a user link older than every tag link; with that
        # link gone, the item's creation time is its next-earliest edge time
        path = tmp_path / "graph.tsv"
        path.write_text("UI\tu1\ti1\t5\nUI\tu2\ti1\t20\nIT\ti1\tt1\t10\n")
        g = load_graph_tsv(path)
        assert g.item_created_at["i1"] == 5
        g.remove_user_item_edge("u1", "i1")
        assert g.item_created_at["i1"] == 10


class TestDegrees:
    def test_degree_sums_match_edge_counts(self, rng):
        g = build_random_graph(rng)
        assert sum(g.item_popularity(i) for i in g.items) == len(g.user_item_edges)


class TestDerived:
    def test_computed_once_until_mutated(self):
        calls = []

        def edge_count(graph):
            calls.append(1)
            return len(graph.user_item_edges) + len(graph.item_tag_edges)

        g = FolksonomyGraph()
        g.add_content("u1", "i1", ["t1"], 0)
        assert g.derived(edge_count) == 2
        assert g.derived(edge_count) == 2
        assert len(calls) == 1
        other = FolksonomyGraph()
        other.add_content("u2", "i2", ["t1"], 0)
        for mutate, edges in (
            (lambda: g.add_content("u1", "i3", ["t2"], 1), 4),
            (lambda: g.merge(other), 6),
            (lambda: g.remove_user_item_edge("u1", "i3"), 4),
        ):
            mutate()
            assert g.derived(edge_count) == edges
        assert len(calls) == 4
        assert g.copy().derived(edge_count) == 4
        assert len(calls) == 5


class TestSnapshotFile:
    def test_round_trip(self, rng, tmp_path):
        g = build_random_graph(rng)
        path = tmp_path / "graph.tsv"
        save_graph_tsv(g, path)
        assert load_graph_tsv(path) == g

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("# comment\n\nUI\tu1\ti1\t5\nIT\ti1\tt1\t5\n")
        g = load_graph_tsv(path)
        assert set(g.users) == {"u1"} and set(g.tags) == {"t1"}
        assert g.item_created_at["i1"] == 5

    def test_dangling_item_without_tags_rejected(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("UI\tu1\ti1\t5\n")
        with pytest.raises(GraphFormatError):
            load_graph_tsv(path)

    def test_dangling_item_without_user_rejected(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("UI\tu1\ti1\t5\nIT\ti1\tt1\t5\nIT\ti2\tt1\t6\n")
        with pytest.raises(GraphFormatError):
            load_graph_tsv(path)

    @pytest.mark.parametrize(
        "line",
        ["XX\tu1\ti1\t5", "UI\tu1\ti1", "UI\tu1\ti1\tsoon", "UI\t\ti1\t5"],
    )
    def test_malformed_records_rejected(self, tmp_path, line):
        path = tmp_path / "graph.tsv"
        path.write_text(line + "\n")
        with pytest.raises(GraphFormatError):
            load_graph_tsv(path)
