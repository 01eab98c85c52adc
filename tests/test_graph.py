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
from pliersim.recommend import GraphIndex
from pliersim.simulator import ContentEvent, SimConfig, Simulation

from conftest import build_random_graph
from oracles import creation_times, merged_components, prune_older_than, window_graphs


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


def random_replay(rng: random.Random) -> Simulation:
    """Items announced by one or more users at random times, then random contacts.

    Re-announcements may come earlier than the first one, and contacts leave
    the agents knowing different subsets of the events.
    """
    users = [f"u{i}" for i in range(rng.randint(2, 8))]
    tags = [f"t{i}" for i in range(rng.randint(1, 6))]
    sim = Simulation(SimConfig(), users)
    for idx in range(rng.randint(1, 15)):
        item_tags = tuple(rng.sample(tags, rng.randint(1, min(3, len(tags)))))
        for user in rng.sample(users, rng.randint(1, len(users))):
            sim.apply_content(ContentEvent(rng.randint(0, 100), user, f"i{idx}", item_tags))
    for _ in range(rng.randint(0, 10)):
        sim.encounter(*rng.sample(users, 2), 100)
    return sim


class TestAddContent:
    def test_counts_after_single_insert(self):
        g = FolksonomyGraph()
        g.add_content("u1", "i1", ["t1", "t2"], 60)
        assert len(g.users) == 1
        assert len(g.items) == 1
        assert len(g.tags) == 2
        assert len(g.user_item_edges) == 1
        assert len(g.item_tag_edges) == 2

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
        assert g.item_tag_edges[("i1", "t1")] == 10
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

    def test_associativity_against_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            a = build_random_graph(rng, 6, 6, 4)
            b = build_random_graph(rng, 6, 6, 4)
            c = build_random_graph(rng, 6, 6, 4)
            left = a.copy()
            left.merge(b)
            ui, it = merged_components(left, c)
            left.merge(c)
            right_bc = b.copy()
            right_bc.merge(c)
            right = a.copy()
            right.merge(right_bc)
            assert left == right
            assert dict(left.user_item_edges) == ui
            assert dict(left.item_tag_edges) == it

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
    """Expiry as the window views of a replay: the graphs of the live events."""

    def test_wide_window_changes_nothing(self, rng):
        for _ in range(20):
            sim = random_replay(rng)
            lviews, gview = window_graphs(sim, now=10**9, window=10**9)
            assert lviews == dict(sim.lkgs)
            assert gview == sim.gkg

    def test_full_expiry(self):
        sim = Simulation(SimConfig(), ["u1"])
        sim.apply_content(ContentEvent(0, "u1", "i1", ("t1",)))
        lviews, gview = window_graphs(sim, now=7200, window=3600)
        for view in (lviews["u1"], gview):
            assert len(view.items) == 0
            assert len(view.users) == 0 and len(view.tags) == 0

    def test_against_brute_force_filter(self, rng):
        for _ in range(20):
            sim = random_replay(rng)
            times = sorted(creation_times(sim.gkg).values())
            now = times[-1]
            window = max(1, now - times[len(times) // 2])
            lviews, gview = window_graphs(sim, now, window)
            for view, graph in [(gview, sim.gkg), *((lviews[a], sim.lkgs[a]) for a in lviews)]:
                keep = {i for i, t in creation_times(graph).items() if t >= now - window}
                assert set(view.items) == keep
                assert dict(view.user_item_edges) == {
                    e: t for e, t in graph.user_item_edges.items() if e[1] in keep
                }
                assert dict(view.item_tag_edges) == {
                    e: t for e, t in graph.item_tag_edges.items() if e[0] in keep
                }
                assert view == prune_older_than(graph, now, window)

    def test_idempotent_and_no_isolated_nodes(self, rng):
        for _ in range(20):
            sim = random_replay(rng)
            lviews, gview = window_graphs(sim, 100, 40)
            for view in [gview, *lviews.values()]:
                assert prune_older_than(view, 100, 40) == view
                for u in view.users:
                    assert view.items_of_user(u)
                for t in view.tags:
                    assert view.items_of_tag(t)
                view.validate()

    def test_age_bound(self, rng):
        for _ in range(20):
            sim = random_replay(rng)
            lviews, gview = window_graphs(sim, 100, 30)
            for view in [gview, *lviews.values()]:
                assert all(100 - t <= 30 for t in creation_times(view).values())


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
        # so the flattened edge set plus the creation times determines the graph
        single = FolksonomyGraph()
        created = creation_times(g)
        for (u, i) in g.user_item_edges:
            single.add_content(u, i, sorted(g.tags_of_item(i)), created[i])
        rebuilt = FolksonomyGraph()
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
        # a model of the edge maps: the earliest time each edge was inserted with
        ui, it = merged_components(a, FolksonomyGraph())

        def check(g):
            g.validate()
            assert dict(g.user_item_edges) == ui and dict(g.item_tag_edges) == it

        check(a)
        m = a.copy()
        check(m)
        m.merge(b)
        ui, it = merged_components(a, b)
        check(m)
        u, i, tags, t = data.draw(
            st.tuples(st.integers(0, 4), st.integers(0, 7),
                      st.lists(st.integers(0, 4), min_size=1, max_size=3), st.integers(0, 100))
        )
        m.add_content(f"u{u}", f"i{i}", [f"t{x}" for x in tags], t)
        ui[(f"u{u}", f"i{i}")] = min(ui.get((f"u{u}", f"i{i}"), t), t)
        for x in tags:
            it[(f"i{i}", f"t{x}")] = min(it.get((f"i{i}", f"t{x}"), t), t)
        check(m)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.tsv"
            save_graph_tsv(m, path)
            loaded = load_graph_tsv(path)
        check(loaded)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_never_stale(self, seed, data):
        # window views taken before an earlier re-announcement of an item
        # must not be served after it, nor scored on the index from before it
        sim = random_replay(random.Random(seed))
        item = data.draw(st.sampled_from(sorted(sim.gkg.items)))
        created = creation_times(sim.gkg)[item]
        if created == 0:
            return
        sim.window_views(created + 1, 1)
        before = sim.gkg.derived(GraphIndex)
        earlier = created - data.draw(st.integers(1, created))
        sim.apply_content(ContentEvent(earlier, "u0", item, ("t9",)))
        # the cutoff earlier + 1 keeps an item created at ``created`` only
        lviews, gview = window_graphs(sim, created + 1, created - earlier)
        assert item not in gview.items and item not in lviews["u0"].items
        assert gview == prune_older_than(sim.gkg, created + 1, created - earlier)
        index = sim.gkg.derived(GraphIndex)
        assert index is not before and "t9" in index.tags
        ui, it = sim.masks(list(sim.window_views(created + 1, created - earlier)[0].values()))
        assert ui.shape[1] == len(sim.gkg.user_item_edges)
        assert it.shape[1] == len(sim.gkg.item_tag_edges)


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
        ):
            mutate()
            assert g.derived(edge_count) == edges
        assert len(calls) == 3
        assert g.copy().derived(edge_count) == 6
        assert len(calls) == 4


def assert_views_match_edge_maps(g: FolksonomyGraph) -> None:
    """Every adjacency accessor equals sets built by brute force from the edge maps."""
    ui, it = list(g.user_item_edges), list(g.item_tag_edges)
    users = {u for u, _ in ui}
    items = {i for _, i in ui}
    tags = {t for _, t in it}
    assert set(g.users) == users and set(g.items) == items and set(g.tags) == tags
    for u in users | {"nobody"}:
        assert g.items_of_user(u) == {i for v, i in ui if v == u}
    for i in items | {"nothing"}:
        assert g.users_of_item(i) == {u for u, j in ui if j == i}
        assert g.item_popularity(i) == len(g.users_of_item(i))
        assert g.tags_of_item(i) == {t for j, t in it if j == i}
    for t in tags | {"nothing"}:
        assert g.items_of_tag(t) == {i for i, s in it if s == t}
    g.validate()


class TestReadsFollowMutations:
    @settings(max_examples=80, deadline=None)
    @given(
        graphs(),
        graphs(),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 7),
                      st.lists(st.integers(0, 5), min_size=1, max_size=3), st.integers(0, 100)),
            max_size=4,
        ),
    )
    def test_accessors_after_every_mutation(self, a, b, contents):
        # each check fills the derived views, so a view left stale by the next
        # mutation would fail the check after it
        assert_views_match_edge_maps(a)
        for u, i, tags, t in contents:
            a.add_content(f"u{u}", f"i{i}", [f"t{x}" for x in tags], t)
            assert_views_match_edge_maps(a)
        a.merge(b)
        assert_views_match_edge_maps(a)
        ui, it = dict(a.user_item_edges), dict(a.item_tag_edges)
        built = FolksonomyGraph(ui, it)
        assert_views_match_edge_maps(built)
        assert built == a
        # the graph holds copies of the maps it was built from
        ui[("u_new", "i_new")] = it[("i_new", "t_new")] = 0
        assert built == a
        a.add_content("u_new", "i_new", ["t_new"], 0)
        assert "i_new" in a.items and "i_new" not in built.items
        assert_views_match_edge_maps(a)
        assert_views_match_edge_maps(built)

    def test_sets_read_before_a_mutation_do_not_follow_it(self):
        g = FolksonomyGraph({("u1", "i1"): 0}, {("i1", "t1"): 0})
        held = g.items_of_user("u1")
        g.add_content("u1", "i2", ["t1"], 5)
        assert held == {"i1"} and g.items_of_user("u1") == {"i1", "i2"}

    def test_validate_needs_a_user_and_a_tag_on_every_item(self):
        FolksonomyGraph().validate()
        with pytest.raises(AssertionError):
            FolksonomyGraph({("u1", "i1"): 0}, {}).validate()
        with pytest.raises(AssertionError):
            FolksonomyGraph({}, {("i1", "t1"): 0}).validate()


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
        assert dict(g.user_item_edges) == {("u1", "i1"): 5}

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
