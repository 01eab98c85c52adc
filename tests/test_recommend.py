import contextlib
import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scorers
from pliersim import cli, recommend
from pliersim.evaluation import prune_for_link_prediction
from pliersim.graph import FolksonomyGraph
from pliersim.synth import generate_folksonomy
from pliersim.recommend import (
    ALGORITHMS,
    RecommendationVector,
    ScoreVector,
    Scorer,
    cf_user_based,
    heats_scores,
    hybrid_scores,
    pliers_tripartite,
    probs_scores,
    rank,
    tag_expansion,
)

from conftest import build_random_graph, eq1_hand_graph, random_target
from oracles import (
    heats_oracle,
    pliers_oracle,
    probs_oracle,
    rows_over,
    similarity_oracle,
    view_graph,
)


# the two PLIERS indices are kernels, with no single-target function of their own
affinity_scores = Scorer(recommend._affinity)
similarity_scores = Scorer(recommend._similarity)


def close(a, b, tol=1e-9):
    return all(abs(a[k] - b[k]) <= tol for k in set(a) | set(b))


class TestProbs:
    def test_hand_case(self):
        g = eq1_hand_graph()
        scores = probs_scores(g, "u_t").scores
        assert scores["i1"] == pytest.approx(3 / 4, abs=1e-12)
        assert scores["i2"] == pytest.approx(1 / 4, abs=1e-12)

    def test_mass_conservation(self, rng):
        for _ in range(30):
            g = build_random_graph(rng)
            target = random_target(rng, g)
            scores = probs_scores(g, target).scores
            assert sum(scores.values()) == pytest.approx(
                len(g.items_of_user(target)), abs=1e-12
            )

    def test_cold_start_gives_zero_vector(self, rng):
        g = build_random_graph(rng)
        scores = probs_scores(g, "nobody").scores
        assert set(scores) == set(g.items)
        assert all(v == 0.0 for v in scores.values())

    def test_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            g = build_random_graph(rng, 10, 10, 6)
            target = random_target(rng, g)
            assert close(probs_scores(g, target).scores, probs_oracle(g, target))


class TestHeats:
    def test_hand_case(self):
        g = eq1_hand_graph()
        scores = heats_scores(g, "u_t").scores
        assert scores["i1"] == pytest.approx(3 / 4, abs=1e-12)
        assert scores["i2"] == pytest.approx(1 / 2, abs=1e-12)

    def test_single_user_single_item(self):
        g = FolksonomyGraph()
        g.add_content("u1", "i1", ["t1"], 0)
        assert heats_scores(g, "u1").scores["i1"] == 1.0

    def test_matches_oracle(self):
        rng = random.Random(12)
        for _ in range(50):
            g = build_random_graph(rng, 10, 10, 6)
            target = random_target(rng, g)
            assert close(heats_scores(g, target).scores, heats_oracle(g, target))


class TestHybrid:
    def test_hand_case(self):
        g = eq1_hand_graph()
        scores = hybrid_scores(g, "u_t", 0.5).scores
        assert scores["i2"] == pytest.approx(0.325, abs=1e-12)

    def test_endpoints_reproduce_base_rankings(self):
        rng = random.Random(13)
        for _ in range(100):
            g = build_random_graph(rng, 8, 8, 5)
            target = random_target(rng, g)
            assert (
                rank(hybrid_scores(g, target, 1.0), g).item_keys()
                == rank(probs_scores(g, target), g).item_keys()
            )
            assert (
                rank(hybrid_scores(g, target, 0.0), g).item_keys()
                == rank(heats_scores(g, target), g).item_keys()
            )

    def test_weight_validated(self):
        g = eq1_hand_graph()
        with pytest.raises(ValueError):
            hybrid_scores(g, "u_t", 1.5)


class TestPliersBipartite:
    def test_hand_case(self):
        g = eq1_hand_graph()
        assert affinity_scores(g, "u_t").scores["i2"] == pytest.approx(
            1 / 4, abs=1e-12
        )

    def test_no_shared_user_scores_zero(self):
        g = FolksonomyGraph()
        g.add_content("u_t", "i1", ["t1"], 0)
        g.add_content("u2", "i2", ["t1"], 0)
        assert affinity_scores(g, "u_t").scores["i2"] == 0.0

    def test_matches_oracle(self):
        rng = random.Random(14)
        for _ in range(50):
            g = build_random_graph(rng, 10, 10, 6)
            target = random_target(rng, g)
            assert close(affinity_scores(g, target).scores, pliers_oracle(g, target))

    def test_bounded_by_probs(self, rng):
        for _ in range(30):
            g = build_random_graph(rng)
            target = random_target(rng, g)
            pl = affinity_scores(g, target).scores
            pr = probs_scores(g, target).scores
            for item in pl:
                assert -1e-15 <= pl[item] <= pr[item] + 1e-12


class TestAffinityAndSimilarity:
    def test_similarity_hand_case(self):
        g = eq1_hand_graph()
        assert similarity_scores(g, "u_t").scores["i2"] == pytest.approx(
            1 / 2, abs=1e-12
        )

    def test_no_shared_tag_scores_zero(self):
        g = FolksonomyGraph()
        g.add_content("u_t", "i1", ["t1"], 0)
        g.add_content("u_t", "i2", ["t2"], 0)
        g.add_content("u2", "i3", ["t3"], 0)
        assert similarity_scores(g, "u_t").scores["i3"] == 0.0

    def test_similarity_matches_oracle(self):
        rng = random.Random(15)
        for _ in range(50):
            g = build_random_graph(rng, 10, 10, 6)
            target = random_target(rng, g)
            assert close(
                similarity_scores(g, target).scores, similarity_oracle(g, target)
            )


class TestTripartite:
    def test_endpoints_elementwise(self, rng):
        for _ in range(20):
            g = build_random_graph(rng, 8, 8, 5)
            target = random_target(rng, g)
            assert (
                pliers_tripartite(g, target, 1.0).scores
                == affinity_scores(g, target).scores
            )
            assert (
                pliers_tripartite(g, target, 0.0).scores
                == similarity_scores(g, target).scores
            )

    def test_hand_case_combination(self):
        g = eq1_hand_graph()
        scores = pliers_tripartite(g, "u_t", 0.5).scores
        assert scores["i2"] == pytest.approx(0.375, abs=1e-12)


class TestCollaborativeFiltering:
    def test_identical_item_sets_have_cosine_one(self):
        g = FolksonomyGraph()
        for u in ("u1", "u2"):
            g.add_content(u, "i1", ["t1"], 0)
            g.add_content(u, "i2", ["t1"], 0)
        assert reference_scorers.cosine_user_similarity(g, "u1", "u2") == pytest.approx(1.0)

    def test_single_neighbour_hand_case(self):
        g = FolksonomyGraph()
        g.add_content("u_t", "i1", ["t1"], 0)
        g.add_content("u2", "i1", ["t1"], 0)
        g.add_content("u2", "i2", ["t1"], 0)
        scores = cf_user_based(g, "u_t", 1).scores
        assert scores["i2"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_no_other_users_gives_zero_vector(self):
        g = FolksonomyGraph()
        g.add_content("u_t", "i1", ["t1"], 0)
        assert all(v == 0.0 for v in cf_user_based(g, "u_t", 3).scores.values())

    def test_growing_k_never_drops_items(self, rng):
        for _ in range(20):
            g = build_random_graph(rng, 10, 10, 5)
            target = random_target(rng, g)
            previous: set[str] = set()
            for k in (1, 2, 4, 8, 16):
                nonzero = {
                    i for i, s in cf_user_based(g, target, k).scores.items() if s > 0
                }
                assert previous <= nonzero
                previous = nonzero

    def test_k_validated(self):
        with pytest.raises(ValueError):
            cf_user_based(eq1_hand_graph(), "u_t", 0)


class TestTagExpansion:
    @staticmethod
    def _cooccurrence_graph():
        g = FolksonomyGraph()
        # t1 and t2 share three items, t1 and t3 share one
        for n in range(3):
            g.add_content("u2", f"co{n}", ["t1", "t2"], n)
        g.add_content("u3", "co3", ["t1", "t3"], 3)
        g.add_content("u_t", "mine", ["t1"], 4)
        return g

    def test_expands_to_most_cooccurring_tag(self):
        g = self._cooccurrence_graph()
        g.add_content("u4", "j2", ["t2"], 5)
        g.add_content("u4", "j3", ["t3"], 6)
        scores = tag_expansion(g, "u_t", 1).scores
        assert scores["j2"] == 1.0  # t2 expanded
        assert scores["j3"] == 0.0  # t3 not expanded at k=1

    def test_item_with_only_own_tags_scores_its_tag_count(self):
        g = FolksonomyGraph()
        g.add_content("u_t", "i1", ["t1", "t2"], 0)
        g.add_content("u2", "i2", ["t1", "t2"], 1)
        assert tag_expansion(g, "u_t", 1).scores["i2"] == 2.0

    def test_full_expansion_reaches_every_tagged_item(self, rng):
        g = build_random_graph(rng, 8, 10, 6)
        target = random_target(rng, g)
        scores = tag_expansion(g, target, len(g.tags)).scores
        assert all(scores[i] > 0 for i in g.items)

    def test_no_tags_gives_zero_vector(self):
        g = FolksonomyGraph()
        g.add_content("u2", "i1", ["t1"], 0)
        assert all(v == 0.0 for v in tag_expansion(g, "u_t", 2).scores.values())

    def test_rebuilt_graph_gets_fresh_cooccurrence(self):
        # the two graphs differ only in which tag pairs with "own", after the
        # same number of mutations; a freed graph's memory (and id) is
        # usually reused by the next one built, so "second" tends to take
        # the id of "first" (reference stays alive and keeps its own id)
        def build(paired_tag):
            g = FolksonomyGraph()
            g.add_content("u_t", "i0", ["own"], 0)
            g.add_content("u2", "i1", ["own", paired_tag], 0)
            g.add_content("u2", "i2", ["a", "z"], 0)
            return g

        reference = build("z")
        expected = tag_expansion(reference, "u_t", 1).scores
        assert expected["i1"] == 2.0
        for _ in range(200):
            first = build("a")
            tag_expansion(first, "u_t", 1)
            del first
            second = build("z")
            assert tag_expansion(second, "u_t", 1).scores == expected
            del second


class TestRank:
    def test_all_zero_scores_empty(self):
        g = eq1_hand_graph()
        empty = rank(probs_scores(g, "nobody"), g)
        assert empty.ranked == []

    def test_tie_broken_by_item_key(self):
        g = FolksonomyGraph()
        g.add_content("u_t", "i0", ["t1"], 0)
        g.add_content("u2", "i0", ["t1"], 0)
        g.add_content("u2", "i_b", ["t1"], 0)
        g.add_content("u2", "i_a", ["t1"], 0)
        rec = rank(probs_scores(g, "u_t"), g)
        assert rec.item_keys() == ["i_a", "i_b"]

    def test_top_n_on_hand_graph(self):
        g = eq1_hand_graph()
        rec = rank(affinity_scores(g, "u_t"), g, top_n=1)
        assert rec.ranked == [("i2", 0.25)]

    def test_negative_top_n_rejected(self):
        g = eq1_hand_graph()
        with pytest.raises(ValueError, match="top_n must be >= 0, got -1"):
            rank(affinity_scores(g, "u_t"), g, top_n=-1)

    def test_owned_items_filtered(self, rng):
        g = build_random_graph(rng)
        target = random_target(rng, g)
        rec = rank(probs_scores(g, target), g)
        assert not set(rec.item_keys()) & g.items_of_user(target)

    def test_lists_handed_out_are_copies(self):
        g = eq1_hand_graph()
        g.add_content("u2", "i3", ["t1"], 3)
        rec = rank(probs_scores(g, "u_t"), g)
        # u2 spreads the half unit it gets from i1 over its three items
        assert rec.ranked == [("i2", 1 / 6), ("i3", 1 / 6)]
        keys, pairs = rec.item_keys(), rec.ranked
        keys.append("i9")
        keys[0] = "i9"
        pairs.clear()
        assert rec.items == ["i2", "i3"] and rec.ranked == [("i2", 1 / 6), ("i3", 1 / 6)]
        assert rec == RecommendationVector("u_t", [("i2", 1 / 6), ("i3", 1 / 6)])

    def test_scores_are_one_float64_array_of_their_own(self):
        g = eq1_hand_graph()
        g.add_content("u2", "i3", ["t1"], 3)
        g.add_content("u3", "i4", ["t2"], 4)
        vec = affinity_scores(g, "u_t")
        for rec in (rank(vec, g), rank(vec, g, top_n=1), rank(probs_scores(g, "nobody"), g)):
            assert rec.values.dtype == np.float64 and rec.values.base is None
            assert len(rec.values) == len(rec.items)
            assert all(type(score) is float for _, score in rec.ranked)
        rec = rank(vec, g)
        assert len(rec.items) > 1
        # no view of the scored row: changing the scores leaves the list alone
        before = rec.ranked
        vec.values[:] = 0.0
        assert rec.ranked == before
        built = RecommendationVector("u_t", before)
        assert built.values.dtype == np.float64 and built == rec
        assert RecommendationVector("u_t", []).values.dtype == np.float64


# keys whose string order differs from their numeric order; capitals sort first
RANK_KEYS = sorted([f"i{n}" for n in range(24)] + ["i100", "B", "Z", "a", "b"])


class TestRankReference:
    """``rank`` on hand-built vectors against the dict-walking reference rank."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sets(st.sampled_from(RANK_KEYS), min_size=1),
        st.lists(
            st.sampled_from([0.0, 0.0, 0.25, 1 / 3, 0.5, 1.0, 2.0]),
            min_size=len(RANK_KEYS),
            max_size=len(RANK_KEYS),
        ),
        st.sets(st.sampled_from(RANK_KEYS)),
    )
    def test_hand_built_vectors(self, picked, values, owned):
        # with no owned item picked, the target is absent from the graph
        keys = sorted(picked)
        g = FolksonomyGraph()
        for item in keys:
            g.add_content("u_t" if item in owned else "u2", item, ["t"], 1)
        assert g.index().items == keys
        # owned items carry the top scores, often tied with each other
        values = [v + 4.0 if k in owned else v for k, v in zip(keys, values)]
        vec = ScoreVector("u_t", keys, np.array(values))
        assert_same_ranks(vec, vec, g)
        # the two lists are the reference's pairs unzipped, and a vector
        # built from those pairs is the same vector
        for n in RANK_TOP_N:
            rec, pairs = rank(vec, g, n), reference_scorers.rank(vec, g, n).ranked
            assert rec.items == [item for item, _ in pairs]
            assert rec.values.tolist() == [score for _, score in pairs]
            again = RecommendationVector("u_t", pairs)
            assert again == rec and again.ranked == pairs and again.item_keys() == rec.items
            assert RecommendationVector("u2", pairs) != rec

    def test_vector_over_other_keys_rejected(self):
        g = eq1_hand_graph()
        vec = probs_scores(g, "u_t")
        assert rank(ScoreVector("u_t", list(vec.items), vec.values), g).ranked == [("i2", 0.25)]
        for items in (["i1", "i3"], ["i2", "i1"], ["i1"], ["i1", "i2", "i3"]):
            with pytest.raises(ValueError, match="not over the graph's items"):
                rank(ScoreVector("u_t", items, np.ones(len(items))), g)
        # a vector scored on another graph: the same user, more items
        bigger = eq1_hand_graph()
        bigger.add_content("u2", "i3", ["t1"], 3)
        with pytest.raises(ValueError):
            rank(probs_scores(bigger, "u_t"), g)


class TestScoreVector:
    def test_equal_when_target_and_scores_are(self):
        g = eq1_hand_graph()
        vec = probs_scores(g, "u_t")
        same = ScoreVector("u_t", list(vec.items), vec.values.copy())
        assert vec == same and vec == reference_scorers.probs_scores(g, "u_t")
        assert vec != ScoreVector("u2", vec.items, vec.values)
        assert vec != ScoreVector("u_t", ["i1", "i3"], vec.values)
        assert vec != ScoreVector("u_t", vec.items, vec.values + 1.0)
        assert vec != vec.scores


class TestPermutationInvariance:
    @staticmethod
    def _relabel(graph, user_map, item_map, tag_map):
        g = FolksonomyGraph()
        for (u, i), t in graph.user_item_edges.items():
            g.add_content(
                user_map[u],
                item_map[i],
                [tag_map[x] for x in graph.tags_of_item(i)],
                t,
            )
        return g

    def test_scores_permute_with_keys(self, rng):
        for _ in range(10):
            g = build_random_graph(rng, 8, 8, 5)
            target = random_target(rng, g)
            user_map = {u: f"U-{u}" for u in g.users}
            item_map = {i: f"I-{i}" for i in g.items}
            tag_map = {t: f"T-{t}" for t in g.tags}
            relabeled = self._relabel(g, user_map, item_map, tag_map)
            for scorer in (
                probs_scores,
                heats_scores,
                affinity_scores,
                similarity_scores,
            ):
                original = scorer(g, target).scores
                permuted = scorer(relabeled, user_map[target]).scores
                for item, value in original.items():
                    assert permuted[item_map[item]] == pytest.approx(value, abs=1e-12)


class TestPopularityAffinity:
    def test_pliers_top_item_less_popular_than_probs_top(self):
        g = FolksonomyGraph()
        g.add_content("t", "A", ["g1"], 0)
        g.add_content("x1", "A", ["g1"], 0)
        g.add_content("x2", "A", ["g1"], 0)
        g.add_content("x1", "B", ["g2"], 0)
        for adopter in ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8"):
            g.add_content(adopter, "P", ["g3"], 0)
        probs_top = rank(probs_scores(g, "t"), g).item_keys()[0]
        pliers_top = rank(affinity_scores(g, "t"), g).item_keys()[0]
        assert probs_top == "P" and pliers_top == "B"
        assert len(g.users_of_item(pliers_top)) < len(g.users_of_item(probs_top))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31))
def test_score_vectors_cover_all_items_and_stay_finite(seed):
    rng = random.Random(seed)
    g = build_random_graph(rng, 8, 8, 5)
    target = random_target(rng, g)
    for scorer in (
        probs_scores,
        heats_scores,
        affinity_scores,
        similarity_scores,
        lambda gr, tg: pliers_tripartite(gr, tg, 0.5),
        lambda gr, tg: hybrid_scores(gr, tg, 0.5),
        lambda gr, tg: cf_user_based(gr, tg, 3),
        lambda gr, tg: tag_expansion(gr, tg, 3),
    ):
        scores = scorer(g, target).scores
        assert set(scores) == set(g.items)
        assert all(v >= 0.0 and math.isfinite(v) for v in scores.values())


# every scorer, by its name in reference_scorers, with its extra arguments
# from (weight, k for cf, k for tagexp)
EXACT_SCORERS = {
    "probs_scores": (probs_scores, lambda w, k_cf, k_tag: ()),
    "heats_scores": (heats_scores, lambda w, k_cf, k_tag: ()),
    "hybrid_scores": (hybrid_scores, lambda w, k_cf, k_tag: (w,)),
    "affinity_scores": (affinity_scores, lambda w, k_cf, k_tag: ()),
    "similarity_scores": (similarity_scores, lambda w, k_cf, k_tag: ()),
    "pliers_tripartite": (pliers_tripartite, lambda w, k_cf, k_tag: (w,)),
    "cf_user_based": (cf_user_based, lambda w, k_cf, k_tag: (k_cf,)),
    "tag_expansion": (tag_expansion, lambda w, k_cf, k_tag: (k_tag,)),
}


# every kind of top_n: none, empty, one, a few
RANK_TOP_N = (None, 0, 1, 3)


def assert_same_ranks(got, want, graph, context=()):
    """``rank`` equals the dict-walking reference rank for every kind of top_n."""
    for n in RANK_TOP_N:
        assert (
            rank(got, graph, n).ranked == reference_scorers.rank(want, graph, n).ranked
        ), (*context, n)


def assert_same_floats(graph, targets, w=0.5, k_cf=10, k_tag=10):
    """Every scorer equals the dict-walking reference exactly, keys in order."""
    for name, (scorer, extra) in EXACT_SCORERS.items():
        args = extra(w, k_cf, k_tag)
        for target in targets:
            got = scorer(graph, target, *args)
            want = getattr(reference_scorers, name)(graph, target, *args)
            assert list(got.scores.items()) == list(want.scores.items()), (name, target)
            assert_same_ranks(got, want, graph, (name, target))


def _graph_with_edge_cases(rng):
    g = build_random_graph(rng, 10, 12, 6)
    # structurally tied items: a clone of an item, same users and tags
    original = rng.choice(sorted(g.items))
    for user in sorted(g.users_of_item(original)):
        g.add_content(user, "clone", sorted(g.tags_of_item(original)), 90)
    # a newcomer sharing nothing: no CF neighbours, tag totals all 0
    g.add_content("newcomer", "lonely", ["t_lonely"], 95)
    # a user whose only link was removed, so the user left the graph
    g.add_content("gone", "gone_item", [rng.choice(sorted(g.tags))], 99)
    return FolksonomyGraph(
        {e: t for e, t in g.user_item_edges.items() if e != ("gone", "gone_item")},
        {e: t for e, t in g.item_tag_edges.items() if e[0] != "gone_item"},
    )


class TestExactReference:
    """The numpy scorers against ``tests/reference_scorers.py``, with ``==``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.sampled_from([0.0, 0.5, 1.0, 0.3]),
        st.integers(1, 16),
        st.integers(1, 12),
    )
    def test_random_graphs(self, seed, w, k_cf, k_tag):
        g = _graph_with_edge_cases(random.Random(seed))
        # k may exceed the number of users or candidate tags
        assert_same_floats(g, [*sorted(g.users), "gone", "nobody"], w, k_cf, k_tag)

    def test_edge_case_graph_has_ties_and_large_k(self):
        g = _graph_with_edge_cases(random.Random(3))
        owners = g.users_of_item("clone")
        twins = [i for i in g.items if i != "clone" and g.users_of_item(i) == owners]
        scores = probs_scores(g, min(owners)).scores
        assert twins and scores["clone"] == scores[twins[0]]
        assert "gone" not in g.users and "gone_item" not in g.items
        assert_same_floats(g, ["newcomer"], k_cf=len(g.users) + 5, k_tag=len(g.tags) + 5)

    def test_criterion_4_graph(self):
        pruned, removal = prune_for_link_prediction(generate_folksonomy(500, 800, 300, 0), 0)
        users = random.Random(4).sample(sorted(removal.removals), 20)
        assert_same_floats(pruned, users)

    def test_pair_counts_over_several_blocks(self, monkeypatch):
        """PLIERS pair counts split into blocks neither drop nor repeat a pair."""
        rng = random.Random(6)
        n_items, n_owned = 60, 50
        tags = [f"t{k}" for k in range(12)]
        g = FolksonomyGraph()
        for idx in range(n_items):
            item_tags = rng.sample(tags, 2)
            if idx < n_owned:
                g.add_content("u_t", f"i{idx}", item_tags, idx)
            for user in ("u0", "u1", "u2", "u3", "u4", "u5"):
                if rng.random() < 0.3 or (idx >= n_owned and user == "u0"):
                    g.add_content(user, f"i{idx}", item_tags, n_items + idx)
        # 20 sources a block
        monkeypatch.setattr(recommend, "_PAIR_BINS", 20 * n_items)
        n_blocks = -(-n_owned // (recommend._PAIR_BINS // n_items))
        assert n_blocks == 3 and len(g.items) == n_items
        for name in ("affinity_scores", "similarity_scores", "pliers_tripartite"):
            got = EXACT_SCORERS[name][0](g, "u_t")
            want = getattr(reference_scorers, name)(g, "u_t")
            assert list(got.scores.items()) == list(want.scores.items()), name


# every scorer's many-row path, with the single-target function it batches,
# from (weight, k): the table's six scorers and the two PLIERS components
MANY_TARGET_SCORERS = {
    **{
        name: lambda w, k, name=name: recommend.scorer(name, k, w)
        for name in recommend.ALGORITHMS
    },
    "affinity": lambda w, k: recommend.Scorer(recommend._affinity),
    "similarity": lambda w, k: recommend.Scorer(recommend._similarity),
}
SINGLE_TARGET = {
    "pliers": lambda g, u, w, k: pliers_tripartite(g, u, w),
    "cf": lambda g, u, w, k: cf_user_based(g, u, k),
    "tagexp": lambda g, u, w, k: tag_expansion(g, u, k),
    "probs": lambda g, u, w, k: probs_scores(g, u),
    "heats": lambda g, u, w, k: heats_scores(g, u),
    "hybrid": lambda g, u, w, k: hybrid_scores(g, u, w),
    "affinity": lambda g, u, w, k: affinity_scores(g, u),
    "similarity": lambda g, u, w, k: similarity_scores(g, u),
}


@contextlib.contextmanager
def _in_blocks_of(targets_per_block, n_items):
    """Every scorer scoring ``targets_per_block`` targets a block, or as it does for None."""
    with pytest.MonkeyPatch.context() as patch:
        if targets_per_block is not None:
            patch.setattr(recommend, "_BLOCK_SCORES", targets_per_block * n_items)
        yield


class TestManyTargets:
    """Scoring many targets of a graph gives each target's single-target floats."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.integers(1, 12),
        st.sampled_from([1, 2, 3, None]),
    )
    def test_bit_equal_to_single_targets(self, seed, w, k, targets_per_block):
        rng = random.Random(seed)
        g = _graph_with_edge_cases(rng)
        # a target owning every item; "gone" left the graph, "nobody" never joined
        for item in sorted(g.items):
            g.add_content("hoarder", item, sorted(g.tags_of_item(item)), 100)
        targets = [*sorted(g.users), "gone", "nobody"]
        rng.shuffle(targets)
        targets += targets[:3]
        index = g.index()
        rows = np.array([index.user_pos.get(t, -1) for t in targets], np.intp)
        for name, make in MANY_TARGET_SCORERS.items():
            with _in_blocks_of(targets_per_block, len(index.items)):
                got = list(make(w, k).rows(index, rows))
            assert len(got) == len(targets)
            for values, target in zip(got, targets):
                want = SINGLE_TARGET[name](g, target, w, k)
                assert want.items == index.items, (name, target)
                assert values.tobytes() == want.values.tobytes(), (name, target)

    def test_cold_targets_never_reach_the_kernel(self):
        def no_kernel(index, rows):
            raise AssertionError("a cold start reached the kernel")

        # an empty graph has no item to split a block budget over; -1 is the
        # row of a target absent from the index
        empty = FolksonomyGraph()
        got = list(Scorer(no_kernel).rows(empty.index(), np.array([-1, -1], np.intp)))
        assert [v.size for v in got] == [0, 0]
        g = build_random_graph(random.Random(2), 6, 8, 4)
        index = g.index()
        # a user of g owns no item in its subgraph without user-item edges
        no_links = index.stacked(
            np.zeros((1, len(g.user_item_edges)), bool), np.ones((1, len(g.item_tag_edges)), bool)
        )
        for view, rows in ((index, [-1, -1]), (no_links, [0, -1])):
            got = list(Scorer(no_kernel).rows(view, np.array(rows, np.intp)))
            assert len(got) == len(rows)
            assert all(v.size == len(g.items) and not v.any() for v in got)


class TestScorerTable:
    """``recommend.scorer`` binds each name to its kernel and parameter."""

    @pytest.mark.parametrize("name", recommend.ALGORITHMS)
    def test_same_floats_as_the_single_target_function(self, name):
        for seed, w, k in ((0, 0.5, 1), (1, 0.0, 3), (2, 1.0, 12), (3, 0.3, 2)):
            g = _graph_with_edge_cases(random.Random(seed))
            scorer = recommend.scorer(name, k, w)
            for target in [*sorted(g.users), "gone", "nobody"]:
                want = SINGLE_TARGET[name](g, target, w, k)
                assert scorer(g, target).values.tobytes() == want.values.tobytes(), target

    @pytest.mark.parametrize(
        "name, k, w, message",
        [
            ("magic", 1, 0.5, "unknown algorithm 'magic'; choose from " + ", ".join(ALGORITHMS)),
            ("cf", 0, 0.5, "k must be >= 1, got 0"),
            ("tagexp", -2, 0.5, "k must be >= 1, got -2"),
            ("pliers", 1, -0.1, "lambda must lie in [0, 1], got -0.1"),
            ("pliers", 1, math.nan, "lambda must lie in [0, 1], got nan"),
            ("hybrid", 1, 1.5, "lambda must lie in [0, 1], got 1.5"),
            ("hybrid", 1, math.nan, "lambda must lie in [0, 1], got nan"),
        ],
    )
    def test_bad_values_raise(self, name, k, w, message):
        with pytest.raises(ValueError) as raised:
            recommend.scorer(name, k, w)
        assert str(raised.value) == message

    def test_values_an_algorithm_does_not_use_are_ignored(self):
        g = eq1_hand_graph()
        for name in recommend.ALGORITHMS:
            want = recommend.scorer(name, 3, 0.5)(g, "u_t").values.tobytes()
            if name not in recommend.K_ALGORITHMS:
                for k in (0, -2):
                    assert recommend.scorer(name, k, 0.5)(g, "u_t").values.tobytes() == want
            if name not in ("pliers", "hybrid"):
                for w in (-0.1, 1.5, math.nan):
                    assert recommend.scorer(name, 3, w)(g, "u_t").values.tobytes() == want


class TestBlockBudgets:
    def test_every_cli_scorer_takes_blocks_of_one_budget(self):
        """Each CLI scorer scores ``_BLOCK_SCORES // n_items`` targets a block.

        On the half-size criterion-4 graph the linkpred benchmark grades,
        every user with a removed link. The blocks are counted on the kernel
        that ``rows`` calls: the one a scorer's ``for_rows`` gives for the
        call, PLIERS's here, or else its own.
        """
        pruned, removal = prune_for_link_prediction(generate_folksonomy(250, 400, 150, 0), 0)
        index = pruned.index()
        rows = np.array([index.user_pos[u] for u in sorted(removal.removals)], np.intp)
        per_block = recommend._BLOCK_SCORES // len(index.items)
        assert 1 < per_block < len(rows)
        for name in cli.ALGORITHMS:
            scorer = cli.make_scorer(name, 10, 0.5)
            calls = []

            def counting(kernel):
                def counted(index, rows):
                    calls.append(len(rows))
                    return kernel(index, rows)

                return counted

            def for_rows(index, rows, scorer=scorer):
                # the graded users share sources, so PLIERS takes a table
                kernel = scorer.for_rows(index, rows)
                assert kernel is not None
                return counting(kernel)

            counted = dataclasses.replace(
                scorer,
                kernel=counting(scorer.kernel),
                for_rows=scorer.for_rows and for_rows,
            )
            for _ in counted.rows(index, rows):
                pass
            assert sum(calls) == len(rows), name
            assert len(calls) == -(-len(rows) // per_block), name
            assert set(calls[:-1]) == {per_block}, name


def _random_view(rng, graph, density):
    """Masks of a random subgraph of ``graph``, as many edges as ``density`` asks.

    An item that keeps a user keeps its first tag too, so that, as in a
    replay's view, every owned item carries a tag.
    """
    ui = [rng.random() < density for _ in graph.user_item_edges]
    owned = {i for (_, i), keep in zip(graph.user_item_edges, ui) if keep}
    it, tagged = [], set()
    for item, _ in graph.item_tag_edges:
        it.append(rng.random() < density or (item in owned and item not in tagged))
        tagged.add(item)
    return np.array(ui, bool), np.array(it, bool)


class TestStackedIndex:
    """Each view of a stacked index is scored as its own graph is."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=1, max_size=4),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.sampled_from([1, 2, 3, None]),
    )
    def test_rows_equal_each_views_own_graph(self, seed, densities, w, targets_per_block):
        rng = random.Random(seed)
        g = _graph_with_edge_cases(rng)
        views = [_random_view(rng, g, density) for density in densities]
        ui, it = np.array([v[0] for v in views]), np.array([v[1] for v in views])
        index = g.index()
        # "gone" left the graph, "nobody" never joined
        targets = [*index.users, "gone", "nobody"]
        rng.shuffle(targets)
        user_rows = [index.user_pos.get(t, -1) for t in targets]
        n_users = len(index.users)
        rows = [v * n_users + u if u >= 0 else -1 for v in range(len(views)) for u in user_rows]
        scorers = {
            "pliers": cli.make_scorer("pliers", 1, w),
            "affinity": Scorer(recommend._affinity),
            "similarity": Scorer(recommend._similarity),
        }
        with _in_blocks_of(targets_per_block, len(index.items)):
            for name, scorer in scorers.items():
                got = scorer.rows(index.stacked(ui, it), np.array(rows, np.intp))
                for view in views:
                    for want in rows_over(scorer, view_graph(g, view), index.items, targets):
                        assert next(got).tolist() == want, name
                assert next(got, None) is None


@contextlib.contextmanager
def _recorded_walks():
    """Record the sources of every PLIERS walk, ``(side, sources)``, and every table built."""
    walks, tables = [], []
    real_walk, real_paths_of = recommend._walk, recommend._paths_of

    def walk(index, sources, item_side, bridge_side):
        side = "affinity" if item_side is index.item_users else "similarity"
        walks.append((side, sources.tolist()))
        return real_walk(index, sources, item_side, bridge_side)

    def paths_of(index, sources, *args):
        tables.append(sources.tolist())
        return real_paths_of(index, sources, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recommend, "_walk", walk)
        patch.setattr(recommend, "_paths_of", paths_of)
        yield walks, tables


def _walked(walks, side):
    return [source for s, sources in walks if s == side for source in sources]


class TestSharedSources:
    """PLIERS walks a source item that many targets own once per ``rows`` call."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=3),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.sampled_from([1, 2, 3, None]),
    )
    def test_many_targets_equal_each_target_alone(self, seed, densities, w, targets_per_block):
        """On a plain index (no densities) or a stack of random views, with cold starts."""
        rng = random.Random(seed)
        g = build_random_graph(rng, 12, 15, 8, adopt_p=0.7)
        index = g.index()
        if densities:
            views = [_random_view(rng, g, density) for density in densities]
            index = index.stacked(np.array([v[0] for v in views]), np.array([v[1] for v in views]))
        # every row of every view, a view's users without items as cold
        # starts, rows of -1 and rows listed twice
        rows = [*range(len(index.user_items.degree)), -1, -1]
        rng.shuffle(rows)
        rows = np.array(rows + rows[:4], np.intp)
        pliers = recommend.scorer("pliers", 1, w)
        owned = index.user_items.gather(rows[rows >= 0])[0].tolist()
        with _in_blocks_of(targets_per_block, len(index.items)), _recorded_walks() as (_, tables):
            got = list(pliers.rows(index, rows))
        assert len(tables) == (2 if len(set(owned)) < len(owned) else 0)
        assert len(got) == len(rows)
        for values, row in zip(got, rows.tolist()):
            (alone,) = pliers.rows(index, np.array([row], np.intp))
            assert values.shape == alone.shape and (values == alone).all(), row

    def test_criterion_4_rows_pinned(self):
        """The PLIERS rows of every graded user of criterion-4 seed 0, one call."""
        pruned, removal = prune_for_link_prediction(generate_folksonomy(500, 800, 300, 0), 0)
        index = pruned.index()
        rows = np.array([index.user_pos[u] for u in sorted(removal.removals)], np.intp)
        digest = hashlib.sha256()
        for values in recommend.scorer("pliers", 1, 0.5).rows(index, rows):
            digest.update(values.tobytes())
        assert len(rows) == 491
        assert digest.hexdigest() == (
            "7464bef865725869ae254d9f28cf5c705e7cdf29882ef996fe6cb7f5804a7757"
        )

    def test_each_source_walked_once_per_call(self):
        """On the linkpred benchmark's graph, in chunks no more than the blocks."""
        pruned, removal = prune_for_link_prediction(generate_folksonomy(250, 400, 150, 0), 0)
        index = pruned.index()
        rows = np.array([index.user_pos[u] for u in sorted(removal.removals)], np.intp)
        owned = index.user_items.gather(rows)[0].tolist()
        assert len(set(owned)) < len(owned)
        n_blocks = -(-len(rows) // (recommend._BLOCK_SCORES // len(index.items)))
        with _recorded_walks() as (walks, tables):
            for _ in recommend.scorer("pliers", 1, 0.5).rows(index, rows):
                pass
        assert tables == [sorted(set(owned))] * 2
        for side in ("affinity", "similarity"):
            assert _walked(walks, side) == sorted(set(owned)), side
            assert 1 < sum(s == side for s, _ in walks) <= n_blocks, side

    def test_unshared_sources_walked_per_target(self):
        """Where every item has one owner, each block walks its targets' items."""
        g = build_random_graph(random.Random(5), 12, 40, 8, adopt_p=0.0)
        index = g.index()
        rows = np.arange(len(index.users))
        with _in_blocks_of(3, len(index.items)), _recorded_walks() as (walks, tables):
            for _ in recommend.scorer("pliers", 1, 0.5).rows(index, rows):
                pass
        assert tables == []
        owned = index.user_items.gather(rows)[0].tolist()
        for side in ("affinity", "similarity"):
            assert _walked(walks, side) == owned, side
            assert sum(s == side for s, _ in walks) == -(-len(rows) // 3), side


def _merge_new_item(graph):
    other = FolksonomyGraph()
    other.add_content("u0", "i_new", ["t0", "t_new"], 50)
    other.add_content("u_new", "i_new", ["t0", "t_new"], 51)
    graph.merge(other)


def _link_existing_nodes(graph):
    """Link a user to an item it lacks, with a tag the item lacks; add no node."""
    user, item, tag = min(
        (u, i, t)
        for u in graph.users
        for i in graph.items
        for t in graph.tags
        if (u, i) not in graph.user_item_edges and (i, t) not in graph.item_tag_edges
    )
    graph.add_content(user, item, [tag], 50)


MUTATIONS = {
    "add_content": lambda g: g.add_content("u0", "i_new", ["t0", "t_new"], 50),
    "link_existing_nodes": _link_existing_nodes,
    "merge": _merge_new_item,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", sorted(EXACT_SCORERS))
def test_scores_follow_graph_mutation(name, mutation):
    """A mutated graph is scored like a fresh copy: no stale index is served."""
    scorer, extra = EXACT_SCORERS[name]
    args = extra(0.5, 3, 3)
    g = build_random_graph(random.Random(5), 10, 12, 6)
    targets = sorted(g.users)
    before = [scorer(g, u, *args).scores for u in targets]
    MUTATIONS[mutation](g)
    after = [scorer(g, u, *args).scores for u in targets]
    fresh = g.copy()
    assert after == [scorer(fresh, u, *args).scores for u in targets]
    assert after != before
