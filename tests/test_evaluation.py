import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scorers
from pliersim import cli, evaluation
from pliersim.evaluation import (
    LinkRemovalSet,
    correlation_analysis,
    evaluate_on_pruned,
    jaccard,
    prune_for_link_prediction,
    spearman_similarity,
)
from pliersim.graph import FolksonomyGraph, GraphIndex
from pliersim.recommend import RecommendationVector
from pliersim.synth import generate_folksonomy

from conftest import build_random_graph
from oracles import tripartite_oracle_exact
from reference_scorers import precision, recall


class TestPrecisionRecall:
    def test_rank_one_gives_full_precision(self):
        assert precision({"u1": ["a"]}, {"u1": ["a"]}) == 1.0

    def test_rank_four_gives_quarter(self):
        assert precision({"u1": ["x", "y", "z", "a"]}, {"u1": ["a"]}) == 0.25

    def test_missing_item_contributes_zero(self):
        lists = {"u1": ["x", "a"], "u2": ["y"]}
        removed = {"u1": ["a"], "u2": ["b"]}
        assert precision(lists, removed) == pytest.approx(0.25)

    def test_recall_extremes(self):
        assert recall({"u1": ["a"], "u2": ["b"]}, {"u1": ["a"], "u2": ["b"]}) == 1.0
        assert recall({"u1": ["x"], "u2": ["y"]}, {"u1": ["a"], "u2": ["b"]}) == 0.0

    def test_recall_half(self):
        lists = {"u1": ["a", "x"], "u2": ["y"]}
        removed = {"u1": ["a"], "u2": ["b"]}
        assert recall(lists, removed) == 0.5

    def test_empty_removal_list_rejected(self):
        with pytest.raises(ValueError):
            precision({"u1": ["a"]}, {"u1": []})
        with pytest.raises(ValueError):
            recall({"u1": ["a"]}, {"u1": []})

    def test_user_without_list_rejected(self):
        with pytest.raises(ValueError):
            precision({}, {"u1": ["a"]})


class TestJaccard:
    def test_identity_and_disjoint(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0
        assert jaccard({1}, {2}) == 0.0

    def test_both_empty_count_as_identical(self):
        assert jaccard(set(), set()) == 1.0

    def test_partial_overlap(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == 0.5

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_symmetric_and_bounded(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0
        assert (jaccard(a, b) == 1.0) == (a == b)


class TestSpearman:
    def test_identical_lists(self):
        for mode in ("literal", "corrected"):
            assert spearman_similarity(["a", "b"], ["a", "b"], mode) == 1.0
        assert spearman_similarity([], [], "literal") == 1.0
        assert spearman_similarity([], [], "corrected") == 1.0

    def test_disjoint_lists(self):
        # the literal formula cannot see non-shared elements: disjoint lists
        # rate as perfectly similar, which motivates the corrected mode
        assert spearman_similarity(["a"], ["b"], "literal") == 1.0
        assert spearman_similarity(["a"], ["b"], "corrected") == 0.0

    def test_swap_of_two(self):
        assert spearman_similarity(["a", "b"], ["b", "a"], "literal") == 0.0
        assert spearman_similarity(["a", "b"], ["b", "a"], "corrected") == 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            spearman_similarity([], [], "fancy")

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 12), unique=True),
        st.lists(st.integers(0, 12), unique=True),
    )
    def test_symmetric_and_bounded(self, r1, r2):
        for mode in ("literal", "corrected"):
            assert spearman_similarity(r1, r2, mode) == pytest.approx(
                spearman_similarity(r2, r1, mode)
            )
        corrected = spearman_similarity(r1, r2, "corrected")
        assert 0.0 <= corrected <= 1.0 + 1e-12
        assert (corrected == 1.0) == (r1 == r2)


class TestLinkRemoval:
    @staticmethod
    def _graph_with_adoptions(n_users=8, n_items=12, seed=3, adopt_p=0.6):
        rng = random.Random(seed)
        g = FolksonomyGraph()
        users = [f"u{i}" for i in range(n_users)]
        for idx in range(n_items):
            creator = rng.choice(users)
            g.add_content(creator, f"i{idx}", [f"t{idx % 4}"], idx)
            for u in users:
                if u != creator and rng.random() < adopt_p:
                    g.add_content(u, f"i{idx}", [f"t{idx % 4}"], idx + n_items)
        return g

    def test_user_with_four_items_not_eligible(self):
        g = FolksonomyGraph()
        for idx in range(4):
            g.add_content("u1", f"i{idx}", ["t1"], idx)
            g.add_content("u2", f"i{idx}", ["t1"], idx)
        for idx in range(4, 9):
            g.add_content("u2", f"i{idx}", ["t1"], idx)
            g.add_content("u3", f"i{idx}", ["t1"], idx)
        for idx in range(9):
            g.add_content("z1", f"i{idx}", ["t1"], idx)
        pruned, removal = prune_for_link_prediction(g, 0)
        assert "u1" not in removal.removals
        assert set(removal.removals) == {"u2", "u3", "z1"}

    def test_popularity_one_graph_removes_nothing(self):
        g = FolksonomyGraph()
        for idx in range(8):
            g.add_content("u1", f"i{idx}", ["t1"], idx)
        pruned, removal = prune_for_link_prediction(g, 0)
        assert removal.removals == {}
        assert removal.removed_fraction == 0.0
        assert pruned == g

    def test_deterministic_for_seed_and_no_orphans(self):
        g = self._graph_with_adoptions()
        p1, r1 = prune_for_link_prediction(g, 42)
        p2, r2 = prune_for_link_prediction(g, 42)
        assert r1.removals == r2.removals and p1 == p2
        p3, r3 = prune_for_link_prediction(g, 43)
        assert r3.removals != r1.removals  # overwhelmingly likely
        for item in p1.items:
            assert len(p1.users_of_item(item)) >= 1
        assert set(p1.items) == set(g.items)

    def test_removed_edges_and_fraction(self):
        g = self._graph_with_adoptions()
        pruned, removal = prune_for_link_prediction(g, 7)
        for user, item in removal.removals.items():
            assert (user, item) in g.user_item_edges
            assert (user, item) not in pruned.user_item_edges
            assert len(g.users_of_item(item)) > 1
        assert removal.removed_fraction == len(removal.removals) / len(
            g.user_item_edges
        )

    def test_prune_then_evaluate_indexes_only_the_pruned_graph(self, monkeypatch):
        """The unpruned graph is read from its edges, so one GraphIndex is built."""
        built = []
        build = GraphIndex.__init__

        def counted(index, graph):
            built.append(graph)
            build(index, graph)

        g = self._graph_with_adoptions()
        monkeypatch.setattr(GraphIndex, "__init__", counted)
        pruned, removal = prune_for_link_prediction(g, 7)
        evaluate_on_pruned(pruned, removal, cli.make_scorer("pliers", 1, 0.5))
        assert removal.removals
        assert len(built) == 1 and built[0] is pruned

    def test_one_removal_per_eligible_user(self):
        # dense adoptions keep popularity above 2, so sequential removals
        # cannot change any user's eligibility
        g = self._graph_with_adoptions(adopt_p=0.85)
        assert all(len(g.users_of_item(i)) >= 3 for i in g.items)
        eligible = {
            u
            for u in g.users
            if sum(1 for i in g.items_of_user(u) if len(g.users_of_item(i)) > 1) >= 5
        }
        _, removal = prune_for_link_prediction(g, 11)
        assert set(removal.removals) == eligible


class TestEndToEndPipeline:
    """Full prune -> score -> rank -> P/R run against an exact-arithmetic oracle.

    The oracle reranks with Fraction-exact scores and recomputes the measures
    from the integer recovery positions, independently of the library path.
    """

    @staticmethod
    def _oracle_eval(pruned, removal, oracle_scorer):
        precisions = []
        recalls = []
        for user in sorted(removal.removals):
            scores = oracle_scorer(pruned, user)
            owned = pruned.items_of_user(user)
            ranked = sorted(
                ((i, s) for i, s in scores.items() if s > 0 and i not in owned),
                key=lambda pair: (-pair[1], pair[0]),
            )
            keys = [i for i, _ in ranked]
            removed = removal.removals[user]
            if removed in keys:
                pos = keys.index(removed) + 1
                precisions.append(Fraction(1, pos))
                recalls.append(Fraction(1))
            else:
                precisions.append(Fraction(0))
                recalls.append(Fraction(0))
        n = len(precisions)
        return sum(precisions) / n, sum(recalls) / n

    @staticmethod
    def _thirty_node_fixture():
        rng = random.Random(99)
        users = [f"u{i}" for i in range(10)]
        g = FolksonomyGraph()
        for idx in range(14):
            creator = rng.choice(users)
            tags = rng.sample([f"t{i}" for i in range(6)], rng.randint(1, 3))
            g.add_content(creator, f"i{idx}", tags, idx)
            for u in users:
                if u != creator and rng.random() < 0.5:
                    g.add_content(u, f"i{idx}", tags, idx + 20)
        return g

    def test_matches_exact_oracle(self):
        g = self._thirty_node_fixture()
        assert len(g.users) + len(g.items) + len(g.tags) >= 30
        pruned, removal = prune_for_link_prediction(g, 5)
        assert removal.removals

        report = evaluate_on_pruned(pruned, removal, cli.make_scorer("pliers", 1, 0.5))
        oracle_p, oracle_r = self._oracle_eval(pruned, removal, tripartite_oracle_exact)
        assert report.precision == pytest.approx(float(oracle_p), abs=1e-12)
        assert report.recall == float(oracle_r)

    def test_report_positions_consistent(self):
        g = build_random_graph(random.Random(5), 10, 12, 5, adopt_p=0.5)
        pruned, removal = prune_for_link_prediction(g, 1)
        report = evaluate_on_pruned(pruned, removal, cli.make_scorer("cf", 5, 0.5))
        for user, (positions, list_len, n_removed) in report.per_user.items():
            assert n_removed == 1
            assert all(1 <= p <= list_len for p in positions)


def _linkpred_case(seed, adopt_p, n_tags):
    """A small graph pruned for link prediction; few tags give exact score ties."""
    rng = random.Random(seed)
    g = build_random_graph(
        rng, 9, 14, n_tags, adopt_p, min_users=3, min_items=8, min_tags=n_tags
    )
    return prune_for_link_prediction(g, seed)


# every kind of top_n: none, empty, one, a few, more than any list
EVAL_TOP_N = (None, 0, 1, 3, 10)


class TestEvaluateReference:
    """``evaluate_on_pruned`` against the reference that keeps and grades every list."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.sampled_from([0.3, 0.55, 0.8]),
        st.sampled_from([1, 2, 6]),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_equal_reports_for_every_cli_scorer(self, seed, adopt_p, n_tags, k, w):
        pruned, removal = _linkpred_case(seed, adopt_p, n_tags)
        removed = {u: [i] for u, i in removal.removals.items()}
        for name in cli.ALGORITHMS:
            scorer = cli.make_scorer(name, k, w)
            for top_n in EVAL_TOP_N:
                got = evaluate_on_pruned(pruned, removal, scorer, top_n)
                want = reference_scorers.evaluate_on_pruned(pruned, removal, scorer, top_n)
                assert got == want, (name, top_n)
                # precision and recall stay the public definitions of the fields
                lists = {
                    u: reference_scorers.rank(scorer(pruned, u), pruned, top_n).item_keys()
                    for u in removal.removals
                }
                assert got.precision == precision(lists, removed), (name, top_n)
                assert got.recall == recall(lists, removed), (name, top_n)

    def test_cases_hold_ties_owned_top_scores_and_unscored_removals(self):
        seen = set()
        for seed in range(10):
            for adopt_p, n_tags in ((0.3, 1), (0.55, 2), (0.8, 6)):
                pruned, removal = _linkpred_case(seed, adopt_p, n_tags)
                for name in cli.ALGORITHMS:
                    scorer = cli.make_scorer(name, 1, 0.5)
                    for user, item in removal.removals.items():
                        scores = scorer(pruned, user).scores
                        owned = pruned.items_of_user(user)
                        listed = [s for i, s in scores.items() if s > 0.0 and i not in owned]
                        top = max(scores.values())
                        if len(set(listed)) < len(listed):
                            seen.add("tie")
                        if top > 0.0 and any(scores[i] == top for i in owned):
                            seen.add("owned top")
                        if scores[item] == 0.0:
                            seen.add("unscored removal")
        assert seen == {"tie", "owned top", "unscored removal"}


class TestRankContract:
    """``evaluate_on_pruned`` ranks through the module global ``evaluation.rank``.

    Observers such as a benchmark replace that global to see every ranked
    list, so it is called once per user, in user order, and what it returns
    is exactly what gets graded.
    """

    @staticmethod
    def _case():
        pruned, removal = prune_for_link_prediction(generate_folksonomy(40, 80, 25, 3), 1)
        return pruned, removal, cli.make_scorer("probs", 1, 0.5)

    def test_one_rank_call_per_user_in_sorted_order(self, monkeypatch):
        pruned, removal, scorer = self._case()
        real, targets = evaluation.rank, []

        def counting(scores, graph, top_n=None):
            targets.append(scores.target)
            return real(scores, graph, top_n)

        monkeypatch.setattr(evaluation, "rank", counting)
        # users are ranked in key order whatever the order of the mapping
        backwards = LinkRemovalSet(
            dict(reversed(removal.removals.items())), removal.removed_fraction
        )
        evaluate_on_pruned(pruned, backwards, scorer)
        assert len(removal.removals) > 5
        assert targets == sorted(removal.removals)

    def test_grades_the_list_rank_returns(self, monkeypatch):
        pruned, removal, scorer = self._case()
        before = evaluate_on_pruned(pruned, removal, scorer)
        # reversing moves the removed item unless it sits mid-list
        user = next(
            u
            for u, (positions, length, _) in before.per_user.items()
            if positions and 2 * positions[0] != length + 1
        )
        real = evaluation.rank

        def one_list_reversed(scores, graph, top_n=None):
            rec = real(scores, graph, top_n)
            if rec.target == user:
                return RecommendationVector(rec.target, rec.ranked[::-1])
            return rec

        monkeypatch.setattr(evaluation, "rank", one_list_reversed)
        after = evaluate_on_pruned(pruned, removal, scorer)
        changed = {u for u in before.per_user if before.per_user[u] != after.per_user[u]}
        assert changed == {user}
        (position,), length, _ = before.per_user[user]
        assert after.per_user[user] == ((length + 1 - position,), length, 1)


class TestCorrelation:
    def test_perfect_linear_relation(self):
        x1 = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [2.0 * v for v in x1]
        x2 = [0.0] * 5
        report = correlation_analysis(y, x1, x2)
        assert report.r_yx1 == pytest.approx(1.0)
        assert report.r_squared >= 0.99
        assert report.beta1 == pytest.approx(2.0)
        assert report.r_yx2 == 0.0
        assert report.zero_variance == ("x2",)
        # a flat x1, and a flat y that also makes both r zero
        report = correlation_analysis(y, [3.0] * 5, x1)
        assert report.r_yx1 == 0.0 and report.r_yx2 == pytest.approx(1.0)
        assert report.zero_variance == ("x1",)
        report = correlation_analysis([1.0] * 5, x1, y)
        assert report.r_yx1 == report.r_yx2 == 0.0
        assert report.zero_variance == ("y",)

    def test_shuffled_series_decorrelates(self):
        rng = random.Random(123)
        x1 = [float(rng.random()) for _ in range(1000)]
        y = list(x1)
        rng.shuffle(y)
        x2 = [float(rng.random()) for _ in range(1000)]
        report = correlation_analysis(y, x1, x2)
        assert abs(report.r_yx1) < 0.2

    def test_length_validation(self):
        with pytest.raises(ValueError):
            correlation_analysis([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            correlation_analysis([1.0, 2.0, 3.0], [1.0, 2.0], [1.0, 2.0, 3.0])
