import hashlib
from collections import Counter

import pytest

from pliersim.graph import save_graph_tsv
from pliersim.synth import generate_folksonomy, generate_synthetic_contents

from conftest import assert_items_owned_and_tagged


class TestContentStream:
    def test_tag_counts_within_bounds(self):
        events = generate_synthetic_contents(30, 400, 60, 3600, 1)
        assert len(events) == 400
        assert all(1 <= len(e.tags) <= 13 for e in events)
        assert all(len(set(e.tags)) == len(e.tags) for e in events)

    def test_empty_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            generate_synthetic_contents(5, 10, 4, 0, 1)

    def test_deterministic_and_time_sorted(self):
        a = generate_synthetic_contents(10, 50, 20, 600, 4)
        b = generate_synthetic_contents(10, 50, 20, 600, 4)
        assert a == b
        assert all(x.time <= y.time for x, y in zip(a, a[1:]))

    def test_mean_tags_per_item_near_two(self):
        events = generate_synthetic_contents(50, 2000, 120, 7200, 9)
        mean = sum(len(e.tags) for e in events) / len(events)
        assert 1.95 <= mean <= 2.35

    def test_tag_popularity_is_long_tailed(self):
        events = generate_synthetic_contents(
            50, 800, 120, 3600, 2, tag_exponent=1.1
        )
        counts = Counter(tag for e in events for tag in e.tags)
        frequencies = sorted(counts.values(), reverse=True)
        median = frequencies[len(frequencies) // 2]
        assert frequencies[0] >= 5 * max(median, 1)
        # monotone CCDF comes with sorting; check a heavy head instead
        assert sum(frequencies[:10]) > 0.25 * sum(frequencies)


class TestFolksonomy:
    @pytest.mark.parametrize("shape", [(5, 0, 4), (0, 5, 4)])
    def test_empty_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match="need n_users >= 1"):
            generate_folksonomy(*shape, 1)

    def test_structurally_valid_and_deterministic(self):
        g1 = generate_folksonomy(60, 120, 40, 5)
        g2 = generate_folksonomy(60, 120, 40, 5)
        assert g1 == g2
        assert_items_owned_and_tagged(g1)
        for item in g1.items:
            assert len(g1.users_of_item(item)) >= 1
            assert len(g1.tags_of_item(item)) >= 1

    def test_output_pinned(self, tmp_path):
        # the bench's link-prediction inputs come from this generator, so any
        # change to what it draws or keeps must show here first
        save_graph_tsv(generate_folksonomy(60, 120, 40, 0), tmp_path / "graph.tsv")
        digest = hashlib.sha256((tmp_path / "graph.tsv").read_bytes()).hexdigest()
        assert digest == "4a8bc89bf544e8e800b8ca2cc1da76a8e8f0d302f743f2730f0e573e9e229854"

    def test_many_users_eligible_for_link_removal(self):
        g = generate_folksonomy(80, 150, 50, 6)
        eligible = [
            u
            for u in g.users
            if sum(1 for i in g.items_of_user(u) if len(g.users_of_item(i)) > 1) >= 5
        ]
        assert len(eligible) >= 40

    def test_popularity_long_tailed(self):
        g = generate_folksonomy(150, 300, 60, 7)
        pops = sorted((len(g.users_of_item(i)) for i in g.items), reverse=True)
        assert pops[0] >= 2.5 * pops[len(pops) // 2]
        # top decile concentrates far more than its uniform share
        assert sum(pops[: len(pops) // 10]) >= 0.18 * sum(pops)
