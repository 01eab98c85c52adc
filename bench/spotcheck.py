"""Check linkpred PLIERS scores against the literal sums in ``tests/oracles.py``.

The oracles evaluate the defining double sums over dense tables of the
whole graph, which takes minutes per user on the 500 x 800 x 300
folksonomy. Each sum only needs a few degrees and overlaps, so the oracle
runs on a small view of the graph that keeps exactly those quantities:

- affinity side, for a set C of candidate items: the target's items S,
  their users L with all their links into S and C, one filler item per
  missing link so every user in L keeps its degree, and filler users so
  every item in S and C keeps its popularity;
- similarity side: every item sharing a tag with S, with all its tags,
  owned by the target when in S and by one other user otherwise.

Fillers own nothing in S, so they add no path to any sum.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from pliersim.graph import FolksonomyGraph

ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
TOLERANCE = 1e-9


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def affinity_view(g: FolksonomyGraph, target: str, candidates) -> FolksonomyGraph:
    kept = set(g.items_of_user(target)) | set(candidates)
    bridge = set().union(*(g.users_of_item(s) for s in g.items_of_user(target)))
    view = FolksonomyGraph()
    for user in sorted(bridge):
        own = g.items_of_user(user)
        for item in sorted(own & kept):
            view.add_content(user, item, ["~t"], 0)
        for m in range(len(own - kept)):
            view.add_content(user, f"~i{m}", ["~t"], 0)
    for item in sorted(kept):
        for m in range(len(g.users_of_item(item) - bridge)):
            view.add_content(f"~u{m}", item, ["~t"], 0)
    return view


def similarity_view(g: FolksonomyGraph, target: str) -> FolksonomyGraph:
    own = g.items_of_user(target)
    reached = set().union(*(g.items_of_tag(t) for s in own for t in g.tags_of_item(s)))
    view = FolksonomyGraph()
    for item in sorted(reached):
        view.add_content(target if item in own else "~u", item, sorted(g.tags_of_item(item)), 0)
    return view


def check_user(
    g: FolksonomyGraph,
    target: str,
    ranked: list[tuple[str, float]],
    removed: str,
    affinity_weight: float,
    seed: int,
    n_top: int = 10,
    n_random: int = 9,
) -> float:
    """Largest |score - oracle| over a sample of candidates for ``target``.

    ``ranked`` is the (item, score) list the code under test produced for
    ``target`` on ``g``; an unowned item missing from it scored 0. The
    sample is its top ``n_top`` items, the removed item and ``n_random``
    seeded picks among the other unowned items.
    """
    oracles = load_oracles()
    owned = g.items_of_user(target)
    candidates = {item for item, _ in ranked[:n_top]} | {removed}
    others = sorted(set(g.items) - owned - candidates)
    candidates |= set(random.Random(seed).sample(others, min(n_random, len(others))))

    affinity = oracles.pliers_oracle(affinity_view(g, target, candidates), target)
    similarity = oracles.similarity_oracle(similarity_view(g, target), target)
    produced = dict(ranked)
    return max(
        abs(
            produced.get(j, 0.0)
            - (affinity_weight * affinity[j] + (1.0 - affinity_weight) * similarity.get(j, 0.0))
        )
        for j in candidates
    )
