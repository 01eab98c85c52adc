"""The dict-walking scorers, kept as the exact reference for ``pliersim.recommend``.

These are the scorers as they were before the numpy index: every sum walks
sorted keys and adds one term at a time, left to right. The production
scorers must return the same floats bit for bit, so tests compare them with
``==``, not with a tolerance. Each returns ``pliersim.recommend.ScoreVector``.

The one edit to the old code: its two builtin ``sum`` calls (the HeatS
total and the hybrid normaliser) are spelt out as :func:`_left_sum`. On
Python 3.11 and earlier ``sum`` of floats is exactly that loop; from 3.12
on it is compensated, which would make this reference depend on the
interpreter.

:func:`evaluate_on_pruned` is the reference for
``pliersim.evaluation.evaluate_on_pruned``: it keeps every user's ranked
list (from this module's :func:`rank`) and grades them all with
:func:`precision` and :func:`recall`, the definitions of the two measures.
The production version must return an equal ``EvalReport``.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from pliersim.evaluation import EvalReport, LinkRemovalSet, Scorer
from pliersim.graph import FolksonomyGraph
from pliersim.recommend import RecommendationVector, ScoreVector


def _left_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def _vector(target: str, scores: dict[str, float]) -> ScoreVector:
    """The ScoreVector of a dict whose keys are in ascending order."""
    return ScoreVector(target, list(scores), np.array(list(scores.values()), dtype=float))


def _zero_scores(graph: FolksonomyGraph) -> dict[str, float]:
    return {item: 0.0 for item in sorted(graph.items)}


def probs_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Two-step mass diffusion on the user-item bipartite view.

    One unit of resource sits on each of the target's items; each item splits
    its resource equally among its users, then each user splits her mass
    equally among her items. Total mass is conserved, so the scores sum to
    the target's item degree.
    """
    scores = _zero_scores(graph)
    mass: dict[str, float] = {}
    for item in sorted(graph.items_of_user(target)):
        share = 1.0 / len(graph.users_of_item(item))
        for user in sorted(graph.users_of_item(item)):
            mass[user] = mass.get(user, 0.0) + share
    for user in sorted(mass):
        share = mass[user] / len(graph.items_of_user(user))
        for item in sorted(graph.items_of_user(user)):
            scores[item] += share
    return _vector(target, scores)


def heats_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Heat-spreading variant: each transfer divides by the receiver's degree.

    A user receives the plain sum of her items' resources divided by her own
    degree; an item receives the sum of its users' heat divided by its own
    popularity. Mass is not conserved.
    """
    scores = _zero_scores(graph)
    owned = graph.items_of_user(target)
    heat: dict[str, float] = {}
    for user in sorted(graph.users):
        hits = len(graph.items_of_user(user) & owned)
        if hits:
            heat[user] = hits / len(graph.items_of_user(user))
    for item in scores:
        users = graph.users_of_item(item)
        total = _left_sum(heat[u] for u in sorted(users) if u in heat)
        if total:
            scores[item] = total / len(users)
    return _vector(target, scores)


def _sum_normalized(scores: dict[str, float]) -> dict[str, float]:
    total = _left_sum(scores[i] for i in sorted(scores))
    if total <= 0.0:
        return dict(scores)
    return {i: s / total for i, s in scores.items()}


def hybrid_scores(graph: FolksonomyGraph, target: str, probs_weight: float) -> ScoreVector:
    """Convex combination of sum-normalized mass diffusion and heat spreading.

    Raw magnitudes of the two methods are incomparable, so each vector is
    divided by its sum before mixing; normalization is monotone, so the
    rankings at the endpoints equal the pure methods' rankings.
    """
    if not 0.0 <= probs_weight <= 1.0:
        raise ValueError("probs_weight must lie in [0, 1]")
    p = _sum_normalized(probs_scores(graph, target).scores)
    h = _sum_normalized(heats_scores(graph, target).scores)
    scores = {i: probs_weight * p[i] + (1.0 - probs_weight) * h[i] for i in p}
    return _vector(target, scores)


def _overlap_diffusion(
    target_items: set[str],
    left_of: Callable[[str], set[str]],
    right_of: Callable[[str], set[str]],
    left_degree: Callable[[str], int],
    item_degree: Callable[[str], int],
    graph: FolksonomyGraph,
) -> dict[str, float]:
    """Shared core of the popularity-matched diffusion scores.

    For every target item s, walk s -> bridge node l -> candidate item j and
    add 1 / (deg(l) * deg(s)), then scale each (s, j) path bundle by
    |N(s) & N(j)| / deg(j), the overlap of the two items' neighbour sets on
    the bridging side. The factor lies in [0, 1], so the result is bounded
    above by plain mass diffusion on the same projection.
    """
    scores = _zero_scores(graph)
    # the graph builds a neighbour set on every call; read each one once
    left_of, right_of = cache(left_of), cache(right_of)
    left_degree, item_degree = cache(left_degree), cache(item_degree)
    overlap_cache: dict[tuple[str, str], int] = {}
    for s in sorted(target_items):
        s_neighbors = left_of(s)
        s_share = 1.0 / len(s_neighbors)
        for l in sorted(s_neighbors):
            l_share = s_share / left_degree(l)
            for j in sorted(right_of(l)):
                key = (s, j)
                ov = overlap_cache.get(key)
                if ov is None:
                    ov = len(s_neighbors & left_of(j))
                    overlap_cache[key] = ov
                if ov:
                    scores[j] += l_share * ov / item_degree(j)
    return scores


def affinity_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Popularity-matched diffusion over user-item links (PLIERS, bipartite).

    Mass diffusion per path, multiplied per source item s and candidate j by
    the shared-user fraction |U_s & U_j| / k_u(j); candidates whose audience
    overlaps the target's items score high without a popularity bias.
    """
    scores = _overlap_diffusion(
        graph.items_of_user(target),
        graph.users_of_item,
        graph.items_of_user,
        lambda user: len(graph.items_of_user(user)),
        lambda item: len(graph.users_of_item(item)),
        graph,
    )
    return _vector(target, scores)


def similarity_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Popularity-matched diffusion over item-tag links.

    Same walk with tags as the bridging side: item s -> tag z -> item j with
    weight 1 / (k_i(z) * k_t(s)), scaled by the shared-tag fraction
    |T_s & T_j| / k_t(j). Measures how alike two items' labelings are.
    """
    scores = _overlap_diffusion(
        graph.items_of_user(target),
        graph.tags_of_item,
        graph.items_of_tag,
        lambda tag: len(graph.items_of_tag(tag)),
        lambda item: len(graph.tags_of_item(item)),
        graph,
    )
    return _vector(target, scores)


def pliers_tripartite(
    graph: FolksonomyGraph, target: str, affinity_weight: float = 0.5
) -> ScoreVector:
    """Raw linear combination of the affinity and similarity indices.

    ``affinity_weight`` weighs the user-item side; the remainder goes to the
    tag side. Unlike :func:`hybrid_scores` the two components are combined
    un-normalized.
    """
    if not 0.0 <= affinity_weight <= 1.0:
        raise ValueError("affinity_weight must lie in [0, 1]")
    a = affinity_scores(graph, target).scores
    s = similarity_scores(graph, target).scores
    scores = {i: affinity_weight * a[i] + (1.0 - affinity_weight) * s[i] for i in a}
    return _vector(target, scores)


def cosine_user_similarity(graph: FolksonomyGraph, u: str, v: str) -> float:
    """Cosine of the two users' binary item vectors."""
    iu, iv = graph.items_of_user(u), graph.items_of_user(v)
    if not iu or not iv:
        return 0.0
    return len(iu & iv) / math.sqrt(len(iu) * len(iv))


def cf_user_based(graph: FolksonomyGraph, target: str, k: int) -> ScoreVector:
    """User-based collaborative filtering with cosine neighbourhoods.

    Scores every item by the summed similarity of the k most similar other
    users owning it (ties in similarity broken by user key).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = _zero_scores(graph)
    sims = []
    for user in sorted(graph.users):
        if user == target:
            continue
        sims.append((-cosine_user_similarity(graph, target, user), user))
    sims.sort()
    for neg_sim, user in sims[:k]:
        if neg_sim == 0.0:
            continue
        for item in sorted(graph.items_of_user(user)):
            scores[item] += -neg_sim
    return _vector(target, scores)


def tag_cooccurrence(graph: FolksonomyGraph) -> dict[tuple[str, str], int]:
    """Number of items carrying both tags, for every co-occurring tag pair.

    Symmetric pairs are stored once with keys ordered; pairs that never
    co-occur are absent.
    """
    counts: dict[tuple[str, str], int] = {}
    for item in graph.items:
        tags = sorted(graph.tags_of_item(item))
        for i, t1 in enumerate(tags):
            for t2 in tags[i + 1 :]:
                counts[(t1, t2)] = counts.get((t1, t2), 0) + 1
    return counts


def tag_expansion(graph: FolksonomyGraph, target: str, k: int) -> ScoreVector:
    """Tag co-occurrence expansion baseline.

    The target's own tags are expanded with the k tags having the highest
    total co-occurrence with them (ties by tag key); an item scores the
    number of its tags inside the expanded set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = _zero_scores(graph)
    own_tags = set().union(*(graph.tags_of_item(i) for i in graph.items_of_user(target)))
    if not own_tags:
        return _vector(target, scores)
    counts = tag_cooccurrence(graph)
    totals: dict[str, int] = {t: 0 for t in graph.tags if t not in own_tags}
    for own in own_tags:
        for cand in totals:
            pair = (own, cand) if own < cand else (cand, own)
            c = counts.get(pair)
            if c:
                totals[cand] += c
    expanded = set(own_tags)
    expanded.update(t for _, t in sorted(((-c, t) for t, c in totals.items()))[:k])
    for item in scores:
        hits = len(graph.tags_of_item(item) & expanded)
        if hits:
            scores[item] = float(hits)
    return _vector(target, scores)


def rank(
    scores: ScoreVector, graph: FolksonomyGraph, top_n: int | None = None
) -> RecommendationVector:
    """Turn raw scores into a recommendation list.

    Items already linked to the target and items with zero score are dropped;
    the rest sort by score descending with item-key ties ascending, truncated
    to ``top_n`` when given.
    """
    owned = graph.items_of_user(scores.target)
    ranked = sorted(
        ((item, s) for item, s in scores.scores.items() if s > 0.0 and item not in owned),
        key=lambda pair: (-pair[1], pair[0]),
    )
    if top_n is not None:
        ranked = ranked[:top_n]
    return RecommendationVector(scores.target, ranked)


def precision(
    recommendations: Mapping[str, Sequence[str]],
    removals: Mapping[str, Iterable[str]],
) -> float:
    """Mean reciprocal-rank style precision of recovered links.

    Per user: average of 1/position over her removed items, with 0 for items
    missing from the list; then the mean over users.
    """
    if not removals:
        return 0.0
    total = 0.0
    for user in sorted(removals):
        removed = list(removals[user])
        if not removed:
            raise ValueError(f"user {user!r} listed with no removed links")
        if user not in recommendations:
            raise ValueError(f"user {user!r} has removals but no recommendation list")
        pos = {item: p for p, item in enumerate(recommendations[user], start=1)}
        total += _left_sum(1.0 / pos[t] for t in removed if t in pos) / len(removed)
    return total / len(removals)


def recall(
    recommendations: Mapping[str, Sequence[str]],
    removals: Mapping[str, Iterable[str]],
) -> float:
    """Mean fraction of removed links present anywhere in the list."""
    if not removals:
        return 0.0
    total = 0.0
    for user in sorted(removals):
        removed = set(removals[user])
        if not removed:
            raise ValueError(f"user {user!r} listed with no removed links")
        if user not in recommendations:
            raise ValueError(f"user {user!r} has removals but no recommendation list")
        total += len(set(recommendations[user]) & removed) / len(removed)
    return total / len(removals)



def evaluate_on_pruned(
    pruned: FolksonomyGraph,
    removal: LinkRemovalSet,
    scorer: Scorer,
    top_n: int | None = None,
) -> EvalReport:
    """Score every user with removals on the pruned graph and grade recovery."""
    lists: dict[str, list[str]] = {}
    per_user: dict[str, tuple[tuple[int, ...], int, int]] = {}
    for user in sorted(removal.removals):
        rec = rank(scorer(pruned, user), pruned, top_n)
        keys = rec.item_keys()
        lists[user] = keys
        removed = removal.removals[user]
        positions = tuple(
            p for p, item in enumerate(keys, start=1) if item == removed
        )
        per_user[user] = (positions, len(keys), 1)
    removed_sets = {u: [i] for u, i in removal.removals.items()}
    return EvalReport(
        precision=precision(lists, removed_sets),
        recall=recall(lists, removed_sets),
        per_user=per_user,
    )
