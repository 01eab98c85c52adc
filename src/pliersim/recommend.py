"""Diffusion and baseline scorers over a folksonomy graph.

Every scorer is a pure read of the graph and returns a score for *every*
item in it (owned items included); :func:`rank` filters owned and
zero-score items afterwards. A target with no items, or absent from the
graph entirely, is a cold start and yields an all-zero vector.

Scores are computed over a :class:`GraphIndex` of the graph (sorted keys
and CSR adjacency arrays), built once per graph state. Every sum adds its
terms in the order of a walk over sorted keys, one at a time, so score
values are bit-reproducible across processes regardless of hash
randomization, and equal to those of that walk written as a loop.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graph import FolksonomyGraph


@dataclass(eq=False)
class ScoreVector:
    """Raw per-item scores for one target user; all values finite and >= 0.

    ``values[n]`` is the score of ``items[n]``, and ``items`` is in ascending
    key order. ``items`` may be shared with the graph's index: do not mutate
    it. Two vectors are equal when their targets and their ``scores`` are.
    """

    target: str
    items: list[str]
    values: np.ndarray

    @property
    def scores(self) -> dict[str, float]:
        """Item key to score, in ascending key order."""
        return dict(zip(self.items, self.values.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreVector):
            return NotImplemented
        return self.target == other.target and self.scores == other.scores


@dataclass
class RecommendationVector:
    """Unowned, positively scored items, sorted by (score desc, item key asc)."""

    target: str
    ranked: list[tuple[str, float]]

    def item_keys(self) -> list[str]:
        return [item for item, _ in self.ranked]

    def __len__(self) -> int:
        return len(self.ranked)


class Adjacency(NamedTuple):
    """One direction of a bipartite edge set as CSR arrays.

    Row ``r``'s neighbours are ``cols[ptr[r]:ptr[r + 1]]`` in ascending
    index order; ``row_of[e]`` is the row of entry ``e`` and ``degree[r]``
    the length of row ``r``.
    """

    ptr: np.ndarray
    cols: np.ndarray
    row_of: np.ndarray
    degree: np.ndarray

    @classmethod
    def from_edges(cls, rows: np.ndarray, cols: np.ndarray, n_rows: int) -> "Adjacency":
        order = np.lexsort((cols, rows))
        degree = np.bincount(rows, minlength=n_rows)
        ptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(degree, out=ptr[1:])
        return cls(ptr, cols[order], rows[order], degree)

    def row(self, r: int) -> np.ndarray:
        return self.cols[self.ptr[r] : self.ptr[r + 1]]

    def gather(self, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``which`` concatenated in the given order.

        Also returns, for each entry, the position in ``which`` of its row.
        """
        lengths = self.degree[which]
        source = np.repeat(np.arange(len(which)), lengths)
        skip = self.ptr[which] - (np.cumsum(lengths) - lengths)
        return self.cols[np.arange(len(source)) + skip[source]], source


class GraphIndex:
    """Sorted node keys and CSR adjacency of one graph state.

    Node ``n`` of a kind is the ``n``-th key in sorted order, so ascending
    indices walk keys in sorted order whatever the hash seed. Built by
    ``graph.derived(GraphIndex)``: once per graph state, cleared by every
    mutator. ``user_items.degree`` is the user degree, ``item_users.degree``
    the item popularity, ``item_tags.degree`` an item's tag count and
    ``tag_items.degree`` the tag degree.
    """

    __slots__ = (
        "users", "items", "tags", "user_pos",
        "user_items", "item_users", "item_tags", "tag_items",
    )

    def __init__(self, graph: FolksonomyGraph):
        self.users = sorted(graph.users)
        self.items = sorted(graph.items)
        self.tags = sorted(graph.tags)
        self.user_pos = {u: n for n, u in enumerate(self.users)}
        item_pos = {i: n for n, i in enumerate(self.items)}
        tag_pos = {t: n for n, t in enumerate(self.tags)}

        ui = graph.user_item_edges
        u = np.fromiter((self.user_pos[a] for a, _ in ui), np.intp, len(ui))
        i = np.fromiter((item_pos[b] for _, b in ui), np.intp, len(ui))
        self.user_items = Adjacency.from_edges(u, i, len(self.users))
        self.item_users = Adjacency.from_edges(i, u, len(self.items))
        it = graph.item_tag_edges
        i = np.fromiter((item_pos[a] for a, _ in it), np.intp, len(it))
        t = np.fromiter((tag_pos[b] for _, b in it), np.intp, len(it))
        self.item_tags = Adjacency.from_edges(i, t, len(self.items))
        self.tag_items = Adjacency.from_edges(t, i, len(self.tags))


def _score(graph: FolksonomyGraph, target: str, fn: Callable, *args) -> ScoreVector:
    """``fn(index, target's index, *args)`` as a ScoreVector; all zeros on a cold start.

    A cold start builds no index: it is the common case in the gossip
    replay's discovery scoring, where most agents created nothing.
    """
    if not graph.items_of_user(target):
        items = sorted(graph.items)
        return ScoreVector(target, items, np.zeros(len(items)))
    index = graph.derived(GraphIndex)
    return ScoreVector(target, index.items, fn(index, index.user_pos[target], *args))


# The most bins one count array of PLIERS (source item, candidate) pairs may
# take, 8 MiB of counts: a user owning thousands of items on a large graph
# is counted in blocks.
_PAIR_BINS = 1 << 20

# Each array scorer below lays its terms out as (item, value) arrays in the
# order of the walk it describes (sorted keys at every level) and sums them
# with np.bincount, which adds in input order, one bin at a time: an item's
# score is the same left-to-right float sum as that walk done in a loop.
# Adding an exact 0.0 term leaves a sum unchanged. np.sum would add
# pairwise, in another order, and can break exact ties in rank.


def _probs(index: GraphIndex, t: int) -> np.ndarray:
    owned = index.user_items.row(t)
    users, source = index.item_users.gather(owned)
    share = 1.0 / index.item_users.degree[owned]
    mass = np.bincount(users, weights=share[source], minlength=len(index.users))
    reached = np.flatnonzero(mass)
    items, source = index.user_items.gather(reached)
    share = mass[reached] / index.user_items.degree[reached]
    return np.bincount(items, weights=share[source], minlength=len(index.items))


def probs_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Two-step mass diffusion on the user-item bipartite view.

    One unit of resource sits on each of the target's items; each item splits
    its resource equally among its users, then each user splits her mass
    equally among her items. Total mass is conserved, so the scores sum to
    the target's item degree.
    """
    return _score(graph, target, _probs)


def _heats(index: GraphIndex, t: int) -> np.ndarray:
    users, _ = index.item_users.gather(index.user_items.row(t))
    heat = np.bincount(users, minlength=len(index.users)) / index.user_items.degree
    item_users = index.item_users
    total = np.bincount(
        item_users.row_of, weights=heat[item_users.cols], minlength=len(index.items)
    )
    return total / item_users.degree


def heats_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Heat-spreading variant: each transfer divides by the receiver's degree.

    A user receives the plain sum of her items' resources divided by her own
    degree; an item receives the sum of its users' heat divided by its own
    popularity. Mass is not conserved.
    """
    return _score(graph, target, _heats)


def _sum_normalized(scores: np.ndarray) -> np.ndarray:
    # a left-to-right total over sorted items, not np.sum's pairwise one
    total = np.cumsum(scores)[-1]
    return scores / total if total > 0.0 else scores


def _hybrid(index: GraphIndex, t: int, probs_weight: float) -> np.ndarray:
    p = _sum_normalized(_probs(index, t))
    h = _sum_normalized(_heats(index, t))
    return probs_weight * p + (1.0 - probs_weight) * h


def hybrid_scores(graph: FolksonomyGraph, target: str, probs_weight: float) -> ScoreVector:
    """Convex combination of sum-normalized mass diffusion and heat spreading.

    Raw magnitudes of the two methods are incomparable, so each vector is
    divided by its sum before mixing; normalization is monotone, so the
    rankings at the endpoints equal the pure methods' rankings.
    """
    if not 0.0 <= probs_weight <= 1.0:
        raise ValueError("probs_weight must lie in [0, 1]")
    return _score(graph, target, _hybrid, probs_weight)


def _overlap_diffusion(
    owned: np.ndarray, item_side: Adjacency, bridge_side: Adjacency
) -> np.ndarray:
    """Shared core of the popularity-matched diffusion scores.

    For every target item s, walk s -> bridge node l -> candidate item j and
    add 1 / (deg(l) * deg(s)), then scale each (s, j) path bundle by
    |N(s) & N(j)| / deg(j), the overlap of the two items' neighbour sets on
    the bridging side. The factor lies in [0, 1], so the result is bounded
    above by plain mass diffusion on the same projection.

    ``item_side`` maps items to bridge nodes and ``bridge_side`` back. Each
    term is ``(1 / deg(s) / deg(l)) * overlap / deg(j)``, evaluated in that
    order, and the terms run over s, l and j in ascending order.
    """
    n_items = len(item_side.degree)
    bridges, source = item_side.gather(owned)
    share = (1.0 / item_side.degree[owned])[source] / bridge_side.degree[bridges]
    items, via = bridge_side.gather(bridges)
    # a (s, j) pair occurs once per bridge that s and j share, so its count
    # is the overlap |N(s) & N(j)|, never 0. The pairs are counted in bins
    # s * n_items + j, a block of sources at a time (source[via] ascends) so
    # that no count array exceeds max(_PAIR_BINS, n_items) bins.
    s = source[via]
    per_block = max(1, _PAIR_BINS // n_items)
    cuts = np.searchsorted(s, np.arange(0, len(owned) + per_block, per_block))
    overlap = np.empty_like(items)
    for block, (lo, hi) in enumerate(zip(cuts.tolist(), cuts[1:].tolist())):
        pair = (s[lo:hi] - block * per_block) * n_items + items[lo:hi]
        overlap[lo:hi] = np.bincount(pair)[pair]
    terms = share[via] * overlap / item_side.degree[items]
    return np.bincount(items, weights=terms, minlength=n_items)


def _affinity(index: GraphIndex, t: int) -> np.ndarray:
    return _overlap_diffusion(index.user_items.row(t), index.item_users, index.user_items)


def _similarity(index: GraphIndex, t: int) -> np.ndarray:
    return _overlap_diffusion(index.user_items.row(t), index.item_tags, index.tag_items)


def affinity_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Popularity-matched diffusion over user-item links (PLIERS, bipartite).

    Mass diffusion per path, multiplied per source item s and candidate j by
    the shared-user fraction |U_s & U_j| / k_u(j); candidates whose audience
    overlaps the target's items score high without a popularity bias.
    """
    return _score(graph, target, _affinity)


def similarity_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Popularity-matched diffusion over item-tag links.

    Same walk with tags as the bridging side: item s -> tag z -> item j with
    weight 1 / (k_i(z) * k_t(s)), scaled by the shared-tag fraction
    |T_s & T_j| / k_t(j). Measures how alike two items' labelings are.
    """
    return _score(graph, target, _similarity)


def _tripartite(index: GraphIndex, t: int, affinity_weight: float) -> np.ndarray:
    a = _affinity(index, t)
    s = _similarity(index, t)
    return affinity_weight * a + (1.0 - affinity_weight) * s


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
    return _score(graph, target, _tripartite, affinity_weight)


def _cf(index: GraphIndex, t: int, k: int) -> np.ndarray:
    users, _ = index.item_users.gather(index.user_items.row(t))
    common = np.bincount(users, minlength=len(index.users))
    common[t] = 0
    # users sharing no item have cosine 0 and add nothing
    neighbours = np.flatnonzero(common)
    degree = index.user_items.degree
    sims = common[neighbours] / np.sqrt(degree[t] * degree[neighbours])
    # a stable sort keeps ascending user keys among equal similarities
    top = np.argsort(-sims, kind="stable")[:k]
    items, source = index.user_items.gather(neighbours[top])
    return np.bincount(items, weights=sims[top][source], minlength=len(index.items))


def cf_user_based(graph: FolksonomyGraph, target: str, k: int) -> ScoreVector:
    """User-based collaborative filtering with cosine neighbourhoods.

    Scores every item by the summed similarity of the k most similar other
    users owning it (ties in similarity broken by user key).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _score(graph, target, _cf, k)


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


def _tag_expansion(index: GraphIndex, t: int, k: int) -> np.ndarray:
    item_tags = index.item_tags
    own = np.zeros(len(index.tags), dtype=bool)
    own[item_tags.gather(index.user_items.row(t))[0]] = True
    # a tag's co-occurrence total with the own tags, summed over the items
    # carrying it: each such item counts once per own tag it carries
    own_on_item = np.bincount(
        item_tags.row_of, weights=own[item_tags.cols], minlength=len(index.items)
    )
    totals = np.bincount(
        item_tags.cols, weights=own_on_item[item_tags.row_of], minlength=len(index.tags)
    )
    candidates = np.flatnonzero(~own)
    expanded = own.copy()
    expanded[candidates[np.argsort(-totals[candidates], kind="stable")[:k]]] = True
    return np.bincount(
        item_tags.row_of, weights=expanded[item_tags.cols], minlength=len(index.items)
    )


def tag_expansion(graph: FolksonomyGraph, target: str, k: int) -> ScoreVector:
    """Tag co-occurrence expansion baseline.

    The target's own tags are expanded with the k tags having the highest
    total co-occurrence with them (ties by tag key); an item scores the
    number of its tags inside the expanded set. The totals are the sums of
    :func:`tag_cooccurrence` over the own tags, counted from the index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _score(graph, target, _tag_expansion, k)


def rank(
    scores: ScoreVector, graph: FolksonomyGraph, top_n: int | None = None
) -> RecommendationVector:
    """Turn raw scores into a recommendation list.

    Items already linked to the target and items with zero score are dropped;
    the rest sort by score descending with item-key ties ascending, truncated
    to ``top_n`` when given.
    """
    values, items = scores.values, scores.items
    keep = values > 0.0
    # items ascend, so bisection finds an owned item if the vector lists it
    for item in graph.items_of_user(scores.target):
        n = bisect_left(items, item)
        if n < len(items) and items[n] == item:
            keep[n] = False
    (pos,) = keep.nonzero()
    if not pos.size:  # a cold start, as for most gossip agents: nothing to sort
        return RecommendationVector(scores.target, [])
    # items are in key order and pos ascends, so a stable sort on -score
    # leaves equal scores in ascending key order
    order = pos[(-values[pos]).argsort(kind="stable")]
    if top_n is not None:
        order = order[: max(top_n, 0)]
    ranked = zip(map(items.__getitem__, order.tolist()), values[order].tolist())
    return RecommendationVector(scores.target, list(ranked))
