"""Diffusion and baseline scorers over a folksonomy graph.

Every scorer is a pure read of the graph and returns a score for *every*
item in it (owned items included); :func:`rank` filters owned and
zero-score items afterwards. A target with no items, or absent from the
graph entirely, is a cold start and yields an all-zero vector; cold starts
never reach the array kernels.

Scores are computed over a :class:`GraphIndex` of the graph (sorted keys
and CSR adjacency arrays), built once per graph state. Each scorer is one
array kernel that scores a block of targets at once, one row per target;
a :class:`Scorer` feeds it the targets of one index in blocks of at most
``_BLOCK_SCORES`` scores, and the public single-target functions are a
block of one. Every sum adds its terms in the order of a walk over sorted
keys, one at a time, so score values are bit-reproducible across
processes regardless of hash randomization, equal to those of that walk
written as a loop, and the same whether a target is scored alone or in a
block, on the graph's own index or on a larger graph's index masked to it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

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
    index order, and ``degree[r]`` is the length of row ``r``. ``edge``
    gives each entry's edge id: the position of its edge in the input.
    """

    ptr: np.ndarray
    cols: np.ndarray
    degree: np.ndarray
    edge: np.ndarray

    @classmethod
    def from_edges(cls, rows: np.ndarray, cols: np.ndarray, n_rows: int) -> "Adjacency":
        order = np.lexsort((cols, rows))
        degree = np.bincount(rows, minlength=n_rows)
        ptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(degree, out=ptr[1:])
        return cls(ptr, cols[order], degree, order)

    def masked(self, keep: np.ndarray) -> "Adjacency":
        """The entries whose edge id is set in the boolean array ``keep``.

        Every row stays, in the same order, so a row may be left empty.
        """
        kept = keep[self.edge]
        before = np.zeros(len(kept) + 1, dtype=np.intp)
        np.cumsum(kept, out=before[1:])
        ptr = before[self.ptr]
        return Adjacency(ptr, self.cols[kept], ptr[1:] - ptr[:-1], self.edge[kept])

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
    ``tag_items.degree`` the tag degree. Edge ids are positions in
    ``graph.user_item_edges`` and ``graph.item_tag_edges``.
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

    def masked(self, ui: np.ndarray, it: np.ndarray) -> "GraphIndex":
        """The index of the subgraph of the edges whose ids are set in ``ui`` and ``it``.

        Every key stays, so a node outside the subgraph has degree 0:
        ``_tripartite`` scores the subgraph's items with the floats of its
        own index and every other item exactly 0. ``_heats`` (and so
        ``_hybrid``) divides by every item's degree, 0 / 0 outside the
        subgraph, so only ``_tripartite`` may run on a masked index.
        """
        view = object.__new__(GraphIndex)
        view.users, view.items, view.tags = self.users, self.items, self.tags
        view.user_pos = self.user_pos
        view.user_items, view.item_users = self.user_items.masked(ui), self.item_users.masked(ui)
        view.item_tags, view.tag_items = self.item_tags.masked(it), self.tag_items.masked(it)
        return view


# The most scores (targets x items) one block of targets may take. Larger
# blocks call numpy less often but hold larger temporaries, which grow with
# the walks of all the block's targets: on the half-size criterion-4 graph
# (400 items, so 5 targets a block) peak memory stays within 0.5% of
# scoring one target at a time.
_BLOCK_SCORES = 1 << 11


@dataclass(frozen=True)
class Scorer:
    """One array kernel with its parameters bound, applied to targets of an index.

    ``kernel(index, rows)`` returns one score row per user index in
    ``rows``, every row owning at least one item. Calling a Scorer scores
    one target of a graph; :meth:`many` scores many targets of one index
    with the same floats.
    """

    kernel: Callable[[GraphIndex, np.ndarray], np.ndarray]

    def __call__(self, graph: FolksonomyGraph, target: str) -> ScoreVector:
        return next(self.many(graph.derived(GraphIndex), [target]))

    def many(self, index: GraphIndex, targets: Iterable[str]) -> Iterator[ScoreVector]:
        """One ScoreVector per target, in the given order.

        Targets that own items are scored in blocks of at most
        ``_BLOCK_SCORES`` scores, so only one block's temporaries are held
        while the vectors are consumed; a vector's values are a row of its
        block. Cold starts get all-zero vectors without the kernel.
        """
        targets = list(targets)
        pos = np.array([index.user_pos.get(t, -1) for t in targets], np.intp)
        # an absent target's -1 reads the appended degree 0
        warm = np.append(index.user_items.degree, 0)[pos] > 0
        rows = pos[warm]
        per_block = max(1, _BLOCK_SCORES // max(1, len(index.items)))
        scores = (
            row
            for lo in range(0, len(rows), per_block)
            for row in self.kernel(index, rows[lo : lo + per_block])
        )
        for target, is_warm in zip(targets, warm.tolist()):
            values = next(scores) if is_warm else np.zeros(len(index.items))
            yield ScoreVector(target, index.items, values)


# The most bins one count array of PLIERS (source item, candidate) pairs may
# take, 8 MiB of counts: a block of targets owning thousands of items on a
# large graph is counted in blocks of sources.
_PAIR_BINS = 1 << 20

# Each array kernel below lays its terms out as (target, item, value)
# arrays, for each target in the order of the walk it describes (sorted
# keys at every level), and sums them with np.bincount over bins
# target * n + item. np.bincount adds in input order, one bin at a time, so
# each score is the same left-to-right float sum as that walk done in a
# loop for that target alone. Adding an exact 0.0 term leaves a sum
# unchanged, so terms that are 0 may be left out. np.sum would add
# pairwise, in another order, and can break exact ties in rank.


def _per_target(target: np.ndarray, cols: np.ndarray, weights, n_targets: int, n_cols: int):
    """``out[t, c]``: the weights of the entries with target ``t`` and column ``c``.

    They are added in input order; with no ``weights`` each entry counts 1.
    """
    sums = np.bincount(target * n_cols + cols, weights=weights, minlength=n_targets * n_cols)
    return sums.reshape(n_targets, n_cols)


def _top_per_row(rows: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Entries with one of the ``k`` highest scores of their row, row by row.

    The stable sort keeps input order among equal scores of a row, which is
    ascending key order for entries listed row by row, keys ascending.
    """
    order = np.lexsort((-scores, rows))
    ranked = rows[order]
    return order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < k]


def _to_items(index: GraphIndex, mass: np.ndarray) -> np.ndarray:
    """Each target's user mass, every user's split equally among her items.

    ``out[t, j]`` adds ``mass[t, u] / deg(u)`` over the users ``u`` of item
    ``j`` in ascending order; users without mass add 0 and are skipped.
    """
    n_targets, n_users = mass.shape
    reached = np.flatnonzero(mass)
    target, user = np.divmod(reached, n_users)
    items, source = index.user_items.gather(user)
    share = mass.ravel()[reached] / index.user_items.degree[user]
    return _per_target(target[source], items, share[source], n_targets, len(index.items))


def _probs(index: GraphIndex, targets: np.ndarray) -> np.ndarray:
    owned, of = index.user_items.gather(targets)
    users, source = index.item_users.gather(owned)
    share = 1.0 / index.item_users.degree[owned]
    mass = _per_target(of[source], users, share[source], len(targets), len(index.users))
    return _to_items(index, mass)


def probs_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Two-step mass diffusion on the user-item bipartite view.

    One unit of resource sits on each of the target's items; each item splits
    its resource equally among its users, then each user splits her mass
    equally among her items. Total mass is conserved, so the scores sum to
    the target's item degree.
    """
    return Scorer(_probs)(graph, target)


def _heats(index: GraphIndex, targets: np.ndarray) -> np.ndarray:
    owned, of = index.user_items.gather(targets)
    users, source = index.item_users.gather(owned)
    counts = _per_target(of[source], users, None, len(targets), len(index.users))
    return _to_items(index, counts) / index.item_users.degree


def heats_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Heat-spreading variant: each transfer divides by the receiver's degree.

    A user receives the plain sum of her items' resources divided by her own
    degree; an item receives the sum of its users' heat divided by its own
    popularity. Mass is not conserved.
    """
    return Scorer(_heats)(graph, target)


def _sum_normalized(scores: np.ndarray) -> np.ndarray:
    # left-to-right totals over sorted items, not np.sum's pairwise ones
    total = np.cumsum(scores, axis=1)[:, -1:]
    return np.divide(scores, total, out=scores, where=total > 0.0)


def _hybrid(index: GraphIndex, targets: np.ndarray, probs_weight: float) -> np.ndarray:
    p = _sum_normalized(_probs(index, targets))
    h = _sum_normalized(_heats(index, targets))
    return probs_weight * p + (1.0 - probs_weight) * h


def hybrid_scores(graph: FolksonomyGraph, target: str, probs_weight: float) -> ScoreVector:
    """Convex combination of sum-normalized mass diffusion and heat spreading.

    Raw magnitudes of the two methods are incomparable, so each vector is
    divided by its sum before mixing; normalization is monotone, so the
    rankings at the endpoints equal the pure methods' rankings.
    """
    if not 0.0 <= probs_weight <= 1.0:
        raise ValueError("probs_weight must lie in [0, 1]")
    return Scorer(partial(_hybrid, probs_weight=probs_weight))(graph, target)


def _overlap_diffusion(
    index: GraphIndex, targets: np.ndarray, item_side: Adjacency, bridge_side: Adjacency
) -> np.ndarray:
    """Shared core of the popularity-matched diffusion scores.

    For every item s of a target, walk s -> bridge node l -> candidate item
    j and add 1 / (deg(l) * deg(s)), then scale each (s, j) path bundle by
    |N(s) & N(j)| / deg(j), the overlap of the two items' neighbour sets on
    the bridging side. The factor lies in [0, 1], so the result is bounded
    above by plain mass diffusion on the same projection.

    ``item_side`` maps items to bridge nodes and ``bridge_side`` back. Each
    term is ``(1 / deg(s) / deg(l)) * overlap / deg(j)``, evaluated in that
    order, and the terms run over s, l and j in ascending order.
    """
    n_items = len(index.items)
    owned, of = index.user_items.gather(targets)
    bridges, source = item_side.gather(owned)
    share = (1.0 / item_side.degree[owned])[source] / bridge_side.degree[bridges]
    items, via = bridge_side.gather(bridges)
    # a (s, j) pair occurs once per bridge that s and j share, so its count
    # is the overlap |N(s) & N(j)|, never 0. The pairs are counted in bins
    # s * n_items + j, s running over the block's (target, owned item)
    # entries, a block of sources at a time (source[via] ascends) so that no
    # count array exceeds max(_PAIR_BINS, n_items) bins.
    s = source[via]
    per_block = max(1, _PAIR_BINS // n_items)
    cuts = np.searchsorted(s, np.arange(0, len(owned) + per_block, per_block))
    overlap = np.empty_like(items)
    for block, (lo, hi) in enumerate(zip(cuts.tolist(), cuts[1:].tolist())):
        pair = (s[lo:hi] - block * per_block) * n_items + items[lo:hi]
        overlap[lo:hi] = np.bincount(pair)[pair]
    terms = share[via] * overlap / item_side.degree[items]
    return _per_target(of[s], items, terms, len(targets), n_items)


def _affinity(index: GraphIndex, targets: np.ndarray) -> np.ndarray:
    return _overlap_diffusion(index, targets, index.item_users, index.user_items)


def _similarity(index: GraphIndex, targets: np.ndarray) -> np.ndarray:
    return _overlap_diffusion(index, targets, index.item_tags, index.tag_items)


def affinity_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Popularity-matched diffusion over user-item links (PLIERS, bipartite).

    Mass diffusion per path, multiplied per source item s and candidate j by
    the shared-user fraction |U_s & U_j| / k_u(j); candidates whose audience
    overlaps the target's items score high without a popularity bias.
    """
    return Scorer(_affinity)(graph, target)


def similarity_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Popularity-matched diffusion over item-tag links.

    Same walk with tags as the bridging side: item s -> tag z -> item j with
    weight 1 / (k_i(z) * k_t(s)), scaled by the shared-tag fraction
    |T_s & T_j| / k_t(j). Measures how alike two items' labelings are.
    """
    return Scorer(_similarity)(graph, target)


def _tripartite(index: GraphIndex, targets: np.ndarray, affinity_weight: float) -> np.ndarray:
    a = _affinity(index, targets)
    s = _similarity(index, targets)
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
    return Scorer(partial(_tripartite, affinity_weight=affinity_weight))(graph, target)


def _cf(index: GraphIndex, targets: np.ndarray, k: int) -> np.ndarray:
    n_users = len(index.users)
    owned, of = index.user_items.gather(targets)
    users, source = index.item_users.gather(owned)
    common = _per_target(of[source], users, None, len(targets), n_users)
    common[np.arange(len(targets)), targets] = 0
    # users sharing no item have cosine 0 and add nothing
    pairs = np.flatnonzero(common)
    target, neighbour = np.divmod(pairs, n_users)
    degree = index.user_items.degree
    sims = common.ravel()[pairs] / np.sqrt(degree[targets[target]] * degree[neighbour])
    top = _top_per_row(target, sims, k)
    items, source = index.user_items.gather(neighbour[top])
    return _per_target(
        target[top][source], items, sims[top][source], len(targets), len(index.items)
    )


def cf_user_based(graph: FolksonomyGraph, target: str, k: int) -> ScoreVector:
    """User-based collaborative filtering with cosine neighbourhoods.

    Scores every item by the summed similarity of the k most similar other
    users owning it (ties in similarity broken by user key).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return Scorer(partial(_cf, k=k))(graph, target)


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


def _tag_expansion(index: GraphIndex, targets: np.ndarray, k: int) -> np.ndarray:
    # every sum here counts whole numbers, exact in any order
    n_targets, n_items, n_tags = len(targets), len(index.items), len(index.tags)
    item_tags, tag_items = index.item_tags, index.tag_items

    def carriers(tagged: np.ndarray) -> np.ndarray:
        """``out[t, j]``: how many of item ``j``'s tags are set in row ``t`` of ``tagged``."""
        target, tag = np.nonzero(tagged)
        items, source = tag_items.gather(tag)
        return _per_target(target[source], items, None, n_targets, n_items)

    owned, of = index.user_items.gather(targets)
    tags, source = item_tags.gather(owned)
    own = np.zeros((n_targets, n_tags), dtype=bool)
    own[of[source], tags] = True
    # a tag's co-occurrence total with the own tags, summed over the items
    # carrying it: each such item counts once per own tag it carries
    own_on_item = carriers(own)
    reached = np.flatnonzero(own_on_item)
    target, item = np.divmod(reached, n_items)
    tags, source = item_tags.gather(item)
    totals = _per_target(
        target[source], tags, own_on_item.ravel()[reached][source], n_targets, n_tags
    )
    target, tag = np.nonzero(~own)
    chosen = _top_per_row(target, totals[target, tag], k)
    expanded = own.copy()
    expanded[target[chosen], tag[chosen]] = True
    return carriers(expanded).astype(float)


def tag_expansion(graph: FolksonomyGraph, target: str, k: int) -> ScoreVector:
    """Tag co-occurrence expansion baseline.

    The target's own tags are expanded with the k tags having the highest
    total co-occurrence with them (ties by tag key); an item scores the
    number of its tags inside the expanded set. The totals are the sums of
    :func:`tag_cooccurrence` over the own tags, counted from the index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return Scorer(partial(_tag_expansion, k=k))(graph, target)


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
