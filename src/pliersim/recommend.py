"""Diffusion and baseline scorers over a folksonomy graph.

Every scorer is a pure read of the graph and returns a score for *every*
item in it (owned items included); :func:`rank` filters owned and
zero-score items afterwards and sorts the rest on the score array. It
returns a :class:`RecommendationVector` of the item keys and a float64
array of their scores, each taken from the sorted positions in one step,
with no (item, score) pair or float object per item. A target with no
items, or absent from the graph entirely, is a cold start and yields an
all-zero vector; cold starts never reach the array kernels.

Scores are computed over the graph's :class:`~pliersim.graph.GraphIndex`
(sorted keys and CSR adjacency arrays), ``graph.index()``. Each scorer is one
array kernel that scores a block of targets at once, one row per target;
a :class:`Scorer` feeds it the targets of one index in blocks sized by one
budget of entries: a target counts its output row and the two-hop paths
that its kernel walks from its items, counted from the degree arrays
before the walk. The public single-target functions score a block of one
with a :func:`scorer`. The PLIERS kernels also run on a stacked index
(:meth:`GraphIndex.stacked`), which lays several subgraphs of a larger
graph side by side as disjoint copies, so that one block may hold targets
of different views. A PLIERS term depends only on its source item, bridge
and candidate, so when the targets of one call own some source item more
than once, PLIERS walks each distinct source once for the call, in chunks
of sources whose paths on both sides fit the same budget, and every block
gathers its targets' paths from that table; otherwise each block walks
its own. A target whose own entries exceed the budget is a block alone,
and walks or gathers its sources in chunks whose paths fit the budget.
Every sum adds its terms in the order of a walk over sorted keys,
one at a time, so score values are bit-reproducible across processes
regardless of hash randomization, equal to those of that walk written as a
loop, and the same whether a target is scored alone or in a block of any
size, on the graph's own index or on its view of a larger graph's stacked
index.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .graph import Adjacency, FolksonomyGraph, GraphIndex, row_entries


@dataclass(eq=False)
class ScoreVector:
    """Raw per-item scores for one target user; all values finite and >= 0.

    ``values[n]`` is the score of ``items[n]``. A scorer's vector lists
    every item of the index it scored on, ``index.items`` itself, in
    ascending key order: do not mutate it. :func:`rank` takes a vector over
    the items of the graph it ranks against. Two vectors are equal when
    their targets and their ``scores`` are.
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


class RecommendationVector:
    """Unowned, positively scored items, sorted by (score desc, item key asc).

    ``values[n]`` is the score of ``items[n]``, the item at rank ``n + 1``:
    a list of the item keys, which the graph's index already holds, and a
    float64 array that owns its scores, so that a long list costs no object
    per item. Do not mutate them. ``RecommendationVector(target, ranked)``
    takes (item, score) pairs in rank order, and :attr:`ranked` gives them
    back with Python floats. Two vectors are equal when their targets, keys
    and scores are.
    """

    __slots__ = ("target", "items", "values")

    def __init__(self, target: str, ranked: Iterable[tuple[str, float]]):
        pairs = list(ranked)
        self.target = target
        self.items: list[str] = [item for item, _ in pairs]
        self.values: np.ndarray = np.array([score for _, score in pairs], np.float64)

    @classmethod
    def from_columns(
        cls, target: str, items: list[str], values: np.ndarray
    ) -> "RecommendationVector":
        """The vector that ranks ``items`` in that order with scores ``values``; no copies."""
        rec = cls.__new__(cls)
        rec.target, rec.items, rec.values = target, items, values
        return rec

    @property
    def ranked(self) -> list[tuple[str, float]]:
        """A new list of the (item, score) pairs in rank order."""
        return list(zip(self.items, self.values.tolist()))

    def item_keys(self) -> list[str]:
        """A copy of :attr:`items`."""
        return list(self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecommendationVector):
            return NotImplemented
        return (self.target, self.items, self.values.tolist()) == (
            other.target, other.items, other.values.tolist()
        )

    def __repr__(self) -> str:
        return f"RecommendationVector({self.target!r}, {self.ranked!r})"


# The most entries one block of work may touch, on a stacked index too,
# whose blocks may mix views: the cells and path entries of a kernel's block
# of targets (:func:`_walk_entries`), the paths on both sides of a chunk of
# PLIERS sources walked into a table (:func:`_tripartite_for_rows`), the
# paths on one side of a chunk of the sources of a lone PLIERS target over
# the budget (:func:`_overlap_diffusion`), the score cells of a block of
# agents that a replay ranks. Larger blocks call numpy less often but hold
# larger temporaries, which grow with these entries. On the linkpred
# benchmark's graph (400 items, 223 graded users) a PLIERS target counts
# about 2,080 entries and takes blocks of 15, a user-side kernel's 1,560 and
# tagexp's 920; the six CLI kernels take about 17 ms, against 21 ms at 2^14
# and 28 ms at 2^13 (2-CPU VM, Python 3.11, numpy 2.4).
_BLOCK_ENTRIES = 1 << 15


def _blocks(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive runs ``(lo, hi)`` of ``sizes`` that cover them in order.

    A run takes entries while their total fits ``_BLOCK_ENTRIES``, and
    always at least one.
    """
    ends = np.cumsum(sizes).tolist()
    runs, lo = [], 0
    while lo < len(ends):
        fits = (ends[lo - 1] if lo else 0) + _BLOCK_ENTRIES
        hi = max(lo + 1, bisect.bisect_right(ends, fits, lo))
        runs.append((lo, hi))
        lo = hi
    return runs


def _two_hop_paths(index: GraphIndex, side: str) -> np.ndarray:
    """Each item row's two-hop paths item -> bridge -> item on ``side``.

    ``side`` names the bridge-to-item adjacency of ``index``:
    ``"user_items"`` for users, ``"tag_items"`` for tags. An item has the
    summed degree of its bridges of such paths: one bincount over the
    bridges' entries, each counting its bridge's degree, per view on a
    stacked index. The counts are whole numbers, exact in float64.
    """
    bridges = getattr(index, side)
    return np.bincount(
        bridges.cols, np.repeat(bridges.degree, bridges.degree), len(index.item_users.degree)
    )


def _walk_entries(index: GraphIndex, rows: np.ndarray, sides: tuple[str, ...]) -> np.ndarray:
    """The entries a kernel touches for each user row of ``rows``, every row owning items.

    A row counts its output, one cell per item, and the
    :func:`_two_hop_paths` of each item it owns on each of ``sides``.
    """
    owned = index.user_items
    paths = np.zeros(len(index.item_users.degree))
    for side in sides:
        paths += _two_hop_paths(index, side)
    # each row's total is the difference of a running total over the owned
    # entries at its bounds
    running = np.zeros(len(owned.cols) + 1)
    np.cumsum(paths[owned.cols], out=running[1:])
    return len(index.items) + running[owned.ptr[rows + 1]] - running[owned.ptr[rows]]


@dataclass(frozen=True)
class Scorer:
    """One array kernel with its parameters bound, applied to targets of an index.

    ``kernel(index, rows)`` returns one score row per user index in
    ``rows``, every row owning at least one item. Calling a Scorer scores
    one target of a graph; :meth:`rows` scores many user rows of one index
    with the same floats, in blocks sized by the entries the kernel walks:
    the two-hop paths from each target's items on each of ``sides``
    (:func:`_walk_entries`). ``for_rows(index, rows)``, when given, sees
    all the warm rows of one :meth:`rows` call first and may return another
    kernel for that call's blocks, so that work the blocks share is done
    once per call; it returns None where ``kernel`` serves.
    """

    kernel: Callable[[GraphIndex, np.ndarray], np.ndarray]
    for_rows: Callable[[GraphIndex, np.ndarray], Callable | None] | None = None
    sides: tuple[str, ...] = ()

    def __call__(self, graph: FolksonomyGraph, target: str) -> ScoreVector:
        index = graph.index()
        rows = np.array([index.user_pos.get(target, -1)], np.intp)
        return ScoreVector(target, index.items, next(self.rows(index, rows)))

    def rows(self, index: GraphIndex, rows: np.ndarray) -> Iterator[np.ndarray]:
        """One score row over ``index.items`` per user row in ``rows``, in that order.

        On a stacked index, user ``u`` of view ``v`` is row
        ``v * len(index.users) + u``. Rows that own items are scored in
        blocks of consecutive rows, each taking rows while their entries
        fit ``_BLOCK_ENTRIES``, and at least one, so only one block's
        temporaries, and what ``for_rows`` keeps for the call, are held
        while the rows are consumed; PLIERS takes the sources of a row over
        the budget in chunks that fit it. A row of -1 or of a user owning no
        item is a cold start and gets an all-zero row without the kernel.
        """
        # a row of -1 reads the appended degree 0
        warm = np.append(index.user_items.degree, 0)[rows] > 0
        hot = rows[warm]
        kernel = (self.for_rows and self.for_rows(index, hot)) or self.kernel
        scores = (
            row
            for lo, hi in _blocks(_walk_entries(index, hot, self.sides))
            for row in kernel(index, hot[lo:hi])
        )
        for is_warm in warm.tolist():
            yield next(scores) if is_warm else np.zeros(len(index.items))


ALGORITHMS = ("pliers", "cf", "tagexp", "probs", "heats", "hybrid")
K_ALGORITHMS = ("cf", "tagexp")
# the sides a kernel walks two hops from its targets' items, by the
# bridge-to-item adjacency: PLIERS walks both
_USER_SIDE, _TAG_SIDE = "user_items", "tag_items"
_BOTH_SIDES = (_USER_SIDE, _TAG_SIDE)


def scorer(name: str, k: int, weight: float) -> Scorer:
    """Algorithm ``name`` with its ``k`` (cf, tagexp) or lambda ``weight`` (pliers, hybrid).

    The others ignore both. Raises ValueError for an unknown name, a ``k``
    below 1 or a weight outside [0, 1].
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHMS)}")
    if name in K_ALGORITHMS and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if name in ("pliers", "hybrid") and not 0.0 <= weight <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {weight}")
    if name == "pliers":
        return Scorer(
            partial(_tripartite, affinity_weight=weight),
            partial(_tripartite_for_rows, affinity_weight=weight),
            _BOTH_SIDES,
        )
    kernel, side = {
        "cf": (partial(_cf, k=k), _USER_SIDE),
        "tagexp": (partial(_tag_expansion, k=k), _TAG_SIDE),
        "probs": (_probs, _USER_SIDE),
        "heats": (_heats, _USER_SIDE),
        "hybrid": (partial(_hybrid, probs_weight=weight), _USER_SIDE),
    }[name]
    return Scorer(kernel, sides=(side,))


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


def _per_target(
    target: np.ndarray, cols: np.ndarray, weights, n_targets: int, n_cols: int, start=None
):
    """``out[t, c]``: the weights of the entries with target ``t`` and column ``c``.

    They are added in input order; with no ``weights`` each entry counts 1.
    With ``start``, the sums of earlier entries, each bin takes its start
    as its first weight: a bin begins at 0.0 and 0.0 + s == s, so the sums
    are those of one bincount over the earlier entries and these in order.
    """
    bins = target * n_cols + cols
    if start is not None:
        bins = np.concatenate([np.arange(start.size), bins])
        weights = np.concatenate([start.ravel(), weights])
    sums = np.bincount(bins, weights=weights, minlength=n_targets * n_cols)
    return sums.reshape(n_targets, n_cols)


def _top_per_row(rows: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Entries with one of the ``k`` highest scores of their row, row by row.

    The stable sort keeps input order among equal scores of a row, which is
    ascending key order for entries listed row by row, keys ascending.
    """
    order = np.lexsort((-scores, rows))
    ranked = rows[order]
    return order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < k]


def _to_users(index: GraphIndex, targets: np.ndarray):
    """Each target's walk from its items to their users, one step per entry.

    Returns the target position, the user and the item of every step: the
    target's items in ascending order, each item's users in ascending order.
    """
    owned, of = index.user_items.gather(targets)
    users, source = index.item_users.gather(owned)
    return of[source], users, owned[source]


def _user_mass(index: GraphIndex, walk, n_targets: int) -> np.ndarray:
    """``out[t, u]``: the unit of each item of target ``t``, split equally among its users."""
    target, users, items = walk
    share = 1.0 / index.item_users.degree[items]
    return _per_target(target, users, share, n_targets, len(index.users))


def _user_counts(index: GraphIndex, walk, n_targets: int) -> np.ndarray:
    """``out[t, u]``: how many items of target ``t`` user ``u`` owns."""
    target, users, _ = walk
    return _per_target(target, users, None, n_targets, len(index.users))


def _to_items(index: GraphIndex, *spreads: np.ndarray) -> list[np.ndarray]:
    """Each target's user mass, every user's split equally among her items.

    For each of ``spreads``, ``out[t, j]`` adds ``mass[t, u] / deg(u)``
    over the users ``u`` of item ``j`` in ascending order; users without
    mass add 0 and are skipped. The spreads must hold mass at the same
    (target, user) entries, so that one walk serves them all.
    """
    n_targets, n_users = spreads[0].shape
    reached = np.flatnonzero(spreads[0])
    target, user = np.divmod(reached, n_users)
    items, source = index.user_items.gather(user)
    degree, target = index.user_items.degree[user], target[source]
    return [
        _per_target(
            target, items, (mass.ravel()[reached] / degree)[source], n_targets, len(index.items)
        )
        for mass in spreads
    ]


def _probs(index: GraphIndex, targets: np.ndarray) -> np.ndarray:
    (scores,) = _to_items(index, _user_mass(index, _to_users(index, targets), len(targets)))
    return scores


def probs_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Two-step mass diffusion on the user-item bipartite view.

    One unit of resource sits on each of the target's items; each item splits
    its resource equally among its users, then each user splits her mass
    equally among her items. Total mass is conserved, so the scores sum to
    the target's item degree.
    """
    return scorer("probs", 1, 0.5)(graph, target)


def _heats(index: GraphIndex, targets: np.ndarray) -> np.ndarray:
    (scores,) = _to_items(index, _user_counts(index, _to_users(index, targets), len(targets)))
    return scores / index.item_users.degree


def heats_scores(graph: FolksonomyGraph, target: str) -> ScoreVector:
    """Heat-spreading variant: each transfer divides by the receiver's degree.

    A user receives the plain sum of her items' resources divided by her own
    degree; an item receives the sum of its users' heat divided by its own
    popularity. Mass is not conserved.
    """
    return scorer("heats", 1, 0.5)(graph, target)


def _sum_normalized(scores: np.ndarray) -> np.ndarray:
    # left-to-right totals over sorted items, not np.sum's pairwise ones
    total = np.cumsum(scores, axis=1)[:, -1:]
    return np.divide(scores, total, out=scores, where=total > 0.0)


def _hybrid(index: GraphIndex, targets: np.ndarray, probs_weight: float) -> np.ndarray:
    # a user reached by a target gets both mass and heat from it, so the
    # two spreads share their walks
    walk = _to_users(index, targets)
    mass, heat = _to_items(
        index, _user_mass(index, walk, len(targets)), _user_counts(index, walk, len(targets))
    )
    p = _sum_normalized(mass)
    h = _sum_normalized(heat / index.item_users.degree)
    return probs_weight * p + (1.0 - probs_weight) * h


def hybrid_scores(graph: FolksonomyGraph, target: str, probs_weight: float) -> ScoreVector:
    """Convex combination of sum-normalized mass diffusion and heat spreading.

    Raw magnitudes of the two methods are incomparable, so each vector is
    divided by its sum before mixing; normalization is monotone, so the
    rankings at the endpoints equal the pure methods' rankings.
    """
    return scorer("hybrid", 1, probs_weight)(graph, target)


def _walk(
    index: GraphIndex, sources: np.ndarray, item_side: Adjacency, bridge_side: Adjacency
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The popularity-matched diffusion paths of the item rows ``sources``.

    For every source item s, walk s -> bridge node l -> candidate item j
    with the term ``(1 / deg(s) / deg(l)) * overlap / deg(j)``, evaluated in
    that order: the path's share of s's unit, scaled by the overlap
    |N(s) & N(j)| / deg(j) of the two items' neighbour sets on the bridging
    side. ``item_side`` maps items to bridge nodes and ``bridge_side`` back.
    Returns each path's position in ``sources``, candidate column and term;
    the paths run over the sources in the given order, then l and j in
    ascending order. A term depends on s, l and j alone.
    """
    n_items = len(index.items)
    bridges, source = item_side.gather(sources)
    share = (1.0 / item_side.degree[sources])[source] / bridge_side.degree[bridges]
    items, via = bridge_side.gather(bridges)
    # on a stacked index, candidate v * n_items + j is item j of its
    # source's view v and scores in column j; unstacked, v is 0
    column = items % n_items
    # a (s, j) pair occurs once per bridge that s and j share, so its count
    # is the overlap |N(s) & N(j)|, never 0. The pairs are counted in bins
    # s * n_items + j, s running over the positions in sources, a block of
    # sources at a time (source[via] ascends) so that no count array exceeds
    # max(_PAIR_BINS, n_items) bins.
    s = source[via]
    # each term is share * overlap / deg(j), computed in place in that
    # order: a chunk's path-sized temporaries set the peak of a walk
    terms = share[via]
    del via
    per_block = max(1, _PAIR_BINS // n_items)
    cuts = np.searchsorted(s, np.arange(0, len(sources) + per_block, per_block))
    for block, (lo, hi) in enumerate(zip(cuts.tolist(), cuts[1:].tolist())):
        pair = (s[lo:hi] - block * per_block) * n_items + column[lo:hi]
        terms[lo:hi] *= np.bincount(pair)[pair]
    terms /= item_side.degree[items]
    return s, column, terms


def _overlap_diffusion(
    index: GraphIndex, targets: np.ndarray, item_side: Adjacency, bridge_side: Adjacency
) -> np.ndarray:
    """Shared core of the popularity-matched diffusion scores.

    Each target adds the terms of the :func:`_walk` paths of its items, s
    ascending. The overlap factor lies in [0, 1], so the result is bounded
    above by plain mass diffusion on the same projection.
    """
    owned, of = index.user_items.gather(targets)
    chunks = [(0, len(owned))]
    if len(targets) == 1:
        # a lone target may exceed the budget: it walks its sources in chunks
        # whose paths fit it (a block of several fits as a whole)
        bridges, source = item_side.gather(owned)
        chunks = _blocks(np.bincount(source, bridge_side.degree[bridges], len(owned)))
    sums = None
    for lo, hi in chunks:
        s, column, terms = _walk(index, owned[lo:hi], item_side, bridge_side)
        sums = _per_target(of[lo:hi][s], column, terms, len(targets), len(index.items), sums)
    return sums


def _paths_of(
    index: GraphIndex,
    sources: np.ndarray,
    degree: np.ndarray,
    chunks: list[tuple[int, int]],
    item_side: Adjacency,
    bridge_side: Adjacency,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`_walk` paths of each of the distinct item rows ``sources``.

    Source ``r`` has ``degree[r]`` paths. Returns ``(ptr, degree, column,
    terms)``, CSR rows: row ``r``, source ``r``'s paths in walk order, is
    the ``degree[r]`` entries of ``column`` and ``terms`` from ``ptr[r]``
    on. The sources are walked a chunk ``(lo, hi)`` of ``chunks`` at a time.
    """
    ptr = np.zeros(len(sources) + 1, np.intp)
    np.cumsum(degree, out=ptr[1:])
    # the smallest integer type that holds a column: the table is held for
    # the whole call
    column = np.empty(ptr[-1], np.min_scalar_type(len(index.items)))
    terms = np.empty(ptr[-1])
    for lo, hi in chunks:
        _, column[ptr[lo] : ptr[hi]], terms[ptr[lo] : ptr[hi]] = _walk(
            index, sources[lo:hi], item_side, bridge_side
        )
    return ptr, degree, column, terms


def _gathered(paths, at: np.ndarray, of: np.ndarray, n_targets: int, n_items: int) -> np.ndarray:
    """``out[t, j]``: the terms of the ``paths`` of sources ``at``, in that order.

    ``of`` gives the target position of each entry of ``at``.
    """
    ptr, degree, column, terms = paths
    sums = None
    # a lone target may exceed the budget, as in _overlap_diffusion
    for lo, hi in _blocks(degree[at]) if n_targets == 1 else [(0, len(at))]:
        pos, entry = row_entries(ptr, degree, at[lo:hi])
        sums = _per_target(of[lo:hi][entry], column[pos], terms[pos], n_targets, n_items, sums)
    return sums


def _affinity(index: GraphIndex, targets: np.ndarray) -> np.ndarray:
    """Popularity-matched diffusion over user-item links (PLIERS, bipartite).

    Mass diffusion per path, multiplied per source item s and candidate j by
    the shared-user fraction |U_s & U_j| / k_u(j); candidates whose audience
    overlaps the target's items score high without a popularity bias.
    """
    return _overlap_diffusion(index, targets, index.item_users, index.user_items)


def _similarity(index: GraphIndex, targets: np.ndarray) -> np.ndarray:
    """Popularity-matched diffusion over item-tag links.

    Same walk with tags as the bridging side: item s -> tag z -> item j with
    weight 1 / (k_i(z) * k_t(s)), scaled by the shared-tag fraction
    |T_s & T_j| / k_t(j). Measures how alike two items' labelings are.
    """
    return _overlap_diffusion(index, targets, index.item_tags, index.tag_items)


def _tripartite(
    index: GraphIndex,
    targets: np.ndarray,
    affinity_weight: float,
    walks: tuple | None = None,
) -> np.ndarray:
    """PLIERS, from the paths walked for this block, or gathered from ``walks``.

    ``walks`` holds the distinct source rows of a call, ascending, and
    their affinity and similarity paths (:func:`_paths_of`). Gathered, each
    target adds its sources' paths in owned order: the terms of the walk,
    in its order.
    """
    if walks is None:
        a = _affinity(index, targets)
        s = _similarity(index, targets)
    else:
        sources, *sides = walks
        owned, of = index.user_items.gather(targets)
        at = np.searchsorted(sources, owned)
        a, s = (_gathered(paths, at, of, len(targets), len(index.items)) for paths in sides)
    return affinity_weight * a + (1.0 - affinity_weight) * s


def _tripartite_for_rows(
    index: GraphIndex, rows: np.ndarray, affinity_weight: float
) -> Callable | None:
    """The PLIERS kernel for the blocks of one call over the warm ``rows``.

    When the rows own some source item row more than once, every distinct
    source's paths are walked once for the call, both sides, and each block
    gathers its targets' paths. The sources are walked a chunk at a time,
    on both sides, so a chunk takes sources while their paths on both sides
    fit ``_BLOCK_ENTRIES``, and at least one: a walk's temporaries stay
    those of a kernel block that walks without the table. Otherwise None:
    each block walks its own sources. So is it, without a look at the rows,
    when no item row has two owners: then only a row listed twice repeats a
    source.
    """
    if not (index.item_users.degree > 1).any():
        return None
    owned, _ = index.user_items.gather(rows)
    # the stable argsort that rank and lexsort already run: the first
    # np.sort of a process maps in about 0.4 MiB of code
    ordered = owned[owned.argsort(kind="stable")]
    repeats = ordered[1:] == ordered[:-1]
    if not repeats.any():
        return None
    sources = ordered[np.append(True, ~repeats)]
    users, tags = (_two_hop_paths(index, side)[sources].astype(np.intp) for side in _BOTH_SIDES)
    chunks = _blocks(users + tags)
    walks = (
        sources,
        _paths_of(index, sources, users, chunks, index.item_users, index.user_items),
        _paths_of(index, sources, tags, chunks, index.item_tags, index.tag_items),
    )
    return partial(_tripartite, affinity_weight=affinity_weight, walks=walks)


def pliers_tripartite(
    graph: FolksonomyGraph, target: str, affinity_weight: float = 0.5
) -> ScoreVector:
    """Raw linear combination of the affinity and similarity indices.

    ``affinity_weight`` weighs the user-item side; the remainder goes to the
    tag side. Unlike :func:`hybrid_scores` the two components are combined
    un-normalized.
    """
    return scorer("pliers", 1, affinity_weight)(graph, target)


def _cf(index: GraphIndex, targets: np.ndarray, k: int) -> np.ndarray:
    n_users = len(index.users)
    common = _user_counts(index, _to_users(index, targets), len(targets))
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
    return scorer("cf", k, 0.5)(graph, target)


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
    return scorer("tagexp", k, 0.5)(graph, target)


def rank(
    scores: ScoreVector, graph: FolksonomyGraph, top_n: int | None = None
) -> RecommendationVector:
    """Turn raw scores into a recommendation list.

    Items already linked to the target and items with zero score are dropped;
    the rest sort by score descending with item-key ties ascending, truncated
    to ``top_n`` when given. ``scores`` must list the items of
    ``graph.index()``, as every vector scored on that index or on an index
    stacked from it does; any other vector, or a negative ``top_n``, raises
    ValueError.
    """
    if top_n is not None and top_n < 0:
        raise ValueError(f"top_n must be >= 0, got {top_n}")
    index = graph.index()
    if scores.items is not index.items and scores.items != index.items:
        raise ValueError(f"the scores of {scores.target!r} are not over the graph's items")
    values = scores.values
    keep = values > 0.0
    row = index.user_pos.get(scores.target)
    if row is not None:
        keep[index.user_items.row(row)] = False
    (pos,) = keep.nonzero()
    # items are in key order and pos ascends, so a stable sort on -score
    # leaves equal scores in ascending key order
    order = pos[(-values[pos]).argsort(kind="stable")]
    if top_n is not None:
        order = order[:top_n]
    # one list of the index's keys and a fancy-indexed copy of the scores,
    # which holds no view of the scored row: a graded run keeps thousands of
    # lists, and a float object or tuple per item would cost memory and set
    # off the cyclic collector
    return RecommendationVector.from_columns(
        scores.target, index.item_array[order].tolist(), values[order]
    )
