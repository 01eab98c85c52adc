"""Link-prediction benchmark and the similarity / regression measures.

Everything here is a pure function of its inputs; the link-prediction prune
is deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import FolksonomyGraph
from .recommend import Scorer, ScoreVector, rank


def sum_in_order(values: Iterable[float]) -> float:
    """Add ``values`` one at a time, first to last.

    Builtin ``sum`` compensates float rounding from Python 3.12 on, so its
    result would depend on the interpreter version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


# ----------------------------------------------------------------------
# link removal
# ----------------------------------------------------------------------

@dataclass
class LinkRemovalSet:
    """One removed user-item link per eligible user."""

    removals: dict[str, str]
    removed_fraction: float


def prune_for_link_prediction(
    graph: FolksonomyGraph, rng_seed: int
) -> tuple[FolksonomyGraph, LinkRemovalSet]:
    """Remove one random link from every user with enough shared items.

    Users are visited in key order; a user is eligible when, at her turn, she
    is linked to at least 5 items that still have popularity above 1, and the
    removed link is drawn uniformly among exactly those items. Checking
    popularity against the partially pruned graph guarantees that no item is
    ever orphaned, so the pruned graph keeps every item-tag link.
    """
    rng = random.Random(rng_seed)
    original_edges = len(graph.user_item_edges)
    # item popularity in the partially pruned graph; ``graph`` is only read,
    # from its edges, so that no index is built for it: callers keep only
    # the pruned copy
    popularity = Counter(item for _, item in graph.user_item_edges)
    items_of: dict[str, list[str]] = {}
    for user, item in graph.user_item_edges:
        items_of.setdefault(user, []).append(item)
    removals: dict[str, str] = {}
    for user in sorted(items_of):
        candidates = sorted(item for item in items_of[user] if popularity[item] > 1)
        if len(candidates) < 5:
            continue
        chosen = candidates[rng.randrange(len(candidates))]
        popularity[chosen] -= 1
        removals[user] = chosen
    # nothing has read the fresh copy yet, so it holds no index to drop
    pruned = graph.copy()
    for edge in removals.items():
        del pruned._ui_times[edge]
    fraction = len(removals) / original_edges if original_edges else 0.0
    return pruned, LinkRemovalSet(removals, fraction)


# ----------------------------------------------------------------------
# precision / recall
# ----------------------------------------------------------------------

@dataclass
class EvalReport:
    precision: float
    recall: float
    # user -> (1-based positions of recovered items, |L(u)|, |T(u)|)
    per_user: dict[str, tuple[tuple[int, ...], int, int]] = field(default_factory=dict)


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
        total += sum_in_order(1.0 / pos[t] for t in removed if t in pos) / len(removed)
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
    """Score every user with removals on the pruned graph and grade recovery.

    Gives what :func:`precision` and :func:`recall` give on every user's
    ranked list, bit for bit, grading each list as it is ranked. The users'
    rows are scored together with ``scorer.rows``, block by block, and each
    user's scores go through the module global ``rank`` once, in sorted
    user order. Each user has one removed item, listed at position ``p`` or
    not at all, so the user's precision term is ``1.0 / p`` or 0 and the
    recall term 1 or 0, added in sorted user order.
    """
    per_user: dict[str, tuple[tuple[int, ...], int, int]] = {}
    total_precision = total_recall = 0.0
    users = sorted(removal.removals)
    index = pruned.index()
    rows = np.array([index.user_pos.get(user, -1) for user in users], np.intp)
    for user, values in zip(users, scorer.rows(index, rows)):
        keys = rank(ScoreVector(user, index.items, values), pruned, top_n).item_keys()
        try:
            position = keys.index(removal.removals[user]) + 1
        except ValueError:
            per_user[user] = ((), len(keys), 1)
            continue
        per_user[user] = ((position,), len(keys), 1)
        total_precision += 1.0 / position
        total_recall += 1.0
    n = len(removal.removals)
    return EvalReport(
        precision=total_precision / n if n else 0.0,
        recall=total_recall / n if n else 0.0,
        per_user=per_user,
    )


# ----------------------------------------------------------------------
# set and rank similarity
# ----------------------------------------------------------------------

def jaccard(a: set, b: set) -> float:
    """|a & b| / |a | b|, with two empty sets counting as identical."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def spearman_similarity(
    r1: Sequence[str], r2: Sequence[str], mode: str = "corrected"
) -> float:
    """Footrule-based similarity of two ranked lists, in [0, 1] when corrected.

    ``literal`` sums position displacements over the shared elements only and
    divides by max(len(r1), len(r2)); two disjoint lists therefore come out
    as perfectly similar, which is why it is kept only for comparison.
    ``corrected`` (default) sums over the union, charging non-shared elements
    the maximum displacement max(len(r1), len(r2)), and normalizes by
    union size times that maximum, so 1.0 means identical lists and 0.0
    disjoint ones.
    """
    if mode not in ("literal", "corrected"):
        raise ValueError(f"unknown mode {mode!r}")
    if not r1 and not r2:
        return 1.0
    pos1 = {x: p for p, x in enumerate(r1, start=1)}
    pos2 = {x: p for p, x in enumerate(r2, start=1)}
    longest = max(len(r1), len(r2))
    if mode == "literal":
        displacement = sum(
            abs(pos1[x] - pos2[x]) for x in pos1.keys() & pos2.keys()
        )
        return 1.0 - displacement / longest
    union = pos1.keys() | pos2.keys()
    displacement = 0
    for x in union:
        if x in pos1 and x in pos2:
            displacement += abs(pos1[x] - pos2[x])
        else:
            displacement += longest
    return 1.0 - displacement / (len(union) * longest)


# ----------------------------------------------------------------------
# correlation / regression report
# ----------------------------------------------------------------------

@dataclass
class CorrelationReport:
    """Pearson correlations and no-intercept two-regressor least squares."""

    r_yx1: float
    r_yx2: float
    r_squared: float
    beta1: float
    beta2: float
    n: int
    zero_variance: tuple[str, ...] = ()

    def csv_row(self) -> str:
        flags = ";".join(self.zero_variance)
        vals = [self.r_squared, self.r_yx1, self.r_yx2, self.beta1, self.beta2]
        return ",".join(format(v, ".9g") for v in vals) + f",{self.n},{flags}"

    CSV_HEADER = "r_squared,r_yx1,r_yx2,beta1,beta2,n,flags"


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    if a.std() == 0.0 or b.std() == 0.0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def correlation_analysis(
    y: Sequence[float], x1: Sequence[float], x2: Sequence[float]
) -> CorrelationReport:
    """Relate a similarity-delta series to content and contact counts.

    Fits y = b1*x1 + b2*x2 with no intercept and reports the coefficient of
    determination against the mean of y, plus the two plain Pearson
    correlations. A zero-variance series yields r = 0 and a flag naming it.
    """
    if not (len(y) == len(x1) == len(x2)):
        raise ValueError("series must have equal lengths")
    if len(y) < 3:
        raise ValueError("need at least 3 points")
    ya = np.asarray(y, dtype=float)
    x1a = np.asarray(x1, dtype=float)
    x2a = np.asarray(x2, dtype=float)

    series = (("y", ya), ("x1", x1a), ("x2", x2a))
    flags = tuple(name for name, values in series if values.std() == 0.0)

    design = np.column_stack([x1a, x2a])
    beta, *_ = np.linalg.lstsq(design, ya, rcond=None)
    residuals = ya - design @ beta
    ss_res = float(residuals @ residuals)
    centered = ya - ya.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return CorrelationReport(
        r_yx1=_pearson(ya, x1a),
        r_yx2=_pearson(ya, x2a),
        r_squared=r_squared,
        beta1=float(beta[0]),
        beta2=float(beta[1]),
        n=len(y),
        zero_variance=flags,
    )
