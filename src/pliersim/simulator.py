"""Discrete-time replay of contact and content traces with knowledge gossip.

Each agent knows a set of content events that grows when the agent creates
content and when it meets other agents; its local knowledge graph (LKG) is
the graph of those events. A global knowledge graph (GKG) accumulates
everything ever created, and every view of it (an agent's knowledge, an
expiry window) is a mask over its edges. Per-step metrics compare every
agent's local view (and locally computed recommendations) against the
global ones.

Time is integer seconds; step s covers [s*step_length, (s+1)*step_length)
and its metrics are stamped with the step's end time. Within a step all
content events apply first, then contacts run sequentially in input order,
so knowledge can travel several hops in a single step. The input need not
be sorted by time: the replay orders the contacts by step with one stable
sort. A step with no content, no contact and no metric row changes nothing
and is not visited, so a gap in the traces costs nothing.

Contacts stay packed from the trace file to the exchange loop: a
:class:`ContactTrace` holds ``array("q")`` columns of times and agent ids,
and each step's contacts run as slices of such columns in this replay's
ids. The replay keeps each agent's knowledge as two bitsets indexed by
agent id: the content events it has seen and their items. A contact is one
comparison of two integers, and two integer ORs when they differ. A view's
edges are the events it holds ORed together by edge id, a byte per
(view, event) while they are taken.
"""

from __future__ import annotations

import heapq
import itertools
import random
from array import array
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import recommend
from .evaluation import sum_in_order
from .graph import FolksonomyGraph, GraphIndex
from .recommend import scorer
from .traces import POLICY_FIELDS  # noqa: F401  (read as simulator.POLICY_FIELDS)
from .traces import ContactEvent, ContactTrace, ContentEvent, SimConfig, StepMetrics, agent_name

# not called here; bench/tracing.py wraps these names of this module, so they
# stay: the metric rows rank and compare lists with _ranked_rows and
# _pair_similarities, which equal these on every input
from .evaluation import jaccard, spearman_similarity  # noqa: F401
from .recommend import pliers_tripartite, rank  # noqa: F401


# ----------------------------------------------------------------------
# download policies
# ----------------------------------------------------------------------

@dataclass
class DownloadPolicyState:
    """Per-agent mutable policy state.

    The threshold kinds keep a score history of (time, score) pairs;
    ``bounded_buffer`` keeps only its item buffer.
    """

    config: SimConfig
    history: deque = field(default_factory=deque)  # (time, score) pairs
    buffer: dict[str, float] = field(default_factory=dict)
    observed: int = 0
    downloaded: int = 0


def apply_download_policy(
    state: DownloadPolicyState, item: str, score: float, now: int
) -> bool:
    """Decide download/skip for one scored item and update the state.

    A threshold kind records every observation in its score history at
    simulation time ``now``, whatever the decision; with a history span
    set, observations older than ``now`` minus the span leave the history
    before the decision.
    """
    if score < 0.0:
        raise ValueError("score must be >= 0")
    config = state.config
    if config.download_policy == "bounded_buffer":
        if len(state.buffer) < config.download_buffer_capacity:
            state.buffer[item] = score
            decision = True
        else:
            evict_score, evict_item = min(
                (s, i) for i, s in state.buffer.items()
            )
            if score > evict_score:
                del state.buffer[evict_item]
                state.buffer[item] = score
                decision = True
            else:
                decision = False
    else:
        if config.download_history_s is not None:
            while state.history and now - state.history[0][0] > config.download_history_s:
                state.history.popleft()
        values = [s for _, s in state.history]
        if not values:
            decision = True
        elif config.download_policy == "mean_threshold":
            decision = score > sum_in_order(values) / len(values)
        else:
            decision = score > float(np.percentile(values, config.download_percentile))
        state.history.append((now, score))

    state.observed += 1
    state.downloaded += decision
    return decision


# ----------------------------------------------------------------------
# metric computation
# ----------------------------------------------------------------------

# Views as boolean masks over the user-item and item-tag edge ids of the
# global graph, the positions of its edges in gkg's two edge maps: one row
# per view.
Masks = tuple[np.ndarray, np.ndarray]


# The most views times gkg edges (user-item plus item-tag) that one stacked
# index may hold: each view costs it a copy of the edges it holds. The cap
# lowers the high-water mark from 176 to 125 MiB on a 1,000-agent, 2 h
# replay (240 communities, one content per 7.5 s, windows None and 900 s,
# cadence 20), and from 68.6 to 59.2 MiB on criterion-6 seed 0 with a
# one-hour step and mean_threshold (2-CPU VM, Python 3.11, numpy 2.4).
_STACKED_EDGES = 1 << 15


def _views_per_stack(gkg: FolksonomyGraph) -> int:
    """How many views of ``gkg`` one stacked index may hold, at least one."""
    return max(1, _STACKED_EDGES // max(1, len(gkg.user_item_edges) + len(gkg.item_tag_edges)))


def compute_step_metrics(
    gkg: FolksonomyGraph,
    views: Masks,
    holders: Sequence[Sequence[str]],
    affinity_weight: float,
    top_n: int | None,
    *,
    now: int,
    step: int = 0,
    n_contacts: int = 0,
    n_contents: int = 0,
) -> StepMetrics:
    """Compare every agent's local view and recommendations with the global one.

    ``views`` holds one view per row, under whatever expiry window applies:
    the global view in row 0 and, in row ``v``, the local view that the
    agents ``holders[v - 1]`` share. Two rows may hold the same view; an
    agent's scores do not depend on its row. Graph similarity (edge-set
    Jaccard) averages over *all* agents (an empty local view scores 0
    against a non-empty global one). Recommendation similarities skip
    agents whose local and global recommendation vectors are both empty;
    when that skips everyone, the averages are 1.0 by convention (nothing
    to recommend, local trivially agrees with global).

    Views are scored on ``gkg``'s index stacked to the global view and at
    most :func:`_views_per_stack` - 1 local views at a time, but always one:
    each agent on the row of its own view and on its row of the global view.
    Both lists are ranked against ``gkg``: a replay's view keeps an item only
    with every event of it that its holders know, their own included, so an
    item that an agent owns in ``gkg`` and that scores above 0 in a view is
    owned in that view too. The lists are ranked and compared a block of
    agents at a time, two score rows each and one kernel block
    (``recommend._BLOCK_SCORES`` scores) in all, by :func:`_ranked_rows` and
    :func:`_pair_similarities`.
    """
    index = gkg.index()
    ui, it = views
    n_users = len(index.users)
    graph_sims: dict[str, float] = {}
    for group, graph_sim in zip(holders, _mask_jaccards(views)[1:]):
        graph_sims.update(dict.fromkeys(group, graph_sim))
    rec_sims: dict[str, tuple[float, float, float]] = {}
    pliers = scorer("pliers", 1, affinity_weight)
    per_stack = max(1, _views_per_stack(gkg) - 1)
    per_block = max(1, recommend._BLOCK_SCORES // (2 * max(1, len(index.items))))
    for lo in range(1, len(ui), per_stack):
        picked = [0, *range(lo, min(lo + per_stack, len(ui)))]
        stacked = index.stacked(ui[picked], it[picked])
        degree = stacked.user_items.degree
        local_row: dict[str, int] = {}
        for v, group in enumerate(holders[lo - 1 : lo - 1 + per_stack], start=1):
            for agent in group:
                u = index.user_pos.get(agent)
                # absent from gkg, or a cold start on both views: both lists
                # would be empty
                if u is not None and (degree[v * n_users + u] or degree[u]):
                    local_row[agent] = v * n_users + u
        agents = list(local_row)
        rows = np.array([(local_row[a], index.user_pos[a]) for a in agents], np.intp).ravel()
        scores = pliers.rows(stacked, rows)
        for start in range(0, len(agents), per_block):
            # each agent's user of gkg, once for each of its two rows
            users = rows[2 * start + 1 : 2 * (start + per_block) : 2].repeat(2)
            values = np.array([next(scores) for _ in users])
            ranked = _ranked_rows(index, users, values, top_n)
            block = agents[start : start + per_block]
            for agent, sims in zip(block, _pair_similarities(values.shape, *ranked)):
                if sims is not None:
                    rec_sims[agent] = sims

    def mean(values: list[float], empty: float) -> float:
        return sum_in_order(values) / len(values) if values else empty

    recs = [rec_sims[a] for a in sorted(rec_sims)]
    return StepMetrics(
        step=step,
        sim_time_s=now,
        avg_graph_jaccard=mean([graph_sims[a] for a in sorted(graph_sims)], 1.0),
        avg_rec_jaccard=mean([r[0] for r in recs], 1.0),
        avg_rec_spearman_corrected=mean([r[1] for r in recs], 1.0),
        avg_rec_spearman_literal=mean([r[2] for r in recs], 1.0),
        n_contacts=n_contacts,
        n_contents=n_contents,
    )


def _ranked_rows(
    index: GraphIndex, users: np.ndarray, scores: np.ndarray, top_n: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lists that :func:`rank` makes of the rows of ``scores``, as listed entries.

    Row ``r`` holds the scores of user ``users[r]`` of ``index`` over
    ``index.items``, and is changed in place. Its list holds the unowned
    items scoring above 0, by score descending with ties by item position
    ascending, cut at ``top_n`` when given. Returns the row, item position
    and 1-based place on its list of every listed entry, row by row and
    each row's in list order.
    """
    owned, of = index.user_items.gather(users)
    scores[of, owned] = 0.0
    row, item = (scores > 0.0).nonzero()
    # items ascend within each row, and lexsort is stable, so equal scores
    # keep ascending item order
    order = np.lexsort((-scores[row, item], row))
    row, item = row[order], item[order]
    place = np.arange(1, len(row) + 1) - np.searchsorted(row, row)
    if top_n is not None:
        listed = place <= top_n
        row, item, place = row[listed], item[listed], place[listed]
    return row, item, place


def _pair_similarities(
    shape: tuple[int, int], row: np.ndarray, item: np.ndarray, place: np.ndarray
) -> list[tuple[float, float, float] | None]:
    """:func:`jaccard` and both footrules of each pair of lists that :func:`_ranked_rows` gives.

    ``shape`` is that of the ranked block, rows by items. Pair ``i`` is the
    lists of rows ``2 * i`` and ``2 * i + 1``. It gets its list Jaccard and its
    ``corrected`` and ``literal`` :func:`spearman_similarity` in that
    order, each the quotient of the integers that those functions divide,
    so the same floats; or None when both lists are empty.
    """
    n_pairs = shape[0] // 2
    # the place of each listed entry, 0 off the lists
    position = np.zeros(shape, np.intp)
    position[row, item] = place
    length = np.bincount(row, minlength=shape[0])
    first = row % 2 == 0
    # the place on the second list of each item of a first list
    theirs = position[row[first] + 1, item[first]]
    both = theirs > 0
    pair = row[first][both] // 2
    shared = np.bincount(pair, minlength=n_pairs)
    # a sum of whole numbers far below 2^53, exact as a float
    moved = np.bincount(pair, np.abs(place[first][both] - theirs[both]), n_pairs).astype(np.intp)
    union = length[0::2] + length[1::2] - shared
    longest = np.maximum(length[0::2], length[1::2])
    return [
        (s / u, 1.0 - (d + (u - s) * n) / (u * n), 1.0 - d / n) if u else None
        for s, u, d, n in zip(shared.tolist(), union.tolist(), moved.tolist(), longest.tolist())
    ]


def _mask_jaccards(views: Masks) -> list[float]:
    """:func:`jaccard` of each view's edge set with view 0's, user-item and item-tag kept apart."""
    ui, it = views
    shared = np.count_nonzero(ui & ui[0], axis=1) + np.count_nonzero(it & it[0], axis=1)
    union = np.count_nonzero(ui | ui[0], axis=1) + np.count_nonzero(it | it[0], axis=1)
    return [s / u if u else 1.0 for s, u in zip(shared.tolist(), union.tolist())]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def _set_bits(bits: int) -> list[int]:
    """Indices of the set bits of ``bits``, lowest first, in time linear in its length."""
    return [i for i, digit in enumerate(reversed(bin(bits)[2:])) if digit == "1"]


def _any_of_each(
    held: np.ndarray, column: np.ndarray, group: np.ndarray, n_groups: int
) -> np.ndarray:
    """For each row of ``held``, whether any of its columns of each group is set.

    Column ``column[k]`` of ``held`` belongs to group ``group[k]``, and each
    of the groups ``0 .. n_groups - 1`` has a column. The columns are
    gathered in group order with one stable sort and each group ORed along
    the row. Returns a boolean array of one row per row of ``held`` and one
    column per group.
    """
    order = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[order], np.arange(n_groups))
    return np.logical_or.reduceat(held[:, column[order]], starts, axis=1)


def _packed(values: np.ndarray) -> array:
    """The int64 array ``values`` as an ``array("q")``, whose items iterate as Python ints."""
    out = array("q")
    out.frombytes(values.view(np.uint8))
    return out


class Simulation:
    """Per-agent knowledge as event and item bitsets, the global graph, policy states.

    Every agent gets an integer id in registration order, every content
    event one in replay order, and every item one when it is first created.
    An agent's knowledge is the bitset (a Python ``int``) of the events it
    has seen, kept beside the bitset of their items, both in lists indexed
    by agent id: a contact is a union of grow-only sets, two integer ORs,
    and the items a side learns are the bits it gains. Every edge of
    ``gkg`` has an id, its position in ``gkg``'s edge maps, which only grow;
    :meth:`masks` turns sets of events into the edges they hold under an
    expiry cutoff, and so alone decides what a view holds. Local knowledge
    and its views are scored on ``gkg``'s index stacked to those edges, so
    no graph is built for them.
    """

    def __init__(self, config: SimConfig, agents: Iterable[str] = ()):
        self.config = config
        self.gkg = FolksonomyGraph()
        self.policies: dict[str, DownloadPolicyState] = {}
        self._events: list[ContentEvent] = []
        # gkg's user-item and item-tag edges -> edge id, and item -> item id;
        # the time, item id and user-item edge id of each event, and for each
        # tag of each event its event and item-tag edge id; :meth:`masks`
        # views the arrays only while it runs, since an array with a live
        # view cannot grow
        self._edge_ids: tuple[dict, dict] = ({}, {})
        self._item_ids: dict[str, int] = {}
        self._event_time = array("q")
        self._event_item = array("q")
        self._event_edge = array("q")
        self._tag_event = array("q")
        self._tag_edge = array("q")
        # agent -> agent id; per agent id, the bitsets of its events and items
        self._ids: dict[str, int] = {}
        self._event_bits: list[int] = []
        self._item_bits: list[int] = []
        # (agent id, event bits after the contact, new item bits, contact time)
        self._discoveries: list[tuple[int, int, int, int]] = []
        for agent in agents:
            self.register(agent)

    def register(self, agent: str) -> None:
        if agent not in self._ids:
            self._ids[agent] = len(self._event_bits)
            self._event_bits.append(0)
            self._item_bits.append(0)
            if self.config.download_policy is not None:
                self.policies[agent] = DownloadPolicyState(self.config)

    @property
    def lkgs(self) -> Mapping[str, FolksonomyGraph]:
        """Read-only map agent -> local knowledge graph, built on every read.

        Agents that know the same events share one graph; do not mutate it.
        """
        graphs: dict[int, FolksonomyGraph] = {}
        for bits in self._event_bits:
            if bits not in graphs:
                graphs[bits] = graph = FolksonomyGraph()
                for index in _set_bits(bits):
                    ev = self._events[index]
                    graph.add_content(ev.creator, ev.item, ev.tags, ev.time)
        return MappingProxyType({a: graphs[bits] for a, bits in zip(self._ids, self._event_bits)})

    def masks(self, bitsets: Sequence[int], cutoff: int = 0) -> Masks:
        """The ``gkg`` edges that the events of each bitset hold under an expiry cutoff.

        A row drops every event of each item that it knows an event of from
        before ``cutoff``: its graph pruned by item creation time. A cutoff
        of 0 or less, the default, expires nothing. Returns boolean arrays
        over the user-item and the item-tag edge ids, one row per bitset.

        Each pass groups the events, or the tags of the events, by item or
        edge id with one stable sort and ORs each group along the event
        axis: every item and edge id has an event, so no group is empty. The
        work arrays hold a byte per (bitset, event) or (bitset, event tag).
        """
        n, width = len(self._events), (len(self._events) + 7) // 8
        if not n:
            return np.zeros((len(bitsets), 0), bool), np.zeros((len(bitsets), 0), bool)
        # before Python 3.11, int.to_bytes needs both arguments
        raw = np.frombuffer(b"".join(bits.to_bytes(width, "little") for bits in bitsets), np.uint8)
        held = np.unpackbits(
            raw.reshape(len(bitsets), width), axis=1, count=n, bitorder="little"
        ).view(bool)
        events, item = np.arange(n), np.frombuffer(self._event_item, np.int64)
        if cutoff > 0:
            old = held & (np.frombuffer(self._event_time, np.int64) < cutoff)
            held &= (~_any_of_each(old, events, item, len(self._item_ids)))[:, item]
        edge = np.frombuffer(self._event_edge, np.int64)
        ui = _any_of_each(held, events, edge, len(self._edge_ids[0]))
        tag_event = np.frombuffer(self._tag_event, np.int64)
        tag_edge = np.frombuffer(self._tag_edge, np.int64)
        it = _any_of_each(held, tag_event, tag_edge, len(self._edge_ids[1]))
        return ui, it

    def apply_content(self, event: ContentEvent) -> None:
        """Add one content event to its creator's knowledge and to ``gkg``.

        An unregistered creator raises KeyError before any state changes.
        """
        creator, n = self._ids[event.creator], len(self._events)
        item = self._item_ids.setdefault(event.item, len(self._item_ids))
        self._event_bits[creator] |= 1 << n
        self._item_bits[creator] |= 1 << item
        self._events.append(event)
        self._event_time.append(event.time)
        self._event_item.append(item)
        self.gkg.add_content(event.creator, event.item, event.tags, event.time)
        # a new edge goes last in gkg's edge map, an edge it has keeps its place
        ui_ids, it_ids = self._edge_ids
        self._event_edge.append(ui_ids.setdefault((event.creator, event.item), len(ui_ids)))
        for tag in event.tags:
            self._tag_event.append(n)
            self._tag_edge.append(it_ids.setdefault((event.item, tag), len(it_ids)))

    def _contacts(self, xs: Sequence[int], ys: Sequence[int], times: Sequence[int]) -> None:
        """Exchange knowledge on each contact, in order: ``xs[i]`` meets ``ys[i]`` at ``times[i]``.

        Both sides end up with the union of the two event bitsets and of the
        two item bitsets. Equal event bitsets hold equal items, so a contact
        between equal knowledge costs one comparison and changes nothing.
        With a download policy, which every agent then has, a side that
        gains items queues them, and :meth:`run_windows` has the policies
        decide at the end of the step.
        """
        events, items, queue = self._event_bits, self._item_bits, self._discoveries
        watched = self.config.download_policy is not None
        for x, y, now in zip(xs, ys, times):
            ex, ey = events[x], events[y]
            if ex != ey:
                known = events[x] = events[y] = ex | ey
                ix, iy = items[x], items[y]
                union = items[x] = items[y] = ix | iy
                if watched:
                    if union != ix:
                        queue.append((x, known, union ^ ix, now))
                    if union != iy:
                        queue.append((y, known, union ^ iy, now))

    def encounter(self, a: str, b: str, now: int) -> tuple[set[str], set[str]]:
        """One contact between agents ``a`` and ``b``; returns the two new-item sets (for a, for b).

        It runs the replay's exchange on this one contact; the replay itself
        does not call it. An unregistered agent raises KeyError before any
        state changes.
        """
        x, y = self._ids[a], self._ids[b]
        ix, iy = self._item_bits[x], self._item_bits[y]
        self._contacts([x], [y], [now])
        union, items = ix | iy, list(self._item_ids)
        return {items[i] for i in _set_bits(union ^ ix)}, {items[i] for i in _set_bits(union ^ iy)}

    def _decide(self) -> None:
        """Feed the first queued discoveries, a capped number of views, to the policies.

        Each is scored on what its agent knew right after the contact, a view
        of ``gkg``'s index stacked to their distinct views; ``gkg`` is fixed
        during a step's contacts, so these are the contact's floats. A batch
        holds at most :func:`_views_per_stack` views, but always one.
        """
        index, views, rows = self.gkg.index(), {}, []
        agents, items = list(self._ids), list(self._item_ids)
        most = _views_per_stack(self.gkg)
        for x, known, _, _ in self._discoveries:
            if known not in views and len(views) == most:
                break
            v, u = views.setdefault(known, len(views)), index.user_pos.get(agents[x])
            # an agent that created nothing is a cold start on every view
            rows.append(-1 if u is None else v * len(index.users) + u)
        batch, self._discoveries = self._discoveries[: len(rows)], self._discoveries[len(rows) :]
        pliers = scorer("pliers", 1, self.config.affinity_weight)
        scores = pliers.rows(index.stacked(*self.masks(list(views))), np.array(rows, np.intp))
        for (x, _, new, now), values in zip(batch, scores):
            for item in sorted(items[i] for i in _set_bits(new)):
                score = float(values[index.item_pos[item]])
                apply_download_policy(self.policies[agents[x]], item, score, now)

    def run_windows(
        self,
        contacts: ContactTrace | Sequence[ContactEvent],
        contents: Sequence[ContentEvent],
        windows: Sequence[int | None],
    ) -> dict[int | None, list[StepMetrics]]:
        """Replay the traces once, measuring under several expiry windows.

        Contacts given as events become a :class:`ContactTrace` first. Every
        agent the traces name is registered first: the content creators,
        then the contact agents in first-seen order. The contacts are then
        ordered by step with one stable sort, so each step's keep their
        input order, and each step's run through one loop over packed
        columns of agent ids. Only the steps that hold contents or contacts
        and the metric steps up to the last of them are visited: any other
        step changes nothing. The expiry window only affects measurement,
        never the exchanged knowledge, so one pass over the dynamics serves
        all windows: at each metric step, agents with equal knowledge share
        one row of :meth:`masks` in every window. A window listed twice, or
        of 0 s or less, raises ValueError up front.
        """
        if len(set(windows)) < len(windows) or any(w is not None and w <= 0 for w in windows):
            raise ValueError(f"expiry windows must be distinct and positive, got {list(windows)}")
        if not isinstance(contacts, ContactTrace):
            contacts = ContactTrace.of(contacts)
        length = self.config.step_length
        for agent in [*(ev.creator for ev in contents), *contacts.agents]:
            self.register(agent)

        contents_by_step: dict[int, list[ContentEvent]] = {}
        for ev in contents:
            contents_by_step.setdefault(ev.time // length, []).append(ev)
        # the contacts in step order, as packed columns in this replay's ids
        times = np.frombuffer(contacts.times, np.int64)
        steps = times // length
        order = np.argsort(steps, kind="stable")
        steps = steps[order]
        ids = np.array([self._ids[agent] for agent in contacts.agents], np.int64)
        xs = _packed(ids[np.frombuffer(contacts.a, np.int64)[order]])
        ys = _packed(ids[np.frombuffer(contacts.b, np.int64)[order]])
        times = _packed(times[order])

        # the steps that hold contents or contacts, then the metric steps up
        # to the last of them; a step between these changes nothing. Steps
        # are at least 0, and np.unique would load numpy.ma
        busy = sorted({*contents_by_step, *steps[np.diff(steps, prepend=-1) != 0].tolist()})
        last_step = busy[-1] if busy else -1
        cadence = self.config.metric_cadence
        visited = heapq.merge(busy, range(cadence - 1, last_step + 1, cadence))

        out: dict[int | None, list[StepMetrics]] = {w: [] for w in windows}
        hi = 0
        for step, _ in itertools.groupby(visited):
            step_contents = contents_by_step.get(step, ())
            for ev in step_contents:
                self.apply_content(ev)
            # the step's contacts: those since the step visited last
            lo, hi = hi, int(steps.searchsorted(step, "right"))
            self._contacts(xs[lo:hi], ys[lo:hi], times[lo:hi])
            while self._discoveries:
                self._decide()
            if (step + 1) % cadence == 0 or step == last_step:
                now = (step + 1) * length
                everything = (1 << len(self._events)) - 1
                known: dict[int, list[str]] = {}
                for agent, bits in zip(self._ids, self._event_bits):
                    known.setdefault(bits, []).append(agent)
                for window in windows:
                    out[window].append(
                        compute_step_metrics(
                            self.gkg,
                            self.masks([everything, *known], 0 if window is None else now - window),
                            list(known.values()),
                            self.config.affinity_weight,
                            self.config.top_n,
                            now=now,
                            step=step,
                            n_contacts=hi - lo,
                            n_contents=len(step_contents),
                        )
                    )
        return out


def run(
    config: SimConfig,
    contacts: ContactTrace | Sequence[ContactEvent],
    contents: Sequence[ContentEvent],
    agents: Iterable[str] = (),
) -> list[StepMetrics]:
    """Replay the traces under ``config`` and return the metric series.

    The population is the roster ``agents`` plus every agent the traces
    name; the roster is how an agent that neither creates content nor meets
    anyone enters the averages.
    """
    window = config.expiry_window
    return Simulation(config, agents).run_windows(contacts, contents, [window])[window]


# ----------------------------------------------------------------------
# synthetic contacts
# ----------------------------------------------------------------------

def generate_synthetic_contacts(
    n_agents: int,
    n_communities: int,
    rewiring_p: float,
    duration: int,
    rng_seed: int,
) -> list[ContactEvent]:
    """Community-structured random contacts, one draw per agent per minute.

    Agents are split round-robin into communities; every minute each agent
    picks a partner inside its community with probability ``1 - rewiring_p``
    and outside it otherwise. An agent whose candidate pool for the drawn
    side is empty (singleton community, or a single community and an outside
    draw) simply skips that minute. A duration under a minute draws nothing.
    """
    if n_communities < 1 or n_communities > n_agents:
        raise ValueError("need 1 <= n_communities <= n_agents")
    if not 0.0 <= rewiring_p <= 1.0:
        raise ValueError("rewiring_p must lie in [0, 1]")
    if duration < 0:
        raise ValueError("duration must be >= 0")
    rng = random.Random(rng_seed)
    agents = [agent_name(i) for i in range(n_agents)]
    community = {a: i % n_communities for i, a in enumerate(agents)}
    members: dict[int, list[str]] = {c: [] for c in range(n_communities)}
    for a in agents:
        members[community[a]].append(a)
    outside = {
        c: [a for a in agents if community[a] != c] for c in range(n_communities)
    }

    events: list[ContactEvent] = []
    for minute in range(duration // 60):
        t = minute * 60
        for a in agents:
            c = community[a]
            if rng.random() < 1.0 - rewiring_p:
                pool = [m for m in members[c] if m != a]
            else:
                pool = outside[c]
            if not pool:
                continue
            events.append(ContactEvent(t, a, rng.choice(pool)))
    return events
