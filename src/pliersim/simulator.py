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
so knowledge can travel several hops in a single step.
"""

from __future__ import annotations

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

# not called here; bench/tracing.py wraps these names of this module, so they
# stay: the metric rows rank and compare lists with _ranked_rows and
# _pair_similarities, which equal these on every input
from .evaluation import jaccard, spearman_similarity  # noqa: F401
from .recommend import pliers_tripartite, rank  # noqa: F401


# ----------------------------------------------------------------------
# events and configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ContactEvent:
    """One proximity contact; (a, b) and (b, a) mean the same exchange."""

    time: int
    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"contact of agent {self.a!r} with itself")
        if self.time < 0:
            raise ValueError("contact time must be >= 0")


@dataclass(frozen=True, slots=True)
class ContentEvent:
    """Creation of one tagged item by an agent."""

    time: int
    creator: str
    item: str
    tags: tuple[str, ...]

    def __post_init__(self):
        if not self.tags:
            raise ValueError(f"content {self.item!r} carries no tags")
        if self.time < 0:
            raise ValueError("content time must be >= 0")


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


# download_policy kind -> the SimConfig fields it reads
POLICY_FIELDS = {
    "mean_threshold": ("download_history_s",),
    "percentile_threshold": ("download_percentile", "download_history_s"),
    "bounded_buffer": ("download_buffer_capacity",),
}


@dataclass
class SimConfig:
    """The settings of one replay.

    ``download_policy`` names the automatic download rule that agents apply
    to newly discovered items, or None for none: ``mean_threshold``
    downloads scores strictly above the mean of the score history,
    ``percentile_threshold`` above its ``download_percentile``, and
    ``bounded_buffer`` keeps the ``download_buffer_capacity`` best-scored
    items seen so far. ``download_history_s`` limits the threshold history
    to a sliding span of simulation seconds. :data:`POLICY_FIELDS` names the
    fields that each kind reads. Every error message starts with the name
    of the field it rejects.
    """

    step_length: int = 60
    affinity_weight: float = 0.5
    expiry_window: int | None = None
    metric_cadence: int = 1
    top_n: int | None = None
    download_policy: str | None = None
    download_percentile: float = 50.0
    download_buffer_capacity: int = 16
    download_history_s: int | None = None

    def __post_init__(self):
        if self.step_length <= 0:
            raise ValueError("step_length must be positive")
        if self.metric_cadence < 1:
            raise ValueError("metric_cadence must be >= 1")
        if self.expiry_window is not None and self.expiry_window <= 0:
            raise ValueError("expiry_window must be positive when set")
        if not 0.0 <= self.affinity_weight <= 1.0:
            raise ValueError("affinity_weight must lie in [0, 1]")
        if self.top_n is not None and self.top_n < 0:
            raise ValueError("top_n must be >= 0")
        if self.download_policy is not None and self.download_policy not in POLICY_FIELDS:
            raise ValueError(
                f"download_policy must be one of {', '.join(POLICY_FIELDS)}, "
                f"got {self.download_policy!r}"
            )
        if self.download_policy == "bounded_buffer" and self.download_buffer_capacity < 1:
            raise ValueError("download_buffer_capacity must be >= 1")
        if not 0.0 <= self.download_percentile <= 100.0:
            raise ValueError("download_percentile must lie in [0, 100]")
        if self.download_history_s is not None and self.download_history_s < 0:
            raise ValueError("download_history_s must be >= 0")


@dataclass(frozen=True)
class StepMetrics:
    step: int
    sim_time_s: int
    avg_graph_jaccard: float
    avg_rec_jaccard: float
    avg_rec_spearman_corrected: float
    avg_rec_spearman_literal: float
    n_contacts: int
    n_contents: int


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


class Simulation:
    """Per-agent knowledge as content-event sets, the global graph, policy states.

    Every content event gets an integer id in replay order, and an agent's
    knowledge is the bitset (a Python ``int``) of the events it has seen, so
    a contact is one integer OR (a grow-only set, merged by union). Every
    edge of ``gkg`` has an id, its position in ``gkg``'s edge maps, which
    only grow; :meth:`masks` turns sets of events into the edges they hold
    under an expiry cutoff, and so alone decides what a view holds. Local
    knowledge and its views are scored on ``gkg``'s index stacked to those
    edges, so no graph is built for them.
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
        self._knowledge: dict[str, int] = {}
        self._items: dict[str, set[str]] = {}
        self._discoveries: list[tuple[str, int, set[str], int]] = []
        for agent in agents:
            self.register(agent)

    def register(self, agent: str) -> None:
        if agent not in self._knowledge:
            self._knowledge[agent] = 0
            self._items[agent] = set()
            if self.config.download_policy is not None:
                self.policies[agent] = DownloadPolicyState(self.config)

    @property
    def lkgs(self) -> Mapping[str, FolksonomyGraph]:
        """Read-only map agent -> local knowledge graph, built on every read.

        Agents that know the same events share one graph; do not mutate it.
        """
        graphs: dict[int, FolksonomyGraph] = {}
        for bits in self._knowledge.values():
            if bits not in graphs:
                graphs[bits] = graph = FolksonomyGraph()
                for index in _set_bits(bits):
                    ev = self._events[index]
                    graph.add_content(ev.creator, ev.item, ev.tags, ev.time)
        return MappingProxyType({a: graphs[bits] for a, bits in self._knowledge.items()})

    def masks(self, bitsets: Sequence[int], cutoff: int = 0) -> Masks:
        """The ``gkg`` edges that the events of each bitset hold under an expiry cutoff.

        A row drops every event of each item that it knows an event of from
        before ``cutoff``: its graph pruned by item creation time. The
        default cutoff expires nothing. Returns boolean arrays over the
        user-item and the item-tag edge ids, one row per bitset.
        """
        n, width = len(self._events), (len(self._events) + 7) // 8
        # before Python 3.11, int.to_bytes needs both arguments
        raw = np.frombuffer(b"".join(bits.to_bytes(width, "little") for bits in bitsets), np.uint8)
        held = np.unpackbits(
            raw.reshape(len(bitsets), width), axis=1, count=n, bitorder="little"
        ).view(bool)
        item = np.frombuffer(self._event_item, np.int64)
        view, event = (held & (np.frombuffer(self._event_time, np.int64) < cutoff)).nonzero()
        expired = np.zeros((len(bitsets), len(self._item_ids)), bool)
        expired[view, item[event]] = True
        held &= ~expired[:, item]
        ui = np.zeros((len(bitsets), len(self._edge_ids[0])), bool)
        view, event = held.nonzero()
        ui[view, np.frombuffer(self._event_edge, np.int64)[event]] = True
        it = np.zeros((len(bitsets), len(self._edge_ids[1])), bool)
        view, tag = held[:, np.frombuffer(self._tag_event, np.int64)].nonzero()
        it[view, np.frombuffer(self._tag_edge, np.int64)[tag]] = True
        return ui, it

    def apply_content(self, event: ContentEvent) -> None:
        """Add one content event to its creator's knowledge and to ``gkg``.

        An unregistered creator raises KeyError before any state changes.
        """
        n = len(self._events)
        self._knowledge[event.creator] |= 1 << n
        self._events.append(event)
        self._event_time.append(event.time)
        self._event_item.append(self._item_ids.setdefault(event.item, len(self._item_ids)))
        self._items[event.creator].add(event.item)
        self.gkg.add_content(event.creator, event.item, event.tags, event.time)
        # a new edge goes last in gkg's edge map, an edge it has keeps its place
        ui_ids, it_ids = self._edge_ids
        self._event_edge.append(ui_ids.setdefault((event.creator, event.item), len(ui_ids)))
        for tag in event.tags:
            self._tag_event.append(n)
            self._tag_edge.append(it_ids.setdefault((event.item, tag), len(it_ids)))

    def encounter(self, a: str, b: str, now: int) -> tuple[set[str], set[str]]:
        """Symmetric knowledge exchange; returns the two new-item sets (for a, for b).

        Both sides end up with the union of the two content-event sets, and
        nothing changes when the sets are already equal. A side with a
        download policy queues what it learns, and :meth:`run_windows` has
        the policies decide at the end of the step. An unregistered agent
        raises KeyError before any state changes.
        """
        ka, kb = self._knowledge[a], self._knowledge[b]
        items_a, items_b = self._items[a], self._items[b]
        new_a, new_b = items_b - items_a, items_a - items_b
        items_a |= new_a
        items_b |= new_b
        self._knowledge[a] = self._knowledge[b] = ka | kb
        for agent, new in ((a, new_a), (b, new_b)):
            if new and agent in self.policies:
                self._discoveries.append((agent, ka | kb, new, now))
        return new_a, new_b

    def _decide(self) -> None:
        """Feed the first queued discoveries, a capped number of views, to the policies.

        Each is scored on what its agent knew right after the contact, a view
        of ``gkg``'s index stacked to their distinct views; ``gkg`` is fixed
        during a step's contacts, so these are the contact's floats. A batch
        holds at most :func:`_views_per_stack` views, but always one.
        """
        index, views, rows = self.gkg.index(), {}, []
        most = _views_per_stack(self.gkg)
        for agent, known, _, _ in self._discoveries:
            if known not in views and len(views) == most:
                break
            v, u = views.setdefault(known, len(views)), index.user_pos.get(agent)
            # an agent that created nothing is a cold start on every view
            rows.append(-1 if u is None else v * len(index.users) + u)
        batch, self._discoveries = self._discoveries[: len(rows)], self._discoveries[len(rows) :]
        pliers = scorer("pliers", 1, self.config.affinity_weight)
        scores = pliers.rows(index.stacked(*self.masks(list(views))), np.array(rows, np.intp))
        for (agent, _, new, now), values in zip(batch, scores):
            for item in sorted(new):
                score = float(values[index.item_pos[item]])
                apply_download_policy(self.policies[agent], item, score, now)

    def run_windows(
        self,
        contacts: Sequence[ContactEvent],
        contents: Sequence[ContentEvent],
        windows: Sequence[int | None],
    ) -> dict[int | None, list[StepMetrics]]:
        """Replay the traces once, measuring under several expiry windows.

        Every agent the traces name is registered first. The expiry window
        only affects measurement, never the exchanged knowledge, so one pass
        over the dynamics serves all windows: at each metric step, agents
        with equal knowledge share one row of :meth:`masks` in every window.
        A contact between equal knowledge costs one comparison and never
        reaches :meth:`encounter`. A window listed twice, or of 0 s or less,
        raises ValueError up front.
        """
        if len(set(windows)) < len(windows) or any(w is not None and w <= 0 for w in windows):
            raise ValueError(f"expiry windows must be distinct and positive, got {list(windows)}")
        length = self.config.step_length
        named = dict.fromkeys(ev.creator for ev in contents)
        for ev in contacts:
            named[ev.a] = named[ev.b] = None
        for agent in named:
            self.register(agent)

        contents_by_step: dict[int, list[ContentEvent]] = {}
        for ev in contents:
            contents_by_step.setdefault(ev.time // length, []).append(ev)
        contacts_by_step: dict[int, list[ContactEvent]] = {}
        for ev in contacts:
            contacts_by_step.setdefault(ev.time // length, []).append(ev)

        last_step = max([*contents_by_step, *contacts_by_step], default=-1)

        out: dict[int | None, list[StepMetrics]] = {w: [] for w in windows}
        cadence = self.config.metric_cadence
        knowledge = self._knowledge
        for step in range(last_step + 1):
            step_contents = contents_by_step.get(step, ())
            for ev in step_contents:
                self.apply_content(ev)
            step_contacts = contacts_by_step.get(step, ())
            for ev in step_contacts:
                # equal knowledge has nothing to exchange
                if knowledge[ev.a] != knowledge[ev.b]:
                    self.encounter(ev.a, ev.b, ev.time)
            while self._discoveries:
                self._decide()
            if (step + 1) % cadence == 0 or step == last_step:
                now = (step + 1) * length
                everything = (1 << len(self._events)) - 1
                known: dict[int, list[str]] = {}
                for agent, bits in self._knowledge.items():
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
                            n_contacts=len(step_contacts),
                            n_contents=len(step_contents),
                        )
                    )
        return out


def run(
    config: SimConfig,
    contacts: Sequence[ContactEvent],
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

def agent_name(index: int) -> str:
    return f"a{index:04d}"


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
