"""Discrete-time replay of contact and content traces with knowledge gossip.

Each agent knows a set of content events that grows when the agent creates
content and when it meets other agents; its local knowledge graph (LKG) is
the graph of those events. A global knowledge graph (GKG) accumulates
everything ever created. Per-step metrics compare every agent's local view
(and locally computed recommendations) against the global ones.

Time is integer seconds; step s covers [s*step_length, (s+1)*step_length)
and its metrics are stamped with the step's end time. Within a step all
content events apply first, then contacts run sequentially in input order,
so knowledge can travel several hops in a single step.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .evaluation import jaccard, spearman_similarity, sum_in_order
from .graph import FolksonomyGraph
from .recommend import pliers_tripartite, rank


class SimulationError(ValueError):
    pass


# ----------------------------------------------------------------------
# events and configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DownloadPolicySpec:
    """Which automatic download rule agents apply to newly discovered items.

    ``mean_threshold`` downloads scores strictly above the mean of the score
    history, ``percentile_threshold`` above the given percentile of it, and
    ``bounded_buffer`` keeps the ``capacity`` best-scored items seen so far.
    ``history_span_s`` limits the threshold history to a sliding time span.
    """

    kind: str
    percentile: float = 50.0
    capacity: int = 16
    history_span_s: int | None = None

    KINDS = ("mean_threshold", "percentile_threshold", "bounded_buffer")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown download policy {self.kind!r}")
        if self.kind == "bounded_buffer" and self.capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        if not 0.0 <= self.percentile <= 100.0:
            raise ValueError("percentile must lie in [0, 100]")


@dataclass
class DownloadPolicyState:
    """Per-agent mutable policy state: score history and/or item buffer."""

    spec: DownloadPolicySpec
    history: deque = field(default_factory=deque)  # (time, score) pairs
    buffer: dict[str, float] = field(default_factory=dict)
    observed: int = 0
    downloaded: int = 0


def apply_download_policy(
    state: DownloadPolicyState, item: str, score: float, now: int | None = None
) -> bool:
    """Decide download/skip for one scored item and update the state.

    The score history records every observation regardless of the decision.
    ``now`` drives the sliding-span eviction; when omitted, the observation
    index is used, which keeps the history unbounded unless a span is set.
    """
    if score < 0.0:
        raise ValueError("score must be >= 0")
    spec = state.spec
    t = state.observed if now is None else now
    if spec.history_span_s is not None:
        while state.history and t - state.history[0][0] > spec.history_span_s:
            state.history.popleft()

    if spec.kind == "bounded_buffer":
        if len(state.buffer) < spec.capacity:
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
        values = [s for _, s in state.history]
        if not values:
            decision = True
        elif spec.kind == "mean_threshold":
            decision = score > sum_in_order(values) / len(values)
        else:
            decision = score > float(np.percentile(values, spec.percentile))

    state.history.append((t, score))
    state.observed += 1
    state.downloaded += decision
    return decision


@dataclass
class SimConfig:
    step_length: int = 60
    affinity_weight: float = 0.5
    expiry_window: int | None = None
    metric_cadence: int = 1
    top_n: int | None = None
    download_policy: DownloadPolicySpec | None = None

    def __post_init__(self):
        if self.step_length <= 0:
            raise ValueError("step_length must be positive")
        if self.metric_cadence < 1:
            raise ValueError("metric_cadence must be >= 1")
        if self.expiry_window is not None and self.expiry_window <= 0:
            raise ValueError("expiry_window must be positive when set")
        if not 0.0 <= self.affinity_weight <= 1.0:
            raise ValueError("affinity_weight must lie in [0, 1]")


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

def compute_step_metrics(
    lkgs: Mapping[str, FolksonomyGraph],
    gkg: FolksonomyGraph,
    affinity_weight: float,
    top_n: int | None,
    *,
    now: int,
    step: int = 0,
    n_contacts: int = 0,
    n_contents: int = 0,
) -> StepMetrics:
    """Compare every agent's local view and recommendations with the global one.

    The views come as given, under whatever expiry window applies. Graph
    similarity (edge-set Jaccard) averages over *all* agents (an empty local
    graph scores 0 against a non-empty global one). Recommendation
    similarities skip agents whose local and global recommendation vectors
    are both empty; when that skips everyone, the averages are 1.0 by
    convention (nothing to recommend, local trivially agrees with global).
    """
    # agents with equal knowledge may share one graph object; its Jaccard
    # is computed once, keyed by id while the graph is held here
    graph_jaccards: dict[int, tuple[FolksonomyGraph, float]] = {}
    graph_sims: list[float] = []
    rec_jaccards: list[float] = []
    rec_spear_corr: list[float] = []
    rec_spear_lit: list[float] = []
    for agent in sorted(lkgs):
        lview = lkgs[agent]
        if id(lview) not in graph_jaccards:
            graph_jaccards[id(lview)] = (lview, _edge_jaccard(lview, gkg))
        graph_sims.append(graph_jaccards[id(lview)][1])

        # a cold start on both views: both lists would be empty
        if agent not in gkg.users and agent not in lview.users:
            continue
        local = rank(pliers_tripartite(lview, agent, affinity_weight), lview, top_n)
        glob = rank(pliers_tripartite(gkg, agent, affinity_weight), gkg, top_n)
        if not local.ranked and not glob.ranked:
            continue
        lk, gk = local.item_keys(), glob.item_keys()
        rec_jaccards.append(jaccard(set(lk), set(gk)))
        rec_spear_corr.append(spearman_similarity(lk, gk, "corrected"))
        rec_spear_lit.append(spearman_similarity(lk, gk, "literal"))

    def mean(values: list[float], empty: float) -> float:
        return sum_in_order(values) / len(values) if values else empty

    return StepMetrics(
        step=step,
        sim_time_s=now,
        avg_graph_jaccard=mean(graph_sims, 1.0),
        avg_rec_jaccard=mean(rec_jaccards, 1.0),
        avg_rec_spearman_corrected=mean(rec_spear_corr, 1.0),
        avg_rec_spearman_literal=mean(rec_spear_lit, 1.0),
        n_contacts=n_contacts,
        n_contents=n_contents,
    )


def _edge_jaccard(a: FolksonomyGraph, b: FolksonomyGraph) -> float:
    """:func:`jaccard` of the two edge sets, user-item and item-tag kept apart."""
    shared = len(a.user_item_edges.keys() & b.user_item_edges.keys())
    shared += len(a.item_tag_edges.keys() & b.item_tag_edges.keys())
    edges = len(a.user_item_edges) + len(a.item_tag_edges)
    union = edges + len(b.user_item_edges) + len(b.item_tag_edges) - shared
    return shared / union if union else 1.0


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
    a contact is one integer OR (a grow-only set, merged by union). A local
    graph is a function of that set alone, built with ``add_content`` over
    the agent's events when first asked for and memoised by bitset while
    some agent still holds that bitset. The metric views of an expiry window
    are graphs of event sets too (:meth:`window_views`).
    """

    def __init__(self, config: SimConfig, agents: Iterable[str] = ()):
        self.config = config
        self.gkg = FolksonomyGraph()
        self.policies: dict[str, DownloadPolicyState] = {}
        self._events: list[ContentEvent] = []
        # item -> bitset of the events that announce it
        self._item_events: dict[str, int] = {}
        self._knowledge: dict[str, int] = {}
        self._items: dict[str, set[str]] = {}
        # agents holding each bitset; a graph is kept only while its count is > 0
        self._holders: Counter[int] = Counter()
        self._graphs: dict[int, FolksonomyGraph] = {}
        for agent in agents:
            self.register(agent)
        # with an explicit roster, trace events naming outsiders are an error;
        # without one the roster is derived from the traces themselves
        self._strict = bool(self._knowledge)

    def register(self, agent: str) -> None:
        if agent not in self._knowledge:
            self._knowledge[agent] = 0
            self._holders[0] += 1
            self._items[agent] = set()
            if self.config.download_policy is not None:
                self.policies[agent] = DownloadPolicyState(self.config.download_policy)

    def _learn(self, agent: str, bits: int) -> None:
        old = self._knowledge[agent]
        self._knowledge[agent] = bits
        self._holders[bits] += 1
        self._holders[old] -= 1
        if not self._holders[old]:
            del self._holders[old]
            self._graphs.pop(old, None)

    @property
    def lkgs(self) -> Mapping[str, FolksonomyGraph]:
        """Read-only map agent -> local knowledge graph.

        Agents that know the same events share one graph; do not mutate it.
        """
        graphs = {a: self._graph_of(bits, self._graphs) for a, bits in self._knowledge.items()}
        return MappingProxyType(graphs)

    def _graph_of(self, bits: int, memo: dict[int, FolksonomyGraph]) -> FolksonomyGraph:
        """The graph of the events in ``bits``, built once per ``memo``."""
        if bits not in memo:
            memo[bits] = graph = FolksonomyGraph()
            for index in _set_bits(bits):
                ev = self._events[index]
                graph.add_content(ev.creator, ev.item, ev.tags, ev.time)
        return memo[bits]

    def window_views(
        self, now: int, window: int | None
    ) -> tuple[dict[str, FolksonomyGraph], FolksonomyGraph]:
        """Every agent's view and the global view under an expiry window.

        A holder's view is the graph of its events minus those of every item
        it knows an event of from before ``now - window``: its graph pruned by
        item creation time. A view whose events some agent holds is that
        agent's graph, and the view of all events is ``gkg``; the others are
        built here and not kept.
        """
        cutoff = 0 if window is None else now - window
        # an item announced once expires by its one bit; an item announced
        # more than once expires for the holders of any older announcement
        stale, repeated = 0, {}
        for index, ev in enumerate(self._events):
            if ev.time < cutoff:
                bit, events = 1 << index, self._item_events[ev.item]
                if events == bit:
                    stale |= bit
                else:
                    repeated[events] = repeated.get(events, 0) | bit
        everything = (1 << len(self._events)) - 1
        built, views = {everything: self.gkg}, {}
        for bits in {everything, *self._knowledge.values()}:
            live = bits & ~stale
            for events, old in repeated.items():
                if bits & old:
                    live &= ~events
            views[bits] = self._graph_of(live, self._graphs if live in self._holders else built)
        return {a: views[bits] for a, bits in self._knowledge.items()}, views[everything]

    def apply_content(self, event: ContentEvent) -> None:
        if event.creator not in self._knowledge:
            raise SimulationError(f"content by unknown agent {event.creator!r}")
        bit = 1 << len(self._events)
        self._learn(event.creator, self._knowledge[event.creator] | bit)
        self._item_events[event.item] = self._item_events.get(event.item, 0) | bit
        self._events.append(event)
        self._items[event.creator].add(event.item)
        self.gkg.add_content(event.creator, event.item, event.tags, event.time)

    def encounter(self, a: str, b: str, now: int) -> tuple[set[str], set[str]]:
        """Symmetric knowledge exchange followed by scoring of discoveries.

        Both sides end up with the union of the two content-event sets, and
        nothing changes when the sets are already equal. When a download
        policy is set, each side then scores its newly discovered items on
        its updated graph and feeds the scores to its policy. Returns the two
        new-item sets (for a, for b).
        """
        for agent in (a, b):
            if agent not in self._knowledge:
                raise SimulationError(f"contact names unknown agent {agent!r}")
        ka, kb = self._knowledge[a], self._knowledge[b]
        if ka == kb:
            return set(), set()
        items_a, items_b = self._items[a], self._items[b]
        new_a, new_b = items_b - items_a, items_a - items_b
        items_a |= new_a
        items_b |= new_b
        self._learn(a, ka | kb)
        self._learn(b, ka | kb)
        self._evaluate_discoveries(a, new_a, now)
        self._evaluate_discoveries(b, new_b, now)
        return new_a, new_b

    def _evaluate_discoveries(self, agent: str, new_items: set[str], now: int) -> None:
        policy = self.policies.get(agent)
        if policy is None or not new_items:
            return
        graph = self._graph_of(self._knowledge[agent], self._graphs)
        scores = pliers_tripartite(graph, agent, self.config.affinity_weight).scores
        for item in sorted(new_items):
            apply_download_policy(policy, item, scores[item], now)

    def run(
        self,
        contacts: Sequence[ContactEvent],
        contents: Sequence[ContentEvent],
    ) -> list[StepMetrics]:
        return next(iter(self.run_windows(contacts, contents, [self.config.expiry_window]).values()))

    def run_windows(
        self,
        contacts: Sequence[ContactEvent],
        contents: Sequence[ContentEvent],
        windows: Sequence[int | None],
    ) -> dict[int | None, list[StepMetrics]]:
        """Replay the traces once, measuring under several expiry windows.

        The expiry window only affects measurement, never the exchanged
        knowledge, so one pass over the dynamics serves all windows.
        """
        length = self.config.step_length
        for ev in contents:
            if self._strict and ev.creator not in self._knowledge:
                raise SimulationError(
                    f"content at t={ev.time} names unknown agent {ev.creator!r}"
                )
            self.register(ev.creator)
        for ev in contacts:
            for agent in (ev.a, ev.b):
                if self._strict and agent not in self._knowledge:
                    raise SimulationError(
                        f"contact at t={ev.time} names unknown agent {agent!r}"
                    )
                self.register(agent)

        contents_by_step: dict[int, list[ContentEvent]] = {}
        for ev in contents:
            contents_by_step.setdefault(ev.time // length, []).append(ev)
        contacts_by_step: dict[int, list[ContactEvent]] = {}
        for ev in contacts:
            contacts_by_step.setdefault(ev.time // length, []).append(ev)

        last_step = -1
        if contents_by_step:
            last_step = max(contents_by_step)
        if contacts_by_step:
            last_step = max(last_step, max(contacts_by_step))

        out: dict[int | None, list[StepMetrics]] = {w: [] for w in windows}
        cadence = self.config.metric_cadence
        for step in range(last_step + 1):
            step_contents = contents_by_step.get(step, ())
            for ev in step_contents:
                self.apply_content(ev)
            step_contacts = contacts_by_step.get(step, ())
            for ev in step_contacts:
                self.encounter(ev.a, ev.b, ev.time)
            if (step + 1) % cadence == 0 or step == last_step:
                now = (step + 1) * length
                for window in windows:
                    lviews, gview = self.window_views(now, window)
                    out[window].append(
                        compute_step_metrics(
                            lviews,
                            gview,
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

    Agents are taken from the traces themselves plus the optional explicit
    roster (needed for silent agents that neither create nor appear first in
    a contact before meeting someone).
    """
    return Simulation(config, agents).run(contacts, contents)


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
    draw) simply skips that minute.
    """
    if n_communities < 1 or n_communities > n_agents:
        raise ValueError("need 1 <= n_communities <= n_agents")
    if not 0.0 <= rewiring_p <= 1.0:
        raise ValueError("rewiring_p must lie in [0, 1]")
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
