"""Independent reference implementations used to cross-check the code.

The scorer oracles evaluate the defining sums literally over dense adjacency
tables rebuilt from the graph's edge sets, sharing no code with the
production scorers. :func:`reference_masks` takes a replay's views with
index pairs. :func:`merge_replay` is the gossip replay done the
direct way, with one graph per agent merged on every contact, expiry
windows applied by pruning each graph with :func:`prune_older_than`, and
the metrics taken on those graphs by :func:`reference_step_metrics`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from pliersim.evaluation import jaccard, spearman_similarity, sum_in_order
from pliersim.graph import FolksonomyGraph
from pliersim.recommend import pliers_tripartite, rank
from pliersim.simulator import (
    DownloadPolicyState,
    StepMetrics,
    apply_download_policy,
)


def _tables(graph: FolksonomyGraph):
    users = sorted(graph.users)
    items = sorted(graph.items)
    tags = sorted(graph.tags)
    ui = {(u, i): 0 for u in users for i in items}
    for (u, i) in graph.user_item_edges:
        ui[(u, i)] = 1
    it = {(i, t): 0 for i in items for t in tags}
    for (i, t) in graph.item_tag_edges:
        it[(i, t)] = 1
    return users, items, tags, ui, it


def probs_oracle(graph: FolksonomyGraph, target: str) -> dict[str, float]:
    users, items, _, ui, _ = _tables(graph)
    k_items = {u: sum(ui[(u, i)] for i in items) for u in users}
    k_users = {i: sum(ui[(u, i)] for u in users) for i in items}
    scores = {}
    for j in items:
        total = 0.0
        for l in users:
            for s in items:
                num = ui[(l, j)] * ui[(l, s)] * ui.get((target, s), 0)
                if num:
                    total += num / (k_items[l] * k_users[s])
        scores[j] = total
    return scores


def heats_oracle(graph: FolksonomyGraph, target: str) -> dict[str, float]:
    users, items, _, ui, _ = _tables(graph)
    k_items = {u: sum(ui[(u, i)] for i in items) for u in users}
    k_users = {i: sum(ui[(u, i)] for u in users) for i in items}
    heat = {}
    for l in users:
        incoming = sum(ui[(l, s)] * ui.get((target, s), 0) for s in items)
        heat[l] = incoming / k_items[l] if k_items[l] else 0.0
    scores = {}
    for j in items:
        incoming = sum(ui[(l, j)] * heat[l] for l in users)
        scores[j] = incoming / k_users[j] if k_users[j] else 0.0
    return scores


def pliers_oracle(graph: FolksonomyGraph, target: str, exact: bool = False) -> dict:
    """Literal double sum; ``exact=True`` evaluates it in rational arithmetic."""
    users, items, _, ui, _ = _tables(graph)
    k_items = {u: sum(ui[(u, i)] for i in items) for u in users}
    k_users = {i: sum(ui[(u, i)] for u in users) for i in items}
    owners = {i: {u for u in users if ui[(u, i)]} for i in items}
    scores = {}
    for j in items:
        total = Fraction(0) if exact else 0.0
        for l in users:
            for s in items:
                num = ui[(l, j)] * ui[(l, s)] * ui.get((target, s), 0)
                if num:
                    overlap = len(owners[s] & owners[j])
                    if exact:
                        total += Fraction(num, k_items[l] * k_users[s]) * Fraction(
                            overlap, k_users[j]
                        )
                    else:
                        total += (
                            num / (k_items[l] * k_users[s]) * overlap / k_users[j]
                        )
        scores[j] = total
    return scores


def similarity_oracle(graph: FolksonomyGraph, target: str, exact: bool = False) -> dict:
    """Literal double sum; ``exact=True`` evaluates it in rational arithmetic."""
    users, items, tags, ui, it = _tables(graph)
    k_tags = {i: sum(it[(i, t)] for t in tags) for i in items}
    k_tag_items = {t: sum(it[(i, t)] for i in items) for t in tags}
    labels = {i: {t for t in tags if it[(i, t)]} for i in items}
    scores = {}
    for j in items:
        total = Fraction(0) if exact else 0.0
        for z in tags:
            for s in items:
                num = it[(j, z)] * it[(s, z)] * ui.get((target, s), 0)
                if num:
                    overlap = len(labels[s] & labels[j])
                    if exact:
                        total += Fraction(num, k_tag_items[z] * k_tags[s]) * Fraction(
                            overlap, k_tags[j]
                        )
                    else:
                        total += (
                            num
                            / (k_tag_items[z] * k_tags[s])
                            * overlap
                            / k_tags[j]
                        )
        scores[j] = total
    return scores


def tripartite_oracle(
    graph: FolksonomyGraph, target: str, affinity_weight: float
) -> dict[str, float]:
    a = pliers_oracle(graph, target)
    s = similarity_oracle(graph, target)
    return {
        j: affinity_weight * a[j] + (1.0 - affinity_weight) * s[j] for j in a
    }


def tripartite_oracle_exact(graph: FolksonomyGraph, target: str) -> dict:
    """Equal-weight combination of the two indices in rational arithmetic."""
    a = pliers_oracle(graph, target, exact=True)
    s = similarity_oracle(graph, target, exact=True)
    half = Fraction(1, 2)
    return {j: half * a[j] + half * s[j] for j in a}


def merged_components(a: FolksonomyGraph, b: FolksonomyGraph):
    """Expected edge maps of merge(a, b): set unions with min timestamps."""
    ui: dict[tuple[str, str], int] = {}
    it: dict[tuple[str, str], int] = {}
    for g in (a, b):
        for edge, t in g.user_item_edges.items():
            ui[edge] = min(ui.get(edge, t), t)
        for edge, t in g.item_tag_edges.items():
            it[edge] = min(it.get(edge, t), t)
    return ui, it


def creation_times(graph: FolksonomyGraph) -> dict[str, int]:
    """Item -> creation time: the earliest time of any edge incident to it."""
    created: dict[str, int] = {}
    for (_, item), t in graph.user_item_edges.items():
        created[item] = min(created.get(item, t), t)
    for (item, _), t in graph.item_tag_edges.items():
        created[item] = min(created.get(item, t), t)
    return created


def prune_older_than(graph: FolksonomyGraph, now: int, window: int) -> FolksonomyGraph:
    """Copy of ``graph`` holding only the items created at or after ``now - window``.

    An expired item takes all its incident edges with it, and users and tags
    left without any edge go too.
    """
    created = creation_times(graph)
    return FolksonomyGraph(
        {e: t for e, t in graph.user_item_edges.items() if created[e[1]] >= now - window},
        {e: t for e, t in graph.item_tag_edges.items() if created[e[0]] >= now - window},
    )


def graph_of(sim, bits: int) -> FolksonomyGraph:
    """The graph of the content events of ``sim`` whose bits are set in ``bits``."""
    graph = FolksonomyGraph()
    for n, ev in enumerate(sim._events):
        if bits >> n & 1:
            graph.add_content(ev.creator, ev.item, ev.tags, ev.time)
    return graph


def reference_masks(sim, bitsets, cutoff: int = 0):
    """``sim.masks`` done with index pairs: each held (view, event) is written into the masks.

    The events of each item that a view holds from before ``cutoff`` mark
    that item expired for the view; every held event of an unexpired item
    sets its user-item edge and the item-tag edges of its tags.
    """
    n, width = len(sim._events), (len(sim._events) + 7) // 8
    raw = np.frombuffer(b"".join(bits.to_bytes(width, "little") for bits in bitsets), np.uint8)
    held = np.unpackbits(
        raw.reshape(len(bitsets), width), axis=1, count=n, bitorder="little"
    ).view(bool)
    item = np.array(sim._event_item, np.int64)
    view, event = (held & (np.array(sim._event_time, np.int64) < cutoff)).nonzero()
    expired = np.zeros((len(bitsets), len(sim._item_ids)), bool)
    expired[view, item[event]] = True
    held &= ~expired[:, item]
    ui = np.zeros((len(bitsets), len(sim._edge_ids[0])), bool)
    view, event = held.nonzero()
    ui[view, np.array(sim._event_edge, np.int64)[event]] = True
    it = np.zeros((len(bitsets), len(sim._edge_ids[1])), bool)
    view, tag = held[:, np.array(sim._tag_event, np.int64)].nonzero()
    it[view, np.array(sim._tag_edge, np.int64)[tag]] = True
    return ui, it


def view_graph(gkg: FolksonomyGraph, view) -> FolksonomyGraph:
    """The subgraph of ``gkg`` whose edges the two boolean masks ``view`` hold.

    The masks run over the positions of ``gkg``'s user-item and item-tag edges.
    """
    ui, it = view
    return FolksonomyGraph(
        {e: t for (e, t), keep in zip(gkg.user_item_edges.items(), ui) if keep},
        {e: t for (e, t), keep in zip(gkg.item_tag_edges.items(), it) if keep},
    )


def rows_over(scorer, graph: FolksonomyGraph, items, targets) -> list[list[float]]:
    """Each target's scores on ``graph``'s own index, listed over ``items``.

    An item of ``items`` that ``graph`` lacks scores 0: the row a view's
    own graph gives a target, laid over a larger graph's items.
    """
    index = graph.index()
    user_rows = np.array([index.user_pos.get(t, -1) for t in targets], np.intp)
    rows = []
    for values in scorer.rows(index, user_rows):
        scores = dict.fromkeys(items, 0.0)
        scores.update(zip(index.items, values.tolist()))
        rows.append(list(scores.values()))
    return rows


def window_graphs(sim, now: int, window: int | None):
    """Every agent's view and the global view under an expiry window, as graphs.

    Each view is a row of ``sim.masks`` at the window's cutoff, laid on
    ``gkg`` by :func:`view_graph`; its edges carry the times of its holder's
    own graph. Returns agent -> view, and the global view.
    """
    everything = (1 << len(sim._events)) - 1
    cutoff = 0 if window is None else now - window
    ui, it = sim.masks([everything, *sim._event_bits], cutoff)
    views = []
    for graph, view in zip([sim.gkg, *sim.lkgs.values()], zip(ui, it)):
        held = view_graph(sim.gkg, view)
        views.append(FolksonomyGraph(
            {e: graph.user_item_edges[e] for e in held.user_item_edges},
            {e: graph.item_tag_edges[e] for e in held.item_tag_edges},
        ))
    return dict(zip(sim._ids, views[1:])), views[0]


def reference_step_metrics(lkgs, gkg, affinity_weight, top_n, *, now, **counts) -> StepMetrics:
    """The metric row of ``compute_step_metrics``, taken on graphs.

    Each agent is scored alone on its own graph and on ``gkg`` and ranked
    against that graph; graph similarity is the Jaccard of the flattened
    edge sets. ``counts`` gives ``step``, ``n_contacts`` and ``n_contents``.
    """
    graph_sims, rec_jaccards, rec_corrected, rec_literal = [], [], [], []
    flat_gkg = gkg.flatten()
    for agent in sorted(lkgs):
        lview = lkgs[agent]
        graph_sims.append(jaccard(lview.flatten(), flat_gkg))
        local = rank(pliers_tripartite(lview, agent, affinity_weight), lview, top_n).item_keys()
        glob = rank(pliers_tripartite(gkg, agent, affinity_weight), gkg, top_n).item_keys()
        if not local and not glob:
            continue
        rec_jaccards.append(jaccard(set(local), set(glob)))
        rec_corrected.append(spearman_similarity(local, glob, "corrected"))
        rec_literal.append(spearman_similarity(local, glob, "literal"))

    def mean(values):
        return sum_in_order(values) / len(values) if values else 1.0

    return StepMetrics(
        sim_time_s=now,
        avg_graph_jaccard=mean(graph_sims),
        avg_rec_jaccard=mean(rec_jaccards),
        avg_rec_spearman_corrected=mean(rec_corrected),
        avg_rec_spearman_literal=mean(rec_literal),
        **counts,
    )


def merge_replay(config, contacts, contents, windows, agents=()):
    """Replay the traces with one mutable graph per agent, merged on each contact.

    Same step semantics as ``Simulation.run_windows``; both sides of a
    contact run ``merge`` and a side with a download policy scores its new
    items on its merged graph. Returns the new-item sets of every contact,
    the final local graphs, the metric rows per window and the policy states.
    """
    roster = [*agents, *(ev.creator for ev in contents)]
    roster += [x for ev in contacts for x in (ev.a, ev.b)]
    lkgs = {agent: FolksonomyGraph() for agent in dict.fromkeys(roster)}
    policies = {}
    if config.download_policy is not None:
        policies = {a: DownloadPolicyState(config) for a in lkgs}
    gkg = FolksonomyGraph()
    length = config.step_length
    last_step = max((ev.time // length for ev in [*contents, *contacts]), default=-1)
    encounters = []
    rows = {w: [] for w in windows}
    for step in range(last_step + 1):
        step_contents = [ev for ev in contents if ev.time // length == step]
        for ev in step_contents:
            lkgs[ev.creator].add_content(ev.creator, ev.item, ev.tags, ev.time)
            gkg.add_content(ev.creator, ev.item, ev.tags, ev.time)
        step_contacts = [ev for ev in contacts if ev.time // length == step]
        for ev in step_contacts:
            ga, gb = lkgs[ev.a], lkgs[ev.b]
            new_a, new_b = set(gb.items - ga.items), set(ga.items - gb.items)
            ga.merge(gb)
            gb.merge(ga)
            for agent, new in ((ev.a, new_a), (ev.b, new_b)):
                if agent in policies and new:
                    scores = pliers_tripartite(
                        lkgs[agent], agent, config.affinity_weight
                    ).scores
                    for item in sorted(new):
                        apply_download_policy(policies[agent], item, scores[item], ev.time)
            encounters.append((new_a, new_b))
        if (step + 1) % config.metric_cadence == 0 or step == last_step:
            now = (step + 1) * length
            for window in windows:
                lviews, gview = lkgs, gkg
                if window is not None:
                    lviews = {a: prune_older_than(g, now, window) for a, g in lkgs.items()}
                    gview = prune_older_than(gkg, now, window)
                rows[window].append(
                    reference_step_metrics(
                        lviews,
                        gview,
                        config.affinity_weight,
                        config.top_n,
                        now=now,
                        step=step,
                        n_contacts=len(step_contacts),
                        n_contents=len(step_contents),
                    )
                )
    return encounters, lkgs, rows, policies
