"""Timestamped tripartite user-item-tag graph (a folksonomy).

The same structure backs an agent's local knowledge graph, the global
knowledge graph, and the static graphs used for link-prediction runs.
All node keys are plain strings; users, items and tags live in separate
namespaces, so the same string may name both a tag and an item.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

T = TypeVar("T")


class FolksonomyGraph:
    """Simple (0/1) tripartite graph with a creation time on every edge.

    The two edge maps are the whole state. Node sets, adjacency sets and
    degrees are derived from them on first read, once per graph state, and
    dropped by every mutator (``add_content``, ``merge``). Set-valued
    accessors return sets of the current state, not live sets; treat them
    as read-only. Mutators require exclusive access.
    """

    __slots__ = ("_ui_times", "_it_times", "_derived")

    def __init__(
        self,
        user_item_edges: Mapping[tuple[str, str], int] | None = None,
        item_tag_edges: Mapping[tuple[str, str], int] | None = None,
    ) -> None:
        """A graph holding copies of the two edge maps, edge -> creation time."""
        self._ui_times = dict(user_item_edges or ())
        self._it_times = dict(item_tag_edges or ())
        self._derived: _Derived | None = None

    def _derive(self) -> "_Derived":
        self._derived = _Derived(*_both_ways(self._ui_times), *_both_ways(self._it_times), {})
        return self._derived

    # ------------------------------------------------------------------
    # node / edge views
    # ------------------------------------------------------------------

    @property
    def users(self):
        return (self._derived or self._derive()).user_items.keys()

    @property
    def items(self):
        return (self._derived or self._derive()).item_users.keys()

    @property
    def tags(self):
        return (self._derived or self._derive()).tag_items.keys()

    @property
    def user_item_edges(self):
        """Mapping (user, item) -> creation time in seconds."""
        return self._ui_times

    @property
    def item_tag_edges(self):
        """Mapping (item, tag) -> creation time in seconds."""
        return self._it_times

    def items_of_user(self, user: str) -> AbstractSet[str]:
        return (self._derived or self._derive()).user_items.get(user, _EMPTY)

    def users_of_item(self, item: str) -> AbstractSet[str]:
        return (self._derived or self._derive()).item_users.get(item, _EMPTY)

    def tags_of_item(self, item: str) -> AbstractSet[str]:
        return (self._derived or self._derive()).item_tags.get(item, _EMPTY)

    def items_of_tag(self, tag: str) -> AbstractSet[str]:
        return (self._derived or self._derive()).tag_items.get(tag, _EMPTY)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FolksonomyGraph):
            return NotImplemented
        return self._ui_times == other._ui_times and self._it_times == other._it_times

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add_content(self, creator: str, item: str, tags: Iterable[str], time: int) -> None:
        """Insert one content: the creator-item link plus one item-tag link per tag.

        Idempotent: repeating a call changes nothing. On re-announcement the
        earlier creation time wins for every edge (first creation is the
        fact; later sightings add no information).
        """
        tags = list(tags)
        if not tags:
            raise ValueError(f"content {item!r} must carry at least one tag")
        item = sys.intern(item)
        time = int(time)
        _link(self._ui_times, (sys.intern(creator), item), time)
        for tag in tags:
            _link(self._it_times, (item, sys.intern(tag)), time)
        self._derived = None

    def merge(self, other: "FolksonomyGraph") -> None:
        """Component-wise set union with ``other``; earlier timestamps win."""
        for edge, time in other._ui_times.items():
            _link(self._ui_times, edge, time)
        for edge, time in other._it_times.items():
            _link(self._it_times, edge, time)
        self._derived = None

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------

    def derived(self, fn: Callable[["FolksonomyGraph"], T]) -> T:
        """``fn(self)``, computed once per graph state.

        The result is kept until the next mutation; ``fn`` must be a pure
        read of the graph, and callers must not mutate what it returns.
        """
        results = (self._derived or self._derive()).results
        if fn not in results:
            results[fn] = fn(self)
        return results[fn]

    def copy(self) -> "FolksonomyGraph":
        return FolksonomyGraph(self._ui_times, self._it_times)

    def flatten(self) -> set[tuple[str, str, str]]:
        """Both edge sets as one set of typed tuples, ready for set algebra.

        User-item edges become ``("UI", user, item)`` and item-tag edges
        ``("IT", item, tag)``; the size equals the total edge count.
        """
        out = {("UI", u, i) for (u, i) in self._ui_times}
        out |= {("IT", i, t) for (i, t) in self._it_times}
        return out


_EMPTY: frozenset = frozenset()


def _link(edges: dict[tuple[str, str], int], edge: tuple[str, str], time: int) -> None:
    """Insert ``edge`` at ``time``; an edge already present keeps the earlier time."""
    prev = edges.get(edge)
    edges[edge] = time if prev is None else min(prev, time)


def _both_ways(edges: Iterable[tuple[str, str]]) -> tuple[dict, dict]:
    """Adjacency sets of a bipartite edge set, both ways, filled in edge order."""
    forward: defaultdict[str, set[str]] = defaultdict(set)
    backward: defaultdict[str, set[str]] = defaultdict(set)
    for a, b in edges:
        forward[a].add(b)
        backward[b].add(a)
    return forward, backward


class _Derived(NamedTuple):
    """What one graph state determines: adjacency sets and ``derived(fn)`` results."""

    user_items: dict[str, set[str]]
    item_users: dict[str, set[str]]
    item_tags: dict[str, set[str]]
    tag_items: dict[str, set[str]]
    results: dict[Callable, object]


# ----------------------------------------------------------------------
# flat-file snapshots
# ----------------------------------------------------------------------

class GraphFormatError(ValueError):
    """Raised when a graph snapshot file is malformed or dangling."""

    def __init__(self, message: str, path: str | Path = "", line: int = 0):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}: " if line else (f"{path}: " if path else "")
        super().__init__(f"{where}{message}")


def _records(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line.split("\t")


def load_graph_tsv(path: str | Path) -> FolksonomyGraph:
    """Read a snapshot written by :func:`save_graph_tsv`.

    Records are ``UI<TAB>user<TAB>item<TAB>time`` and
    ``IT<TAB>item<TAB>tag<TAB>time``. The load fails on dangling records:
    every item must end up with at least one user link and one tag link.
    """
    ui: dict[tuple[str, str], int] = {}
    it: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, fields in _records(fh):
            if len(fields) != 4:
                raise GraphFormatError("expected 4 tab-separated fields", path, lineno)
            kind, a, b, time_s = (f.strip() for f in fields)
            if not a or not b:
                raise GraphFormatError("empty node key", path, lineno)
            try:
                time = int(time_s)
            except ValueError:
                raise GraphFormatError(f"bad time {time_s!r}", path, lineno) from None
            if kind == "UI":
                _link(ui, (sys.intern(a), sys.intern(b)), time)
            elif kind == "IT":
                _link(it, (sys.intern(a), sys.intern(b)), time)
            else:
                raise GraphFormatError(f"unknown record kind {kind!r}", path, lineno)

    owned = {item for _, item in ui}
    tagged = {item for item, _ in it}
    dangling = sorted(owned ^ tagged)
    if dangling:
        raise GraphFormatError(
            "dangling items (need both a user link and a tag link): "
            + ", ".join(dangling),
            path,
        )
    return FolksonomyGraph(ui, it)


def save_graph_tsv(graph: FolksonomyGraph, path: str | Path) -> None:
    """Write a canonical snapshot: sorted UI records, then sorted IT records."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# folksonomy graph snapshot\n")
        for (user, item) in sorted(graph.user_item_edges):
            fh.write(f"UI\t{user}\t{item}\t{graph.user_item_edges[(user, item)]}\n")
        for (item, tag) in sorted(graph.item_tag_edges):
            fh.write(f"IT\t{item}\t{tag}\t{graph.item_tag_edges[(item, tag)]}\n")
