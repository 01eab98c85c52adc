"""Timestamped tripartite user-item-tag graph (a folksonomy).

The same structure backs an agent's local knowledge graph, the global
knowledge graph, and the static graphs used for link-prediction runs.
All node keys are plain strings; users, items and tags live in separate
namespaces, so the same string may name both a tag and an item.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class FolksonomyGraph:
    """Simple (0/1) tripartite graph with a creation time on every edge.

    An item's creation time is the earliest time of any edge incident to it.

    Mutators (``add_content``, ``merge``) require exclusive access; all read
    accessors are safe to call concurrently on an un-mutated graph.
    User-tag adjacency is never stored: it is derived from the two edge sets.
    Set-valued accessors return live internal sets for speed; treat them as
    read-only views.
    """

    __slots__ = (
        "_user_items",
        "_item_users",
        "_item_tags",
        "_tag_items",
        "_ui_times",
        "_it_times",
        "_derived",
    )

    def __init__(self) -> None:
        self._user_items: dict[str, set[str]] = {}
        self._item_users: dict[str, set[str]] = {}
        self._item_tags: dict[str, set[str]] = {}
        self._tag_items: dict[str, set[str]] = {}
        self._ui_times: dict[tuple[str, str], int] = {}
        self._it_times: dict[tuple[str, str], int] = {}
        # results of derived(fn), keyed by fn; every mutator clears it
        self._derived: dict[Callable, object] = {}

    # ------------------------------------------------------------------
    # node / edge views
    # ------------------------------------------------------------------

    @property
    def users(self):
        return self._user_items.keys()

    @property
    def items(self):
        return self._item_users.keys()

    @property
    def tags(self):
        return self._tag_items.keys()

    @property
    def user_item_edges(self):
        """Mapping (user, item) -> creation time in seconds."""
        return self._ui_times

    @property
    def item_tag_edges(self):
        """Mapping (item, tag) -> creation time in seconds."""
        return self._it_times

    @property
    def item_created_at(self) -> dict[str, int]:
        """Mapping item -> creation time in seconds; treat it as read-only."""
        return self.derived(_creation_times)

    def items_of_user(self, user: str) -> set[str]:
        return self._user_items.get(user, set())

    def users_of_item(self, item: str) -> set[str]:
        return self._item_users.get(item, set())

    def tags_of_item(self, item: str) -> set[str]:
        return self._item_tags.get(item, set())

    def items_of_tag(self, tag: str) -> set[str]:
        return self._tag_items.get(tag, set())

    def item_popularity(self, item: str) -> int:
        """Number of users linked to ``item``."""
        return len(self._item_users.get(item, ()))

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
        earlier creation time wins for every edge, and so for the item itself
        (first creation is the fact; later sightings add no information).
        """
        tags = list(tags)
        if not tags:
            raise ValueError(f"content {item!r} must carry at least one tag")
        item = sys.intern(item)
        time = int(time)
        self._link_user_item(sys.intern(creator), item, time)
        for tag in tags:
            self._link_item_tag(item, sys.intern(tag), time)
        self._derived.clear()

    def _link_user_item(self, user: str, item: str, time: int) -> None:
        self._user_items.setdefault(user, set()).add(item)
        self._item_users.setdefault(item, set()).add(user)
        prev = self._ui_times.get((user, item))
        self._ui_times[(user, item)] = time if prev is None else min(prev, time)

    def _link_item_tag(self, item: str, tag: str, time: int) -> None:
        self._item_tags.setdefault(item, set()).add(tag)
        self._tag_items.setdefault(tag, set()).add(item)
        prev = self._it_times.get((item, tag))
        self._it_times[(item, tag)] = time if prev is None else min(prev, time)

    def remove_user_item_edge(self, user: str, item: str) -> None:
        """Drop one user-item link; endpoints stay while still connected.

        An item left with no user is removed together with its tag links, as
        is a user left with no items. A kept item's creation time becomes the
        earliest time of its remaining edges.
        """
        if (user, item) not in self._ui_times:
            raise KeyError(f"no edge ({user!r}, {item!r})")
        del self._ui_times[(user, item)]
        self._user_items[user].discard(item)
        self._item_users[item].discard(user)
        if not self._user_items[user]:
            del self._user_items[user]
        if not self._item_users[item]:
            self._drop_item(item)
        self._derived.clear()

    def _drop_item(self, item: str) -> None:
        del self._item_users[item]
        for tag in self._item_tags.pop(item):
            del self._it_times[(item, tag)]
            self._tag_items[tag].discard(item)
            if not self._tag_items[tag]:
                del self._tag_items[tag]

    def merge(self, other: "FolksonomyGraph") -> None:
        """Component-wise set union with ``other``; earlier timestamps win."""
        for (user, item), time in other._ui_times.items():
            self._link_user_item(user, item, time)
        for (item, tag), time in other._it_times.items():
            self._link_item_tag(item, tag, time)
        self._derived.clear()

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------

    def derived(self, fn: Callable[["FolksonomyGraph"], T]) -> T:
        """``fn(self)``, computed once per graph state.

        The result is kept until the next mutation; ``fn`` must be a pure
        read of the graph, and callers must not mutate what it returns.
        """
        if fn not in self._derived:
            self._derived[fn] = fn(self)
        return self._derived[fn]

    def copy(self) -> "FolksonomyGraph":
        g = FolksonomyGraph()
        g._user_items = {u: set(s) for u, s in self._user_items.items()}
        g._item_users = {i: set(s) for i, s in self._item_users.items()}
        g._item_tags = {i: set(s) for i, s in self._item_tags.items()}
        g._tag_items = {t: set(s) for t, s in self._tag_items.items()}
        g._ui_times = dict(self._ui_times)
        g._it_times = dict(self._it_times)
        return g

    def prune_older_than(self, now: int, window: int) -> "FolksonomyGraph":
        """Copy containing only items created at or after ``now - window``.

        An expired item takes all its incident edges with it; users and tags
        left without any edge are dropped, so node counts reflect surviving
        knowledge only.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        cutoff = now - window
        keep = {i for i, t in self.item_created_at.items() if t >= cutoff}
        g = FolksonomyGraph()
        for (user, item), time in self._ui_times.items():
            if item in keep:
                g._link_user_item(user, item, time)
        for (item, tag), time in self._it_times.items():
            if item in keep:
                g._link_item_tag(item, tag, time)
        return g

    def flatten(self) -> set[tuple[str, str, str]]:
        """Both edge sets as one set of typed tuples, ready for set algebra.

        User-item edges become ``("UI", user, item)`` and item-tag edges
        ``("IT", item, tag)``; the size equals the total edge count.
        """
        out = {("UI", u, i) for (u, i) in self._ui_times}
        out |= {("IT", i, t) for (i, t) in self._it_times}
        return out

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        for (u, i) in self._ui_times:
            assert i in self._user_items[u] and u in self._item_users[i]
        for (i, t) in self._it_times:
            assert t in self._item_tags[i] and i in self._tag_items[t]
        for i in self._item_users:
            assert self._item_tags.get(i), f"item {i!r} has no tag"


def _creation_times(graph: FolksonomyGraph) -> dict[str, int]:
    """Item -> earliest time of any edge incident to it."""
    created: dict[str, int] = {}
    for (_, item), time in graph.user_item_edges.items():
        created[item] = min(created.get(item, time), time)
    for (item, _), time in graph.item_tag_edges.items():
        created[item] = min(created.get(item, time), time)
    return created


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
    g = FolksonomyGraph()
    ui: list[tuple[str, str, int]] = []
    it: list[tuple[str, str, int]] = []
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
                ui.append((a, b, time))
            elif kind == "IT":
                it.append((a, b, time))
            else:
                raise GraphFormatError(f"unknown record kind {kind!r}", path, lineno)

    tagged = {item for item, _, _ in it}
    owned = {item for _, item, _ in ui}
    dangling = sorted((tagged - owned) | (owned - tagged))
    if dangling:
        raise GraphFormatError(
            "dangling items (need both a user link and a tag link): "
            + ", ".join(dangling),
            path,
        )

    for user, item, time in ui:
        g._link_user_item(sys.intern(user), sys.intern(item), time)
    for item, tag, time in it:
        g._link_item_tag(sys.intern(item), sys.intern(tag), time)
    g.validate()
    return g


def save_graph_tsv(graph: FolksonomyGraph, path: str | Path) -> None:
    """Write a canonical snapshot: sorted UI records, then sorted IT records."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# folksonomy graph snapshot\n")
        for (user, item) in sorted(graph.user_item_edges):
            fh.write(f"UI\t{user}\t{item}\t{graph.user_item_edges[(user, item)]}\n")
        for (item, tag) in sorted(graph.item_tag_edges):
            fh.write(f"IT\t{item}\t{tag}\t{graph.item_tag_edges[(item, tag)]}\n")
