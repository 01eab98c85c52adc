"""Timestamped tripartite user-item-tag graph (a folksonomy).

The same structure backs an agent's local knowledge graph, the global
knowledge graph, and the static graphs used for link-prediction runs.
All node keys are plain strings; users, items and tags live in separate
namespaces, so the same string may name both a tag and an item.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np


class FolksonomyGraph:
    """Simple (0/1) tripartite graph with a creation time on every edge.

    The two edge maps are the whole state. Everything else (node keys,
    adjacency, degrees) is read off :meth:`index`, built on first read once
    per graph state and dropped by every mutator (``add_content``,
    ``merge``). Node views list keys in ascending order, and the adjacency
    accessors return frozensets of the current state. Mutators require
    exclusive access.
    """

    __slots__ = ("_ui_times", "_it_times", "_index")

    def __init__(
        self,
        user_item_edges: Mapping[tuple[str, str], int] | None = None,
        item_tag_edges: Mapping[tuple[str, str], int] | None = None,
    ) -> None:
        """A graph holding copies of the two edge maps, edge -> creation time."""
        self._ui_times = dict(user_item_edges or ())
        self._it_times = dict(item_tag_edges or ())
        self._index: GraphIndex | None = None

    def index(self) -> "GraphIndex":
        """Sorted node keys and CSR adjacency of this state; do not mutate them."""
        if self._index is None:
            self._index = GraphIndex(self)
        return self._index

    # ------------------------------------------------------------------
    # node / edge views
    # ------------------------------------------------------------------

    @property
    def users(self):
        return self.index().user_pos.keys()

    @property
    def items(self):
        return self.index().item_pos.keys()

    @property
    def tags(self):
        return self.index().tag_pos.keys()

    @property
    def user_item_edges(self) -> Mapping[tuple[str, str], int]:
        """Read-only live view (user, item) -> creation time in seconds."""
        return MappingProxyType(self._ui_times)

    @property
    def item_tag_edges(self) -> Mapping[tuple[str, str], int]:
        """Read-only live view (item, tag) -> creation time in seconds."""
        return MappingProxyType(self._it_times)

    def items_of_user(self, user: str) -> frozenset[str]:
        index = self.index()
        return _neighbours(index.user_items, index.user_pos.get(user), index.items)

    def users_of_item(self, item: str) -> frozenset[str]:
        index = self.index()
        return _neighbours(index.item_users, index.item_pos.get(item), index.users)

    def tags_of_item(self, item: str) -> frozenset[str]:
        index = self.index()
        return _neighbours(index.item_tags, index.item_pos.get(item), index.tags)

    def items_of_tag(self, tag: str) -> frozenset[str]:
        index = self.index()
        return _neighbours(index.tag_items, index.tag_pos.get(tag), index.items)

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
        self._index = None

    def merge(self, other: "FolksonomyGraph") -> None:
        """Component-wise set union with ``other``; earlier timestamps win."""
        for edge, time in other._ui_times.items():
            _link(self._ui_times, edge, time)
        for edge, time in other._it_times.items():
            _link(self._it_times, edge, time)
        self._index = None

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


def _link(edges: dict[tuple[str, str], int], edge: tuple[str, str], time: int) -> None:
    """Insert ``edge`` at ``time``; an edge already present keeps the earlier time."""
    prev = edges.get(edge)
    edges[edge] = time if prev is None else min(prev, time)


def _neighbours(adjacency: "Adjacency", row: int | None, keys: list[str]) -> frozenset[str]:
    """The keys of row ``row``'s neighbours, or none for an absent row."""
    if row is None:
        return frozenset()
    return frozenset(map(keys.__getitem__, adjacency.row(row).tolist()))


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

    def row(self, r: int) -> np.ndarray:
        """Row ``r``'s neighbours, a view of ``cols``."""
        return self.cols[self.ptr[r] : self.ptr[r + 1]]

    def stacked(self, keep: np.ndarray, n_cols: int) -> "Adjacency":
        """One disjoint copy of the rows per row of the 2-D boolean array ``keep``.

        Copy ``v`` holds the entries whose edge id is set in ``keep[v]``:
        row ``r`` becomes row ``v * n_rows + r`` and column ``c`` becomes
        ``v * n_cols + c``. Every row stays in every copy, its entries in
        the same order, so a row may be left empty; edge ids are not shifted.
        """
        kept = keep[:, self.edge]
        view, entry = kept.nonzero()
        before = np.zeros(kept.size + 1, dtype=np.intp)
        np.cumsum(kept, out=before[1:])
        starts = np.arange(len(keep))[:, None] * len(self.edge) + self.ptr[:-1]
        ptr = before[np.append(starts.ravel(), kept.size)]
        cols = self.cols[entry] + view * n_cols
        return Adjacency(ptr, cols, ptr[1:] - ptr[:-1], self.edge[entry])

    def gather(self, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``which`` concatenated in the given order.

        Also returns, for each entry, the position in ``which`` of its row.
        """
        at, source = row_entries(self.ptr, self.degree, which)
        return self.cols[at], source


def row_entries(
    ptr: np.ndarray, degree: np.ndarray, which: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of CSR rows ``which``, concatenated in the given order.

    Row ``r`` holds the ``degree[r]`` entries from ``ptr[r]`` on. Also
    returns, for each entry, the position in ``which`` of its row.
    """
    lengths = degree[which]
    source = np.repeat(np.arange(len(which)), lengths)
    skip = ptr[which] - (np.cumsum(lengths) - lengths)
    return np.arange(len(source)) + skip[source], source


class GraphIndex:
    """Sorted node keys and CSR adjacency of one graph state.

    Node ``n`` of a kind is the ``n``-th key in sorted order, so ascending
    indices walk keys in sorted order whatever the hash seed; ``user_pos``,
    ``item_pos`` and ``tag_pos`` map keys back to indices. Built by
    ``graph.index()``: once per graph state, cleared by every mutator.
    ``user_items.degree`` is the user degree, ``item_users.degree`` the item
    popularity, ``item_tags.degree`` an item's tag count and
    ``tag_items.degree`` the tag degree. Edge ids are positions in
    ``graph.user_item_edges`` and ``graph.item_tag_edges``. ``item_array``
    holds the keys of ``items`` as a numpy object array, so that an array
    of item indices picks their keys in one step.
    """

    __slots__ = (
        "users", "items", "tags", "user_pos", "item_pos", "tag_pos", "item_array",
        "user_items", "item_users", "item_tags", "tag_items",
    )

    def __init__(self, graph: FolksonomyGraph):
        ui, it = graph.user_item_edges, graph.item_tag_edges
        self.users = sorted({u for u, _ in ui})
        self.items = sorted({i for _, i in ui}.union(i for i, _ in it))
        self.tags = sorted({t for _, t in it})
        self.user_pos = {u: n for n, u in enumerate(self.users)}
        self.item_pos = {i: n for n, i in enumerate(self.items)}
        self.tag_pos = {t: n for n, t in enumerate(self.tags)}
        self.item_array = np.array(self.items, dtype=object)

        u = np.fromiter((self.user_pos[a] for a, _ in ui), np.intp, len(ui))
        i = np.fromiter((self.item_pos[b] for _, b in ui), np.intp, len(ui))
        self.user_items = Adjacency.from_edges(u, i, len(self.users))
        self.item_users = Adjacency.from_edges(i, u, len(self.items))
        i = np.fromiter((self.item_pos[a] for a, _ in it), np.intp, len(it))
        t = np.fromiter((self.tag_pos[b] for _, b in it), np.intp, len(it))
        self.item_tags = Adjacency.from_edges(i, t, len(self.items))
        self.tag_items = Adjacency.from_edges(t, i, len(self.tags))

    def stacked(self, ui: np.ndarray, it: np.ndarray) -> "GraphIndex":
        """One index of the subgraphs of the edge ids set in each row of ``ui`` and ``it``.

        View ``v``, the subgraph of ``ui[v]`` and ``it[v]``, is laid out as
        a disjoint copy: its node ``n`` of a kind is CSR row and column
        ``v * n_kind + n``, ``n_kind`` being this index's number of keys of
        that kind. The keys are this index's, listed once (``item_array``
        included), so ``user_pos`` finds a user's row in view 0, and a
        one-row ``ui`` and ``it`` give the index of one subgraph. A node
        outside a view's subgraph has degree 0 in that view: PLIERS scores
        the view's items with the floats of the view's own index and every
        other item exactly 0. Heat spreading (and so the hybrid) divides by
        every item's degree, 0 / 0 outside a view, and the other kernels
        count rows only up to the key counts, so only PLIERS may run on a
        stacked index.
        """
        view = object.__new__(GraphIndex)
        view.users, view.items, view.tags = self.users, self.items, self.tags
        view.user_pos, view.item_pos, view.tag_pos = self.user_pos, self.item_pos, self.tag_pos
        view.item_array = self.item_array
        n_users, n_items, n_tags = len(self.users), len(self.items), len(self.tags)
        view.user_items = self.user_items.stacked(ui, n_items)
        view.item_users = self.item_users.stacked(ui, n_users)
        view.item_tags = self.item_tags.stacked(it, n_tags)
        view.tag_items = self.tag_items.stacked(it, n_items)
        return view


# ----------------------------------------------------------------------
# input files and flat-file snapshots
# ----------------------------------------------------------------------

class ParseError(ValueError):
    """A malformed trace or snapshot line, or an input line that is not UTF-8.

    The message cites ``path:line``, or ``path:`` when ``line`` is 0: a
    fault of the whole file.
    """

    def __init__(self, message: str, path: str | Path, line: int = 0):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}" if line else f"{path}: {message}")


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Numbered lines of a text input, less line ends, blank lines and ``#`` comments.

    Every input file is read here. The text is UTF-8, after an optional
    byte-order mark, with LF or CRLF line ends; a line that is not UTF-8,
    a comment included, raises :class:`ParseError` citing it.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode()
                except UnicodeEncodeError as exc:
                    # surrogateescape decodes a byte b that is not UTF-8 as U+DC00 + b
                    byte = ord(raw[exc.start]) - 0xDC00
                    raise ParseError(f"byte 0x{byte:02x} is not UTF-8", path, lineno) from None
            line = raw.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield lineno, line


def load_graph_tsv(path: str | Path) -> FolksonomyGraph:
    """Read a snapshot written by :func:`save_graph_tsv`.

    Records are ``UI<TAB>user<TAB>item<TAB>time`` and
    ``IT<TAB>item<TAB>tag<TAB>time``. The load fails on dangling records:
    every item must end up with at least one user link and one tag link.
    """
    ui: dict[tuple[str, str], int] = {}
    it: dict[tuple[str, str], int] = {}
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError("expected 4 tab-separated fields", path, lineno)
        kind, a, b, time_s = (f.strip() for f in fields)
        if not a or not b:
            raise ParseError("empty node key", path, lineno)
        try:
            time = int(time_s)
        except ValueError:
            raise ParseError(f"bad time {time_s!r}", path, lineno) from None
        if kind == "UI":
            _link(ui, (sys.intern(a), sys.intern(b)), time)
        elif kind == "IT":
            _link(it, (sys.intern(a), sys.intern(b)), time)
        else:
            raise ParseError(f"unknown record kind {kind!r}", path, lineno)

    owned = {item for _, item in ui}
    tagged = {item for item, _ in it}
    dangling = sorted(owned ^ tagged)
    if dangling:
        raise ParseError(
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
