"""Unranked sibling-ordered labeled trees, stored as preorder columns.

The paper's data model (Section 2) is the standard XPath abstraction: an
unranked tree ``t = a(t1 ... tn)`` with node labels drawn from a finite
alphabet.  Attributes, data values and namespaces are deliberately ignored.

Nodes are identified by integers ``0 .. size-1`` in *document order*
(preorder), which is what every evaluator in the library works with.  A
:class:`Tree` is stored as numpy columns indexed by that id, the layout of a
pre/post-order "accel" table (:class:`Columns`): a label id into the tree's
label table, the parent (``-1`` at the root), the depth, the postorder
number and the subtree end (a node's descendants are exactly the ids in
``(u, end[u]]``).  The links the set-at-a-time Fig. 8 answerer reads
(:class:`TreeArrays`) are computed from the parent column by vector
operations on first use.

Three ways in:

* :func:`repro.trees.xml_io.tree_from_xml` writes the columns straight from
  the XML parser's events through a :class:`ColumnBuilder`; no per-node
  Python object is built.
* :class:`Node` is a lightweight mutable builder for generators and tests:
  ``Tree(node)`` drives the same :class:`ColumnBuilder` over it.
* The snapshot loader (:mod:`repro.snapshot.codec`) hands the columns it
  read from a memory map to ``Tree(columns)``.

The Python list views the naive engines and the public methods read
(``labels``, ``parent`` with ``None`` at the root, ``depth``, ``post``,
``subtree_end``, ``children_of``, ``next_sibling``/``prev_sibling`` and the
label index) are likewise derived from the columns on first read and kept.

All traversals are iterative, so arbitrarily deep documents do not hit
Python's recursion limit.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import TreeError

#: Default byte budget of one tree's matrix cache (axis relations, PPLbin
#: sub-expression relations, label vectors and tree arrays).  Override per tree via
#: the ``matrix_cache_bytes`` constructor argument or process-wide with the
#: ``REPRO_MATRIX_CACHE_BYTES`` environment variable (empty string or ``0``
#: = unbounded, matching the seed's behaviour), which
#: :mod:`repro.session.policy` resolves.
DEFAULT_MATRIX_CACHE_BYTES = 256 * 1024 * 1024

#: Sentinel distinguishing "use the default budget" from an explicit None
#: (= unbounded) in the :class:`Tree` constructor — the one shared instance
#: from :mod:`repro._config`, since the snapshot loader forwards the store's
#: setting verbatim across module boundaries.
from repro._config import UNSET as _UNSET


def _default_cache_budget() -> Optional[int]:
    """The budget of a tree no caller pinned one for: env > default."""
    from repro.session.policy import DEFAULT_EXECUTION

    return DEFAULT_EXECUTION.resolved("matrix_cache_bytes")


def estimate_value_bytes(value) -> int:
    """Estimated resident bytes of one cached value.

    Numpy arrays and :class:`repro.pplbin.bitmatrix.Relation` objects both
    expose ``nbytes``; anything else (label tuples, small lists) falls back
    to ``sys.getsizeof``.  Shared by the per-tree :class:`MatrixCache` and
    the corpus :class:`repro.corpus.cache.AnswerCache`, so the two byte
    budgets can never diverge in how they charge the same objects.
    """
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes) + 64
    return sys.getsizeof(value)


@dataclass(frozen=True)
class MatrixCacheStats:
    """Counters and footprint of one tree's matrix cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    current_bytes: int = 0
    max_bytes: Optional[int] = None
    entries: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "entries": self.entries,
        }


class MatrixCache:
    """A byte-budgeted LRU cache for per-tree matrices, relations and vectors.

    Replaces the seed's unbounded plain dict (``tree.py``'s old
    ``matrix_cache``): every axis relation, PPLbin sub-expression relation,
    label vector and tree-array bundle lands here, accounted by its estimated footprint and
    evicted least-recently-used when the budget is exceeded.  Evicted
    entries are recomputable, so eviction only costs time.  The dict-style
    interface (``get`` / ``[] =`` / ``in``) is what the evaluators use; an
    entry larger than the whole budget is not stored at all.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise TreeError("matrix cache budget must be non-negative (or None)")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[object, tuple[object, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0

    def get(self, key, default=None):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __getitem__(self, key):
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            raise KeyError(key)
        return value

    def __setitem__(self, key, value) -> None:
        cost = estimate_value_bytes(value)
        with self._lock:
            if self.max_bytes is not None and cost > self.max_bytes:
                return
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous[1]
            self._entries[key] = (value, cost)
            self._bytes += cost
            self._insertions += 1
            while self.max_bytes is not None and self._bytes > self.max_bytes:
                _, (_, evicted_cost) = self._entries.popitem(last=False)
                self._bytes -= evicted_cost
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def set_budget(self, max_bytes: Optional[int]) -> None:
        """Rebudget the cache in place, evicting LRU entries if it shrank.

        The budget is normally fixed at tree construction (argument or
        ``REPRO_MATRIX_CACHE_BYTES``); this exists so a policy layer (the
        Session's ``ExecutionPolicy.matrix_cache_bytes``) can apply an
        explicit budget to documents whose trees were built elsewhere.
        """
        if max_bytes is not None and max_bytes < 0:
            raise TreeError("matrix cache budget must be non-negative (or None)")
        with self._lock:
            self.max_bytes = max_bytes
            while self.max_bytes is not None and self._bytes > self.max_bytes:
                _, (_, evicted_cost) = self._entries.popitem(last=False)
                self._bytes -= evicted_cost
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    @property
    def stats(self) -> MatrixCacheStats:
        with self._lock:
            return MatrixCacheStats(
                hits=self._hits,
                misses=self._misses,
                insertions=self._insertions,
                evictions=self._evictions,
                current_bytes=self._bytes,
                max_bytes=self.max_bytes,
                entries=len(self._entries),
            )

    def __getstate__(self) -> dict:
        # Locks do not pickle; a cache is recomputable state, so ship empty.
        return {"max_bytes": self.max_bytes}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state.get("max_bytes"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatrixCache(entries={len(self)}, bytes={self._bytes}, "
            f"max_bytes={self.max_bytes})"
        )


class Node:
    """A tree node used while *building* documents.

    Parameters
    ----------
    label:
        The node label (an element name in XML terms).
    children:
        Child nodes in sibling order.  They may be passed positionally
        (``Node("book", Node("author"), Node("title"))``) or as a single
        iterable.

    Examples
    --------
    >>> doc = Node("bib", Node("book", Node("author"), Node("title")))
    >>> doc.label
    'bib'
    >>> [child.label for child in doc.children]
    ['book']
    """

    __slots__ = ("label", "children")

    def __init__(self, label: str, *children: "Node | Iterable[Node]") -> None:
        self.label = label
        flat: list[Node] = []
        for child in children:
            if isinstance(child, Node):
                flat.append(child)
            else:
                flat.extend(child)
        self.children = flat

    def add(self, child: "Node") -> "Node":
        """Append ``child`` and return it (useful for fluent construction)."""
        self.children.append(child)
        return child

    def count(self) -> int:
        """Return the number of nodes in the subtree rooted here."""
        total = 0
        stack = [self]
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children)
        return total

    def to_tuple(self):
        """Return a nested ``(label, (child_tuples...))`` representation."""
        # Iterative post-order construction to avoid recursion limits.
        result: dict[int, tuple] = {}
        order: list[Node] = []
        stack = [self]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children)
        for node in reversed(order):
            result[id(node)] = (node.label, tuple(result[id(c)] for c in node.children))
        return result[id(self)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.label!r}, {len(self.children)} children)"


def tree_from_tuple(data) -> "Tree":
    """Build a :class:`Tree` from a nested ``(label, children)`` tuple.

    ``data`` may also be a bare string, which denotes a leaf.

    Examples
    --------
    >>> t = tree_from_tuple(("a", (("b", ()), "c")))
    >>> t.size
    3
    """

    def build(item) -> Node:
        if isinstance(item, str):
            return Node(item)
        label, children = item
        root = Node(label)
        stack = [(root, list(children))]
        while stack:
            parent, kids = stack.pop()
            for kid in kids:
                if isinstance(kid, str):
                    parent.children.append(Node(kid))
                else:
                    child_label, grand = kid
                    child = Node(child_label)
                    parent.children.append(child)
                    stack.append((child, list(grand)))
        return root

    return Tree(build(data))


class Columns(NamedTuple):
    """One tree as preorder columns: the storage a :class:`Tree` indexes.

    ``label_ids[u]`` indexes ``label_names``, which lists each label once in
    order of first occurrence; ``parent`` is ``-1`` at the root; ``end[u]``
    is the last preorder id in ``u``'s subtree.  Every array has one entry
    per node.
    """

    label_names: tuple[str, ...]
    label_ids: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    post: np.ndarray
    end: np.ndarray


class ColumnBuilder:
    """Collects a tree's :class:`Columns` from its open and close events.

    ``start(tag)`` opens an element as the next preorder id, ``end()`` closes
    the innermost open one and ``close()`` returns the columns.  The object
    is an ``xml.etree.ElementTree.XMLParser`` target (the parser's attribute
    dict is ignored), and ``Tree(node)`` drives it over a :class:`Node`.
    ``label``, when given, maps a raw tag to its label once per distinct tag
    (the XML loader strips namespaces there).

    The parser calls ``start`` and ``end`` once per element, so they are
    closures over the column lists with their methods bound in advance: the
    per-element cost is the load path's cost.
    """

    __slots__ = ("start", "end", "close")

    def __init__(self, label: Optional[Callable[[str], str]] = None) -> None:
        codes: dict[str, int] = {}  # raw tag -> label id
        names: dict[str, int] = {}  # label -> label id
        label_ids: list[int] = []
        parent: list[int] = []
        depth: list[int] = []
        closed: list[int] = []  # node ids in closing (post) order
        opened: list[int] = [-1]  # the open elements, under a root sentinel

        def start(
            tag: str,
            attrib=None,
            add_label=label_ids.append,
            add_parent=parent.append,
            add_depth=depth.append,
            push=opened.append,
            count=len,
        ) -> None:
            code = codes.get(tag)
            if code is None:
                code = codes[tag] = names.setdefault(
                    tag if label is None else label(tag), count(names)
                )
            add_parent(opened[-1])
            add_depth(count(opened) - 1)
            push(count(label_ids))
            add_label(code)

        def end(tag=None, pop=opened.pop, add_closed=closed.append) -> None:
            add_closed(pop())

        def close() -> Columns:
            size = len(label_ids)
            post = np.empty(size, dtype=np.int64)
            post[np.array(closed, dtype=np.int64)] = np.arange(size, dtype=np.int64)
            depths = np.array(depth, dtype=np.int64)
            # A node closes after its descendants, which follow it in
            # preorder, and after every earlier node but its ancestors:
            # post[u] = end[u] - depth[u].
            return Columns(
                tuple(names),
                np.array(label_ids, dtype=np.int32),
                np.array(parent, dtype=np.int64),
                depths,
                post,
                post + depths,
            )

        self.start = start
        self.end = end
        self.close = close


class TreeArrays:
    """The tree's structure as int64 numpy columns (``-1`` = no such node).

    ``parent``, ``end`` (``subtree_end``), ``first_child``, ``next_sibling``
    and ``prev_sibling`` are indexed by node, and ``root`` holds each
    node's document root: all 0 for one tree, the document's first node in
    a :class:`repro.trees.forest.Forest`; ``roots`` lists the document
    roots in order.  Every axis step of :func:`repro.trees.axes.axis_preimage`
    and :func:`repro.trees.axes.axis_edges` is a handful of O(|t|) vector
    operations over them (the Section 4 set-at-a-time evaluation).
    """

    __slots__ = (
        "parent", "end", "first_child", "next_sibling", "prev_sibling", "nodes", "root", "roots",
    )

    def __init__(self, parent: np.ndarray, end: np.ndarray) -> None:
        size = parent.size
        # Sorted stably by parent, each node's children are neighbours in
        # document order, so sibling links pair up equal neighbours and a
        # run's head is its parent's first child.
        order = np.argsort(parent, kind="stable")
        grouped = parent[order]
        same = grouped[1:] == grouped[:-1]
        left, right = order[:-1][same], order[1:][same]
        self.next_sibling = np.full(size, -1, dtype=np.int64)
        self.next_sibling[left] = right
        self.prev_sibling = np.full(size, -1, dtype=np.int64)
        self.prev_sibling[right] = left
        heads = np.flatnonzero(np.concatenate(([True], ~same)))
        owners = grouped[heads]
        inner = owners >= 0
        self.first_child = np.full(size, -1, dtype=np.int64)
        self.first_child[owners[inner]] = order[heads[inner]]
        self.parent = np.asarray(parent, dtype=np.int64)
        self.end = np.asarray(end, dtype=np.int64)
        self.nodes = np.arange(size, dtype=np.int64)
        self.root = np.zeros(size, dtype=np.int64)
        self.roots = np.zeros(1, dtype=np.int64)

    @classmethod
    def concatenate(cls, parts: Sequence["TreeArrays"]) -> "TreeArrays":
        """The columns of several documents, each shifted by its offset.

        Document roots keep ``parent == -1`` and no sibling links, so every
        link-following axis stops at a document boundary by itself.
        """
        sizes = [part.nodes.size for part in parts]
        offsets = np.cumsum([0] + sizes[:-1])
        arrays = cls.__new__(cls)

        def shifted(name: str) -> np.ndarray:
            columns = []
            for part, offset in zip(parts, offsets):
                column = getattr(part, name)
                columns.append(np.where(column >= 0, column + offset, -1))
            return np.concatenate(columns)

        for name in ("parent", "end", "first_child", "next_sibling", "prev_sibling", "root"):
            setattr(arrays, name, shifted(name))
        arrays.nodes = np.arange(sum(sizes), dtype=np.int64)
        arrays.roots = np.concatenate([part.roots + offset for part, offset in zip(parts, offsets)])
        return arrays

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self.__slots__)


def _node_columns(root: "Node") -> Columns:
    """Walk a :class:`Node` builder into columns, iteratively."""
    builder = ColumnBuilder()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            builder.end()
            continue
        builder.start(node.label)
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))
    return builder.close()


def _optional(column: np.ndarray) -> list[Optional[int]]:
    return [None if value < 0 else value for value in column.tolist()]


def _children_of(tree: "Tree") -> list[tuple[int, ...]]:
    children: list[list[int]] = [[] for _ in range(tree.size)]
    for uid, parent in enumerate(tree.columns.parent.tolist()[1:], 1):
        children[parent].append(uid)
    return [tuple(kids) for kids in children]


def _label_index(tree: "Tree") -> dict[str, tuple[int, ...]]:
    names = tree.columns.label_names
    label_ids = tree.columns.label_ids
    order = np.argsort(label_ids, kind="stable")
    bounds = np.cumsum(np.bincount(label_ids, minlength=len(names)))[:-1]
    groups = np.split(order, bounds)
    return {name: tuple(ids.tolist()) for name, ids in zip(names, groups) if ids.size}


def _labels(tree: "Tree") -> list[str]:
    return list(map(tree.columns.label_names.__getitem__, tree.columns.label_ids.tolist()))


def _parent_list(tree: "Tree") -> list[Optional[int]]:
    parent = tree.columns.parent.tolist()
    parent[0] = None
    return parent


#: How each lazily derived slot of :class:`Tree` is computed from the columns.
_VIEWS: dict[str, Callable[["Tree"], object]] = {
    "labels": _labels,
    "parent": _parent_list,
    "depth": lambda tree: tree.columns.depth.tolist(),
    "post": lambda tree: tree.columns.post.tolist(),
    "subtree_end": lambda tree: tree.columns.end.tolist(),
    "children_of": _children_of,
    "arrays": lambda tree: TreeArrays(tree.columns.parent, tree.columns.end),
    "next_sibling": lambda tree: _optional(tree.arrays.next_sibling),
    "prev_sibling": lambda tree: _optional(tree.arrays.prev_sibling),
    "_label_index": _label_index,
}


class Tree:
    """An indexed unranked tree.

    Node identifiers are integers assigned in preorder (document order); the
    root is always node ``0``.  The structure is immutable after construction.

    Parameters
    ----------
    root:
        A :class:`Node` to index, or the tree's :class:`Columns` (as the XML
        loader and the snapshot codec produce them).
    matrix_cache_bytes:
        Byte budget of the tree's :class:`MatrixCache` (``None`` =
        unbounded); unset, ``REPRO_MATRIX_CACHE_BYTES`` or 256 MiB.

    Notes
    -----
    ``columns`` (the :class:`Columns`) is the storage.  ``arrays`` (the
    :class:`TreeArrays` the set-at-a-time answerer reads) and the following
    Python lists are exposed read-only, each derived from the columns on
    first read, so a tree whose answers come from a cache builds none of
    them:

    ``labels[u]``
        label of node ``u``.
    ``parent[u]``
        parent of ``u`` or ``None`` for the root.
    ``children_of[u]``
        tuple of children of ``u`` in sibling order.
    ``next_sibling[u]`` / ``prev_sibling[u]``
        the adjacent sibling or ``None``.
    ``depth[u]``
        number of edges from the root.
    ``post[u]`` / ``subtree_end[u]``
        postorder number and last preorder id of the subtree, used for O(1)
        ancestor tests and document-order comparisons (the preorder number
        is ``u`` itself).
    """

    __slots__ = (
        "size",
        "columns",
        "_label_codes",
        "_matrix_cache",
        *_VIEWS,
    )

    def __init__(self, root: "Node | Columns", matrix_cache_bytes=_UNSET) -> None:
        if isinstance(root, Node):
            columns = _node_columns(root)
        elif isinstance(root, Columns):
            columns = root
        else:
            raise TreeError(f"Tree root must be a Node, got {type(root).__name__}")
        size = int(columns.parent.size)
        if size == 0 or int(columns.parent[0]) != -1:
            raise TreeError("columnar tree must have a parentless root at node 0")
        if matrix_cache_bytes is _UNSET:
            matrix_cache_bytes = _default_cache_budget()
        self.size = size
        self.columns = columns
        self._label_codes = {name: code for code, name in enumerate(columns.label_names)}
        self._matrix_cache = MatrixCache(matrix_cache_bytes)

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails, i.e. for an unset view, so
        # reads of derived views cost nothing extra.  Two threads racing
        # here compute and store equal values.
        derive = _VIEWS.get(name)
        if derive is None:
            raise AttributeError(name)
        value = derive(self)
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self):
        return (Tree, (self.columns, self._matrix_cache.max_bytes))

    # ------------------------------------------------------------------ basic
    @property
    def label_ids(self) -> np.ndarray:
        """The label id column (indexes :attr:`Columns.label_names`)."""
        return self.columns.label_ids

    def label_code(self, label: str) -> Optional[int]:
        """The id of ``label`` in the label table, or ``None`` if absent."""
        return self._label_codes.get(label)

    def nodes(self) -> range:
        """Return all node identifiers in document order."""
        return range(self.size)

    def label(self, node: int) -> str:
        """Return the label of ``node``."""
        self._check(node)
        return self.labels[node]

    def nodes_with_label(self, label: str) -> tuple[int, ...]:
        """Return all nodes carrying ``label`` in document order."""
        return self._label_index.get(label, ())

    def alphabet(self) -> frozenset[str]:
        """Return the set of labels occurring in the tree."""
        return frozenset(self._label_codes)

    def root(self) -> int:
        """Return the root node identifier (always ``0``)."""
        return 0

    def children(self, node: int) -> tuple[int, ...]:
        """Return the children of ``node`` in sibling order."""
        self._check(node)
        return self.children_of[node]

    def is_leaf(self, node: int) -> bool:
        """Return True when ``node`` has no children."""
        self._check(node)
        return not self.children_of[node]

    # ----------------------------------------------------------- order tests
    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """Return True when ``ancestor`` is a *strict* ancestor of ``descendant``."""
        self._check(ancestor)
        self._check(descendant)
        return ancestor < descendant <= self.subtree_end[ancestor]

    def is_ancestor_or_self(self, ancestor: int, descendant: int) -> bool:
        """Return True when ``ancestor`` equals or is an ancestor of ``descendant``."""
        self._check(ancestor)
        self._check(descendant)
        return ancestor <= descendant <= self.subtree_end[ancestor]

    def document_order(self, left: int, right: int) -> int:
        """Compare two nodes in document order (-1, 0 or 1)."""
        self._check(left)
        self._check(right)
        if left == right:
            return 0
        return -1 if left < right else 1

    def least_common_ancestor(self, first: int, second: int) -> int:
        """Return the least common ancestor of two nodes."""
        self._check(first)
        self._check(second)
        u, v = first, second
        while not self.is_ancestor_or_self(u, v):
            parent = self.parent[u]
            assert parent is not None, "root is an ancestor of every node"
            u = parent
        return u

    # ------------------------------------------------------------- traversal
    def descendants(self, node: int) -> range:
        """Return the strict descendants of ``node`` (document order)."""
        self._check(node)
        return range(node + 1, self.subtree_end[node] + 1)

    def ancestors(self, node: int) -> Iterator[int]:
        """Yield the strict ancestors of ``node``, nearest first."""
        self._check(node)
        current = self.parent[node]
        while current is not None:
            yield current
            current = self.parent[current]

    def following_siblings(self, node: int) -> Iterator[int]:
        """Yield the following siblings of ``node``, nearest first."""
        self._check(node)
        current = self.next_sibling[node]
        while current is not None:
            yield current
            current = self.next_sibling[current]

    def preceding_siblings(self, node: int) -> Iterator[int]:
        """Yield the preceding siblings of ``node``, nearest first."""
        self._check(node)
        current = self.prev_sibling[node]
        while current is not None:
            yield current
            current = self.prev_sibling[current]

    def subtree(self, node: int) -> "Tree":
        """Return a fresh :class:`Tree` for the subtree rooted at ``node``.

        Node identifiers are renumbered; use :meth:`subtree_node_map` when the
        correspondence to the original identifiers is needed.
        """
        root, _ = self._rebuild(node)
        return Tree(root)

    def subtree_node_map(self, node: int) -> dict[int, int]:
        """Return the map from original ids to ids in :meth:`subtree`."""
        _, mapping = self._rebuild(node)
        return mapping

    def _rebuild(self, node: int) -> tuple[Node, dict[int, int]]:
        self._check(node)
        mapping: dict[int, int] = {}
        builders: dict[int, Node] = {}
        for offset, original in enumerate(range(node, self.subtree_end[node] + 1)):
            mapping[original] = offset
            builders[original] = Node(self.labels[original])
        for original in range(node + 1, self.subtree_end[node] + 1):
            parent = self.parent[original]
            assert parent is not None
            builders[parent].children.append(builders[original])
        return builders[node], mapping

    def to_node(self) -> Node:
        """Return a mutable :class:`Node` copy of the whole tree."""
        root, _ = self._rebuild(0)
        return root

    def to_tuple(self):
        """Return the nested tuple representation of the tree."""
        return self.to_node().to_tuple()

    # --------------------------------------------------------------- helpers
    def matrix_cache(self) -> MatrixCache:
        """Return the per-tree byte-budgeted cache for axis/expression relations."""
        return self._matrix_cache

    def _check(self, node: int) -> None:
        if not isinstance(node, int) or isinstance(node, bool):
            raise TreeError(f"node identifiers are integers, got {node!r}")
        if not 0 <= node < self.size:
            raise TreeError(f"node {node} out of range for tree of size {self.size}")

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self.size == other.size
            and np.array_equal(self.columns.parent, other.columns.parent)
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.size, tuple(self.labels), tuple(self.parent)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree(size={self.size}, root_label={self.labels[0]!r})"


def validate_parent_child_consistency(tree: Tree) -> None:
    """Raise :class:`TreeError` if the internal arrays are inconsistent.

    This is an internal sanity check used by tests; a correctly constructed
    :class:`Tree` always passes.
    """
    for node in tree.nodes():
        for child in tree.children(node):
            if tree.parent[child] != node:
                raise TreeError(f"child {child} does not point back to parent {node}")
        if tree.parent[node] is not None and node not in tree.children(tree.parent[node]):
            raise TreeError(f"node {node} missing from its parent's child list")
