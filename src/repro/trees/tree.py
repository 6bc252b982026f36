"""Unranked sibling-ordered labeled trees.

The paper's data model (Section 2) is the standard XPath abstraction: an
unranked tree ``t = a(t1 ... tn)`` with node labels drawn from a finite
alphabet.  Attributes, data values and namespaces are deliberately ignored.

Two classes are provided:

* :class:`Node` — a lightweight mutable builder: a label and a list of child
  nodes.  Convenient for writing documents by hand and for generators.
* :class:`Tree` — the indexed, immutable runtime representation.  Nodes are
  identified by integers ``0 .. size-1`` in *document order* (preorder), which
  is what every evaluator in the library works with.  The constructor
  precomputes parents, child lists, sibling links, depths and preorder /
  postorder intervals so that ancestor/descendant tests are O(1).

All traversals are iterative, so arbitrarily deep documents do not hit
Python's recursion limit.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import TreeError

#: Default byte budget of one tree's matrix cache (axis relations, PPLbin
#: sub-expression relations, label vectors and tree arrays).  Override per tree via
#: the ``matrix_cache_bytes`` constructor argument or process-wide with the
#: ``REPRO_MATRIX_CACHE_BYTES`` environment variable (empty string or ``0``
#: = unbounded, matching the seed's behaviour).
DEFAULT_MATRIX_CACHE_BYTES = 256 * 1024 * 1024

#: Sentinel distinguishing "use the default budget" from an explicit None
#: (= unbounded) in the :class:`Tree` constructor — the one shared instance
#: from :mod:`repro._config`, since :meth:`Tree.from_columns` receives it
#: across module boundaries (the snapshot loader forwards the store's
#: setting verbatim).
from repro._config import UNSET as _UNSET


def _default_cache_budget() -> Optional[int]:
    raw = os.environ.get("REPRO_MATRIX_CACHE_BYTES")
    if raw is None:
        return DEFAULT_MATRIX_CACHE_BYTES
    raw = raw.strip()
    if not raw or raw == "0":
        return None
    return int(raw)


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


class Tree:
    """An indexed unranked tree.

    Node identifiers are integers assigned in preorder (document order); the
    root is always node ``0``.  The structure is immutable after construction.

    Parameters
    ----------
    root:
        The :class:`Node` to index.

    Notes
    -----
    The following arrays (Python lists) are exposed read-only:

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
    ``pre[u]`` / ``post[u]``
        preorder and postorder numbers, used for O(1) ancestor tests and
        document-order comparisons (``pre[u] == u`` by construction).
    """

    __slots__ = (
        "size",
        "labels",
        "parent",
        "children_of",
        "next_sibling",
        "prev_sibling",
        "depth",
        "post",
        "subtree_end",
        "_label_index",
        "_matrix_cache",
    )

    def __init__(self, root: Node, matrix_cache_bytes=_UNSET) -> None:
        if not isinstance(root, Node):
            raise TreeError(f"Tree root must be a Node, got {type(root).__name__}")
        if matrix_cache_bytes is _UNSET:
            matrix_cache_bytes = _default_cache_budget()
        labels: list[str] = []
        parent: list[Optional[int]] = []
        children_of: list[list[int]] = []
        depth: list[int] = []

        # Iterative preorder numbering.
        stack: list[tuple[Node, Optional[int], int]] = [(root, None, 0)]
        while stack:
            node, par, dep = stack.pop()
            uid = len(labels)
            labels.append(node.label)
            parent.append(par)
            children_of.append([])
            depth.append(dep)
            if par is not None:
                children_of[par].append(uid)
            # Push children in reverse so they are popped left-to-right.
            for child in reversed(node.children):
                stack.append((child, uid, dep + 1))

        size = len(labels)
        next_sibling: list[Optional[int]] = [None] * size
        prev_sibling: list[Optional[int]] = [None] * size
        for kids in children_of:
            for left, right in zip(kids, kids[1:]):
                next_sibling[left] = right
                prev_sibling[right] = left

        # Postorder numbers and subtree extents.  A node's descendants are
        # exactly the preorder ids in (u, subtree_end[u]].
        post: list[int] = [0] * size
        subtree_end: list[int] = [0] * size
        counter = 0
        walk: list[tuple[int, bool]] = [(0, False)]
        while walk:
            node_id, processed = walk.pop()
            if processed:
                post[node_id] = counter
                counter += 1
                if children_of[node_id]:
                    subtree_end[node_id] = subtree_end[children_of[node_id][-1]]
                else:
                    subtree_end[node_id] = node_id
            else:
                walk.append((node_id, True))
                for child in reversed(children_of[node_id]):
                    walk.append((child, False))

        self.size = size
        self.labels = labels
        self.parent = parent
        self.children_of = [tuple(kids) for kids in children_of]
        self.next_sibling = next_sibling
        self.prev_sibling = prev_sibling
        self.depth = depth
        self.post = post
        self.subtree_end = subtree_end
        label_index: dict[str, list[int]] = {}
        for uid, label in enumerate(labels):
            label_index.setdefault(label, []).append(uid)
        self._label_index = {lab: tuple(ids) for lab, ids in label_index.items()}
        self._matrix_cache = MatrixCache(matrix_cache_bytes)

    @classmethod
    def from_columns(
        cls,
        *,
        labels: list[str],
        parent: list[Optional[int]],
        depth: list[int],
        post: list[int],
        subtree_end: list[int],
        matrix_cache_bytes=_UNSET,
    ) -> "Tree":
        """Rebuild a tree directly from its columnar arrays, skipping parsing.

        This is the snapshot fast path (:mod:`repro.snapshot`): the caller
        provides the preorder-indexed columns exactly as the constructor
        would have computed them — ``labels``, ``parent`` (``None`` at the
        root), ``depth``, ``post`` and ``subtree_end``.  The derived links
        (child lists, sibling links, label index) are left unset and built
        in one O(n) pass on first read (see :meth:`__getattr__`), so a
        document whose answers come from the on-disk spill never pays for
        them.  No structural validation happens beyond what the derivation
        needs; snapshot loading validates the columns before calling (see
        :func:`repro.snapshot.codec.decode_snapshot`).
        """
        size = len(labels)
        if size == 0 or parent[0] is not None:
            raise TreeError("columnar tree must have a parentless root at node 0")
        tree = cls.__new__(cls)
        tree.size = size
        tree.labels = labels
        tree.parent = parent
        tree.depth = depth
        tree.post = post
        tree.subtree_end = subtree_end
        if matrix_cache_bytes is _UNSET:
            matrix_cache_bytes = _default_cache_budget()
        tree._matrix_cache = MatrixCache(matrix_cache_bytes)
        return tree

    #: The slots :meth:`from_columns` leaves for :meth:`_derive_links`.
    _LINKS = frozenset({"children_of", "next_sibling", "prev_sibling", "_label_index"})

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails, i.e. for an unset slot, so
        # reads of built links cost nothing extra.
        if name not in Tree._LINKS:
            raise AttributeError(name)
        self._derive_links()
        return object.__getattribute__(self, name)

    def _derive_links(self) -> None:
        """Build child lists, sibling links and the label index from ``parent``.

        Idempotent: two threads racing here compute and store equal values.
        """
        size = self.size
        parent = self.parent
        children_of: list[list[int]] = [[] for _ in range(size)]
        next_sibling: list[Optional[int]] = [None] * size
        prev_sibling: list[Optional[int]] = [None] * size
        for uid in range(1, size):
            kids = children_of[parent[uid]]
            if kids:
                left = kids[-1]
                next_sibling[left] = uid
                prev_sibling[uid] = left
            kids.append(uid)
        label_index: dict[str, list[int]] = {}
        for uid, label in enumerate(self.labels):
            label_index.setdefault(label, []).append(uid)
        self.children_of = [tuple(kids) for kids in children_of]
        self.next_sibling = next_sibling
        self.prev_sibling = prev_sibling
        self._label_index = {lab: tuple(ids) for lab, ids in label_index.items()}

    # ------------------------------------------------------------------ basic
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
        return frozenset(self._label_index)

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
            and self.labels == other.labels
            and self.parent == other.parent
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
