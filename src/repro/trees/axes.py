"""XPath axes over unranked trees.

The paper (Fig. 1) uses the axes ``self``, ``child``, ``parent``,
``descendant``, ``ancestor``, ``following_sibling`` and ``preceding_sibling``.
We additionally provide the standard derived axes (``descendant-or-self``,
``ancestor-or-self``, ``following``, ``preceding``) and the primitive steps
``firstchild``, ``nextsibling`` and ``previoussibling`` used by the binary
encoding and by the FO signature of Section 2 (``ch`` and ``ns``).

Three access paths are offered:

* :func:`iter_axis` — lazily iterate the nodes reachable from one node (the
  naive XPath semantics), and :func:`axis_pairs`, the full binary relation
  as a set of pairs built from it (the reference the tests check against).
* :func:`axis_preimage` / :func:`axis_image` / :func:`axis_edges` — whole
  node sets at a time, in O(|t|) vector work over the tree's arrays (used by
  the Fig. 8 answerer through :mod:`repro.pplbin.setwise`).
* :func:`axis_relation` / :func:`axis_matrix` — the relation in a kernel
  representation or as a ``|t| x |t|`` Boolean numpy matrix (used by the
  PPLbin matrix evaluator of Theorem 2), built from :func:`axis_edges` and
  cached on the tree.
"""

from __future__ import annotations

import enum
from typing import Iterator

import numpy as np

from repro.errors import TreeError
from repro.obs import trace as _trace
from repro.trees.tree import Tree, TreeArrays


class Axis(str, enum.Enum):
    """Enumeration of the supported navigation axes."""

    SELF = "self"
    CHILD = "child"
    PARENT = "parent"
    DESCENDANT = "descendant"
    ANCESTOR = "ancestor"
    DESCENDANT_OR_SELF = "descendant-or-self"
    ANCESTOR_OR_SELF = "ancestor-or-self"
    FOLLOWING_SIBLING = "following-sibling"
    PRECEDING_SIBLING = "preceding-sibling"
    FOLLOWING = "following"
    PRECEDING = "preceding"
    FIRST_CHILD = "firstchild"
    NEXT_SIBLING = "nextsibling"
    PREVIOUS_SIBLING = "previoussibling"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All axes, in a stable order (useful for generators and tests).
AXES: tuple[Axis, ...] = tuple(Axis)

#: Axes that appear in the paper's Core XPath 2.0 grammar (Fig. 1).
CORE_AXES: tuple[Axis, ...] = (
    Axis.SELF,
    Axis.CHILD,
    Axis.PARENT,
    Axis.DESCENDANT,
    Axis.ANCESTOR,
    Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING,
)

_ALIASES = {
    "self": Axis.SELF,
    "child": Axis.CHILD,
    "parent": Axis.PARENT,
    "descendant": Axis.DESCENDANT,
    "ancestor": Axis.ANCESTOR,
    "descendant-or-self": Axis.DESCENDANT_OR_SELF,
    "descendant_or_self": Axis.DESCENDANT_OR_SELF,
    "ancestor-or-self": Axis.ANCESTOR_OR_SELF,
    "ancestor_or_self": Axis.ANCESTOR_OR_SELF,
    "following-sibling": Axis.FOLLOWING_SIBLING,
    "following_sibling": Axis.FOLLOWING_SIBLING,
    "preceding-sibling": Axis.PRECEDING_SIBLING,
    "preceding_sibling": Axis.PRECEDING_SIBLING,
    "following": Axis.FOLLOWING,
    "preceding": Axis.PRECEDING,
    "firstchild": Axis.FIRST_CHILD,
    "first-child": Axis.FIRST_CHILD,
    "first_child": Axis.FIRST_CHILD,
    "nextsibling": Axis.NEXT_SIBLING,
    "next-sibling": Axis.NEXT_SIBLING,
    "next_sibling": Axis.NEXT_SIBLING,
    "previoussibling": Axis.PREVIOUS_SIBLING,
    "previous-sibling": Axis.PREVIOUS_SIBLING,
    "previous_sibling": Axis.PREVIOUS_SIBLING,
}

#: The inverse of every axis, used by Proposition 8 (closure under inverse).
INVERSE_AXIS: dict[Axis, Axis] = {
    Axis.SELF: Axis.SELF,
    Axis.CHILD: Axis.PARENT,
    Axis.PARENT: Axis.CHILD,
    Axis.DESCENDANT: Axis.ANCESTOR,
    Axis.ANCESTOR: Axis.DESCENDANT,
    Axis.DESCENDANT_OR_SELF: Axis.ANCESTOR_OR_SELF,
    Axis.ANCESTOR_OR_SELF: Axis.DESCENDANT_OR_SELF,
    Axis.FOLLOWING_SIBLING: Axis.PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING: Axis.FOLLOWING_SIBLING,
    Axis.FOLLOWING: Axis.PRECEDING,
    Axis.PRECEDING: Axis.FOLLOWING,
    Axis.FIRST_CHILD: Axis.PARENT,  # not a true inverse; parent of a first child
    Axis.NEXT_SIBLING: Axis.PREVIOUS_SIBLING,
    Axis.PREVIOUS_SIBLING: Axis.NEXT_SIBLING,
}


def parse_axis(name: str) -> Axis:
    """Return the :class:`Axis` named ``name``.

    Both hyphenated (``following-sibling``) and underscore (``following_sibling``)
    spellings are accepted, matching the paper's typography and XPath syntax.
    """
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise TreeError(f"unknown axis {name!r}") from None


def iter_axis(tree: Tree, axis: Axis, node: int) -> Iterator[int]:
    """Yield the nodes reachable from ``node`` along ``axis``.

    Nodes are produced in the natural order of the axis (document order for
    forward axes, reverse document order for backward axes).
    """
    if axis is Axis.SELF:
        yield node
    elif axis is Axis.CHILD:
        yield from tree.children(node)
    elif axis is Axis.PARENT:
        parent = tree.parent[node]
        if parent is not None:
            yield parent
    elif axis is Axis.DESCENDANT:
        yield from tree.descendants(node)
    elif axis is Axis.ANCESTOR:
        yield from tree.ancestors(node)
    elif axis is Axis.DESCENDANT_OR_SELF:
        yield node
        yield from tree.descendants(node)
    elif axis is Axis.ANCESTOR_OR_SELF:
        yield node
        yield from tree.ancestors(node)
    elif axis is Axis.FOLLOWING_SIBLING:
        yield from tree.following_siblings(node)
    elif axis is Axis.PRECEDING_SIBLING:
        yield from tree.preceding_siblings(node)
    elif axis is Axis.FOLLOWING:
        end = tree.subtree_end[node]
        for candidate in range(end + 1, tree.size):
            if not tree.is_ancestor(candidate, node):
                yield candidate
    elif axis is Axis.PRECEDING:
        for candidate in range(node - 1, -1, -1):
            if not tree.is_ancestor(candidate, node):
                yield candidate
    elif axis is Axis.FIRST_CHILD:
        kids = tree.children(node)
        if kids:
            yield kids[0]
    elif axis is Axis.NEXT_SIBLING:
        sibling = tree.next_sibling[node]
        if sibling is not None:
            yield sibling
    elif axis is Axis.PREVIOUS_SIBLING:
        sibling = tree.prev_sibling[node]
        if sibling is not None:
            yield sibling
    else:  # pragma: no cover - exhaustive enum
        raise TreeError(f"unsupported axis {axis!r}")


def axis_nodes(tree: Tree, axis: Axis, node: int) -> frozenset[int]:
    """Return the set of nodes reachable from ``node`` along ``axis``."""
    return frozenset(iter_axis(tree, axis, node))


def axis_pairs(tree: Tree, axis: Axis) -> frozenset[tuple[int, int]]:
    """Return the full binary relation of ``axis`` on ``tree`` as node pairs."""
    pairs = set()
    for node in tree.nodes():
        for target in iter_axis(tree, axis, node):
            pairs.add((node, target))
    return frozenset(pairs)


def axis_relation(tree: Tree, axis: Axis, kernel=None):
    """Return the axis relation as a :class:`repro.pplbin.bitmatrix.Relation`.

    The relation is built from :func:`axis_edges` over all nodes, directly
    in the kernel's representation — packed word rows for the bitset
    kernel, successor arrays for the sparse one — without a dense
    intermediate, and cached on the tree per ``(axis, kernel)``.

    ``kernel`` is a kernel name, instance or ``None`` (the process default);
    see :mod:`repro.pplbin.bitmatrix`.
    """
    from repro.pplbin import bitmatrix

    resolved = bitmatrix.get_kernel(kernel)
    cache = tree.matrix_cache()
    key = ("axis-rel", axis, resolved.cache_token)
    cached = cache.get(key)
    if cached is not None:
        return cached
    with _trace.span("axis.relation", axis=axis.value, kernel=resolved.name):
        everything = np.ones(tree.size, dtype=bool)
        sources, targets = axis_edges(tree, axis, everything, everything)
        relation = resolved.from_pairs(tree.size, sources, targets)
    cache[key] = relation
    return relation


def axis_matrix(tree: Tree, axis: Axis) -> np.ndarray:
    """Return the axis relation as a Boolean matrix ``M[u, v]``.

    ``M[u, v]`` is True iff ``v`` is reachable from ``u`` along ``axis``.
    Backed by :func:`axis_relation` with the dense kernel, so matrices stay
    cached on the tree and repeated calls return the same read-only array.
    """
    return axis_relation(tree, axis, "dense").to_dense()


def label_vector(tree: Tree, label: str | None) -> np.ndarray:
    """Return a Boolean vector selecting nodes with ``label``.

    ``label`` of ``None`` (the ``*`` name test) selects every node.  The
    vector is one comparison over the label id column, cached on the tree
    (or forest) and returned read-only.  A label absent from the tree shares
    one all-false entry, so a stream of never-matching name tests does not
    grow the cache.
    """
    cache = tree.matrix_cache()
    code = None if label is None else tree.label_code(label)
    absent = label is not None and code is None
    key = ("label-absent",) if absent else ("label", label)
    cached = cache.get(key)
    if cached is not None:
        return cached
    if label is None:
        vector = np.ones(tree.size, dtype=bool)
    elif absent:
        vector = np.zeros(tree.size, dtype=bool)
    else:
        vector = tree.label_ids == code
    vector.setflags(write=False)
    cache[key] = vector
    return vector


# ----------------------------------------------------- set-at-a-time steps
def tree_arrays(tree: Tree) -> TreeArrays:
    """Return the :class:`TreeArrays` of ``tree`` (or of a forest).

    A tree derives them from its columns on first read and keeps them; the
    lookup goes through the matrix cache so their bytes count against its
    budget and its hit/miss counters, like every other structure the
    evaluators read.
    """
    cache = tree.matrix_cache()
    arrays = cache.get(("tree-arrays",))
    if arrays is None:
        arrays = tree.arrays
        cache[("tree-arrays",)] = arrays
    return arrays


def _linked(links: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Nodes whose (single) ``links`` node lies in ``targets``."""
    return (links >= 0) & targets[links]


def axis_preimage(tree: Tree, axis: Axis, targets: np.ndarray) -> np.ndarray:
    """Return ``{u | exists v in targets: axis(u, v)}`` as a Boolean vector.

    ``targets`` is a Boolean vector over the nodes.  Each axis costs O(|t|)
    vector work over :class:`TreeArrays`: descendant counts targets in the
    preorder interval ``(u, end[u]]`` with a prefix sum, ancestor marks the
    target intervals with a difference array.  ``following`` and
    ``preceding`` stay inside u's document ``[root[u], end[root[u]]]``:
    ``following`` counts targets in ``(end[u], end[root[u]]]`` and
    ``preceding`` counts targets ``v`` with ``root[u] <= end[v] < u``.
    """
    a = tree_arrays(tree)
    size = tree.size
    hits = np.flatnonzero(targets)
    if not hits.size:
        return np.zeros(size, dtype=bool)
    if axis is Axis.SELF:
        return targets.copy()
    if axis is Axis.CHILD:
        result = np.zeros(size, dtype=bool)
        parents = a.parent[hits]
        result[parents[parents >= 0]] = True
        return result
    if axis is Axis.PARENT:
        return _linked(a.parent, targets)
    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        counts = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(targets, out=counts[1:])
        first = a.nodes + 1 if axis is Axis.DESCENDANT else a.nodes
        return counts[a.end + 1] > counts[first]
    if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        opens = hits + 1 if axis is Axis.ANCESTOR else hits
        marks = np.bincount(opens, minlength=size + 1) - np.bincount(
            a.end[hits] + 1, minlength=size + 1
        )
        return np.cumsum(marks[:size]) > 0
    if axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
        parents = a.parent[hits]
        inner = parents >= 0
        parents, hits = parents[inner], hits[inner]
        # Per parent, the last (first) target child; index ``size`` stands
        # for the root's missing parent and never matches.
        if axis is Axis.FOLLOWING_SIBLING:
            bound = np.full(size + 1, -1, dtype=np.int64)
            np.maximum.at(bound, parents, hits)
            return a.nodes < bound[a.parent]
        bound = np.full(size + 1, size, dtype=np.int64)
        np.minimum.at(bound, parents, hits)
        return a.nodes > bound[a.parent]
    if axis is Axis.FOLLOWING:
        counts = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(targets, out=counts[1:])
        return counts[a.end[a.root] + 1] > counts[a.end + 1]
    if axis is Axis.PRECEDING:
        # closed[i]: targets whose subtree ends before node i.
        closed = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(a.end[hits], minlength=size), out=closed[1:])
        return closed[a.nodes] > closed[a.root]
    if axis is Axis.FIRST_CHILD:
        return _linked(a.first_child, targets)
    if axis is Axis.NEXT_SIBLING:
        return _linked(a.next_sibling, targets)
    if axis is Axis.PREVIOUS_SIBLING:
        return _linked(a.prev_sibling, targets)
    raise TreeError(f"unsupported axis {axis!r}")  # pragma: no cover - exhaustive enum


def axis_image(tree: Tree, axis: Axis, sources: np.ndarray) -> np.ndarray:
    """Return ``{v | exists u in sources: axis(u, v)}`` as a Boolean vector.

    The pre-image under the inverse axis; ``firstchild``, whose inverse is
    not an axis, reads the first-child links directly.
    """
    if axis is Axis.FIRST_CHILD:
        result = np.zeros(tree.size, dtype=bool)
        firsts = tree_arrays(tree).first_child[sources]
        result[firsts[firsts >= 0]] = True
        return result
    return axis_preimage(tree, INVERSE_AXIS[axis], sources)


def range_pairs(
    sources: np.ndarray, low: np.ndarray, high: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pair each ``sources[i]`` with ``values[low[i]:high[i]]``, vectorised."""
    counts = np.maximum(high - low, 0)
    total = int(counts.sum())
    if not total:
        return _NO_PAIRS
    offsets = np.repeat(low - (np.cumsum(counts) - counts), counts)
    return np.repeat(sources, counts), values[np.arange(total) + offsets]


_EMPTY_INDEX = np.zeros(0, dtype=np.int64)
_NO_PAIRS = (_EMPTY_INDEX, _EMPTY_INDEX)


def equijoin(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return index arrays ``(i, j)`` of every pair with ``left[i] == right[j]``."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    low = np.searchsorted(ordered, left, "left")
    high = np.searchsorted(ordered, left, "right")
    return range_pairs(np.arange(left.size), low, high, order)


def axis_edges(
    tree: Tree, axis: Axis, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``axis`` pairs from ``sources`` into ``targets``.

    Both arguments are Boolean vectors; the result is two int64 arrays
    ``(us, vs)`` listing every ``(u, v)`` with ``u`` in ``sources``, ``v``
    in ``targets`` and ``axis(u, v)``, each pair once.  The cost is
    O(|t| log |t|) plus the output: interval axes are range lookups in the
    sorted targets, ancestor walks parent links level by level.  Following
    and preceding are clipped to the source's document, as in
    :func:`axis_preimage`.
    """
    a = tree_arrays(tree)
    size = tree.size
    starts = np.flatnonzero(sources)
    ends = np.flatnonzero(targets)
    if not starts.size or not ends.size:
        return _NO_PAIRS
    if axis is Axis.SELF:
        both = np.flatnonzero(sources & targets)
        return both, both
    if axis is Axis.CHILD:
        parents = a.parent[ends]
        keep = _linked(parents, sources)
        return parents[keep], ends[keep]
    if axis in (Axis.PARENT, Axis.FIRST_CHILD, Axis.NEXT_SIBLING, Axis.PREVIOUS_SIBLING):
        links = {
            Axis.PARENT: a.parent,
            Axis.FIRST_CHILD: a.first_child,
            Axis.NEXT_SIBLING: a.next_sibling,
            Axis.PREVIOUS_SIBLING: a.prev_sibling,
        }[axis][starts]
        keep = _linked(links, targets)
        return starts[keep], links[keep]
    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        first = starts + 1 if axis is Axis.DESCENDANT else starts
        low = np.searchsorted(ends, first)
        high = np.searchsorted(ends, a.end[starts] + 1)
        return range_pairs(starts, low, high, ends)
    if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        us: list[np.ndarray] = []
        vs: list[np.ndarray] = []
        if axis is Axis.ANCESTOR_OR_SELF:
            both = np.flatnonzero(sources & targets)
            us.append(both)
            vs.append(both)
        below, current = starts, a.parent[starts]
        while True:
            alive = current >= 0
            below, current = below[alive], current[alive]
            if not below.size:
                break
            hit = targets[current]
            us.append(below[hit])
            vs.append(current[hit])
            current = a.parent[current]
        if not us:  # every source is the root: no proper ancestors
            return _NO_PAIRS
        return np.concatenate(us), np.concatenate(vs)
    if axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
        # Sibling groups are contiguous under the key parent * |t| + node.
        parents = a.parent[ends]
        inner = parents >= 0
        keys = parents[inner] * size + ends[inner]
        starts = starts[a.parent[starts] >= 0]
        base = a.parent[starts] * size
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if axis is Axis.FOLLOWING_SIBLING:
            low = np.searchsorted(keys, base + starts + 1)
            high = np.searchsorted(keys, base + size)
        else:
            low = np.searchsorted(keys, base)
            high = np.searchsorted(keys, base + starts)
        return range_pairs(starts, low, high, ends[inner][order])
    if axis is Axis.FOLLOWING:
        low = np.searchsorted(ends, a.end[starts] + 1)
        high = np.searchsorted(ends, a.end[a.root[starts]] + 1)
        return range_pairs(starts, low, high, ends)
    if axis is Axis.PRECEDING:
        # v precedes u in u's document iff root[u] <= end[v] < u.
        order = np.argsort(a.end[ends], kind="stable")
        closing = a.end[ends][order]
        low = np.searchsorted(closing, a.root[starts])
        high = np.searchsorted(closing, starts)
        return range_pairs(starts, low, high, ends[order])
    raise TreeError(f"unsupported axis {axis!r}")  # pragma: no cover - exhaustive enum

