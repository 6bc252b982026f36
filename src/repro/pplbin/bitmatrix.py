"""Packed-bitset Boolean matrix kernel with adaptive representation selection.

The Theorem 2 evaluator bottoms out in Boolean matrix algebra over node-pair
relations.  The seed represented every relation as a dense ``dtype=bool``
numpy matrix and multiplied through a uint8 cast — O(n^3) byte operations
re-cast on every call.  This module provides three interchangeable
representations behind one :class:`Relation` interface, plus a per-operation
cost model that picks between them:

* :class:`DenseRelation` — the ``(n, n)`` bool matrix.  Composition is a
  float32 BLAS matmul (exact for n < 2**24 and an order of magnitude faster
  than the integer product); element-wise operators are vectorised numpy.
* :class:`BitsetRelation` — rows packed into ``uint64`` words (``W =
  ceil(n/64)`` words per row).  Composition ORs the packed rows of the right
  operand selected by each left row — ``nnz(left) * W`` word operations, the
  n^3/64 bit-parallel product — and union/intersection/difference/complement
  and the ``[M]`` diagonal are word-wise.
* :class:`SparseRelation` — per-row sorted successor arrays (the
  ``bool_matmul_sparse`` idea promoted to a first-class representation).
  Cost proportional to the 1-entries touched; unbeatable while relations
  stay very sparse, hopeless once ``except`` densifies them.

:class:`Kernel` instances build and combine relations in a fixed
representation; :class:`AdaptiveKernel` consults :func:`choose_compose` /
:func:`preferred_representation` (density- and size-driven estimates with
documented machine constants) per sub-expression.  The evaluator, the axis
builders, the HCL oracle and the serving stack all work against
:func:`get_kernel` / :func:`get_default_kernel`, so one ``--kernel`` knob (or
the ``REPRO_KERNEL`` environment variable, which worker processes inherit)
switches the whole stack.

Module-level counters (:func:`counters` / :func:`reset_counters`) record how
many full products ran and how many relations were built — benches and the
no-materialisation regression tests instrument the kernel through them.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro import faults

__all__ = [
    "Relation",
    "DenseRelation",
    "BitsetRelation",
    "SparseRelation",
    "Kernel",
    "DenseKernel",
    "BitsetKernel",
    "SparseKernel",
    "AdaptiveKernel",
    "KERNELS",
    "KERNEL_NAMES",
    "kernel_descriptions",
    "get_kernel",
    "get_default_kernel",
    "set_default_kernel",
    "relation_from_matrix",
    "relation_from_rows",
    "counters",
    "reset_counters",
    "COST_PROFILE_ENV",
    "cost_constants",
    "set_cost_constants",
    "load_cost_profile",
]

#: Environment variable selecting the process-wide default kernel; read once
#: at first use so spawned corpus workers inherit the CLI's ``--kernel``.
KERNEL_ENV = "REPRO_KERNEL"

_UINT64_ONE = np.uint64(1)
_EMPTY_ROW = np.empty(0, dtype=np.int64)

if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # pragma: no cover - numpy < 2.0 fallback
    _POPCOUNT_TABLE = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def _popcount(words: np.ndarray) -> np.ndarray:
        return _POPCOUNT_TABLE[words.view(np.uint8)]


# ------------------------------------------------------------------ counters
_counter_lock = threading.Lock()
_counters = {"full_compose": 0, "row_union": 0, "relations_built": 0, "set_steps": 0}


def _count(name: str, amount: int = 1) -> None:
    with _counter_lock:
        _counters[name] += amount


def counters() -> dict:
    """A snapshot of the kernel instrumentation counters.

    ``full_compose`` counts full matrix products, ``relations_built`` counts
    relation materialisations from axis pairs or dense matrices,
    ``set_steps`` counts the O(|t|) set-at-a-time axis steps of
    :mod:`repro.pplbin.setwise`.  ``row_union`` is kept for the readers of
    the cost block and always reads 0: nothing computes single-row
    products any more.  Tests assert on these to prove the set-at-a-time
    path never touches a full product.
    """
    with _counter_lock:
        return dict(_counters)


def reset_counters() -> None:
    """Zero the instrumentation counters (tests and benches)."""
    with _counter_lock:
        for key in _counters:
            _counters[key] = 0


# ----------------------------------------------------------- packing helpers
def _word_count(size: int) -> int:
    return (size + 63) // 64


def _tail_mask(size: int) -> np.ndarray:
    """Per-word mask with the bits beyond ``size`` cleared (for complement)."""
    words = _word_count(size)
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = size & 63
    if words and tail:
        mask[-1] = (_UINT64_ONE << np.uint64(tail)) - _UINT64_ONE
    return mask


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, size)`` bool matrix into ``(rows, W)`` uint64 words."""
    rows, size = matrix.shape
    words = _word_count(size)
    packed = np.packbits(matrix, axis=1, bitorder="little")
    padded = np.zeros((rows, words * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return np.ascontiguousarray(padded).view(np.uint64)


def unpack_rows(words: np.ndarray, size: int) -> np.ndarray:
    """Unpack ``(rows, W)`` uint64 words back into a ``(rows, size)`` bool matrix."""
    rows = words.shape[0]
    if size == 0:
        return np.zeros((rows, 0), dtype=bool)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little", count=size).astype(bool)


def pack_vector(vector: np.ndarray) -> np.ndarray:
    """Pack a bool vector into uint64 words (for column label masks)."""
    return pack_rows(vector.reshape(1, -1))[0]


# ------------------------------------------------------------ representations
class Relation:
    """A Boolean relation on ``size`` nodes, in one of three representations.

    All representations expose the same read interface (conversion, row
    access, cardinality); the algebra lives on :class:`Kernel` so that the
    representation of each *result* is an explicit choice.
    """

    __slots__ = ("size", "_dense", "_nnz")

    representation = "abstract"

    def __init__(self, size: int) -> None:
        self.size = size
        self._dense: Optional[np.ndarray] = None
        self._nnz: Optional[int] = None

    # Conversions ----------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """The dense bool matrix (returned read-only).

        Memoised only when the matrix is the relation's own storage or
        small: relations live in byte-budgeted caches that account ``nbytes``
        at insertion time, so lazily attaching an n^2 memo to a cached packed
        relation would grow untracked memory behind the budget's back.
        Recomputing instead costs one unpack/scatter — microseconds at the
        sizes where it matters.
        """
        if self._dense is not None:
            return self._dense
        dense = self._compute_dense()
        dense.setflags(write=False)
        if self.representation == "dense" or self.size <= SMALL_SIZE:
            self._dense = dense
        return dense

    def _compute_dense(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_bitset(self) -> "BitsetRelation":
        return BitsetRelation(self.size, pack_rows(self.to_dense()))

    def to_sparse(self) -> "SparseRelation":
        # One vectorised nonzero; rows are CSR-delimited, never split.
        sources, targets = np.nonzero(self.to_dense())
        return SparseRelation.from_flat(
            self.size, sources, targets.astype(np.int64)
        )

    # Cardinality ----------------------------------------------------------
    def nnz(self) -> int:
        """Number of 1-entries (memoised; drives the cost model)."""
        if self._nnz is None:
            self._nnz = self._compute_nnz()
        return self._nnz

    def _compute_nnz(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def density(self) -> float:
        cells = self.size * self.size
        return self.nnz() / cells if cells else 0.0

    @property
    def nbytes(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    # Row access -----------------------------------------------------------
    def row_indices(self, node: int) -> np.ndarray:  # pragma: no cover - abstract
        """Sorted successor ids of ``node`` (the ``S_{u,b}`` of Prop. 10)."""
        raise NotImplementedError

    def row_any(self, node: int) -> bool:
        return bool(self.row_indices(node).size)

    def any(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def pairs(self) -> frozenset:
        """The relation as an explicit ``frozenset`` of node pairs."""
        rows, cols = np.nonzero(self.to_dense())
        return frozenset(zip(rows.tolist(), cols.tolist()))

    def equals(self, other: "Relation") -> bool:
        return self.size == other.size and np.array_equal(self.to_dense(), other.to_dense())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(size={self.size}, nnz={self.nnz()}, "
            f"density={self.density():.4f})"
        )


class DenseRelation(Relation):
    """Dense bool-matrix representation (the seed's layout)."""

    __slots__ = ("matrix",)

    representation = "dense"

    def __init__(self, size: int, matrix: np.ndarray) -> None:
        super().__init__(size)
        self.matrix = matrix

    def _compute_dense(self) -> np.ndarray:
        return self.matrix

    def _compute_nnz(self) -> int:
        return int(np.count_nonzero(self.matrix))

    @property
    def nbytes(self) -> int:
        return self.matrix.nbytes

    def row_indices(self, node: int) -> np.ndarray:
        return np.flatnonzero(self.matrix[node]).astype(np.int64)

    def row_any(self, node: int) -> bool:
        return bool(self.matrix[node].any())

    def any(self) -> bool:
        return bool(self.matrix.any())


class BitsetRelation(Relation):
    """Rows packed into uint64 words; 64 matrix cells per word operation."""

    __slots__ = ("words",)

    representation = "bitset"

    def __init__(self, size: int, words: np.ndarray) -> None:
        super().__init__(size)
        self.words = words

    def _compute_dense(self) -> np.ndarray:
        return unpack_rows(self.words, self.size)

    def to_bitset(self) -> "BitsetRelation":
        return self

    def _compute_nnz(self) -> int:
        return int(_popcount(self.words).sum())

    @property
    def nbytes(self) -> int:
        return self.words.nbytes

    def row_indices(self, node: int) -> np.ndarray:
        row = unpack_rows(self.words[node : node + 1], self.size)[0]
        return np.flatnonzero(row).astype(np.int64)

    def row_any(self, node: int) -> bool:
        return bool(self.words[node].any())

    def any(self) -> bool:
        return bool(self.words.any())


class SparseRelation(Relation):
    """Per-row sorted successor arrays in a CSR layout.

    ``indices`` holds every 1-entry's target, row by row; ``indptr`` (length
    ``size + 1``) delimits the rows, so ``row_indices`` is an O(1) slice and
    bulk operations (masking, conversion) run on the flat arrays — no
    per-row numpy call anywhere.  Cost follows the 1-entries touched.
    """

    __slots__ = ("indptr", "indices")

    representation = "sparse"

    def __init__(self, size: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        super().__init__(size)
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_row_arrays(cls, size: int, rows: Sequence) -> "SparseRelation":
        """Build from one successor array (or list) per node."""
        lengths = np.fromiter((len(row) for row in rows), dtype=np.int64, count=size)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if int(indptr[-1]):
            indices = np.concatenate([np.asarray(row, dtype=np.int64) for row in rows if len(row)])
        else:
            indices = _EMPTY_ROW
        return cls(size, indptr, indices)

    @classmethod
    def from_flat(cls, size: int, sources: np.ndarray, indices: np.ndarray) -> "SparseRelation":
        """Build from parallel (source, target) arrays sorted by source."""
        counts = np.bincount(sources, minlength=size)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(size, indptr, indices.astype(np.int64, copy=False))

    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        """All entries as parallel (source, target) arrays."""
        sources = np.repeat(
            np.arange(self.size, dtype=np.int64), np.diff(self.indptr)
        )
        return sources, self.indices

    def _compute_dense(self) -> np.ndarray:
        dense = np.zeros((self.size, self.size), dtype=bool)
        sources, targets = self._flat()
        dense[sources, targets] = True
        return dense

    def to_bitset(self) -> "BitsetRelation":
        width = _word_count(self.size)
        words = np.zeros((self.size, width), dtype=np.uint64)
        sources, targets = self._flat()
        if targets.size:
            flat = words.reshape(-1)
            shifts = (targets & 63).astype(np.uint64)
            np.bitwise_or.at(flat, sources * width + (targets >> 6), _UINT64_ONE << shifts)
        return BitsetRelation(self.size, words)

    def to_sparse(self) -> "SparseRelation":
        return self

    def _compute_nnz(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes

    def row_indices(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def row_any(self, node: int) -> bool:
        return bool(self.indptr[node + 1] > self.indptr[node])

    def any(self) -> bool:
        return bool(self.indices.size)

    def pairs(self) -> frozenset:
        sources, targets = self._flat()
        return frozenset(zip(sources.tolist(), targets.tolist()))


# ------------------------------------------------------------- constructors
def relation_from_matrix(matrix: np.ndarray) -> DenseRelation:
    """Wrap a dense bool matrix (no copy)."""
    return DenseRelation(matrix.shape[0], matrix)


def relation_from_rows(size: int, rows: Iterable[Iterable[int]]) -> SparseRelation:
    """Build a sparse relation from per-node successor iterables."""
    arrays = [np.asarray(sorted(targets), dtype=np.int64) for targets in rows]
    return SparseRelation.from_row_arrays(size, arrays)


# -------------------------------------------------------------- cost model
#: Built-in machine constants behind the representation choice, in
#: nanoseconds.  They were calibrated against the E9 grid on commodity x86
#: with numpy 2.x and only need to be right within a factor of ~2 — the
#: regimes they separate differ by orders of magnitude.  A fitted profile
#: (``REPRO_COST_PROFILE`` / :func:`load_cost_profile`, produced by
#: :mod:`repro.obs.calibrate` from observed ``kernel.compose`` spans)
#: overrides them per machine.
BLAS_NS_PER_CELL = 0.02  # float32 matmul, per n^3 cell
WORD_NS = 4.0  # per uint64 word in the packed row reduce
ROW_OVERHEAD_NS = 2000.0  # per-row numpy call overhead of the packed product
SPARSE_ELEMENT_NS = 500.0  # per 1-entry touched by the successor-set product
CELL_NS = 0.5  # per matrix cell of a pack/unpack/scan conversion
CONVERT_ELEMENT_NS = 30.0  # per 1-entry of a vectorised sparse conversion
CONVERT_ROW_NS = 300.0  # per row of a split-into-rows conversion

#: At and below this size a dense matrix fits in cache and neither word
#: packing nor successor sets can pay for their own call overhead.
SMALL_SIZE = 128

#: Environment variable naming a calibration-profile JSON to load at import.
COST_PROFILE_ENV = "REPRO_COST_PROFILE"

_DEFAULT_COST = {
    "BLAS_NS_PER_CELL": BLAS_NS_PER_CELL,
    "WORD_NS": WORD_NS,
    "ROW_OVERHEAD_NS": ROW_OVERHEAD_NS,
    "SPARSE_ELEMENT_NS": SPARSE_ELEMENT_NS,
    "CELL_NS": CELL_NS,
    "CONVERT_ELEMENT_NS": CONVERT_ELEMENT_NS,
    "CONVERT_ROW_NS": CONVERT_ROW_NS,
}

#: The active constants the estimators read — defaults unless a profile
#: overrode them.
_COST = dict(_DEFAULT_COST)


def cost_constants() -> dict:
    """The cost-model constants currently in effect (a copy)."""
    return dict(_COST)


def set_cost_constants(overrides: Optional[dict] = None) -> None:
    """Override cost-model constants process-wide; ``None`` restores defaults.

    Unknown keys and non-positive values are ignored — a partial or
    damaged profile can only ever move known constants, never corrupt the
    model's shape.
    """
    global _COST
    merged = dict(_DEFAULT_COST)
    if overrides:
        for key, value in overrides.items():
            if key in _DEFAULT_COST:
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    continue
                if value > 0.0:
                    merged[key] = value
    _COST = merged


def load_cost_profile(path: str) -> dict:
    """Load a :mod:`repro.obs.calibrate` profile JSON and apply its constants.

    Returns the constants now in effect.  Raises ``OSError``/``ValueError``
    on unreadable or malformed files (the import-time environment hook
    swallows those; explicit calls see them).
    """
    import json

    with open(path, "r", encoding="utf-8") as handle:
        profile = json.load(handle)
    if not isinstance(profile, dict):
        raise ValueError(f"not a calibration profile: {path!r}")
    constants = profile.get("constants", profile)
    if not isinstance(constants, dict):
        raise ValueError(f"not a calibration profile: {path!r}")
    set_cost_constants(constants)
    return cost_constants()


def estimate_conversion_ns(rep_from: str, rep_to: str, size: int, nnz: int) -> float:
    """Predicted cost of converting one operand between representations."""
    if rep_from == rep_to:
        return 0.0
    cost = _COST
    cells = float(size) * size
    if {rep_from, rep_to} == {"dense", "bitset"}:
        return cost["CELL_NS"] * cells  # packbits / unpackbits
    if rep_from == "sparse":
        # One concatenate + scatter.
        return cost["CONVERT_ELEMENT_NS"] * nnz + cost["CONVERT_ROW_NS"]
    # Nonzero scan + per-row split.
    return cost["CELL_NS"] * cells + cost["CONVERT_ROW_NS"] * size


def estimate_compose_ns(
    representation: str,
    size: int,
    left_nnz: int,
    right_nnz: int,
    left_rep: Optional[str] = None,
    right_rep: Optional[str] = None,
) -> float:
    """Predicted cost of one composition in ``representation``, in ns.

    When the operand representations are known, the estimate includes what
    it costs to convert them into what the algorithm consumes — at a few
    hundred nodes a per-row conversion rivals the product itself, so a
    representation-blind choice picks wrong.
    """
    cost = _COST
    if representation == "dense":
        base = cost["BLAS_NS_PER_CELL"] * float(size) ** 3
        needs = ("dense", "dense")
    elif representation == "bitset":
        base = (
            cost["ROW_OVERHEAD_NS"] * size
            + cost["WORD_NS"] * left_nnz * _word_count(size)
        )
        # The packed product walks left rows as indices (dense or sparse both
        # work directly) and reduces packed right rows.
        needs = ("dense" if left_rep == "bitset" else (left_rep or "dense"), "bitset")
    elif representation == "sparse":
        touched = left_nnz + (left_nnz * right_nnz / size if size else 0.0)
        base = cost["SPARSE_ELEMENT_NS"] * touched
        needs = ("sparse", "sparse")
    else:
        raise ValueError(f"unknown representation {representation!r}")
    if left_rep is not None:
        base += estimate_conversion_ns(left_rep, needs[0], size, left_nnz)
    if right_rep is not None:
        base += estimate_conversion_ns(right_rep, needs[1], size, right_nnz)
    return base


# Apply a profile named in the environment once at import; a missing or
# corrupt file must never break import (the baked-in defaults still work).
_profile_path = os.environ.get(COST_PROFILE_ENV, "").strip()
if _profile_path:
    try:
        load_cost_profile(_profile_path)
    except (OSError, ValueError):
        pass
del _profile_path


def choose_compose(
    size: int,
    left_nnz: int,
    right_nnz: int,
    left_rep: Optional[str] = None,
    right_rep: Optional[str] = None,
) -> str:
    """Pick the composition algorithm for the observed operand densities."""
    if size <= SMALL_SIZE:
        return "dense"
    candidates = ("dense", "bitset", "sparse")
    return min(
        candidates,
        key=lambda rep: estimate_compose_ns(
            rep, size, left_nnz, right_nnz, left_rep, right_rep
        ),
    )


def preferred_representation(size: int, nnz: int) -> str:
    """Storage representation for a relation of the observed density.

    Successor arrays stay worthwhile well past "a few entries per row" —
    the break-even against packed words is around 16 successors per node
    both operationally (row unions touch only real entries) and in memory
    (16n * 8 bytes ≈ 2x the n^2/8 packed footprint at n = 1024).
    """
    if size <= SMALL_SIZE:
        return "dense"
    if size and nnz <= 16 * size:
        return "sparse"
    return "bitset"


# ------------------------------------------------------------------ kernels
class Kernel:
    """Boolean relation algebra in one (or an adaptively chosen) representation.

    ``cache_token`` namespaces the per-tree matrix cache: two kernels with
    the same token may share cached relations, so it must be unique per
    observable behaviour (fixing the seed's collision of every non-default
    matmul onto one cache key).
    """

    name = "abstract"
    #: Human-readable capability/cost-model summary, surfaced by
    #: ``repro-xpath engines`` next to the engine table (the CLI reads it
    #: from this registry — the same one the Session resolves kernels from).
    storage_summary = ""
    compose_summary = ""
    best_for = ""

    def describe(self) -> dict:
        """The kernel's capability/cost summary as a plain dict."""
        return {
            "name": self.name,
            "storage": self.storage_summary,
            "compose": self.compose_summary,
            "best_for": self.best_for,
        }

    @property
    def cache_token(self):
        return self.name

    # Representation choices (overridden by the fixed kernels) -------------
    def _storage(self, size: int, nnz: int) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def _compose_algorithm(self, left: "Relation", right: "Relation") -> str:
        return self._storage(left.size, left.nnz())

    def coerce(self, relation: Relation) -> Relation:
        """Convert ``relation`` into this kernel's storage representation."""
        target = self._storage(relation.size, relation.nnz())
        return _convert(relation, target)

    # Constructors ---------------------------------------------------------
    def from_pairs(self, size: int, sources: np.ndarray, targets: np.ndarray) -> Relation:
        """Build a relation from parallel ``(source, target)`` arrays (any
        order, no duplicates), without a dense intermediate for the
        non-dense representations."""
        _count("relations_built")
        order = np.lexsort((targets, sources))
        sparse = SparseRelation.from_flat(size, sources[order], targets[order])
        return _convert(sparse, self._storage(size, sparse.nnz()))

    def from_matrix(self, matrix: np.ndarray) -> Relation:
        _count("relations_built")
        dense = relation_from_matrix(matrix)
        return _convert(dense, self._storage(dense.size, dense.nnz()))

    def identity(self, size: int) -> Relation:
        sparse = SparseRelation(
            size, np.arange(size + 1, dtype=np.int64), np.arange(size, dtype=np.int64)
        )
        return _convert(sparse, self._storage(size, size))

    # Algebra --------------------------------------------------------------
    def compose(self, left: Relation, right: Relation) -> Relation:
        """Boolean matrix product ``left . right``."""
        _count("full_compose")
        faults.trip("slow_query", site="compose")
        algorithm = self._compose_algorithm(left, right)
        if algorithm == "dense":
            return _compose_dense(left, right)
        if algorithm == "bitset":
            return _compose_bitset(left, right)
        return _compose_sparse(left, right)

    def union(self, left: Relation, right: Relation) -> Relation:
        return self._elementwise(left, right, np.bitwise_or)

    def intersection(self, left: Relation, right: Relation) -> Relation:
        return self._elementwise(left, right, np.bitwise_and)

    def difference(self, left: Relation, right: Relation) -> Relation:
        if isinstance(left, BitsetRelation) or isinstance(right, BitsetRelation):
            lw, rw = left.to_bitset().words, right.to_bitset().words
            return self.coerce(BitsetRelation(left.size, lw & ~rw))
        return self.coerce(
            DenseRelation(left.size, left.to_dense() & ~right.to_dense())
        )

    def complement(self, relation: Relation) -> Relation:
        size = relation.size
        if isinstance(relation, SparseRelation):
            # Scatter the (few) 1-entries out of an all-ones matrix: the
            # near-full result lands dense, which is what its consumer (a
            # composition, almost always) wants to read anyway.
            sources, targets = relation._flat()
            dense = np.ones((size, size), dtype=bool)
            dense[sources, targets] = False
            result: Relation = DenseRelation(size, dense)
        elif isinstance(relation, DenseRelation):
            result = DenseRelation(size, ~relation.to_dense())
        else:
            words = relation.to_bitset().words
            result = BitsetRelation(size, ~words & _tail_mask(size)[np.newaxis, :])
        return self.coerce(result)

    def filter_diagonal(self, relation: Relation) -> Relation:
        """The paper's ``[M]``: keep ``(u, u)`` for rows with a successor."""
        if isinstance(relation, SparseRelation):
            satisfied = np.flatnonzero(np.diff(relation.indptr) > 0)
        elif isinstance(relation, BitsetRelation):
            satisfied = np.flatnonzero(relation.words.any(axis=1))
        else:
            satisfied = np.flatnonzero(relation.to_dense().any(axis=1))
        satisfied = satisfied.astype(np.int64)
        sparse = SparseRelation.from_flat(relation.size, satisfied, satisfied)
        return _convert(sparse, self._storage(relation.size, sparse.nnz()))

    def mask_columns(self, relation: Relation, labels: np.ndarray) -> Relation:
        """Restrict targets to the nodes selected by the bool vector ``labels``."""
        if isinstance(relation, SparseRelation):
            # One vectorised filter over the flattened CSR entries.
            sources, targets = relation._flat()
            keep = labels[targets]
            return SparseRelation.from_flat(
                relation.size, sources[keep], targets[keep]
            )
        if isinstance(relation, BitsetRelation):
            packed = pack_vector(labels)
            return BitsetRelation(relation.size, relation.words & packed[np.newaxis, :])
        return DenseRelation(relation.size, relation.to_dense() & labels[np.newaxis, :])

    # Internals ------------------------------------------------------------
    def _elementwise(self, left: Relation, right: Relation, op) -> Relation:
        size = left.size
        if isinstance(left, SparseRelation) and isinstance(right, SparseRelation) and size:
            # One vectorised merge over flattened (source, target) keys.
            ls, lt = left._flat()
            rs, rt = right._flat()
            left_keys = ls * size + lt
            right_keys = rs * size + rt
            if op is np.bitwise_or:
                keys = np.unique(np.concatenate([left_keys, right_keys]))
            else:
                keys = np.intersect1d(left_keys, right_keys, assume_unique=True)
            return self.coerce(
                SparseRelation.from_flat(size, keys // size, keys % size)
            )
        if isinstance(left, BitsetRelation) or isinstance(right, BitsetRelation):
            result: Relation = BitsetRelation(
                size, op(left.to_bitset().words, right.to_bitset().words)
            )
        else:
            result = DenseRelation(size, op(left.to_dense(), right.to_dense()))
        return self.coerce(result)


class DenseKernel(Kernel):
    """Everything dense; composition through the exact float32 BLAS product."""

    name = "dense"
    storage_summary = "n x n bool matrix (n^2 bytes)"
    compose_summary = "float32 BLAS matmul, O(n^3) flops (exact for n < 2^24)"
    best_for = "dense relations and small trees; except-heavy expressions"

    def _storage(self, size: int, nnz: int) -> str:
        return "dense"


class BitsetKernel(Kernel):
    """Everything packed into uint64 words."""

    name = "bitset"
    storage_summary = "rows packed into uint64 words (n^2/8 bytes)"
    compose_summary = "word-wise OR of selected rows: nnz(left) * n/64 word ops"
    best_for = "large trees at moderate density (the n^3/64 product)"

    def _storage(self, size: int, nnz: int) -> str:
        return "bitset"


class SparseKernel(Kernel):
    """Everything as successor-set arrays (degrades on dense relations)."""

    name = "sparse"
    storage_summary = "per-row sorted successor arrays (O(nnz))"
    compose_summary = "gathers proportional to the 1-entries touched"
    best_for = "very sparse relations; hopeless once except densifies them"

    def _storage(self, size: int, nnz: int) -> str:
        return "sparse"


class AdaptiveKernel(Kernel):
    """Representation per sub-expression, selected by the cost model."""

    name = "adaptive"
    storage_summary = "chosen per relation by density/size estimates"
    compose_summary = "conversion-aware cost model picks the cheapest algorithm"
    best_for = "default: within ~15% of the best fixed kernel on the E9 grid"

    def _storage(self, size: int, nnz: int) -> str:
        return preferred_representation(size, nnz)

    def _compose_algorithm(self, left: "Relation", right: "Relation") -> str:
        return choose_compose(
            left.size,
            left.nnz(),
            right.nnz(),
            left.representation,
            right.representation,
        )

    def coerce(self, relation: Relation) -> Relation:
        # Keep whatever representation an operation produced unless it is
        # clearly wrong for the observed density — conversions are not free,
        # and dense/bitset are interchangeable operands for every consumer
        # (repacking a dense result into words costs more compute than the
        # byte-budgeted cache saves at these sizes).
        target = preferred_representation(relation.size, relation.nnz())
        if relation.representation == target:
            return relation
        if target == "sparse":
            if relation.representation == "bitset" and relation.nnz() > relation.size:
                # Packed rows already answer row queries well; converting
                # buys little for a mid-density relation.
                return relation
            return _convert(relation, "sparse")
        if target == "dense" and relation.size <= SMALL_SIZE:
            return _convert(relation, "dense")
        return relation


# ------------------------------------------------------ composition routines
def _compose_dense(left: Relation, right: Relation) -> DenseRelation:
    a = left.to_dense().astype(np.float32)
    b = right.to_dense().astype(np.float32)
    return DenseRelation(left.size, (a @ b) != 0)


def _compose_bitset(left: Relation, right: Relation) -> BitsetRelation:
    size = left.size
    right_words = right.to_bitset().words
    out = np.zeros_like(right_words)
    if isinstance(left, SparseRelation):
        indptr, indices = left.indptr, left.indices
        for node in range(size):
            sources = indices[indptr[node] : indptr[node + 1]]
            if sources.size:
                np.bitwise_or.reduce(right_words[sources], axis=0, out=out[node])
    else:
        left_bool = left.to_dense()
        for node in range(size):
            sources = np.flatnonzero(left_bool[node])
            if sources.size:
                np.bitwise_or.reduce(right_words[sources], axis=0, out=out[node])
    return BitsetRelation(size, out)


def _compose_sparse(left: Relation, right: Relation) -> SparseRelation:
    size = left.size
    left_sparse = left.to_sparse()
    right_sparse = right.to_sparse()
    rows = []
    for node in range(size):
        sources = left_sparse.row_indices(node)
        if not sources.size:
            rows.append(_EMPTY_ROW)
            continue
        parts = [right_sparse.row_indices(k) for k in sources.tolist()]
        parts = [part for part in parts if part.size]
        if not parts:
            rows.append(_EMPTY_ROW)
        elif len(parts) == 1:
            rows.append(parts[0])
        else:
            rows.append(np.unique(np.concatenate(parts)))
    return SparseRelation.from_row_arrays(size, rows)


def _convert(relation: Relation, target: str) -> Relation:
    if relation.representation == target:
        return relation
    if target == "dense":
        return DenseRelation(relation.size, np.array(relation.to_dense()))
    if target == "bitset":
        return relation.to_bitset()
    return relation.to_sparse()


# ----------------------------------------------------------------- registry
KERNELS: dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in (DenseKernel(), BitsetKernel(), SparseKernel(), AdaptiveKernel())
}

#: Stable tuple of the registered kernel names (CLI choices, bench grids).
KERNEL_NAMES: tuple[str, ...] = tuple(KERNELS)


def kernel_descriptions() -> dict[str, dict]:
    """Capability/cost summaries of every registered kernel, by name."""
    return {name: kernel.describe() for name, kernel in KERNELS.items()}

_default_kernel: Optional[Kernel] = None
_default_lock = threading.Lock()


def get_kernel(kernel: Union[str, Kernel, None]) -> Kernel:
    """Resolve a kernel name (or pass an instance through; None = default)."""
    if kernel is None:
        return get_default_kernel()
    if isinstance(kernel, Kernel):
        return kernel
    try:
        return KERNELS[kernel]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise ValueError(f"unknown kernel {kernel!r} (known: {known})") from None


def get_default_kernel() -> Kernel:
    """The process-wide default kernel (``REPRO_KERNEL`` env or adaptive)."""
    global _default_kernel
    with _default_lock:
        if _default_kernel is None:
            name = os.environ.get(KERNEL_ENV, "adaptive")
            try:
                _default_kernel = KERNELS[name]
            except KeyError:
                known = ", ".join(sorted(KERNELS))
                raise ValueError(
                    f"unknown kernel {name!r} in ${KERNEL_ENV} (known: {known})"
                ) from None
        return _default_kernel


def set_default_kernel(kernel: Union[str, Kernel, None]) -> Kernel:
    """Set (and return) the process-wide default kernel.

    Passing ``None`` resets to the environment/adaptive default.  Callers
    that fan out to worker processes should also export ``REPRO_KERNEL`` so
    the workers agree (the CLI's ``--kernel`` does both).
    """
    global _default_kernel
    resolved = None if kernel is None else get_kernel(kernel)
    with _default_lock:
        _default_kernel = resolved
    return get_default_kernel()
