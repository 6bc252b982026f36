"""The dense Boolean matrix products the E2/E9 baselines measure.

Section 4 of the paper evaluates PPLbin by representing each binary query as
a ``|t| x |t|`` Boolean matrix and interpreting the operators as matrix
operations over the Boolean semiring:

* composition ``P1/P2``  ->  Boolean matrix product,
* ``union``              ->  element-wise or,
* ``except`` (complement)->  element-wise negation,
* ``[P]``                ->  the diagonal matrix of rows with at least one 1.

Three products are provided — the seed's uint8-cast numpy product, the
per-row successor-set product and the pure-Python triple loop — which the
ablation experiment E9 and the scaling experiment E2 run through
:class:`MatmulKernel` to show how much the matrix product dominates the cubic
bound of Theorem 2.  The library's own products live in
:mod:`repro.pplbin.bitmatrix`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.pplbin import bitmatrix as bx

BoolMatrix = np.ndarray
MatmulFn = Callable[[BoolMatrix, BoolMatrix], BoolMatrix]


class MatmulKernel(bx.DenseKernel):
    """A dense kernel whose composition is a caller-supplied matmul function.

    Pass an instance as ``kernel=`` to :func:`repro.pplbin.evaluate_relation`
    or :class:`repro.api.Document`.  The cache token is the function object
    itself, so two different custom products never share cache entries.
    """

    def __init__(self, matmul: MatmulFn) -> None:
        self.matmul = matmul
        self.name = f"matmul:{getattr(matmul, '__name__', repr(matmul))}"

    @property
    def cache_token(self):
        return self.matmul

    def compose(self, left: bx.Relation, right: bx.Relation) -> bx.Relation:
        bx._count("full_compose")
        product = self.matmul(left.to_dense(), right.to_dense())
        return bx.DenseRelation(left.size, np.asarray(product, dtype=bool))


def identity_matrix(size: int) -> BoolMatrix:
    """Return the identity relation on ``size`` nodes."""
    return np.eye(size, dtype=bool)


def empty_matrix(size: int) -> BoolMatrix:
    """Return the empty relation on ``size`` nodes."""
    return np.zeros((size, size), dtype=bool)


def full_matrix(size: int) -> BoolMatrix:
    """Return the universal relation on ``size`` nodes."""
    return np.ones((size, size), dtype=bool)


def bool_matmul(left: BoolMatrix, right: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product using numpy (O(n^3) bit operations, vectorised).

    The inner dimension is processed in chunks of at most 255: a uint8
    matmul accumulates modulo 256, so on a relation with ≥ 256 common
    successors an unchunked product silently wraps a positive count to zero
    (an all-ones 256x256 product came back all-False).  ORing the per-chunk
    "any hit" results is exact, since each chunk's counts stay below 256.
    """
    size_mid = left.shape[1]
    a = left.astype(np.uint8)
    b = right.astype(np.uint8)
    if size_mid < 256:
        return (a @ b).astype(bool)
    result = np.zeros((left.shape[0], right.shape[1]), dtype=bool)
    for start in range(0, size_mid, 255):
        stop = start + 255
        result |= (a[:, start:stop] @ b[start:stop, :]).astype(bool)
    return result


def bool_matmul_sparse(left: BoolMatrix, right: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product via per-row successor-set unions.

    Cost is proportional to the number of 1-entries touched, so on the sparse
    relations typical of axis steps it can beat the dense vectorised product;
    on dense relations (anything under ``except``) it degrades to O(n^3) with
    Python-level constants.  Used by the E9 ablation as the middle ground
    between the numpy product and the naive triple loop.
    """
    size_left, size_right = left.shape[0], right.shape[1]
    result = np.zeros((size_left, size_right), dtype=bool)
    if not left.any() or not right.any():
        # Early exit: a zero operand makes the product zero without touching
        # a single successor set.
        return result
    # Successor sets of `right` are built lazily, only for the columns some
    # left row actually reaches — the seed precomputed all |t| of them even
    # when `left` was empty or nearly so.
    right_rows: dict[int, set[int]] = {}
    for i in range(size_left):
        row_targets: set[int] = set()
        for k in np.flatnonzero(left[i]).tolist():
            targets = right_rows.get(k)
            if targets is None:
                targets = set(np.flatnonzero(right[k]).tolist())
                right_rows[k] = targets
            row_targets |= targets
        for j in row_targets:
            result[i, j] = True
    return result


def bool_matmul_python(left: BoolMatrix, right: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product as the naive triple loop (ablation baseline).

    This is the textbook O(n^3) implementation the paper's complexity
    analysis counts; it exists only so experiment E9 can quantify the
    constant-factor gap to the vectorised and sparse products.
    """
    size_left, size_mid = left.shape
    _, size_right = right.shape
    result = np.zeros((size_left, size_right), dtype=bool)
    left_rows = left.tolist()
    right_cols = right.T.tolist()
    for i in range(size_left):
        row = left_rows[i]
        for j in range(size_right):
            column = right_cols[j]
            result[i, j] = any(row[k] and column[k] for k in range(size_mid))
    return result


def bool_union(left: BoolMatrix, right: BoolMatrix) -> BoolMatrix:
    """Element-wise union of two relations."""
    return left | right


def bool_intersection(left: BoolMatrix, right: BoolMatrix) -> BoolMatrix:
    """Element-wise intersection of two relations."""
    return left & right


def bool_complement(matrix: BoolMatrix) -> BoolMatrix:
    """Complement of a relation (the unary ``except`` operator)."""
    return ~matrix


def bool_difference(left: BoolMatrix, right: BoolMatrix) -> BoolMatrix:
    """Set difference of two relations (binary ``except``)."""
    return left & ~right


def filter_diagonal(matrix: BoolMatrix) -> BoolMatrix:
    """The paper's ``[M]`` operator.

    ``[M][u, u'] = 1`` iff ``u = u'`` and row ``u`` of ``M`` contains a 1.
    """
    has_successor = matrix.any(axis=1)
    result = np.zeros_like(matrix)
    np.fill_diagonal(result, has_successor)
    return result


def pairs_from_matrix(matrix: BoolMatrix) -> frozenset[tuple[int, int]]:
    """Return the relation encoded by ``matrix`` as a set of node pairs."""
    rows, cols = np.nonzero(matrix)
    return frozenset(zip(rows.tolist(), cols.tolist()))


def matrix_from_pairs(size: int, pairs) -> BoolMatrix:
    """Return the matrix encoding of an explicit set of node pairs."""
    matrix = np.zeros((size, size), dtype=bool)
    for source, target in pairs:
        matrix[source, target] = True
    return matrix
