"""Binary-query oracles: the interface between HCL(L) and the language L.

Proposition 10 assumes that every binary query ``b`` occurring in a formula
is precompiled into a data structure returning the successor set ``S_{u,b}``
of any node in time proportional to its size.  The classes here provide that
interface for the three instantiations of ``L`` used in the library:

* :class:`PPLbinOracle` — ``L = PPLbin`` (the paper's instantiation for PPL),
  answered set-at-a-time over the tree's arrays, with the Theorem 2
  relation where a whole relation is needed.
* :class:`AxisOracle` — ``L`` = the raw axes of Core XPath, used by the
  encodings of Section 6 and by unit tests; each ``(axis, nametest)`` is
  answered as the PPLbin step ``axis::nametest``.
* :class:`ExplicitRelationOracle` — ``L`` = explicitly given node-pair
  relations, used to plug arbitrary binary FO queries (computed elsewhere)
  into HCL, and by hypothesis-generated relations in tests.

The Fig. 8 answerer works on whole node sets: it asks an oracle for
``preimage(b, targets)``, ``image(b, sources)`` and
``edges(b, sources, targets)`` over Boolean node vectors.
:class:`PPLbinOracle` and :class:`AxisOracle` answer them set-at-a-time
(:mod:`repro.pplbin.setwise`); every other oracle gets them from its
``pairs()`` through :class:`PairsSetwise` (see :func:`setwise_oracle`).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Protocol

import numpy as np

from repro.errors import EvaluationError
from repro.trees.axes import Axis
from repro.trees.tree import Tree
from repro.pplbin import bitmatrix as bx
from repro.pplbin import evaluator, setwise
from repro.pplbin.ast import BinExpr, BStep
from repro.pplbin.parser import parse_pplbin


class BinaryQueryOracle(Protocol):
    """Protocol required of the parameter language ``L``.

    ``pairs(b)`` returns the full binary query ``q_b(t)`` as node pairs;
    ``successors(b, u)`` returns all ``v`` with ``(u, v) in q_b(t)``.  Both
    are expected to be cheap after a one-time precompilation per distinct
    ``b`` (this is the ``sum_b p(|b|, |t|)`` term of Propositions 10/11).
    The set-at-a-time methods the answerer uses (``preimage``, ``image``,
    ``edges``) are optional: :func:`setwise_oracle` derives them from
    ``pairs``.
    """

    def pairs(self, query: Any) -> Iterable[tuple[int, int]]:  # pragma: no cover
        ...

    def successors(self, query: Any, node: int) -> Iterable[int]:  # pragma: no cover
        ...


class PPLbinOracle:
    """Oracle for ``L = PPLbin``.

    ``preimage``/``image``/``edges`` run set-at-a-time over the tree's
    arrays (:mod:`repro.pplbin.setwise`); ``relation``/``matrix``/``pairs``
    return the Theorem 2 relation on the pluggable kernel of
    :mod:`repro.pplbin.bitmatrix` (``kernel`` of ``None`` = the process
    default), cached on the tree, and ``successors``/``has_successor`` read
    one row of it.
    """

    def __init__(self, tree: Tree, kernel=None) -> None:
        self.tree = tree
        self.kernel = bx.get_kernel(kernel)

    def _query(self, query: BinExpr | str) -> BinExpr:
        return parse_pplbin(query) if isinstance(query, str) else query

    def _relation(self, expression: BinExpr) -> bx.Relation:
        # Looked up on the module, so wrappers installed there see every call.
        return evaluator.evaluate_relation(self.tree, expression, kernel=self.kernel)

    def relation(self, query: BinExpr | str) -> bx.Relation:
        """Return (and cache) the relation of ``query`` on the tree."""
        return self._relation(self._query(query))

    def matrix(self, query: BinExpr | str) -> np.ndarray:
        """Return (and cache) the Boolean matrix of ``query``."""
        return self.relation(query).to_dense()

    def pairs(self, query: BinExpr | str) -> frozenset[tuple[int, int]]:
        """Return ``q_b(t)`` as an explicit set of pairs."""
        return self.relation(query).pairs()

    def successors(self, query: BinExpr | str, node: int) -> list[int]:
        """Return all successors of ``node`` under ``query``."""
        return self.relation(query).row_indices(node).tolist()

    def has_successor(self, query: BinExpr | str, node: int) -> bool:
        """Return True when ``node`` has at least one successor."""
        return self.relation(query).row_any(node)

    def preimage(self, query: BinExpr | str, targets: np.ndarray) -> np.ndarray:
        """Return the nodes with a successor in ``targets`` (Boolean vectors)."""
        return setwise.preimage(self.tree, self._query(query), targets, self._relation)

    def image(self, query: BinExpr | str, sources: np.ndarray) -> np.ndarray:
        """Return the nodes with a predecessor in ``sources`` (Boolean vectors)."""
        return setwise.image(self.tree, self._query(query), sources, self._relation)

    def edges(
        self, query: BinExpr | str, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return the query's pairs from ``sources`` into ``targets``."""
        return setwise.edges(self.tree, self._query(query), sources, targets, self._relation)


class PairsSetwise:
    """Set-at-a-time ``preimage``/``image``/``edges`` from an oracle's ``pairs()``.

    Each query's pairs are listed once into two int64 columns; every
    set-at-a-time question is then one vectorised mask over them.
    """

    _pair_columns: dict

    def _columns(self, query: Any) -> tuple[np.ndarray, np.ndarray]:
        cached = self._pair_columns.get(query)
        if cached is None:
            pairs = sorted(self.pairs(query))
            cached = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            self._pair_columns[query] = cached
        return cached[0], cached[1]

    def preimage(self, query: Any, targets: np.ndarray) -> np.ndarray:
        """Return the nodes with a successor in ``targets`` (Boolean vectors)."""
        sources, ends = self._columns(query)
        result = np.zeros(targets.size, dtype=bool)
        result[sources[targets[ends]]] = True
        return result

    def image(self, query: Any, sources: np.ndarray) -> np.ndarray:
        """Return the nodes with a predecessor in ``sources`` (Boolean vectors)."""
        starts, ends = self._columns(query)
        result = np.zeros(sources.size, dtype=bool)
        result[ends[sources[starts]]] = True
        return result

    def edges(
        self, query: Any, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return the query's pairs from ``sources`` into ``targets``."""
        starts, ends = self._columns(query)
        keep = sources[starts] & targets[ends]
        return starts[keep], ends[keep]


class _PairsAdapter(PairsSetwise):
    """:class:`PairsSetwise` over a foreign oracle offering only ``pairs()``."""

    def __init__(self, oracle: BinaryQueryOracle) -> None:
        self.pairs = oracle.pairs
        self._pair_columns = {}


def setwise_oracle(oracle: BinaryQueryOracle):
    """Return ``oracle`` itself when it answers set-at-a-time, else an adapter."""
    if all(hasattr(oracle, name) for name in ("preimage", "image", "edges")):
        return oracle
    return _PairsAdapter(oracle)


class AxisOracle(PPLbinOracle):
    """Oracle whose binary queries are ``(axis, nametest)`` pairs or bare axes."""

    def _query(self, query) -> BinExpr:
        axis, nametest = query if isinstance(query, tuple) else (query, None)
        if not isinstance(axis, Axis):
            raise EvaluationError(f"AxisOracle queries are Axis values, got {axis!r}")
        return BStep(axis, nametest)


class ExplicitRelationOracle(PairsSetwise):
    """Oracle over explicitly materialised relations.

    ``relations`` maps a query name (any hashable) to an iterable of node
    pairs.  This is how arbitrary binary FO queries — computed once by the
    FO model checker — are plugged into HCL(FObin) in Section 8 experiments.
    """

    def __init__(self, relations: Mapping[Any, Iterable[tuple[int, int]]]) -> None:
        self._pairs: dict[Any, frozenset[tuple[int, int]]] = {}
        self._successors: dict[Any, dict[int, list[int]]] = {}
        self._pair_columns = {}
        for name, pairs in relations.items():
            self.add(name, pairs)

    def pairs(self, query: Any) -> frozenset[tuple[int, int]]:
        """Return the stored relation for ``query``."""
        try:
            return self._pairs[query]
        except KeyError:
            raise EvaluationError(f"unknown binary query {query!r}") from None

    def successors(self, query: Any, node: int) -> list[int]:
        """Return the stored successors of ``node`` under ``query``."""
        try:
            return self._successors[query].get(node, [])
        except KeyError:
            raise EvaluationError(f"unknown binary query {query!r}") from None

    def add(self, query: Any, pairs: Iterable[tuple[int, int]]) -> None:
        """Register one more named relation."""
        frozen = frozenset(tuple(pair) for pair in pairs)
        self._pairs[query] = frozen
        by_source: dict[int, list[int]] = {}
        for source, target in sorted(frozen):
            by_source.setdefault(source, []).append(target)
        self._successors[query] = by_source
        self._pair_columns.pop(query, None)
