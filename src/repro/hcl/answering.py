"""The n-ary query answering algorithm for HCL⁻(L) (Fig. 8, Proposition 11).

Given a tree ``t``, an HCL formula ``C`` without variable sharing in
compositions, an output variable sequence ``x`` and a binary-query oracle for
``L``, the algorithm computes the answer set ``q_{C,x}(t)`` in time

    O( sum_b p(|b|, |t|)  +  n |C| |t|^2 |A| )

where ``|A|`` is the cardinality of the answer set (Corollary 3).  The steps
are those of the paper:

1. normalise ``C`` into a sharing formula ``D`` with equation system ``Δ``
   (Lemma 3, :mod:`repro.hcl.sharing`) and compile it into a flat plan
   (:mod:`repro.hcl.plan`) — once per query, memoised on the formula, not
   once per document;
2. build the MC filtering table (Proposition 10, :mod:`repro.hcl.mc`), one
   Boolean column per sub-formula;
3. run ``vals`` set-at-a-time.  Top-down, each sub-formula's *demand* — the
   start nodes some parent asks about — is propagated from the MC-true
   nodes only, and a leaf ``b/D`` lists its pairs from its demand into
   ``MC(D, ·)``.  Bottom-up, each sub-formula gets a valuation table: an
   integer array with one row per ``(u, alpha)`` with ``alpha`` in
   ``vals(D0, u)``, a start column and one column per variable of
   ``Var(D0) ∩ x``.  A leaf joins its pairs with the tail's table, a filter
   cross-joins its two tables per start node, a union extends both sides
   to its domain and removes duplicate rows, and a variable adds a column.
   The root's table, projected and extended to ``x``, is the answer.

``extend_{t,X}`` is deferred: a variable a union side lacks is stored as
:data:`ANY` ("every node") and expanded once, after the root's table is
projected, so a union never multiplies its rows by ``|t|`` per start node.

The same run answers a query on many documents at once when ``t`` is a
:class:`repro.trees.forest.Forest`.  Wherever the paper projects the start
column away, the table keeps the start node's *document root* instead
(``0`` for a single tree), :data:`ANY` expands over the row's own document,
and the root's rows are grouped by document and shifted back to each
document's own node ids: :meth:`HclAnswerer.run_documents` returns one
answer set per document.  Every axis step stays inside its document (see
:mod:`repro.trees.axes`), so the forest's answers are exactly the
per-document answers.  A single tree is a forest of one document and takes
the same path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.annotated import annotate
from repro.errors import RestrictionViolation
from repro.pplbin.ast import BExcept
from repro.trees.axes import equijoin, tree_arrays
from repro.trees.tree import Tree
from repro.hcl.ast import HclExpr, HCompose
from repro.hcl.binding import BinaryQueryOracle, setwise_oracle
from repro.hcl.mc import MCTable
from repro.hcl.plan import FILTER, LEAF, SELF, UNION, VAR, Fig8Plan, compile_plan
from repro.hcl.sharing import EquationSystem, SharedExpr, normalize


def check_no_variable_sharing(formula: HclExpr) -> None:
    """Enforce NVS(/): no variable occurs on both sides of a composition.

    One pass fills every sub-formula's variables bottom-up
    (:func:`repro.annotated.annotate`), so the check is linear in ``|C|``.

    Raises
    ------
    RestrictionViolation
        Naming the shared variables, when the condition fails.  Filters are
        covered as well because ``[C]/C'`` is itself a composition.
    """
    for sub, children in annotate(formula):
        if isinstance(sub, HCompose):
            left, right = children
            shared = left.free_variables & right.free_variables
            if shared:
                names = ", ".join(sorted(shared))
                raise RestrictionViolation(
                    "NVS(/)",
                    f"variables {{{names}}} occur on both sides of a composition",
                )


def plan_for(formula: HclExpr, variables: Sequence[str]) -> Fig8Plan:
    """Return the compiled plan of ``formula`` for ``variables`` (memoised).

    The NVS(/) check, the Lemma 3 normalisation and the plan compilation run
    on the first call only; the plan is kept on the formula object.
    """
    key = tuple(variables)
    plans = formula.answer_plans
    plan = plans.get(key)
    if plan is None:
        check_no_variable_sharing(formula)
        shared, system = normalize(formula)
        plan = compile_plan(shared, system, key)
        plans[key] = plan
    return plan


def forest_safe(plan: Fig8Plan) -> bool:
    """Whether ``plan`` may run over a forest: no leaf holds an ``except``.

    An ``except`` is answered from its Theorem 2 relation, which is
    quadratic in the node count, so over a forest it would cost ``n²`` in
    the whole corpus rather than in each document.
    """
    return not any(
        opcode == LEAF and any(isinstance(sub, BExcept) for sub in first.walk())
        for opcode, first, _ in plan.instructions
    )


#: Table entry standing for "any node": a variable a union side lacks.
ANY = -1


def _distinct(rows: np.ndarray, size: int) -> np.ndarray:
    """Drop duplicate rows of a table over node ids below ``size`` (or ANY)."""
    count, width = rows.shape
    if count < 2:
        return rows
    if width == 0:
        return rows[:1]
    base = size + 1
    if base**width < 2**62:
        keys = rows[:, 0] + 1
        for column in range(1, width):
            keys = keys * base + (rows[:, column] + 1)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(count, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return rows[order[first]]
    return np.unique(rows, axis=0)


def _extend(rows: np.ndarray, missing: int) -> np.ndarray:
    """Append ``missing`` columns of ANY: the paper's ``extend_{t,X}``, deferred."""
    if not missing:
        return rows
    return np.concatenate([rows, np.full((len(rows), missing), ANY, dtype=rows.dtype)], axis=1)


def _expand(rows: np.ndarray, ends: np.ndarray, size: int) -> np.ndarray:
    """Replace every ANY entry by each node of the row's document in turn.

    Column 0 holds the row's document root ``r``; its nodes are
    ``r .. ends[r]``.  Rows are grouped by which columns are ANY.
    """
    wild = rows == ANY
    if not wild.any():
        return rows
    patterns, group_of = np.unique(wild, axis=0, return_inverse=True)
    parts = []
    for index, pattern in enumerate(patterns):
        group = rows[group_of.reshape(-1) == index]
        columns = np.flatnonzero(pattern)
        if not columns.size:
            parts.append(group)
            continue
        low = group[:, 0]
        width = ends[low] - low + 1
        counts = width**columns.size
        expanded = np.repeat(group, counts, axis=0)
        # Each row's copies count 0 .. width**k - 1 in base ``width``; the
        # digits, last column least significant, are the nodes filled in.
        rank = np.arange(len(expanded)) - np.repeat(np.cumsum(counts) - counts, counts)
        width, low = np.repeat(width, counts), np.repeat(low, counts)
        for column in columns[::-1]:
            expanded[:, column] = low + rank % width
            rank //= width
        parts.append(expanded)
    return _distinct(np.concatenate(parts), size)


class HclAnswerer:
    """Answer n-ary HCL⁻(L) queries on a fixed tree with a fixed oracle."""

    def __init__(self, tree: Tree, oracle: BinaryQueryOracle) -> None:
        self.tree = tree
        self.oracle = oracle
        # Wrapped once, so a pairs()-only oracle lists each query's pairs once.
        self._setwise = setwise_oracle(oracle)

    def answer(
        self, formula: HclExpr, variables: Sequence[str]
    ) -> frozenset[tuple[int, ...]]:
        """Return the answer set ``q_{C,x}(t)`` of the query.

        Raises
        ------
        RestrictionViolation
            If the formula shares variables across a composition (it then
            lies outside HCL⁻ and the algorithm would be incorrect).
        """
        return self.run(plan_for(formula, variables))

    def answer_documents(
        self, formula: HclExpr, variables: Sequence[str]
    ) -> list[frozenset[tuple[int, ...]]]:
        """Return one answer set per document of a forest, in forest order."""
        return self.run_documents(plan_for(formula, variables))

    def answer_shared(
        self,
        shared: SharedExpr,
        system: EquationSystem,
        variables: Sequence[str],
    ) -> frozenset[tuple[int, ...]]:
        """Answer a query already given in sharing-formula form."""
        return self.run(compile_plan(shared, system, tuple(variables)))

    def nonempty(self, formula: HclExpr) -> bool:
        """Decide whether the query has any answer (Boolean query answering)."""
        plan = plan_for(formula, ())
        return bool(MCTable(self.tree, plan, None, self._setwise).columns[plan.root].any())

    # ------------------------------------------------------------------ core
    def run(self, plan: Fig8Plan) -> frozenset[tuple[int, ...]]:
        """Answer a compiled plan on this tree."""
        return self.run_documents(plan)[0]

    def run_documents(self, plan: Fig8Plan) -> list[frozenset[tuple[int, ...]]]:
        """Answer a compiled plan on every document of this tree or forest.

        Returns one answer set per document, in document order, each over
        that document's own node ids (a plain tree is one document).
        """
        return self._by_document(plan, self._root_rows(plan))

    def run_table(self, plan: Fig8Plan) -> tuple[np.ndarray, list[int]]:
        """Answer a compiled plan on every document, as one int32 table.

        Returns ``(rows, bounds)``: the answer tuples of document ``i`` are
        ``rows[bounds[i]:bounds[i + 1]]``, over that document's own node
        ids, distinct and in lexicographic order.  These are the rows
        :meth:`repro.corpus.cache.PackedAnswers.pack` makes of the
        document's answer set, so a corpus pass packs, caches and ships
        them without building a frozenset per document.
        """
        arrays = tree_arrays(self.tree)
        owner, local = self._owned(plan, self._root_rows(plan), arrays)
        order = np.lexsort((*local.T[::-1], owner))
        owner, local = owner[order], local[order]
        bounds = np.append(np.searchsorted(owner, arrays.roots), len(local))
        return local.astype(np.int32), bounds.tolist()

    def _root_rows(self, plan: Fig8Plan) -> np.ndarray:
        """The root instruction's valuation table (document root first)."""
        size = self.tree.size
        root = tree_arrays(self.tree).root
        table = MCTable(self.tree, plan, None, self._setwise)
        demand, pairs, reached = self._demand(plan, table)
        instructions, domains, layouts = plan.instructions, plan.domains, plan.layouts
        tables: list[np.ndarray] = []

        def rows(position: int, wanted: np.ndarray) -> np.ndarray:
            # A table read by several instructions covers all their demands.
            found = tables[position]
            if plan.users[position] > 1:
                found = found[wanted[found[:, 0]]]
            return found

        for position, (opcode, first, second) in enumerate(instructions):
            wanted = demand[position]
            if wanted is None:
                tables.append(np.zeros((0, 1 + len(domains[position])), dtype=np.int64))
                continue
            projected = plan.projected[position]
            if opcode == SELF:
                starts = np.flatnonzero(wanted)
                tables.append((np.unique(root[starts]) if projected else starts)[:, None])
                continue
            if opcode == VAR:
                found = rows(second, wanted)
                if layouts[position] is not None:
                    found = found[:, layouts[position]]
                elif plan.projected[second]:
                    projected = False  # already projected by the tail
            elif opcode == FILTER:
                inner, tail = rows(first, wanted), rows(second, wanted)
                if not domains[first]:
                    found = tail
                elif not domains[second]:
                    found = inner
                else:
                    left, right = equijoin(inner[:, 0], tail[:, 0])
                    joined = np.concatenate([inner[left], tail[right, 1:]], axis=1)
                    found = joined[:, layouts[position]]
            elif opcode == LEAF and projected:
                # Only the reached start nodes matter, not who reached them.
                found = rows(second, reached[position])
                projected = not plan.projected[second]
            elif opcode == LEAF:
                sources, targets = pairs[position]
                if domains[second]:
                    tail = tables[second]
                    left, right = equijoin(targets, tail[:, 0])
                    found = np.concatenate([sources[left, None], tail[right, 1:]], axis=1)
                    found = _distinct(found, size)
                else:
                    started = np.zeros(size, dtype=bool)
                    started[sources] = True
                    found = np.flatnonzero(started)[:, None]
            else:  # UNION
                parts = [
                    _extend(rows(side, wanted), missing)[:, layout]
                    for side, (missing, layout) in zip((first, second), layouts[position])
                ]
                found = _distinct(np.concatenate(parts), size)
            if projected:
                # Keep only the start node's document.
                found = found.copy()
                found[:, 0] = root[found[:, 0]]
                found = _distinct(found, size)
            tables.append(found)
        return tables[plan.root]

    def _owned(
        self, plan: Fig8Plan, rows: np.ndarray, arrays
    ) -> tuple[np.ndarray, np.ndarray]:
        """The root's rows as output tuples: ``(document root, local tuple)`` columns."""
        missing, layout = plan.final
        size = self.tree.size
        rows = _expand(_extend(_distinct(rows, size), missing), arrays.end, size)
        owner = rows[:, 0]
        return owner, rows[:, 1:][:, layout] - owner[:, None]

    def _by_document(
        self, plan: Fig8Plan, rows: np.ndarray
    ) -> list[frozenset[tuple[int, ...]]]:
        """Split the root's rows (document root first) into per-document sets."""
        arrays = tree_arrays(self.tree)
        owner, local = self._owned(plan, rows, arrays)
        roots = arrays.roots
        if roots.size > 1:
            order = np.argsort(owner, kind="stable")
            owner, local = owner[order], local[order]
        local = local.tolist()
        bounds = np.append(np.searchsorted(owner, roots), len(local)).tolist()
        return [
            frozenset(map(tuple, local[low:high]))
            for low, high in zip(bounds, bounds[1:])
        ]

    def _demand(self, plan: Fig8Plan, table: MCTable) -> tuple[list, dict, dict]:
        """Top-down pass: each instruction's start nodes, and what leaves reach.

        The root is asked about every MC-true node; every other demand is a
        subset of its own MC column, so ``vals`` never visits a start node
        without valuations.  ``None`` stands for an empty demand.  A leaf
        records its pairs into the tail's column (``pairs``), or only the
        nodes it reaches when its table is projected (``reached``).
        """
        columns = table.columns
        demand: list = [None] * len(plan.instructions)
        pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        reached: dict[int, np.ndarray] = {}

        def ask(position: int, nodes: np.ndarray) -> None:
            known = demand[position]
            demand[position] = nodes if known is None else known | nodes

        ask(plan.root, columns[plan.root])
        for position in range(len(plan.instructions) - 1, -1, -1):
            wanted = demand[position]
            if wanted is None:
                continue
            if not wanted.any():
                demand[position] = None
                continue
            opcode, first, second = plan.instructions[position]
            if opcode == UNION:
                ask(first, wanted & columns[first])
                ask(second, wanted & columns[second])
            elif opcode == LEAF and plan.projected[position]:
                nodes = table.oracle.image(first, wanted) & columns[second]
                reached[position] = nodes
                ask(second, nodes)
            elif opcode == LEAF:
                sources, targets = table.oracle.edges(first, wanted, columns[second])
                pairs[position] = (sources, targets)
                nodes = np.zeros(self.tree.size, dtype=bool)
                nodes[targets] = True
                ask(second, nodes)
            elif opcode == FILTER:
                ask(first, wanted)
                ask(second, wanted)
            elif opcode == VAR:
                ask(second, wanted)
        return demand, pairs, reached


def answer_hcl(
    tree: Tree,
    formula: HclExpr,
    variables: Sequence[str],
    oracle: BinaryQueryOracle,
) -> frozenset[tuple[int, ...]]:
    """Convenience wrapper: answer one HCL⁻(L) query on ``tree``."""
    return HclAnswerer(tree, oracle).answer(formula, variables)
