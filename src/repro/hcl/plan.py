"""Fig. 8 plans: a sharing formula flattened into a DAG of instructions.

The MC table (Proposition 10) and the ``vals`` procedure (Fig. 8) both walk
the sub-formulas of ``D`` and the equations of ``Δ``.  :func:`compile_plan`
does that walk once per query rather than once per document: it numbers the
sub-formulas children-first, follows parameters to their equations, merges
structurally equal sub-formulas (hash-consing, so a repeated filter such as
``[child::author]`` gets one MC column), and records for every instruction
its static valuation domain ``Var(D0) ∩ output`` plus the column layouts the
valuation tables need.  The result is a flat tuple of plain tuples, so a
plan pickles as cheaply as the query it came from.

Instructions are ``(opcode, a, b)``:

* ``(SELF, None, None)`` — ``self``;
* ``(UNION, left, right)`` — ``D ∪ D'``;
* ``(LEAF, query, tail)`` — ``b/D`` for a binary query ``b``;
* ``(VAR, name, tail)`` — ``x/D``;
* ``(FILTER, inner, tail)`` — ``[D']/D``.

``left``/``right``/``tail``/``inner`` are indices of earlier instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import EvaluationError
from repro.hcl.sharing import (
    EquationSystem,
    HeadFilter,
    HeadLeaf,
    HeadVar,
    SharedCompose,
    SharedExpr,
    SharedParam,
    SharedSelf,
    SharedUnion,
)

SELF, UNION, LEAF, VAR, FILTER = range(5)


@dataclass(frozen=True)
class Fig8Plan:
    """A compiled Fig. 8 query: instructions plus per-output column layouts.

    Attributes
    ----------
    instructions:
        The DAG, children before parents.
    root:
        Index of the instruction for ``D`` itself.
    domains:
        Per instruction, the sorted variables of ``Var(D0) ∩ output``: the
        columns (after the start node) of its valuation table.
    users:
        Per instruction, how many instructions read it.  A table read by
        more than one instruction covers the union of their demands, so
        each reader keeps only its own start nodes.
    projected:
        Per instruction, True when no reader needs to know which start node
        a valuation belongs to: the root (whose start column is projected
        away), and the only child of a projected union, leaf or
        non-output variable.  A projected table keeps start 0 in every row,
        so valuations reached from many start nodes are stored once.
    layouts:
        Per instruction, the column selection that puts a joined or
        extended table into ``domains`` order (``None`` when the table
        passes through unchanged).  For a union it is one
        ``(missing_count, columns)`` pair per side.
    final:
        ``(missing_count, columns)`` turning the root's valuations into
        output tuples.
    """

    instructions: tuple[tuple, ...]
    root: int
    domains: tuple[tuple[str, ...], ...]
    users: tuple[int, ...]
    projected: tuple[bool, ...]
    layouts: tuple
    final: tuple[int, tuple[int, ...]]


def flatten(
    formula: SharedExpr, system: EquationSystem
) -> tuple[list[tuple], dict[int, int]]:
    """Number the sub-formulas of ``(D, Δ)`` children-first.

    Returns the instruction list and the map from ``id(sub-formula)`` to its
    instruction (a parameter maps to its equation's instruction).  Equal
    instructions are stored once; a leaf's binary query hashes once (see
    :class:`repro.pplbin.ast.BinExpr`), so interning it costs one lookup.
    The walk is iterative, so deep formulas do not hit the recursion limit.

    Raises
    ------
    EvaluationError
        If ``Δ`` is cyclic (the :class:`EquationSystem` construction rules
        this out; a hand-built system might not).
    """
    instructions: list[tuple] = []
    interned: dict[tuple, int] = {}
    index: dict[int, int] = {}
    resolving: set[str] = set()
    stack: list[SharedExpr] = [formula]
    push, pop, numbered = stack.append, stack.pop, index.get
    while stack:
        # The top is numbered once its children are; until then it stays
        # and its first unnumbered child goes on top of it.
        expr = stack[-1]
        kind = type(expr)
        if kind is SharedCompose:
            head = expr.head
            head_kind = type(head)
            if head_kind is HeadFilter:
                inner = numbered(id(head.inner))
                if inner is None:
                    push(head.inner)
                    continue
            tail = numbered(id(expr.tail))
            if tail is None:
                push(expr.tail)
                continue
            if head_kind is HeadLeaf:
                instruction: tuple = (LEAF, head.query, tail)
            elif head_kind is HeadVar:
                instruction = (VAR, head.name, tail)
            elif head_kind is HeadFilter:
                instruction = (FILTER, inner, tail)
            else:
                raise EvaluationError(f"unknown head expression {head!r}")
        elif kind is SharedUnion:
            left = numbered(id(expr.left))
            if left is None:
                push(expr.left)
                continue
            right = numbered(id(expr.right))
            if right is None:
                push(expr.right)
                continue
            instruction = (UNION, left, right)
        elif kind is SharedParam:
            equation = system.resolve(expr)
            position = numbered(id(equation))
            if position is None:
                if expr.name in resolving:
                    raise EvaluationError("cyclic equation system")
                resolving.add(expr.name)
                push(equation)
                continue
            resolving.discard(expr.name)
            index[id(expr)] = position
            pop()
            continue
        elif kind is SharedSelf:
            instruction = _SELF
        else:
            raise EvaluationError(f"unknown sharing formula {expr!r}")
        pop()
        position = interned.setdefault(instruction, len(instructions))
        if position == len(instructions):
            instructions.append(instruction)
        index[id(expr)] = position
    return instructions, index


_SELF = (SELF, None, None)


def compile_plan(
    formula: SharedExpr,
    system: EquationSystem,
    output: Sequence[str] = (),
    index: Optional[dict[int, int]] = None,
) -> Fig8Plan:
    """Compile ``(D, Δ)`` for the output variables ``output``.

    ``index``, when given, receives the ``id(sub-formula) -> instruction``
    map of :func:`flatten` (the MC table uses it to answer per-formula
    lookups).
    """
    instructions, positions = flatten(formula, system)
    if index is not None:
        index.update(positions)
    wanted = frozenset(output)
    # One pass, children first: each instruction's domain and readers, and
    # its layout.  A layout lists, for column 0 (the start node) and each
    # name of the domain, its column in the table built so far, whose
    # column 0 is the start node (``None`` stands for it below).
    users = [0] * len(instructions)
    domains: list[tuple[str, ...]] = []
    layouts: list = []
    for opcode, first, second in instructions:
        if opcode == SELF:
            domains.append(())
            layouts.append(None)
            continue
        users[second] += 1
        tail = domains[second]
        if opcode == LEAF or (opcode == VAR and first not in wanted):
            domains.append(tail)
            layouts.append(None)
        elif opcode == VAR:
            domain = tail if first in tail else tuple(sorted((first, *tail)))
            domains.append(domain)
            # The variable's column is a copy of the start column.
            layouts.append((0, *map((first, *tail).index, domain)))
        else:
            users[first] += 1
            other = domains[first]
            domain = tuple(sorted({*other, *tail})) if other and tail else other or tail
            domains.append(domain)
            if opcode == FILTER:
                layouts.append((0, *map((None, *other, *tail).index, domain)))
                continue
            sides = []
            for side in (other, tail):
                missing = [name for name in domain if name not in side]
                columns = (None, *side, *missing)
                sides.append((len(missing), (0, *map(columns.index, domain))))
            layouts.append(tuple(sides))
    root = positions[id(formula)]
    projected = [False] * len(instructions)
    projected[root] = True
    for position in range(len(instructions) - 1, -1, -1):
        opcode, first, second = instructions[position]
        if not projected[position] or opcode == SELF or opcode == FILTER:
            continue
        if opcode == VAR and first in wanted:
            continue  # the variable's value is the start node
        if opcode == UNION:
            projected[first] = users[first] == 1
        projected[second] = users[second] == 1
    missing = [name for name in sorted(set(output)) if name not in domains[root]]
    columns = list(domains[root]) + missing
    final = (len(missing), tuple(columns.index(name) for name in output))
    return Fig8Plan(
        instructions=tuple(instructions),
        root=root,
        domains=tuple(domains),
        users=tuple(users),
        projected=tuple(projected),
        layouts=tuple(layouts),
        final=final,
    )
