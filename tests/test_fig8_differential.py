"""Set-at-a-time Fig. 8 against the per-node reference, at realistic sizes.

The answering engine (:mod:`repro.hcl.answering`) computes MC columns and
valuation tables over whole node sets; :mod:`fig8_reference` is the
node-by-node transcription of Proposition 10 and Fig. 8.  Both must return
identical answer sets on generated trees of 200–2,000 nodes, for every axis,
parameters, filters, ``except`` leaves, non-output and absent output
variables, arity 0, and each of the three oracle types.  The last tests pin
the operation counts of one answer: one MC column per sub-formula, no
per-node oracle probes, and a number of set-at-a-time steps that does not
depend on the size of the tree.
"""

from __future__ import annotations

import pytest

from fig8_reference import reference_answer
from repro.hcl.answering import HclAnswerer, plan_for
from repro.hcl.ast import HCompose, HFilter, HUnion, HVar, Leaf, compose
from repro.hcl.binding import AxisOracle, ExplicitRelationOracle, PPLbinOracle
from repro.hcl.mc import MCTable
from repro.hcl.plan import LEAF
from repro.pplbin import bitmatrix as bx
from repro.pplbin.ast import BStep, binary_except, complement_filter
from repro.trees.axes import AXES, Axis
from repro.trees.generators import random_tree
from repro.workloads.bibliography import generate_bibliography
from repro.workloads.query_gen import random_hcl_formula

ALPHABET = ("a", "b", "c", "d", "e", "f", "g", "h")

#: Random formulas whose answer exceeds this are skipped (the reference
#: enumerates valuations one frozenset at a time).  A formula is first
#: tried on a 100-node tree, where more than SCREEN_ANSWERS answers mean a
#: dense query whose answer at full size would not fit in memory.
MAX_ANSWERS = 20_000
SCREEN_ANSWERS = 400


def _tree(size: int, seed: int):
    return random_tree(size, alphabet=ALPHABET, seed=seed)


def _check(tree, formula, variables, oracle) -> frozenset:
    fast = HclAnswerer(tree, oracle).answer(formula, variables)
    assert fast == reference_answer(tree, formula, variables, oracle)
    return fast


def _step(axis: Axis, label):
    return Leaf(BStep(axis, label))


def _two_steps(leaf_a, leaf_b):
    """``a / x / [b / y]`` with ``y`` existential when not in the output."""
    return compose(leaf_a, HVar("x"), HFilter(HCompose(leaf_b, HVar("y"))))


# ------------------------------------------------------------- every axis
@pytest.mark.parametrize("size,seed", [(200, 1), (900, 2)])
def test_every_axis_matches_reference(size, seed):
    tree = _tree(size, seed)
    oracle = PPLbinOracle(tree)
    for axis in AXES:
        formula = _two_steps(_step(axis, "a"), _step(axis, "b"))
        both = _check(tree, formula, ["x", "y"], oracle)
        only_x = _check(tree, formula, ["x"], oracle)
        assert only_x == {(x,) for x, _ in both}


def test_local_axes_at_2000_nodes():
    # following/preceding at this size run in the bibliography test below:
    # the node-by-node reference needs seconds per query for them.
    tree = _tree(2000, 3)
    oracle = PPLbinOracle(tree)
    for axis in AXES:
        if axis not in (Axis.FOLLOWING, Axis.PRECEDING):
            _check(tree, _two_steps(_step(axis, "a"), _step(axis, "b")), ["x", "y"], oracle)


def test_preceding_and_following_on_a_bibliography():
    tree = generate_bibliography(250, authors_per_book=2, seed=4)
    assert 1000 <= tree.size <= 2000
    oracle = PPLbinOracle(tree)
    for axis in (Axis.PRECEDING, Axis.FOLLOWING):
        formula = compose(
            _step(Axis.DESCENDANT, "title"), HVar("z"), _step(axis, "price"), HVar("p")
        )
        answers = _check(tree, formula, ["z", "p"], oracle)
        assert len(answers) > 1000


# ------------------------------------------- parameters, filters, except
def test_union_left_of_composition_uses_a_parameter():
    tree = _tree(200, 5)
    oracle = PPLbinOracle(tree)
    left = HUnion(HCompose(_step(Axis.CHILD, "a"), HVar("x")), _step(Axis.DESCENDANT, "b"))
    formula = HCompose(left, HCompose(_step(Axis.CHILD, "c"), HVar("y")))
    for variables in (["x", "y"], ["y", "x"], ["y"], [], ["x", "y", "w"], ["x", "y", "x"]):
        _check(tree, formula, variables, oracle)


def test_except_leaves_and_negated_filters():
    tree = _tree(600, 6)
    oracle = PPLbinOracle(tree)
    not_a_child = Leaf(binary_except(BStep(Axis.CHILD), BStep(Axis.CHILD, "a")))
    without_b = Leaf(complement_filter(BStep(Axis.CHILD, "b")))
    formula = compose(
        _step(Axis.DESCENDANT, "c"),
        HVar("x"),
        HFilter(HCompose(not_a_child, HVar("y"))),
        without_b,
    )
    _check(tree, formula, ["x", "y"], oracle)
    _check(tree, formula, ["y"], oracle)
    _check(tree, formula, [], oracle)


@pytest.mark.parametrize("size,seed", [(200, 11), (500, 12), (1200, 13), (2000, 14)])
def test_random_formulas_match_reference(size, seed):
    tree = _tree(size, seed)
    small = _tree(100, seed)
    screen = HclAnswerer(small, PPLbinOracle(small))
    oracle = PPLbinOracle(tree)
    answerer = HclAnswerer(tree, oracle)
    checked = 0
    for index in range(12):
        formula, variables = random_hcl_formula(
            5, num_variables=index % 4, alphabet=("a", "b", "c"), seed=seed * 100 + index
        )
        if size > 1000 and any(leaf.query.uses_complement() for leaf in formula.leaves()):
            continue  # the reference probes dense complement rows node by node
        outputs = [variables, variables[1:], []]
        if size <= 200:
            outputs.append(variables + ["absent"])
        for output in outputs:
            if len(screen.answer(formula, output)) > SCREEN_ANSWERS:
                continue
            if len(answerer.answer(formula, output)) > MAX_ANSWERS:
                continue
            _check(tree, formula, output, oracle)
            checked += 1
    assert checked >= 12


# ------------------------------------------------------- three oracles
def test_axis_oracle_matches_reference():
    tree = _tree(250, 7)
    oracle = AxisOracle(tree)
    for axis in AXES:
        formula = _two_steps(Leaf((axis, "a")), Leaf((axis, "b")))
        _check(tree, formula, ["x", "y"], oracle)
    tail = HCompose(Leaf((Axis.CHILD, "c")), HVar("y"))
    params = HCompose(HUnion(HVar("x"), Leaf(Axis.PARENT)), tail)
    _check(tree, params, ["x", "y"], oracle)


def test_explicit_relation_oracle_matches_reference():
    tree = _tree(300, 8)
    pplbin = PPLbinOracle(tree)
    names = {
        "down-a": BStep(Axis.DESCENDANT, "a"),
        "next-b": BStep(Axis.NEXT_SIBLING, "b"),
        "not-child-a": binary_except(BStep(Axis.CHILD), BStep(Axis.CHILD, "a")),
    }
    oracle = ExplicitRelationOracle({name: pplbin.pairs(expr) for name, expr in names.items()})
    formula = compose(
        Leaf("down-a"),
        HVar("x"),
        HFilter(HCompose(Leaf("next-b"), HVar("y"))),
        HUnion(Leaf("not-child-a"), HVar("z")),
    )
    for variables in (["x", "y", "z"], ["z"], ["x"], []):
        _check(tree, formula, variables, oracle)


# ------------------------------------------------------ operation counts
PAIR = compose(
    _step(Axis.DESCENDANT, "book"),
    HFilter(HCompose(_step(Axis.CHILD, "author"), HVar("y"))),
    HFilter(HCompose(_step(Axis.CHILD, "title"), HVar("z"))),
    HFilter(HUnion(_step(Axis.CHILD, "author"), _step(Axis.CHILD, "zzz"))),
)


def _counted_answer(tree, monkeypatch):
    """Answer PAIR on ``tree``; return (answers, preimage calls, counters, table)."""
    calls = {"preimage": 0}
    tables: list[MCTable] = []
    original_preimage = PPLbinOracle.preimage
    original_init = MCTable.__init__

    def preimage(self, query, targets):
        calls["preimage"] += 1
        return original_preimage(self, query, targets)

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tables.append(self)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("Fig. 8 probed the oracle one node at a time")

    monkeypatch.setattr(PPLbinOracle, "preimage", preimage)
    monkeypatch.setattr(MCTable, "__init__", init)
    monkeypatch.setattr(PPLbinOracle, "successors", forbidden)
    monkeypatch.setattr(PPLbinOracle, "has_successor", forbidden)
    before = bx.counters()
    answers = HclAnswerer(tree, PPLbinOracle(tree)).answer(PAIR, ["y", "z"])
    after = bx.counters()
    delta = {key: after[key] - before[key] for key in after}
    assert len(tables) == 1
    return answers, calls["preimage"], delta, tables[0]


def test_one_mc_column_per_subformula_and_no_row_probes(monkeypatch):
    tree = generate_bibliography(40, authors_per_book=2, seed=9)
    answers, preimages, delta, table = _counted_answer(tree, monkeypatch)
    assert answers
    plan = plan_for(PAIR, ["y", "z"])
    leaves = sum(1 for opcode, _, _ in plan.instructions if opcode == LEAF)
    assert len(table.columns) == table.table_size() == len(plan.instructions)
    assert table.entries_computed() == len(plan.instructions) * tree.size
    assert preimages == leaves  # one pre-image per leaf column, none per node
    assert delta["full_compose"] == delta["row_union"] == delta["relations_built"] == 0


def test_set_steps_do_not_grow_with_the_tree(monkeypatch):
    small = generate_bibliography(30, authors_per_book=2, seed=10)
    large = generate_bibliography(300, authors_per_book=2, seed=10)
    _, small_preimages, small_delta, _ = _counted_answer(small, monkeypatch)
    _, large_preimages, large_delta, _ = _counted_answer(large, monkeypatch)
    assert small_preimages == large_preimages
    assert small_delta["set_steps"] == large_delta["set_steps"] > 0


def test_plan_is_compiled_once_per_formula():
    first = plan_for(PAIR, ["y", "z"])
    assert plan_for(PAIR, ["y", "z"]) is first
    assert plan_for(PAIR, ["z"]) is not first


def test_equal_subformulas_share_one_instruction():
    author = HFilter(_step(Axis.CHILD, "author"))
    plan = plan_for(compose(_step(Axis.DESCENDANT, "book"), author, author, HVar("x")), ["x"])
    leaves = [query for opcode, query, _ in plan.instructions if opcode == LEAF]
    assert leaves.count(BStep(Axis.CHILD, "author")) == 1
