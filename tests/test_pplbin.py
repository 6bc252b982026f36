"""Tests for PPLbin: parser, matrix algebra, Theorem 2 evaluator, translations."""

import numpy as np
import pytest

from repro.errors import EvaluationError, ParseError, TranslationError
from repro.trees.axes import Axis
from repro.trees.generators import random_tree
from repro.pplbin.ast import (
    BCompose,
    BExcept,
    BFilter,
    BStep,
    SelfStep,
    binary_compose,
    binary_except,
    binary_intersect,
    binary_union,
    complement_filter,
    nodes_query,
)
from repro.pplbin.corexpath1 import (
    axis_successor_set,
    binary_answer,
    monadic_answer,
    satisfying_nodes,
    successor_set,
)
from repro.hcl.binding import PPLbinOracle
from repro.pplbin.evaluator import evaluate_matrix, evaluate_pairs
from repro.pplbin.parser import parse_pplbin
from repro.pplbin.translate import ROOT, from_core_xpath, to_core_xpath
from repro.xpath.parser import parse_path
from repro.xpath.semantics import evaluate_path

import matmul_baselines as bm  # benchmarks/, put on the path by conftest.py


# -------------------------------------------------------------------- parser
def test_parse_step_and_compose():
    assert parse_pplbin("child::a/descendant::b") == BCompose(
        BStep(Axis.CHILD, "a"), BStep(Axis.DESCENDANT, "b")
    )


def test_parse_self_forms():
    assert parse_pplbin("self") == SelfStep()
    assert parse_pplbin(".") == SelfStep()
    assert parse_pplbin("self::a") == BStep(Axis.SELF, "a")


def test_parse_unary_except_and_filter():
    assert parse_pplbin("except child::a") == BExcept(BStep(Axis.CHILD, "a"))
    assert parse_pplbin("[child::a]") == BFilter(BStep(Axis.CHILD, "a"))


def test_parse_binary_sugar_expands():
    intersect = parse_pplbin("child::a intersect child::b")
    assert intersect == binary_intersect(BStep(Axis.CHILD, "a"), BStep(Axis.CHILD, "b"))
    difference = parse_pplbin("child::a except child::b")
    assert difference == binary_except(BStep(Axis.CHILD, "a"), BStep(Axis.CHILD, "b"))


def test_parse_postfix_filter_is_composition():
    parsed = parse_pplbin("child::a[child::b]")
    assert parsed == BCompose(BStep(Axis.CHILD, "a"), BFilter(BStep(Axis.CHILD, "b")))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_pplbin("child::")
    with pytest.raises(ParseError):
        parse_pplbin("child::a extra::b junk]")


def test_unparse_roundtrip():
    for text in [
        "child::a/descendant::*",
        "except (child::a union [parent::b])",
        "(ancestor::* union self)/(descendant::* union self)",
        "self::a[following-sibling::b]",
    ]:
        parsed = parse_pplbin(text)
        assert parse_pplbin(parsed.unparse()) == parsed


def test_builders_and_size():
    expr = binary_compose(BStep(Axis.CHILD, None), SelfStep(), BStep(Axis.PARENT, None))
    assert expr.size == 5
    assert binary_union(SelfStep()).size == 1
    assert nodes_query().uses_complement() is False
    assert BExcept(SelfStep()).uses_complement()
    with pytest.raises(ValueError):
        binary_compose()


# ------------------------------------------------------------- matrix algebra
def test_bool_matmul_implementations_agree():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.random((7, 7)) < 0.3
        b = rng.random((7, 7)) < 0.3
        expected = bm.bool_matmul(a, b)
        assert np.array_equal(expected, bm.bool_matmul_python(a, b))
        assert np.array_equal(expected, bm.bool_matmul_sparse(a, b))


def test_matrix_helpers():
    identity = bm.identity_matrix(3)
    assert bm.pairs_from_matrix(identity) == frozenset({(0, 0), (1, 1), (2, 2)})
    assert bm.bool_complement(bm.empty_matrix(2)).all()
    assert not bm.bool_difference(bm.full_matrix(2), bm.full_matrix(2)).any()
    filtered = bm.filter_diagonal(bm.matrix_from_pairs(3, [(0, 2), (2, 1)]))
    assert bm.pairs_from_matrix(filtered) == frozenset({(0, 0), (2, 2)})
    rebuilt = bm.matrix_from_pairs(3, [(1, 2)])
    assert rebuilt[1, 2] and rebuilt.sum() == 1


# ------------------------------------------------- Theorem 2 matrix evaluator
def _reference_pairs(tree, expression):
    """Oracle: embed into Core XPath 2.0 and use the Fig. 2 semantics."""
    return evaluate_path(tree, to_core_xpath(expression))


@pytest.mark.parametrize(
    "text",
    [
        "child::b",
        "descendant::*",
        "child::c/child::d",
        "child::b union child::c",
        "except child::b",
        "[child::d]",
        "descendant::*[child::d]",
        "child::* except child::b",
        "child::* intersect descendant::b",
        "(ancestor::* union self)/(descendant::* union self)",
        "except (descendant::b/parent::c)",
        "[except child::*]",
    ],
)
def test_matrix_evaluator_matches_semantics(tiny_tree, text):
    expression = parse_pplbin(text)
    assert evaluate_pairs(tiny_tree, expression) == _reference_pairs(tiny_tree, expression)


def test_matrix_evaluator_on_larger_random_tree():
    tree = random_tree(30, seed=13)
    for text in ["descendant::a[child::b]", "except (child::a union parent::b)"]:
        expression = parse_pplbin(text)
        assert evaluate_pairs(tree, expression) == _reference_pairs(tree, expression)


def test_matrix_evaluator_caches_per_tree(tiny_tree):
    expression = parse_pplbin("descendant::*[child::d]")
    first = evaluate_matrix(tiny_tree, expression)
    second = evaluate_matrix(tiny_tree, expression)
    assert first is second


def test_evaluator_facade(tiny_tree):
    oracle = PPLbinOracle(tiny_tree)
    assert oracle.successors("child::*", 2) == [3, 4]
    assert oracle.has_successor("child::*", 2)
    assert not oracle.has_successor("child::*", 1)
    assert oracle.relation("descendant::d").any()
    assert not oracle.relation("child::zz-absent").any()
    assert oracle.pairs("child::d") == frozenset({(2, 3)})


def test_nodes_query_is_universal(tiny_tree):
    matrix = evaluate_matrix(tiny_tree, nodes_query())
    assert matrix.all()


def test_root_query_selects_root(tiny_tree):
    assert evaluate_pairs(tiny_tree, ROOT) == frozenset({(0, 0)})


def test_complement_filter_is_correct_negation(tiny_tree):
    # complement_filter(P) must hold exactly at nodes with NO P-successor,
    # unlike the literal Fig. 4 reading [except P] which holds at nodes with
    # SOME non-successor (here: every node, since the tree has > 1 node).
    probe = BStep(Axis.CHILD, None)
    correct = evaluate_pairs(tiny_tree, complement_filter(probe))
    assert correct == frozenset({(1, 1), (3, 3), (4, 4)})
    literal_fig4 = evaluate_pairs(tiny_tree, BFilter(BExcept(probe)))
    assert literal_fig4 == frozenset((u, u) for u in tiny_tree.nodes())
    assert correct != literal_fig4


# ------------------------------------------------------- Fig. 4 translation
@pytest.mark.parametrize(
    "text",
    [
        ".",
        "child::a",
        "child::c/child::d",
        "child::a union descendant::b",
        "child::* intersect descendant::b",
        "descendant::* except child::*",
        "descendant::*[child::d]",
        "descendant::*[not child::*]",
        "descendant::*[child::d and parent::a]",
        "descendant::*[child::d or self::b]",
        "descendant::*[not (child::d or self::b)]",
        "descendant::*[not not child::d]",
        "descendant::*[. is .]",
        ".[not(. is .)]",
    ],
)
def test_fig4_translation_preserves_semantics(tiny_tree, text):
    core = parse_path(text)
    translated = from_core_xpath(core)
    assert evaluate_pairs(tiny_tree, translated) == evaluate_path(tiny_tree, core)


def test_fig4_rejects_variables_and_for_loops():
    with pytest.raises(TranslationError):
        from_core_xpath(parse_path("$x/child::a"))
    with pytest.raises(TranslationError):
        from_core_xpath(parse_path("for $x in child::a return ."))
    with pytest.raises(TranslationError):
        from_core_xpath(parse_path("child::a[. is $y]"))


def test_to_core_xpath_embedding_is_variable_free(tiny_tree):
    expression = parse_pplbin("except (child::a[descendant::b])")
    embedded = to_core_xpath(expression)
    assert embedded.free_variables == frozenset()


# ----------------------------------------------- Core XPath 1.0 set evaluator
def test_axis_successor_sets_match_matrices(tiny_tree):
    from repro.trees.axes import axis_matrix

    for axis in (
        Axis.CHILD,
        Axis.PARENT,
        Axis.DESCENDANT,
        Axis.ANCESTOR,
        Axis.DESCENDANT_OR_SELF,
        Axis.ANCESTOR_OR_SELF,
        Axis.FOLLOWING_SIBLING,
        Axis.PRECEDING_SIBLING,
        Axis.FOLLOWING,
        Axis.PRECEDING,
        Axis.SELF,
    ):
        matrix = axis_matrix(tiny_tree, axis)
        for start in tiny_tree.nodes():
            expected = frozenset(np.flatnonzero(matrix[start]).tolist())
            assert axis_successor_set(tiny_tree, axis, [start]) == expected


def test_successor_set_matches_matrix_evaluator(tiny_tree):
    for text in [
        "child::b",
        "descendant::*[child::d]",
        "child::c/child::*",
        "child::b union descendant::d",
    ]:
        expression = parse_pplbin(text)
        matrix = evaluate_matrix(tiny_tree, expression)
        for start in tiny_tree.nodes():
            expected = frozenset(np.flatnonzero(matrix[start]).tolist())
            assert successor_set(tiny_tree, expression, [start]) == expected


def test_satisfying_nodes_matches_filter(tiny_tree):
    expression = parse_pplbin("child::d")
    expected = frozenset(
        node for node in tiny_tree.nodes()
        if evaluate_matrix(tiny_tree, expression)[node].any()
    )
    assert satisfying_nodes(tiny_tree, expression) == expected


def test_set_evaluator_rejects_complement(tiny_tree):
    with pytest.raises(EvaluationError):
        successor_set(tiny_tree, "except child::a", [0])


def test_monadic_and_binary_answers(tiny_tree):
    assert monadic_answer(tiny_tree, "child::*/child::*") == frozenset({3, 4})
    assert binary_answer(tiny_tree, "child::b") == evaluate_pairs(tiny_tree, "child::b")
