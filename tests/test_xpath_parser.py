"""Tests for the Core XPath 2.0 parser and AST (repro.xpath.parser / ast)."""

import pytest

from repro.errors import ParseError
from repro.trees.axes import Axis
from repro.xpath.ast import (
    CONTEXT,
    AndTest,
    CompTest,
    ContextItem,
    Filter,
    ForLoop,
    NotTest,
    OrTest,
    PathCompose,
    PathExcept,
    PathIntersect,
    PathTest,
    PathUnion,
    Step,
    VarRef,
    nodes_expression,
    root_anchor,
    steps,
    union_all,
)
from repro.fo.parser import parse_fo
from repro.pplbin.parser import parse_pplbin
from repro.xpath.parser import parse_path, parse_test


def test_parse_simple_step():
    assert parse_path("child::book") == Step(Axis.CHILD, "book")
    assert parse_path("descendant::*") == Step(Axis.DESCENDANT, None)


def test_parse_axis_spellings():
    assert parse_path("following_sibling::a") == Step(Axis.FOLLOWING_SIBLING, "a")
    assert parse_path("following-sibling::a") == Step(Axis.FOLLOWING_SIBLING, "a")


def test_parse_context_and_variable():
    assert parse_path(".") == ContextItem()
    assert parse_path("$x") == VarRef("x")


def test_parse_composition_left_associative():
    parsed = parse_path("child::a/child::b/child::c")
    assert parsed == PathCompose(
        PathCompose(Step(Axis.CHILD, "a"), Step(Axis.CHILD, "b")), Step(Axis.CHILD, "c")
    )


def test_parse_union_precedence_below_slash():
    parsed = parse_path("child::a/child::b union child::c")
    assert isinstance(parsed, PathUnion)
    assert isinstance(parsed.left, PathCompose)


def test_parse_intersect_and_except():
    parsed = parse_path("child::a intersect child::b")
    assert parsed == PathIntersect(Step(Axis.CHILD, "a"), Step(Axis.CHILD, "b"))
    parsed = parse_path("child::a except child::b except child::c")
    assert parsed == PathExcept(
        PathExcept(Step(Axis.CHILD, "a"), Step(Axis.CHILD, "b")), Step(Axis.CHILD, "c")
    )


def test_intersect_binds_tighter_than_union():
    parsed = parse_path("child::a union child::b intersect child::c")
    assert isinstance(parsed, PathUnion)
    assert isinstance(parsed.right, PathIntersect)


def test_parse_filter_with_comparison():
    parsed = parse_path("child::author[. is $y]")
    assert parsed == Filter(Step(Axis.CHILD, "author"), CompTest(CONTEXT, "y"))


def test_parse_nested_filters_and_and():
    parsed = parse_path(
        "descendant::book[child::author[. is $y] and child::title[. is $z]]"
    )
    assert isinstance(parsed, Filter)
    assert isinstance(parsed.test, AndTest)
    assert parsed.free_variables == frozenset({"y", "z"})


def test_parse_for_loop():
    parsed = parse_path("for $x in child::a return $x/child::b")
    assert isinstance(parsed, ForLoop)
    assert parsed.variable == "x"
    assert parsed.free_variables == frozenset()


def test_for_loop_free_variables_exclude_bound():
    parsed = parse_path("for $x in child::a return $x/.[. is $y]")
    assert parsed.free_variables == frozenset({"y"})


def test_parse_not_both_spellings():
    assert parse_test("not child::a") == NotTest(PathTest(Step(Axis.CHILD, "a")))
    assert parse_test("not(child::a)") == NotTest(PathTest(Step(Axis.CHILD, "a")))


def test_parse_test_or_and_precedence():
    parsed = parse_test("child::a or child::b and child::c")
    assert isinstance(parsed, OrTest)
    assert isinstance(parsed.right, AndTest)


def test_parse_parenthesised_test():
    parsed = parse_test("(child::a or child::b) and child::c")
    assert isinstance(parsed, AndTest)
    assert isinstance(parsed.left, OrTest)


def test_parse_comparison_variants():
    assert parse_test(". is .") == CompTest(CONTEXT, CONTEXT)
    assert parse_test("$x is $y") == CompTest("x", "y")
    assert parse_test("$x is .") == CompTest("x", CONTEXT)


def test_parse_parenthesised_path_continues_with_slash():
    parsed = parse_path("(child::a union child::b)/child::c")
    assert isinstance(parsed, PathCompose)
    assert isinstance(parsed.left, PathUnion)


def test_parse_requires_explicit_axes():
    with pytest.raises(ParseError):
        parse_path("book/title")  # abbreviated syntax is not Core XPath


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as excinfo:
        parse_path("child::a union")
    assert excinfo.value.position is not None


#: ``(parser, text, message, position)`` for malformed inputs: stray
#: characters, unbalanced brackets, trailing tokens, ``$`` without a name,
#: keywords where a step belongs, empty input, and a parenthesised test atom
#: that fails as a path and then as a test.  The Core XPath, PPLbin and FO
#: parsers share one tokenizer, so all three appear.
PARSE_ERRORS = [
    (parse_path, 'descendant::a % child::b', "unexpected character '%' (at position 14)", 14),
    (parse_path, 'descendant::a[child::b', "expected 'rbracket' but reached end of input (at position 22)", 22),
    (parse_path, '(descendant::a', "expected 'rparen' but reached end of input (at position 14)", 14),
    (parse_path, 'descendant::a)', "unexpected trailing input ')' (at position 13)", 13),
    (parse_path, 'descendant::a child::b', "unexpected trailing input 'child' (at position 14)", 14),
    (parse_path, 'descendant::a[. is $]', "unexpected character '$' (at position 19)", 19),
    (parse_path, 'union::a', "unexpected token 'union' in path expression (at position 0)", 0),
    (parse_path, '', 'expected a path expression (at position 0)', 0),
    (parse_path, '   ', 'expected a path expression (at position 3)', 3),
    (parse_path, 'descendant::a[]', "unexpected token ']' in path expression (at position 14)", 14),
    (parse_path, 'descendant', "expected '::' after axis name 'descendant' (Core XPath requires explicit axes) (at position 0)", 0),
    (parse_path, 'foo::a', "unknown axis 'foo' (at position 0)", 0),
    (parse_path, 'descendant::a[not(child::b]', "expected 'rparen' but found ']' (at position 26)", 26),
    (parse_path, 'for x in descendant::a return .', "expected 'variable' but found 'x' (at position 4)", 4),
    (parse_path, 'for $x descendant::a return .', "expected 'in' but found 'descendant' (at position 7)", 7),
    (parse_path, 'descendant::a/', 'expected a path expression (at position 14)', 14),
    (parse_path, 'descendant::a[child::b and]', "unexpected token ']' in path expression (at position 26)", 26),
    (parse_path, 'descendant::and', "expected 'name' but found 'and' (at position 12)", 12),
    (parse_path, 'descendant::a[(child::b)/]', "expected 'rbracket' but found '/' (at position 24)", 24),
    (parse_path, 'descendant::a[(child::b or child::c]', "expected 'rparen' but found ']' (at position 35)", 35),
    (parse_path, 'descendant::a[. is]', "expected '.' or a variable, found ']' (at position 18)", 18),
    (parse_path, 'descendant::a[not]', "unexpected token ']' in path expression (at position 17)", 17),
    (parse_test, 'child::a and', 'expected a path expression (at position 12)', 12),
    (parse_test, '. is . is .', "unexpected trailing input 'is' (at position 7)", 7),
    (parse_pplbin, 'child::a % self', "unexpected character '%' (at position 9)", 9),
    (parse_pplbin, 'except', 'expected a PPLbin expression (at position 6)', 6),
    (parse_pplbin, 'child::a[self', "expected 'rbracket' but reached end of input (at position 13)", 13),
    (parse_pplbin, 'self::', "expected 'name' but reached end of input (at position 6)", 6),
    (parse_pplbin, 'child', "expected '::' after axis name 'child' (at position 0)", 0),
    (parse_pplbin, '(child::a union', 'expected a PPLbin expression (at position 15)', 15),
    (parse_fo, 'exists . x', "expected 'name' but found '.' (at position 7)", 7),
    (parse_fo, 'lab[a](x', "expected 'rparen' but reached end of input (at position 8)", 8),
    (parse_fo, 'x = ', "expected 'name' but reached end of input (at position 4)", 4),
    (parse_fo, 'ch(x y)', "expected 'comma' but found 'y' (at position 5)", 5),
    (parse_fo, 'x % y', "unexpected character '%' (at position 2)", 2),
    (parse_fo, '', 'expected an atom (at position 0)', 0),
    (parse_fo, 'ch(x,y) z', "unexpected trailing input 'z' (at position 8)", 8),
]


@pytest.mark.parametrize(("parser", "text", "message", "position"), PARSE_ERRORS)
def test_parse_error_message_and_position(parser, text, message, position):
    with pytest.raises(ParseError) as excinfo:
        parser(text)
    assert str(excinfo.value) == message
    assert excinfo.value.position == position


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_path("child::a )")


def test_parse_rejects_unknown_axis():
    with pytest.raises(ParseError):
        parse_path("sideways::a")


def test_unparse_roundtrip():
    expressions = [
        "descendant::book[child::author[. is $y] and child::title[. is $z]]",
        "(child::a union child::b)/child::c",
        "child::a intersect (child::b except child::c)",
        "for $x in descendant::* return .[. is $x]",
        ".[not(parent::*)]/descendant::a",
        "self::a/following-sibling::b[. is $w or child::c]",
    ]
    for text in expressions:
        parsed = parse_path(text)
        assert parse_path(parsed.unparse()) == parsed


def test_size_counts_ast_nodes():
    parsed = parse_path("child::a/child::b")
    assert parsed.size == 3
    assert parse_path("$x").size == 1


def test_builders():
    composed = steps(Step(Axis.CHILD, "a"), Step(Axis.CHILD, "b"))
    assert composed == parse_path("child::a/child::b")
    unioned = union_all(Step(Axis.CHILD, "a"), Step(Axis.CHILD, "b"))
    assert unioned == parse_path("child::a union child::b")
    assert nodes_expression().free_variables == frozenset()
    assert root_anchor("x").free_variables == frozenset({"x"})
    with pytest.raises(ValueError):
        steps()


def test_walk_visits_all_subexpressions():
    parsed = parse_path("child::a[child::b]/child::c")
    kinds = {type(sub).__name__ for sub in parsed.walk()}
    assert {"PathCompose", "Filter", "Step", "PathTest"} <= kinds
