"""Tests for Definition 1 (PPL membership), the Fig. 7 translation and the engine."""

import pytest

from repro.errors import ParseError, RestrictionViolation, TranslationError
from repro.trees.generators import random_tree
from repro.api import Document, Query, answer, compile_query
from repro.core.ppl import PPL_CONDITIONS, check_ppl, is_ppl, ppl_violations
from repro.core.translate import hcl_to_ppl, ppl_to_hcl
from repro.hcl.ast import HVar, Leaf
from repro.hcl.answering import answer_hcl
from repro.hcl.binding import PPLbinOracle
from repro.xpath.naive import NaiveEngine, naive_answer
from repro.xpath.parser import parse_path


# --------------------------------------------------------- Definition 1 check
def test_paper_example_is_ppl():
    assert is_ppl(
        "descendant::book[child::author[. is $y] and child::title[. is $z]]"
    )


@pytest.mark.parametrize(
    "text,condition",
    [
        ("for $x in child::a return .", "N(for)"),
        ("$x intersect child::a", "NV(intersect)"),
        ("child::a intersect $x", "NV(intersect)"),
        ("$x except child::a", "NV(except)"),
        ("child::a except child::b[. is $x]", "NV(except)"),
        (".[not(child::a[. is $x])]", "NV(not)"),
        (".[. is $x]/.[. is $x]", "NVS(/)"),
        ("child::a[. is $x][descendant::*[. is $x]]", "NVS([])"),
        (".[child::a[. is $x] and child::b[. is $x]]", "NVS(and)"),
    ],
)
def test_each_condition_is_detected(text, condition):
    violations = ppl_violations(text)
    assert condition in {violation.condition for violation in violations}
    assert not is_ppl(text)
    with pytest.raises(RestrictionViolation):
        check_ppl(text)


def test_conditions_tuple_lists_all_seven():
    assert len(PPL_CONDITIONS) == 7


def test_sharing_in_unions_is_allowed():
    assert is_ppl(".[. is $x] union child::a[. is $x]")
    assert is_ppl(".[child::a[. is $x] or child::b[. is $x]]")


def test_distinct_variable_comparison_is_allowed():
    assert is_ppl("descendant::a[$x is $y]")


def test_variable_free_negation_is_allowed():
    assert is_ppl(".[not(child::a)]/descendant::b[. is $x]")


def test_check_ppl_accepts_ast_input():
    check_ppl(parse_path("descendant::a[. is $x]"))


# ------------------------------------------------------ Fig. 7 translation
@pytest.mark.parametrize(
    "text,variables",
    [
        ("descendant::book[child::author[. is $y] and child::title[. is $z]]", ["y", "z"]),
        ("descendant::a[. is $x]", ["x"]),
        ("$x/child::*[. is $y]", ["x", "y"]),
        ("child::a union descendant::b[. is $x]", ["x"]),
        ("descendant::*[child::a or child::b][. is $x]", ["x"]),
        (".[not(parent::*)]/descendant::*[. is $x]", ["x"]),
        ("descendant::*[$x is $y]", ["x", "y"]),
        ("descendant::a[. is $x]/following-sibling::b[. is $y]", ["x", "y"]),
        ("child::* intersect descendant::*", []),
        ("(child::a except child::b)[. is $x]", ["x"]),
        ("descendant::*[. is .]", []),
        ("descendant::*[. is $x and child::b]", ["x"]),
    ],
)
def test_fig7_translation_preserves_answers(paper_bib, text, variables):
    parsed = parse_path(text)
    formula = ppl_to_hcl(parsed)
    oracle = PPLbinOracle(paper_bib)
    assert answer_hcl(paper_bib, formula, variables, oracle) == naive_answer(
        paper_bib, parsed, variables
    )


def test_fig7_translation_is_linear_size():
    parsed = parse_path(
        "descendant::book[child::author[. is $y] and child::title[. is $z]]"
    )
    formula = ppl_to_hcl(parsed)
    assert formula.size <= 6 * parsed.size


def test_fig7_rejects_non_ppl():
    with pytest.raises(RestrictionViolation):
        ppl_to_hcl(parse_path("for $x in child::a return ."))


def test_hcl_to_ppl_roundtrip_semantics(paper_bib):
    source = parse_path("descendant::book[child::author[. is $y]]")
    formula = ppl_to_hcl(source)
    back = hcl_to_ppl(formula)
    assert is_ppl(back)
    assert naive_answer(paper_bib, back, ["y"]) == naive_answer(paper_bib, source, ["y"])


def test_hcl_to_ppl_rejects_non_pplbin_leaves():
    with pytest.raises(TranslationError):
        hcl_to_ppl(Leaf("not-a-pplbin-expression"))


def test_hcl_to_ppl_variable():
    assert hcl_to_ppl(HVar("x")).unparse() == ".[. is $x]"


# ------------------------------------------------------------ Document engine
def test_document_matches_naive_on_paper_example(paper_bib):
    query = "descendant::book[child::author[. is $y] and child::title[. is $z]]"
    document = Document(paper_bib)
    assert document.answer(query, ["y", "z"]) == NaiveEngine(paper_bib).answer(
        query, ["y", "z"]
    )


def test_document_accepts_ast_and_caches_translation(paper_bib):
    document = Document(paper_bib)
    parsed = parse_path("descendant::author[. is $x]")
    first = document.answer(parsed, ["x"])
    second = document.answer(parsed, ["x"])
    assert first == second
    assert len(document._queries) == 1  # compiled (and translated) once


def test_document_nonempty(paper_bib):
    document = Document(paper_bib)
    assert document.nonempty("descendant::price[. is $x]")
    assert not document.nonempty("descendant::zzz[. is $x]")


def test_document_pairs_for_variable_free_query(paper_bib):
    document = Document(paper_bib)
    pairs = document.pairs("descendant::book/child::author")
    assert all(paper_bib.labels[target] == "author" for _, target in pairs)
    assert all(source == 0 for source, _ in pairs)


def test_document_report(paper_bib):
    document = Document(paper_bib)
    query = "descendant::book[child::author[. is $y] and child::title[. is $z]]"
    report = document.report(query, ["y", "z"])
    assert report.answer_count == 3
    assert report.expression_size == parse_path(query).size
    assert report.distinct_leaves >= 2
    assert report.variables == ("y", "z")


def test_document_rejects_non_ppl(paper_bib):
    with pytest.raises(RestrictionViolation):
        Document(paper_bib).answer("for $x in child::a return .", ["x"])


def test_document_parse_errors_propagate(paper_bib):
    with pytest.raises(ParseError):
        Document(paper_bib).answer("child::", ["x"])


def test_document_matches_naive_on_random_documents():
    queries = [
        ("descendant::a[. is $x]", ["x"]),
        ("descendant::*[child::a[. is $x] and child::b[. is $y]]", ["x", "y"]),
        ("child::a[. is $x] union descendant::b[. is $x]", ["x"]),
        (".[not(child::c)]/descendant::b[. is $x]", ["x"]),
    ]
    for seed in (5, 6):
        tree = random_tree(9, seed=seed)
        document = Document(tree)
        naive = NaiveEngine(tree)
        for text, variables in queries:
            assert document.answer(text, variables) == naive.answer(text, variables), (
                seed,
                text,
            )


# ---------------------------------------------------------------- public API
def test_answer_helper(paper_bib):
    query = "descendant::author[. is $x]"
    assert answer(paper_bib, query, ["x"]) == naive_answer(paper_bib, query, ["x"])


def test_compile_query_runs_on_multiple_documents(paper_bib, generated_bib):
    compiled = compile_query(
        "descendant::book[child::author[. is $y] and child::title[. is $z]]", ["y", "z"]
    )
    assert isinstance(compiled, Query)
    assert compiled.arity == 2
    for tree in (paper_bib, generated_bib):
        assert Document(tree).answer(compiled) == naive_answer(
            tree, compiled.source, ["y", "z"]
        )


def test_compile_query_rejects_non_ppl():
    with pytest.raises(RestrictionViolation):
        compile_query("for $x in child::a return .", ["x"])
