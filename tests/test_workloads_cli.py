"""Tests for the workload generators and the command-line interface."""

import os

import pytest

from repro.api import as_document
from repro.core.ppl import is_ppl
from repro.xpath.naive import NaiveEngine
from repro.xpath.analysis import contains_for_loop
from repro.trees.xml_io import tree_to_xml
from repro.workloads.bibliography import (
    bibliography_pair_query,
    bibliography_query_xquery_style,
    book_author_title_triples_query,
    generate_bibliography,
)
from repro.workloads.query_gen import (
    random_hcl_formula,
    random_ppl_expression,
    random_pplbin_expression,
)
from repro.workloads.restaurants import (
    ATTRIBUTE_LABELS,
    generate_restaurants,
    restaurant_query,
    restaurant_query_with_restaurant,
)
from repro import cli


# ------------------------------------------------------------- bibliography
def test_generate_bibliography_shape():
    document = generate_bibliography(5, authors_per_book=2, titles_per_book=1, seed=0)
    assert document.labels[0] == "bib"
    assert len(document.nodes_with_label("book")) == 5
    assert len(document.nodes_with_label("author")) == 10


def test_bibliography_answer_size_is_predictable():
    document = generate_bibliography(4, authors_per_book=3, titles_per_book=2, seed=1)
    query, variables = bibliography_pair_query()
    answers = as_document(document).answer(query, variables)
    assert len(answers) == 4 * 3 * 2


def test_bibliography_is_deterministic():
    assert generate_bibliography(3, seed=9) == generate_bibliography(3, seed=9)


def test_bibliography_pair_query_is_ppl_and_forloop_variant_is_not():
    query, variables = bibliography_pair_query()
    assert is_ppl(query)
    assert variables == ["y", "z"]
    loop_query = bibliography_query_xquery_style()
    assert contains_for_loop(__import__("repro.xpath.parser", fromlist=["parse_path"]).parse_path(loop_query))
    assert not is_ppl(loop_query)


def test_forloop_variant_selects_same_pairs():
    document = generate_bibliography(2, authors_per_book=2, seed=4)
    query, variables = bibliography_pair_query()
    naive = NaiveEngine(document)
    assert naive.answer(bibliography_query_xquery_style(), variables) == naive.answer(
        query, variables
    )


def test_triples_query(paper_bib):
    query, variables = book_author_title_triples_query()
    assert is_ppl(query)
    answers = as_document(paper_bib).answer(query, variables)
    assert len(answers) == 3
    for book, author, title in answers:
        assert paper_bib.labels[book] == "book"
        assert paper_bib.parent[author] == book
        assert paper_bib.parent[title] == book


# --------------------------------------------------------------- restaurants
def test_generate_restaurants_shape():
    document = generate_restaurants(3, num_attributes=4, seed=0)
    assert len(document.nodes_with_label("restaurant")) == 3
    assert len(document.nodes_with_label("name")) == 3
    assert document.size == 1 + 3 * 5  # root + 3 * (restaurant + 4 attributes)


def test_restaurant_query_answer_count_matches_complete_restaurants():
    document = generate_restaurants(
        6, num_attributes=3, missing_probability=0.4, seed=2
    )
    query, variables = restaurant_query(3)
    assert is_ppl(query)
    answers = as_document(document).answer(query, variables)
    complete = 0
    for restaurant in document.nodes_with_label("restaurant"):
        child_labels = {document.labels[child] for child in document.children(restaurant)}
        if set(ATTRIBUTE_LABELS[:3]) <= child_labels:
            complete += 1
    assert len(answers) == complete


def test_restaurant_query_with_restaurant_binds_element():
    document = generate_restaurants(2, num_attributes=2, seed=1)
    query, variables = restaurant_query_with_restaurant(2)
    assert variables[0] == "r"
    answers = as_document(document).answer(query, variables)
    assert all(document.labels[row[0]] == "restaurant" for row in answers)


def test_restaurant_bad_arguments():
    with pytest.raises(ValueError):
        generate_restaurants(2, num_attributes=0)
    with pytest.raises(ValueError):
        restaurant_query(len(ATTRIBUTE_LABELS) + 1)


# ---------------------------------------------------------- query generators
def test_random_pplbin_expression_is_deterministic_and_valid(tiny_tree):
    from repro.pplbin.evaluator import evaluate_pairs

    first = random_pplbin_expression(8, seed=3)
    second = random_pplbin_expression(8, seed=3)
    assert first == second
    evaluate_pairs(tiny_tree, first)  # must evaluate without error


def test_random_ppl_expression_is_ppl():
    for seed in range(8):
        expression, variables = random_ppl_expression(10, num_variables=2, seed=seed)
        assert is_ppl(expression), expression.unparse()
        assert set(variables) <= {"x1", "x2"}


def test_random_ppl_expression_matches_naive(tiny_tree):
    for seed in range(4):
        expression, variables = random_ppl_expression(6, num_variables=1, seed=seed)
        fast = as_document(tiny_tree).answer(expression, variables)
        slow = NaiveEngine(tiny_tree).answer(expression, variables)
        assert fast == slow, expression.unparse()


def test_random_hcl_formula_has_no_sharing(tiny_tree):
    from repro.hcl.answering import check_no_variable_sharing

    for seed in range(6):
        formula, variables = random_hcl_formula(8, num_variables=2, seed=seed)
        check_no_variable_sharing(formula)
        assert set(variables) == {"x1", "x2"}


# ------------------------------------------------------------------------ CLI
@pytest.fixture
def bib_xml_path(tmp_path, paper_bib):
    path = tmp_path / "bib.xml"
    path.write_text(tree_to_xml(paper_bib), encoding="utf-8")
    return str(path)


def test_cli_answers_query(capsys, bib_xml_path):
    code = cli.main(
        [
            "answer",
            "--xml",
            bib_xml_path,
            "--query",
            "descendant::book[child::author[. is $y] and child::title[. is $z]]",
            "--vars",
            "y,z",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "$y\t$z"
    assert len(lines) == 4  # header + 3 answers


def test_cli_labels_and_stats(capsys, bib_xml_path):
    code = cli.main(
        [
            "answer",
            "--xml",
            bib_xml_path,
            "--query",
            "descendant::author[. is $x]",
            "--vars",
            "x",
            "--labels",
            "--stats",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert ":author" in captured.out
    assert "|t|=" in captured.err


def test_cli_naive_engine(capsys, bib_xml_path):
    code = cli.main(
        [
            "answer",
            "--xml",
            bib_xml_path,
            "--query",
            "descendant::price[. is $x]",
            "--vars",
            "x",
            "--engine",
            "naive",
        ]
    )
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_cli_boolean_query(capsys, bib_xml_path):
    code = cli.main(
        ["answer", "--xml", bib_xml_path, "--query", "descendant::price", "--vars", ""]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "non-empty" in captured.out


def test_cli_check_only_accepts_and_rejects(capsys):
    assert cli.main(["check", "--query", "descendant::a[. is $x]"]) == 0
    assert "PPL" in capsys.readouterr().out
    assert cli.main(["check", "--query", "for $x in child::a return ."]) == 1
    assert "N(for)" in capsys.readouterr().out


def test_cli_reports_errors(capsys, bib_xml_path):
    code = cli.main(["answer", "--xml", bib_xml_path, "--query", "child::", "--vars", "x"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = cli.main(["answer", "--xml", os.devnull, "--query", "child::a", "--vars", ""])
    assert code == 1


def test_cli_requires_xml_unless_check_only(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["answer", "--query", "child::a"])
    assert excinfo.value.code == 2
    assert "--xml" in capsys.readouterr().err


def test_cli_flat_invocation_is_a_usage_error(capsys, bib_xml_path):
    # The seed's flat form is gone: every invocation names a subcommand.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--xml", bib_xml_path, "--query", "descendant::price", "--vars", ""])
    assert excinfo.value.code == 2
    assert "answer" in capsys.readouterr().err
