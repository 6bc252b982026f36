"""Tests for the repro.api facade: Document/Query, registry, dispatch, batch, CLI."""

import gc
import json
import tomllib
from pathlib import Path

import pytest

from repro.errors import (
    EngineCapabilityError,
    ReproError,
    RestrictionViolation,
    UnknownEngineError,
)
from repro.trees.tree import Node, Tree
from repro.trees.xml_io import tree_to_xml
from repro.xpath.parser import parse_path
from repro.xpath.semantics import evaluate_path
from repro.api import (
    Document,
    EngineCapabilities,
    Query,
    as_document,
    available_engines,
    compile_query,
    get_engine,
    register_engine,
)
from repro.api.document import _documents
from repro.api.query import PLAN_MEMO_ENTRIES
from repro.workloads.bibliography import (
    bibliography_pair_query,
    book_author_title_triples_query,
    generate_bibliography,
)
from repro import cli

PAIR_QUERY, PAIR_VARS = bibliography_pair_query()
TRIPLE_QUERY, TRIPLE_VARS = book_author_title_triples_query()

#: Backends whose capabilities cover n-ary queries with variables.
NARY_ENGINES = ("naive", "yannakakis")
#: Backends exposing a binary path for variable-free queries.
BINARY_ENGINES = ("polynomial", "naive", "corexpath1")


# -------------------------------------------------------------------- registry
def test_all_builtin_engines_are_registered():
    assert set(available_engines()) == {"polynomial", "naive", "corexpath1", "yannakakis"}


def test_unknown_engine_raises_typed_error(paper_bib):
    with pytest.raises(UnknownEngineError) as excinfo:
        get_engine("no-such-engine")
    assert isinstance(excinfo.value, ReproError)
    assert "no-such-engine" in str(excinfo.value)
    assert "polynomial" in str(excinfo.value)  # the message lists alternatives
    with pytest.raises(UnknownEngineError):
        Document(paper_bib).answer(PAIR_QUERY, PAIR_VARS, engine="no-such-engine")


def test_ppl_alias_resolves_to_polynomial():
    assert get_engine("ppl") is get_engine("polynomial")


def test_register_engine_rejects_duplicates_and_non_engines():
    with pytest.raises(ValueError):
        register_engine(get_engine("naive"))  # name already taken
    with pytest.raises(ValueError):
        # "ppl" is an alias of "polynomial"; aliases win in get_engine, so an
        # engine registered under that name would be silently unreachable.
        register_engine(get_engine("naive"), name="ppl")
    with pytest.raises(TypeError):
        register_engine(object())  # no name/capabilities/answer


def test_register_custom_engine(paper_bib):
    class ConstantEngine:
        name = "constant-for-test"
        capabilities = EngineCapabilities()

        def answer(self, document, query):
            return frozenset({(0,) * query.arity})

    register_engine(ConstantEngine())
    try:
        result = Document(paper_bib).answer(PAIR_QUERY, PAIR_VARS, engine="constant-for-test")
        assert result == frozenset({(0, 0)})
    finally:
        from repro.api.registry import _REGISTRY

        del _REGISTRY["constant-for-test"]


# ------------------------------------------------------- cross-engine agreement
@pytest.mark.parametrize("engine", NARY_ENGINES)
@pytest.mark.parametrize(
    "text,variables",
    [(PAIR_QUERY, PAIR_VARS), (TRIPLE_QUERY, TRIPLE_VARS)],
    ids=["pair", "triples"],
)
def test_backends_agree_with_polynomial_on_quickstart_queries(
    paper_bib, engine, text, variables
):
    document = Document(paper_bib)
    query = document.compile(text, variables)
    assert document.answer(query, engine=engine) == document.answer(query)


@pytest.mark.parametrize("engine", NARY_ENGINES)
def test_backends_agree_on_generated_bibliography(engine):
    document = Document(generate_bibliography(3, authors_per_book=2, seed=11))
    query = document.compile(PAIR_QUERY, PAIR_VARS)
    assert document.answer(query, engine=engine) == document.answer(query)


@pytest.mark.parametrize("engine", BINARY_ENGINES)
def test_binary_backends_agree_on_variable_free_query(paper_bib, engine):
    document = Document(paper_bib)
    expected = evaluate_path(paper_bib, parse_path("descendant::book/child::author"), {})
    assert document.pairs("descendant::book/child::author", engine=engine) == expected


@pytest.mark.parametrize("engine", ("polynomial", "naive", "corexpath1"))
def test_boolean_queries_across_engines(paper_bib, engine):
    document = Document(paper_bib)
    assert document.answer("descendant::price", engine=engine) == frozenset({()})
    assert document.answer("descendant::zzz", engine=engine) == frozenset()
    assert document.nonempty("descendant::price", engine=engine)
    assert not document.nonempty("descendant::zzz", engine=engine)


def test_naive_pairs_covers_expressions_without_pplbin_form(paper_bib):
    # A for-loop has no Fig. 4 PPLbin form but is still variable free in the
    # Fig. 2 sense; the naive backend's binary path must accept it.
    text = "for $x in child::book return $x/child::author"
    expected = evaluate_path(paper_bib, parse_path(text), {})
    assert Document(paper_bib).pairs(text, engine="naive") == expected


def test_corexpath1_monadic_matches_matrix_row(paper_bib):
    document = Document(paper_bib)
    query = document.compile("descendant::book/child::author")
    monadic = get_engine("corexpath1").monadic(document, query)
    expected = {target for source, target in document.pairs(query) if source == 0}
    assert set(monadic) == expected


# -------------------------------------------------------- capability violations
def test_nary_query_on_corexpath1_raises_before_evaluation(paper_bib):
    document = Document(paper_bib)
    with pytest.raises(EngineCapabilityError) as excinfo:
        document.answer(PAIR_QUERY, PAIR_VARS, engine="corexpath1")
    assert excinfo.value.engine == "corexpath1"
    assert isinstance(excinfo.value, ReproError)


def test_complement_on_corexpath1_raises(paper_bib):
    # `intersect` compiles to PPLbin complements (De Morgan), which the
    # set-based evaluator cannot run.
    document = Document(paper_bib)
    with pytest.raises(EngineCapabilityError) as excinfo:
        document.answer("child::* intersect descendant::*", engine="corexpath1")
    assert excinfo.value.capability == "supports_complement"


def test_union_on_yannakakis_raises(paper_bib):
    document = Document(paper_bib)
    with pytest.raises(EngineCapabilityError) as excinfo:
        document.answer(
            "child::author[. is $x] union descendant::title[. is $x]",
            ["x"],
            engine="yannakakis",
        )
    assert excinfo.value.capability == "supports_union"


def test_non_ppl_on_polynomial_raises_restriction_violation(paper_bib):
    document = Document(paper_bib)
    with pytest.raises(RestrictionViolation):
        document.answer("for $x in child::a return .", ["x"])
    # ... while the naive backend answers non-PPL expressions via the same
    # facade (NV(not) violation: a variable below a negation).
    from repro.xpath.naive import naive_answer

    non_ppl = ".[not(child::author[. is $x])]"
    answers = document.answer(non_ppl, ["x"], engine="naive")
    assert answers == naive_answer(paper_bib, non_ppl, ["x"])


# ----------------------------------------------------------- Document and Query
def test_compile_query_carries_translations():
    query = compile_query(PAIR_QUERY, PAIR_VARS)
    assert isinstance(query, Query)
    assert query.is_ppl and query.violations == ()
    assert query.hcl is not None
    assert query.pplbin is None  # the expression uses variables
    assert query.arity == 2

    binary = compile_query("descendant::book/child::author")
    assert binary.pplbin is not None and binary.is_variable_free


def test_compile_query_strict_and_lenient():
    with pytest.raises(RestrictionViolation):
        compile_query("for $x in child::a return .", ["x"])
    lenient = compile_query("for $x in child::a return .", ["x"], require_ppl=False)
    assert not lenient.is_ppl
    assert lenient.hcl is None
    assert {v.condition for v in lenient.violations} == {"N(for)"}


def test_document_compile_caches_queries_and_translations(paper_bib):
    document = Document(paper_bib)
    parsed = parse_path("descendant::author[. is $x]")
    first = document.compile(parsed, ["x"])
    second = document.compile(parsed, ["x"])
    assert first is second
    other_vars = document.compile(parsed, ["x", "q"])
    assert other_vars is not first
    assert other_vars.hcl == first.hcl
    assert len(document._queries) == 2  # one plan per (expression, variables)


def test_document_compile_memo_is_bounded(paper_bib):
    document = Document(paper_bib)
    texts = [
        f"descendant::author[. is $x] union descendant::t{index}"
        for index in range(2 * PLAN_MEMO_ENTRIES)
    ]
    expected = document.answer(texts[0], ["x"])
    for text in texts:
        assert document.answer(text, ["x"]) == expected
    assert len(document._queries) <= PLAN_MEMO_ENTRIES
    assert document.compile(texts[-1], ["x"]) is document.compile(texts[-1], ["x"])


def test_document_answer_rejects_variable_override(paper_bib):
    document = Document(paper_bib)
    query = document.compile(PAIR_QUERY, PAIR_VARS)
    with pytest.raises(ValueError):
        document.answer(query, ["y"])


def test_document_from_xml_roundtrip(paper_bib):
    document = Document.from_xml(tree_to_xml(paper_bib))
    assert document.tree == paper_bib
    assert document.answer(PAIR_QUERY, PAIR_VARS) == Document(paper_bib).answer(
        PAIR_QUERY, PAIR_VARS
    )


def test_answer_many_mixes_item_forms(paper_bib):
    document = Document(paper_bib)
    compiled = document.compile(PAIR_QUERY, PAIR_VARS)
    results = document.answer_many(
        [compiled, (TRIPLE_QUERY, TRIPLE_VARS), "descendant::price"]
    )
    assert results[0] == document.answer(compiled)
    assert results[1] == document.answer(TRIPLE_QUERY, TRIPLE_VARS)
    assert results[2] == frozenset({()})


# --------------------------------------------------------- weak document registry
def test_as_document_reuses_live_trees(paper_bib):
    first = as_document(paper_bib)
    second = as_document(paper_bib)
    assert first is second


def test_as_document_survives_id_reuse(paper_bib, tiny_tree):
    # Simulate an id() collision: a stale entry under this tree's id must be
    # ignored because the registry re-checks tree identity.
    stale = Document(tiny_tree)
    _documents[id(paper_bib)] = stale
    adopted = as_document(paper_bib)
    assert adopted is not stale
    assert adopted.tree is paper_bib


def test_as_document_registry_does_not_pin_documents():
    tree = Tree(Node("a", Node("b")))
    key = id(tree)
    as_document(tree)
    gc.collect()
    # Nothing else references the document, so the weak entry is collectable;
    # at the very least it must not outlive the tree.
    del tree
    gc.collect()
    assert _documents.get(key) is None or _documents.get(key).tree is not None


# ------------------------------------------------------------ QueryReport JSON
def test_query_report_to_dict_and_json(paper_bib):
    document = Document(paper_bib)
    report = document.report(PAIR_QUERY, PAIR_VARS)
    data = report.to_dict()
    assert data["answer_count"] == 3
    assert data["arity"] == 2
    assert data["variables"] == ["y", "z"]
    assert data["tree_size"] == paper_bib.size
    assert data["engine"] == "polynomial"
    assert json.loads(report.to_json()) == data


# ------------------------------------------------- Document.pairs regression
def test_document_pairs_goes_through_registry(paper_bib):
    """Regression: variable-free binary queries answer like the semantics."""
    for text in (
        "descendant::book/child::author",
        "child::book[child::price]",
        "descendant::*[not(child::*)]",
    ):
        expected = evaluate_path(paper_bib, parse_path(text), {})
        assert Document(paper_bib).pairs(text) == expected


def test_document_pairs_rejects_variables(paper_bib):
    with pytest.raises(EngineCapabilityError):
        Document(paper_bib).pairs("descendant::author[. is $x]")


def test_seed_era_entry_points_are_gone():
    """The 1.5.0 removal: no PPLEngine, no repro.core.api, no repro.answer."""
    import repro
    import repro.core.engine

    assert not hasattr(repro, "answer")
    assert not hasattr(repro, "compile_query")
    assert not hasattr(repro, "PPLEngine")
    assert not hasattr(repro.core.engine, "PPLEngine")
    with pytest.raises(ImportError):
        import repro.core.api  # noqa: F401


def test_package_version_matches_pyproject():
    import repro

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["version"] == repro.__version__


# ------------------------------------------------------------------------- CLI
@pytest.fixture
def bib_xml_path(tmp_path, paper_bib):
    path = tmp_path / "bib.xml"
    path.write_text(tree_to_xml(paper_bib), encoding="utf-8")
    return str(path)


def test_cli_answer_subcommand_with_corexpath1(capsys, bib_xml_path):
    code = cli.main(
        [
            "answer",
            "--xml",
            bib_xml_path,
            "--query",
            "descendant::book/child::author",
            "--engine",
            "corexpath1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().splitlines() == ["(boolean)", "non-empty"]


def test_cli_answer_subcommand_engines_agree(capsys, bib_xml_path):
    outputs = []
    for engine in ("polynomial", "naive", "yannakakis"):
        code = cli.main(
            [
                "answer",
                "--xml",
                bib_xml_path,
                "--query",
                PAIR_QUERY,
                "--vars",
                "y,z",
                "--engine",
                engine,
            ]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].strip().splitlines()) == 4  # header + 3 answers


def test_cli_answer_unknown_engine_fails_loudly(capsys, bib_xml_path):
    code = cli.main(
        ["answer", "--xml", bib_xml_path, "--query", "child::book", "--engine", "nope"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown engine" in captured.err


def test_cli_answer_capability_error(capsys, bib_xml_path):
    code = cli.main(
        [
            "answer",
            "--xml",
            bib_xml_path,
            "--query",
            PAIR_QUERY,
            "--vars",
            "y,z",
            "--engine",
            "corexpath1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "corexpath1" in captured.err


def test_cli_stats_emits_json(capsys, bib_xml_path):
    code = cli.main(
        [
            "answer",
            "--xml",
            bib_xml_path,
            "--query",
            "descendant::author[. is $x]",
            "--vars",
            "x",
            "--stats",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    json_lines = [line for line in captured.err.splitlines() if line.startswith("{")]
    assert json_lines, captured.err
    data = json.loads(json_lines[0])
    assert data["answer_count"] == 3
    assert data["engine"] == "polynomial"


def test_cli_check_subcommand(capsys):
    assert cli.main(["check", "--query", "descendant::a[. is $x]"]) == 0
    assert "PPL" in capsys.readouterr().out
    assert cli.main(["check", "--query", "for $x in child::a return ."]) == 1
    assert "N(for)" in capsys.readouterr().out


def test_cli_translate_subcommand(capsys):
    assert cli.main(["translate", "--query", "descendant::a[. is $x]"]) == 0
    out = capsys.readouterr().out
    assert "hcl:" in out
    assert cli.main(["translate", "--query", "for $x in child::a return ."]) == 1


def test_cli_top_level_help_shows_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in ("answer", "check", "translate", "bench", "engines"):
        assert name in out


def test_cli_bare_invocation_shows_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2
    assert "command" in capsys.readouterr().err


def test_cli_engines_subcommand(capsys):
    assert cli.main(["engines"]) == 0
    out = capsys.readouterr().out
    for name in available_engines():
        assert name in out


def test_cli_bench_subcommand_emits_json(capsys, bib_xml_path):
    code = cli.main(
        [
            "bench",
            "--xml",
            bib_xml_path,
            "--query",
            PAIR_QUERY,
            "--vars",
            "y,z",
            "--engines",
            "polynomial,naive",
            "--repeat",
            "1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    results = json.loads(captured.out)
    assert [entry["engine"] for entry in results] == ["polynomial", "naive"]
    assert all(entry["answer_count"] == 3 for entry in results)
    assert all(entry["seconds"] >= 0 for entry in results)
