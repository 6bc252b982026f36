"""The pieces a corpus pass keeps once per query instead of once per document.

* Bulk answer-cache operations (:meth:`AnswerCache.get_many`,
  :meth:`AnswerCache.put_many`) leave the cache exactly as the same
  per-key calls would, and rows packed straight from Fig. 8's int table
  (:meth:`HclAnswerer.run_table`, :meth:`PackedAnswers.from_table`) are
  byte-identical to packing the answer set.
* :meth:`Histogram.observe_many` records what one ``observe`` per value
  would.
* A pass whose queries miss on different documents builds at most one
  forest, and its answers equal the per-document answers.
* Compiling a query walks the expression for Definition 1 once.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

import repro.api.query as api_query
import repro.core.ppl as core_ppl
from repro.api.query import compile_query
from repro.core.engine import QueryReport
from repro.core.translate import ppl_to_hcl
from repro.corpus import CorpusResult
from repro.corpus.cache import AnswerCache, PackedAnswers
from repro.errors import RestrictionViolation
from repro.hcl.answering import plan_for
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram
from repro.session import Session
from repro.trees.forest import Forest
from repro.trees.generators import random_tree
from repro.trees.xml_io import tree_from_xml, tree_to_xml
from repro.xpath.parser import parse_path

PAIR = (
    "descendant::book[child::author[. is $y] and child::title[. is $z]"
    " and (child::author or child::{tag})]",
    ("y", "z"),
)
SIBLING = (
    "descendant::author[. is $y]/(following-sibling::title union following-sibling::{tag})"
    "[. is $z]",
    ("y", "z"),
)


# ------------------------------------------------------------ answer cache
def _answer_sets(rng: random.Random) -> list[frozenset]:
    sets = [frozenset(), frozenset({()}), frozenset()]
    for width in (1, 2, 3):
        for count in (1, 4, 30):
            sets.append(
                frozenset(tuple(rng.randrange(50) for _ in range(width)) for _ in range(count))
            )
    return sets


def _state(cache: AnswerCache) -> tuple:
    """Counters, bytes and the LRU order of queries and of owners in each."""
    order = [(query, list(group)) for query, group in cache._groups.items()]
    return cache.stats, order


@pytest.mark.parametrize("max_bytes", [None, 700, 1500])
def test_bulk_cache_operations_match_per_key_calls(max_bytes):
    rng = random.Random(max_bytes or 0)
    sets = _answer_sets(rng)
    owners = [f"doc{index}" for index in range(len(sets))]
    queries = [("q1", ("y", "z"), "polynomial"), ("q2", (), "polynomial")]
    bulk, single = AnswerCache(max_bytes), AnswerCache(max_bytes)
    for round_ in range(3):
        for query in queries:
            chosen = rng.sample(range(len(sets)), 7)
            wanted = [owners[index] for index in chosen]
            found = bulk.get_many(query, wanted)
            expected = [single.get((owner, *query)) for owner in wanted]
            assert [None if value is None else value.unpack() for value in found] == expected
            fresh = rng.sample(range(len(sets)), 6)
            bulk.put_many(query, [(owners[i], PackedAnswers.pack(sets[i])) for i in fresh])
            for i in fresh:
                single.put((owners[i], *query), sets[i])
            assert _state(bulk) == _state(single), (round_, query)
    if max_bytes is not None:
        assert bulk.stats.evictions > 0


def test_rows_packed_from_the_int_table_equal_packed_answer_sets():
    rng = random.Random(3)
    sizes = [1, 7, 1, 60, 3, 200, 2]
    forest = Forest(
        [
            tree_from_xml(
                tree_to_xml(random_tree(size, alphabet=("a", "b", "c"), seed=rng.randrange(10**6)))
            )
            for size in sizes
        ]
    )
    queries = [
        ("descendant::a[. is $x]/following::b[. is $y]", ("x", "y")),
        ("descendant::a[. is $x]/child::b[. is $y]/child::c[. is $z]", ("x", "y", "z")),
        ("child::a[. is $x] union child::b[. is $y]", ("x", "y")),
        ("descendant::c[. is $x]", ("x",)),
        ("descendant::a/child::b", ()),
        ("descendant::nowhere[. is $x]", ("x",)),
    ]
    for text, variables in queries:
        plan = plan_for(compile_query(text, variables).hcl, variables)
        answerer = forest.answerer()
        table, bounds = answerer.run_table(plan)
        expected = answerer.run_documents(plan)
        assert len(bounds) == len(sizes) + 1
        packed = PackedAnswers.from_table(table, bounds, range(len(sizes)))
        for index, answers in enumerate(expected):
            assert bytes(packed[index]) == bytes(PackedAnswers.pack(answers)), (text, index)
            assert packed[index].unpack() == answers
    # An empty answer set packs to the same bytes whatever its arity.
    for width in (0, 1, 3):
        (empty,) = PackedAnswers.from_table(np.zeros((0, width), dtype=np.int32), [0, 0], [0])
        assert bytes(empty) == bytes(PackedAnswers.pack(frozenset()))


# ----------------------------------------------------------------- metrics
def test_observe_many_matches_one_observe_per_value():
    values = [0.002, 5e-7, 0.3, 0.002, 12.0, 1e-4]
    one, many = Histogram("h"), Histogram("h")
    for value in values:
        one.observe(value)
    many.observe_many(values)
    many.observe_many([])
    assert many.to_dict() == one.to_dict()


# ----------------------------------------------------------------- forests
def _bibliography(index: int) -> str:
    books = []
    for book in range(2 + index % 4):
        children = ["author", "title", "author"][: 2 + (index + book) % 2]
        children.insert((index + book) % 3, "year")
        books.append("<book>" + "".join(f"<{child}/>" for child in children) + "</book>")
    return "<bib>" + "".join(books) + "</bib>"


def _forest_builds(trees: list[dict]) -> int:
    count, pending = 0, list(trees)
    while pending:
        node = pending.pop()
        count += node["name"] == "corpus.forest.build"
        pending.extend(node["children"])
    return count


def test_queries_missing_on_different_documents_build_one_forest_per_pass():
    names = [f"doc{index}" for index in range(6)]
    texts = {name: _bibliography(index) for index, name in enumerate(names)}
    with Session() as session:
        for name in names:
            session.add_xml(name, texts[name])
        list(session.query_corpus([(PAIR[0].format(tag="t0"), PAIR[1])]))  # all resident
        previous = obs_trace.set_tracing(True)
        try:
            builds = []
            for tag in ("t1", "t2"):
                first = (PAIR[0].format(tag=tag), PAIR[1])
                second = (SIBLING[0].format(tag=tag), SIBLING[1])
                # Each query is cached on two documents, not the same two.
                list(session.query_corpus([first], names[:2]))
                list(session.query_corpus([second], names[4:]))
                obs_trace.drain_finished()
                results = list(session.query_corpus([first, second]))
                builds.append(_forest_builds(obs_trace.drain_finished()))
        finally:
            obs_trace.set_tracing(previous)
    with Session() as cold:
        for name in names:
            cold.add_xml(name, texts[name])
        expected = {
            (name, text): cold.query(name, text, variables)
            for name in names
            for text, variables in (first, second)
        }
    assert builds == [1, 1]  # one forest over the whole corpus per pass, not one per query
    assert {(result.doc_name, result.query): result.answers for result in results} == expected
    for result in results:
        hit = result.doc_name in (names[:2] if result.query == first[0] else names[4:])
        cost = result.report.cost
        assert (cost["answer_cache_hits"], cost["answer_cache_misses"]) == (
            (1, 0) if hit else (0, 1)
        )
        # Four of six documents miss: the run covers the whole forest.
        assert cost["forest_documents"] == (1 if hit else 6)


def test_bulk_lookups_read_and_write_the_snapshot_spill(tmp_path):
    names = [f"doc{index}" for index in range(5)]
    texts = {name: _bibliography(index) for index, name in enumerate(names)}
    query = (SIBLING[0].format(tag="t1"), SIBLING[1])
    with Session() as cold:
        for name in names:
            cold.add_xml(name, texts[name])
        expected = {name: cold.query(name, *query) for name in names}
    with Session(snapshot_dir=tmp_path / "snaps") as session:
        for name in names:
            session.add_xml(name, texts[name])
        list(session.query_corpus([(PAIR[0].format(tag="t0"), PAIR[1])]))  # all resident
        stored = session.stats()["snapshot"]["answer_stores"]
        first = list(session.query_corpus([query]))  # one forest run spills every miss
        assert session.stats()["snapshot"]["answer_stores"] == stored + len(names)
        session.store.answer_cache.clear()
        again = list(session.query_corpus([query]))  # memory misses, spill hits
    assert all(result.report.cost["forest_documents"] == len(names) for result in first)
    for result in again:
        assert result.answers == expected[result.doc_name]
        cost = result.report.cost
        assert (cost["answer_cache_hits"], cost["answer_cache_misses"]) == (0, 1)
        assert (cost["snapshot_hits"], cost["forest_documents"]) == (1, 1)


def test_pass_results_equal_results_built_by_their_constructors():
    names = [f"doc{index}" for index in range(4)]
    cold, fresh = (PAIR[0].format(tag="t1"), PAIR[1]), (PAIR[0].format(tag="t2"), PAIR[1])
    with Session(strategy="processes", max_workers=2) as session:
        for index, name in enumerate(names):
            session.add_xml(name, _bibliography(index))
        list(session.query_corpus([cold]))
        results = list(session.query_corpus([fresh, cold]))
    # A forest run's results and the answer-cache hits' results.
    assert {result.report.cost["forest_documents"] for result in results} == {1, 2}
    for result in results:
        report = QueryReport(
            **{field.name: getattr(result.report, field.name) for field in fields(QueryReport)}
        )
        rebuilt = CorpusResult(
            **{field.name: getattr(result, field.name) for field in fields(CorpusResult)}
        )
        assert report == result.report and repr(report) == repr(result.report)
        assert rebuilt == result and repr(rebuilt) == repr(result)
        assert pickle.loads(pickle.dumps(result)) == result
        with pytest.raises(FrozenInstanceError):
            result.report.answer_count = 0


# ---------------------------------------------------------- Definition 1
def test_compile_query_checks_definition_1_once(monkeypatch):
    calls = []
    original = core_ppl.ppl_violations

    def counted(expression):
        calls.append(expression)
        return original(expression)

    monkeypatch.setattr(core_ppl, "ppl_violations", counted)
    monkeypatch.setattr(api_query, "ppl_violations", counted)
    compile_query(PAIR[0].format(tag="t"), PAIR[1])
    assert len(calls) == 1
    with pytest.raises(RestrictionViolation):
        compile_query("for $x in child::a return $x", ("x",))
    assert len(calls) == 2


def test_ppl_to_hcl_still_rejects_non_ppl_expressions():
    looping = parse_path("for $x in child::a return $x")
    with pytest.raises(RestrictionViolation):
        ppl_to_hcl(looping)
    with pytest.raises(RestrictionViolation):
        ppl_to_hcl(looping, core_ppl.ppl_violations(looping))
    path = parse_path("child::a[. is $x]")
    assert ppl_to_hcl(path, []) == ppl_to_hcl(path)
