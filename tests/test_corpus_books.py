"""The per-document results of mixed corpus passes, against a recorded golden.

A corpus pass keeps its books (cost meters, cache lookups, metrics, report
fields) once per query and splits them per document.  Whatever way the
books are kept, every :class:`repro.corpus.CorpusResult` a pass yields must
stay what it was: the answers, and ``report.to_dict()`` except the three
fields that describe a run rather than a document (``cost["seconds"]``,
``trace`` and the ``matrix_cache`` snapshot).  The golden file
``golden/corpus_books.json`` holds those records for a fixed sequence of
passes under both strategies: cold passes, all-miss forest passes, passes
where some documents hit the answer cache and some miss (at most half of a
forest's documents miss, so which documents share a run is fixed), and a
``not(...)`` query that answers one document at a time.

Regenerate the golden file (only when a change to the records is intended)
with ``PYTHONPATH=src python tests/test_corpus_books.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.session import Session

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus_books.json"
DOCUMENTS = [f"doc{index}" for index in range(8)]
DECOYS = ("year", "price", "publisher")

PAIR = (
    "descendant::book[child::author[. is $y] and child::title[. is $z]"
    " and (child::author or child::{tag})]",
    ("y", "z"),
)
PRECEDING = (
    "descendant::title[. is $z]/(preceding::author union preceding::{tag})[. is $a]",
    ("z", "a"),
)
BOOLEAN = ("descendant::book/(child::title union child::{tag})", ())
NEGATED = ("descendant::book[not(child::price or child::{tag})][. is $b]", ("b",))


def _document(index: int) -> str:
    """A bibliography whose shape depends only on ``index`` (no randomness)."""
    books = []
    for book in range(2 + index % 5):
        children = ["author"] * (1 + (index + book) % 2) + ["title"]
        children.insert((index * 3 + book) % len(children), DECOYS[(index + book) % 3])
        if (index + book) % 4 == 0:
            children.remove("title")
        books.append("<book>" + "".join(f"<{child}/>" for child in children) + "</book>")
    return "<bib>" + "".join(books) + "</bib>"


def _queries(*shapes) -> list:
    return [(template.format(tag=tag), variables) for (template, variables), tag in shapes]


#: ``(queries, documents or None for all)``: the passes, in order.  Under
#: ``processes`` the two shards hold doc0-doc3 and doc4-doc7.
PASSES = [
    # Cold: nothing resident, every document answers alone.
    (_queries((PAIR, "t0")), None),
    # Warm, all miss: one forest over six documents (two shards of three).
    (_queries((PAIR, "t1"), (PRECEDING, "t1")), ["doc0", "doc1", "doc2", "doc4", "doc5", "doc6"]),
    # Mixed: six hits, doc3 and doc7 miss (one per shard).
    (_queries((PAIR, "t1"), (PRECEDING, "t1")), None),
    # All miss, all hit, all miss, and one query that never shares a run.
    (_queries((PAIR, "t2"), (PRECEDING, "t1"), (BOOLEAN, "t2"), (NEGATED, "t2")), None),
    # Half of each shard is cached, the other half misses.
    (_queries((BOOLEAN, "t3")), ["doc0", "doc1", "doc4", "doc5"]),
    (_queries((BOOLEAN, "t3"), (PAIR, "t3")), None),
]


def _record(result) -> dict:
    report = result.report.to_dict()
    del report["trace"], report["matrix_cache"]
    cost = dict(report.pop("cost"))
    del cost["seconds"]
    return {
        "document": result.doc_name,
        "query": result.query,
        "variables": list(result.variables),
        "answers": sorted(list(answer) for answer in result.answers),
        "report": report,
        "cost": cost,
    }


def mixed_passes(strategy: str) -> list[list[dict]]:
    """The records of every pass of :data:`PASSES` under ``strategy``."""
    with Session(strategy=strategy, max_workers=2, kernel="adaptive") as session:
        for index, name in enumerate(DOCUMENTS):
            session.add_xml(name, _document(index))
        return [
            [_record(result) for result in session.query_corpus(queries, documents)]
            for queries, documents in PASSES
        ]


def _integer_sums(records: list[dict]) -> dict:
    sums: dict = {}
    for record in records:
        for key, value in record["cost"].items():
            sums[key] = sums.get(key, 0) + value
    return sums


@pytest.mark.parametrize("strategy", ["serial", "processes"])
def test_mixed_passes_match_the_golden_records(strategy):
    golden = json.loads(GOLDEN.read_text())[strategy]
    passes = mixed_passes(strategy)
    assert len(passes) == len(golden)
    for number, (records, expected) in enumerate(zip(passes, golden)):
        assert _integer_sums(records) == _integer_sums(expected), number
        assert records == expected, number


def test_golden_passes_cover_hits_misses_and_shared_runs():
    golden = json.loads(GOLDEN.read_text())
    for strategy in ("serial", "processes"):
        mixed = golden[strategy][2]
        hits = {record["document"] for record in mixed if record["cost"]["answer_cache_hits"]}
        assert hits == {"doc0", "doc1", "doc2", "doc4", "doc5", "doc6"}
        shared = [record["cost"]["forest_documents"] for record in golden[strategy][3]]
        assert max(shared) > 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {strategy: mixed_passes(strategy) for strategy in ("serial", "processes")}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
