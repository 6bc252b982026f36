"""Every stage of compiling a text, against a recorded golden.

Compiling a query text runs the parser, the Definition 1 check, the Fig. 7
translation, the Lemma 3 normalisation and the Fig. 8 plan compilation.
However those stages are implemented, what they produce must stay what it
was.  For each query the golden file ``golden/compile_plans.json`` holds the
canonical text (``plan_text``), the HCL translation unparsed, the violated
conditions in order, the PPLbin translation when the expression is variable
free, the three size figures of a report, and every field of the query's
:class:`repro.hcl.plan.Fig8Plan` with each leaf query unparsed.

The queries are the benchmark's shapes (copied here as literals), queries
with ``not(...)`` and ``except``, a few that are not PPL, and 200 seeded
random PPL expressions, each unparsed and compiled from its text.

Regenerate the golden file (only when a change to the records is intended)
with ``PYTHONPATH=src python tests/test_compile_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import compile_query
from repro.hcl.answering import plan_for
from repro.hcl.plan import LEAF
from repro.workloads.query_gen import random_ppl_expression

GOLDEN = Path(__file__).resolve().parent / "golden" / "compile_plans.json"

PAIR = (
    "descendant::book[ child::author[. is $y] and child::title[. is $z]"
    " and ( child::author or child::u1x7 ) ]",
    ("y", "z"),
)
TRIPLE = (
    "descendant::book[. is $b][ child::author[. is $y] and child::title[. is $z]"
    " and ( child::title or child::u1x8 ) ]",
    ("b", "y", "z"),
)
SIBLING = (
    "descendant::author[. is $y]/"
    "( following-sibling::title union following-sibling::u1x9 )[. is $z]",
    ("y", "z"),
)
PRECEDING = (
    "descendant::title[. is $z]/( preceding::price union preceding::u1x10 )[. is $p]",
    ("z", "p"),
)
ATTRIBUTES = (
    "name", "address", "phone", "fax", "street",
    "streetnumber", "district", "city", "country", "avgprice",
)


def _restaurant(width: int) -> tuple[str, tuple[str, ...]]:
    variables = tuple(f"x{i}" for i in range(1, width + 1))
    tests = " and ".join(
        f"child::{label}[. is ${var}]" for label, var in zip(ATTRIBUTES, variables)
    )
    return (
        f"descendant::restaurant[ {tests} and ( child::name or child::u1x{width} ) ]",
        variables,
    )


NEGATED = [
    ("descendant::book[not(child::price or child::u2)][. is $b]", ("b",)),
    ("descendant::book[not child::price][child::title[. is $t]]", ("t",)),
    ("descendant::book[not(child::price and not(child::year))]/child::title[. is $t]", ("t",)),
    ("(descendant::author except descendant::book/child::author)", ()),
    ("descendant::book/(child::author except child::title)[. is $a]", ("a",)),
    ("(descendant::* except child::*)/child::title[. is $t]", ("t",)),
    ("descendant::book[(child::author intersect child::*) and child::title[. is $t]]", ("t",)),
    ("descendant::book[not(. is .)]", ()),
    ("descendant::a[not(child::b/following-sibling::c except child::d)][. is $x]", ("x",)),
]

NOT_PPL = [
    ("for $x in descendant::a return child::b[. is $x]", ("x",)),
    ("descendant::a[. is $x]/child::b[. is $x]", ("x",)),
    ("descendant::a[not(. is $x)]", ("x",)),
    ("(descendant::a[. is $x] intersect descendant::b)", ("x",)),
    ("(descendant::a except descendant::b[. is $y])", ("y",)),
    ("descendant::a[. is $x][child::b[. is $x]]", ("x",)),
    ("descendant::a[child::b[. is $x] and child::c[. is $x]]", ("x",)),
    ("$x/child::a[$x is $y]", ("x", "y")),
    (
        "for $x in descendant::a[. is $y]/child::b[. is $y] return"
        " (child::c[. is $x] intersect child::d[not(. is $z)])[child::e and . is $w]",
        ("x", "y", "z", "w"),
    ),
]

OTHER = [
    ("descendant::a[$x is $y]", ("x", "y")),
    ("descendant::a[. is .]/self::*", ()),
    ("$x/child::a[. is $y]", ("x", "y")),
    ("descendant::a[. is $x] union descendant::b[. is $y]", ("x", "y")),
    ("(descendant::a union descendant::b)/child::c[. is $x]/(parent::* union .)", ("x",)),
    ("ancestor-or-self::*[child::a[. is $x] or child::b[. is $y]]", ("x", "y")),
]


def _random_queries() -> list[tuple[str, tuple[str, ...]]]:
    queries = []
    for seed in range(200):
        expression, variables = random_ppl_expression(
            6 + seed % 10, seed % 4, alphabet=("a", "b", "c"), seed=seed
        )
        queries.append((expression.unparse(), tuple(variables)))
    return queries


def _queries() -> list[tuple[str, tuple[str, ...]]]:
    shapes = [PAIR, TRIPLE, SIBLING, PRECEDING]
    shapes += [_restaurant(width) for width in range(6, 11)]
    return shapes + NEGATED + NOT_PPL + OTHER + _random_queries()


def _unparse_instruction(instruction: tuple) -> list:
    opcode, first, second = instruction
    return [opcode, first.unparse() if opcode == LEAF else first, second]


def _record(text: str, variables: tuple[str, ...]) -> dict:
    query = compile_query(text, variables, require_ppl=False)
    record = {
        "text": text,
        "variables": list(variables),
        "plan_text": query.plan_text,
        "violations": [violation.condition for violation in query.violations],
        "hcl": query.hcl.unparse() if query.hcl is not None else None,
        "pplbin": query.pplbin.unparse() if query.pplbin is not None else None,
        "expression_size": query.expression_size,
        "hcl_size": query.hcl_size,
        "distinct_leaves": query.distinct_leaves,
        "plan": None,
    }
    if query.hcl is not None:
        plan = plan_for(query.hcl, variables)
        record["plan"] = {
            "instructions": [_unparse_instruction(item) for item in plan.instructions],
            "root": plan.root,
            "domains": plan.domains,
            "users": plan.users,
            "projected": plan.projected,
            "layouts": plan.layouts,
            "final": plan.final,
        }
    # Tuples and lists compare as JSON does.
    return json.loads(json.dumps(record))


def _records() -> list[dict]:
    return [_record(text, variables) for text, variables in _queries()]


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_query(golden):
    assert [(entry["text"], tuple(entry["variables"])) for entry in golden] == _queries()


def test_every_stage_matches_the_golden(golden):
    for expected, actual in zip(golden, _records(), strict=True):
        assert actual == expected, expected["text"]


def test_golden_exercises_every_kind_of_query(golden):
    assert sum(entry["plan"] is None for entry in golden) == len(NOT_PPL)
    assert any(entry["pplbin"] and "except" in entry["pplbin"] for entry in golden)
    conditions = {condition for entry in golden for condition in entry["violations"]}
    assert conditions == {
        "N(for)", "NV(intersect)", "NV(except)", "NV(not)", "NVS(/)", "NVS([])", "NVS(and)",
    }


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(record) for record in _records())
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
