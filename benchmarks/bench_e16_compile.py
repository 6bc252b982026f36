"""E16 — compile cost: text to ``Query`` to Fig. 8 plan, per fresh text.

Theorem 1's bound assumes that compiling a query is linear in ``|P|``: the
parser, the Definition 1 check, the Fig. 7 translation, the NVS(/) check,
the Lemma 3 normalisation and the plan compilation are syntactic passes.
Every fresh text a session sees pays them all, so their constant matters as
much as their growth.  Two measurements:

* **cost per shape** — the median microseconds of
  :func:`repro.api.compile_query` and of :func:`repro.hcl.answering.plan_for`
  over fresh texts of the benchmark's query shapes (the author/title pair,
  the book triple, sibling and preceding pairs, restaurant widths 6-10);
  each text carries a fresh label, so no compile is a memo hit;
* **linear growth (the gate)** — ``children()`` calls on XPath and HCL
  nodes while compiling and planning a filter of ``k`` conjuncts, for
  ``k`` = 50 ... 2,000.  Each doubling of ``k`` may at most multiply the
  count by 2.2, and the longest chain must compile without hitting the
  recursion limit.  Counts, unlike times, do not flake.

Run standalone to produce ``BENCH_compile.json`` in the repository root::

    PYTHONPATH=src python benchmarks/bench_e16_compile.py

Set ``REPRO_BENCH_SCALE=smoke`` for the reduced CI scale (fewer texts per
shape; the same chains and the same gate).
"""

from __future__ import annotations

import math
import os
import statistics
import time

from repro.api import compile_query
from repro.hcl.answering import plan_for
from repro.hcl.ast import HclExpr
from repro.xpath.ast import _Expr

from bench_utils import write_bench_json

SMOKE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke"

TEXTS_PER_SHAPE = 100 if SMOKE else 500
CHAIN_SIZES = (50, 100, 200, 400, 2000)
GROWTH_PER_DOUBLING = 2.2

ATTRIBUTES = (
    "name", "address", "phone", "fax", "street",
    "streetnumber", "district", "city", "country", "avgprice",
)


def _restaurant(width: int) -> tuple[str, tuple[str, ...]]:
    variables = tuple(f"x{index}" for index in range(1, width + 1))
    tests = " and ".join(
        f"child::{label}[. is ${name}]" for label, name in zip(ATTRIBUTES, variables)
    )
    return (
        f"descendant::restaurant[ {tests} and ( child::name or child::{{tag}} ) ]",
        variables,
    )


#: ``name -> (template, variables)``; ``{tag}`` takes a label no document has.
SHAPES = {
    "pair": (
        "descendant::book[ child::author[. is $y] and child::title[. is $z]"
        " and ( child::author or child::{tag} ) ]",
        ("y", "z"),
    ),
    "triple": (
        "descendant::book[. is $b][ child::author[. is $y] and child::title[. is $z]"
        " and ( child::title or child::{tag} ) ]",
        ("b", "y", "z"),
    ),
    "sibling": (
        "descendant::author[. is $y]/"
        "( following-sibling::title union following-sibling::{tag} )[. is $z]",
        ("y", "z"),
    ),
    "preceding": (
        "descendant::title[. is $z]/( preceding::price union preceding::{tag} )[. is $p]",
        ("z", "p"),
    ),
    **{f"restaurant{width}": _restaurant(width) for width in range(6, 11)},
}


def shape_costs() -> dict:
    """Median µs of ``compile_query`` and ``plan_for`` per shape, fresh texts."""
    costs = {}
    for name, (template, variables) in SHAPES.items():
        compile_us, plan_us = [], []
        for index in range(TEXTS_PER_SHAPE):
            text = template.format(tag=f"e16x{index}")
            started = time.perf_counter()
            query = compile_query(text, variables)
            compiled = time.perf_counter()
            plan_for(query.hcl, variables)
            planned = time.perf_counter()
            compile_us.append((compiled - started) * 1e6)
            plan_us.append((planned - compiled) * 1e6)
        costs[name] = {
            "compile_query_us": round(statistics.median(compile_us), 1),
            "plan_for_us": round(statistics.median(plan_us), 1),
            "expression_size": query.expression_size,
        }
    return costs


def chain(k: int) -> tuple[str, tuple[str, ...]]:
    """A filter of ``k`` variable-free conjuncts between two variables."""
    tests = " and ".join(f"child::c{index}" for index in range(k))
    return f"descendant::r[child::a[. is $x] and {tests}]/child::b[. is $y]", ("x", "y")


def _classes(base: type) -> list[type]:
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def chain_visits() -> list[dict]:
    """``children()`` calls and seconds compiling and planning each chain."""
    counter = [0]
    patched = []
    for cls in _classes(_Expr) + _classes(HclExpr):
        if "children" in vars(cls):
            original = vars(cls)["children"]

            def children(self, original=original):
                counter[0] += 1
                return original(self)

            patched.append((cls, original))
            cls.children = children
    rows = []
    try:
        for k in CHAIN_SIZES:
            text, variables = chain(k)
            counter[0] = 0
            started = time.perf_counter()
            try:
                plan_for(compile_query(text, variables).hcl, variables)
                error = None
            except RecursionError as exc:
                error = f"RecursionError: {exc}"
            rows.append(
                {
                    "k": k,
                    "visits": counter[0],
                    "seconds": round(time.perf_counter() - started, 4),
                    "error": error,
                }
            )
    finally:
        for cls, original in patched:
            cls.children = original
    for previous, row in zip(rows, rows[1:]):
        doublings = math.log2(row["k"] / previous["k"])
        row["growth_per_doubling"] = round(
            (row["visits"] / previous["visits"]) ** (1 / doublings), 3
        )
    return rows


def main() -> int:
    visits = chain_visits()
    linear = all(row["error"] is None for row in visits) and all(
        row["growth_per_doubling"] <= GROWTH_PER_DOUBLING for row in visits[1:]
    )
    payload = {
        "config": {
            "smoke": SMOKE,
            "texts_per_shape": TEXTS_PER_SHAPE,
            "chain_sizes": CHAIN_SIZES,
            "growth_gate": GROWTH_PER_DOUBLING,
        },
        "shapes": shape_costs(),
        "chains": visits,
        "ok": linear,
    }
    path = write_bench_json("compile", payload)
    print(f"wrote {path}")
    for name, cost in payload["shapes"].items():
        print(
            f"{name:14s} compile_query {cost['compile_query_us']:7.1f} us  "
            f"plan_for {cost['plan_for_us']:7.1f} us"
        )
    for row in visits:
        growth = row.get("growth_per_doubling", "-")
        print(
            f"k={row['k']:5d} visits={row['visits']:7d} growth/doubling={growth} "
            f"error={row['error']}"
        )
    print(f"ok={linear} (gate: growth per doubling <= {GROWTH_PER_DOUBLING}, no RecursionError)")
    return 0 if linear else 1


if __name__ == "__main__":
    raise SystemExit(main())
