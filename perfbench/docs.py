"""Seeded documents, query texts and reference answers for the benchmark.

Everything the program under test receives is generated here from the
run's seed, so the same seed gives byte-identical inputs.  The reference
answers are computed by a direct walk over the XML text (parsed with the
standard library, nodes numbered in preorder as the paper's data model and
``repro.trees.Tree`` both do); they share no code with the program, so a
wrong answer anywhere in the pipeline shows up as a mismatch.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from itertools import product

DECOYS = ("year", "publisher", "price")
ATTRIBUTES = (
    "name", "address", "phone", "fax", "street",
    "streetnumber", "district", "city", "country", "avgprice",
)


# ------------------------------------------------------------------ documents
def bibliography_xml(books: int, rng: random.Random) -> str:
    """A ``bib`` root over ``books`` books of 5 shuffled children each.

    Each book holds two authors, one title and two decoys, so the document
    has ``1 + 6 * books`` nodes (320 books: 1,921 nodes).
    """
    parts = ["<bib>"]
    for _ in range(books):
        children = ["author", "author", "title", rng.choice(DECOYS), rng.choice(DECOYS)]
        rng.shuffle(children)
        parts.append("<book>" + "".join(f"<{c}/>" for c in children) + "</book>")
    parts.append("</bib>")
    return "".join(parts)


def restaurants_xml(count: int, rng: random.Random) -> str:
    """A ``guide`` root over restaurants with 10 attributes and one review.

    ``1 + 12 * count`` nodes (60 restaurants: 721 nodes); child order is
    shuffled per restaurant.
    """
    parts = ["<guide>"]
    for _ in range(count):
        children = list(ATTRIBUTES) + ["review"]
        rng.shuffle(children)
        parts.append(
            "<restaurant>" + "".join(f"<{c}/>" for c in children) + "</restaurant>"
        )
    parts.append("</guide>")
    return "".join(parts)


def zipf_books(documents: int, largest: int = 96, skew: float = 0.5) -> list[int]:
    """Book counts with Zipf size skew: 96 books (577 nodes) down to 12 (73)."""
    return [max(1, round(largest / (i + 1) ** skew)) for i in range(documents)]


# ------------------------------------------------------------- query shapes
# Each shape is (text template, variables); ``{tag}`` receives a label that
# never occurs in a generated document, so the extra disjunct never matches
# and the answer set equals the reference shape's.
PAIR = (
    "descendant::book[ child::author[. is $y] and child::title[. is $z]"
    " and ( child::author or child::{tag} ) ]",
    ("y", "z"),
)
TRIPLE = (
    "descendant::book[. is $b][ child::author[. is $y] and child::title[. is $z]"
    " and ( child::title or child::{tag} ) ]",
    ("b", "y", "z"),
)
SIBLING = (
    "descendant::author[. is $y]/"
    "( following-sibling::title union following-sibling::{tag} )[. is $z]",
    ("y", "z"),
)
PRECEDING = (
    "descendant::title[. is $z]/( preceding::price union preceding::{tag} )[. is $p]",
    ("z", "p"),
)


def restaurant_shape(width: int) -> tuple[str, tuple[str, ...]]:
    """The paper's wide-tuple query over the first ``width`` attributes."""
    variables = tuple(f"x{i}" for i in range(1, width + 1))
    tests = " and ".join(
        f"child::{label}[. is ${var}]" for label, var in zip(ATTRIBUTES, variables)
    )
    return (
        f"descendant::restaurant[ {tests} and ( child::name or child::{{tag}} ) ]",
        variables,
    )


# --------------------------------------------------------- reference answers
class Walk:
    """Preorder-numbered view of one XML text, built without the program."""

    __slots__ = ("labels", "parent", "children", "end")

    def __init__(self, text: str) -> None:
        self.labels: list[str] = []
        self.parent: list[int] = []
        self.children: list[list[int]] = []
        stack = [(ET.fromstring(text), -1)]
        while stack:
            element, parent = stack.pop()
            uid = len(self.labels)
            self.labels.append(element.tag)
            self.parent.append(parent)
            self.children.append([])
            if parent >= 0:
                self.children[parent].append(uid)
            stack.extend((child, uid) for child in reversed(list(element)))
        # Descendants of u are exactly the preorder ids in (u, end[u]].
        self.end = list(range(len(self.labels)))
        for uid in range(len(self.labels) - 1, 0, -1):
            parent = self.parent[uid]
            self.end[parent] = max(self.end[parent], self.end[uid])

    def below_root(self, label: str) -> list[int]:
        """Nodes with ``label`` reachable by ``descendant::`` from some node."""
        return [u for u in range(1, len(self.labels)) if self.labels[u] == label]

    def kids(self, node: int, label: str) -> list[int]:
        return [c for c in self.children[node] if self.labels[c] == label]


def reference(walk: Walk, shape: tuple[str, tuple[str, ...]]) -> frozenset:
    """The answer set of ``shape`` on ``walk`` by direct enumeration."""
    text, variables = shape
    if shape == PAIR:
        return frozenset(
            (a, t)
            for b in walk.below_root("book")
            for a in walk.kids(b, "author")
            for t in walk.kids(b, "title")
        )
    if shape == TRIPLE:
        return frozenset(
            (b, a, t)
            for b in walk.below_root("book")
            for a in walk.kids(b, "author")
            for t in walk.kids(b, "title")
        )
    if shape == SIBLING:
        answers = set()
        for a in walk.below_root("author"):
            siblings = walk.children[walk.parent[a]]
            later = siblings[siblings.index(a) + 1 :]
            answers.update((a, t) for t in later if walk.labels[t] == "title")
        return frozenset(answers)
    if shape == PRECEDING:
        # v precedes u: earlier in document order and not an ancestor of u.
        prices = walk.below_root("price")
        return frozenset(
            (t, p)
            for t in walk.below_root("title")
            for p in prices
            if p < t and walk.end[p] < t
        )
    labels = ATTRIBUTES[: len(variables)]
    answers = set()
    for r in walk.below_root("restaurant"):
        answers.update(product(*(walk.kids(r, label) for label in labels)))
    return frozenset(answers)
