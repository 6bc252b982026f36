"""Shared fixtures for the test-suite.

The documents here are intentionally small: every polynomial algorithm is
cross-checked against a naive exponential oracle, so the fixtures must stay
within what brute-force enumeration can handle.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The E2/E9 baseline products (``matmul_baselines``) live in benchmarks/;
# the tests that keep them honest import them from there.
sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))

from repro.trees.tree import Node, Tree
from repro.workloads.bibliography import generate_bibliography


@pytest.fixture
def tiny_tree() -> Tree:
    """a(b, c(d, b)) — five nodes, duplicate label b."""
    return Tree(Node("a", Node("b"), Node("c", Node("d"), Node("b"))))


@pytest.fixture
def paper_bib() -> Tree:
    """A bibliography shaped like the paper's introductory example.

    bib
      book(author, title, year)
      book(author, author, title)
      book(title, price)          <- no author: contributes no pair
    """
    return Tree(
        Node(
            "bib",
            Node("book", Node("author"), Node("title"), Node("year")),
            Node("book", Node("author"), Node("author"), Node("title")),
            Node("book", Node("title"), Node("price")),
        )
    )


@pytest.fixture
def generated_bib() -> Tree:
    """A slightly larger generated bibliography (still naive-oracle friendly)."""
    return generate_bibliography(4, authors_per_book=2, titles_per_book=1, seed=2)


@pytest.fixture
def wide_tree() -> Tree:
    """A root with several leaf children of alternating labels."""
    return Tree(Node("r", *(Node("a" if i % 2 == 0 else "b") for i in range(6))))


@pytest.fixture
def deep_tree() -> Tree:
    """A chain a/b/a/b/a of depth 5."""
    leaf = Node("a")
    current = leaf
    for index in range(4):
        current = Node("b" if index % 2 == 0 else "a", current)
    return Tree(current)
