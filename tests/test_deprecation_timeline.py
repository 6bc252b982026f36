"""Guard that the supported Session surface stays warning-free.

The deprecated API tail (``answer``, ``compile_query``, ``PPLEngine``,
``answer_batch`` and the warning on direct :class:`repro.api.Document`
construction) has been removed.  What remains must not raise a
``DeprecationWarning``, or users would be sent from one deprecation into
another.
"""

from __future__ import annotations

import warnings

from repro.session import Session
from repro.trees.tree import Node, Tree

PAIR_QUERY = "descendant::book[child::author[. is $y] and child::title[. is $z]]"
PAIR_VARS = ("y", "z")


def bib_tree() -> Tree:
    return Tree(
        Node(
            "bib",
            Node("book", Node("author"), Node("title")),
            Node("book", Node("title"), Node("price")),
        )
    )


def test_session_paths_do_not_warn():
    """The replacement surface must stay warning-free, or the timeline
    message sends users from one deprecation into another."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with Session(strategy="serial") as session:
            session.add_tree("bib", bib_tree())
            results = list(session.query_corpus([(PAIR_QUERY, PAIR_VARS)]))
    assert results and results[0].answers
