"""repro.api — the unified Document/Query facade and engine registry.

This package is the one public query surface of the library.  Everything the
seed exposed through three overlapping entry points now goes through two
value types and a registry:

* :class:`Document` — wraps a tree and owns all per-document state (the
  shared PPLbin oracle, the Fig. 8 answerer, a bounded compiled-query memo);
* :class:`Query` — a compiled, document-independent query carrying the
  parsed AST, the Definition 1 check result and the HCL⁻/PPLbin
  translations;
* the engine registry — string-keyed backends (``"polynomial"``,
  ``"naive"``, ``"corexpath1"``, ``"yannakakis"``) with capability flags, so
  dispatch fails with a typed error before evaluation.

Migration from the seed API
---------------------------
===============================================  ===============================================
Old call                                         New call
===============================================  ===============================================
``repro.answer(tree, expr, vars)``               ``Document(tree).answer(expr, vars)``
``PPLEngine(tree).answer(expr, vars)``           ``Document(tree).answer(expr, vars)``
``PPLEngine(tree).nonempty(expr)``               ``Document(tree).nonempty(expr)``
``PPLEngine(tree).pairs(expr)``                  ``Document(tree).pairs(expr)``
``PPLEngine(tree).report(expr, vars)``           ``Document(tree).report(expr, vars)``
``NaiveEngine(tree).answer(expr, vars)``         ``Document(tree).answer(expr, vars, engine="naive")``
``compile_query(expr, vars).run(tree)``          ``Document(tree).answer(compile_query(expr, vars))``
``monadic_answer(tree, pplbin_expr)``            ``get_engine("corexpath1").monadic(doc, doc.compile(expr))``
loop over queries                                ``Document(tree).answer_many(queries)``
===============================================  ===============================================

The seed-era shims (``repro.answer``, the legacy ``compile_query`` with its
``CompiledQuery.run``, ``PPLEngine`` and the whole ``repro.core.api``
module) were removed in 1.5.0 — the left column above is what old code
looked like, not something that still imports.  ``answer_batch`` and the
flat ``repro-xpath --xml ...`` command line were removed in 1.8.0: one query
over many documents is :meth:`repro.session.Session.query_corpus`, and the
command line is ``repro-xpath answer``/``check``.

Typical usage::

    from repro.api import Document, compile_query, get_engine

    doc = Document.from_file("bib.xml")
    query = compile_query(
        "descendant::book[child::author[. is $y] and child::title[. is $z]]",
        ["y", "z"],
    )
    pairs = doc.answer(query)                      # polynomial engine
    same = doc.answer(query, engine="naive")       # cross-check backend
"""

from repro.api.registry import (
    DEFAULT_ENGINE,
    Engine,
    EngineCapabilities,
    available_engines,
    check_capabilities,
    get_engine,
    register_engine,
)
from repro.api.query import Query, compile_query
from repro.api.document import Document, answer, as_document
from repro.api import engines as _engines  # registers the built-in backends
from repro.api.engines import (
    BUILTIN_ENGINES,
    CoreXPath1Backend,
    NaiveBackend,
    PolynomialEngine,
    YannakakisBackend,
)
from repro.core.engine import QueryReport

__all__ = [
    "DEFAULT_ENGINE",
    "Engine",
    "EngineCapabilities",
    "available_engines",
    "check_capabilities",
    "get_engine",
    "register_engine",
    "Query",
    "QueryReport",
    "compile_query",
    "Document",
    "answer",
    "as_document",
    "BUILTIN_ENGINES",
    "PolynomialEngine",
    "NaiveBackend",
    "CoreXPath1Backend",
    "YannakakisBackend",
]
