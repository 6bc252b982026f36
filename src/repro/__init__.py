"""repro — Polynomial time fragments of XPath with variables (PODS 2007).

A complete implementation of the paper's languages and algorithms:

* the tree data model and all XPath axes (:mod:`repro.trees`),
* Core XPath 2.0 with its naive exponential engine (:mod:`repro.xpath`),
* FO logic over trees and the Lemma 1 translation (:mod:`repro.fo`),
* PPLbin and the cubic matrix evaluation of Theorem 2 (:mod:`repro.pplbin`),
* the hybrid composition language, Lemma 3 sharing, the Fig. 8 answering
  algorithm, ACQs and Yannakakis (:mod:`repro.hcl`),
* PPL — Definition 1, the Fig. 7 translation and the polynomial engine of
  Theorem 1 (:mod:`repro.core`),
* hardness constructions (Proposition 3, Corollary 1) (:mod:`repro.hardness`),
* synthetic workloads (:mod:`repro.workloads`).

Typical usage — the :mod:`repro.api` facade::

    from repro import Document

    doc = Document.from_xml("<bib><book><author/><title/></book></bib>")
    pairs = doc.answer(
        "descendant::book[child::author[. is $y] and child::title[. is $z]]",
        ["y", "z"],
    )
    same = doc.answer(
        "descendant::book[child::author[. is $y] and child::title[. is $z]]",
        ["y", "z"],
        engine="naive",
    )

For corpora, serving and shared caches, hold a :class:`repro.session.Session`.

The seed-era entry points (``answer``, ``compile_query``, ``PPLEngine``)
were removed in 1.5.0, two minor releases after their 1.2 deprecation;
``answer_batch`` and the flat ``repro-xpath --xml ...`` command line were
removed in 1.8.0 — see the migration table in the README for the
replacements.
"""

from repro.errors import (
    DocumentQuarantinedError,
    EngineCapabilityError,
    EngineError,
    EvaluationError,
    FaultInjectedError,
    NotAcyclicError,
    ObsPortInUseError,
    ParseError,
    ReproError,
    RestrictionViolation,
    TranslationError,
    TreeError,
    UnboundVariableError,
    UnknownEngineError,
    WorkerCrashError,
)
from repro.trees import Node, Tree, tree_from_xml, tree_to_xml
from repro.xpath import parse_path, NaiveEngine
from repro.core import is_ppl, check_ppl
from repro.api import (
    Document,
    Query,
    QueryReport,
    available_engines,
    get_engine,
    register_engine,
)
from repro.session import (
    CancellationToken,
    CorpusTimeoutError,
    ExecutionPolicy,
    ServingPolicy,
    Session,
    SessionClosedError,
    SessionError,
)

__version__ = "1.8.0"

__all__ = [
    "__version__",
    "Session",
    "ExecutionPolicy",
    "ServingPolicy",
    "CancellationToken",
    "SessionError",
    "SessionClosedError",
    "CorpusTimeoutError",
    "Node",
    "Tree",
    "tree_from_xml",
    "tree_to_xml",
    "parse_path",
    "NaiveEngine",
    "is_ppl",
    "check_ppl",
    "Document",
    "Query",
    "QueryReport",
    "available_engines",
    "get_engine",
    "register_engine",
    "ReproError",
    "ParseError",
    "TreeError",
    "EvaluationError",
    "UnboundVariableError",
    "RestrictionViolation",
    "TranslationError",
    "NotAcyclicError",
    "EngineError",
    "UnknownEngineError",
    "EngineCapabilityError",
    "DocumentQuarantinedError",
    "FaultInjectedError",
    "WorkerCrashError",
    "ObsPortInUseError",
]
