"""repro.session — one execution-context API over the whole stack.

The fifth layer of the stack, and the one callers are meant to hold::

    repro.xpath / repro.core / repro.pplbin    expression pipeline
    repro.api                                  Document / Query facade
    repro.corpus                               DocumentStore + CorpusExecutor
    repro.serve                                asyncio front end + plan cache
    repro.session                              Session + policies  (this layer)

A :class:`Session` owns the resources the earlier layers scattered —
document store, worker pools, plan/answer/matrix caches, the async server —
configured by two frozen policies with one documented precedence chain
(*explicit argument > policy > environment > default*), and exposes a
symmetric sync/async surface (:meth:`Session.query`,
:meth:`Session.query_corpus`, :meth:`Session.aquery`,
:meth:`Session.astream`) with context-manager lifecycle and deterministic
teardown.

Quickstart::

    from repro.session import ExecutionPolicy, Session

    with Session(execution=ExecutionPolicy(strategy="processes")) as session:
        session.add_directory("corpus/")
        for result in session.query_corpus(("descendant::a[. is $x]", ["x"])):
            print(result.doc_name, len(result.answers))

The layers below stay usable on their own: :class:`repro.api.Document` is
a plain value type for one document, and :class:`repro.corpus.CorpusExecutor`
and :class:`repro.serve.CorpusServer` are the components a session builds
and wires to its store, plan memo and policies.  The README's migration
table lists the removed entry points and their replacements.
"""

from repro.errors import CorpusTimeoutError, SessionClosedError, SessionError
from repro.session.policy import (
    ANSWER_CACHE_BYTES_ENV,
    ENGINE_ENV,
    KERNEL_ENV,
    MATRIX_CACHE_BYTES_ENV,
    MAX_RESIDENT_ENV,
    MAX_WORKERS_ENV,
    PLAN_CACHE_BYTES_ENV,
    PLAN_CACHE_DIR_ENV,
    SLOW_QUERY_SECONDS_ENV,
    SNAPSHOT_BYTES_ENV,
    SNAPSHOT_DIR_ENV,
    STRATEGY_ENV,
    TIMEOUT_ENV,
    TRACE_ENV,
    UNSET,
    ExecutionPolicy,
    Resolved,
    ServingPolicy,
)
from repro.session.tokens import CancellationToken
from repro.session.session import Session

__all__ = [
    "Session",
    "ExecutionPolicy",
    "ServingPolicy",
    "Resolved",
    "UNSET",
    "CancellationToken",
    "SessionError",
    "SessionClosedError",
    "CorpusTimeoutError",
    "ENGINE_ENV",
    "KERNEL_ENV",
    "STRATEGY_ENV",
    "MAX_WORKERS_ENV",
    "MAX_RESIDENT_ENV",
    "ANSWER_CACHE_BYTES_ENV",
    "MATRIX_CACHE_BYTES_ENV",
    "PLAN_CACHE_DIR_ENV",
    "PLAN_CACHE_BYTES_ENV",
    "SNAPSHOT_DIR_ENV",
    "SNAPSHOT_BYTES_ENV",
    "TIMEOUT_ENV",
    "TRACE_ENV",
    "SLOW_QUERY_SECONDS_ENV",
]
