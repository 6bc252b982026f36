"""repro.serve — the asyncio serving layer with a persistent plan cache.

Architecture
============

This package turns the batch-oriented corpus machinery into a *server*:
queries arrive concurrently, answers stream back per document as they
complete, and compiled plans persist across process restarts.  It is the
fourth layer of the stack, strictly on top of the previous three::

    repro.xpath / repro.core / repro.pplbin    expression pipeline
    repro.api                                  Document / Query facade
    repro.corpus                               DocumentStore + CorpusExecutor
    repro.serve                                asyncio front end + plan cache

(:mod:`repro.cluster` scales this layer across processes: N member
servers behind one public port with cost-aware document placement.)

Request path
------------

::

    client ──ndjson──▶ ProtocolServer ──▶ CorpusServer.submit()
                                             │  admission check (max_queue)
                                             │  plan-cache compile (off-loop)
                                             ▼
                                     per-document jobs ──▶ semaphore
                                             │              (max_concurrent)
                                             ▼
                              CorpusExecutor.submit_document()
                                 serial         → one dispatch thread
                                 processes      → the document's shard pool
                                             │
                                 asyncio.wrap_future  (loop never blocks)
                                             ▼
                        bounded per-submission queue ──▶ async iterator
                                             │
    client ◀──ndjson── one "result" line per document, then "done"

Three bounds govern overload behaviour, from the outside in: ``max_queue``
rejects whole submissions when admission is exhausted (clients see a typed
``overloaded`` error and may retry), ``max_concurrent`` bounds evaluation
parallelism, and each submission's ``stream_buffer`` applies per-client
backpressure so one slow reader cannot buffer the corpus into memory.

Warm starts
-----------

Compilation — parse, Definition 1 check, the Fig. 7 HCL⁻(PPLbin) and Fig. 4
PPLbin translations — is document-independent, so its output is worth
keeping.  :class:`repro.serve.plancache.PlanCache` persists compiled
:class:`repro.api.Query` values to disk, content-addressed by (format
version, expression text, variables, engine) with corruption-tolerant loads
and an LRU byte budget; a server restarted over the same workload skips
compilation entirely (experiment E11 measures the startup-to-first-answer
effect).  Targeted shard refresh on the executor side complements it at the
corpus level: adding or discarding documents rebuilds only the affected
shard pools, keeping the remaining workers' caches warm while serving.

Entry points
------------

* :class:`CorpusServer` — in-process asyncio API (``await server.submit``).
* :class:`ProtocolServer` — NDJSON over TCP/stdio for external clients.
* :class:`PlanCache` — the persistent compiled-plan store.
* CLI: ``repro-xpath serve run | query | stats | warm``.
"""

from repro.serve.plancache import ANY_ENGINE, FORMAT_VERSION, PlanCache, PlanCacheStats
from repro.serve.server import (
    CorpusServer,
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
    ServerStats,
    Submission,
)
from repro.serve.protocol import ProtocolServer, UnauthorizedError, request_lines

__all__ = [
    "UnauthorizedError",
    "ANY_ENGINE",
    "FORMAT_VERSION",
    "PlanCache",
    "PlanCacheStats",
    "CorpusServer",
    "ServeError",
    "ServerClosedError",
    "ServerOverloadedError",
    "ServerStats",
    "Submission",
    "ProtocolServer",
    "request_lines",
]
