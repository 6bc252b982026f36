"""Parallel corpus query execution with streaming results.

The :class:`CorpusExecutor` runs one or many compiled queries across the
documents of a :class:`repro.corpus.store.DocumentStore` under one of two
strategies:

``"serial"``
    One pass over the documents in the calling thread.  The documents
    already resident answer together when the pass starts; every other
    document is materialised only when the consumer pulls its results, so
    a bounded store never holds more than its cap plus one.

``"processes"``
    Documents are sharded across *dedicated* single-worker process pools —
    one ``ProcessPoolExecutor(max_workers=1)`` per shard — rather than one
    shared pool.  The pinning is the point: each worker owns a fixed
    partition of the corpus and keeps its own LRU document cache, so across
    repeated batches a shard's oracle matrices are built exactly once in
    exactly one process.  (A shared pool routes tasks to arbitrary workers,
    which turns every per-worker cache into an accidental thrash.)  Sources
    ship as picklable ``(kind, payload)`` specs and answers ship back as
    plain frozensets; the dense oracle matrices never cross a process
    boundary because they are far cheaper to rebuild than to pickle.

Forest passes
-------------
A pass answers each query *once* over the documents resident when it
starts: their trees are laid end to end as one
:class:`repro.trees.forest.Forest`, Fig. 8 runs over it, and the answers
are split back per document (:func:`_evaluate_documents`).  Under
``"processes"`` each shard whose worker has answered before receives one
batch job per pass, and the worker does this over the documents it holds
(a fresh or respawned worker gets per-document jobs); under ``"serial"``
the parent does it over the store's resident set.  One answer-cache lookup
per query covers all of them; the hits are answered from the cache, and
the misses share the Fig. 8 run: over the misses alone, or, when most
documents miss, over the forest of all of them with the hits' rows
dropped, so the pass's queries reuse one forest.  A (document, query) pair
takes the per-document path instead when the document is not resident
(the forest never forces a load), when the plan has an ``except`` leaf
(the Theorem 2 relation would be quadratic in the whole forest), or when
the engine is not ``polynomial``.  ``submit_document`` and the degraded
fallback stay one document per task.

Books
-----
The bookkeeping is kept once per (pass, query), or once per (shard, query)
under ``"processes"``, not once per document: one answer-cache round trip
each way, one cost meter over the Fig. 8 run, one histogram lock hold and
one ``observe_cost``, and one set of :class:`QueryReport` fields per run
(:class:`QueryBooks`).  What users see per document stays: one
:class:`CorpusResult` and :class:`repro.api.QueryReport` per pair,
answer-cache entries under the same keys, fault points per document key.
``seconds`` and the cost block give each document its share of the run's
time and counters in proportion to its size (integers by largest
remainder) plus its share of the lookup, ``answer_cache_hits``/``misses``
say whether its own lookup hit, and ``cost["forest_documents"]`` says how
many documents the run covered.

Results stream back as :class:`CorpusResult` values — an iterator, not a
list, so aggregation, early exit and pipelining all work without holding a
corpus worth of answer sets.  With ``ordered=True`` (the default) results
arrive in deterministic store order regardless of completion order; with
``ordered=False`` they arrive as soon as any worker finishes.

Fault tolerance
---------------
A shard batch that fails or whose worker dies is re-submitted as
per-document jobs, so everything below applies per document.  The
processes strategy is *supervised*: a worker death
(``BrokenProcessPool`` — OOM kill, native segfault, pickling explosion)
no longer aborts the stream.  The shard's supervisor attributes the crash
to the document that was being evaluated, respawns the pool with
exponential backoff + jitter under a per-shard restart budget
(``max_worker_restarts``), re-dispatches the in-flight documents, and
quarantines a document that kills its worker twice
(:class:`repro.errors.DocumentQuarantinedError` appears as a typed error
record in the stream).  A shard that exhausts its restart budget trips a
circuit breaker and falls back to in-process serial evaluation — degraded,
but available.  Transient per-document failures retry up to ``max_retries``
times with ``retry_backoff`` exponential delays; a *final* failure is
dispatched per ``on_error``: ``"raise"`` (default), ``"record"`` (typed
error records, partial-results semantics) or ``"skip"``.  Every recovery
action increments a labelled metric (``repro_worker_restarts_total``,
``repro_retries_total``, ``repro_quarantined_total``) and the named fault
points of :mod:`repro.faults` make all of it deterministically testable.
"""

from __future__ import annotations

import os
import random
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from repro import faults
from repro._config import UNSET as _UNSET
from repro.core.engine import QueryReport
from repro.api.document import (
    BatchItem,
    CostMeter,
    Document,
    cached_answers_many,
    iter_batch,
    lookup_cost,
    remember_answers_many,
    report_fields,
)
from repro.api.query import PlanMemo, Query, compile_query
from repro.api.registry import DEFAULT_ENGINE, check_capabilities, get_engine
from repro.corpus.cache import PackedAnswers
from repro.corpus.store import CorpusError, DocumentStore, StoreStats
from repro.errors import DocumentQuarantinedError, ReproError
from repro.hcl.answering import forest_safe, plan_for
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.trees.forest import Forest

STRATEGIES = ("serial", "processes")

#: ``on_error`` dispositions for a document whose failure is final.
ON_ERROR_MODES = ("raise", "record", "skip")

#: How many worker deaths a single document may cause before it is
#: quarantined for the life of the executor.
QUARANTINE_AFTER = 2

#: Recovery metric families (labels in parentheses): worker-pool respawns
#: (``strategy``), per-document retry attempts (``reason`` = exception type
#: name), quarantined documents, and shards degraded to in-process serial
#: evaluation.
WORKER_RESTARTS_COUNTER = "repro_worker_restarts_total"
RETRIES_COUNTER = "repro_retries_total"
QUARANTINED_COUNTER = "repro_quarantined_total"
DEGRADED_GAUGE = "repro_degraded_shards"
_RESTARTS_HELP = "Shard worker pools respawned after a worker death"
_RETRIES_HELP = "Per-document retry attempts after a transient failure"
_QUARANTINED_HELP = "Documents quarantined after repeatedly killing workers"
_DEGRADED_HELP = "Shards degraded to in-process serial evaluation"

#: Histogram of per-(document, query) evaluation seconds, labelled by
#: ``(engine, strategy)``.  One family name across parent and shard workers
#: so label-identical worker series merge bucket-by-bucket into the
#: parent's (see :meth:`CorpusExecutor.metrics`).
EVAL_HISTOGRAM = "repro_eval_seconds"
_EVAL_HELP = "Per (document, query) evaluation time in seconds"

#: Counter families aggregated from per-query ``QueryReport.cost`` blocks
#: (see :meth:`repro.api.Document.report`), labelled by ``(engine,
#: strategy)``: cost-block field -> (family name, HELP text).
COST_COUNTERS = {
    "compose_ops": ("repro_compose_ops_total", "PPLbin compose operations"),
    "row_union_ops": ("repro_row_union_ops_total", "PPLbin row-union operations"),
    "relations_built": ("repro_relations_built_total", "PPLbin relations materialised"),
    "set_steps": ("repro_set_steps_total", "Set-at-a-time axis steps of Fig. 8 answering"),
    "matrix_bytes": (
        "repro_matrix_bytes_total",
        "Matrix-cache bytes left resident by query evaluation",
    ),
    "matrix_cache_hits": ("repro_matrix_cache_hits_total", "Matrix-cache hits"),
    "matrix_cache_misses": ("repro_matrix_cache_misses_total", "Matrix-cache misses"),
    "answer_cache_hits": ("repro_answer_cache_hits_total", "Answer-cache hits"),
    "answer_cache_misses": ("repro_answer_cache_misses_total", "Answer-cache misses"),
    "snapshot_hits": ("repro_snapshot_answer_hits_total", "Snapshot answer-set hits"),
}


def observe_cost(
    registry: MetricsRegistry, cost: Optional[dict], *, engine: str, strategy: str
) -> None:
    """Fold one query's resource-accounting block into labelled counters."""
    if not cost:
        return
    labels = {"engine": engine, "strategy": strategy}
    for field, (family, help_text) in COST_COUNTERS.items():
        value = cost.get(field)
        if value:
            registry.counter(family, help_text, labels=labels).inc(value)


def _query_spec(query: Query) -> tuple[str, tuple[str, ...]]:
    """A picklable ``(text, variables)`` spec for shipping to shard workers.

    Reuses the original expression text when the query was compiled from a
    string (the common case) instead of re-walking the AST with
    ``unparse()`` on every per-document submission.
    """
    text = query.text if query.text is not None else query.unparse()
    return (text, query.variables)


@dataclass(frozen=True)
class CorpusResult:
    """One document's answer to one query.

    Iterating the result yields ``(doc_name, report)``, so the streaming
    iterator can be consumed as advertised::

        for doc_name, report in executor.run(query):
            ...

    while the full answer set, timing and query text stay available as
    attributes.

    ``answers`` is a frozenset built before the result is yielded.  The
    report's ``answer_count``, ``tree_size`` and ``cost`` are this
    document's own; its other fields (the query's sizes, engine, kernel,
    ``matrix_cache`` snapshot and ``trace``) are those of the run that
    answered it, shared by every document of that run: a forest run, the
    pass's answer-cache lookup, or the document answered on its own (see
    :class:`QueryBooks`).

    Under ``on_error="record"`` (and always for quarantined documents) a
    document whose failure is final yields *error records* instead of
    aborting the stream: one record per query with ``error``/``error_kind``
    set, an empty answer set and ``report=None``.  Check :attr:`ok` before
    touching the report on streams that opted into partial results.
    """

    doc_name: str
    report: Optional[QueryReport]
    query: str
    variables: tuple[str, ...]
    answers: frozenset[tuple[int, ...]]
    seconds: float
    error: Optional[str] = None
    error_kind: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether this is a real answer (False: typed error record)."""
        return self.error is None

    def __iter__(self):
        yield self.doc_name
        yield self.report


# --------------------------------------------------------------- worker side
#
# Module-level state and functions for the process strategy.  Each shard
# worker process initialises `_WORKER` once with its partition's source
# specs, rebuilt into a local :class:`DocumentStore` — the same tested LRU
# residency code that runs in the parent — plus a compiled-query cache.
_WORKER: dict = {}


def _worker_initialise(
    specs: dict[str, tuple[str, str]],
    max_resident: Optional[int],
    answer_cache_bytes: Optional[int] = None,
    cache_answers: bool = True,
    store_config: Optional[dict] = None,
    trace: bool = False,
    trace_sample: float = 0.0,
    faults_payload=None,
    worker_epoch: int = 0,
) -> None:
    # ``store_config`` carries the *resolved* kernel/matrix-budget settings
    # from the parent.  This is the config-precedence fix: workers used to
    # re-read ``REPRO_KERNEL`` on spawn, so an explicit ``kernel=`` argument
    # lost to the environment inside subprocesses.  The parent now resolves
    # precedence once and ships the outcome; the worker never consults the
    # environment for a knob the caller pinned.
    store = DocumentStore(
        max_resident=max_resident,
        cache_answers=cache_answers,
        answer_cache_bytes=answer_cache_bytes,
        **(store_config or {}),
    )
    for name, (kind, payload) in specs.items():
        if kind == "xml":
            store.add_xml(name, payload)
        else:
            store.add_file(payload, name=name)
    _WORKER["store"] = store
    _WORKER["queries"] = PlanMemo()
    _WORKER["metrics"] = MetricsRegistry()
    _WORKER["forests"] = _ForestCache()
    # A forked worker inherits the parent thread's span stack (the dispatch
    # span is open while pools spawn); start from a clean slate.
    _trace.reset_thread()
    if trace:
        # Tracing was on in the parent when this shard spawned; the flag
        # ships explicitly because set_tracing() state (unlike REPRO_TRACE)
        # does not survive a process boundary.
        _trace.set_tracing(True)
    if trace_sample:
        # Sampling replicates the same way, and separately: a sampled-only
        # parent must produce sampled-only workers, not fully traced ones.
        _trace.set_trace_sample(trace_sample)
    # The fault plan ships explicitly (never inherited): each worker
    # incarnation starts with fresh firing counters, flagged as sacrificial
    # (worker_crash exits the process) at its shard's respawn epoch.
    faults.install_payload(faults_payload, epoch=worker_epoch)


def _worker_query(text: str, variables: tuple[str, ...]) -> Query:
    key = (text, variables)
    query = _WORKER["queries"].get(key)
    if query is None:
        query = _WORKER["queries"].setdefault(
            key, compile_query(text, variables, require_ppl=False)
        )
    return query


def _split(total: float, sizes: Sequence[int]) -> list:
    """Split ``total`` in proportion to ``sizes``; integer totals stay exact.

    Integers go by largest remainder, so the parts are integers that add up
    to ``total``; floats are plain proportional shares.
    """
    if not total:
        return [total] * len(sizes)
    whole = sum(sizes)
    if isinstance(total, float):
        return [total * size / whole for size in sizes]
    parts = [total * size // whole for size in sizes]
    remainders = [total * size % whole for size in sizes]
    order = sorted(range(len(sizes)), key=remainders.__getitem__, reverse=True)
    for index in order[: total - sum(parts)]:
        parts[index] += 1
    return parts


class QueryBooks:
    """One query's books over the documents that one run answered.

    A *run* is one Fig. 8 run over a forest (or a single tree), one
    answer-cache lookup for a pass's documents, or one document answered
    on its own.  The books keep what the run's documents share once: the
    query's text and variables, and the :class:`QueryReport` fields of
    :func:`repro.api.document.report_fields` (sizes of the query, engine,
    kernel, the matrix-cache snapshot and the trace).  Per document they
    keep only its answers, tree size and share of the cost block.  Answers
    are a frozenset, or :class:`repro.corpus.cache.PackedAnswers` rows that
    :meth:`result` unpacks.  A shard worker returns its batch as references
    into these books, so each pickles once per (shard, query), however
    many documents it holds.
    """

    __slots__ = ("text", "variables", "fields", "answers", "sizes", "costs")

    def __init__(self, text, variables, fields, answers, sizes, costs) -> None:
        self.text = text
        self.variables = variables
        self.fields = fields
        self.answers = answers
        self.sizes = sizes
        self.costs = costs

    def result(self, name: str, position: int) -> CorpusResult:
        """The :class:`CorpusResult` of the document at ``position``, named ``name``."""
        answers = self.answers[position]
        if not isinstance(answers, frozenset):
            answers = answers.unpack()
        cost = self.costs[position]
        report = _frozen(
            QueryReport,
            {
                **self.fields,
                "answer_count": len(answers),
                "tree_size": self.sizes[position],
                "cost": cost,
            },
        )
        return _frozen(
            CorpusResult,
            {
                "doc_name": name,
                "report": report,
                "query": self.text,
                "variables": self.variables,
                "answers": answers,
                "seconds": cost["seconds"],
                "error": None,
                "error_kind": None,
            },
        )


def _frozen(cls, values: dict):
    """An instance of the frozen dataclass ``cls`` whose fields are ``values``.

    Equal to ``cls(**values)`` when ``values`` names every field and ``cls``
    has no ``__post_init__``, without the generated ``__init__``, which
    pays one guarded ``object.__setattr__`` per field: a pass builds two
    such values per (document, query).
    """
    instance = object.__new__(cls)
    object.__setattr__(instance, "__dict__", values)
    return instance


#: One document's results as they ship from wherever it was evaluated: one
#: ``(books, position)`` reference per query.
Payload = list[tuple[QueryBooks, int]]


def _results(name: str, payload: Payload) -> list[CorpusResult]:
    return [books.result(name, position) for books, position in payload]


class _ForestCache:
    """The last :class:`repro.trees.forest.Forest` built, reused across passes.

    Keyed by the identity of the documents' trees: a reload or a same-name
    replacement builds a new tree, so a changed document can never be
    answered from a stale forest.  The cached forest keeps its trees alive
    until the next forest replaces it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._trees: tuple = ()
        self._forest = None

    def get(self, documents: Sequence[Document]) -> Forest:
        trees = tuple(document.tree for document in documents)
        with self._lock:
            if len(trees) == len(self._trees) and all(
                mine is theirs for mine, theirs in zip(trees, self._trees)
            ):
                return self._forest
        with _trace.span("corpus.forest.build", documents=len(trees)):
            forest = Forest(trees)
        with self._lock:
            self._trees, self._forest = trees, forest
        return forest


def _forest_plan(query: Query, engine: str):
    """The Fig. 8 plan when ``query`` may share a forest run, else ``None``.

    Only the polynomial engine runs Fig. 8, and only plans without an
    ``except`` leaf stay linear over a forest (see
    :func:`repro.hcl.answering.forest_safe`).  A query the engine would
    reject returns ``None``, so the per-document path raises as before.
    """
    try:
        backend = get_engine(engine)
        if backend.name != "polynomial":
            return None
        check_capabilities(backend, query)
        plan = plan_for(query.hcl, query.variables)
    except ReproError:
        return None
    return plan if forest_safe(plan) else None


#: One run's books: the :class:`QueryBooks`, the entry index of each of
#: its positions, and the run's integer cost totals for the labelled
#: counters.
Run = tuple[QueryBooks, list[int], dict]


def _evaluate_documents(
    entries: Sequence[tuple[str, Document]],
    queries: Sequence[Query],
    engine: str,
    registry: MetricsRegistry,
    strategy: str,
    *,
    site: str,
    forests: Optional[_ForestCache] = None,
) -> list:
    """Answer every query on several resident documents, wherever they live.

    The one evaluation loop shared by the shard workers, the serial
    strategy and the degraded in-parent fallback — identical code on every
    path is what makes "byte-identical answers across strategies" a
    structural property rather than a test assertion.

    Returns one outcome per entry: the document's :data:`Payload`, one
    ``(books, position)`` reference per query, or the exception that ended
    its attempt.  The books are kept once per query and run
    (:class:`QueryBooks`), not once per document.  With ``forests`` and
    more than one document, each query the forest can take
    (:func:`_forest_plan`) costs one answer-cache round trip each way and
    one Fig. 8 run under one cost meter (:func:`_answer_forest`); the rest
    answer one document at a time.  Either way each query ends with one
    histogram lock hold, which still records one observation per
    (document, query), and one ``observe_cost`` of the query's totals.
    The :mod:`repro.faults` points bracket each document:
    ``worker_crash``/``slow_query`` fire before the first evaluation (where
    an arriving dispatch would die), ``pickle_error`` after the last (where
    result marshalling would).
    """
    outcomes: list = [None] * len(entries)
    refs: dict[int, Payload] = {}
    for index, (name, _) in enumerate(entries):
        try:
            faults.trip("worker_crash", key=name, site=site)
            faults.trip("slow_query", key=name, site=site)
        except Exception as error:  # noqa: BLE001 — ends this document's attempt
            outcomes[index] = error
        else:
            refs[index] = []
    histogram = registry.histogram(
        EVAL_HISTOGRAM, _EVAL_HELP, labels={"engine": engine, "strategy": strategy}
    )
    for query in queries:
        text, variables = _query_spec(query)
        alone = list(refs)
        plan = _forest_plan(query, engine) if forests is not None and len(alone) > 1 else None
        runs: list[Run] = []
        if plan is not None:
            runs, alone = _answer_forest(entries, alone, query, plan, forests, engine)
        for index in alone:
            document = entries[index][1]
            if _trace.enabled():
                _trace.take_last_trace()
            try:
                meter = document.cost_meter()
                started = time.perf_counter()
                answers = document.answer(query, engine=engine)
                elapsed = time.perf_counter() - started
            except Exception as error:  # noqa: BLE001 — ends this document's attempt
                outcomes[index] = error
                del refs[index]
                continue
            cost = meter.finish(elapsed)
            fields = report_fields(
                query,
                engine,
                document.oracle.kernel.name,
                document.tree.matrix_cache().stats.to_dict(),
                _trace.take_last_trace(),
            )
            books = QueryBooks(text, variables, fields, [answers], [document.tree.size], [cost])
            runs.append((books, [index], cost))
        if not runs:
            continue
        seconds = []
        for books, indices, _ in runs:
            for position, index in enumerate(indices):
                refs[index].append((books, position))
            seconds.extend(cost["seconds"] for cost in books.costs)
        histogram.observe_many(seconds)
        totals = runs[0][2] if len(runs) == 1 else {
            field: sum(run[2].get(field, 0) for run in runs) for field in COST_COUNTERS
        }
        observe_cost(registry, totals, engine=engine, strategy=strategy)
    for index, payload in refs.items():
        try:
            faults.trip("pickle_error", key=entries[index][0], site=site)
        except Exception as error:  # noqa: BLE001 — ends this document's attempt
            outcomes[index] = error
        else:
            outcomes[index] = payload
    return outcomes


def _answer_forest(
    entries, indices, query: Query, plan, forests: _ForestCache, engine: str
) -> tuple[list[Run], list[int]]:
    """One answer-cache round trip each way and one Fig. 8 run for ``query``.

    All the documents are looked up at once (one lock hold per answer
    cache).  The misses share one Fig. 8 run under one cost meter: over
    the misses alone, or, when they are the majority, over the forest of
    all the documents — the forest the pass's other queries reuse — with
    the hits' rows dropped.  A lone miss runs on its own tree.  Each miss's
    rows are packed straight from the run's int table, stored with one
    bulk put, and the run's cost block is split over the misses by size,
    the lookup's time over every document.  Returns the runs kept (the
    hits' books and the forest run's) and the indices left for the
    per-document path: the misses, if the run failed.
    """
    backend = "polynomial"  # the cache key names the backend, not an alias
    documents = [entries[index][1] for index in indices]
    sizes = [document.tree.size for document in documents]
    text, variables = _query_spec(query)
    started = time.perf_counter()
    found = cached_answers_many(documents, query, backend)
    lookup = _split(time.perf_counter() - started, sizes)
    counts = [lookup_cost(document, answers) for document, answers in zip(documents, found)]
    hits = [position for position, answers in enumerate(found) if answers is not None]
    misses = [position for position, answers in enumerate(found) if answers is None]
    runs: list[Run] = []
    if hits:
        idle = dict.fromkeys(CostMeter.TREE_FIELDS, 0)
        first = documents[hits[0]]
        fields = report_fields(
            query,
            engine,
            first.oracle.kernel.name,
            first.tree.matrix_cache().stats.to_dict(),
            None,
        )
        costs = [
            {"seconds": lookup[position], **idle, "forest_documents": 1, **counts[position]}
            for position in hits
        ]
        books = QueryBooks(
            text, variables, fields, [found[position] for position in hits],
            [sizes[position] for position in hits], costs,
        )
        runs.append((books, [indices[position] for position in hits], _totals({}, counts, hits)))
    if not misses:
        return runs, []
    # Over the whole forest when most documents miss: it is the one the
    # pass's other queries run over too, so it is built once per pass.
    covered = range(len(documents)) if 2 * len(misses) > len(documents) else misses
    run = [documents[position] for position in covered]
    if _trace.enabled():
        _trace.take_last_trace()
    started = time.perf_counter()
    try:
        with _trace.span("corpus.forest.answer", documents=len(run)):
            if len(run) == 1:
                space, answerer = run[0].tree, run[0].answerer
            else:
                space = forests.get(run)
                answerer = space.answerer()
            meter = CostMeter(space)
            table, bounds = answerer.run_table(plan)
    except Exception:  # noqa: BLE001 — each document then answers (or fails) alone
        return runs, [indices[position] for position in misses]
    block = meter.finish(time.perf_counter() - started)
    trace_tree = _trace.take_last_trace()
    del block["forest_documents"]
    row_of = {position: slot for slot, position in enumerate(covered)}
    packed = PackedAnswers.from_table(table, bounds, [row_of[position] for position in misses])
    remember_answers_many([documents[position] for position in misses], query, backend, packed)
    # Each miss's cost: its share of the run by size, plus its lookup.
    missed = [sizes[position] for position in misses]
    seconds = _split(block.pop("seconds"), missed)
    keys = ("seconds", *block, "forest_documents")
    columns = zip(*[_split(value, missed) for value in block.values()])
    costs = [
        dict(zip(keys, (seconds[slot] + lookup[position], *parts, len(run))), **counts[position])
        for slot, (position, parts) in enumerate(zip(misses, columns))
    ]
    fields = report_fields(
        query, engine, run[0].oracle.kernel.name, space.matrix_cache().stats.to_dict(), trace_tree
    )
    books = QueryBooks(text, variables, fields, packed, missed, costs)
    runs.append((books, [indices[position] for position in misses], _totals(block, counts, misses)))
    return runs, []


def _totals(block: dict, counts: Sequence[dict], positions: Sequence[int]) -> dict:
    """A run's integer totals: its metered block plus its documents' lookup counts."""
    totals = {field: value for field, value in block.items() if field in COST_COUNTERS}
    for position in positions:
        for field, value in counts[position].items():
            totals[field] = totals.get(field, 0) + value
    return totals


def _evaluate_document(
    document: Document,
    queries: Sequence[Query],
    engine: str,
    registry: MetricsRegistry,
    strategy: str,
    *,
    site: str,
    key: str,
) -> Payload:
    """Answer every query on one document: the loop above for one entry."""
    (outcome,) = _evaluate_documents(
        [(key, document)], queries, engine, registry, strategy, site=site
    )
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def _answer_resident(
    store: DocumentStore,
    names: Sequence[str],
    queries: Sequence[Query],
    engine: str,
    registry: MetricsRegistry,
    strategy: str,
    *,
    site: str,
    forests: _ForestCache,
) -> dict:
    """``name -> (document, outcome)`` for the names resident right now.

    They are answered together (:func:`_evaluate_documents`), sharing forest
    runs; names not resident are left out, so the forest never forces a
    load.
    """
    resident = [(name, store.peek(name)) for name in dict.fromkeys(names)]
    resident = [(name, document) for name, document in resident if document is not None]
    outcomes = _evaluate_documents(
        resident, queries, engine, registry, strategy, site=site, forests=forests
    )
    return {name: (document, outcome) for (name, document), outcome in zip(resident, outcomes)}


def _worker_answer(
    name: str, query_specs: Sequence[tuple[str, tuple[str, ...]]], engine: str
) -> list[Payload]:
    """Answer every query on one document inside the shard worker."""
    document = _WORKER["store"].get(name)
    queries = [_worker_query(text, variables) for text, variables in query_specs]
    return _evaluate_document(
        document,
        queries,
        engine,
        _WORKER["metrics"],
        "processes",
        site="worker",
        key=name,
    )


def _worker_answer_batch(
    names: Sequence[str], query_specs: Sequence[tuple[str, tuple[str, ...]]], engine: str
) -> list:
    """Answer every query on a shard's documents inside its worker.

    One outcome per name: the payload list, or ``None`` for a document
    whose attempt failed, which the parent re-submits as its own job (the
    exception itself stays here; not every exception pickles).
    """
    store, registry = _WORKER["store"], _WORKER["metrics"]
    queries = [_worker_query(text, variables) for text, variables in query_specs]
    together = _answer_resident(
        store, names, queries, engine, registry, "processes",
        site="worker", forests=_WORKER["forests"],
    )
    outcomes = []
    for name in names:
        if name in together:
            outcome = together.pop(name)[1]
        else:
            try:
                outcome = _evaluate_document(
                    store.get(name), queries, engine, registry, "processes",
                    site="worker", key=name,
                )
            except Exception:  # noqa: BLE001 — the parent re-submits it
                outcome = None
        outcomes.append(None if isinstance(outcome, BaseException) else outcome)
    return outcomes


def _worker_prepare(query_specs: Sequence[tuple[str, tuple[str, ...]]], engine: str) -> None:
    """Compile queries (and their Fig. 8 plans) a respawned worker is about to answer."""
    for text, variables in query_specs:
        _forest_plan(_worker_query(text, variables), engine)


def _worker_stats() -> tuple[int, int, int, int, int, int]:
    """The shard worker's store counters (residency plus parse/snapshot)."""
    stats = _WORKER["store"].stats
    return (
        stats.loads,
        stats.hits,
        stats.evictions,
        stats.parse_count,
        stats.snapshot_hits,
        stats.snapshot_misses,
    )


def _worker_cache_stats() -> Optional[dict]:
    """The shard worker's answer-cache counters, as a plain dict (or None)."""
    cache = _WORKER["store"].answer_cache
    return cache.stats.to_dict() if cache is not None else None


def _worker_snapshot_stats() -> Optional[dict]:
    """The shard worker's snapshot-store counters, as a plain dict (or None)."""
    return _WORKER["store"].snapshot_stats()


def _worker_metrics() -> Optional[dict]:
    """The shard worker's metrics registry, as a plain mergeable dict."""
    registry = _WORKER.get("metrics")
    return registry.to_dict() if registry is not None else None


# --------------------------------------------------------------- shard pools
class _Job:
    """One in-flight dispatch, tracked across worker incarnations.

    ``name`` is one document, or for a shard batch (``batch``) the tuple of
    documents the worker answers together.
    """

    __slots__ = ("seq", "name", "query_specs", "engine", "outer", "inner", "attempts", "batch")

    def __init__(self, name, query_specs, engine: str) -> None:
        self.seq = 0
        self.name = name
        self.batch = isinstance(name, tuple)
        self.query_specs = query_specs
        self.engine = engine
        self.outer: Future = Future()
        self.inner: Optional[Future] = None
        self.attempts = 0


def _copy_future(source: Future, target: Future) -> None:
    """Resolve ``target`` the way ``source`` resolved."""
    if source.cancelled():
        target.cancel()
    elif source.exception() is not None:
        _resolve_job(target, error=source.exception())
    else:
        _resolve_job(target, result=source.result())


def _resolve_job(outer: Future, *, result=None, error: Optional[BaseException] = None) -> None:
    """Resolve a job's outer future, losing races with cancellation cleanly."""
    if not outer.set_running_or_notify_cancel():
        return
    if error is not None:
        outer.set_exception(error)
    else:
        outer.set_result(result)


class _ShardPool:
    """A supervised single-worker process pool owning a fixed partition.

    ``submit`` returns a long-lived *outer* future decoupled from any one
    ``ProcessPoolExecutor`` future: when the worker dies, every pending
    job's inner future breaks with ``BrokenProcessPool``, and the
    supervisor thread — after attributing the crash to the earliest
    submitted (i.e. running) job — respawns the pool under the restart
    budget and re-submits the survivors against the new worker, the outer
    futures none the wiser.  Ordinary (picklable) failures consume the
    per-document retry budget with exponential backoff instead.  Once the
    restart budget is spent the shard trips its circuit breaker
    (``degraded``) and every job runs serially in the parent process.
    """

    def __init__(
        self,
        executor: "CorpusExecutor",
        shard_index: int,
        doc_names: Sequence[str],
        specs: dict[str, tuple[str, str]],
        max_resident: Optional[int],
        answer_cache_bytes: Optional[int] = None,
        cache_answers: bool = True,
        store_config: Optional[dict] = None,
    ) -> None:
        self.executor = executor
        self.shard_index = shard_index
        self.doc_names = tuple(doc_names)
        self._spawn_args = (
            specs, max_resident, answer_cache_bytes, cache_answers, store_config,
        )
        #: Worker incarnation number, shipped to :func:`faults.mark_worker`
        #: so seeded schedules can target "the first worker only".
        self.epoch = 0
        self.restarts = 0
        self.degraded = False
        #: Whether the current worker has answered a job and so holds
        #: documents.  Only a warm worker gets batches (forest passes); a
        #: cold one gets per-document jobs, which stream and lose only the
        #: document in flight when the worker dies.
        self.warm = False
        self._closed = False
        # Reentrant: ``add_done_callback`` on an already-done future runs
        # the callback inline, which would deadlock a plain lock.
        self._lock = threading.RLock()
        self._seq = 0
        self._jobs: dict[int, _Job] = {}
        self._dead: dict[int, _Job] = {}
        self._recovering = False
        self.pool = self._spawn(self.epoch)

    def _spawn(self, epoch: int) -> ProcessPoolExecutor:
        specs, max_resident, answer_cache_bytes, cache_answers, store_config = (
            self._spawn_args
        )
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=_worker_initialise,
            # Tracing state is captured at spawn: pools created while the
            # parent traces (or samples) produce matching workers — fresh
            # spawns after set_tracing/set_trace_sample won't retro-fit
            # already-running shards.  The two knobs ship separately so a
            # sampled-only parent never produces fully traced workers.
            initargs=(specs, max_resident, answer_cache_bytes, cache_answers,
                      store_config, _trace.tracing_enabled(), _trace.sample_rate(),
                      faults.payload(), epoch),
        )

    # ------------------------------------------------------------- submission
    def submit_batch(self, names: Sequence[str], query_specs, engine: str) -> list[Future]:
        """Submit the shard's documents as one job; one future per document.

        The worker answers the documents it holds resident in one forest
        pass (:func:`_worker_answer_batch`).  A document whose outcome is
        an exception, and every document of a batch that fails or whose
        worker dies, is re-submitted as its own job, so retries, crash
        attribution, quarantine and the breaker see per-document jobs only.
        """
        outers: list[Future] = [Future() for _ in names]

        def alone(index: int) -> None:
            try:
                inner = self.submit(names[index], query_specs, engine)
            except RuntimeError:  # shut down meanwhile
                outers[index].cancel()
                return
            inner.add_done_callback(
                lambda done, outer=outers[index]: _copy_future(done, outer)
            )

        def fan_out(done: Future) -> None:
            if done.cancelled():
                for outer in outers:
                    outer.cancel()
                return
            if done.exception() is not None:
                for index in range(len(names)):
                    alone(index)
                return
            for index, outcome in enumerate(done.result()):
                if outcome is None:
                    alone(index)
                else:
                    _resolve_job(outers[index], result=outcome)

        self.submit(tuple(names), query_specs, engine).add_done_callback(fan_out)
        return outers

    def submit(self, name, query_specs, engine: str) -> Future:
        job = _Job(name, query_specs, engine)
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot schedule new futures after shutdown")
            self._seq += 1
            job.seq = self._seq
            self._jobs[job.seq] = job

        def _forward_cancel(done: Future, job: _Job = job) -> None:
            # Cancelling the outer future should pull the work out of the
            # shard queue too, not leave the worker evaluating documents
            # for an aborted submission.
            if done.cancelled():
                with self._lock:
                    self._jobs.pop(job.seq, None)
                    inner = job.inner
                if inner is not None:
                    inner.cancel()

        job.outer.add_done_callback(_forward_cancel)
        self._submit_inner(job)
        return job.outer

    def _submit_inner(self, job: _Job) -> None:
        """(Re-)dispatch one job to the current worker (or degraded path)."""
        with self._lock:
            if self._closed:
                self._jobs.pop(job.seq, None)
                job.outer.cancel()
                return
            if job.outer.cancelled() or job.seq not in self._jobs:
                return
            if self.degraded:
                degraded = True
            else:
                degraded = False
                work = _worker_answer_batch if job.batch else _worker_answer
                try:
                    inner = self.pool.submit(work, job.name, job.query_specs, job.engine)
                except BrokenExecutor:
                    # Pool already broken (burst of deaths): park the job
                    # for the supervisor round in flight.
                    self._mark_dead_locked(job)
                    return
                job.inner = inner
                inner.add_done_callback(
                    lambda finished, job=job: self._on_inner_done(job, finished)
                )
        if degraded:
            if job.batch:
                self._fail_batch(job)
            else:
                self._submit_degraded(job)

    def _fail_batch(self, job: _Job) -> None:
        """End a batch job so its documents are re-submitted one by one."""
        with self._lock:
            self._jobs.pop(job.seq, None)
        _resolve_job(job.outer, error=BrokenExecutor("shard batch interrupted"))

    def _on_inner_done(self, job: _Job, inner: Future) -> None:
        if inner.cancelled():
            with self._lock:
                self._jobs.pop(job.seq, None)
            job.outer.cancel()
            return
        error = inner.exception()
        if error is None:
            with self._lock:
                self._jobs.pop(job.seq, None)
                self.warm = True
            _resolve_job(job.outer, result=inner.result())
            return
        if isinstance(error, BrokenExecutor):
            with self._lock:
                if self._closed:
                    self._jobs.pop(job.seq, None)
                    job.outer.cancel()
                    return
                self._mark_dead_locked(job)
            return
        # Ordinary failure: the worker survived, the document did not.  A
        # batch is not retried: its documents go on as their own jobs.
        job.attempts += 1
        if not job.batch and job.attempts <= self.executor.max_retries:
            self.executor._record_retry(type(error).__name__)
            delay = self.executor.retry_backoff * (2 ** (job.attempts - 1))
            timer = threading.Timer(delay, self._submit_inner, args=(job,))
            timer.daemon = True
            timer.start()
            return
        with self._lock:
            self._jobs.pop(job.seq, None)
        _resolve_job(job.outer, error=error)

    def _mark_dead_locked(self, job: _Job) -> None:
        """Park a crash-orphaned job and ensure one supervisor is running."""
        self._dead[job.seq] = job
        if not self._recovering:
            self._recovering = True
            threading.Thread(
                target=self._recover,
                name=f"shard-{self.shard_index}-supervisor",
                daemon=True,
            ).start()

    # ------------------------------------------------------------- supervision
    def _recover(self) -> None:
        """Supervisor loop: backoff, respawn, re-dispatch, quarantine."""
        executor = self.executor
        while True:
            with self._lock:
                if not self._dead:
                    self._recovering = False
                    return
                # The earliest submitted pending job is the one the
                # single worker was evaluating when it died.
                culprit_seq = min(self._dead)
                crashed = self._dead[culprit_seq]
            detected = time.perf_counter()
            # Exponential backoff with jitter before touching the pool; the
            # sleep also lets the burst of broken-future callbacks land so
            # one respawn covers all of them.
            delay = executor.restart_backoff * (2 ** min(self.restarts, 6))
            delay = min(delay + random.uniform(0.0, delay / 2.0), 5.0)
            # Meanwhile the replacement worker forks and compiles the dead
            # job's queries (unless the breaker is about to trip); it gets
            # no document before the backoff ends.
            spare = None
            if self.restarts < executor.max_worker_restarts:
                spare = self._spawn(self.epoch + 1)
                spare.submit(_worker_prepare, crashed.query_specs, crashed.engine)
            time.sleep(max(0.0, detected + delay - time.perf_counter()))
            with self._lock:
                if self._closed:
                    dead = list(self._dead.values())
                    self._dead.clear()
                    self._recovering = False
                    for job in dead:
                        self._jobs.pop(job.seq, None)
                        job.outer.cancel()
                    if spare is not None:
                        spare.shutdown(wait=False, cancel_futures=True)
                    return
                dead = [self._dead[seq] for seq in sorted(self._dead)]
                self._dead.clear()
            culprit = dead[0] if dead and dead[0].seq == culprit_seq else None
            # A batch is not attributed: its documents are re-submitted as
            # their own jobs once the pool is back (or the breaker tripped),
            # and a repeat crash then names the document.
            batches = [job for job in dead if job.batch]
            redispatch = [job for job in dead if not job.batch]
            if culprit is not None and culprit.batch:
                culprit = None
            if culprit is not None:
                crashes = executor._note_crash(culprit.name)
                if crashes >= QUARANTINE_AFTER:
                    executor._quarantine(culprit.name, crashes)
                    redispatch.remove(culprit)
                    with self._lock:
                        self._jobs.pop(culprit.seq, None)
                    _resolve_job(
                        culprit.outer,
                        error=DocumentQuarantinedError(culprit.name, crashes),
                    )
            if self.restarts >= executor.max_worker_restarts:
                self._trip_breaker(redispatch)
                for job in batches:
                    self._fail_batch(job)
                continue
            with self._lock:
                old = self.pool
                self.epoch += 1
                self.warm = False
                self.pool = spare
            old.shutdown(wait=False, cancel_futures=True)
            self.restarts += 1
            executor._record_restart(
                self.shard_index,
                restart=self.restarts,
                detected=detected,
                resumed=time.perf_counter(),
                culprit=culprit.name if culprit is not None else None,
            )
            for job in redispatch:
                self._submit_inner(job)
            for job in batches:
                self._fail_batch(job)

    def _trip_breaker(self, jobs: Sequence[_Job]) -> None:
        """Degrade the shard: evaluate in-parent instead of respawning."""
        with self._lock:
            first = not self.degraded
            self.degraded = True
            pool = self.pool
        if first:
            self.executor._record_degraded(self.shard_index)
            pool.shutdown(wait=False, cancel_futures=True)
        for job in jobs:
            self._submit_degraded(job)

    def _submit_degraded(self, job: _Job) -> None:
        inner = self.executor._dispatch().submit(
            self.executor._evaluate_in_parent, job.name, job.query_specs, job.engine
        )
        job.inner = inner

        def _finish(finished: Future, job: _Job = job) -> None:
            with self._lock:
                self._jobs.pop(job.seq, None)
            if finished.cancelled():
                job.outer.cancel()
                return
            error = finished.exception()
            if error is not None:
                _resolve_job(job.outer, error=error)
            else:
                _resolve_job(job.outer, result=finished.result())

        inner.add_done_callback(_finish)

    # --------------------------------------------------------------- teardown
    def shutdown(self) -> None:
        with self._lock:
            self._closed = True
            jobs = list(self._jobs.values())
            self._jobs.clear()
            self._dead.clear()
            pool = self.pool
        pool.shutdown(wait=True, cancel_futures=True)
        for job in jobs:
            job.outer.cancel()


# ----------------------------------------------------------------- executor
class CorpusExecutor:
    """Run compiled queries across a document store, streaming the results.

    Parameters
    ----------
    store:
        The corpus.  For ``"processes"`` every registered document must have
        a picklable source spec (always true: trees are serialised to XML).
    strategy:
        ``"serial"`` (default) or ``"processes"``.
    max_workers:
        The number of shards for ``"processes"`` (ignored by ``"serial"``).
        An explicit value is honoured exactly (capped at the corpus size);
        the default is ``os.cpu_count()``, raised to at least 2 shards so
        sharding is observable even on one-core machines.
    engine:
        Default registry engine for :meth:`run` (overridable per call).
    max_retries / retry_backoff / on_error:
        Per-document retry budget, exponential-backoff base and final-
        failure disposition (see the module docstring's fault-tolerance
        section).  ``None`` means the built-in default (0 / 0.05 /
        ``"raise"``), so the session layer can pass resolved policy values
        straight through.
    max_worker_restarts / restart_backoff:
        Per-shard worker-respawn budget and backoff base for the
        supervised processes strategy (defaults 3 / 0.1).

    The executor is a context manager; ``"processes"`` keeps its shard pools
    (and therefore the per-worker document caches) alive across :meth:`run`
    calls until :meth:`close` or context exit.
    """

    def __init__(
        self,
        store: DocumentStore,
        *,
        strategy: str = "serial",
        max_workers: Optional[int] = None,
        engine: str = DEFAULT_ENGINE,
        kernel=None,
        max_retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
        on_error: Optional[str] = None,
        max_worker_restarts: Optional[int] = None,
        restart_backoff: Optional[float] = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise CorpusError(
                f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}"
            )
        on_error = on_error or "raise"
        if on_error not in ON_ERROR_MODES:
            raise CorpusError(
                f"unknown on_error mode {on_error!r}; "
                f"expected one of {', '.join(ON_ERROR_MODES)}"
            )
        self.store = store
        self.strategy = strategy
        self.max_workers = max_workers
        self.engine = engine
        #: Kernel pinned for shard workers (name/instance or None).  Falls
        #: back to the store's pinned kernel; ``None`` leaves workers on the
        #: process default (which honours ``REPRO_KERNEL``).  For the
        #: serial strategy the store's own kernel governs, since documents
        #: materialise in the parent store.
        self.kernel = kernel if kernel is not None else store.kernel
        #: Shard pools, created lazily per shard on first submit (None =
        #: partition slot whose pool has not been needed yet).
        self._pools: Optional[list[Optional[_ShardPool]]] = None
        self._shard_names: list[tuple[str, ...]] = []
        #: Per-shard membership fingerprints: tuples of (name, source token),
        #: so a same-name source replacement registers as a shard change.
        self._shard_tokens: list[tuple[tuple[str, int], ...]] = []
        self._shard_of: dict[str, int] = {}
        self._partition_version: Optional[int] = None
        #: Targeted-refresh telemetry: how many live pools each repartition
        #: kept versus shut down (see :meth:`_ensure_partition`).
        self.pools_kept = 0
        self.pools_rebuilt = 0
        #: Lazy single-thread pool backing :meth:`submit_document` for the
        #: serial strategy (processes submit straight to shard pools).
        self._dispatch_pool: Optional[ThreadPoolExecutor] = None
        #: Serialises pool lifecycle (partitioning, spawning, shutdown):
        #: ``submit_document`` may be called from several threads at once
        #: (the server offloads it from the event loop).
        self._pool_lock = threading.RLock()
        #: Parent-side metrics: per-(document, query) evaluation histograms
        #: and cost counters for the serial strategy, labelled by (engine,
        #: strategy).  The processes strategy observes inside shard
        #: workers; :meth:`metrics` merges both.
        self.metrics_registry = MetricsRegistry()
        # ------------------------------------------------- fault tolerance
        self.max_retries = int(max_retries) if max_retries else 0
        self.retry_backoff = 0.05 if retry_backoff is None else float(retry_backoff)
        self.on_error = on_error
        self.max_worker_restarts = (
            3 if max_worker_restarts is None else int(max_worker_restarts)
        )
        self.restart_backoff = (
            0.1 if restart_backoff is None else float(restart_backoff)
        )
        self._fault_lock = threading.Lock()
        #: Worker deaths attributed per document (supervised processes).
        self._crash_counts: dict[str, int] = {}
        #: Documents quarantined after :data:`QUARANTINE_AFTER` crashes.
        self.quarantined: set[str] = set()
        self._degraded_shards: set[int] = set()
        self._restart_total = 0
        self._retry_total = 0
        #: Supervisor recovery log: perf_counter stamps bracketing each
        #: respawn, for stats and the E15 recovery-latency gate.
        self._recovery_log: list[dict] = []
        # Eager family registration so exposition shows explicit zeros
        # before the first incident.
        self._restarts_counter = self.metrics_registry.counter(
            WORKER_RESTARTS_COUNTER, _RESTARTS_HELP, labels={"strategy": strategy}
        )
        self._quarantined_counter = self.metrics_registry.counter(
            QUARANTINED_COUNTER, _QUARANTINED_HELP
        )
        self._degraded_gauge = self.metrics_registry.gauge(
            DEGRADED_GAUGE, _DEGRADED_HELP
        )
        #: Parent-side compiled-query cache for the degraded fallback path
        #: (specs arrive pre-serialised from the shard dispatch).
        self._spec_queries = PlanMemo()
        #: The serial strategy's forest of resident documents.
        self._forests = _ForestCache()

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down any worker pools (dropping per-worker caches)."""
        with self._pool_lock:
            if self._pools is not None:
                for pool in self._pools:
                    if pool is not None:
                        pool.shutdown()
                self._pools = None
                self._shard_names = []
                self._shard_tokens = []
                self._shard_of = {}
                self._partition_version = None
            if self._dispatch_pool is not None:
                self._dispatch_pool.shutdown(wait=True, cancel_futures=True)
                self._dispatch_pool = None

    def __enter__(self) -> "CorpusExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------- public
    def run(
        self,
        queries: Union[BatchItem, Iterable[BatchItem]],
        documents: Optional[Sequence[str]] = None,
        *,
        engine: Optional[str] = None,
        ordered: bool = True,
    ) -> Iterator[CorpusResult]:
        """Stream ``CorpusResult``s for every (document, query) pair.

        Parameters
        ----------
        queries:
            One query or an iterable of queries; each is a compiled
            :class:`Query`, an expression (text or AST), or an
            ``(expression, variables)`` pair.
        documents:
            Names to run on (default: every document, in store order).
        engine:
            Registry engine override for this call.
        ordered:
            With ``True`` results arrive in deterministic (document, query)
            order; with ``False`` in completion order.
        """
        engine_name = engine if engine is not None else self.engine
        compiled = self._normalise_queries(queries)
        names = list(documents) if documents is not None else list(self.store.names())
        for name in names:
            if name not in self.store:
                raise CorpusError(f"unknown document {name!r}")
        if self.strategy == "serial":
            return self._run_serial(names, compiled, engine_name)
        return self._run_processes(names, compiled, engine_name, ordered)

    def submit_document(
        self,
        name: str,
        queries: Union[BatchItem, Iterable[BatchItem]],
        *,
        engine: Optional[str] = None,
    ) -> "Future[list[CorpusResult]]":
        """Submit one document's work and return a future, without blocking.

        This is the submission hook the async serving layer
        (:mod:`repro.serve`) multiplexes on: each call schedules *one*
        document against the given queries and immediately returns a
        ``concurrent.futures.Future`` resolving to that document's
        :class:`CorpusResult` list, so concurrently arriving requests
        interleave at document granularity instead of queueing behind whole
        batches.

        Under ``"processes"`` the work goes straight to the document's shard
        pool (per-worker caches apply as in :meth:`run`); under ``"serial"``
        it runs on an internal dispatch thread.
        """
        engine_name = engine if engine is not None else self.engine
        compiled = self._normalise_queries(queries)
        if name not in self.store:
            raise CorpusError(f"unknown document {name!r}")
        if self.strategy == "processes":
            query_specs = [_query_spec(query) for query in compiled]
            # One lock hold across partition check, shard lookup and the
            # pool submit: a concurrent targeted repartition (another
            # thread's submit after a store change) must not shut the
            # chosen pool down between lookup and submit.
            with self._pool_lock:
                self._ensure_partition()
                shard_index = self._shard_of.get(name)
                if shard_index is None:
                    # Discarded between the membership check and the lock.
                    raise CorpusError(f"unknown document {name!r}")
                if name in self.quarantined:
                    inner = self._quarantined_future(name)
                else:
                    with _trace.span(
                        "shard.dispatch", document=name, shard=shard_index
                    ):
                        inner = self._shard_pool(shard_index).submit(
                            name, query_specs, engine_name
                        )
            outer: "Future[list[CorpusResult]]" = Future()

            def _forward_cancel(done: Future) -> None:
                # Cancelling the outer future (asyncio.wrap_future does so
                # when the awaiting task is cancelled) should pull the work
                # out of the shard queue too, not leave the worker
                # evaluating documents for an aborted submission.
                if done.cancelled():
                    inner.cancel()

            def _chain(finished: Future) -> None:
                if finished.cancelled():
                    outer.cancel()
                    return
                # Atomically claim the outer future: False means it was
                # cancelled meanwhile, and claiming it stops a concurrent
                # cancel from landing between the check and set_result.
                if not outer.set_running_or_notify_cancel():
                    return
                error = finished.exception()
                if error is not None:
                    records = self._document_error_records(
                        name, query_specs, engine_name, error
                    )
                    if records is None:
                        outer.set_exception(error)
                    else:
                        outer.set_result(records)
                    return
                outer.set_result(_results(name, finished.result()))

            outer.add_done_callback(_forward_cancel)
            inner.add_done_callback(_chain)
            return outer
        return self._dispatch().submit(
            lambda: list(
                self._answer_document(name, self.store.get(name), compiled, engine_name)
            )
        )

    def _dispatch(self) -> ThreadPoolExecutor:
        """The one-thread pool behind ``submit_document`` (lazy)."""
        with self._pool_lock:
            if self._dispatch_pool is None:
                self._dispatch_pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="corpus-dispatch"
                )
            return self._dispatch_pool

    # ------------------------------------------------------- fault tolerance
    def _record_retry(self, reason: str) -> None:
        self.metrics_registry.counter(
            RETRIES_COUNTER, _RETRIES_HELP, labels={"reason": reason}
        ).inc()
        with self._fault_lock:
            self._retry_total += 1

    def _note_crash(self, name: str) -> int:
        """Attribute one worker death to ``name``; returns its crash count."""
        with self._fault_lock:
            self._crash_counts[name] = self._crash_counts.get(name, 0) + 1
            return self._crash_counts[name]

    def _quarantine(self, name: str, crashes: int) -> None:
        with self._fault_lock:
            if name in self.quarantined:
                return
            self.quarantined.add(name)
        self._quarantined_counter.inc()
        _trace.record_span(
            "pool.quarantine",
            time.perf_counter(),
            time.perf_counter(),
            document=name,
            crashes=crashes,
        )

    def _record_restart(
        self,
        shard_index: int,
        *,
        restart: int,
        detected: float,
        resumed: float,
        culprit: Optional[str],
    ) -> None:
        self._restarts_counter.inc()
        with self._fault_lock:
            self._restart_total += 1
            self._recovery_log.append(
                {
                    "shard": shard_index,
                    "restart": restart,
                    "detected": detected,
                    "resumed": resumed,
                    "backoff_seconds": resumed - detected,
                    "culprit": culprit,
                }
            )
        _trace.record_span(
            "pool.restart",
            detected,
            resumed,
            shard=shard_index,
            restart=restart,
            culprit=culprit or "",
        )

    def _record_degraded(self, shard_index: int) -> None:
        with self._fault_lock:
            self._degraded_shards.add(shard_index)
            count = len(self._degraded_shards)
        self._degraded_gauge.set(count)
        _trace.record_span(
            "pool.degraded",
            time.perf_counter(),
            time.perf_counter(),
            shard=shard_index,
        )

    @property
    def degraded_shard_count(self) -> int:
        """Shards whose circuit breaker tripped (serving serially in-parent)."""
        with self._fault_lock:
            return len(self._degraded_shards)

    def fault_stats(self) -> dict:
        """Supervision counters: restarts, retries, quarantine, degradation."""
        with self._fault_lock:
            return {
                "worker_restarts": self._restart_total,
                "retries": self._retry_total,
                "quarantined": sorted(self.quarantined),
                "degraded_shards": sorted(self._degraded_shards),
                "crashes": dict(self._crash_counts),
                "recoveries": [dict(entry) for entry in self._recovery_log],
            }

    def quarantined_by_shard(self) -> dict[str, list[str]]:
        """The quarantined-document *list*, grouped by owning shard.

        Keys are shard indices as strings (JSON object keys; ``"-1"`` for
        documents without a current shard assignment — non-``processes``
        strategies, or a document discarded after quarantine).  Health
        payloads include this unconditionally so a cluster supervisor can
        migrate poisoned documents specifically rather than inferring from
        the flat count.
        """
        with self._fault_lock:
            quarantined = sorted(self.quarantined)
        if not quarantined:
            return {}
        with self._pool_lock:
            shard_of = dict(self._shard_of)
        grouped: dict[str, list[str]] = {}
        for name in quarantined:
            grouped.setdefault(str(shard_of.get(name, -1)), []).append(name)
        return grouped

    def _retry_document(self, name: str, evaluate, failed: Optional[BaseException] = None):
        """Run ``evaluate`` under the per-document retry budget.

        ``failed`` is a first attempt that already failed elsewhere (in a
        forest pass); it counts against the budget like any other.
        """
        attempt = 0
        while True:
            if failed is None:
                try:
                    return evaluate()
                except Exception as error:  # noqa: BLE001 — budget decides
                    failed = error
            attempt += 1
            if attempt > self.max_retries:
                raise failed
            self._record_retry(type(failed).__name__)
            time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            failed = None

    def _evaluate_in_parent(self, name: str, query_specs, engine: str):
        """Degraded-shard fallback: the worker's evaluation, in-process.

        Same payload shape as :func:`_worker_answer` so the supervised
        outer futures cannot tell which side of the breaker served them.
        """
        queries = []
        for text, variables in query_specs:
            key = (text, tuple(variables))
            query = self._spec_queries.get(key)
            if query is None:
                query = self._spec_queries.setdefault(
                    key, compile_query(text, tuple(variables), require_ppl=False)
                )
            queries.append(query)
        document = self.store.get(name)
        return self._retry_document(
            name,
            lambda: _evaluate_document(
                document,
                queries,
                engine,
                self.metrics_registry,
                "processes",
                site="degraded",
                key=name,
            ),
        )

    def _document_error_records(
        self, name: str, query_specs, engine: str, error: BaseException
    ) -> Optional[list[CorpusResult]]:
        """Typed error records for a final failure, or ``None`` to re-raise.

        Quarantine always records (the whole point is not aborting the
        stream); otherwise ``on_error`` decides: ``"record"`` yields one
        error record per query, ``"skip"`` yields nothing, ``"raise"``
        returns ``None`` so the caller propagates.
        """
        if not isinstance(error, DocumentQuarantinedError):
            if self.on_error == "raise":
                return None
            if self.on_error == "skip":
                self.metrics_registry.counter(
                    "repro_documents_skipped_total",
                    "Documents dropped by on_error=skip after a final failure",
                    labels={"kind": type(error).__name__},
                ).inc()
                return []
        return [
            CorpusResult(
                doc_name=name,
                report=None,
                query=text,
                variables=tuple(variables),
                answers=frozenset(),
                seconds=0.0,
                error=str(error),
                error_kind=type(error).__name__,
            )
            for text, variables in query_specs
        ]

    def _quarantined_future(self, name: str) -> Future:
        """A pre-failed future for a document already in quarantine."""
        future: Future = Future()
        with self._fault_lock:
            crashes = self._crash_counts.get(name, QUARANTINE_AFTER)
        future.set_exception(DocumentQuarantinedError(name, crashes))
        return future

    def _probe_workers(self, probe: Callable[[], Any]) -> Optional[list]:
        """Run ``probe`` once in each live shard pool and collect the results.

        Returns ``None`` when no shard pool exists (strategies other than
        ``"processes"``, or before the first run), so the caller falls back
        to the parent store; a pool shut down by a concurrent targeted
        repartition is skipped.
        """
        with self._pool_lock:
            if self.strategy != "processes" or self._pools is None:
                return None
            pools = [pool for pool in self._pools if pool is not None]
        results = []
        for pool in pools:
            try:
                results.append(pool.pool.submit(probe).result())
            except RuntimeError:
                continue  # shut down by a concurrent targeted repartition
        return results

    def answer_cache_stats(self) -> Optional[dict]:
        """Aggregate answer-cache counters, wherever the caches live.

        For ``"serial"`` this is the parent store's shared cache; for
        ``"processes"`` it sums over the live shard workers'
        caches (the parent cache sees no traffic there).  Returns ``None``
        when answer caching is disabled.
        """
        workers = self._probe_workers(_worker_cache_stats)
        if workers is None:
            cache = self.store.answer_cache
            return cache.stats.to_dict() if cache is not None else None
        totals: Optional[dict] = None
        for worker in workers:
            if worker is None:
                continue
            if totals is None:
                totals = dict.fromkeys(worker, 0)
                totals["max_bytes"] = worker["max_bytes"]
            for field_name, value in worker.items():
                if field_name != "max_bytes" and value is not None:
                    totals[field_name] += value
        return totals

    def metrics(self) -> MetricsRegistry:
        """Merged evaluation metrics, wherever the observations happened.

        Returns a fresh :class:`repro.obs.metrics.MetricsRegistry` holding
        the parent-side histograms plus — for the processes strategy — the
        shard workers' histograms summed bucket-by-bucket, the same way
        :meth:`answer_cache_stats`/:meth:`snapshot_stats` aggregate their
        counters.
        """
        merged = MetricsRegistry()
        merged.merge(self.metrics_registry)
        for worker in self._probe_workers(_worker_metrics) or ():
            if worker is not None:
                merged.merge(worker)
        return merged

    def run_report(
        self,
        queries: Union[BatchItem, Iterable[BatchItem]],
        documents: Optional[Sequence[str]] = None,
        *,
        engine: Optional[str] = None,
        ordered: bool = True,
    ):
        """Run and aggregate into a :class:`repro.corpus.report.CorpusReport`."""
        from repro.corpus.report import CorpusReport

        started = time.perf_counter()
        results = list(self.run(queries, documents, engine=engine, ordered=ordered))
        wall = time.perf_counter() - started
        return CorpusReport.from_results(
            results,
            strategy=self.strategy,
            engine=engine if engine is not None else self.engine,
            wall_seconds=wall,
            cache=self.answer_cache_stats(),
            snapshot=self.snapshot_stats(),
        )

    # ------------------------------------------------------------------ serial
    def _run_serial(
        self, names: Sequence[str], queries: Sequence[Query], engine: str
    ) -> Iterator[CorpusResult]:
        # The documents resident when the pass starts answer together (one
        # forest run per query); the rest load lazily as the consumer pulls.
        together = _answer_resident(
            self.store, names, queries, engine, self.metrics_registry, self.strategy,
            site=self.strategy, forests=self._forests,
        )
        for name in names:
            if name in together:
                document, outcome = together.pop(name)
                yield from self._answer_document(name, document, queries, engine, outcome)
            else:
                yield from self._answer_document(name, self.store.get(name), queries, engine)

    def _answer_document(
        self,
        name: str,
        document: Document,
        queries: Sequence[Query],
        engine: str,
        outcome=None,
    ) -> Iterator[CorpusResult]:
        """One document's results, under the retry budget and ``on_error``.

        Evaluation is buffered per document (not streamed per query) so a
        retry never re-yields a query the consumer already saw — the unit
        of retry and the unit of failure are the same.  ``outcome`` is the
        document's first attempt when it already ran in a forest pass: its
        payloads, or the exception that counts as a failed attempt.
        """
        try:
            if isinstance(outcome, list):
                payload = outcome
            else:
                payload = self._retry_document(
                    name,
                    lambda: _evaluate_document(
                        document,
                        queries,
                        engine,
                        self.metrics_registry,
                        self.strategy,
                        site=self.strategy,
                        key=name,
                    ),
                    failed=outcome,
                )
        except Exception as error:  # noqa: BLE001 — on_error decides
            records = self._document_error_records(
                name, [_query_spec(query) for query in queries], engine, error
            )
            if records is None:
                raise
            yield from records
            return
        yield from _results(name, payload)

    # --------------------------------------------------------------- processes
    def _shard_count(self, total: int) -> int:
        if self.max_workers is not None:
            return max(1, min(self.max_workers, total or 1))
        count = os.cpu_count() or 1
        return max(2, min(count, total)) if total > 1 else 1

    def _ensure_partition(self) -> None:
        """(Re)compute the document → shard assignment when needed.

        The first partition is contiguous by store order — balanced, and
        stable across runs, so a document always lands in the same worker,
        which is what makes the per-worker caches effective.  The partition
        covers the whole store, but pools are only spawned for shards that
        actually receive work (:meth:`_shard_pool`).

        Refresh is *targeted* and incremental: when the store version moves
        (and the shard count is unchanged), documents whose source token
        still matches keep their previous shard, new or replaced documents
        are placed on the least-loaded shard, and only the shards whose
        membership fingerprint — the (name, source token) tuple — actually
        changed are shut down and respawned; the rest keep their worker's
        document and answer caches warm across the corpus update.  An
        append therefore touches one shard, a discard only the shard that
        owned the document.  Comparing source tokens (not just names) means
        a discard + same-name re-add can never be served by a stale worker.
        A change in the shard count itself (corpus crossed the worker
        count, or ``max_workers`` semantics) falls back to a full rebuild.
        """
        with self._pool_lock:
            self._ensure_partition_locked()

    def _ensure_partition_locked(self) -> None:
        version = self.store.version
        if self._pools is not None and self._partition_version == version:
            return
        all_names = list(self.store.names())
        tokens = {name: self.store.source_token(name) for name in all_names}
        count = self._shard_count(len(all_names))
        previous_tokens = {
            name: token for shard in self._shard_tokens for name, token in shard
        }
        shards: list[list[str]] = [[] for _ in range(count)]
        if self._pools is not None and count == len(self._shard_names):
            # Incremental: keep surviving documents where they are, place
            # the rest (new names, replaced sources) on the smallest shard.
            placed = []
            for name in all_names:
                if (
                    name in self._shard_of
                    and previous_tokens.get(name) == tokens[name]
                ):
                    shards[self._shard_of[name]].append(name)
                else:
                    placed.append(name)
            for name in placed:
                target = min(range(count), key=lambda index: (len(shards[index]), index))
                shards[target].append(name)
        elif all_names:
            for index, name in enumerate(all_names):
                shards[index * count // len(all_names)].append(name)
        shard_names = [tuple(shard) for shard in shards]
        shard_tokens = [
            tuple((name, tokens[name]) for name in shard) for shard in shard_names
        ]
        pools: list[Optional[_ShardPool]] = [None] * count
        old_pools = self._pools
        if old_pools is not None:
            for shard_index, fingerprint in enumerate(shard_tokens):
                if (
                    shard_index < len(self._shard_tokens)
                    and self._shard_tokens[shard_index] == fingerprint
                    and old_pools[shard_index] is not None
                ):
                    pools[shard_index] = old_pools[shard_index]
                    old_pools[shard_index] = None
                    self.pools_kept += 1
            for stale in old_pools:
                if stale is not None:
                    stale.shutdown()
                    self.pools_rebuilt += 1
        self._pools = pools
        self._shard_names = shard_names
        self._shard_tokens = shard_tokens
        self._shard_of = {
            name: shard_index
            for shard_index, shard in enumerate(shard_names)
            for name in shard
        }
        self._partition_version = version

    def _shard_pool(self, shard_index: int) -> _ShardPool:
        """The shard's pool, spawned (with its source specs) on first use.

        Locked: concurrent ``submit_document`` calls must not both observe
        the empty slot and spawn duplicate pools (one would leak its worker
        process and split the shard's caches).
        """
        with self._pool_lock:
            assert self._pools is not None
            pool = self._pools[shard_index]
            if pool is None:
                shard_names = self._shard_names[shard_index]
                specs = {name: self.store.source_spec(name) for name in shard_names}
                pool = _ShardPool(
                    self,
                    shard_index,
                    shard_names,
                    specs,
                    self.store.max_resident,
                    self.store.answer_cache_bytes,
                    self.store.cache_answers,
                    self._worker_store_config(),
                )
                self._pools[shard_index] = pool
            return pool

    def _worker_store_config(self) -> Optional[dict]:
        """Resolved, picklable kernel/budget settings for shard workers.

        Only knobs the caller actually pinned ship to the worker (a kernel
        instance is reduced to its registry name); everything else stays
        unset so the worker's own environment-driven defaults apply.
        """
        config: dict = {}
        if self.kernel is not None:
            from repro.pplbin.bitmatrix import get_kernel

            config["kernel"] = get_kernel(self.kernel).name
        if self.store.matrix_cache_bytes is not _UNSET:
            config["matrix_cache_bytes"] = self.store.matrix_cache_bytes
        if self.store.snapshot_dir is not None:
            # Workers share the parent's snapshot directory: the store is
            # content-addressed and its writes are atomic renames, so
            # concurrent shard workers cooperate instead of clobbering.
            config["snapshot_dir"] = self.store.snapshot_dir
            config["snapshot_bytes"] = self.store.snapshot_bytes
        return config or None

    def worker_stats(self) -> StoreStats:
        """Aggregate (loads, hits, evictions) over the live shard workers.

        The process strategy materialises documents inside the workers, so
        the parent store's counters stay at zero; this is the counterpart
        snapshot.  Returns zeros when no shard pool has been spawned (other
        strategies, or before the first run).
        """
        totals = [0] * 6
        for counters in self._probe_workers(_worker_stats) or ():
            for index, value in enumerate(counters):
                totals[index] += value
        loads, hits, evictions, parses, snap_hits, snap_misses = totals
        return StoreStats(
            loads=loads,
            hits=hits,
            evictions=evictions,
            parse_count=parses,
            snapshot_hits=snap_hits,
            snapshot_misses=snap_misses,
        )

    def snapshot_stats(self) -> Optional[dict]:
        """Aggregate snapshot-store counters, wherever the stores live.

        Mirrors :meth:`answer_cache_stats`: for ``"serial"`` the parent
        store's snapshot store sees all the traffic; for
        ``"processes"`` the per-worker stores do, so their counters are
        summed (the sizing fields — bytes/files/budget — describe the one
        shared directory and are taken from the last worker rather than
        summed).  Returns ``None`` when no snapshot directory is configured.
        """
        workers = self._probe_workers(_worker_snapshot_stats)
        if workers is None:
            return self.store.snapshot_stats()
        totals: Optional[dict] = None
        shared = ("total_bytes", "trees", "answers", "max_bytes")
        for worker in workers:
            if worker is None:
                continue
            if totals is None:
                totals = dict.fromkeys(worker, 0)
            for field_name, value in worker.items():
                if field_name in shared:
                    totals[field_name] = value
                else:
                    totals[field_name] += value
        if totals is None:
            return self.store.snapshot_stats()
        return totals

    def _run_processes(
        self, names: Sequence[str], queries: Sequence[Query], engine: str, ordered: bool
    ) -> Iterator[CorpusResult]:
        self._ensure_partition()
        query_specs = [_query_spec(query) for query in queries]

        def generate() -> Iterator[CorpusResult]:
            futures: dict[int, Future] = {}
            # One lock hold across shard lookup and submits: a concurrent
            # targeted repartition (submit_document after a store change)
            # must not shut a pool down or remap shards mid-batch.
            with self._pool_lock:
                with _trace.span("shard.dispatch", documents=len(names)):
                    # One batch job per warm shard: its worker answers the
                    # documents it holds resident in one forest pass.
                    shards: dict[int, list[int]] = {}
                    for index, name in enumerate(names):
                        if name in self.quarantined:
                            futures[index] = self._quarantined_future(name)
                        else:
                            shards.setdefault(self._shard_of[name], []).append(index)
                    for shard_index, indices in shards.items():
                        shard = self._shard_pool(shard_index)
                        if len(indices) == 1 or shard.degraded or not shard.warm:
                            for index in indices:
                                futures[index] = shard.submit(names[index], query_specs, engine)
                            continue
                        batch = shard.submit_batch(
                            [names[index] for index in indices], query_specs, engine
                        )
                        futures.update(zip(indices, batch))

            def unpack(index: int, payload: Payload) -> list[CorpusResult]:
                return _results(names[index], payload)

            def on_error(index: int, error: BaseException) -> list[CorpusResult]:
                records = self._document_error_records(
                    names[index], query_specs, engine, error
                )
                if records is None:
                    raise error
                return records

            yield from _stream(futures, ordered, unpack, on_error)

        return generate()

    # --------------------------------------------------------------- internals
    def _normalise_queries(
        self, queries: Union[BatchItem, Iterable[BatchItem]]
    ) -> list[Query]:
        items = iter_batch(queries)
        compiled: list[Query] = []
        for item in items:
            if isinstance(item, Query):
                compiled.append(item)
            elif isinstance(item, tuple):
                expression, variables = item
                compiled.append(compile_query(expression, tuple(variables), require_ppl=False))
            else:
                compiled.append(compile_query(item, (), require_ppl=False))
        return compiled


def _stream(
    futures: dict[int, Future], ordered: bool, unpack=None, on_error=None
) -> Iterator[CorpusResult]:
    """Yield per-document result lists from indexed futures, streaming.

    With ``ordered`` the next document in index order is yielded as soon as
    it (and everything before it) is done; otherwise documents are yielded
    in completion order.  A future that fails goes through ``on_error``
    (which returns substitute error records, or re-raises) when given;
    without it worker exceptions propagate to the consumer.
    """

    def results_of(index: int, future: Future):
        try:
            payload = future.result()
        except Exception as error:  # noqa: BLE001 — on_error decides
            if on_error is None:
                raise
            return on_error(index, error)
        return unpack(index, payload) if unpack else payload

    if ordered:
        for index in sorted(futures):
            yield from results_of(index, futures[index])
    else:
        remaining = {future: index for index, future in futures.items()}
        while remaining:
            done, _ = wait(list(remaining), return_when=FIRST_COMPLETED)
            for future in done:
                index = remaining.pop(future)
                yield from results_of(index, future)


def answer_corpus(
    store: DocumentStore,
    queries: Union[BatchItem, Iterable[BatchItem]],
    *,
    strategy: str = "serial",
    engine: str = DEFAULT_ENGINE,
    max_workers: Optional[int] = None,
    ordered: bool = True,
) -> Iterator[CorpusResult]:
    """One-shot convenience: run queries over a store and stream the results.

    For the process strategy prefer a long-lived :class:`CorpusExecutor` —
    this helper tears its worker pools (and their caches) down when the
    iterator is exhausted.
    """
    executor = CorpusExecutor(
        store, strategy=strategy, max_workers=max_workers, engine=engine
    )

    def generate() -> Iterator[CorpusResult]:
        try:
            yield from executor.run(queries, ordered=ordered)
        finally:
            executor.close()

    return generate()
