"""The asyncio serving core: concurrent submissions over a corpus executor.

See the package docstring (:mod:`repro.serve`) for the architecture.  In
short: :class:`CorpusServer` accepts concurrently-submitted query batches,
expands each into per-document jobs, pushes the jobs through the blocking
:class:`repro.corpus.CorpusExecutor` via its ``submit_document`` hook (the
event loop never blocks — shard pools or the dispatch thread do the work), and
streams per-document answers back through a bounded per-client queue.

Flow control has three independent knobs:

* ``max_concurrent`` — a semaphore bounding documents being *evaluated* at
  once, server-wide;
* ``max_queue`` — an admission bound on documents admitted but not finished;
  a submission that would overflow it while other work is pending is
  rejected whole with :class:`ServerOverloadedError` (fail fast beats
  unbounded buffering).  On an otherwise idle server any single submission
  is admitted regardless of size — overload is load-dependent, never
  structural, so big corpora stay servable with default limits;
* ``stream_buffer`` — the per-submission result queue size; a slow consumer
  stalls only its own submission's delivery (per-client backpressure), never
  the server loop or other clients.

Shutdown is graceful by default: :meth:`CorpusServer.drain` stops admission
and waits for in-flight submissions, :meth:`CorpusServer.aclose` then tears
down the executor pools.  :meth:`Submission.cancel` aborts one stream
mid-flight without touching the rest of the server.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Iterable, Optional, Sequence, Union

from repro.errors import ReproError
from repro.api.document import BatchItem, iter_batch
from repro.api.query import Query, compile_query
from repro.api.registry import DEFAULT_ENGINE
from repro.corpus.executor import CorpusExecutor, CorpusResult
from repro.corpus.store import CorpusError, DocumentStore
from repro.obs import trace as _trace
from repro.obs.http import OBS_PORT_ENV, ObsHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.pplbin import bitmatrix as _bitmatrix
from repro.serve.plancache import ANY_ENGINE, PlanCache
from repro.session.policy import ExecutionPolicy, ServingPolicy

#: Prometheus names of the server's two latency histograms.  ``execution``
#: is seconds from evaluation-slot acquisition to completion of one
#: document's jobs (the meaning the old sliding window had); ``queue_wait``
#: is seconds from admission to slot acquisition, so overload tail growth
#: is visible instead of hiding in front of the old measurement start.
EXECUTION_HISTOGRAM = "repro_request_execution_seconds"
QUEUE_WAIT_HISTOGRAM = "repro_request_queue_wait_seconds"


class ServeError(ReproError):
    """Base class of serving-layer errors."""


class ServerClosedError(ServeError):
    """Submission refused because the server is draining or closed."""


class ServerOverloadedError(ServeError):
    """Submission refused because the admission queue is full."""


#: Queue sentinel marking the end of a submission's result stream.
_DONE = object()


@dataclass(frozen=True)
class ServerStats:
    """A telemetry snapshot of one :class:`CorpusServer`.

    Latency quantiles come from the server's mergeable
    :class:`repro.obs.metrics.Histogram` of per-document *execution*
    latencies (seconds from evaluation-slot acquisition to completion of
    that document's jobs — the same meaning the pre-obs sliding window
    had); ``queue_wait_*`` quantiles are the separate admission-to-slot
    histogram, so overload shows up as queue-wait tail growth instead of
    being invisible.  ``uptime_seconds``/``stats_at`` are monotonic
    (``time.monotonic``), so two scrapes can turn counters into rates.
    ``answer_cache`` reflects the parent store's shared cache; under the
    process strategy the per-worker caches live in the shard workers —
    aggregate them with the (blocking)
    :meth:`repro.corpus.CorpusExecutor.answer_cache_stats` instead, off the
    event loop.
    """

    submitted: int
    completed: int
    rejected: int
    cancelled: int
    failed: int
    in_flight: int
    queued: int
    active_submissions: int
    p50_latency: Optional[float] = None
    p95_latency: Optional[float] = None
    plan_cache: Optional[dict] = None
    answer_cache: Optional[dict] = None
    matrix_cache: Optional[dict] = None
    snapshot: Optional[dict] = None
    kernel: Optional[str] = None
    p90_latency: Optional[float] = None
    p99_latency: Optional[float] = None
    queue_wait_p50: Optional[float] = None
    queue_wait_p90: Optional[float] = None
    queue_wait_p95: Optional[float] = None
    queue_wait_p99: Optional[float] = None
    latency: Optional[dict] = None
    queue_wait: Optional[dict] = None
    uptime_seconds: Optional[float] = None
    stats_at: Optional[float] = None
    slow_queries: int = 0
    #: Per-client resource-accounting totals: client identity -> summed
    #: ``QueryReport.cost`` fields plus ``queries`` (cost blocks folded in)
    #: and ``queue_wait`` (seconds of admission-to-slot wait).
    cost_per_client: Optional[dict] = None
    #: Fault-tolerance telemetry from the executor
    #: (:meth:`repro.corpus.CorpusExecutor.fault_stats`): worker restarts,
    #: retries, quarantined documents, degraded shards, recovery timings.
    faults: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "in_flight": self.in_flight,
            "queued": self.queued,
            "active_submissions": self.active_submissions,
            "p50_latency": self.p50_latency,
            "p90_latency": self.p90_latency,
            "p95_latency": self.p95_latency,
            "p99_latency": self.p99_latency,
            "queue_wait_p50": self.queue_wait_p50,
            "queue_wait_p90": self.queue_wait_p90,
            "queue_wait_p95": self.queue_wait_p95,
            "queue_wait_p99": self.queue_wait_p99,
            "latency": self.latency,
            "queue_wait": self.queue_wait,
            "uptime_seconds": self.uptime_seconds,
            "stats_at": self.stats_at,
            "slow_queries": self.slow_queries,
            "plan_cache": self.plan_cache,
            "answer_cache": self.answer_cache,
            "matrix_cache": self.matrix_cache,
            "snapshot": self.snapshot,
            "kernel": self.kernel,
            "cost_per_client": self.cost_per_client,
            "faults": self.faults,
        }


@dataclass
class Submission:
    """A handle on one accepted submission: an async stream of results.

    Iterate to receive one :class:`repro.corpus.CorpusResult` per
    (document, query) pair — in deterministic document order when the
    submission was made with ``ordered=True`` (default), in completion order
    otherwise.  :meth:`cancel` aborts outstanding work; results already
    queued are still delivered, then the stream ends with ``cancelled``
    set.  A worker exception ends the stream by re-raising on the consumer.
    """

    id: int
    queries: tuple[Query, ...]
    doc_names: tuple[str, ...]
    engine: str
    ordered: bool
    #: Client identity for per-client resource accounting (the protocol
    #: layer passes the connection's peer; ``None`` = anonymous).
    client: Optional[str] = None
    cancelled: bool = False
    _queue: Optional["asyncio.Queue"] = field(repr=False, default=None)
    _task: Optional["asyncio.Task"] = field(repr=False, default=None)
    _error: Optional[BaseException] = field(repr=False, default=None)
    _finished: bool = field(repr=False, default=False)
    #: Set by the producer when the stream ended but the sentinel found no
    #: queue room (abort with a full, unread queue).  Queued results stay
    #: deliverable; the stream ends once the queue drains.
    _done_pending: bool = field(repr=False, default=False)

    def __aiter__(self) -> AsyncIterator[CorpusResult]:
        return self

    async def __anext__(self) -> CorpusResult:
        if self._finished:
            raise StopAsyncIteration
        try:
            item = self._queue.get_nowait()
        except asyncio.QueueEmpty:
            # Queue drained: either the producer flagged the end without
            # room for the sentinel, or we block until it delivers more.
            # No lost-wakeup: the producer sets the flag *before* its final
            # put attempt, and an empty queue means that attempt succeeds.
            item = _DONE if self._done_pending else await self._queue.get()
        if item is _DONE:
            self._finished = True
            if self._error is not None:
                raise self._error
            raise StopAsyncIteration
        return item

    async def results(self) -> list[CorpusResult]:
        """Drain the stream into a list (convenience for non-streaming use)."""
        return [result async for result in self]

    def cancel(self) -> None:
        """Abort outstanding document jobs of this submission."""
        if not self.cancelled and not self._finished and self._task is not None:
            self.cancelled = True
            self._task.cancel()
            # A task cancelled before it ever ran executes no body (and no
            # finally), so the stream must be closed from here: queued
            # results still precede the sentinel, and the flag covers a
            # full queue.  Redundant when the producer's own finally runs.
            self._done_pending = True
            try:
                self._queue.put_nowait(_DONE)
            except asyncio.QueueFull:
                pass

    async def wait(self) -> None:
        """Wait until the submission's producer task has finished."""
        if self._task is not None:
            await asyncio.gather(self._task, return_exceptions=True)


class CorpusServer:
    """Serve concurrently-submitted queries over a document corpus.

    Parameters
    ----------
    store:
        The corpus to serve.
    strategy / max_workers / engine:
        Passed to the underlying :class:`repro.corpus.CorpusExecutor` (one
        is built unless ``executor`` is given).
    executor:
        An existing executor to serve from; it is closed by
        :meth:`aclose` only when the server created it itself.
    plan_cache:
        A :class:`repro.serve.plancache.PlanCache` used to resolve
        expression texts; hits skip parse/check/translate entirely, misses
        are compiled once and persisted, so the *next* server start is warm.
    max_concurrent:
        Documents evaluated at once (semaphore width, default 4).
    max_queue:
        Admitted-but-unfinished document bound; a submission that would
        overflow it while other work is pending is rejected with
        :class:`ServerOverloadedError` (an idle server admits any size).
    stream_buffer:
        Per-submission result queue size (per-client backpressure).
    latency_window:
        Accepted for compatibility; latency quantiles now come from
        unbounded mergeable histograms (:mod:`repro.obs.metrics`) rather
        than a bounded window, so the knob no longer limits anything.
    abandon_grace:
        Once the server is draining, a stream whose full queue has gone
        unread for this many seconds is treated as abandoned (consumer gone
        without cancelling) and cancelled, so shutdown can never wedge on a
        vanished client.
    policy:
        A :class:`repro.session.ServingPolicy` supplying the admission /
        backpressure / auth defaults in one object.  The individual keyword
        arguments above override matching policy fields (the documented
        *explicit > policy* precedence); auth and per-client quotas are
        enforced by the protocol layer, which reads them from here.
    session:
        The owning :class:`repro.session.Session`, when the server is that
        session's async surface.  Compilation then routes through the
        session's shared plan memo, so a plan compiled on the sync path is
        the same object this server streams from.

    When the serving policy sets ``obs_port`` (or, failing that, the
    ``REPRO_OBS_PORT`` environment variable names a port), the server also
    starts the stdlib HTTP observability endpoint
    (:class:`repro.obs.http.ObsHTTPServer` — ``/metrics``, ``/healthz``,
    ``/slowlog.json``, ``/traces.ndjson``) on construction and stops it on
    :meth:`aclose`/:meth:`close_nowait`; the bound port is
    ``server.obs_http.port``.
    """

    def __init__(
        self,
        store: DocumentStore,
        *,
        strategy: str = "serial",
        max_workers: Optional[int] = None,
        engine: str = DEFAULT_ENGINE,
        executor: Optional[CorpusExecutor] = None,
        plan_cache: Optional[PlanCache] = None,
        max_concurrent: Optional[int] = None,
        max_queue: Optional[int] = None,
        stream_buffer: Optional[int] = None,
        latency_window: Optional[int] = None,
        abandon_grace: Optional[float] = None,
        policy: Optional[ServingPolicy] = None,
        session=None,
    ) -> None:
        base = policy if policy is not None else ServingPolicy()
        #: The effective serving policy: explicit arguments folded over
        #: ``policy`` (the protocol layer reads auth/quota/size-limit from it).
        self.policy = base.override(
            max_concurrent=max_concurrent,
            max_queue=max_queue,
            stream_buffer=stream_buffer,
            latency_window=latency_window,
            abandon_grace=abandon_grace,
        )
        max_concurrent = self.policy.max_concurrent
        max_queue = self.policy.max_queue
        stream_buffer = self.policy.stream_buffer
        abandon_grace = self.policy.abandon_grace
        if max_concurrent < 1:
            raise ServeError("max_concurrent must be at least 1")
        if max_queue < 1:
            raise ServeError("max_queue must be at least 1")
        if stream_buffer < 1:
            raise ServeError("stream_buffer must be at least 1")
        if abandon_grace <= 0:
            raise ServeError("abandon_grace must be positive")
        self.store = store
        self.engine = engine
        self.plan_cache = plan_cache
        self.session = session
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.stream_buffer = stream_buffer
        self.abandon_grace = abandon_grace
        self._own_executor = executor is None
        if executor is not None:
            self.executor = executor
        else:
            self.executor = CorpusExecutor(
                store, strategy=strategy, max_workers=max_workers, engine=engine
            )
        self._semaphore: Optional[asyncio.Semaphore] = None
        #: Evaluation slots to retire instead of release (see
        #: :meth:`set_max_concurrent`): a concurrency *decrease* cannot take
        #: permits back from jobs already holding them, so the next acquirers
        #: consume this debt by keeping their permit unreleased.
        self._concurrency_debt = 0
        self._tasks: set["asyncio.Task"] = set()
        #: Per-document execution telemetry for cost-aware placement:
        #: ``name -> [count, total_execution_seconds]``.  Bounded by corpus
        #: size; exported by :meth:`doc_latencies` (the cluster supervisor's
        #: measured-cost feed).
        self._doc_latency: dict[str, list] = {}
        #: Mergeable latency histograms (see :mod:`repro.obs.metrics`),
        #: replacing the old bounded deque of recent latencies.
        self.metrics_registry = MetricsRegistry()
        self._execution_hist = self.metrics_registry.histogram(
            EXECUTION_HISTOGRAM,
            "Per-document execution seconds (evaluation slot to completion)",
        )
        self._queue_wait_hist = self.metrics_registry.histogram(
            QUEUE_WAIT_HISTOGRAM,
            "Per-document admission-to-evaluation-slot wait in seconds",
        )
        #: Slow-query log: the owning session's (so sync and async surfaces
        #: share one log), else a fresh one with the environment-resolved
        #: threshold (``REPRO_SLOW_QUERY_SECONDS``; ``None`` = disabled).
        session_slowlog = getattr(session, "slowlog", None)
        self.slowlog: SlowQueryLog = (
            session_slowlog
            if session_slowlog is not None
            else SlowQueryLog(ExecutionPolicy().resolved("slow_query_seconds"))
        )
        self._started_monotonic = time.monotonic()
        self._draining = False
        self._closed = False
        self._next_id = 0
        self._submitted = 0
        self._completed = 0
        self._rejected = 0
        self._cancelled = 0
        self._failed = 0
        self._in_flight = 0
        self._queued = 0
        #: Per-client resource-accounting totals: client identity (the
        #: protocol layer's connection peer, ``"anonymous"`` otherwise) ->
        #: summed ``QueryReport.cost`` fields plus queries/queue_wait.
        self._cost_totals: dict[str, dict] = {}
        #: The stdlib HTTP observability endpoint, when ``policy.obs_port``
        #: (or ``REPRO_OBS_PORT``) asked for one; ``None`` otherwise.
        self.obs_http: Optional[ObsHTTPServer] = None
        obs_port = self.policy.obs_port
        if obs_port is None:
            raw = os.environ.get(OBS_PORT_ENV, "").strip()
            if raw:
                try:
                    obs_port = int(raw)
                except ValueError:
                    obs_port = None
        if obs_port is not None:
            self.obs_http = ObsHTTPServer(
                self.metrics_text,
                slowlog=self.slowlog,
                health=self._health_payload,
                port=obs_port,
            )
            self.obs_http.start()

    def _health_payload(self) -> dict:
        """Liveness fields for ``/healthz`` (and the protocol's health op).

        ``status`` flips from ``"ok"`` to ``"degraded"`` while any shard
        pool has tripped its circuit breaker into in-process serial
        fallback; the fault-telemetry block rides along so an operator can
        see restarts/quarantines from the probe alone.

        ``quarantined`` is always present: the per-shard quarantined
        *document list* (shard index, as a string key, to sorted names —
        empty dict when nothing is quarantined), so a cluster supervisor
        can migrate poisoned documents specifically instead of re-placing
        a whole member's shard blindly.
        """
        degraded = self.executor.degraded_shard_count
        payload = {
            "status": "degraded" if degraded > 0 else "ok",
            "documents": len(self.store),
            "in_flight": self._in_flight,
            "draining": self._draining,
            "quarantined": self.executor.quarantined_by_shard(),
        }
        if degraded:
            payload["faults"] = self.executor.fault_stats()
        return payload

    def set_max_concurrent(self, value: int) -> int:
        """Resize the evaluation semaphore at runtime; returns the old width.

        The cluster supervisor's AIMD autotune calls this between scrapes.
        An increase releases fresh permits immediately; a decrease is
        recorded as *debt* — jobs currently evaluating keep their permits,
        and the next acquirers retire permits instead of starting, so the
        width converges without ever cancelling running work.  Loop-safe:
        must be called from the server's event loop (the protocol layer's
        ``cluster.tune`` op does).
        """
        value = int(value)
        if value < 1:
            raise ServeError("max_concurrent must be at least 1")
        old = self.max_concurrent
        if value == old:
            return old
        self.max_concurrent = value
        self.policy = self.policy.override(max_concurrent=value)
        if self._semaphore is not None:
            if value > old:
                grant = value - old
                # New permits first pay down outstanding debt, then open
                # real slots.
                settled = min(self._concurrency_debt, grant)
                self._concurrency_debt -= settled
                for _ in range(grant - settled):
                    self._semaphore.release()
            else:
                self._concurrency_debt += old - value
        return old

    async def _acquire_slot(self) -> None:
        """Acquire one evaluation slot, retiring permits owed as debt."""
        while True:
            await self._semaphore.acquire()
            if self._concurrency_debt > 0:
                # This permit is retired, not released: the semaphore's
                # effective width just shrank by one.  Single-threaded on
                # the loop, so no race against set_max_concurrent.
                self._concurrency_debt -= 1
                continue
            return

    # ---------------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "CorpusServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def drain(self) -> None:
        """Stop admitting submissions and wait for in-flight work to finish."""
        self._draining = True
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def aclose(self) -> None:
        """Drain, then shut down the executor pools (idempotent)."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        if self.obs_http is not None:
            self.obs_http.close()
        if self._own_executor:
            self.executor.close()

    def close_nowait(self) -> None:
        """Synchronously stop admission, without draining (idempotent).

        For teardown paths that cannot await (``Session.close`` from sync
        code): new submissions are refused with
        :class:`ServerClosedError` immediately, in-flight producer tasks
        are left to the owning loop.  The executor is *not* closed here —
        the caller owns that (a session closes its shared executor itself;
        a server that owns its executor should use :meth:`aclose`).
        """
        self._draining = True
        self._closed = True
        if self.obs_http is not None:
            self.obs_http.close()

    # --------------------------------------------------------------- submission
    def compile(
        self, expression: Union[str, BatchItem], variables: Sequence[str] = ()
    ) -> Query:
        """Compile one expression through the plan cache (if configured).

        When the server belongs to a :class:`repro.session.Session`, the
        session's shared compiled-plan memo does the work instead — the
        returned :class:`Query` is then the *same object* the session's
        sync surface answers with (one plan, both surfaces).
        """
        if isinstance(expression, Query):
            return expression
        if isinstance(expression, tuple):
            expression, variables = expression
        if self.session is not None:
            return self.session.compile(expression, tuple(variables))
        if isinstance(expression, str) and self.plan_cache is not None:
            # Compiled plans carry every translation, so they are engine
            # independent: keyed under the shared ANY_ENGINE label, one
            # cached plan serves every engine (and `serve warm` hits
            # regardless of which --engine the server later runs with).
            return self.plan_cache.get_or_compile(
                expression, tuple(variables), engine=ANY_ENGINE
            )
        return compile_query(expression, tuple(variables), require_ppl=False)

    async def submit(
        self,
        queries: Union[BatchItem, Iterable[BatchItem]],
        documents: Optional[Sequence[str]] = None,
        *,
        engine: Optional[str] = None,
        ordered: bool = True,
        client: Optional[str] = None,
    ) -> Submission:
        """Admit a query batch; returns a :class:`Submission` stream.

        Compilation (including plan-cache disk traffic) runs off the event
        loop; admission is checked after it, atomically with scheduling.
        ``client`` names the submitting client for the per-client cost
        totals on :attr:`stats` (the protocol layer passes the connection
        peer).

        Raises
        ------
        ServerClosedError
            When the server is draining or closed.
        ServerOverloadedError
            When admitting the batch would overflow ``max_queue``.
        CorpusError
            For unknown document names (before any work is scheduled).
        """
        if self._draining or self._closed:
            raise ServerClosedError("the server is draining; no new submissions")
        batch = iter_batch(queries)
        if all(isinstance(item, Query) for item in batch):
            compiled = tuple(batch)
        else:
            # Anything not yet compiled (strings, pairs, bare PathExprs)
            # pays parse/check/translate — off the event loop.
            compiled = tuple(
                await asyncio.to_thread(self._compile_batch, batch)
            )
        if self._draining or self._closed:  # may have started draining meanwhile
            raise ServerClosedError("the server is draining; no new submissions")
        names = tuple(documents) if documents is not None else tuple(self.store.names())
        for name in names:
            if name not in self.store:
                raise CorpusError(f"unknown document {name!r}")
        pending = self._queued + self._in_flight
        # Overload is load-dependent, never structural: an idle server
        # admits a submission of any size (it trickles through the
        # evaluation semaphore), so a corpus larger than max_queue stays
        # servable with default limits and client retries can succeed.
        if pending > 0 and pending + len(names) > self.max_queue:
            self._rejected += 1
            raise ServerOverloadedError(
                f"admission queue full ({pending} pending, "
                f"{len(names)} requested, limit {self.max_queue})"
            )
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.max_concurrent)
        self._next_id += 1
        self._submitted += 1
        submission = Submission(
            id=self._next_id,
            queries=compiled,
            doc_names=names,
            engine=engine if engine is not None else self.engine,
            ordered=ordered,
            client=client,
        )
        submission._queue = asyncio.Queue(maxsize=self.stream_buffer)
        # Admission slots are reserved *now*, synchronously with the check
        # above — the producer task may not run for a while, and a second
        # submit arriving in between must see the queue as occupied.  Slots
        # not yet handed to a job when the producer finishes (cancelled
        # before start, failed early) are released by the done-callback.
        self._queued += len(names)
        unspawned = {"count": len(names)}
        task = asyncio.create_task(self._run_submission(submission, unspawned))
        submission._task = task
        self._tasks.add(task)

        def _finalise(finished: "asyncio.Task") -> None:
            self._tasks.discard(finished)
            self._queued -= unspawned["count"]
            unspawned["count"] = 0
            if finished.cancelled():
                # Cancelled before the body ran: the producer's own
                # CancelledError accounting never executed.
                self._cancelled += 1

        task.add_done_callback(_finalise)
        return submission

    def _compile_batch(self, batch: list[BatchItem]) -> list[Query]:
        return [self.compile(item) for item in batch]

    async def answer(
        self,
        queries: Union[BatchItem, Iterable[BatchItem]],
        documents: Optional[Sequence[str]] = None,
        *,
        engine: Optional[str] = None,
        ordered: bool = True,
    ) -> list[CorpusResult]:
        """Submit and collect in one await (convenience wrapper)."""
        submission = await self.submit(
            queries, documents, engine=engine, ordered=ordered
        )
        return await submission.results()

    # ----------------------------------------------------------------- internals
    def _spawn_job(self, submission: Submission, name: str) -> "asyncio.Task":
        """Create one admitted document job with leak-proof slot accounting.

        The job takes over one of the admission slots reserved by
        :meth:`submit` and releases it exactly once — normally when it
        acquires an evaluation slot, but via the done-callback when it is
        cancelled before its coroutine ever ran (a cancelled-before-start
        task executes no body code, so the accounting cannot live inside
        the coroutine alone).
        """
        state = {"dequeued": False}

        def dequeue() -> None:
            if not state["dequeued"]:
                state["dequeued"] = True
                self._queued -= 1

        task = asyncio.create_task(self._run_document(submission, name, dequeue))
        task.add_done_callback(lambda _finished: dequeue())
        return task

    async def _run_submission(self, submission: Submission, unspawned: dict) -> None:
        """Producer task: schedule per-document jobs, deliver results in order."""
        jobs = []
        for name in submission.doc_names:
            unspawned["count"] -= 1
            jobs.append(self._spawn_job(submission, name))
        try:
            if submission.ordered:
                for job in jobs:
                    for result in await job:
                        await self._put_result(submission, result)
            else:
                for next_done in asyncio.as_completed(jobs):
                    for result in await next_done:
                        await self._put_result(submission, result)
        except asyncio.CancelledError:
            submission.cancelled = True
            self._cancelled += 1
        except Exception as error:
            submission._error = error
            self._failed += 1
        finally:
            for job in jobs:
                if not job.done():
                    job.cancel()
            await asyncio.gather(*jobs, return_exceptions=True)
            # The sentinel must always arrive, and this task must always
            # terminate (drain()/aclose() gather it).  On the normal path a
            # full queue means a live, slow consumer: a blocking put is
            # correct and preserves every queued result.  On an aborted
            # stream (cancelled or failed) the consumer may be gone for
            # good — a client that disconnected mid-stream — so blocking
            # would wedge the server; drop queued results instead (the
            # stream is ending with ``cancelled``/an error anyway) until
            # the sentinel fits.
            # Flag first, then try the sentinel: if the queue is full the
            # consumer is not blocked on get() and will see the flag once
            # it drains the (still fully deliverable) queue; if the queue
            # is empty the put wakes a blocked consumer.  Never a blocking
            # put — a vanished consumer must not wedge this task (and with
            # it drain()/aclose()), however the stream ended.
            submission._done_pending = True
            try:
                submission._queue.put_nowait(_DONE)
            except asyncio.QueueFull:
                pass

    async def _put_result(self, submission: Submission, result) -> None:
        """Deliver one result without ever wedging shutdown.

        A plain blocking put would hang forever if the consumer stopped
        iterating without cancelling (a vanished client whose stream nobody
        reads).  The put is therefore re-armed periodically; while the
        server is *draining*, a stream whose queue has stayed full past
        ``abandon_grace`` is treated as abandoned and cancelled — the
        cancelled path guarantees the sentinel lands and the task ends.  A
        live slow consumer is unaffected: any successful put resets the
        clock, and outside of drain the producer waits indefinitely.
        """
        # asyncio.wait (not wait_for) on purpose: wait_for swallows this
        # task's cancellation when the put completes in the same loop tick,
        # which would make Submission.cancel() silently lose the race.
        putter = asyncio.ensure_future(submission._queue.put(result))
        unread_since: Optional[float] = None
        try:
            while True:
                done, _ = await asyncio.wait({putter}, timeout=0.25)
                if done:
                    putter.result()
                    return
                if not self._draining:
                    unread_since = None
                    continue
                now = time.perf_counter()
                if unread_since is None:
                    unread_since = now
                elif now - unread_since >= self.abandon_grace:
                    raise asyncio.CancelledError(
                        "stream abandoned: queue unread while draining"
                    )
        finally:
            if not putter.done():
                putter.cancel()
                await asyncio.gather(putter, return_exceptions=True)

    async def _run_document(
        self, submission: Submission, name: str, dequeue
    ) -> list[CorpusResult]:
        """One admitted document job: wait for an evaluation slot, run off-loop."""
        enqueued = time.perf_counter()
        await self._acquire_slot()
        try:
            dequeue()
            self._in_flight += 1
            started = time.perf_counter()
            self._queue_wait_hist.observe(started - enqueued)
            try:
                # Off-loop: under the processes strategy, submitting can
                # repartition shards (blocking pool spawn/shutdown and
                # pickling source specs) — the event loop must not pay
                # that.  The shared `handoff` dict keeps the executor
                # future reachable when this task is cancelled *during*
                # the thread hop: store-then-check on the thread side and
                # set-then-check on the cancel side guarantee at least one
                # of them sees the other, so the future is always
                # cancelled rather than silently evaluated and dropped.
                handoff = {"future": None, "cancelled": False}

                def _submit_off_loop():
                    future = self.executor.submit_document(
                        name, list(submission.queries), engine=submission.engine
                    )
                    handoff["future"] = future
                    if handoff["cancelled"]:
                        future.cancel()
                    return future

                try:
                    future = await asyncio.to_thread(_submit_off_loop)
                except asyncio.CancelledError:
                    handoff["cancelled"] = True
                    if handoff["future"] is not None:
                        handoff["future"].cancel()
                    raise
                results = await asyncio.wrap_future(future)
            finally:
                self._in_flight -= 1
            finished = time.perf_counter()
            elapsed = finished - started
            self._execution_hist.observe(elapsed)
            latency = self._doc_latency.setdefault(name, [0, 0.0])
            latency[0] += 1
            latency[1] += elapsed
            self._completed += 1
            self._account_costs(submission, results, started - enqueued)
            if _trace.enabled():
                # The request lifecycle as a trace: recorded from explicit
                # timestamps (the thread-local span stack would interleave
                # across await points on a shared event-loop thread).
                _trace.record_span(
                    "server.request",
                    enqueued,
                    finished,
                    children=[
                        {"name": "queue.wait", "started": enqueued, "ended": started},
                        {"name": "execute", "started": started, "ended": finished},
                    ],
                    document=name,
                    submission=submission.id,
                )
            if self.slowlog.should_log(elapsed):
                self.slowlog.record(
                    elapsed,
                    query="; ".join(
                        query.text if query.text is not None else query.unparse()
                        for query in submission.queries
                    ),
                    document=name,
                    queue_wait=started - enqueued,
                    trace=next(
                        (r.report.trace for r in results if r.report.trace is not None),
                        None,
                    ),
                )
            return results
        finally:
            self._semaphore.release()

    def _account_costs(
        self, submission: Submission, results: list[CorpusResult], queue_wait: float
    ) -> None:
        """Fold one document job's cost blocks into the per-client totals.

        The labelled *metric* aggregation of the same blocks happens in the
        corpus executor (every strategy observes where it evaluates); this
        is the attribution side — which client spent what — that metrics
        label sets are too coarse for.
        """
        client = submission.client if submission.client is not None else "anonymous"
        totals = self._cost_totals.setdefault(
            client, {"queries": 0, "queue_wait": 0.0}
        )
        totals["queue_wait"] += queue_wait
        for result in results:
            cost = result.report.cost
            if not cost:
                continue
            totals["queries"] += 1
            for cost_field, value in cost.items():
                if isinstance(value, (int, float)):
                    totals[cost_field] = totals.get(cost_field, 0) + value

    # ---------------------------------------------------------------- telemetry
    def doc_latencies(self) -> dict[str, dict]:
        """Per-document observed execution cost: ``name -> {count, seconds,
        mean_seconds}``.

        This is the measured half of the cluster supervisor's cost model
        (tree size is the prior): a member ships it on ``cluster.describe``
        and the supervisor folds it into placement decisions.  Cheap and
        loop-safe.
        """
        return {
            name: {
                "count": count,
                "seconds": total,
                "mean_seconds": total / count if count else 0.0,
            }
            for name, (count, total) in self._doc_latency.items()
        }

    @property
    def stats(self) -> ServerStats:
        """A :class:`ServerStats` snapshot (cheap; safe to poll from the loop)."""
        execution = self._execution_hist
        queue_wait = self._queue_wait_hist
        answer_cache = self.store.answer_cache
        return ServerStats(
            submitted=self._submitted,
            completed=self._completed,
            rejected=self._rejected,
            cancelled=self._cancelled,
            failed=self._failed,
            in_flight=self._in_flight,
            queued=self._queued,
            active_submissions=len(self._tasks),
            p50_latency=execution.quantile(0.50),
            p90_latency=execution.quantile(0.90),
            p95_latency=execution.quantile(0.95),
            p99_latency=execution.quantile(0.99),
            queue_wait_p50=queue_wait.quantile(0.50),
            queue_wait_p90=queue_wait.quantile(0.90),
            queue_wait_p95=queue_wait.quantile(0.95),
            queue_wait_p99=queue_wait.quantile(0.99),
            latency=execution.summary(),
            queue_wait=queue_wait.summary(),
            uptime_seconds=time.monotonic() - self._started_monotonic,
            stats_at=time.monotonic(),
            slow_queries=len(self.slowlog),
            plan_cache=(
                self.plan_cache.stats.to_dict() if self.plan_cache is not None else None
            ),
            answer_cache=(
                answer_cache.stats.to_dict() if answer_cache is not None else None
            ),
            matrix_cache=self.store.matrix_cache_stats().to_dict(),
            snapshot=self.store.snapshot_stats(),
            kernel=_bitmatrix.get_default_kernel().name,
            cost_per_client=(
                {client: dict(totals) for client, totals in self._cost_totals.items()}
                if self._cost_totals
                else None
            ),
            faults=self.executor.fault_stats(),
        )

    def metrics_text(self) -> str:
        """Render the server's telemetry in Prometheus text exposition format."""
        return self.metrics_snapshot().render()

    def metrics_snapshot(self) -> MetricsRegistry:
        """The server's telemetry as one freshly-merged registry.

        Monotonic request counters and point-in-time gauges are mirrored
        into a fresh registry at snapshot time (the integers on ``self``
        stay the source of truth); the two latency histograms are merged
        in bucket-by-bucket.  Cheap and loop-safe, like :attr:`stats` —
        this is both what ``/metrics`` renders and what a cluster member
        ships to its supervisor on ``cluster.describe``.
        """
        registry = MetricsRegistry()
        counters = {
            "repro_server_submitted_total": (self._submitted, "Submissions admitted"),
            "repro_server_completed_total": (self._completed, "Document jobs completed"),
            "repro_server_rejected_total": (self._rejected, "Submissions rejected (overload)"),
            "repro_server_cancelled_total": (self._cancelled, "Submissions cancelled"),
            "repro_server_failed_total": (self._failed, "Submissions failed"),
            "repro_server_slow_queries_total": (len(self.slowlog), "Slow-query log entries"),
        }
        for name, (value, help_text) in counters.items():
            registry.counter(name, help_text).inc(value)
        gauges = {
            "repro_server_in_flight": (self._in_flight, "Documents evaluating now"),
            "repro_server_queued": (self._queued, "Documents admitted, not started"),
            "repro_server_active_submissions": (
                len(self._tasks),
                "Submissions with live producer tasks",
            ),
            "repro_server_uptime_seconds": (
                time.monotonic() - self._started_monotonic,
                "Seconds since server construction (monotonic)",
            ),
        }
        for name, (value, help_text) in gauges.items():
            registry.gauge(name, help_text).set(value)
        cache_sources = {
            "plan_cache": self.plan_cache.stats.to_dict() if self.plan_cache is not None else None,
            "answer_cache": (
                self.store.answer_cache.stats.to_dict()
                if self.store.answer_cache is not None
                else None
            ),
        }
        for cache_name, cache_stats in cache_sources.items():
            if cache_stats is None:
                continue
            for counter_name in ("hits", "misses", "evictions", "stores"):
                value = cache_stats.get(counter_name)
                if value is not None:
                    registry.counter(
                        f"repro_{cache_name}_{counter_name}_total",
                        f"{cache_name} {counter_name}",
                    ).inc(value)
        registry.merge(self.metrics_registry)
        # The executor's parent-side registry carries the labelled latency
        # and cost-counter series for work evaluated in this process
        # (the serial strategy, and the parent's share otherwise).
        # Deliberately NOT ``executor.metrics()``: that round-trips every
        # shard worker and would block the event loop mid-scrape.  Worker
        # series are reachable via ``Session.metrics()`` off the loop.
        registry.merge(self.executor.metrics_registry)
        return registry


