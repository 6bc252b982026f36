"""The execution context: one object owning stores, pools, caches and plans.

A :class:`Session` is the single front door PR 5 consolidates the stack
behind.  It owns every resource that used to be scattered process-wide —
the document store, the corpus executor's worker pools, the async server,
the persistent plan cache and the in-memory compiled-plan memo — and it is
configured by two frozen policies (:class:`repro.session.ExecutionPolicy`,
:class:`repro.session.ServingPolicy`) under the documented precedence
*explicit argument > policy > environment > default*.

Symmetric sync/async surface::

    with Session(max_resident=32, kernel="bitset") as session:
        session.add_directory("corpus/")
        answers = session.query("doc000", "descendant::a[. is $x]", ["x"])
        for result in session.query_corpus((EXPR, ["y", "z"])):
            ...

    async with Session(store=store, serving=ServingPolicy(max_concurrent=8)) as s:
        results = await s.aquery((EXPR, ["y"]))
        stream = await s.astream((EXPR, ["y"]), token=s.cancellation_token())
        async for result in stream:
            ...

One compiled-plan memo backs *both* surfaces: an expression compiled by the
sync :meth:`Session.query` is the very same :class:`repro.api.Query` object
the async server streams from (and vice versa), and with a persistent plan
cache configured it also survives restarts.

Lifecycle is deterministic: :meth:`Session.close` (or leaving the ``with``
block) tears down worker pools and drops cache handles exactly once; any
later call raises the typed :class:`repro.errors.SessionClosedError`.
``async with`` uses :meth:`Session.aclose`, which additionally cancels
in-flight streams and drains the server first.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import queue as queue_module
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence, Union

from repro.errors import CorpusTimeoutError, SessionClosedError
from repro.obs import trace as _trace
from repro.obs.slowlog import SlowQueryLog
from repro.session.policy import UNSET, ExecutionPolicy, ServingPolicy
from repro.session.tokens import CancellationToken

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.document import Document
    from repro.api.query import Query
    from repro.corpus.executor import CorpusExecutor, CorpusResult
    from repro.corpus.report import CorpusReport
    from repro.corpus.store import DocumentStore
    from repro.core.engine import QueryReport
    from repro.serve.plancache import PlanCache
    from repro.serve.protocol import ProtocolServer
    from repro.serve.server import CorpusServer, Submission
    from repro.trees.tree import Node, Tree


def _stream_with_deadline(results: Iterator, timeout: float) -> Iterator:
    """Enforce a wall-clock deadline on a streaming result iterator.

    The underlying iterator is pulled on a daemon pump thread feeding a
    bounded queue; the consumer side charges every ``get`` against one
    monotonic deadline covering the *whole* stream.  When the deadline
    passes — whether the producer is stuck inside one slow document or the
    corpus is simply too large — the consumer raises
    :class:`repro.errors.CorpusTimeoutError` and signals the pump to stop.
    The pump polls its bounded ``put`` against the stop event, so an
    abandoned producer cannot block forever on a queue nobody drains.
    """
    deadline = time.monotonic() + timeout
    handoff: queue_module.Queue = queue_module.Queue(maxsize=4)
    stop = threading.Event()
    done = object()

    def pump() -> None:
        def offer(item) -> bool:
            while not stop.is_set():
                try:
                    handoff.put(item, timeout=0.05)
                    return True
                except queue_module.Full:
                    continue
            return False

        try:
            for result in results:
                if not offer((None, result)):
                    return
        except BaseException as error:  # noqa: BLE001 - re-raised consumer-side
            offer((error, None))
            return
        offer((done, None))

    thread = threading.Thread(target=pump, name="corpus-timeout-pump", daemon=True)
    thread.start()
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CorpusTimeoutError(timeout)
            try:
                marker, payload = handoff.get(timeout=remaining)
            except queue_module.Empty:
                raise CorpusTimeoutError(timeout) from None
            if marker is done:
                return
            if marker is not None:
                raise marker
            yield payload
    finally:
        stop.set()


class Session:
    """One execution context: store + pools + caches + plans, policy-driven.

    Parameters
    ----------
    store:
        An existing :class:`repro.corpus.DocumentStore` to adopt (the
        session does **not** reconfigure it).  Without one, the session
        builds its own store from the resolved execution policy
        (``max_resident``, ``cache_answers``, ``answer_cache_bytes``,
        ``kernel``, ``matrix_cache_bytes``).
    execution / serving:
        The policy objects.  Omitted fields fall through to the matching
        ``REPRO_*`` environment variable, then the built-in default.
    engine, kernel, strategy, max_workers, max_resident, cache_answers,
    answer_cache_bytes, matrix_cache_bytes, timeout:
        Explicit overrides folded *over* ``execution`` (explicit > policy).
        ``strategy`` is ``"serial"`` or ``"processes"``; ``max_workers`` is
        the shard count of ``"processes"``.
    max_retries, retry_backoff, on_error, max_worker_restarts, restart_backoff:
        Fault-tolerance overrides (retry budget and backoff for transient
        per-document failures, error-record/skip policy, and the supervised
        shard-pool restart budget), folded over ``execution`` likewise.
    plan_cache:
        A :class:`repro.serve.PlanCache`, a directory path for one, or
        ``None`` to disable persistence explicitly; unset falls through to
        ``execution.plan_cache_dir`` / ``REPRO_PLAN_CACHE``.  Compiled
        plans always memoise in memory for the session's lifetime.
    snapshot_dir / snapshot_bytes:
        Directory (and LRU byte budget) of the on-disk columnar snapshot
        store; unset falls through to ``execution.snapshot_dir`` /
        ``REPRO_SNAPSHOT_DIR`` (and the ``_BYTES`` variants).  With a
        directory set, the session's store memmaps snapshots instead of
        re-parsing XML and spills answer sets for warm restarts.
    """

    def __init__(
        self,
        store: Optional["DocumentStore"] = None,
        *,
        execution: Optional[ExecutionPolicy] = None,
        serving: Optional[ServingPolicy] = None,
        engine: Optional[str] = None,
        kernel: Any = None,
        strategy: Optional[str] = None,
        max_workers: Optional[int] = None,
        max_resident: Any = UNSET,
        cache_answers: Optional[bool] = None,
        answer_cache_bytes: Any = UNSET,
        matrix_cache_bytes: Any = UNSET,
        timeout: Any = UNSET,
        plan_cache: Any = UNSET,
        plan_cache_bytes: Any = UNSET,
        snapshot_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        snapshot_bytes: Any = UNSET,
        max_retries: Any = UNSET,
        retry_backoff: Any = UNSET,
        on_error: Optional[str] = None,
        max_worker_restarts: Any = UNSET,
        restart_backoff: Any = UNSET,
    ) -> None:
        explicit: dict[str, Any] = {}
        if engine is not None:
            explicit["engine"] = engine
        if kernel is not None:
            explicit["kernel"] = kernel
        if strategy is not None:
            explicit["strategy"] = strategy
        if max_workers is not None:
            explicit["max_workers"] = max_workers
        if max_resident is not UNSET:
            explicit["max_resident"] = max_resident
        if cache_answers is not None:
            explicit["cache_answers"] = cache_answers
        if answer_cache_bytes is not UNSET:
            explicit["answer_cache_bytes"] = answer_cache_bytes
        if matrix_cache_bytes is not UNSET:
            explicit["matrix_cache_bytes"] = matrix_cache_bytes
        if timeout is not UNSET:
            explicit["timeout"] = timeout
        if plan_cache_bytes is not UNSET:
            explicit["plan_cache_bytes"] = plan_cache_bytes
        if snapshot_dir is not None:
            explicit["snapshot_dir"] = os.fspath(snapshot_dir)
        if snapshot_bytes is not UNSET:
            explicit["snapshot_bytes"] = snapshot_bytes
        if max_retries is not UNSET:
            explicit["max_retries"] = max_retries
        if retry_backoff is not UNSET:
            explicit["retry_backoff"] = retry_backoff
        if on_error is not None:
            explicit["on_error"] = on_error
        if max_worker_restarts is not UNSET:
            explicit["max_worker_restarts"] = max_worker_restarts
        if restart_backoff is not UNSET:
            explicit["restart_backoff"] = restart_backoff
        base = execution if execution is not None else ExecutionPolicy()
        #: The merged execution policy (explicit args folded over ``execution``).
        self.execution: ExecutionPolicy = (
            dataclasses.replace(base, **explicit) if explicit else base
        )
        #: The serving policy governing the async surface.
        self.serving: ServingPolicy = serving if serving is not None else ServingPolicy()

        self._lock = threading.RLock()
        self._closed = False
        self._started_monotonic = time.monotonic()
        #: Slow-query log (threshold from ``slow_query_seconds`` /
        #: ``REPRO_SLOW_QUERY_SECONDS``; ``None`` disables).  Shared with
        #: the session's server so both surfaces land in one log.
        self.slowlog = SlowQueryLog(self.execution.resolved("slow_query_seconds"))
        if self.execution.resolved("trace"):
            # Tracing is process-wide (like the kernel default): enabling it
            # here is deliberate and never un-done on close, so a second
            # session cannot silently disable another's tracing.
            _trace.set_tracing(True)
        sample = self.execution.resolved("trace_sample")
        if sample is not None and sample > 0:
            # Same process-wide contract as ``trace``: sampling set here is
            # never reset on close.
            _trace.set_trace_sample(sample)
        self.store = store if store is not None else self._build_store()
        self._plan_cache = self._build_plan_cache(plan_cache)
        from repro.api.query import PlanMemo

        #: In-memory compiled-plan memo shared by the sync and async paths.
        self._plans = PlanMemo()
        self._executor: Optional["CorpusExecutor"] = None
        self._server: Optional["CorpusServer"] = None
        #: Submissions created through :meth:`astream`, for aclose teardown.
        self._active_submissions: list["Submission"] = []

    # ------------------------------------------------------------ construction
    def _build_store(self) -> "DocumentStore":
        from repro.corpus.store import DocumentStore

        resolve = self.execution.resolve
        kwargs: dict[str, Any] = {
            "max_resident": resolve("max_resident").value,
            "cache_answers": bool(resolve("cache_answers").value),
            "answer_cache_bytes": resolve("answer_cache_bytes").value,
        }
        # The kernel and the matrix budget are forwarded only when the
        # session itself pinned them (explicitly or via policy): the tree
        # and kernel layers already honour their own REPRO_* environment
        # defaults, and forwarding an env-resolved value here would freeze
        # it per store instead of per process.
        kernel = resolve("kernel")
        if kernel.source in ("explicit", "policy"):
            kwargs["kernel"] = kernel.value
        matrix_budget = resolve("matrix_cache_bytes")
        if matrix_budget.source in ("explicit", "policy"):
            kwargs["matrix_cache_bytes"] = matrix_budget.value
        # The snapshot directory forwards from *any* layer, environment
        # included: unlike the kernel/matrix knobs there is no lower layer
        # reading REPRO_SNAPSHOT_DIR itself, so the session is the one place
        # the env default can take effect.
        snapshot_dir = resolve("snapshot_dir").value
        if snapshot_dir is not None:
            kwargs["snapshot_dir"] = snapshot_dir
            kwargs["snapshot_bytes"] = resolve("snapshot_bytes").value
        return DocumentStore(**kwargs)

    def _build_plan_cache(self, plan_cache: Any) -> Optional["PlanCache"]:
        from repro.serve.plancache import PlanCache

        if isinstance(plan_cache, PlanCache):
            return plan_cache
        if plan_cache is None:
            return None  # persistence explicitly disabled
        if plan_cache is UNSET:
            directory = self.execution.resolved("plan_cache_dir")
        else:
            directory = plan_cache
        if directory is None:
            return None
        return PlanCache(
            Path(directory), max_bytes=self.execution.resolved("plan_cache_bytes")
        )

    # ---------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        """True once :meth:`close` or :meth:`aclose` has completed."""
        return self._closed

    def _ensure_open(self, operation: str) -> None:
        if self._closed:
            raise SessionClosedError(operation)

    def close(self) -> None:
        """Tear down worker pools deterministically (idempotent).

        Safe to call any number of times; the first call shuts the corpus
        executor's dispatch/shard pools down (cancelling queued work) and
        marks the session closed.  If the async surface was used, prefer
        :meth:`aclose`, which also cancels in-flight streams and drains the
        server before the pools go away.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
            server, self._server = self._server, None
        if server is not None:
            # Best-effort sync teardown: stop admission so a still-running
            # loop cannot hand new work to the dying pools.
            server.close_nowait()
        if executor is not None:
            executor.close()

    async def aclose(self) -> None:
        """Cancel in-flight streams, drain the server, then :meth:`close`."""
        if self._closed:
            return
        with self._lock:
            submissions, self._active_submissions = self._active_submissions, []
            server = self._server
        for submission in submissions:
            submission.cancel()
        if server is not None:
            await server.aclose()  # drains, then closes the executor via close()
        self.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    async def __aenter__(self) -> "Session":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------ registration
    def add_xml(self, name: str, text: str) -> str:
        """Register an XML string under ``name`` (delegates to the store)."""
        self._ensure_open("add_xml")
        return self.store.add_xml(name, text)

    def add_file(self, path: Union[str, "os.PathLike[str]"], name: Optional[str] = None) -> str:
        """Register an XML file (delegates to the store)."""
        self._ensure_open("add_file")
        return self.store.add_file(path, name=name)

    def add_tree(self, name: str, tree: Union["Tree", "Node"]) -> str:
        """Register an in-memory tree (delegates to the store)."""
        self._ensure_open("add_tree")
        return self.store.add_tree(name, tree)

    def add_directory(
        self, directory: Union[str, "os.PathLike[str]"], pattern: str = "*.xml"
    ) -> list[str]:
        """Register every matching file of a directory (delegates to the store)."""
        self._ensure_open("add_directory")
        return self.store.add_directory(directory, pattern)

    def document(self, name: str) -> "Document":
        """The materialised document registered under ``name``."""
        self._ensure_open("document")
        return self.store.get(name)

    # ------------------------------------------------------------- compilation
    def compile(self, expression: Any, variables: Sequence[str] = ()) -> "Query":
        """Compile once per session; the same object serves sync and async.

        Strings go through the persistent plan cache when one is
        configured; every compile lands in the in-memory memo, so the plan
        the server streams from *is* the object the sync path answered
        with.
        """
        self._ensure_open("compile")
        from repro.api.query import Query, compile_query

        if isinstance(expression, Query):
            # Adopt an externally compiled plan into the memo under its own
            # identity, so later compiles of the same text hit it.
            with self._lock:
                return self._plans.setdefault(expression.cache_key, expression)
        key = (expression, tuple(variables))
        with self._lock:
            query = self._plans.get(key)
        if query is not None:
            return query
        if isinstance(expression, str) and self._plan_cache is not None:
            query = self._plan_cache.get_or_compile(expression, tuple(variables))
        else:
            query = compile_query(expression, tuple(variables), require_ppl=False)
        with self._lock:
            query = self._plans.setdefault(key, query)
        return query

    def _compile_batch(self, queries: Any) -> list["Query"]:
        from repro.api.document import iter_batch
        from repro.api.query import Query

        compiled: list[Query] = []
        for item in iter_batch(queries):
            if isinstance(item, Query):
                compiled.append(self.compile(item))
            elif isinstance(item, tuple):
                expression, variables = item
                compiled.append(self.compile(expression, tuple(variables)))
            else:
                compiled.append(self.compile(item, ()))
        return compiled

    # ------------------------------------------------------------ sync surface
    def _resolve_document(self, document: Any) -> "Document":
        from repro.api.document import Document, as_document
        from repro.trees.tree import Node, Tree

        if isinstance(document, Document):
            return document
        if isinstance(document, (Tree, Node)):
            return as_document(document)
        if isinstance(document, (str, os.PathLike)):
            return self.store.resolve(os.fspath(document))
        raise TypeError(
            f"cannot query {document!r}: expected a Document, Tree, Node, "
            "registered name or XML file path"
        )

    def query(
        self,
        document: Any,
        expression: Any,
        variables: Sequence[str] = (),
        *,
        engine: Optional[str] = None,
    ) -> frozenset[tuple[int, ...]]:
        """Answer one query on one document (the sync single-document path).

        ``document`` is a registered name, an XML file path, a
        :class:`repro.api.Document`, or a bare tree.  ``engine`` resolves
        through explicit > policy > ``REPRO_ENGINE`` > default.
        """
        self._ensure_open("query")
        resolved = self._resolve_document(document)
        compiled = self.compile(expression, variables)
        started = time.perf_counter()
        answers = resolved.answer(
            compiled, engine=self.execution.resolved("engine", engine)
        )
        elapsed = time.perf_counter() - started
        if self.slowlog.should_log(elapsed):
            self.slowlog.record(
                elapsed,
                query=compiled.text if compiled.text is not None else compiled.unparse(),
                document=document if isinstance(document, str) else None,
                trace=_trace.last_trace() if _trace.enabled() else None,
            )
        return answers

    def report(
        self,
        document: Any,
        expression: Any,
        variables: Sequence[str] = (),
        *,
        engine: Optional[str] = None,
        answers: Optional[frozenset] = None,
    ) -> "QueryReport":
        """Answer and return sizing diagnostics (see ``Document.report``)."""
        self._ensure_open("report")
        resolved = self._resolve_document(document)
        compiled = self.compile(expression, variables)
        return resolved.report(
            compiled,
            engine=self.execution.resolved("engine", engine),
            answers=answers,
        )

    def _executor_instance(self) -> "CorpusExecutor":
        with self._lock:
            self._ensure_open("query_corpus")
            if self._executor is None:
                from repro.corpus.executor import CorpusExecutor

                resolve = self.execution.resolve
                kernel = resolve("kernel")
                self._executor = CorpusExecutor(
                    self.store,
                    strategy=resolve("strategy").value,
                    max_workers=resolve("max_workers").value,
                    engine=resolve("engine").value,
                    kernel=(
                        kernel.value
                        if kernel.source in ("explicit", "policy")
                        else None
                    ),
                    max_retries=resolve("max_retries").value,
                    retry_backoff=resolve("retry_backoff").value,
                    on_error=resolve("on_error").value,
                    max_worker_restarts=resolve("max_worker_restarts").value,
                    restart_backoff=resolve("restart_backoff").value,
                )
            return self._executor

    def query_corpus(
        self,
        queries: Any,
        documents: Optional[Sequence[str]] = None,
        *,
        engine: Optional[str] = None,
        ordered: bool = True,
    ) -> Iterator["CorpusResult"]:
        """Stream :class:`repro.corpus.CorpusResult` values for a batch.

        The executor (strategy, worker pools) comes from the execution
        policy and persists across calls — repeated corpus queries reuse
        shard workers and their caches until the session closes.

        When the execution policy sets a ``timeout``, the whole stream runs
        under one wall-clock deadline: exceeding it raises
        :class:`repro.errors.CorpusTimeoutError` on the consumer, mirroring
        the async surface's submission watchdog.
        """
        self._ensure_open("query_corpus")
        compiled = self._compile_batch(queries)
        results = self._executor_instance().run(
            compiled,
            documents,
            engine=self.execution.resolved("engine", engine),
            ordered=ordered,
        )
        timeout = self.execution.resolved("timeout")
        if timeout is not None:
            return _stream_with_deadline(results, timeout)
        return results

    def corpus_report(
        self,
        queries: Any,
        documents: Optional[Sequence[str]] = None,
        *,
        engine: Optional[str] = None,
        ordered: bool = True,
    ) -> "CorpusReport":
        """Run a corpus batch and aggregate into a :class:`CorpusReport`."""
        self._ensure_open("corpus_report")
        compiled = self._compile_batch(queries)
        return self._executor_instance().run_report(
            compiled,
            documents,
            engine=self.execution.resolved("engine", engine),
            ordered=ordered,
        )

    # ----------------------------------------------------------- async surface
    def server(self) -> "CorpusServer":
        """The session's async server (lazy; shares the sync executor).

        The server multiplexes onto the *same* executor (and therefore the
        same shard pools and caches) the sync surface uses, and compiles
        through the session memo — a plan warmed synchronously is the
        object the server streams from.
        """
        with self._lock:
            self._ensure_open("server")
            if self._server is None:
                from repro.serve.server import CorpusServer

                self._server = CorpusServer(
                    self.store,
                    executor=self._executor_instance(),
                    engine=self.execution.resolved("engine"),
                    plan_cache=self._plan_cache,
                    policy=self.serving,
                    session=self,
                )
            return self._server

    def cancellation_token(self) -> CancellationToken:
        """A fresh :class:`CancellationToken` usable with :meth:`astream`."""
        self._ensure_open("cancellation_token")
        return CancellationToken()

    async def astream(
        self,
        queries: Any,
        documents: Optional[Sequence[str]] = None,
        *,
        engine: Optional[str] = None,
        ordered: bool = True,
        token: Optional[CancellationToken] = None,
    ) -> "Submission":
        """Submit a batch to the async server; returns the result stream.

        ``token`` wires a :class:`CancellationToken` to the submission:
        firing it (from any thread) aborts outstanding document jobs
        mid-stream.  The execution policy's ``timeout`` (seconds), when
        set, cancels the submission once exceeded.
        """
        self._ensure_open("astream")
        server = self.server()
        submission = await server.submit(
            self._compile_batch(queries),
            documents,
            engine=self.execution.resolved("engine", engine),
            ordered=ordered,
        )
        loop = asyncio.get_running_loop()

        def _cancel_threadsafe() -> None:
            try:
                loop.call_soon_threadsafe(submission.cancel)
            except RuntimeError:  # loop already closed: nothing left to cancel
                pass

        if token is not None:
            token.on_cancel(_cancel_threadsafe)
        timeout = self.execution.resolved("timeout")
        if timeout is not None:
            watchdog = loop.call_later(timeout, submission.cancel)
            if submission._task is not None:
                submission._task.add_done_callback(lambda _t: watchdog.cancel())
        with self._lock:
            self._active_submissions = [
                live
                for live in self._active_submissions
                if live._task is not None and not live._task.done()
            ]
            self._active_submissions.append(submission)
        return submission

    async def aquery(
        self,
        queries: Any,
        documents: Optional[Sequence[str]] = None,
        *,
        engine: Optional[str] = None,
        ordered: bool = True,
    ) -> list["CorpusResult"]:
        """Submit and collect in one await (async convenience wrapper)."""
        submission = await self.astream(
            queries, documents, engine=engine, ordered=ordered
        )
        return await submission.results()

    def protocol(self) -> "ProtocolServer":
        """An NDJSON protocol front end bound to this session's server.

        Auth, per-client quotas, request size limits and the ``cancel`` op
        come from :attr:`serving`.
        """
        self._ensure_open("protocol")
        from repro.serve.protocol import ProtocolServer

        return ProtocolServer(self.server(), session=self)

    # ---------------------------------------------------------------- telemetry
    def worker_stats(self):
        """Aggregate shard-worker (loads, hits, evictions) counters.

        Meaningful under the ``processes`` strategy, where documents
        materialise inside the shard workers and the parent store's
        counters stay at zero; returns zeros otherwise (or before the
        first corpus run).  Public counterpart of
        :attr:`DocumentStore.stats` for the worker side — the CLI's
        ``corpus bench`` folds the two together.
        """
        self._ensure_open("worker_stats")
        with self._lock:
            executor = self._executor
        if executor is None:
            from repro.corpus.store import StoreStats

            return StoreStats()
        return executor.worker_stats()

    def stats(self) -> dict:
        """One snapshot across every cache and pool the session owns."""
        self._ensure_open("stats")
        store_stats = self.store.stats
        answer_cache = self.store.answer_cache
        payload: dict[str, Any] = {
            "documents": len(self.store),
            "store": {
                "loads": store_stats.loads,
                "hits": store_stats.hits,
                "evictions": store_stats.evictions,
                "parse_count": store_stats.parse_count,
                "snapshot_hits": store_stats.snapshot_hits,
                "snapshot_misses": store_stats.snapshot_misses,
            },
            "snapshot": self.store.snapshot_stats(),
            "answer_cache": (
                answer_cache.stats.to_dict() if answer_cache is not None else None
            ),
            "matrix_cache": self.store.matrix_cache_stats().to_dict(),
            "plan_cache": (
                self._plan_cache.stats.to_dict() if self._plan_cache is not None else None
            ),
            "plans_in_memory": len(self._plans),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "stats_at": time.monotonic(),
            "slow_queries": len(self.slowlog),
            "policy": {
                name: {"value": resolved.value, "source": resolved.source}
                for name, resolved in self.execution.explain().items()
            },
        }
        with self._lock:
            server = self._server
            executor = self._executor
        payload["server"] = server.stats.to_dict() if server is not None else None
        payload["faults"] = (
            executor.fault_stats() if executor is not None else None
        )
        return payload

    def metrics(self):
        """The session's merged :class:`repro.obs.metrics.MetricsRegistry`.

        Folds the corpus executor's evaluation histograms (shard-worker
        histograms included, under the processes strategy — this *blocks*
        on a round-trip per live shard pool, so call it off the event loop)
        and, when the async server exists, its latency histograms.  Render
        with :meth:`repro.obs.metrics.MetricsRegistry.render` for
        Prometheus text.
        """
        self._ensure_open("metrics")
        from repro.obs.metrics import MetricsRegistry

        merged = MetricsRegistry()
        with self._lock:
            executor = self._executor
            server = self._server
        if executor is not None:
            merged.merge(executor.metrics())
        if server is not None:
            merged.merge(server.metrics_registry)
        return merged

    @property
    def plan_cache(self) -> Optional["PlanCache"]:
        """The persistent plan cache, when one is configured."""
        return self._plan_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Session({state}, documents={len(self.store)}, "
            f"strategy={self.execution.resolved('strategy')!r}, "
            f"engine={self.execution.resolved('engine')!r})"
        )
