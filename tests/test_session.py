"""Tests for the Session layer: policies, precedence, lifecycle, protocol ops.

Covers PR 5's tentpole and satellites:

* ExecutionPolicy / ServingPolicy immutability and the documented
  precedence chain *explicit > policy > env > default* — including the
  regression for the worker-subprocess bug (an explicit ``kernel=`` used to
  lose to ``REPRO_KERNEL`` inside process-strategy shard workers, which
  re-read the environment on spawn);
* Session lifecycle: double-close, typed ``SessionClosedError`` after
  close, context managers, teardown under in-flight async streams;
* the shared compiled-plan memo (sync plan is the object the server
  streams from) and plan-cache persistence through sessions;
* the NDJSON protocol's new ``cancel`` op, auth tokens and per-client
  submission quotas;
* ``repro-xpath engines`` listing kernels from the same registry the
  Session consults;
* the removed pre-Session entry points stay removed, and direct use of the
  surviving layers (``Document``, ``CorpusExecutor``, ``CorpusServer``) and
  of the session raises no ``DeprecationWarning``.

Async tests run through plain ``asyncio.run`` (no pytest-asyncio here),
matching ``tests/test_serve.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import warnings

import pytest

from repro.api import Document
from repro.corpus import CorpusExecutor, DocumentStore
from repro.errors import SessionClosedError
from repro.pplbin import bitmatrix
from repro.serve import CorpusServer
from repro.session import (
    CancellationToken,
    ExecutionPolicy,
    Resolved,
    ServingPolicy,
    Session,
    UNSET,
)
from repro.trees.tree import Node, Tree
from repro.trees.xml_io import tree_to_xml
from repro.workloads.bibliography import generate_bibliography

PAIR_QUERY = "descendant::book[child::author[. is $y] and child::title[. is $z]]"
PAIR_VARS = ("y", "z")
MONADIC_QUERY = "descendant::author[. is $x]"


def run(coroutine):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(coroutine)


def fill_session(session: Session, documents: int = 4, *, seed: int = 0) -> list[str]:
    names = []
    for index in range(documents):
        tree = generate_bibliography(2 + index % 3, seed=seed + index)
        names.append(session.add_xml(f"doc{index:03d}", tree_to_xml(tree)))
    return names


# =====================================================================
# Policies: immutability and the precedence chain
# =====================================================================
class TestPolicies:
    def test_execution_policy_is_immutable(self):
        policy = ExecutionPolicy(engine="naive")
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.engine = "polynomial"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del policy.engine

    def test_serving_policy_is_immutable(self):
        policy = ServingPolicy(max_concurrent=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.max_concurrent = 8

    def test_override_returns_new_object_and_skips_unspecified(self):
        policy = ExecutionPolicy(engine="naive")
        overridden = policy.override(engine=None, strategy="processes")
        assert overridden is not policy
        assert overridden.engine == "naive"  # None = unspecified, not cleared
        assert overridden.strategy == "processes"
        assert policy.strategy is UNSET  # original untouched

    def test_session_policy_attribute_is_immutable(self):
        with Session(engine="naive") as session:
            with pytest.raises(dataclasses.FrozenInstanceError):
                session.execution.engine = "polynomial"

    def test_default_layer(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        resolved = ExecutionPolicy().resolve("engine")
        assert resolved == Resolved("polynomial", "default")

    def test_env_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "naive")
        assert ExecutionPolicy().resolve("engine") == Resolved("naive", "env")

    def test_policy_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "yannakakis")
        policy = ExecutionPolicy(engine="naive")
        assert policy.resolve("engine") == Resolved("naive", "policy")

    def test_explicit_beats_policy_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "yannakakis")
        policy = ExecutionPolicy(engine="naive")
        assert policy.resolve("engine", "corexpath1") == Resolved(
            "corexpath1", "explicit"
        )

    def test_int_env_coercion(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert ExecutionPolicy().resolve("max_workers") == Resolved(3, "env")
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        assert ExecutionPolicy().resolve("max_workers") == Resolved(None, "env")

    def test_float_env_coercion(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        assert ExecutionPolicy().resolve("timeout") == Resolved(2.5, "env")

    def test_explain_covers_every_field(self):
        table = ExecutionPolicy(strategy="processes").explain()
        assert table["strategy"] == Resolved("processes", "policy")
        for field in (
            "engine",
            "kernel",
            "strategy",
            "max_workers",
            "max_resident",
            "cache_answers",
            "answer_cache_bytes",
            "matrix_cache_bytes",
            "plan_cache_dir",
            "plan_cache_bytes",
            "timeout",
        ):
            assert field in table

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPolicy().resolve("no_such_knob")

    def test_tree_default_budget_resolves_through_the_policy(self, monkeypatch):
        from repro.session.policy import DEFAULT_EXECUTION
        from repro.trees.tree import DEFAULT_MATRIX_CACHE_BYTES
        from repro.trees.xml_io import tree_from_xml

        monkeypatch.setenv("REPRO_MATRIX_CACHE_BYTES", "4096")
        assert DEFAULT_EXECUTION.explain()["matrix_cache_bytes"] == Resolved(4096, "env")
        assert Tree(Node("a")).matrix_cache().max_bytes == 4096
        assert tree_from_xml("<a/>").matrix_cache().max_bytes == 4096
        assert Tree(Node("a"), matrix_cache_bytes=7).matrix_cache().max_bytes == 7
        monkeypatch.setenv("REPRO_MATRIX_CACHE_BYTES", "0")
        assert Tree(Node("a")).matrix_cache().max_bytes is None
        monkeypatch.delenv("REPRO_MATRIX_CACHE_BYTES")
        assert DEFAULT_EXECUTION.explain()["matrix_cache_bytes"] == Resolved(
            DEFAULT_MATRIX_CACHE_BYTES, "default"
        )
        assert Tree(Node("a")).matrix_cache().max_bytes == DEFAULT_MATRIX_CACHE_BYTES

    def test_session_folds_explicit_args_over_policy(self):
        policy = ExecutionPolicy(engine="naive", strategy="processes")
        with Session(execution=policy, engine="polynomial") as session:
            assert session.execution.resolve("engine").value == "polynomial"
            assert session.execution.resolve("strategy").value == "processes"

    @pytest.mark.parametrize("source", ["argument", "policy", "env"])
    def test_threads_strategy_rejected(self, source, monkeypatch):
        from repro.corpus import CorpusError

        kwargs = {}
        if source == "argument":
            kwargs["strategy"] = "threads"
        elif source == "policy":
            kwargs["execution"] = ExecutionPolicy(strategy="threads")
        else:
            monkeypatch.setenv("REPRO_STRATEGY", "threads")
        with Session(**kwargs) as session:
            fill_session(session, 1)
            with pytest.raises(CorpusError, match="expected one of serial, processes"):
                list(session.query_corpus((PAIR_QUERY, PAIR_VARS)))


# =====================================================================
# Kernel precedence, including the worker-subprocess regression
# =====================================================================
class TestKernelPrecedence:
    def test_explicit_kernel_wins_in_serial_session(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "dense")
        with Session(kernel="sparse") as session:
            fill_session(session, 1)
            report = session.report("doc000", PAIR_QUERY, PAIR_VARS)
            assert report.kernel == "sparse"

    def test_explicit_kernel_wins_in_worker_subprocesses(self, monkeypatch):
        # Regression: shard workers used to re-read REPRO_KERNEL on spawn,
        # so the environment beat an explicit kernel argument inside the
        # process strategy.  The resolved kernel now ships with the worker
        # store config.
        monkeypatch.setenv("REPRO_KERNEL", "dense")
        with Session(kernel="bitset", strategy="processes", max_workers=2) as session:
            fill_session(session, 4)
            reports = [
                result.report for result in session.query_corpus((PAIR_QUERY, PAIR_VARS))
            ]
        assert len(reports) == 4
        assert {report.kernel for report in reports} == {"bitset"}

    def test_executor_kernel_argument_reaches_workers(self, monkeypatch):
        # The same guarantee for direct CorpusExecutor users.
        monkeypatch.setenv("REPRO_KERNEL", "dense")
        store = DocumentStore()
        for index in range(3):
            store.add_xml(
                f"doc{index}", tree_to_xml(generate_bibliography(2, seed=index))
            )
        with CorpusExecutor(
            store, strategy="processes", max_workers=2, kernel="bitset"
        ) as executor:
            kernels = {
                result.report.kernel
                for result in executor.run((PAIR_QUERY, list(PAIR_VARS)))
            }
        assert kernels == {"bitset"}

    def test_policy_kernel_applies_to_store_documents(self):
        policy = ExecutionPolicy(kernel="sparse")
        with Session(execution=policy) as session:
            fill_session(session, 1)
            assert session.document("doc000").oracle.kernel.name == "sparse"

    def test_matrix_cache_budget_from_policy(self):
        with Session(matrix_cache_bytes=123456) as session:
            fill_session(session, 1)
            assert session.document("doc000").tree.matrix_cache().max_bytes == 123456


# =====================================================================
# Session lifecycle
# =====================================================================
class TestSessionLifecycle:
    def test_double_close_is_idempotent(self):
        session = Session()
        session.close()
        session.close()  # must not raise
        assert session.closed

    def test_context_manager_closes(self):
        with Session() as session:
            assert not session.closed
        assert session.closed

    def test_query_after_close_raises_typed_error(self):
        session = Session()
        fill_session(session, 1)
        session.close()
        with pytest.raises(SessionClosedError):
            session.query("doc000", MONADIC_QUERY, ["x"])
        with pytest.raises(SessionClosedError):
            session.compile(MONADIC_QUERY, ["x"])
        with pytest.raises(SessionClosedError):
            session.add_xml("extra", "<a/>")
        with pytest.raises(SessionClosedError):
            list(session.query_corpus((MONADIC_QUERY, ["x"])))
        with pytest.raises(SessionClosedError):
            session.stats()
        with pytest.raises(SessionClosedError):
            session.cancellation_token()

    def test_astream_after_close_raises(self):
        async def body():
            session = Session()
            fill_session(session, 1)
            await session.aclose()
            with pytest.raises(SessionClosedError):
                await session.astream((MONADIC_QUERY, ["x"]))

        run(body())

    def test_closed_error_is_catchable_as_repro_error(self):
        from repro.errors import ReproError

        session = Session()
        session.close()
        with pytest.raises(ReproError):
            session.document("nope")

    def test_pool_teardown_under_in_flight_streams(self):
        # aclose() with a stream mid-flight: the stream is cancelled, the
        # server drains, the executor pools close — and nothing hangs.
        async def body():
            session = Session(
                strategy="serial", serving=ServingPolicy(max_concurrent=1)
            )
            fill_session(session, 6)
            stream = await session.astream((PAIR_QUERY, PAIR_VARS))
            first = await stream.__anext__()
            assert first.doc_name == "doc000"
            await session.aclose()
            assert session.closed
            # The stream terminates (cancelled or already finished) rather
            # than deadlocking on torn-down pools.
            remaining = [result async for result in stream]
            assert len(remaining) <= 5

        run(body())

    def test_aclose_is_idempotent(self):
        async def body():
            session = Session()
            await session.aclose()
            await session.aclose()
            assert session.closed

        run(body())

    def test_async_context_manager(self):
        async def body():
            async with Session() as session:
                fill_session(session, 2)
                results = await session.aquery((MONADIC_QUERY, ["x"]))
                assert len(results) == 2
            assert session.closed

        run(body())


# =====================================================================
# Shared plans and correctness of the surfaces
# =====================================================================
class TestSharedPlans:
    def test_sync_and_async_share_the_same_plan_object(self):
        async def body():
            async with Session() as session:
                fill_session(session, 2)
                sync_plan = session.compile(PAIR_QUERY, PAIR_VARS)
                assert session.compile(PAIR_QUERY, PAIR_VARS) is sync_plan
                assert session.server().compile(PAIR_QUERY, PAIR_VARS) is sync_plan

        run(body())

    def test_plan_memo_is_bounded(self):
        from repro.api.query import PLAN_MEMO_ENTRIES

        with Session() as session:
            for index in range(PLAN_MEMO_ENTRIES + 10):
                session.compile(f"descendant::u{index}[. is $x]", ["x"])
            assert session.stats()["plans_in_memory"] == PLAN_MEMO_ENTRIES

    def test_sync_async_and_corpus_answers_agree(self):
        async def body():
            async with Session() as session:
                names = fill_session(session, 3)
                sync_answers = {
                    name: session.query(name, PAIR_QUERY, PAIR_VARS) for name in names
                }
                corpus_answers = {
                    result.doc_name: result.answers
                    for result in session.query_corpus((PAIR_QUERY, PAIR_VARS))
                }
                async_answers = {
                    result.doc_name: result.answers
                    for result in await session.aquery((PAIR_QUERY, PAIR_VARS))
                }
                assert sync_answers == corpus_answers == async_answers

        run(body())

    def test_serial_sync_pass_and_async_submissions_agree(self):
        # One serial session: a sync forest pass on a worker thread and
        # concurrent astream submissions on the dispatch thread share the
        # executor, store and caches, and all return the reference answers.
        batch = [(PAIR_QUERY, PAIR_VARS), (MONADIC_QUERY, ["x"])]
        with Session(engine="naive") as reference_session:
            fill_session(reference_session, 6)
            reference = {
                (result.doc_name, result.query): result.answers
                for result in reference_session.query_corpus(batch)
            }

        forest_sizes = []

        def collect(results) -> dict:
            collected = {}
            for result in results:
                forest_sizes.append(result.report.cost["forest_documents"])
                collected[(result.doc_name, result.query)] = result.answers
            return collected

        async def body():
            # No answer cache, so every pass and submission evaluates.
            async with Session(strategy="serial", cache_answers=False) as session:
                fill_session(session, 6)
                list(session.query_corpus(batch))  # loads: later passes are forests
                assert session.server().executor is session._executor_instance()

                async def submit():
                    stream = await session.astream(batch)
                    return collect(await stream.results())

                outcomes = await asyncio.gather(
                    asyncio.to_thread(lambda: collect(session.query_corpus(batch))),
                    asyncio.to_thread(lambda: collect(session.query_corpus(batch))),
                    *(submit() for _ in range(4)),
                )
            assert all(outcome == reference for outcome in outcomes)
            assert max(forest_sizes) == 6

        run(body())

    def test_engine_override_per_call(self):
        with Session(engine="naive") as session:
            fill_session(session, 1)
            naive = session.query("doc000", PAIR_QUERY, PAIR_VARS)
            poly = session.query("doc000", PAIR_QUERY, PAIR_VARS, engine="polynomial")
            assert naive == poly

    def test_plan_cache_persists_across_sessions(self, tmp_path):
        cache_dir = tmp_path / "plans"
        with Session(plan_cache=cache_dir) as first:
            first.compile(PAIR_QUERY, PAIR_VARS)
            assert first.plan_cache.stats.misses >= 1
        with Session(plan_cache=cache_dir) as second:
            query = second.compile(PAIR_QUERY, PAIR_VARS)
            assert second.plan_cache.stats.hits >= 1
            assert query.variables == PAIR_VARS

    def test_plan_cache_dir_from_env(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "env-plans"
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(cache_dir))
        with Session() as session:
            assert session.plan_cache is not None
            session.compile(MONADIC_QUERY, ["x"])
        assert any(cache_dir.iterdir())

    def test_query_accepts_trees_and_documents(self):
        tree = Tree(Node("bib", Node("book", Node("author"), Node("title"))))
        with Session() as session:
            from_tree = session.query(tree, PAIR_QUERY, PAIR_VARS)
            assert len(from_tree) == 1

    def test_cancellation_token_cancels_stream(self):
        async def body():
            async with Session(serving=ServingPolicy(max_concurrent=1)) as session:
                fill_session(session, 6)
                token = session.cancellation_token()
                stream = await session.astream((PAIR_QUERY, PAIR_VARS), token=token)
                assert token.cancel()
                assert not token.cancel()  # one-shot
                await stream.results()
                assert stream.cancelled

        run(body())

    def test_token_registered_after_cancel_fires_immediately(self):
        token = CancellationToken()
        token.cancel("early")
        fired = []
        token.on_cancel(lambda: fired.append(True))
        assert fired == [True]
        assert token.reason == "early"


# =====================================================================
# NDJSON protocol: cancel op, auth, per-client quotas
# =====================================================================
async def _open_client(tcp_server):
    port = tcp_server.sockets[0].getsockname()[1]
    return await asyncio.open_connection("127.0.0.1", port)


async def _send_line(writer, payload: dict) -> None:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def _read_response(reader) -> dict:
    line = await asyncio.wait_for(reader.readline(), timeout=30)
    assert line, "connection closed unexpectedly"
    return json.loads(line)


class TestProtocolHardening:
    def test_cancel_op_aborts_stream_mid_flight(self):
        async def body():
            async with Session(serving=ServingPolicy(max_concurrent=1)) as session:
                fill_session(session, 8)
                tcp = await session.protocol().serve_tcp(port=0)
                async with tcp:
                    reader, writer = await _open_client(tcp)
                    await _send_line(
                        writer,
                        {"op": "submit", "id": 7, "query": PAIR_QUERY,
                         "vars": list(PAIR_VARS)},
                    )
                    await _send_line(writer, {"op": "cancel", "id": 8, "target": 7})
                    saw_cancelled_ack = False
                    done = None
                    while done is None:
                        response = await _read_response(reader)
                        if response["type"] == "cancelled":
                            assert response["id"] == 8
                            assert response["target"] == 7
                            assert response["found"] is True
                            saw_cancelled_ack = True
                        elif response["type"] == "done":
                            done = response
                    assert saw_cancelled_ack
                    assert done["id"] == 7
                    assert done["cancelled"] is True
                    assert done["results"] < 8
                    writer.close()

        run(body())

    def test_cancel_unknown_target_reports_not_found(self):
        async def body():
            async with Session() as session:
                fill_session(session, 1)
                tcp = await session.protocol().serve_tcp(port=0)
                async with tcp:
                    reader, writer = await _open_client(tcp)
                    await _send_line(writer, {"op": "cancel", "id": 1, "target": 99})
                    response = await _read_response(reader)
                    assert response["type"] == "cancelled"
                    assert response["found"] is False
                    writer.close()

        run(body())

    def test_duplicate_submission_id_is_rejected(self):
        # A reused live id would overwrite the cancel token and corrupt the
        # per-client quota bookkeeping — it must be a typed bad-request.
        async def body():
            serving = ServingPolicy(max_concurrent=1, stream_buffer=1)
            async with Session(serving=serving) as session:
                fill_session(session, 8)
                tcp = await session.protocol().serve_tcp(port=0)
                async with tcp:
                    reader, writer = await _open_client(tcp)
                    submit = {"op": "submit", "id": 1, "query": PAIR_QUERY,
                              "vars": list(PAIR_VARS)}
                    await _send_line(writer, submit)
                    await _send_line(writer, submit)  # same id, still live
                    rejected = None
                    while rejected is None:
                        response = await _read_response(reader)
                        if response["type"] == "error":
                            rejected = response
                        assert response["type"] != "done" or rejected
                    assert rejected["kind"] == "bad-request"
                    assert "already in use" in rejected["error"]
                    await _send_line(writer, {"op": "cancel", "id": 2, "target": 1})
                    while True:
                        response = await _read_response(reader)
                        if response.get("type") == "done":
                            break
                    writer.close()

        run(body())

    def test_auth_token_required_when_policy_sets_one(self):
        async def body():
            serving = ServingPolicy(auth_token="sesame")
            async with Session(serving=serving) as session:
                fill_session(session, 1)
                tcp = await session.protocol().serve_tcp(port=0)
                async with tcp:
                    reader, writer = await _open_client(tcp)
                    await _send_line(writer, {"op": "ping", "id": 1})
                    refused = await _read_response(reader)
                    assert refused["type"] == "error"
                    assert refused["kind"] == "unauthorized"
                    await _send_line(writer, {"op": "ping", "id": 2, "auth": "wrong"})
                    wrong = await _read_response(reader)
                    assert wrong["kind"] == "unauthorized"
                    await _send_line(writer, {"op": "ping", "id": 3, "auth": "sesame"})
                    accepted = await _read_response(reader)
                    assert accepted["type"] == "pong"
                    writer.close()

        run(body())

    def test_per_client_submission_quota(self):
        async def body():
            serving = ServingPolicy(
                max_concurrent=1, max_submissions_per_client=1, stream_buffer=1
            )
            async with Session(serving=serving) as session:
                fill_session(session, 8)
                tcp = await session.protocol().serve_tcp(port=0)
                async with tcp:
                    reader, writer = await _open_client(tcp)
                    await _send_line(
                        writer,
                        {"op": "submit", "id": 1, "query": PAIR_QUERY,
                         "vars": list(PAIR_VARS)},
                    )
                    await _send_line(
                        writer,
                        {"op": "submit", "id": 2, "query": PAIR_QUERY,
                         "vars": list(PAIR_VARS)},
                    )
                    # The second submission must be rejected with a typed
                    # overloaded error while the first still streams.
                    rejected = None
                    while rejected is None:
                        response = await _read_response(reader)
                        if response.get("id") == 2:
                            rejected = response
                    assert rejected["type"] == "error"
                    assert rejected["kind"] == "overloaded"
                    # Cancel the first and drain the connection cleanly.
                    await _send_line(writer, {"op": "cancel", "id": 3, "target": 1})
                    while True:
                        response = await _read_response(reader)
                        if response.get("type") == "done":
                            break
                    writer.close()

        run(body())


# =====================================================================
# CLI: engines lists kernels from the Session's registry
# =====================================================================
class TestEnginesKernelListing:
    def test_engines_subcommand_lists_kernels(self, capsys):
        from repro import cli

        assert cli.main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "kernels" in out
        for name in bitmatrix.KERNEL_NAMES:
            assert name in out
        assert "[default]" in out
        # The capability/cost summaries come from the registry itself.
        for description in bitmatrix.kernel_descriptions().values():
            assert description["storage"] in out
            assert description["compose"] in out

    def test_kernel_descriptions_cover_registry(self):
        descriptions = bitmatrix.kernel_descriptions()
        assert set(descriptions) == set(bitmatrix.KERNEL_NAMES)
        for name, description in descriptions.items():
            assert description["name"] == name
            assert description["storage"]
            assert description["compose"]
            assert description["best_for"]


# =====================================================================
# Removed entry points stay removed; the surviving ones never warn
# =====================================================================
class TestDeprecationShims:
    def test_corpus_executor_construction_is_silent(self):
        # Building an executor directly is a supported embedding.
        store = DocumentStore()
        store.add_xml("d", "<a/>")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            executor = CorpusExecutor(store)
        executor.close()

    def test_corpus_server_construction_is_silent(self):
        store = DocumentStore()
        store.add_xml("d", "<a/>")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            CorpusServer(store, strategy="serial")

    def test_seed_era_entry_points_removed(self):
        import repro
        import repro.api
        import repro.api.document

        for name in ("answer", "compile_query", "PPLEngine", "answer_batch"):
            assert not hasattr(repro, name)
        assert not hasattr(repro.api, "answer_batch")
        assert not hasattr(repro.api.document, "answer_batch")

    def test_session_paths_do_not_warn(self):
        async def body():
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                async with Session() as session:
                    fill_session(session, 2)
                    session.query("doc000", PAIR_QUERY, PAIR_VARS)
                    list(session.query_corpus((MONADIC_QUERY, ["x"])))
                    await session.aquery((MONADIC_QUERY, ["x"]))
                    session.stats()

        run(body())

    def test_deprecated_entry_points_still_work(self, paper_bib):
        # A directly constructed Document is a plain value type: it answers
        # like the session does, and the tier-1 filter turns any warning it
        # raised into a failure.
        direct = Document(paper_bib).answer(PAIR_QUERY, PAIR_VARS)
        with Session() as session:
            via_session = session.query(paper_bib, PAIR_QUERY, PAIR_VARS)
        assert direct == via_session
