"""Tests for the serving subsystem: plan cache, async server, NDJSON protocol.

Covers the satellite checklist of the serving PR: concurrent submission
ordering, backpressure, queue-full rejection, cancellation mid-stream,
graceful drain, plan-cache warm-start answer equality, corrupted-cache-file
recovery — plus the Query pickling regression (round-tripping every engine),
the corpus-wide answer-cache byte budget and the executor's targeted shard
refresh that live serving relies on.

The async tests run through plain ``asyncio.run`` (no pytest-asyncio in the
environment); each owns its loop, so server fixtures are built inside the
coroutine under test.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import copy
import json
import os
import pickle
import sys

import pytest

from repro.api import Document, available_engines, compile_query
from repro.api.query import Query
from repro.corpus import (
    AnswerCache,
    CorpusError,
    CorpusExecutor,
    DocumentStore,
    estimate_answer_bytes,
)
from repro.serve import (
    CorpusServer,
    PlanCache,
    ProtocolServer,
    ServerClosedError,
    ServerOverloadedError,
    request_lines,
)
from repro.trees.xml_io import tree_to_xml
from repro.workloads.bibliography import generate_bibliography

PAIR_QUERY = "descendant::book[child::author[. is $y] and child::title[. is $z]]"
PAIR_VARS = ("y", "z")
BOOLEAN_QUERY = "descendant::book[child::author and child::title]"


def run(coroutine):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(coroutine)


def make_store(documents: int = 6, *, seed: int = 0, **kwargs) -> DocumentStore:
    store = DocumentStore(**kwargs)
    for index in range(documents):
        tree = generate_bibliography(2 + index % 3, seed=seed + index)
        store.add_xml(f"doc{index:03d}", tree_to_xml(tree))
    return store


def batch_answers(store: DocumentStore, queries, engine="polynomial") -> dict:
    """Reference output: the plain CorpusExecutor batch results."""
    with CorpusExecutor(store, strategy="serial", engine=engine) as executor:
        return {
            (result.doc_name, result.query): result.answers
            for result in executor.run(queries)
        }


# =====================================================================
# Query pickling (regression: plan persistence needs robust round-trips)
# =====================================================================
class TestQueryPickle:
    def test_roundtrip_equality(self):
        query = compile_query(PAIR_QUERY, PAIR_VARS)
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query
        assert clone.text == query.text
        assert clone.hcl == query.hcl
        assert clone.variables == query.variables

    @pytest.mark.parametrize("engine", sorted(available_engines()))
    def test_roundtrip_answers_every_engine(self, engine):
        from repro.api import get_engine

        # Engines that cannot evaluate free variables get the variable-free
        # form; what matters is that the *pickled* plan answers identically.
        text, variables = (PAIR_QUERY, PAIR_VARS)
        if not get_engine(engine).capabilities.supports_variables:
            text, variables = (BOOLEAN_QUERY, ())
        document = Document.from_xml(tree_to_xml(generate_bibliography(3, seed=4)))
        query = compile_query(text, variables, require_ppl=False)
        expected = document.answer(query, engine=engine)
        clone = pickle.loads(pickle.dumps(query))
        fresh = Document.from_xml(tree_to_xml(generate_bibliography(3, seed=4)))
        assert fresh.answer(clone, engine=engine) == expected

    def test_deep_query_pickle(self):
        # Deep ASTs used to blow the recursion limit under the default
        # structural pickle; plan_size-scaled headroom fixes that.
        text = "/".join(["child::a"] * 400)
        query = compile_query(text, (), require_ppl=False)
        clone = pickle.loads(pickle.dumps(query))
        assert clone.plan_size() == query.plan_size()
        assert clone.unparse() == query.unparse()

    def test_deep_query_deepcopy(self):
        text = "/".join(["child::a"] * 400)
        query = compile_query(text, (), require_ppl=False)
        clone = copy.deepcopy(query)
        assert clone.unparse() == query.unparse()

    def test_pickle_inside_containers(self):
        queries = [
            compile_query(PAIR_QUERY, PAIR_VARS),
            compile_query(BOOLEAN_QUERY),
        ]
        clones = pickle.loads(pickle.dumps(queries))
        assert clones == queries

    def test_pickle_preserves_violations(self):
        query = compile_query(
            "child::a[child::b[. is $x] or child::c[. is $x]]/child::d[. is $x]",
            ("x",),
            require_ppl=False,
        )
        clone = pickle.loads(pickle.dumps(query))
        assert clone.violations == query.violations
        assert clone.is_ppl == query.is_ppl

    def test_pickle_preserves_pplbin_translation(self):
        query = compile_query(BOOLEAN_QUERY)
        assert query.pplbin is not None
        clone = pickle.loads(pickle.dumps(query))
        assert clone.pplbin == query.pplbin
        assert clone.is_variable_free

    def test_pickle_strips_cached_ast_state(self):
        # Touching the lazily-cached derived attributes (size, free
        # variables) on every AST node must not bloat the pickle: plan files
        # and worker payloads should cost the same whether or not a plan was
        # used before serialisation.
        query = compile_query(PAIR_QUERY, PAIR_VARS)
        fresh_blob = pickle.dumps(query)
        for node in query.source.walk():
            assert node.size >= 1
            assert node.free_variables is not None
        assert query.hcl is not None
        for node in query.hcl.walk():
            assert node.size >= 1
        touched_blob = pickle.dumps(query)
        assert len(touched_blob) == len(fresh_blob)
        clone = pickle.loads(touched_blob)
        assert clone == query
        assert clone.source.size == query.source.size  # recomputed lazily

    def test_recursion_limit_restored(self):
        before = sys.getrecursionlimit()
        query = compile_query("/".join(["child::a"] * 200), (), require_ppl=False)
        pickle.loads(pickle.dumps(query))
        assert sys.getrecursionlimit() == before

    def test_cross_process_roundtrip(self):
        query = compile_query(PAIR_QUERY, PAIR_VARS)
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            echoed = pool.submit(_identity, query).result()
        assert echoed == query
        assert echoed.hcl == query.hcl


def _identity(value):
    return value


# =====================================================================
# Plan cache
# =====================================================================
class TestPlanCache:
    def test_key_is_stable_and_content_addressed(self, tmp_path):
        key = PlanCache.key(PAIR_QUERY, PAIR_VARS, "polynomial")
        assert key == PlanCache.key(PAIR_QUERY, PAIR_VARS, "polynomial")
        assert len(key) == 64

    def test_key_sensitivity(self):
        base = PlanCache.key(PAIR_QUERY, PAIR_VARS, "polynomial")
        assert PlanCache.key(BOOLEAN_QUERY, PAIR_VARS, "polynomial") != base
        assert PlanCache.key(PAIR_QUERY, ("y",), "polynomial") != base
        assert PlanCache.key(PAIR_QUERY, PAIR_VARS, "naive") != base

    def test_store_load_roundtrip(self, tmp_path):
        cache = PlanCache(tmp_path)
        query = compile_query(PAIR_QUERY, PAIR_VARS)
        path = cache.store(query, expression=PAIR_QUERY)
        assert path.exists()
        loaded = cache.load(PAIR_QUERY, PAIR_VARS)
        assert loaded == query
        assert loaded.hcl == query.hcl
        assert cache.stats.hits == 1

    def test_load_miss_returns_none(self, tmp_path):
        cache = PlanCache(tmp_path)
        assert cache.load("child::a") is None
        assert cache.stats.misses == 1

    def test_get_or_compile_compiles_once(self, tmp_path):
        cache = PlanCache(tmp_path)
        first = cache.get_or_compile(PAIR_QUERY, PAIR_VARS)
        second = cache.get_or_compile(PAIR_QUERY, PAIR_VARS)
        assert first == second
        stats = cache.stats
        assert stats.stores == 1
        assert stats.hits == 1

    def test_cached_plan_answers_equal_fresh_compile(self, tmp_path):
        cache = PlanCache(tmp_path)
        cache.get_or_compile(PAIR_QUERY, PAIR_VARS)
        warm = PlanCache(tmp_path)  # fresh instance = a new process's view
        loaded = warm.get_or_compile(PAIR_QUERY, PAIR_VARS)
        assert warm.stats.hits == 1 and warm.stats.stores == 0
        document = Document.from_xml(tree_to_xml(generate_bibliography(3, seed=7)))
        assert document.answer(loaded) == document.answer(
            compile_query(PAIR_QUERY, PAIR_VARS)
        )

    def test_corrupted_file_recovers(self, tmp_path):
        cache = PlanCache(tmp_path)
        query = compile_query(PAIR_QUERY, PAIR_VARS)
        path = cache.store(query, expression=PAIR_QUERY)
        path.write_bytes(b"\x80\x05 this is not a plan")
        assert cache.load(PAIR_QUERY, PAIR_VARS) is None
        assert not path.exists()  # the bad file was dropped
        assert cache.stats.invalid == 1
        # And the next get_or_compile repopulates it.
        again = cache.get_or_compile(PAIR_QUERY, PAIR_VARS)
        assert again == query

    def test_truncated_file_recovers(self, tmp_path):
        cache = PlanCache(tmp_path)
        path = cache.store(compile_query(PAIR_QUERY, PAIR_VARS), expression=PAIR_QUERY)
        path.write_bytes(path.read_bytes()[: 10])
        assert cache.load(PAIR_QUERY, PAIR_VARS) is None
        assert cache.stats.invalid == 1

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache = PlanCache(tmp_path)
        query = compile_query(BOOLEAN_QUERY)
        path = cache.path_for(BOOLEAN_QUERY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            pickle.dumps(
                {
                    "format": -1,
                    "text": BOOLEAN_QUERY,
                    "variables": [],
                    "engine": "any",
                    "query": query,
                }
            )
        )
        assert cache.load(BOOLEAN_QUERY) is None
        assert cache.stats.invalid == 1

    def test_identity_mismatch_is_a_miss(self, tmp_path):
        cache = PlanCache(tmp_path)
        source = cache.store(compile_query(BOOLEAN_QUERY), expression=BOOLEAN_QUERY)
        # A valid payload filed under the wrong content address.
        imposter = cache.path_for(PAIR_QUERY, PAIR_VARS)
        imposter.write_bytes(source.read_bytes())
        assert cache.load(PAIR_QUERY, PAIR_VARS) is None
        assert not imposter.exists()

    def test_byte_budget_evicts_least_recently_used(self, tmp_path):
        cache = PlanCache(tmp_path)
        paths = {}
        for index, text in enumerate(["child::a", "child::b", "child::c"]):
            query = compile_query(text)
            paths[text] = cache.store(query, expression=text)
            os.utime(paths[text], (1000 + index, 1000 + index))
        size = paths["child::a"].stat().st_size
        cache.max_bytes = int(size * 2.5)  # room for two plans
        # Touch "child::a" (oldest) so "child::b" becomes the LRU victim.
        os.utime(paths["child::a"], (2000, 2000))
        cache.store(compile_query("child::d"), expression="child::d")
        remaining = {path.name for path in tmp_path.iterdir()}
        assert paths["child::b"].name not in remaining
        assert paths["child::a"].name in remaining
        assert cache.stats.evictions >= 1

    def test_clear_and_total_bytes(self, tmp_path):
        cache = PlanCache(tmp_path)
        cache.store(compile_query("child::a"), expression="child::a")
        cache.store(compile_query("child::b"), expression="child::b")
        assert cache.total_bytes() > 0
        assert len(cache) == 2
        assert cache.clear() == 2
        assert cache.total_bytes() == 0

    def test_concurrent_store_of_same_key(self, tmp_path):
        # Regression: two threads missing on the same expression store
        # simultaneously; per-thread temp files keep the atomic rename from
        # racing (a shared temp name made os.replace raise FileNotFoundError).
        cache = PlanCache(tmp_path)
        query = compile_query(PAIR_QUERY, PAIR_VARS)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    cache.store(query, expression=PAIR_QUERY)
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        import threading

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.load(PAIR_QUERY, PAIR_VARS) is not None

    def test_deep_plan_roundtrip(self, tmp_path):
        cache = PlanCache(tmp_path)
        text = "/".join(["child::a"] * 300)
        cache.get_or_compile(text)
        loaded = PlanCache(tmp_path).load(text)
        assert loaded is not None
        assert loaded.unparse() == text


# =====================================================================
# Corpus-wide answer cache (byte budget)
# =====================================================================
class TestAnswerCache:
    def test_hit_miss_counters(self):
        cache = AnswerCache()
        key = ("owner", "query", (), "polynomial")
        assert cache.get(key) is None
        cache.put(key, frozenset({(1,)}))
        assert cache.get(key) == frozenset({(1,)})
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.insertions) == (1, 1, 1)

    def test_byte_budget_lru_eviction(self):
        answers = frozenset({(index, index) for index in range(10)})
        unit = estimate_answer_bytes(answers)
        cache = AnswerCache(max_bytes=unit * 2)
        cache.put(("a",), answers)
        cache.put(("b",), answers)
        cache.get(("a",))  # refresh "a"; "b" becomes LRU
        cache.put(("c",), answers)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.stats.evictions == 1
        assert cache.stats.current_bytes <= unit * 2

    def test_oversized_entry_not_stored(self):
        cache = AnswerCache(max_bytes=8)
        cache.put(("a",), frozenset({(1, 2, 3), (4, 5, 6)}))
        assert len(cache) == 0
        assert cache.get(("a",)) is None

    def test_answer_sets_are_stored_packed(self):
        answers = frozenset((index, index + 1) for index in range(640))
        cache = AnswerCache()
        cache.put(("a",), answers)
        # Sorted int32 rows: 640 * 2 * 4 bytes plus small object headers.
        assert 640 * 2 * 4 <= cache.stats.current_bytes < 640 * 2 * 4 + 512
        assert cache.get(("a",)) == answers
        cache.put(("empty",), frozenset())
        cache.put(("boolean",), frozenset({()}))
        assert cache.get(("empty",)) == frozenset()
        assert cache.get(("boolean",)) == frozenset({()})

    def test_spellings_of_one_query_share_an_entry(self):
        store = make_store(1)
        document = store.get("doc000")
        first = document.answer(PAIR_QUERY, PAIR_VARS)
        respaced = PAIR_QUERY.replace("[", "[ ").replace("]", " ]")
        assert document.answer(respaced, PAIR_VARS) == first
        assert store.answer_cache.stats.hits == 1

    def test_drop_owner_scopes_by_prefix(self):
        cache = AnswerCache()
        cache.put(("one", "q"), frozenset({(1,)}))
        cache.put(("two", "q"), frozenset({(2,)}))
        assert cache.drop_owner("one") == 1
        assert cache.get(("one", "q")) is None
        assert cache.get(("two", "q")) == frozenset({(2,)})

    def test_answers_survive_document_eviction(self):
        store = make_store(3, max_resident=1)
        first = store.get("doc000").answer(PAIR_QUERY, PAIR_VARS)
        store.get("doc001")  # evicts doc000
        assert "doc000" not in store.resident_names()
        hits_before = store.answer_cache.stats.hits
        again = store.get("doc000").answer(PAIR_QUERY, PAIR_VARS)
        assert again == first
        assert store.answer_cache.stats.hits == hits_before + 1

    def test_replacement_under_concurrent_get_never_serves_stale(self):
        # Regression: a get() racing a discard + same-name re-add must never
        # install a document parsed from the replaced source (the loader
        # re-validates the registration token before publishing).
        import threading

        store = DocumentStore()
        from repro.trees.tree import Node, Tree

        def doc_xml(label):
            return tree_to_xml(Tree(Node("bib", [Node("book", [Node(label)])])))

        store.add_xml("d", doc_xml("author"))
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    document = store.get("d")
                except CorpusError:
                    continue
                labels = document.tree.alphabet()
                if not ({"author", "title"} & labels):
                    failures.append(labels)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for round_index in range(60):
                label = "title" if round_index % 2 else "author"
                store.discard("d")
                store.add_xml("d", doc_xml(label))
                document = store.get("d")
                current = document.tree.alphabet()
                assert label in current, (round_index, current)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert failures == []

    def test_discard_invalidates_answers(self):
        store = DocumentStore()
        store.add_xml("a", tree_to_xml(generate_bibliography(1, seed=0)))
        one = store.get("a").answer(PAIR_QUERY, PAIR_VARS)
        assert len(one) == 1
        store.discard("a")
        store.add_xml("a", tree_to_xml(generate_bibliography(3, seed=1)))
        assert len(store.get("a").answer(PAIR_QUERY, PAIR_VARS)) == 3

    def test_store_answer_cache_bounded_by_default(self):
        # Answers survive document eviction, so the shared cache must come
        # with a finite default budget — unbounded only on explicit request.
        from repro.corpus.store import DEFAULT_ANSWER_CACHE_BYTES

        store = DocumentStore()
        assert store.answer_cache is not None
        assert store.answer_cache.max_bytes == DEFAULT_ANSWER_CACHE_BYTES
        unbounded = DocumentStore(answer_cache_bytes=None)
        assert unbounded.answer_cache.max_bytes is None

    def test_store_budget_bounds_footprint(self):
        store = make_store(4, answer_cache_bytes=1)  # essentially everything evicts
        for name in store.names():
            store.get(name).answer(PAIR_QUERY, PAIR_VARS)
        stats = store.answer_cache.stats
        assert stats.current_bytes <= 1

    def test_report_carries_cache_telemetry(self):
        store = make_store(3)
        with CorpusExecutor(store) as executor:
            executor.run_report((PAIR_QUERY, list(PAIR_VARS)))
            report = executor.run_report((PAIR_QUERY, list(PAIR_VARS)))
        assert report.cache is not None
        assert report.cache["hits"] >= 3  # second round served from the memo
        assert "cache" in report.to_dict()

    def test_worker_cache_stats_aggregate(self):
        store = make_store(4)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            list(executor.run((PAIR_QUERY, list(PAIR_VARS))))
            list(executor.run((PAIR_QUERY, list(PAIR_VARS))))
            stats = executor.answer_cache_stats()
        assert stats is not None
        assert stats["hits"] >= 4  # the second sweep hit every worker memo


# =====================================================================
# Targeted shard refresh
# =====================================================================
class TestTargetedRefresh:
    def test_append_rebuilds_only_one_shard(self):
        store = make_store(6)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            baseline = {r.doc_name: r.answers for r in executor.run((PAIR_QUERY, PAIR_VARS))}
            pools_before = list(executor._pools)
            store.add_xml("extra", tree_to_xml(generate_bibliography(2, seed=99)))
            after = {r.doc_name: r.answers for r in executor.run((PAIR_QUERY, PAIR_VARS))}
            pools_after = list(executor._pools)
            kept = sum(
                1
                for before, current in zip(pools_before, pools_after)
                if before is not None and before is current
            )
            assert kept == 1  # one shard kept its live pool (and caches)
            assert executor.pools_kept == 1
            assert executor.pools_rebuilt == 1
        assert set(after) == set(baseline) | {"extra"}
        assert all(after[name] == baseline[name] for name in baseline)

    def test_discard_rebuilds_only_owning_shard(self):
        store = make_store(6)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            list(executor.run((PAIR_QUERY, PAIR_VARS)))
            victim = executor._shard_names[1][-1]
            store.discard(victim)
            results = {r.doc_name for r in executor.run((PAIR_QUERY, PAIR_VARS))}
            assert executor.pools_kept == 1
            assert executor.pools_rebuilt == 1
        assert victim not in results
        assert len(results) == 5

    def test_same_name_replacement_not_kept(self):
        store = DocumentStore()
        for index in range(4):
            store.add_xml(
                f"doc{index}", tree_to_xml(generate_bibliography(1, seed=index))
            )
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            before = {r.doc_name: r.answers for r in executor.run((PAIR_QUERY, PAIR_VARS))}
            assert len(before["doc0"]) == 1
            store.discard("doc0")
            store.add_xml("doc0", tree_to_xml(generate_bibliography(3, seed=50)))
            after = {r.doc_name: r.answers for r in executor.run((PAIR_QUERY, PAIR_VARS))}
        assert len(after["doc0"]) == 3  # no stale worker answered

    def test_unchanged_store_keeps_partition(self):
        store = make_store(4)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            list(executor.run((PAIR_QUERY, PAIR_VARS)))
            pools = list(executor._pools)
            list(executor.run((PAIR_QUERY, PAIR_VARS)))
            assert executor._pools == pools
            assert executor.pools_rebuilt == 0


# =====================================================================
# Executor submission hook
# =====================================================================
class TestSubmitDocument:
    @pytest.mark.parametrize("strategy", ["serial"])
    def test_future_resolves_to_results(self, strategy):
        store = make_store(3)
        with CorpusExecutor(store, strategy=strategy) as executor:
            future = executor.submit_document("doc001", (PAIR_QUERY, list(PAIR_VARS)))
            results = future.result(timeout=30)
        assert [r.doc_name for r in results] == ["doc001"]
        assert results[0].answers == batch_answers(
            make_store(3), (PAIR_QUERY, list(PAIR_VARS))
        )[("doc001", results[0].query)]

    def test_processes_strategy_submission(self):
        store = make_store(3)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            futures = [
                executor.submit_document(name, (PAIR_QUERY, list(PAIR_VARS)))
                for name in store.names()
            ]
            collected = {
                future.result(timeout=60)[0].doc_name for future in futures
            }
        assert collected == set(store.names())

    def test_unknown_document_raises(self):
        store = make_store(2)
        with CorpusExecutor(store) as executor:
            with pytest.raises(CorpusError):
                executor.submit_document("nope", PAIR_QUERY)

    def test_processes_cancel_propagates_to_shard_queue(self):
        # Regression: cancelling the outer future must pull the queued work
        # out of the single-worker shard pool (and the completion callback
        # must tolerate the cancelled outer instead of raising
        # InvalidStateError inside the pool's callback machinery).
        store = make_store(3)
        with CorpusExecutor(store, strategy="processes", max_workers=1) as executor:
            first = executor.submit_document("doc000", (PAIR_QUERY, list(PAIR_VARS)))
            queued = executor.submit_document("doc001", (PAIR_QUERY, list(PAIR_VARS)))
            assert queued.cancel()
            assert len(first.result(timeout=60)) == 1
            assert queued.cancelled()


# =====================================================================
# CorpusServer (asyncio)
# =====================================================================
class TestCorpusServer:
    def test_ordered_submission_streams_in_store_order(self):
        async def body():
            store = make_store(6)
            async with CorpusServer(store, max_concurrent=3) as server:
                submission = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                names = [result.doc_name async for result in submission]
            assert names == list(store.names())

        run(body())

    def test_answers_match_batch_executor(self):
        async def body():
            store = make_store(6)
            reference = batch_answers(store, (PAIR_QUERY, list(PAIR_VARS)))
            async with CorpusServer(store) as server:
                results = await server.answer((PAIR_QUERY, list(PAIR_VARS)))
            assert {
                (r.doc_name, r.query): r.answers for r in results
            } == reference

        run(body())

    def test_concurrent_submissions_all_complete(self):
        async def body():
            store = make_store(5)
            async with CorpusServer(store, max_concurrent=2) as server:
                submissions = [
                    await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                    for _ in range(4)
                ]
                outcomes = await asyncio.gather(
                    *(submission.results() for submission in submissions)
                )
            reference = {r.doc_name: r.answers for r in outcomes[0]}
            for outcome in outcomes[1:]:
                assert {r.doc_name: r.answers for r in outcome} == reference
            assert all(len(outcome) == 5 for outcome in outcomes)

        run(body())

    def test_unordered_yields_same_multiset(self):
        async def body():
            store = make_store(6)
            async with CorpusServer(store, max_concurrent=4) as server:
                ordered = await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                unordered = await server.answer(
                    (PAIR_QUERY, list(PAIR_VARS)), ordered=False
                )
            assert {r.doc_name: r.answers for r in unordered} == {
                r.doc_name: r.answers for r in ordered
            }

        run(body())

    def test_multi_query_batches(self):
        async def body():
            store = make_store(3)
            batch = [(PAIR_QUERY, list(PAIR_VARS)), BOOLEAN_QUERY]
            reference = batch_answers(store, batch)
            async with CorpusServer(store) as server:
                results = await server.answer(batch)
            assert len(results) == 6
            assert {
                (r.doc_name, r.query): r.answers for r in results
            } == reference

        run(body())

    def test_queue_full_rejection(self):
        async def body():
            store = make_store(4)
            async with CorpusServer(store, max_queue=4) as server:
                blockers: list[concurrent.futures.Future] = []

                def stalled_submit(name, queries, *, engine=None):
                    future: concurrent.futures.Future = concurrent.futures.Future()
                    blockers.append(future)
                    return future

                server.executor.submit_document = stalled_submit
                first = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                await asyncio.sleep(0.05)
                with pytest.raises(ServerOverloadedError):
                    await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                assert server.stats.rejected == 1
                for future in blockers:
                    future.set_result([])
                await first.results()
                # Slots released: a new submission is admitted again.
                second = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                await asyncio.sleep(0.05)
                for future in blockers:
                    if not future.done():
                        future.set_result([])
                await second.results()

        run(body())

    def test_oversized_submission_admitted_when_idle(self):
        # Overload must be load-dependent, never structural: a corpus
        # larger than max_queue is still servable on an idle server.
        async def body():
            store = make_store(5)
            async with CorpusServer(store, max_queue=3) as server:
                results = await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                assert len(results) == 5

        run(body())

    def test_oversized_submission_rejected_when_busy(self):
        async def body():
            store = make_store(5)
            async with CorpusServer(store, max_queue=3) as server:
                blockers: list[concurrent.futures.Future] = []

                def stalled_submit(name, queries, *, engine=None):
                    future: concurrent.futures.Future = concurrent.futures.Future()
                    blockers.append(future)
                    return future

                server.executor.submit_document = stalled_submit
                first = await server.submit(
                    (PAIR_QUERY, list(PAIR_VARS)), ["doc000"]
                )
                await asyncio.sleep(0.05)
                with pytest.raises(ServerOverloadedError):
                    await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                assert server.stats.rejected == 1
                for future in blockers:
                    future.set_result([])
                await first.results()

        run(body())

    def test_backpressure_bounds_result_buffer(self):
        async def body():
            store = make_store(8)
            async with CorpusServer(
                store, max_concurrent=8, stream_buffer=2
            ) as server:
                submission = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                collected = []
                async for result in submission:
                    collected.append(result)
                    await asyncio.sleep(0.02)  # a deliberately slow consumer
                    assert submission._queue.qsize() <= 2
                assert len(collected) == 8

        run(body())

    def test_cancellation_mid_stream(self):
        async def body():
            store = make_store(10)
            # stream_buffer=2 keeps the producer close behind the consumer,
            # so the cancel lands while results are still outstanding.
            async with CorpusServer(
                store, max_concurrent=1, stream_buffer=2
            ) as server:
                submission = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                received = []
                async for result in submission:
                    received.append(result)
                    if len(received) == 2:
                        submission.cancel()
                await submission.wait()
                assert submission.cancelled
                assert 2 <= len(received) < 10
                stats = server.stats
                assert stats.cancelled == 1
                assert stats.queued == 0  # admission slots fully released
                # The server is still healthy for new submissions.
                results = await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                assert len(results) == 10

        run(body())

    def test_cancel_with_abandoned_consumer_does_not_wedge_drain(self):
        # Regression: a consumer that cancels and walks away (the client
        # disconnected) must not leave the producer blocked on the full
        # per-submission queue — drain()/aclose() have to finish.
        async def body():
            store = make_store(8)
            server = CorpusServer(store, max_concurrent=1, stream_buffer=1)
            submission = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
            first = await submission.__anext__()
            assert first.doc_name == "doc000"
            submission.cancel()
            # No further reads: the stream is abandoned with results queued.
            await asyncio.wait_for(server.drain(), timeout=10)
            assert submission.cancelled
            await server.aclose()

        run(body())

    def test_cancel_before_producer_starts_ends_stream(self):
        # Regression: cancelling a submission before its producer task ever
        # ran executes no coroutine body (no finally, no sentinel from
        # there) — cancel() itself must close the stream or consumers hang.
        async def body():
            store = make_store(3)
            async with CorpusServer(store) as server:
                submission = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                submission.cancel()
                results = await asyncio.wait_for(submission.results(), timeout=10)
                assert submission.cancelled
                assert len(results) < 3
                assert server.stats.cancelled == 1
                assert server.stats.queued == 0

        run(body())

    def test_completed_stream_with_vanished_consumer_drains(self):
        # Regression: a submission that finishes *normally* into a full,
        # never-read queue must not block on the sentinel and wedge drain().
        async def body():
            store = make_store(2)
            server = CorpusServer(store, stream_buffer=1)
            await server.submit((PAIR_QUERY, list(PAIR_VARS)), ["doc000"])
            await asyncio.sleep(0.3)  # result fills the unread queue
            await asyncio.wait_for(server.drain(), timeout=10)
            await server.aclose()

        run(body())

    def test_cancel_with_full_queue_still_delivers_queued_results(self):
        # The docstring promise: results already queued at cancel time are
        # still delivered to a consumer that keeps reading (the sentinel
        # never displaces them).
        async def body():
            store = make_store(8)
            async with CorpusServer(
                store, max_concurrent=1, stream_buffer=2
            ) as server:
                submission = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
                await asyncio.sleep(0.3)  # producer fills the stream queue
                queued = submission._queue.qsize()
                assert queued == 2
                submission.cancel()
                await submission.wait()
                received = [result async for result in submission]
                assert len(received) >= queued

        run(body())

    def test_abandoned_stream_without_cancel_still_drains(self):
        # Regression: a consumer that just stops iterating (no cancel())
        # must not wedge drain(): past abandon_grace the unread stream is
        # treated as abandoned and cancelled.
        async def body():
            store = make_store(8)
            server = CorpusServer(
                store, max_concurrent=1, stream_buffer=1, abandon_grace=0.2
            )
            submission = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
            first = await submission.__anext__()
            assert first.doc_name == "doc000"
            # Walk away without cancelling.
            await asyncio.wait_for(server.drain(), timeout=10)
            assert submission.cancelled
            await server.aclose()

        run(body())

    def test_failed_submission_with_abandoned_consumer_drains(self):
        # Same guarantee on the error path: a worker failure with nobody
        # reading the stream must not block shutdown.
        async def body():
            store = make_store(3)
            server = CorpusServer(store, max_concurrent=1, stream_buffer=1)
            submission = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
            submission.cancel()
            await asyncio.wait_for(server.drain(), timeout=10)
            await server.aclose()

        run(body())

    def test_plan_cache_shared_across_engines(self, tmp_path):
        # Regression: plans carry every translation, so a cache warmed
        # ahead of time must hit regardless of the engine the server runs
        # with — the key uses the shared ANY_ENGINE label, not self.engine.
        async def body():
            cache = PlanCache(tmp_path)
            cache.get_or_compile(PAIR_QUERY, PAIR_VARS)  # warm (ANY_ENGINE)
            store = make_store(2)
            async with CorpusServer(
                store, plan_cache=cache, engine="naive"
            ) as server:
                results = await server.answer((PAIR_QUERY, list(PAIR_VARS)))
            assert len(results) == 2
            assert cache.stats.hits == 1
            assert cache.stats.stores == 1  # only the warm-up compile stored

        run(body())

    def test_graceful_drain_finishes_in_flight(self):
        async def body():
            store = make_store(5)
            server = CorpusServer(store, max_concurrent=2)
            submission = await server.submit((PAIR_QUERY, list(PAIR_VARS)))
            collector = asyncio.create_task(submission.results())
            await server.drain()
            with pytest.raises(ServerClosedError):
                await server.submit(BOOLEAN_QUERY)
            results = await collector
            assert len(results) == 5
            await server.aclose()
            assert server.stats.queued == 0
            assert server.stats.in_flight == 0

        run(body())

    def test_submit_after_close_raises(self):
        async def body():
            store = make_store(2)
            server = CorpusServer(store)
            await server.aclose()
            with pytest.raises(ServerClosedError):
                await server.submit(BOOLEAN_QUERY)

        run(body())

    def test_worker_error_propagates_to_consumer(self):
        async def body():
            store = make_store(3)
            async with CorpusServer(store) as server:
                submission = await server.submit(
                    (PAIR_QUERY, list(PAIR_VARS)), engine="no-such-engine"
                )
                with pytest.raises(Exception) as excinfo:
                    await submission.results()
                assert "no-such-engine" in str(excinfo.value)
                assert server.stats.failed == 1

        run(body())

    def test_unknown_document_rejected_before_scheduling(self):
        async def body():
            store = make_store(2)
            async with CorpusServer(store) as server:
                with pytest.raises(CorpusError):
                    await server.submit(BOOLEAN_QUERY, ["missing"])
                assert server.stats.submitted == 0

        run(body())

    def test_stats_latency_percentiles(self):
        async def body():
            store = make_store(4)
            async with CorpusServer(store) as server:
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                stats = server.stats
                assert stats.completed == 4
                assert stats.p50_latency is not None
                assert stats.p95_latency >= stats.p50_latency
                payload = stats.to_dict()
                assert payload["completed"] == 4
                json.dumps(payload)  # JSON-serialisable end to end

        run(body())

    def test_plan_cache_wired_into_submission(self, tmp_path):
        async def body():
            store = make_store(3)
            cache = PlanCache(tmp_path)
            async with CorpusServer(store, plan_cache=cache) as server:
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
            stats = cache.stats
            assert stats.stores == 1
            assert stats.hits >= 1

        run(body())

    def test_warm_start_equality_across_servers(self, tmp_path):
        async def body():
            cold_store = make_store(4)
            cache = PlanCache(tmp_path)
            async with CorpusServer(cold_store, plan_cache=cache) as server:
                cold = await server.answer((PAIR_QUERY, list(PAIR_VARS)))
            warm_store = make_store(4)
            warm_cache = PlanCache(tmp_path)
            async with CorpusServer(warm_store, plan_cache=warm_cache) as server:
                warm = await server.answer((PAIR_QUERY, list(PAIR_VARS)))
            assert warm_cache.stats.hits == 1 and warm_cache.stats.stores == 0
            assert {r.doc_name: r.answers for r in warm} == {
                r.doc_name: r.answers for r in cold
            }

        run(body())

    def test_processes_strategy_serving(self):
        async def body():
            store = make_store(4)
            reference = batch_answers(store, (PAIR_QUERY, list(PAIR_VARS)))
            async with CorpusServer(
                store, strategy="processes", max_workers=2
            ) as server:
                results = await server.answer((PAIR_QUERY, list(PAIR_VARS)))
            assert {
                (r.doc_name, r.query): r.answers for r in results
            } == reference

        run(body())

    def test_compiled_query_objects_accepted(self):
        async def body():
            store = make_store(2)
            query = compile_query(PAIR_QUERY, PAIR_VARS)
            async with CorpusServer(store) as server:
                results = await server.answer(query)
            assert len(results) == 2

        run(body())

    def test_document_subset(self):
        async def body():
            store = make_store(5)
            async with CorpusServer(store) as server:
                results = await server.answer(
                    (PAIR_QUERY, list(PAIR_VARS)), ["doc004", "doc001"]
                )
            assert [r.doc_name for r in results] == ["doc004", "doc001"]

        run(body())

    def test_invalid_configuration_rejected(self):
        from repro.serve import ServeError

        store = make_store(1)
        with pytest.raises(ServeError):
            CorpusServer(store, max_concurrent=0)
        with pytest.raises(ServeError):
            CorpusServer(store, max_queue=0)
        with pytest.raises(ServeError):
            CorpusServer(store, stream_buffer=0)


# =====================================================================
# NDJSON protocol
# =====================================================================
async def _tcp_fixture(store, **server_kwargs):
    """Start a CorpusServer + TCP endpoint; return (server, tcp, port)."""
    server = CorpusServer(store, **server_kwargs)
    tcp = await ProtocolServer(server).serve_tcp("127.0.0.1", 0)
    port = tcp.sockets[0].getsockname()[1]
    return server, tcp, port


async def _teardown(server, tcp):
    tcp.close()
    await tcp.wait_closed()
    await server.aclose()


class TestProtocol:
    def test_submit_round_trip(self):
        async def body():
            store = make_store(4)
            reference = batch_answers(store, (PAIR_QUERY, list(PAIR_VARS)))
            server, tcp, port = await _tcp_fixture(store)
            try:
                lines = [
                    line
                    async for line in request_lines(
                        "127.0.0.1",
                        port,
                        {"op": "submit", "id": 9, "query": PAIR_QUERY,
                         "vars": list(PAIR_VARS)},
                    )
                ]
            finally:
                await _teardown(server, tcp)
            assert lines[-1] == {
                "id": 9, "type": "done", "results": 4, "cancelled": False,
            }
            for line in lines[:-1]:
                assert line["type"] == "result"
                expected = reference[(line["doc"], line["query"])]
                assert line["answers"] == sorted(list(a) for a in expected)
                assert line["count"] == len(expected)

        run(body())

    def test_multi_query_submission(self):
        async def body():
            store = make_store(2)
            server, tcp, port = await _tcp_fixture(store)
            try:
                lines = [
                    line
                    async for line in request_lines(
                        "127.0.0.1",
                        port,
                        {
                            "op": "submit",
                            "id": 1,
                            "queries": [
                                [PAIR_QUERY, list(PAIR_VARS)],
                                [BOOLEAN_QUERY, []],
                            ],
                        },
                    )
                ]
            finally:
                await _teardown(server, tcp)
            assert lines[-1]["results"] == 4  # 2 docs x 2 queries

        run(body())

    def test_stats_and_ping_ops(self):
        async def body():
            store = make_store(2)
            server, tcp, port = await _tcp_fixture(store)
            try:
                pong = [
                    line
                    async for line in request_lines(
                        "127.0.0.1", port, {"op": "ping", "id": 3}
                    )
                ]
                stats = [
                    line
                    async for line in request_lines(
                        "127.0.0.1", port, {"op": "stats", "id": 4}
                    )
                ]
            finally:
                await _teardown(server, tcp)
            assert pong == [{"id": 3, "type": "pong"}]
            assert stats[0]["type"] == "stats"
            assert "submitted" in stats[0]["stats"]

        run(body())

    def test_bad_requests_get_typed_errors(self):
        async def body():
            store = make_store(1)
            server, tcp, port = await _tcp_fixture(store)
            try:
                missing = [
                    line
                    async for line in request_lines(
                        "127.0.0.1", port, {"op": "submit", "id": 1}
                    )
                ]
                unknown_op = [
                    line
                    async for line in request_lines(
                        "127.0.0.1", port, {"op": "destroy", "id": 2}
                    )
                ]
                unknown_doc = [
                    line
                    async for line in request_lines(
                        "127.0.0.1",
                        port,
                        {"op": "submit", "id": 3, "query": BOOLEAN_QUERY,
                         "docs": ["ghost"]},
                    )
                ]
            finally:
                await _teardown(server, tcp)
            assert missing[0]["type"] == "error"
            assert missing[0]["kind"] == "bad-request"
            assert unknown_op[0]["kind"] == "bad-request"
            assert unknown_doc[0]["kind"] == "bad-request"
            assert "ghost" in unknown_doc[0]["error"]

        run(body())

    def test_overload_error_kind(self):
        async def body():
            store = make_store(4)
            server, tcp, port = await _tcp_fixture(store, max_queue=2)
            blockers: list[concurrent.futures.Future] = []

            def stalled_submit(name, queries, *, engine=None):
                future: concurrent.futures.Future = concurrent.futures.Future()
                blockers.append(future)
                return future

            server.executor.submit_document = stalled_submit
            try:
                first = await server.submit(BOOLEAN_QUERY, ["doc000"])
                await asyncio.sleep(0.05)
                lines = [
                    line
                    async for line in request_lines(
                        "127.0.0.1",
                        port,
                        {"op": "submit", "id": 1, "query": BOOLEAN_QUERY},
                    )
                ]
                for future in blockers:
                    future.set_result([])
                await first.results()
            finally:
                await _teardown(server, tcp)
            assert lines[0]["type"] == "error"
            assert lines[0]["kind"] == "overloaded"

        run(body())

    def test_pipelined_submissions_demultiplex_by_id(self):
        async def body():
            store = make_store(3)
            server, tcp, port = await _tcp_fixture(store, max_concurrent=4)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for request_id in (1, 2):
                    writer.write(
                        (
                            json.dumps(
                                {"op": "submit", "id": request_id,
                                 "query": BOOLEAN_QUERY}
                            )
                            + "\n"
                        ).encode()
                    )
                await writer.drain()
                done = set()
                by_id: dict[int, list[dict]] = {1: [], 2: []}
                while done != {1, 2}:
                    payload = json.loads(await reader.readline())
                    by_id[payload["id"]].append(payload)
                    if payload["type"] == "done":
                        done.add(payload["id"])
                writer.close()
                await writer.wait_closed()
            finally:
                await _teardown(server, tcp)
            for request_id in (1, 2):
                assert by_id[request_id][-1]["results"] == 3
                assert len(by_id[request_id]) == 4

        run(body())

    def test_client_disconnect_mid_stream_cancels_submission(self):
        # Regression: a client that vanishes mid-stream must not leave the
        # submission producing into a dead connection forever — the handler
        # cancels it and the server still drains cleanly.
        async def body():
            store = make_store(8)
            server, tcp, port = await _tcp_fixture(
                store, max_concurrent=1, stream_buffer=2
            )
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(
                    (
                        json.dumps(
                            {"op": "submit", "id": 1, "query": PAIR_QUERY,
                             "vars": list(PAIR_VARS)}
                        )
                        + "\n"
                    ).encode()
                )
                await writer.drain()
                line = json.loads(await reader.readline())
                assert line["type"] == "result"
                writer.close()  # abrupt disconnect, most results undelivered
                await asyncio.wait_for(server.drain(), timeout=10)
            finally:
                await _teardown(server, tcp)
            assert server.stats.active_submissions == 0

        run(body())

    def test_large_pipelined_request_line_accepted(self):
        # The reader limit must comfortably fit the documented pipelined
        # "queries": [...] form — a few hundred KB in one line (asyncio's
        # 64 KiB default used to kill the connection with no reply).
        async def body():
            store = make_store(1)
            server, tcp, port = await _tcp_fixture(store)
            queries = [[PAIR_QUERY, list(PAIR_VARS)] for _ in range(2000)]
            request = {"op": "submit", "id": 1, "queries": queries}
            assert len(json.dumps(request)) > 64 * 1024
            try:
                lines = [
                    line
                    async for line in request_lines("127.0.0.1", port, request)
                ]
            finally:
                await _teardown(server, tcp)
            assert lines[-1]["type"] == "done"
            assert lines[-1]["results"] == 2000

        run(body())

    def test_oversized_request_line_gets_typed_error(self):
        # Beyond even the raised limit, the client gets a typed error line
        # instead of a silent EOF and an unhandled-exception log.
        async def body():
            from repro.serve import protocol

            store = make_store(1)
            server, tcp, port = await _tcp_fixture(store)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port, limit=64 * 1024 * 1024
                )
                writer.write(b'{"op": "submit", "id": 1, "query": "')
                writer.write(b"x" * (protocol.READ_LIMIT + 1024))
                writer.write(b'"}\n')
                await writer.drain()
                line = json.loads(await reader.readline())
                writer.close()
            finally:
                await _teardown(server, tcp)
            assert line["type"] == "error"
            assert line["kind"] == "bad-request"

        run(body())

    def test_malformed_json_line(self):
        async def body():
            store = make_store(1)
            server, tcp, port = await _tcp_fixture(store)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"this is not json\n")
                await writer.drain()
                payload = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
            finally:
                await _teardown(server, tcp)
            assert payload["type"] == "error"

        run(body())


# =====================================================================
# CLI
# =====================================================================
class TestServeCli:
    def test_parser_accepts_serve_run(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "run", "--dir", "corpus", "--port", "0",
                "--strategy", "processes", "--plan-cache", "plans",
                "--max-concurrent", "8", "--max-queue", "32",
            ]
        )
        assert args.command == "serve"
        assert args.serve_command == "run"
        assert args.max_concurrent == 8

    def test_serve_warm_populates_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "plans"
        exit_code = main(
            [
                "serve", "warm", "--plan-cache", str(cache_dir),
                "--query", PAIR_QUERY, "--vars", "y,z",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plans"][0]["cached"] is False
        assert payload["total_bytes"] > 0
        # Second warm run reports the plan as already cached.
        assert main(
            [
                "serve", "warm", "--plan-cache", str(cache_dir),
                "--query", PAIR_QUERY, "--vars", "y,z",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plans"][0]["cached"] is True
        # And the warmed plan sits under the shared engine-independent
        # label the server looks plans up with, whatever --engine it runs.
        cache = PlanCache(cache_dir)
        assert cache.load(PAIR_QUERY, ["y", "z"]) is not None

    def test_serve_warm_vars_arity_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "serve", "warm", "--plan-cache", str(tmp_path / "p"),
                "--query", PAIR_QUERY, "--query", BOOLEAN_QUERY,
                "--vars", "y,z",
            ]
        )
        assert exit_code == 1
        assert "per --query" in capsys.readouterr().err
