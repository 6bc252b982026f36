"""E11 — serving: cold vs warm start and throughput vs concurrency.

The scenario is the serving regime :mod:`repro.serve` is built for: a server
process comes up over a corpus, a known workload of many distinct queries
arrives at once, and the quantity that matters is *startup-to-first-answer* —
how long before the first per-document result streams back.

Two workloads are measured:

* **audit** (the headline) — 128 distinct variable-free, complement-free
  reachability queries served under the linear-time ``corexpath1`` engine.
  Evaluation is set-based and cheap, so startup latency is dominated by
  compilation (parse → Definition 1 check → HCL⁻/PPLbin translation), which
  is exactly what :class:`repro.serve.PlanCache` persists: the *cold* run
  compiles and stores every plan, the *warm* run (fresh store + server over
  the same cache directory) hits on all of them and skips compilation.
* **pairs** — author/title pair extraction with output variables under the
  ``polynomial`` engine, submitted one query per submission at several
  ``max_concurrent`` settings: the throughput-vs-concurrency series, and the
  agreement check that the streamed per-document answers are identical to
  :class:`repro.corpus.CorpusExecutor` batch output.

Startup runs use ``max_concurrent=1`` and documents ordered smallest-first,
so "first answer" is deterministic (the full submission is compiled at
admission, then the smallest document's job completes first).  A throwaway
warmup round runs before any measurement so cold and warm both execute with
a hot interpreter; cold-vs-warm then differs only in the plan-cache state.

Run standalone to produce ``BENCH_serving.json`` in the repository root::

    PYTHONPATH=src python benchmarks/bench_e11_serving.py

Under pytest the same scenario runs at reduced scale through
pytest-benchmark, landing in ``BENCH_e11_serving.json`` via the session
hook like every other experiment.
"""

from __future__ import annotations

import asyncio
import hashlib
import tempfile
import time

import pytest

from repro.corpus import CorpusExecutor, DocumentStore
from repro.session import ServingPolicy, Session
from repro.workloads import generate_corpus, write_corpus

from bench_utils import run_single, write_bench_json

#: Full-scale scenario (standalone run).
NUM_DOCUMENTS = 8
BASE_BOOKS = 6
SIZE_SKEW = 0.3
SEED = 11
AUDIT_QUERIES = 160
PAIR_QUERIES = 24
CONCURRENCY_LEVELS = (1, 2, 4, 8)


# ----------------------------------------------------------------- workloads
def audit_query(i: int) -> str:
    """One distinct, satisfiable, variable-free reachability query.

    Every step is a (real-label union decoy-label) hop that returns to the
    book element, so the query is satisfiable on any bibliography document;
    the ``u<i>x<j>`` decoy labels make each of the ``i`` texts distinct.
    Complement-free and variable-free by construction, so the linear
    ``corexpath1`` engine can serve it.
    """
    anchors = ("author", "title")
    width = 5 + (i % 4)
    steps = "/".join(
        f"( child::{anchors[(i + j) % 2]} union child::u{i}x{j} )/parent::book"
        for j in range(width)
    )
    return f"descendant::book/{steps}/child::{anchors[i % 2]}"


def pair_query(i: int) -> tuple[str, tuple[str, ...]]:
    """One distinct author/title pair-extraction query (output variables)."""
    decoys = ("year", "publisher", "price")
    extra = " and ".join(f"child::{decoys[(i + j) % 3]}" for j in range(i % 3))
    extra = (" and " + extra) if extra else ""
    expr = (
        f"descendant::book[ child::author[. is $y] and child::title[. is $z]"
        f" and ( child::author or child::u{i} ){extra} ]"
    )
    return expr, ("y", "z")


def audit_workload(n: int) -> list[tuple[str, tuple[str, ...]]]:
    queries = [(audit_query(i), ()) for i in range(n)]
    assert len({text for text, _ in queries}) == n
    return queries


def pair_workload(n: int) -> list[tuple[str, tuple[str, ...]]]:
    queries = [pair_query(i) for i in range(n)]
    assert len({text for text, _ in queries}) == n
    return queries


def _digest(results: dict) -> str:
    blob = repr(sorted((key, sorted(value)) for key, value in results.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------------------- startup runs
async def _serve_startup(directory, cache_dir, queries, engine) -> dict:
    """One server start: build everything, submit the workload, stream.

    Driven end-to-end through a :class:`repro.session.Session` (PR 5): the
    session owns the store, the plan cache and the async server, so the
    measured path is the one production callers use.  Returns first-answer
    and total wall seconds measured from the very top (session construction
    included — this *is* the startup), the result map and the plan-cache
    counters.
    """
    started = time.perf_counter()
    first = None
    results = {}
    async with Session(
        engine=engine,
        strategy="serial",
        plan_cache=cache_dir,
        serving=ServingPolicy(max_concurrent=1),
    ) as session:
        session.add_directory(directory)
        docs = sorted(
            session.store.names(), key=lambda name: session.document(name).tree.size
        )
        submission = await session.astream(queries, docs)
        async for result in submission:
            if first is None:
                first = time.perf_counter() - started
            results[(result.doc_name, result.query)] = result.answers
        plan_stats = session.plan_cache.stats.to_dict()
    total = time.perf_counter() - started
    return {
        "first_answer_seconds": first,
        "total_seconds": total,
        "results": results,
        "plan_cache": plan_stats,
    }


def run_startup_pair(directory, queries, engine, repeats: int = 5) -> dict:
    """Cold starts, then warm starts over the last cold run's cache directory.

    Each cold repeat gets a fresh, empty cache directory; each warm repeat
    reuses the populated one.  The headline numbers take the minimum over
    the repeats (the standard noise-robust reduction for wall-clock
    micro-measurements); every repeat is reported alongside.
    """
    with tempfile.TemporaryDirectory() as scratch:
        # Warmup round: hot interpreter for both measured runs; its cache
        # directory is discarded so the cold runs still start empty.
        asyncio.run(_serve_startup(directory, scratch, queries, engine))
    cold_runs, warm_runs = [], []
    with tempfile.TemporaryDirectory() as root:
        for rep in range(repeats):
            cache_dir = f"{root}/rep{rep}"
            cold_runs.append(
                asyncio.run(_serve_startup(directory, cache_dir, queries, engine))
            )
        for _ in range(repeats):
            warm_runs.append(
                asyncio.run(_serve_startup(directory, cache_dir, queries, engine))
            )
    agreement = all(
        run["results"] == cold_runs[0]["results"] for run in cold_runs + warm_runs
    )
    digest = _digest(cold_runs[0]["results"])
    for run in cold_runs + warm_runs:
        run.pop("results")
    cold = min(cold_runs, key=lambda run: run["first_answer_seconds"])
    warm = min(warm_runs, key=lambda run: run["first_answer_seconds"])
    speedup = cold["first_answer_seconds"] / warm["first_answer_seconds"]
    return {
        "engine": engine,
        "num_queries": len(queries),
        "repeats": repeats,
        "cold": cold,
        "warm": warm,
        "cold_runs_first_answer": [r["first_answer_seconds"] for r in cold_runs],
        "warm_runs_first_answer": [r["first_answer_seconds"] for r in warm_runs],
        "warm_speedup_first_answer": speedup,
        "warm_speedup_total": cold["total_seconds"] / warm["total_seconds"],
        "cold_warm_agreement": agreement,
        "results_digest": digest,
    }


# --------------------------------------------------------------- throughput
async def _serve_throughput(directory, cache_dir, queries, concurrency) -> dict:
    """Concurrent clients: one submission per query, drained concurrently."""
    results = {}
    async with Session(
        strategy="serial",
        plan_cache=cache_dir,
        serving=ServingPolicy(max_concurrent=concurrency, max_queue=4096),
    ) as session:
        session.add_directory(directory)

        async def one_client(item):
            submission = await session.astream([item], ordered=False)
            async for result in submission:
                results[(result.doc_name, result.query)] = result.answers

        started = time.perf_counter()
        await asyncio.gather(*(one_client(item) for item in queries))
        wall = time.perf_counter() - started
        stats = session.server().stats
    return {
        "concurrency": concurrency,
        "wall_seconds": wall,
        "results": results,
        "results_per_second": len(results) / wall if wall > 0 else None,
        "p50_latency": stats.p50_latency,
        "p95_latency": stats.p95_latency,
    }


def run_throughput_series(directory, queries, levels) -> dict:
    """Warm-cache throughput at each concurrency level + batch agreement."""
    store = DocumentStore.from_directory(directory)
    with CorpusExecutor(store, strategy="serial") as executor:
        batch = {
            (result.doc_name, result.query): result.answers
            for result in executor.run(queries)
        }
    series = []
    with tempfile.TemporaryDirectory() as cache_dir:
        for concurrency in levels:
            run = asyncio.run(
                _serve_throughput(directory, cache_dir, queries, concurrency)
            )
            run["batch_agreement"] = run.pop("results") == batch
            series.append(run)
    base = series[0]["wall_seconds"]
    for run in series:
        run["speedup_vs_serial"] = base / run["wall_seconds"]
    return {
        "num_queries": len(queries),
        "levels": series,
        "batch_agreement": all(run["batch_agreement"] for run in series),
    }


# ----------------------------------------------------------------- scenario
def run_scenario(
    *,
    num_documents: int = NUM_DOCUMENTS,
    base_books: int = BASE_BOOKS,
    skew: float = SIZE_SKEW,
    audit_queries: int = AUDIT_QUERIES,
    pair_queries: int = PAIR_QUERIES,
    levels: tuple[int, ...] = CONCURRENCY_LEVELS,
) -> dict:
    with tempfile.TemporaryDirectory() as directory:
        corpus = generate_corpus(
            num_documents, base=base_books, skew=skew, seed=SEED, decoys_per_book=1
        )
        write_corpus(directory, corpus)
        startup = run_startup_pair(
            directory, audit_workload(audit_queries), "corexpath1"
        )
        throughput = run_throughput_series(
            directory, pair_workload(pair_queries), levels
        )
        total_nodes = sum(tree.size for tree in corpus.values())
    return {
        "experiment": "e11_serving",
        "scenario": {
            "num_documents": num_documents,
            "base_books": base_books,
            "size_skew": skew,
            "total_nodes": total_nodes,
            "audit_queries": audit_queries,
            "pair_queries": pair_queries,
            "concurrency_levels": list(levels),
        },
        "startup": startup,
        "throughput": throughput,
    }


# ------------------------------------------------------------------ pytest
#: Reduced scale so the bench suite stays fast; same shapes, same checks.
PYTEST_SCALE = dict(
    num_documents=4, base_books=4, skew=0.2, audit_queries=24, pair_queries=8
)


@pytest.fixture()
def small_corpus_dir(tmp_path):
    corpus = generate_corpus(
        PYTEST_SCALE["num_documents"],
        base=PYTEST_SCALE["base_books"],
        skew=PYTEST_SCALE["skew"],
        seed=SEED,
        decoys_per_book=1,
    )
    write_corpus(tmp_path, corpus)
    return str(tmp_path)


def test_cold_vs_warm_startup(benchmark, small_corpus_dir):
    queries = audit_workload(PYTEST_SCALE["audit_queries"])
    outcome = run_single(
        benchmark, run_startup_pair, small_corpus_dir, queries, "corexpath1"
    )
    assert outcome["cold_warm_agreement"]
    assert outcome["warm"]["plan_cache"]["misses"] == 0
    benchmark.extra_info["num_queries"] = outcome["num_queries"]
    benchmark.extra_info["warm_speedup_first_answer"] = outcome[
        "warm_speedup_first_answer"
    ]
    benchmark.extra_info["cold_first_answer"] = outcome["cold"]["first_answer_seconds"]
    benchmark.extra_info["warm_first_answer"] = outcome["warm"]["first_answer_seconds"]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_throughput(benchmark, small_corpus_dir, concurrency):
    queries = pair_workload(PYTEST_SCALE["pair_queries"])
    outcome = run_single(
        benchmark, run_throughput_series, small_corpus_dir, queries, (concurrency,)
    )
    assert outcome["batch_agreement"]
    benchmark.extra_info["concurrency"] = concurrency
    benchmark.extra_info["results_per_second"] = outcome["levels"][0][
        "results_per_second"
    ]


# -------------------------------------------------------------- standalone
def main() -> int:
    payload = run_scenario()
    path = write_bench_json("serving", payload)
    print(f"wrote {path}")
    startup = payload["startup"]
    print(
        "startup (engine=%s, %d queries): cold first-answer=%.1fms "
        "warm first-answer=%.1fms speedup=%.2fx agreement=%s"
        % (
            startup["engine"],
            startup["num_queries"],
            startup["cold"]["first_answer_seconds"] * 1e3,
            startup["warm"]["first_answer_seconds"] * 1e3,
            startup["warm_speedup_first_answer"],
            startup["cold_warm_agreement"],
        )
    )
    for run in payload["throughput"]["levels"]:
        print(
            "throughput: concurrency=%d wall=%.2fs results/s=%.0f "
            "p95=%.1fms agreement=%s"
            % (
                run["concurrency"],
                run["wall_seconds"],
                run["results_per_second"],
                (run["p95_latency"] or 0) * 1e3,
                run["batch_agreement"],
            )
        )
    ok = (
        startup["cold_warm_agreement"]
        and payload["throughput"]["batch_agreement"]
        and startup["warm_speedup_first_answer"] >= 2.0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
