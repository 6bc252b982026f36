"""E10 — corpus serving: serial vs sharded processes.

The scenario is memory-bounded corpus serving, the regime the
:mod:`repro.corpus` subsystem is built for: a corpus of ``N`` documents
whose materialised form (tree + Theorem 2 oracle matrices + memoised
answers) does not fit one process's resident budget, queried by repeated
batches — ``ROUNDS`` rounds of ``QUERIES`` under each engine.

* ``serial`` runs over one :class:`DocumentStore` bounded at
  ``MAX_RESIDENT`` documents.  A sequential sweep over ``N > MAX_RESIDENT``
  documents is the LRU worst case: every round reloads, rebuilds and
  re-answers every document.
* ``processes`` shards the corpus over ``WORKERS`` dedicated worker
  processes, each with its *own* ``MAX_RESIDENT`` budget — the scale-out
  move: total resident capacity grows with the number of shards.  Each
  shard fits its worker's budget, so after the first round every answer is
  served from the per-worker caches.

The headline numbers are the per-strategy wall-clocks and the
``processes``-vs-``serial`` speedup; the agreement section proves that
both strategies returned byte-identical answer sets for every
(query, engine) pair.  On a single-core host the speedup comes entirely
from cache retention across rounds (cold work is paid once instead of every
round); on a multi-core host the first cold round additionally parallelises
across the shards.

Run standalone to produce ``BENCH_corpus.json`` in the repository root::

    PYTHONPATH=src python benchmarks/bench_e10_corpus_scaling.py

Under pytest the same scenario runs at a reduced scale through
pytest-benchmark, landing in ``BENCH_e10_corpus_scaling.json`` like every
other experiment.
"""

from __future__ import annotations

import hashlib
import tempfile
import time

import pytest

from repro.corpus import CorpusExecutor, DocumentStore
from repro.workloads import generate_corpus, write_corpus

from bench_utils import run_single, write_bench_json

#: Two selective author/decoy-attribute queries in the paper's introductory
#: shape; small answer sets keep Fig. 8 enumeration from drowning out the
#: per-document build work the experiment is about.
QUERIES = [
    (
        "descendant::book[ child::author[. is $y] and child::price[. is $z]"
        " and child::publisher and child::year ]",
        ("y", "z"),
    ),
    (
        "descendant::book[ child::title[. is $t] and child::year[. is $w]"
        " and child::price ]",
        ("t", "w"),
    ),
]
ENGINES = ("polynomial", "yannakakis")
STRATEGIES = ("serial", "processes")

#: Full-scale scenario (standalone run).
NUM_DOCUMENTS = 64
BASE_BOOKS = 200
SIZE_SKEW = 0.15
MAX_RESIDENT = 16
WORKERS = 4
ROUNDS = 4
SEED = 42


def _digest(answers: dict) -> str:
    """Stable digest of a ``{(doc, query, engine): frozenset}`` answer map."""
    blob = repr(sorted((key, sorted(value)) for key, value in answers.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_strategy(
    directory: str,
    strategy: str,
    *,
    max_resident: int = MAX_RESIDENT,
    workers: int = WORKERS,
    rounds: int = ROUNDS,
    engines: tuple[str, ...] = ENGINES,
) -> dict:
    """Run the serving scenario cold under one strategy; return metrics + answers."""
    store = DocumentStore.from_directory(directory, max_resident=max_resident)
    answers: dict = {}
    round_seconds = []
    started = time.perf_counter()
    with CorpusExecutor(store, strategy=strategy, max_workers=workers) as executor:
        for _ in range(rounds):
            round_started = time.perf_counter()
            for engine in engines:
                for result in executor.run(QUERIES, engine=engine):
                    answers[(result.doc_name, result.query, engine)] = result.answers
            round_seconds.append(time.perf_counter() - round_started)
        # Process-strategy loads happen in the shard workers, not the parent
        # store; fold both sides in so the per-strategy counters compare.
        worker_stats = executor.worker_stats()
    wall = time.perf_counter() - started
    stats = store.stats
    return {
        "strategy": strategy,
        "wall_seconds": wall,
        "round_seconds": round_seconds,
        "store_loads": stats.loads + worker_stats.loads,
        "store_evictions": stats.evictions + worker_stats.evictions,
        "answers": answers,
    }


def run_scenario(
    *,
    num_documents: int = NUM_DOCUMENTS,
    base_books: int = BASE_BOOKS,
    skew: float = SIZE_SKEW,
    max_resident: int = MAX_RESIDENT,
    workers: int = WORKERS,
    rounds: int = ROUNDS,
    engines: tuple[str, ...] = ENGINES,
    strategies: tuple[str, ...] = STRATEGIES,
) -> dict:
    """Generate a corpus, run every strategy cold, and compare."""
    with tempfile.TemporaryDirectory() as directory:
        corpus = generate_corpus(
            num_documents, base=base_books, skew=skew, seed=SEED, decoys_per_book=3
        )
        write_corpus(directory, corpus)
        total_nodes = sum(tree.size for tree in corpus.values())
        runs = [
            run_strategy(
                directory,
                strategy,
                max_resident=max_resident,
                workers=workers,
                rounds=rounds,
                engines=engines,
            )
            for strategy in strategies
        ]
    reference = runs[0]["answers"]
    agreement = all(run["answers"] == reference for run in runs[1:])
    serial_wall = next(
        (run["wall_seconds"] for run in runs if run["strategy"] == "serial"), None
    )
    for run in runs:
        run["results_digest"] = _digest(run.pop("answers"))
        if serial_wall is not None and run["wall_seconds"] > 0:
            run["speedup_vs_serial"] = serial_wall / run["wall_seconds"]
    return {
        "experiment": "e10_corpus_scaling",
        "scenario": {
            "num_documents": num_documents,
            "base_books": base_books,
            "size_skew": skew,
            "total_nodes": total_nodes,
            "max_resident": max_resident,
            "workers": workers,
            "rounds": rounds,
            "queries": [text for text, _ in QUERIES],
            "engines": list(engines),
        },
        "strategies": runs,
        "agreement": agreement,
    }


# ------------------------------------------------------------------ pytest
#: Reduced scale so the whole bench suite stays fast; the shape (bounded
#: store, more documents than budget, repeated rounds) is the same.
PYTEST_SCALE = dict(
    num_documents=12,
    base_books=40,
    skew=0.2,
    max_resident=4,
    workers=3,
    rounds=2,
    engines=("polynomial",),
)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_corpus_strategy(benchmark, strategy):
    with tempfile.TemporaryDirectory() as directory:
        corpus = generate_corpus(
            PYTEST_SCALE["num_documents"],
            base=PYTEST_SCALE["base_books"],
            skew=PYTEST_SCALE["skew"],
            seed=SEED,
            decoys_per_book=3,
        )
        write_corpus(directory, corpus)
        outcome = run_single(
            benchmark,
            run_strategy,
            directory,
            strategy,
            max_resident=PYTEST_SCALE["max_resident"],
            workers=PYTEST_SCALE["workers"],
            rounds=PYTEST_SCALE["rounds"],
            engines=PYTEST_SCALE["engines"],
        )
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["num_documents"] = PYTEST_SCALE["num_documents"]
    benchmark.extra_info["rounds"] = PYTEST_SCALE["rounds"]
    benchmark.extra_info["store_loads"] = outcome["store_loads"]
    benchmark.extra_info["results_digest"] = _digest(outcome["answers"])


# -------------------------------------------------------------- standalone
def main() -> int:
    payload = run_scenario()
    path = write_bench_json("corpus", payload)
    by_name = {run["strategy"]: run for run in payload["strategies"]}
    print(f"wrote {path}")
    for name, run in by_name.items():
        rounds = ", ".join(f"{value:.2f}" for value in run["round_seconds"])
        speedup = run.get("speedup_vs_serial")
        extra = f" speedup_vs_serial={speedup:.2f}x" if speedup is not None else ""
        print(f"{name}: wall={run['wall_seconds']:.2f}s rounds=[{rounds}]{extra}")
    print(f"agreement: {payload['agreement']}")
    processes = by_name.get("processes")
    serial = by_name.get("serial")
    ok = (
        payload["agreement"]
        and processes is not None
        and serial is not None
        and processes["wall_seconds"] < serial["wall_seconds"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
