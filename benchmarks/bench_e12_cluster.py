"""E12 — cluster serving: scale-out throughput, overload tails, chaos.

The scenario is the one :mod:`repro.cluster` exists for: the E11 serving
workload (distinct author/title pair-extraction queries under the
``polynomial`` engine) arrives at one public port, and the question is what
a shared-nothing member fleet buys over a single serving process.  Four
measured legs:

* **saturation throughput** — the workload submitted through concurrent
  clients against a 1-member cluster (single-process serving behind the
  same coordinator machinery) and against an N-member cluster over the
  same corpus and shared plan cache.  The headline is the scale-out
  speedup at saturation.  The ≥2.5× gate for 4 members only applies where
  the hardware can express it — on hosts with fewer usable cores than
  members the speedup is recorded and the gate reported as skipped.
* **overload tail** — the same workload at 2× the saturation client count
  against the N-member cluster; per-submission wall latencies must keep
  p99 < 5× p50 (admission queueing, not collapse).
* **answer fidelity** — every streamed per-document answer set from the
  cluster runs is compared against the serial single-process
  :class:`repro.corpus.CorpusExecutor` baseline; byte-identical required.
* **member-kill chaos** — a 2-member cluster with
  ``REPRO_FAULTS="member_crash,match=member-1,times=1,epoch=0"``: the
  fault hard-kills member-1 (``os._exit``) at its first coordinated
  submission, and every accepted submission must still deliver the full
  result set (coordinator local fallback + client-side retry), after
  which the supervisor's respawn (incarnation 1, fault epoch 1) serves
  normally.  Zero lost accepted queries, measured, not asserted from afar.

Run standalone to produce ``BENCH_cluster.json`` in the repository root::

    PYTHONPATH=src python benchmarks/bench_e12_cluster.py

Set ``REPRO_BENCH_SCALE=smoke`` for the reduced CI scale (fewer queries and
clients, same shapes, same fidelity and chaos gates).
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import tempfile
import time

from repro.cluster import ClusterSupervisor, submit_retry
from repro.corpus import CorpusExecutor, DocumentStore
from repro.session import ServingPolicy
from repro.workloads import generate_corpus, write_corpus

from bench_e11_serving import pair_workload
from bench_utils import write_bench_json

SMOKE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke"

SEED = 12
ENGINE = "polynomial"

if SMOKE:
    NUM_DOCUMENTS = 4
    BASE_BOOKS = 4
    SIZE_SKEW = 0.2
    NUM_QUERIES = 12
    SATURATION_CLIENTS = 6
    CLUSTER_MEMBERS = 4
    CHAOS_ROUNDS = 6
else:
    NUM_DOCUMENTS = 8
    BASE_BOOKS = 6
    SIZE_SKEW = 0.3
    NUM_QUERIES = 48
    SATURATION_CLIENTS = 16
    CLUSTER_MEMBERS = 4
    CHAOS_ROUNDS = 10

#: Scale-out gate: 4 members must beat single-process by this factor at
#: saturation — on hardware with at least that many usable cores.
MIN_SPEEDUP = 2.5

#: Overload gate: p99 submission latency stays under this multiple of p50.
MAX_P99_OVER_P50 = 5.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _digest(results: dict) -> str:
    blob = repr(sorted(results.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def quantile(values: list, q: float):
    """Nearest-rank quantile of raw samples (None if empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, int(q * len(ordered) + 0.999999))
    return ordered[min(rank, len(ordered)) - 1]


def serial_baseline(corpus_dir: str, queries) -> dict:
    """Reference answers: the plain serial executor, sorted-list form."""
    store = DocumentStore.from_directory(corpus_dir)
    with CorpusExecutor(store, strategy="serial", engine=ENGINE) as executor:
        return {
            (result.doc_name, result.query): sorted(
                list(answer) for answer in result.answers
            )
            for result in executor.run(queries)
        }


# ----------------------------------------------------------------- load legs
async def _drive(port: int, queries, clients: int) -> dict:
    """Submit every query once, at most ``clients`` concurrently.

    One submission per query (the E11 throughput shape); each scatters
    across the whole corpus.  Returns wall seconds, per-submission
    latencies, the merged result map and the client-side retry count.
    """
    gate = asyncio.Semaphore(clients)
    results: dict = {}
    latencies: list = []
    retries = 0

    async def one_client(text, variables):
        nonlocal retries
        async with gate:
            started = time.perf_counter()
            reply = await submit_retry(
                "127.0.0.1",
                port,
                {
                    "query": text,
                    "vars": list(variables),
                    "engine": ENGINE,
                    "ordered": False,
                },
                attempts=8,
            )
            latencies.append(time.perf_counter() - started)
            retries += reply["retries"]
            for key, line in reply["results"].items():
                results[(key[0], key[1])] = line["answers"]

    started = time.perf_counter()
    await asyncio.gather(*(one_client(text, vs) for text, vs in queries))
    wall = time.perf_counter() - started
    return {
        "wall_seconds": wall,
        "latencies": latencies,
        "results": results,
        "retries": retries,
    }


def run_cluster_leg(
    corpus_dir: str,
    plan_cache_dir: str,
    queries,
    *,
    members: int,
    clients: int,
) -> dict:
    """One cluster at ``members`` size, driven at ``clients`` concurrency."""
    with ClusterSupervisor(
        corpus_dir,
        members=members,
        control_interval=0.25,
        serving=ServingPolicy(max_queue=4096),
        plan_cache_dir=plan_cache_dir,
        strategy="serial",
    ) as supervisor:
        # Warmup round: every member compiles/loads its plans before the
        # measured pass, so the legs compare serving, not cold compilation.
        asyncio.run(_drive(supervisor.port, queries[: max(1, len(queries) // 4)], clients))
        outcome = asyncio.run(_drive(supervisor.port, queries, clients))
        status = supervisor.status()
    latencies = outcome.pop("latencies")
    outcome.update(
        {
            "members": members,
            "clients": clients,
            "submissions": len(queries),
            "result_lines": len(outcome["results"]),
            "results_per_second": (
                len(outcome["results"]) / outcome["wall_seconds"]
                if outcome["wall_seconds"] > 0
                else None
            ),
            "latency_p50": quantile(latencies, 0.50),
            "latency_p99": quantile(latencies, 0.99),
            "placement_version": status["placement"]["version"],
            "autotune_recent": status["autotune"]["recent"],
            "members_unreachable_total": status["members_unreachable_total"],
        }
    )
    return outcome


def run_chaos_leg(corpus_dir: str, plan_cache_dir: str, queries) -> dict:
    """Kill member-1 mid-run via REPRO_FAULTS; count every accepted query.

    The fault schedule targets the first incarnation only (``epoch=0``), so
    the supervisor's respawn survives and finishes the run.
    """
    previous = os.environ.get("REPRO_FAULTS")
    os.environ["REPRO_FAULTS"] = "member_crash,match=member-1,times=1,epoch=0"
    try:
        with ClusterSupervisor(
            corpus_dir,
            members=2,
            control_interval=0.2,
            serving=ServingPolicy(max_queue=4096),
            plan_cache_dir=plan_cache_dir,
            strategy="serial",
        ) as supervisor:
            expected = None
            rounds = []
            total_retries = 0
            for round_index in range(CHAOS_ROUNDS):
                text, variables = queries[round_index % len(queries)]
                reply = asyncio.run(
                    submit_retry(
                        "127.0.0.1",
                        supervisor.port,
                        {
                            "query": text,
                            "vars": list(variables),
                            "engine": ENGINE,
                            "ordered": False,
                        },
                        attempts=8,
                    )
                )
                delivered = {key[0] for key in reply["results"]}
                if expected is None:
                    expected = delivered
                rounds.append(
                    {
                        "round": round_index,
                        "documents": len(delivered),
                        "complete": delivered == expected,
                        "retries": reply["retries"],
                    }
                )
                total_retries += reply["retries"]
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                status = supervisor.status()
                member = status["members"]["member-1"]
                if member["alive"] and member["incarnation"] >= 1:
                    break
                time.sleep(0.2)
            else:  # pragma: no cover - would fail the gate below
                status = supervisor.status()
    finally:
        if previous is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = previous
    member = status["members"]["member-1"]
    return {
        "rounds": rounds,
        "zero_lost": all(entry["complete"] for entry in rounds),
        "client_retries": total_retries,
        "member1_respawned": bool(member["alive"]) and member["incarnation"] >= 1,
        "member1_incarnation": member["incarnation"],
        "member1_restarts": member["restarts"],
    }


# ----------------------------------------------------------------- scenario
def run_scenario() -> dict:
    cores = usable_cores()
    queries = pair_workload(NUM_QUERIES)
    with tempfile.TemporaryDirectory() as corpus_dir, tempfile.TemporaryDirectory() as cache_dir:
        corpus = generate_corpus(
            NUM_DOCUMENTS, base=BASE_BOOKS, skew=SIZE_SKEW, seed=SEED, decoys_per_book=1
        )
        write_corpus(corpus_dir, corpus)
        baseline = serial_baseline(corpus_dir, queries)

        single = run_cluster_leg(
            corpus_dir, cache_dir, queries, members=1, clients=SATURATION_CLIENTS
        )
        fleet = run_cluster_leg(
            corpus_dir,
            cache_dir,
            queries,
            members=CLUSTER_MEMBERS,
            clients=SATURATION_CLIENTS,
        )
        overload = run_cluster_leg(
            corpus_dir,
            cache_dir,
            queries,
            members=CLUSTER_MEMBERS,
            clients=SATURATION_CLIENTS * 2,
        )
        chaos = run_chaos_leg(corpus_dir, cache_dir, queries)

    agreement = {
        "single": single.pop("results") == baseline,
        "fleet": fleet.pop("results") == baseline,
        "overload": overload.pop("results") == baseline,
    }
    speedup = (
        single["wall_seconds"] / fleet["wall_seconds"]
        if fleet["wall_seconds"] > 0
        else None
    )
    speedup_gate_applies = not SMOKE and cores >= CLUSTER_MEMBERS
    tail_ratio = (
        overload["latency_p99"] / overload["latency_p50"]
        if overload["latency_p50"]
        else None
    )
    gates = {
        "answers_identical": all(agreement.values()),
        "overload_tail_ok": tail_ratio is not None and tail_ratio < MAX_P99_OVER_P50,
        "chaos_zero_lost": chaos["zero_lost"] and chaos["member1_respawned"],
        "speedup_ok": (
            speedup is not None and speedup >= MIN_SPEEDUP
            if speedup_gate_applies
            else None  # recorded, not gated: smoke scale or too few cores
        ),
    }
    return {
        "experiment": "e12_cluster",
        "scale": "smoke" if SMOKE else "full",
        "scenario": {
            "num_documents": NUM_DOCUMENTS,
            "base_books": BASE_BOOKS,
            "size_skew": SIZE_SKEW,
            "num_queries": NUM_QUERIES,
            "engine": ENGINE,
            "saturation_clients": SATURATION_CLIENTS,
            "cluster_members": CLUSTER_MEMBERS,
            "usable_cores": cores,
            "chaos_rounds": CHAOS_ROUNDS,
        },
        "single": single,
        "fleet": fleet,
        "overload": overload,
        "scaleout_speedup": speedup,
        "speedup_gate_applies": speedup_gate_applies,
        "overload_p99_over_p50": tail_ratio,
        "agreement": agreement,
        "results_digest": _digest(baseline),
        "chaos": chaos,
        "gates": gates,
    }


def main() -> int:
    payload = run_scenario()
    path = write_bench_json("cluster", payload)
    print(f"wrote {path}")
    print(
        "saturation: single=%.2fs fleet(%d members)=%.2fs speedup=%.2fx "
        "(gate %s on %d cores)"
        % (
            payload["single"]["wall_seconds"],
            payload["scenario"]["cluster_members"],
            payload["fleet"]["wall_seconds"],
            payload["scaleout_speedup"],
            "applies" if payload["speedup_gate_applies"] else "skipped",
            payload["scenario"]["usable_cores"],
        )
    )
    print(
        "overload (%d clients): p50=%.1fms p99=%.1fms ratio=%.2f (< %.1f required)"
        % (
            payload["overload"]["clients"],
            payload["overload"]["latency_p50"] * 1e3,
            payload["overload"]["latency_p99"] * 1e3,
            payload["overload_p99_over_p50"],
            MAX_P99_OVER_P50,
        )
    )
    print(
        "fidelity: answers identical to serial single-process baseline: %s"
        % payload["gates"]["answers_identical"]
    )
    chaos = payload["chaos"]
    print(
        "chaos: %d rounds through a member kill, zero lost=%s, "
        "client retries=%d, member-1 respawned as incarnation %d"
        % (
            len(chaos["rounds"]),
            chaos["zero_lost"],
            chaos["client_retries"],
            chaos["member1_incarnation"],
        )
    )
    ok = all(value is not False for value in payload["gates"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
