"""The three closed-loop workloads: one client, next op after the last returns.

* ``nary-answer`` — ``Session.query`` on two documents with fresh query
  texts, so every op runs the Fig. 7 / Theorem 2 / Fig. 8 pipeline.
* ``corpus-churn`` — reads and document replacements over 64 documents
  under a resident bound of 16, so loads and answer-cache reuse dominate.
* ``corpus-scan`` — ``Session.query_corpus`` passes over 64 documents with
  the processes strategy and two workers.

Each returns a :class:`measure.Outcome`.  In a traced run the op loop
alternates traced and untraced blocks of ops, so the tracing overhead is
measured on interleaved work, and per-layer figures come from the traced
blocks only.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import statistics
import time

import docs
from layers import Tracer, layer_metrics, register_program_layers
from measure import PROBE_REFERENCE_S, Outcome, SpeedProbe, peak_rss_mib


def _tag(seed: int, index: int) -> str:
    """A label that occurs in no generated document."""
    return f"u{seed}x{index}"


def _timed_setups(count: int, build, probe: SpeedProbe) -> tuple[list[float], object]:
    """Run ``build()`` ``count`` times; keep the last result, close the rest.

    Returns the set-up times rescaled to the reference host speed.
    """
    timed, kept = [], None
    for _ in range(count):
        if kept is not None:
            kept.close()
        gc.collect()
        for _ in range(3):
            probe.sample()
        started = time.perf_counter()
        kept = build()
        timed.append((started, time.perf_counter() - started))
    for _ in range(3):
        probe.sample()
    return probe.normalise(timed), kept


class Loop:
    """The measured closed loop, with interleaved traced blocks."""

    def __init__(self, seconds: float, tracer: Tracer | None, block: int, probe: SpeedProbe) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.block = block
        self.probe = probe
        self.traced_wall = 0.0
        self.untraced_wall = 0.0
        self.traced_ops = 0
        self.untraced_ops = 0

    def run(self, step) -> None:
        """Call ``step(index, tracer_or_None)`` until the time is up."""
        gc.collect()
        started = time.perf_counter()
        index = 0
        while time.perf_counter() - started < self.seconds:
            traced = self.tracer is not None and (index // self.block) % 2 == 1
            if self.tracer is not None and traced != self.tracer.enabled:
                (self.tracer.enable if traced else self.tracer.disable)()
            self.probe.maybe_sample()
            op_started = time.perf_counter()
            step(index, self.tracer if traced else None)
            wall = time.perf_counter() - op_started
            if traced:
                self.traced_wall += wall
                self.traced_ops += 1
            else:
                self.untraced_wall += wall
                self.untraced_ops += 1
            index += 1
        if self.tracer is not None:
            self.tracer.disable()
        self.probe.sample()

    def overhead(self) -> float:
        """Traced over untraced mean op time, minus one."""
        if not self.traced_ops or not self.untraced_ops:
            return 0.0
        traced = self.traced_wall / self.traced_ops
        untraced = self.untraced_wall / self.untraced_ops
        return traced / untraced - 1.0


def _timed(timed: list, tracer: Tracer | None, call):
    """Time ``call()`` as one op (inside a trace op span when traced).

    Appends ``(start, seconds)``; :func:`_finish` rescales them.
    """
    started = time.perf_counter()
    if tracer is None:
        result = call()
    else:
        with tracer.op():
            result = call()
    timed.append((started, time.perf_counter() - started))
    return result


def _finish(outcome: Outcome, probe: SpeedProbe, reads: list, writes: list = ()) -> None:
    """Rescale op times to the reference speed; throughput over op time."""
    outcome.read_seconds = probe.normalise(reads)
    outcome.write_seconds = probe.normalise(list(writes))
    outcome.completed = len(reads) + len(writes)
    outcome.measured_seconds = sum(outcome.read_seconds) + sum(outcome.write_seconds)
    outcome.host_speed = PROBE_REFERENCE_S / statistics.median(took for _, took in probe.samples)


def _traced_layers(tracer: Tracer, loop: Loop) -> dict:
    layers = layer_metrics(tracer.totals())
    layers.update(tracer.shares())
    layers["trace.overhead"] = loop.overhead()
    return layers


# -------------------------------------------------------------- nary-answer
def nary_answer(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.session import Session

    rng = random.Random(seed)
    texts = {"bib": docs.bibliography_xml(320, rng), "rest": docs.restaurants_xml(60, rng)}
    walks = {name: docs.Walk(text) for name, text in texts.items()}
    shapes = [("bib", docs.PAIR), ("bib", docs.TRIPLE), ("bib", docs.SIBLING)]
    shapes += [("rest", docs.restaurant_shape(width)) for width in range(6, 11)]
    expected = {(name, shape): docs.reference(walks[name], shape) for name, shape in shapes}
    outcome = Outcome()

    def build():
        session = Session()
        for name, text in texts.items():
            session.add_xml(name, text)
        text, variables = docs.PAIR
        answers = session.query("bib", text.format(tag=_tag(seed, -1)), variables)
        outcome.check(answers, expected[("bib", docs.PAIR)])
        return session

    probe = SpeedProbe()
    outcome.setup_seconds, session = _timed_setups(9, build, probe)
    # One cycle of every op shape (row caches fill, lazy imports finish);
    # the loop then runs 4-op cycles: pair, ternary, sibling, restaurant(w).
    for index, (name, shape) in enumerate(shapes):
        session.query(name, shape[0].format(tag=_tag(seed, -2 - index)), shape[1])

    def op_at(index: int):
        kind = index % 4
        if kind < 3:
            return shapes[kind]
        return shapes[3 + (index // 4) % 5]

    tracer = None
    if traced:
        tracer = Tracer()
        register_program_layers(tracer)
    loop = Loop(seconds, tracer, 20, probe)
    reads: list = []

    def step(index: int, active: Tracer | None) -> None:
        name, (text, variables) = op_at(index)
        query = text.format(tag=_tag(seed, index))
        answers = _timed(reads, active, lambda: session.query(name, query, variables))
        outcome.attempted += 1
        outcome.check(answers, expected[(name, (text, variables))])

    loop.run(step)
    _finish(outcome, probe, reads)
    outcome.peak_rss_mb = peak_rss_mib()
    session.close()
    if tracer is not None:
        outcome.layers = _traced_layers(tracer, loop)
    return outcome


# ------------------------------------------------------------- corpus-churn
CHURN_DOCUMENTS = 64
CHURN_RESIDENT = 16
CHURN_SHAPES = (docs.PAIR, docs.TRIPLE, docs.SIBLING, docs.PRECEDING)
CHURN_ORDER_SEED = 20071


def corpus_churn(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.session import Session

    rng = random.Random(seed)
    # The op order (which document, read or write, which shape) is the same
    # for every seed, so the hit/load/evaluate mix is too; the seed varies
    # the documents' contents and their replacements.
    order = random.Random(CHURN_ORDER_SEED)
    books = docs.zipf_books(CHURN_DOCUMENTS)
    names = [f"doc{i:02d}" for i in range(CHURN_DOCUMENTS)]
    texts = {name: docs.bibliography_xml(count, rng) for name, count in zip(names, books)}
    # Popularity is Zipf over the size order: the large documents are hot.
    weights = [1.0 / (rank + 1) for rank in range(CHURN_DOCUMENTS)]
    queries = [(shape[0].format(tag="u0"), shape[1]) for shape in CHURN_SHAPES]
    references: dict = {}
    outcome = Outcome()

    def expected(name: str, shape_index: int) -> frozenset:
        key = (name, shape_index)
        if key not in references:
            references[key] = docs.reference(docs.Walk(texts[name]), CHURN_SHAPES[shape_index])
        return references[key]

    def build():
        session = Session(max_resident=CHURN_RESIDENT)
        for name in names:
            session.add_xml(name, texts[name])
        text, variables = queries[0]
        outcome.check(session.query(names[0], text, variables), expected(names[0], 0))
        return session

    probe = SpeedProbe()
    outcome.setup_seconds, session = _timed_setups(9, build, probe)
    store = session.store
    answer_cache = store.answer_cache
    for index in range(len(queries)):
        text, variables = queries[index]
        session.query(names[0], text, variables)

    tracer = None
    # Store and answer-cache traffic of the traced reads.
    counts = {"loads": 0, "evictions": 0, "wasted_loads": 0, "hits": 0, "misses": 0}
    if traced:
        tracer = Tracer()
        register_program_layers(tracer)
    loop = Loop(seconds, tracer, 50, probe)
    reads: list = []
    writes: list = []

    def step(index: int, active: Tracer | None) -> None:
        name = order.choices(names, weights)[0]
        outcome.attempted += 1
        if index % 5 == 4:
            text = docs.bibliography_xml(books[names.index(name)], rng)

            def replace() -> None:
                store.discard(name)
                session.add_xml(name, text)

            _timed(writes, active, replace)
            texts[name] = text
            for shape_index in range(len(queries)):
                references.pop((name, shape_index), None)
            return
        shape_index = order.randrange(len(queries))
        text, variables = queries[shape_index]
        if active is not None:
            store_before, cache_before = store.stats, answer_cache.stats
        answers = _timed(reads, active, lambda: session.query(name, text, variables))
        if active is not None:
            store_after, cache_after = store.stats, answer_cache.stats
            loaded = store_after.loads - store_before.loads
            hit = cache_after.hits - cache_before.hits
            counts["loads"] += loaded
            counts["evictions"] += store_after.evictions - store_before.evictions
            counts["hits"] += hit
            counts["misses"] += cache_after.misses - cache_before.misses
            if loaded and hit:
                counts["wasted_loads"] += 1
        outcome.check(answers, expected(name, shape_index))

    loop.run(step)
    _finish(outcome, probe, reads, writes)
    outcome.peak_rss_mb = peak_rss_mib()
    if tracer is not None:
        layers = _traced_layers(tracer, loop)
        lookups = counts["hits"] + counts["misses"]
        layers.update(
            {
                "document.loads": counts["loads"],
                "document.evictions": counts["evictions"],
                "document.wasted_load_ratio": (
                    counts["wasted_loads"] / counts["loads"] if counts["loads"] else 0.0
                ),
                "cache.answer_hit_ratio": counts["hits"] / lookups if lookups else 0.0,
                "cache.matrix_bytes": store.matrix_cache_stats().current_bytes,
            }
        )
        outcome.layers = layers
    session.close()
    return outcome


# -------------------------------------------------------------- corpus-scan
SCAN_DOCUMENTS = 64
SCAN_WORKERS = 2


def corpus_scan(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.session import Session

    rng = random.Random(seed)
    books = docs.zipf_books(SCAN_DOCUMENTS, largest=12)
    names = [f"doc{i:02d}" for i in range(SCAN_DOCUMENTS)]
    texts = {name: docs.bibliography_xml(count, rng) for name, count in zip(names, books)}
    shapes = (docs.PAIR, docs.SIBLING)
    walks = {name: docs.Walk(text) for name, text in texts.items()}
    expected = {
        (name, index): docs.reference(walks[name], shape)
        for name in names
        for index, shape in enumerate(shapes)
    }
    outcome = Outcome()

    def batch(index: int) -> list:
        return [(text.format(tag=_tag(seed, index)), variables) for text, variables in shapes]

    def check_pass(queries: list, results: list) -> None:
        positions = {text: index for index, (text, _) in enumerate(queries)}
        seen = set()
        for result in results:
            index = positions.get(result.query)
            seen.add((result.doc_name, index))
            if index is None or not result.ok:
                outcome.failed += 1
                continue
            outcome.check(result.answers, expected[(result.doc_name, index)])
        missing = len(names) * len(shapes) - len(seen)
        outcome.failed += missing

    def build():
        session = Session(strategy="processes", max_workers=SCAN_WORKERS)
        for name in names:
            session.add_xml(name, texts[name])
        queries = batch(-1)
        check_pass(queries, list(session.query_corpus(queries)))
        return session

    probe = SpeedProbe()
    outcome.setup_seconds, session = _timed_setups(5, build, probe)

    tracer = None
    executor = {"eval_s": 0.0, "wall_s": 0.0, "overhead_s": []}
    cost_totals: dict = {}
    if traced:
        tracer = Tracer()
        register_program_layers(tracer)
    loop = Loop(seconds, tracer, 5, probe)
    reads: list = []

    def one_pass(queries: list, active: Tracer | None) -> list:
        if active is None:
            return list(session.query_corpus(queries))
        with active.span("executor.pass", "executor"):
            return list(session.query_corpus(queries))

    def step(index: int, active: Tracer | None) -> None:
        queries = batch(index)
        outcome.attempted += 1
        failed_before = outcome.failed
        results = _timed(reads, active, lambda: one_pass(queries, active))
        check_pass(queries, results)
        if outcome.failed > failed_before:
            outcome.failed = failed_before + 1  # one failed pass is one failed op
        if active is not None:
            wall = reads[-1][1]
            evaluated = sum(result.seconds for result in results)
            executor["eval_s"] += evaluated
            executor["wall_s"] += wall
            executor["overhead_s"].append(wall - evaluated / SCAN_WORKERS)
            for result in results:
                for key, value in (result.report.cost or {}).items():
                    if isinstance(value, (int, float)):
                        cost_totals[key] = cost_totals.get(key, 0) + value

    loop.run(step)
    _finish(outcome, probe, reads)
    outcome.peak_rss_mb = peak_rss_mib() + sum(
        peak_rss_mib(child.pid) for child in multiprocessing.active_children()
    )
    session.close()
    if tracer is not None:
        layers = _traced_layers(tracer, loop)
        hits = cost_totals.get("matrix_cache_hits", 0)
        lookups = hits + cost_totals.get("matrix_cache_misses", 0)
        answer_hits = cost_totals.get("answer_cache_hits", 0)
        answer_lookups = answer_hits + cost_totals.get("answer_cache_misses", 0)
        layers.update(
            {
                "executor.eval_s": executor["eval_s"],
                "executor.busy_share": (
                    executor["eval_s"] / (executor["wall_s"] * SCAN_WORKERS)
                    if executor["wall_s"]
                    else 0.0
                ),
                "executor.dispatch_overhead_s": (
                    statistics.median(executor["overhead_s"]) if executor["overhead_s"] else 0.0
                ),
                "oracle.compose_ops": cost_totals.get("compose_ops", 0),
                "oracle.row_union_ops": cost_totals.get("row_union_ops", 0),
                "oracle.relations_built": cost_totals.get("relations_built", 0),
                "cache.matrix_hit_ratio": hits / lookups if lookups else 0.0,
                "cache.answer_hit_ratio": answer_hits / answer_lookups if answer_lookups else 0.0,
                "cache.matrix_bytes": cost_totals.get("matrix_bytes", 0),
            }
        )
        outcome.layers = layers
    return outcome
