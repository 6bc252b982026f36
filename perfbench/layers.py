"""Layer tracing from outside the program: timed wrappers around public calls.

A traced run installs :class:`Tracer` wrappers on the public functions at
each layer boundary (plan, document, caches, oracle, Fig. 8) and times every
call.  Spans nest per thread, so each layer's *self* time is its calls'
duration minus the time of wrapped calls made inside them, and the self
times of all layers plus the unattributed remainder add up to the wall time
of the operations the workload timed with :meth:`Tracer.op`.

Nothing under ``src/`` changes: :meth:`Tracer.enable` replaces attributes of
the imported modules and classes and :meth:`Tracer.disable` puts them back,
so a traced run can alternate traced and untraced blocks of operations and
measure the tracing overhead.  The traced serve-open server does the same
in its own process (see ``traced_server.py``).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("protocol", "admission", "plan", "document", "caches", "oracle", "fig8", "executor")


class Tracer:
    """Per-name call totals and per-layer self time, thread-safe."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.self_seconds: dict[str, float] = defaultdict(float)
            self.counts: dict[str, float] = defaultdict(float)
            self.op_seconds = 0.0
            self.ops = 0

    # ----------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, layer: str, frame: list, started: float) -> float:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            self.seconds[name] += elapsed
            self.calls[name] += 1
            self.self_seconds[layer] += elapsed - frame[0]
        return elapsed

    @contextmanager
    def span(self, name: str, layer: str):
        """Time a block as a span of ``layer`` (nested spans are subtracted)."""
        frame = [0.0]
        self._stack().append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, layer, frame, started)

    @contextmanager
    def op(self):
        """Time one operation; its self time is the unattributed remainder."""
        frame = [0.0]
        self._stack().append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = self._close("op", "unattributed", frame, started)
            with self._lock:
                self.op_seconds += elapsed
                self.ops += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # --------------------------------------------------------------- patches
    def patch(self, owner, attribute: str, make) -> None:
        """Register ``make(original)`` as the traced ``owner.attribute``."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original, make(original)))

    def wrap(self, owner, attribute: str, name: str, layer: str) -> None:
        """Register a timed span of ``layer`` around ``owner.attribute``."""

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name, layer):
                    return original(*args, **kwargs)

            return traced

        self.patch(owner, attribute, make)

    def enable(self) -> None:
        """Install every registered wrapper (tracing on)."""
        for owner, attribute, _, replacement in self._patches:
            setattr(owner, attribute, replacement)
        self.enabled = True

    def disable(self) -> None:
        """Restore the original attributes (tracing off)."""
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)
        self.enabled = False

    # ---------------------------------------------------------------- report
    def totals(self) -> dict[str, dict]:
        """Copies of the per-name and per-layer totals (JSON-ready)."""
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "self_seconds": dict(self.self_seconds),
                "counts": dict(self.counts),
            }

    def shares(self) -> dict[str, float]:
        """Self-time share of timed op wall time, per layer and unattributed."""
        with self._lock:
            wall = self.op_seconds
            shares = {
                f"trace.share.{layer}": (self.self_seconds.get(layer, 0.0) / wall if wall else 0.0)
                for layer in LAYERS
            }
        shares["trace.unattributed_share"] = 1.0 - sum(shares.values())
        return shares


def register_program_layers(tracer: Tracer) -> None:
    """Register wrappers at the plan, document, caches, oracle and Fig. 8
    boundaries; :meth:`Tracer.enable` installs them."""
    from repro.api import document as api_document
    from repro.api import query as api_query
    from repro.corpus import store as corpus_store
    from repro.corpus.cache import AnswerCache
    from repro.hcl import answering
    from repro.hcl.binding import PPLbinOracle
    from repro.hcl.mc import MCTable
    from repro.pplbin import evaluator
    from repro.session.session import Session
    from repro.trees.tree import Tree

    tracer.wrap(Session, "compile", "plan.compile", "plan")
    tracer.wrap(api_query, "compile_query", "plan.compiles", "plan")
    tracer.wrap(api_query, "parse_path", "plan.parse", "plan")
    tracer.wrap(api_query, "ppl_violations", "plan.check", "plan")
    tracer.wrap(api_query, "ppl_to_hcl", "plan.translate", "plan")
    tracer.wrap(api_query, "from_core_xpath", "plan.translate_bin", "plan")
    tracer.wrap(answering, "normalize", "plan.normalise", "plan")

    tracer.wrap(corpus_store, "tree_from_xml", "document.parse", "document")
    tracer.wrap(corpus_store, "tree_from_xml_file", "document.parse", "document")
    tracer.wrap(Tree, "__init__", "document.index", "document")

    tracer.wrap(AnswerCache, "get", "cache.answer_get", "caches")
    tracer.wrap(AnswerCache, "put", "cache.answer_put", "caches")

    tracer.wrap(PPLbinOracle, "successors", "oracle.rows", "oracle")
    tracer.wrap(PPLbinOracle, "has_successor", "oracle.rows", "oracle")
    tracer.wrap(evaluator, "evaluate_relation", "oracle.relation_build", "oracle")

    # Fig. 8: MC tables created during one answer are counted when it
    # returns, then released (holding them would pin every memo table).
    local = threading.local()

    def make_mc_init(original):
        def mc_init(table, *args, **kwargs):
            original(table, *args, **kwargs)
            tables = getattr(local, "tables", None)
            if tables is not None:
                tables.append(table)

        return mc_init

    def make_fig8_answer(original):
        def fig8_answer(answerer, formula, variables):
            local.tables = []
            try:
                with tracer.span("fig8.answer", "fig8"):
                    result = original(answerer, formula, variables)
                entries = sum(table.entries_computed() for table in local.tables)
            finally:
                local.tables = None
            tracer.count("fig8.mc_entries", entries)
            tracer.count("fig8.answer_tuples", len(result))
            return result

        return fig8_answer

    tracer.patch(MCTable, "__init__", make_mc_init)
    tracer.patch(answering.HclAnswerer, "answer", make_fig8_answer)

    # Per-answer counter deltas at the Document.answer boundary, from the
    # document's own cost meter: kernel ops and the tree's matrix-cache
    # traffic.
    def make_counted_answer(original):
        def counted_answer(document, *args, **kwargs):
            meter = document.cost_meter()
            try:
                return original(document, *args, **kwargs)
            finally:
                cost = meter.finish(0.0)
                for key, name in (
                    ("compose_ops", "oracle.compose_ops"),
                    ("row_union_ops", "oracle.row_union_ops"),
                    ("relations_built", "oracle.relations_built"),
                    ("matrix_cache_hits", "cache.matrix_hits"),
                    ("matrix_cache_misses", "cache.matrix_misses"),
                ):
                    tracer.count(name, cost[key])

        return counted_answer

    tracer.patch(api_document.Document, "answer", make_counted_answer)


def layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics from :meth:`Tracer.totals` of the wrapped calls."""
    s, c, n = totals["seconds"], totals["calls"], totals["counts"]
    compile_calls = c.get("plan.compile", 0)
    matrix_lookups = n.get("cache.matrix_hits", 0) + n.get("cache.matrix_misses", 0)
    tuples = n.get("fig8.answer_tuples", 0)
    return {
        "plan.compile_s": s.get("plan.compile", 0.0),
        "plan.parse_s": s.get("plan.parse", 0.0),
        "plan.check_s": s.get("plan.check", 0.0),
        "plan.translate_s": s.get("plan.translate", 0.0) + s.get("plan.translate_bin", 0.0),
        "plan.normalise_s": s.get("plan.normalise", 0.0),
        "plan.compiles": c.get("plan.compiles", 0),
        "plan.memo_hit_ratio": (
            1.0 - c.get("plan.compiles", 0) / compile_calls if compile_calls else 0.0
        ),
        "document.parse_s": s.get("document.parse", 0.0) - s.get("document.index", 0.0),
        "document.index_s": s.get("document.index", 0.0),
        "document.loads": c.get("document.parse", 0),
        "cache.matrix_hit_ratio": (
            n.get("cache.matrix_hits", 0) / matrix_lookups if matrix_lookups else 0.0
        ),
        "oracle.rows_s": s.get("oracle.rows", 0.0),
        "oracle.row_probes": c.get("oracle.rows", 0),
        "oracle.relation_build_s": s.get("oracle.relation_build", 0.0),
        "oracle.relations_built": n.get("oracle.relations_built", 0),
        "oracle.compose_ops": n.get("oracle.compose_ops", 0),
        "oracle.row_union_ops": n.get("oracle.row_union_ops", 0),
        # HclAnswerer.answer minus the oracle and normalise calls inside it.
        "fig8.self_s": totals["self_seconds"].get("fig8", 0.0),
        "fig8.mc_entries": n.get("fig8.mc_entries", 0),
        "fig8.answer_tuples": tuples,
        "fig8.mc_entries_per_tuple": n.get("fig8.mc_entries", 0) / tuples if tuples else 0.0,
    }
