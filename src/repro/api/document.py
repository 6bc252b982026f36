"""The per-document facade: one object owning all per-document state.

A :class:`Document` wraps a :class:`repro.trees.tree.Tree` together with the
shared :class:`repro.hcl.binding.PPLbinOracle` (whose matrices are cached on
the tree), the Fig. 8 answerer and a bounded compiled-query memo.  It replaces
the seed's scattered entry points (``answer()``, ``PPLEngine``,
``CompiledQuery._engines``): every engine answers through the same document,
so per-axis and per-leaf work is paid once per tree, not once per engine
instance.

Batch execution: :meth:`Document.answer_many` answers many queries against
one document, reusing the shared oracle.  One query over many documents is
:meth:`repro.session.Session.query_corpus`.

:func:`as_document` adopts a bare tree into a document through a
``weakref.WeakValueDictionary`` registry: repeated calls with the same live
tree return the same document, dead trees do not pin documents in memory, and
a recycled ``id()`` can never alias a different tree (the registry re-checks
identity).  This is the fix for the seed's ``CompiledQuery._engines`` dict,
which was keyed by ``id(tree)`` and grew without bound.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro.trees.tree import Node, Tree
from repro.trees.xml_io import tree_from_xml, tree_from_xml_file
from repro.xpath.ast import PathExpr
from repro.xpath.parser import parse_path
from repro.hcl.answering import HclAnswerer
from repro.hcl.binding import PPLbinOracle
from repro.core.ppl import Violation, ppl_violations
from repro.core.engine import QueryReport
from repro.obs import trace as _trace
from repro.pplbin import bitmatrix as _bitmatrix
from repro.api.query import PlanMemo, Query, _build_query
from repro.api.registry import DEFAULT_ENGINE, check_capabilities, get_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.cache import AnswerCache

#: Sentinel distinguishing "keep the tree's budget" from an explicit None
#: (= unbounded) for ``Document(matrix_cache_bytes=...)`` — the one shared
#: instance from :mod:`repro._config`.
from repro._config import UNSET as _UNSET

#: Anything `Document.answer`/`answer_many` accept as a query.
QueryLike = Union[Query, PathExpr, str]
#: One batch item: a bare expression (arity taken from the query) or an
#: ``(expression, variables)`` pair.
BatchItem = Union[QueryLike, tuple[Union[PathExpr, str], Sequence[str]]]


def iter_batch(queries: Union[BatchItem, Iterable[BatchItem]]) -> list[BatchItem]:
    """Normalise every accepted query-batch shape into a list of items.

    A bare expression/``Query``, a single ``(expression, variables)`` pair
    and an iterable of items are all accepted; the two-element tuple whose
    second element is a sequence of strings is the single-pair case (not a
    batch of two bare expressions).  Shared by every batch entry point —
    :meth:`Document.answer_many`, the corpus executor and the server — so
    they cannot drift on the accepted shapes.
    """
    if isinstance(queries, (str, Query)) or not isinstance(queries, Iterable):
        return [queries]
    if (
        isinstance(queries, tuple)
        and len(queries) == 2
        and isinstance(queries[1], (list, tuple))
        and all(isinstance(variable, str) for variable in queries[1])
    ):
        return [queries]
    return list(queries)


class Document:
    """A queryable document: a tree plus all shared per-document state.

    Parameters
    ----------
    tree:
        The document, as an indexed :class:`Tree` or a :class:`Node` builder
        (which is indexed on the spot).
    cache_answers:
        Memoise complete answer sets per ``(query, engine)``.  Sound because
        documents are immutable and compiled queries compare by value.  Off
        by default for ad-hoc documents (answer sets can dwarf the tree);
        the corpus store and the executor's shard workers turn it on.
    answer_cache:
        An explicit :class:`repro.corpus.cache.AnswerCache` to memoise into
        (implies ``cache_answers``).  A :class:`repro.corpus.DocumentStore`
        passes its *shared*, byte-budgeted cache here so answers survive
        document eviction and the memo footprint is bounded corpus-wide;
        without it, ``cache_answers=True`` creates a private unbounded cache
        that lives and dies with the document.
    cache_owner:
        The key prefix identifying this document inside a shared
        ``answer_cache`` (the store passes a token tied to the registered
        source).  Defaults to the document instance itself.
    kernel:
        Relation kernel for the Theorem 2 matrix evaluator — a name
        (``dense``/``bitset``/``sparse``/``adaptive``), a
        :class:`repro.pplbin.bitmatrix.Kernel` instance, or ``None`` for
        the process default (the CLI's ``--kernel`` knob sets that
        default).
    matrix_cache_bytes:
        When given, rebudget the tree's matrix cache to this many bytes
        (``None`` = unbounded).  Left alone by default — the tree's own
        budget (constructor argument or ``REPRO_MATRIX_CACHE_BYTES``)
        stands.  The Session layer passes its resolved
        ``ExecutionPolicy.matrix_cache_bytes`` through here.
    snapshot_store / source_digest:
        The answer-spill hook: a :class:`repro.snapshot.SnapshotStore`
        plus the content digest of this document's source.  With both set
        (and answer caching on), a memory-cache miss consults the spilled
        ``(digest, plan, engine)``-addressed answer set before evaluating,
        and fresh evaluations spill back — warm starts skip the first
        evaluation, not just the parse.  Wired by
        :class:`repro.corpus.DocumentStore` when it has a ``snapshot_dir``.

    Attributes
    ----------
    tree:
        The underlying indexed tree.
    oracle:
        The shared PPLbin oracle (Theorem 2 matrices, cached on the tree).
    answerer:
        The shared Fig. 8 answerer used by the polynomial backend.
    """

    def __init__(
        self,
        tree: Tree | Node,
        *,
        cache_answers: bool = False,
        answer_cache: Optional["AnswerCache"] = None,
        cache_owner: Optional[object] = None,
        kernel=None,
        matrix_cache_bytes=_UNSET,
        snapshot_store=None,
        source_digest: Optional[str] = None,
    ) -> None:
        self.tree = tree if isinstance(tree, Tree) else Tree(tree)
        if matrix_cache_bytes is not _UNSET:
            self.tree.matrix_cache().set_budget(matrix_cache_bytes)
        self.oracle = PPLbinOracle(self.tree, kernel=kernel)
        self.answerer = HclAnswerer(self.tree, self.oracle)
        # Compiled queries keyed by (source AST, output variables), bounded
        # like every other plan memo so fresh texts cannot grow it forever.
        self._queries = PlanMemo()
        if answer_cache is None and cache_answers:
            from repro.corpus.cache import AnswerCache

            answer_cache = AnswerCache(max_bytes=None)
        self._answer_cache = answer_cache
        self._cache_owner = cache_owner if cache_owner is not None else self
        self._snapshot_store = snapshot_store if source_digest is not None else None
        self._source_digest = source_digest

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_xml(cls, text: str, *, cache_answers: bool = False) -> "Document":
        """Parse an XML string into a document."""
        return cls(tree_from_xml(text), cache_answers=cache_answers)

    @classmethod
    def from_file(cls, path: str, *, cache_answers: bool = False) -> "Document":
        """Load an XML file into a document."""
        return cls(tree_from_xml_file(path), cache_answers=cache_answers)

    # ----------------------------------------------------------------- basics
    @property
    def size(self) -> int:
        """Number of nodes in the document."""
        return self.tree.size

    @property
    def labels(self) -> list[str]:
        """Node labels, indexed by node identifier."""
        return self.tree.labels

    def __len__(self) -> int:
        return self.tree.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Document(size={self.tree.size}, root_label={self.tree.labels[0]!r})"

    # ------------------------------------------------------------- compilation
    def compile(
        self,
        expression: PathExpr | str,
        variables: Sequence[str] = (),
        *,
        require_ppl: bool = True,
    ) -> Query:
        """Compile an expression once, caching the result on the document.

        Equivalent to :func:`repro.api.compile_query` but the compiled query
        (violation list and translations included) is memoised here, so
        recompiling a recently used expression is free.  The memo keeps the
        :data:`repro.api.query.PLAN_MEMO_ENTRIES` most recently used plans.
        """
        parsed = parse_path(expression) if isinstance(expression, str) else expression
        key = (parsed, tuple(variables))
        query = self._queries.get(key)
        if query is None:
            text = expression if isinstance(expression, str) else None
            query = self._queries.setdefault(
                key, _build_query(parsed, tuple(variables), text=text)
            )
        if require_ppl:
            query.require_ppl()
        return query

    def check(self, expression: PathExpr | str) -> tuple[Violation, ...]:
        """Return the Definition 1 violations of ``expression`` (empty = PPL)."""
        return tuple(ppl_violations(expression))

    # --------------------------------------------------------------- answering
    def answer(
        self,
        query: QueryLike,
        variables: Optional[Sequence[str]] = None,
        *,
        engine: str = DEFAULT_ENGINE,
    ) -> frozenset[tuple[int, ...]]:
        """Answer an n-ary query with the named backend.

        Parameters
        ----------
        query:
            A compiled :class:`Query`, or an expression (text or AST) that is
            compiled on the fly with ``variables``.
        variables:
            Output variables when ``query`` is an expression; must be omitted
            when a compiled query is passed.
        engine:
            Registry key of the backend (default ``"polynomial"``).

        Raises
        ------
        UnknownEngineError
            If ``engine`` is not registered.
        EngineCapabilityError
            If the query exceeds the backend's capabilities (raised before
            any evaluation).
        RestrictionViolation
            If the backend requires PPL and the expression is not PPL.
        """
        backend = get_engine(engine)
        compiled = self._as_query(query, variables)
        check_capabilities(backend, compiled)
        with _trace.span("query.answer", engine=backend.name) as root:
            if _trace.enabled():
                root.set(query=compiled.unparse())
            answers = self.cached_answers(compiled, backend.name)
            if answers is None:
                with _trace.span("engine.answer", engine=backend.name):
                    answers = backend.answer(self, compiled)
                self.remember_answers(compiled, backend.name, answers)
            return answers

    def _answer_key(self, compiled: Query, engine: str) -> tuple:
        # Keyed by the backend's name (not the requested alias) so "ppl" and
        # "polynomial" share one entry.  The owner prefix scopes the entry to
        # this document's *source* inside a shared corpus-wide cache (see
        # repro.corpus.cache).  The canonical plan text, not the AST, names
        # the query: an entry then pins one string rather than a parsed
        # expression per fresh query text.
        return (self._cache_owner, compiled.plan_text, compiled.variables, engine)

    def cached_answers(
        self, compiled: Query, engine: str
    ) -> Optional[frozenset[tuple[int, ...]]]:
        """The memoised answers of ``compiled`` under backend ``engine``, or ``None``.

        Looks in the answer cache, then in the snapshot spill; a spill hit
        re-seeds the memory cache.  Always ``None`` without answer caching.
        Capability checks are the caller's: :meth:`answer` runs them first,
        so a miss and a hit raise identically.
        """
        if self._answer_cache is None:
            return None
        key = self._answer_key(compiled, engine)
        with _trace.span("answer_cache.lookup") as lookup:
            answers = self._answer_cache.get(key)
            lookup.set(hit=answers is not None)
        if answers is None and self._snapshot_store is not None:
            # Spill tier: answers addressed by (source digest, plan, engine)
            # survive process restarts; a disk hit re-seeds the memory memo.
            with _trace.span("snapshot.answers") as spill:
                answers = self._snapshot_store.load_answers(
                    self._source_digest, compiled.unparse(), compiled.variables, engine
                )
                spill.set(hit=answers is not None)
            if answers is not None:
                self._answer_cache.put(key, answers)
        return answers

    def remember_answers(
        self, compiled: Query, engine: str, answers: frozenset[tuple[int, ...]]
    ) -> None:
        """Memoise freshly evaluated answers (cache, then snapshot spill)."""
        if self._answer_cache is None:
            return
        self._answer_cache.put(self._answer_key(compiled, engine), answers)
        if self._snapshot_store is not None:
            self._snapshot_store.store_answers(
                self._source_digest, compiled.unparse(), compiled.variables, engine, answers
            )

    def nonempty(self, query: QueryLike, *, engine: str = DEFAULT_ENGINE) -> bool:
        """Decide non-emptiness of the query (Boolean query answering)."""
        backend = get_engine(engine)
        compiled = self._as_query(query, None if isinstance(query, Query) else ())
        check_capabilities(backend, compiled)
        nonempty = getattr(backend, "nonempty", None)
        if nonempty is not None:
            return bool(nonempty(self, compiled))
        return bool(backend.answer(self, compiled))

    def pairs(
        self, query: QueryLike, *, engine: str = DEFAULT_ENGINE
    ) -> frozenset[tuple[int, int]]:
        """Evaluate a *variable-free* expression as the binary query ``q^bin_P``.

        Dispatches to the backend's ``pairs`` method; every built-in backend
        provides one for variable-free queries (what counts as variable free
        is the backend's own call — e.g. ``"naive"`` evaluates for-loops that
        have no Fig. 4 PPLbin form).

        Raises
        ------
        EngineCapabilityError
            If the backend rejects the expression or exposes no binary
            evaluation.
        """
        from repro.errors import EngineCapabilityError

        backend = get_engine(engine)
        compiled = self._as_query(query, None if isinstance(query, Query) else ())
        check_capabilities(backend, compiled)
        pairs = getattr(backend, "pairs", None)
        if pairs is None:
            raise EngineCapabilityError(
                backend.name, "pairs", "the backend has no binary evaluation path"
            )
        return pairs(self, compiled)

    def report(
        self,
        query: QueryLike,
        variables: Optional[Sequence[str]] = None,
        *,
        engine: str = DEFAULT_ENGINE,
        answers: Optional[frozenset[tuple[int, ...]]] = None,
    ) -> QueryReport:
        """Answer the query and return sizing diagnostics along with the count.

        Pass ``answers`` to report on an already-computed answer set without
        re-evaluating (used by the CLI ``bench`` subcommand, whose timing
        loop has the answers in hand).

        When the report evaluates (``answers`` not given), it also collects
        the per-query resource-accounting block on ``QueryReport.cost``:
        evaluation seconds, compose/row-union op counts and matrix bytes
        allocated (deltas of the process-wide kernel counters and this
        tree's matrix cache — best-effort under concurrent evaluation on
        other threads), plus matrix/answer-cache hit/miss deltas and
        snapshot answer hits.
        """
        compiled = self._as_query(query, variables)
        trace_tree = None
        cost = None
        if answers is None:
            if _trace.enabled():
                _trace.take_last_trace()  # don't attribute an older query's trace
            meter = self.cost_meter()
            started = time.perf_counter()
            answers = self.answer(compiled, engine=engine)
            cost = meter.finish(time.perf_counter() - started)
            trace_tree = _trace.take_last_trace()
        return QueryReport(
            expression_size=compiled.expression_size,
            hcl_size=compiled.hcl_size,
            distinct_leaves=compiled.distinct_leaves,
            variables=compiled.variables,
            answer_count=len(answers),
            tree_size=self.tree.size,
            engine=engine,
            kernel=self.oracle.kernel.name,
            matrix_cache=self.tree.matrix_cache().stats.to_dict(),
            trace=trace_tree,
            cost=cost,
        )

    def cost_meter(self) -> "CostMeter":
        """Start a per-query resource-accounting capture on this document.

        Returns a meter snapshotting the process-wide kernel op counters,
        this tree's matrix-cache counters and (when configured) the
        answer-cache/snapshot counters; ``meter.finish(seconds)`` returns
        the cost-block dict of deltas stored on ``QueryReport.cost``.  The
        corpus executor wraps its own timed ``answer`` calls with this so
        every surface reports the same block; deltas are best-effort when
        other threads evaluate concurrently on the same process.
        """
        return CostMeter(self.tree, self._answer_cache, self._snapshot_store)

    # -------------------------------------------------------------------- batch
    def answer_many(
        self,
        queries: Union[BatchItem, Iterable[BatchItem]],
        *,
        engine: str = DEFAULT_ENGINE,
    ) -> list[frozenset[tuple[int, ...]]]:
        """Answer a batch of queries, reusing the shared oracle across calls.

        Each item is a compiled :class:`Query`, a bare expression, or an
        ``(expression, variables)`` pair; every batch shape accepted by
        :func:`iter_batch` works, including a single bare item.
        """
        results = []
        for item in iter_batch(queries):
            if isinstance(item, tuple) and not isinstance(item, Query):
                expression, variables = item
                results.append(self.answer(expression, variables, engine=engine))
            else:
                results.append(self.answer(item, engine=engine))
        return results

    # ---------------------------------------------------------------- internals
    def _as_query(
        self, query: QueryLike, variables: Optional[Sequence[str]]
    ) -> Query:
        if isinstance(query, Query):
            if variables is not None and tuple(variables) != query.variables:
                raise ValueError(
                    "variables cannot be overridden on a compiled Query; "
                    "compile with the desired output tuple instead"
                )
            return query
        return self.compile(query, tuple(variables or ()), require_ppl=False)


class CostMeter:
    """Before-counters for one evaluation's cost block.

    Meters the process-wide kernel counters, ``tree``'s matrix cache and,
    when given, an answer cache and a snapshot store.  ``tree`` is a
    document's tree, or the :class:`repro.trees.forest.Forest` a corpus pass
    answers over (see ``Document.cost_meter``).
    """

    __slots__ = (
        "_tree", "_answer_cache", "_snapshot_store", "_ops", "_matrix", "_answer", "_snapshot",
    )

    def __init__(self, tree, answer_cache=None, snapshot_store=None) -> None:
        self._tree = tree
        self._answer_cache = answer_cache
        self._snapshot_store = snapshot_store
        self._ops = _bitmatrix.counters()
        self._matrix = tree.matrix_cache().stats
        self._answer = answer_cache.stats if answer_cache is not None else None
        self._snapshot = snapshot_store.stats if snapshot_store is not None else None

    def finish(self, seconds: float) -> dict:
        """The cost block: deltas of every counter since the meter started."""
        ops = _bitmatrix.counters()
        matrix = self._tree.matrix_cache().stats
        cost = {
            "seconds": seconds,
            "compose_ops": ops["full_compose"] - self._ops["full_compose"],
            "row_union_ops": ops["row_union"] - self._ops["row_union"],
            "relations_built": ops["relations_built"] - self._ops["relations_built"],
            "set_steps": ops["set_steps"] - self._ops["set_steps"],
            # Net growth of the tree's matrix cache: bytes this query left
            # resident (evictions it triggered subtract, so this is a
            # footprint delta, not a gross-allocation count).
            "matrix_bytes": max(0, matrix.current_bytes - self._matrix.current_bytes),
            "matrix_cache_hits": matrix.hits - self._matrix.hits,
            "matrix_cache_misses": matrix.misses - self._matrix.misses,
            # Documents that shared the Fig. 8 run: 1 on this path; the
            # corpus executor's forest pass sets its own count.
            "forest_documents": 1,
        }
        if self._answer is not None:
            answer = self._answer_cache.stats
            cost["answer_cache_hits"] = answer.hits - self._answer.hits
            cost["answer_cache_misses"] = answer.misses - self._answer.misses
        if self._snapshot is not None:
            snapshot = self._snapshot_store.stats
            cost["snapshot_hits"] = snapshot.answer_hits - self._snapshot.answer_hits
        return cost


# --------------------------------------------------------------- tree adoption
_documents: "weakref.WeakValueDictionary[int, Document]" = weakref.WeakValueDictionary()


def as_document(source: Document | Tree | Node) -> Document:
    """Return a :class:`Document` for ``source``, adopting trees via a weak registry.

    Passing a :class:`Document` returns it unchanged.  A :class:`Tree` is
    looked up in a ``WeakValueDictionary`` keyed by ``id(tree)`` with an
    identity re-check, so the same live tree maps to the same document while
    neither dead trees nor documents are kept alive, and a recycled ``id``
    cannot alias a different tree.  (The expensive per-tree state — the
    Theorem 2 matrices — lives in the tree's own cache, so even a re-adopted
    tree keeps its precomputed work.)
    """
    if isinstance(source, Document):
        return source
    tree = source if isinstance(source, Tree) else Tree(source)
    document = _documents.get(id(tree))
    if document is None or document.tree is not tree:
        document = Document(tree)
        _documents[id(tree)] = document
    return document


# ------------------------------------------------------------- module helpers
def answer(
    tree: Document | Tree | Node,
    expression: PathExpr | str,
    variables: Sequence[str] = (),
    *,
    engine: str = DEFAULT_ENGINE,
) -> frozenset[tuple[int, ...]]:
    """Answer one n-ary query on one document (convenience one-liner)."""
    return as_document(tree).answer(expression, variables, engine=engine)
