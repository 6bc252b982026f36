"""The sharded multi-document store: named sources, lazy parse, LRU residency.

A :class:`DocumentStore` maps *names* to document *sources* (XML strings, XML
files or in-memory trees) and materialises them into
:class:`repro.api.Document` instances on first access.  Materialised
documents — and with them the Theorem 2 oracle matrices, which dominate
per-document memory — form the *resident set*, optionally bounded by
``max_resident`` with least-recently-used eviction.  Evicting a document
drops its tree, oracle and caches; the (cheap) source stays registered, so a
later access transparently reparses and rebuilds.

Sources are picklable: :meth:`DocumentStore.source_spec` returns a
``(kind, payload)`` pair that ships to worker processes, where the document
is rebuilt locally.  This is deliberate — the oracle's boolean matrices are
dense ``|t| x |t|`` numpy arrays that are far cheaper to recompute in the
worker than to serialise, so the executor's process strategy ships sources
and answers, never documents (see :mod:`repro.corpus.executor`).  Tree-backed
sources ship as serialised XML for the same reason.

The store is thread-safe: the thread strategy of the executor shares one
store across its pool, so lookups, loads and evictions are guarded by a
lock, with per-name load locks so two threads never parse the same document
twice.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from repro._deprecation import suppress_deprecations
from repro.errors import ReproError
from repro.trees.tree import Node, Tree
from repro.trees.xml_io import tree_from_xml, tree_from_xml_file, tree_to_xml
from repro.api.document import Document
from repro.corpus.cache import AnswerCache

#: Sentinel for "no explicit matrix budget" (the tree's own default stands) —
#: the one shared instance from :mod:`repro._config`.
from repro._config import UNSET as _UNSET


#: Default byte budget of a store's shared answer cache.  Finite on purpose:
#: answers survive document eviction (see :mod:`repro.corpus.cache`), so an
#: unbounded default would let the memo grow without limit on long-running
#: varied workloads even when ``max_resident`` is tight.
DEFAULT_ANSWER_CACHE_BYTES = 64 << 20


class CorpusError(ReproError):
    """Raised for unknown document names and invalid store configurations."""


@dataclass(frozen=True)
class StoreStats:
    """Counters describing the store's caching behaviour.

    ``loads`` counts every materialisation (including reloads after
    eviction), ``hits`` counts accesses served from the resident set, and
    ``evictions`` counts documents dropped to stay under ``max_resident``.
    The cold-load observability trio: ``parse_count`` counts XML parses
    actually performed, ``snapshot_hits``/``snapshot_misses`` count loads
    served from (or falling past) the snapshot store — so snapshot hit-rate
    is measurable rather than inferred.  Without a ``snapshot_dir`` every
    load parses and the snapshot counters stay at zero.
    """

    loads: int = 0
    hits: int = 0
    evictions: int = 0
    parse_count: int = 0
    snapshot_hits: int = 0
    snapshot_misses: int = 0


@dataclass(frozen=True)
class DocumentSource:
    """One registered document: a name plus where its content comes from.

    Exactly one of ``xml``, ``path`` and ``tree`` is set, matching ``kind``
    (``"xml"``, ``"file"`` or ``"tree"``).
    """

    name: str
    kind: str
    xml: Optional[str] = None
    path: Optional[str] = None
    tree: Optional[Tree] = None

    def load(
        self,
        *,
        cache_answers: bool = True,
        answer_cache: Optional[AnswerCache] = None,
        cache_owner: Optional[object] = None,
        kernel=None,
        matrix_cache_bytes=_UNSET,
        tree: Optional[Tree] = None,
        snapshot_store=None,
        source_digest: Optional[str] = None,
    ) -> Document:
        """Materialise the source into a fresh :class:`Document`.

        Store-managed documents memoise answer sets by default, into the
        store's shared byte-budgeted :class:`AnswerCache` when one is passed
        (``cache_owner`` scopes the entries to this registration, so answers
        survive eviction but die with the source — see
        :mod:`repro.corpus.cache`).  ``tree`` short-circuits parsing (the
        snapshot fast path passes the memmap-backed tree it already
        loaded); ``snapshot_store``/``source_digest`` wire the document's
        answer-spill hook (see :meth:`repro.api.Document.answer`).
        """
        if tree is None:
            if self.kind == "xml":
                tree = tree_from_xml(self.xml)
            elif self.kind == "file":
                tree = tree_from_xml_file(self.path)
            else:
                tree = self.tree
        kwargs = {} if matrix_cache_bytes is _UNSET else {
            "matrix_cache_bytes": matrix_cache_bytes
        }
        with suppress_deprecations():
            return Document(
                tree,
                cache_answers=cache_answers,
                answer_cache=answer_cache,
                cache_owner=cache_owner,
                kernel=kernel,
                snapshot_store=snapshot_store,
                source_digest=source_digest,
                **kwargs,
            )

    def spec(self) -> tuple[str, str]:
        """Return a picklable ``(kind, payload)`` pair for worker processes.

        Tree-backed sources are serialised to XML text: shipping the builder
        nodes would drag the (unpicklably large, matrix-cache-carrying) tree
        along, while the XML round-trips exactly — the paper's data model
        keeps only element structure and names.
        """
        if self.kind == "xml":
            return ("xml", self.xml)
        if self.kind == "file":
            return ("file", self.path)
        return ("xml", tree_to_xml(self.tree))


class DocumentStore:
    """A named collection of documents with a bounded resident set.

    Parameters
    ----------
    max_resident:
        Upper bound on concurrently materialised documents (``None`` =
        unbounded).  The bound is what makes corpus serving memory-safe: a
        corpus can be arbitrarily larger than RAM as long as the working set
        fits, and the executor's process strategy multiplies the budget by
        giving every shard worker its own ``max_resident`` (see
        :class:`repro.corpus.executor.CorpusExecutor`).
    cache_answers:
        Whether materialised documents memoise their answer sets (default
        true).  Memoisation goes through one *shared* byte-accounted
        :class:`repro.corpus.cache.AnswerCache` per store, so answers
        survive document eviction and the memo footprint is bounded
        corpus-wide rather than per document.
    answer_cache_bytes:
        Byte budget of the shared answer cache.  Bounded *by default* (64
        MiB, :data:`DEFAULT_ANSWER_CACHE_BYTES`): answers survive document
        eviction, so without a budget a long-running varied workload would
        grow the memo without limit even under a tight ``max_resident``.
        Pass ``None`` explicitly for an unbounded cache.  The executor's
        process strategy gives every shard worker its own budget of this
        size, mirroring how ``max_resident`` scales out.
    kernel:
        Relation kernel every materialised document evaluates with — a
        name, a :class:`repro.pplbin.bitmatrix.Kernel`, or ``None`` for the
        process default.  An explicit kernel here is *pinned*: it ships to
        the executor's shard workers as part of the store configuration, so
        it beats ``REPRO_KERNEL`` in subprocesses too (the config-precedence
        guarantee of :mod:`repro.session.policy`).
    matrix_cache_bytes:
        When given, every materialised document's tree is rebudgeted to
        this matrix-cache byte budget (``None`` = unbounded); unset leaves
        the tree default (``REPRO_MATRIX_CACHE_BYTES`` or 256 MiB).
    snapshot_dir:
        Directory of the on-disk snapshot store (:mod:`repro.snapshot`).
        When set, XML and file sources materialise *through* it: loads
        prefer a content-addressed columnar snapshot (memmapped, no parse)
        over the source, revalidated against the source's current digest;
        misses parse as usual and write the snapshot for next time.  The
        same store spills answer sets, so a re-registered corpus skips the
        first evaluation too.  Tree-backed sources bypass snapshots (the
        tree is already in memory).
    snapshot_bytes:
        LRU byte budget over the snapshot directory (``None`` = unbounded),
        enforced after each build by access-time eviction.
    """

    def __init__(
        self,
        max_resident: Optional[int] = None,
        *,
        cache_answers: bool = True,
        answer_cache_bytes: Optional[int] = DEFAULT_ANSWER_CACHE_BYTES,
        kernel=None,
        matrix_cache_bytes=_UNSET,
        snapshot_dir: Optional[Union[str, Path]] = None,
        snapshot_bytes: Optional[int] = None,
    ) -> None:
        if max_resident is not None and max_resident < 1:
            raise CorpusError("max_resident must be at least 1 (or None for unbounded)")
        self.max_resident = max_resident
        self.cache_answers = cache_answers
        self.answer_cache_bytes = answer_cache_bytes
        self.kernel = kernel
        self.matrix_cache_bytes = matrix_cache_bytes
        self.snapshot_dir = None if snapshot_dir is None else str(snapshot_dir)
        self.snapshot_bytes = snapshot_bytes
        if snapshot_dir is None:
            self.snapshot_store = None
        else:
            from repro.snapshot.store import SnapshotStore

            self.snapshot_store = SnapshotStore(snapshot_dir, max_bytes=snapshot_bytes)
        self.answer_cache: Optional[AnswerCache] = (
            AnswerCache(max_bytes=answer_cache_bytes) if cache_answers else None
        )
        self._sources: "OrderedDict[str, DocumentSource]" = OrderedDict()
        self._resident: "OrderedDict[str, Document]" = OrderedDict()
        self._lock = threading.Lock()
        self._load_locks: dict[str, threading.Lock] = {}
        self._loads = 0
        self._hits = 0
        self._evictions = 0
        self._parses = 0
        self._snapshot_hits = 0
        self._snapshot_misses = 0
        self._version = 0
        self._tokens: dict[str, int] = {}
        self._next_token = 0

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_directory(
        cls,
        directory: Union[str, Path],
        pattern: str = "*.xml",
        max_resident: Optional[int] = None,
        **store_kwargs,
    ) -> "DocumentStore":
        """Build a store over every file matching ``pattern`` in ``directory``.

        Extra keyword arguments (``cache_answers``, ``answer_cache_bytes``)
        are forwarded to the constructor.
        """
        store = cls(max_resident=max_resident, **store_kwargs)
        store.add_directory(directory, pattern)
        return store

    # ------------------------------------------------------------ registration
    def add_xml(self, name: str, text: str) -> str:
        """Register an XML string under ``name``; parsing is deferred."""
        return self._register(DocumentSource(name=name, kind="xml", xml=text))

    def add_file(self, path: Union[str, Path], name: Optional[str] = None) -> str:
        """Register an XML file, named after its stem unless ``name`` is given.

        Re-registering the same path under the same name is a no-op, so the
        store can double as a path cache (see :func:`repro.api.answer_batch`).
        """
        resolved = str(path)
        key = name if name is not None else Path(resolved).stem
        with self._lock:
            existing = self._sources.get(key)
            if existing is not None and existing.kind == "file" and existing.path == resolved:
                return key
        return self._register(DocumentSource(name=key, kind="file", path=resolved))

    def add_tree(self, name: str, tree: Tree | Node) -> str:
        """Register an in-memory tree under ``name``.

        Note that eviction cannot reclaim the tree itself (the source keeps
        it alive) — only the document wrapper and its answerer.  Because the
        oracle caches its matrices *on the tree*, a reloaded tree-backed
        document keeps its precomputed matrices; XML-backed documents start
        cold.
        """
        if not isinstance(tree, Tree):
            tree = Tree(tree)
        return self._register(DocumentSource(name=name, kind="tree", tree=tree))

    def add_directory(self, directory: Union[str, Path], pattern: str = "*.xml") -> list[str]:
        """Register every file matching ``pattern``, sorted for determinism.

        Returns the registered names (file stems).
        """
        root = Path(directory)
        if not root.is_dir():
            raise CorpusError(f"not a directory: {root}")
        names = []
        # Same order as comparing the paths on POSIX, but Path comparison
        # rebuilds its key on every call and ``parts`` is built once.
        for path in sorted(root.glob(pattern), key=lambda entry: entry.parts):
            names.append(self.add_file(path, path.stem))
        return names

    def _register(self, source: DocumentSource) -> str:
        with self._lock:
            if source.name in self._sources:
                raise CorpusError(f"a document named {source.name!r} is already registered")
            self._sources[source.name] = source
            self._tokens[source.name] = self._next_token
            self._next_token += 1
            self._version += 1
        return source.name

    def discard(self, name: str) -> None:
        """Forget a document entirely: its source, resident and memoised state."""
        with self._lock:
            removed = self._sources.pop(name, None)
            self._resident.pop(name, None)
            self._load_locks.pop(name, None)
            token = self._tokens.pop(name, None)
            if removed is not None:
                self._version += 1
        # Outside the store lock: the cache has its own, and a same-name
        # re-registration gets a fresh token anyway, so no staleness window.
        if token is not None and self.answer_cache is not None:
            self.answer_cache.drop_owner(token)

    # ------------------------------------------------------------------ access
    def get(self, name: str) -> Document:
        """Return the materialised document, loading (or reloading) on demand.

        Raises
        ------
        CorpusError
            If no source named ``name`` is registered.
        """
        while True:
            with self._lock:
                source = self._sources.get(name)
                if source is None:
                    hint = (
                        "registered: " + ", ".join(sorted(self._sources))
                        if self._sources
                        else "the store is empty"
                    )
                    raise CorpusError(f"unknown document {name!r}; {hint}")
                document = self._resident.get(name)
                if document is not None:
                    self._resident.move_to_end(name)
                    self._hits += 1
                    return document
                # Captured together with the source, under one lock hold:
                # the token identifies exactly this registration, so a
                # concurrent discard + same-name re-add is detectable below.
                token = self._tokens.get(name)
                load_lock = self._load_locks.setdefault(name, threading.Lock())
            with load_lock:
                with self._lock:
                    # Re-validate: another thread may have loaded while we
                    # waited, or replaced the registration entirely (then
                    # retry against the new source instead of parsing a
                    # stale one).
                    if (
                        self._sources.get(name) is not source
                        or self._tokens.get(name) != token
                    ):
                        continue
                    document = self._resident.get(name)
                    if document is not None:
                        self._resident.move_to_end(name)
                        self._hits += 1
                        return document
                document = self._materialise(source, token)
                with self._lock:
                    if (
                        self._sources.get(name) is not source
                        or self._tokens.get(name) != token
                    ):
                        # Replaced mid-parse: drop the stale document (its
                        # answers, if any, sit under the retired token and
                        # were purged by discard) and load the new source.
                        continue
                    self._resident[name] = document
                    self._resident.move_to_end(name)
                    self._loads += 1
                    while (
                        self.max_resident is not None
                        and len(self._resident) > self.max_resident
                    ):
                        self._resident.popitem(last=False)
                        self._evictions += 1
                return document

    def peek(self, name: str) -> Optional[Document]:
        """Return the document if it is resident, else ``None``; never loads.

        A resident document counts as a hit and becomes most recently used,
        as with :meth:`get`.  The corpus executor asks this at the start of
        a pass to find the documents that can share one forest run.
        """
        with self._lock:
            document = self._resident.get(name)
            if document is not None:
                self._resident.move_to_end(name)
                self._hits += 1
            return document

    def _materialise(self, source: DocumentSource, token: Optional[int]) -> Document:
        """Build one document, preferring a columnar snapshot over the source.

        With a snapshot store configured, the source payload is digested
        first (re-digested on every load, so an edited file revalidates to
        a different address and can never be served a stale snapshot); a
        valid snapshot yields a tree rebuilt from its memmapped columns, a
        miss parses as usual and writes the snapshot for the next cold
        start.  Either way the resulting
        document carries the store+digest pair so its answers spill to (and
        load from) disk.
        """
        snapshot = self.snapshot_store
        digest: Optional[str] = None
        tree: Optional[Tree] = None
        if snapshot is not None and source.kind != "tree":
            digest = snapshot.digest_source(*source.spec())
            if digest is not None:
                tree = snapshot.load_tree(
                    digest, matrix_cache_bytes=self.matrix_cache_bytes
                )
                with self._lock:
                    if tree is not None:
                        self._snapshot_hits += 1
                    else:
                        self._snapshot_misses += 1
        if tree is None and source.kind != "tree":
            with self._lock:
                self._parses += 1
        document = source.load(
            cache_answers=self.cache_answers,
            answer_cache=self.answer_cache,
            cache_owner=token,
            kernel=self.kernel,
            matrix_cache_bytes=self.matrix_cache_bytes,
            tree=tree,
            snapshot_store=snapshot if digest is not None else None,
            source_digest=digest,
        )
        if tree is None and digest is not None and snapshot is not None:
            snapshot.store_tree(document.tree, digest)
        return document

    def resolve(self, name_or_path: Union[str, Path]) -> Document:
        """Resolve a registered name, or register-and-load a filesystem path.

        This is the lookup :func:`repro.api.answer_batch` routes string items
        through: names win over paths, unknown strings that exist on disk are
        adopted as file sources (so repeated batches reuse the parse), and
        anything else is an error.  Adopted paths are registered under their
        full path string, so they can never collide with directory-registered
        stems (or with the same file spelled through a different path).
        """
        key = str(name_or_path)
        with self._lock:
            known = key in self._sources
        if known:
            return self.get(key)
        path = Path(key)
        if path.is_file():
            return self.get(self.add_file(path, name=key))
        raise CorpusError(f"{key!r} is neither a registered document nor an XML file")

    # -------------------------------------------------------------- inspection
    def names(self) -> tuple[str, ...]:
        """Registered document names, in registration order."""
        with self._lock:
            return tuple(self._sources)

    def resident_names(self) -> tuple[str, ...]:
        """Names currently materialised, least-recently-used first."""
        with self._lock:
            return tuple(self._resident)

    def source_spec(self, name: str) -> tuple[str, str]:
        """The picklable ``(kind, payload)`` spec of one source (for workers)."""
        with self._lock:
            source = self._sources.get(name)
        if source is None:
            raise CorpusError(f"unknown document {name!r}")
        return source.spec()

    def source_token(self, name: str) -> int:
        """A token unique to this *registration* of ``name``.

        Two registrations of the same name (discard + re-add) get different
        tokens.  The executor fingerprints shard membership with these, so a
        same-name source replacement is detected as a shard change even
        though the name list is identical; the answer cache keys entries by
        them for the same staleness guarantee.
        """
        with self._lock:
            token = self._tokens.get(name)
        if token is None:
            raise CorpusError(f"unknown document {name!r}")
        return token

    @property
    def stats(self) -> StoreStats:
        """A snapshot of the load/hit/eviction and cold-load counters."""
        with self._lock:
            return StoreStats(
                loads=self._loads,
                hits=self._hits,
                evictions=self._evictions,
                parse_count=self._parses,
                snapshot_hits=self._snapshot_hits,
                snapshot_misses=self._snapshot_misses,
            )

    def snapshot_stats(self) -> Optional[dict]:
        """The snapshot store's telemetry, or ``None`` when none is configured.

        Combines the :class:`repro.snapshot.SnapshotStats` counters with
        the current on-disk footprint and artefact counts — the byte-level
        half of the hit/miss counters in :attr:`stats`.
        """
        if self.snapshot_store is None:
            return None
        payload = self.snapshot_store.stats.to_dict()
        payload["total_bytes"] = self.snapshot_store.total_bytes()
        payload.update(self.snapshot_store.file_counts())
        payload["max_bytes"] = self.snapshot_store.max_bytes
        return payload

    def matrix_cache_stats(self):
        """Aggregate matrix-cache counters over the resident documents.

        Sums the per-tree :class:`repro.trees.tree.MatrixCacheStats` of every
        materialised document — the Theorem 2 relation/row cache telemetry,
        surfaced next to the AnswerCache stats by ``CorpusReport`` and the
        serving layer's ``ServerStats``.  Evicted (non-resident) documents
        contribute nothing: their matrix caches died with the tree.
        """
        from repro.trees.tree import MatrixCacheStats

        with self._lock:
            documents = list(self._resident.values())
        totals = MatrixCacheStats()
        budgets: list = []
        for document in documents:
            stats = document.tree.matrix_cache().stats
            budgets.append(stats.max_bytes)
            totals = MatrixCacheStats(
                hits=totals.hits + stats.hits,
                misses=totals.misses + stats.misses,
                insertions=totals.insertions + stats.insertions,
                evictions=totals.evictions + stats.evictions,
                current_bytes=totals.current_bytes + stats.current_bytes,
                entries=totals.entries + stats.entries,
            )
        max_bytes = (
            sum(budgets) if budgets and all(b is not None for b in budgets) else None
        )
        return MatrixCacheStats(
            hits=totals.hits,
            misses=totals.misses,
            insertions=totals.insertions,
            evictions=totals.evictions,
            current_bytes=totals.current_bytes,
            max_bytes=max_bytes,
            entries=totals.entries,
        )

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every source registration or discard.

        The executor's process strategy partitions the corpus once and keeps
        worker caches across runs; it compares this version to detect that
        the registered sources changed (including same-name replacement) and
        rebuild its shard pools.
        """
        with self._lock:
            return self._version

    def clear_resident(self) -> None:
        """Drop every materialised document (sources stay registered)."""
        with self._lock:
            self._resident.clear()

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._sources

    def __len__(self) -> int:
        with self._lock:
            return len(self._sources)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DocumentStore(documents={len(self)}, "
            f"resident={len(self._resident)}, max_resident={self.max_resident})"
        )
