"""Corpus-wide, byte-budgeted memoisation of complete answer sets.

The seed memoised answers *per document*: every :class:`repro.api.Document`
owned an unbounded ``(query, engine) -> frozenset`` dict that lived and died
with the document, so the only bound on answer-memo memory was the store's
document LRU — eviction threw away answers that were still valid (sources
are immutable), and a corpus with one hot document and many cold ones spent
its whole budget on residency instead of answers.

:class:`AnswerCache` replaces that with one shared, thread-safe cache per
:class:`repro.corpus.store.DocumentStore`, accounted in *bytes* rather than
entry counts:

* entries are keyed by ``(owner, plan text, variables, engine)`` where
  ``owner`` is a token identifying the registered *source* (not the
  materialised document), so answers survive document eviction and are
  reused when the document is reloaded;
* answer sets are stored packed, as sorted int32 rows (one per tuple) in
  one ``bytes`` object, and rebuilt into a frozenset on a hit: a frozenset
  of pairs costs over 100 bytes per pair where the rows cost 4 bytes per
  node id;
* entries are grouped by query (the key without its owner): a corpus pass
  puts one entry per document for each query, and a group holds them in
  one small dict rather than one LRU node and key tuple each, which is
  most of an entry's footprint when answer sets are small;
* a corpus pass reads and writes one query's entries for all its
  documents under one lock hold (:meth:`AnswerCache.get_many`,
  :meth:`AnswerCache.put_many`), with the counters and recency that
  per-key calls would leave;
* the budget is enforced by least-recently-used eviction over each entry's
  resident bytes: the least recently used entry of the least recently used
  query goes first;
* hit/miss/insertion/eviction counters and the current byte total are
  exposed as :class:`AnswerCacheStats` — surfaced by
  :class:`repro.corpus.report.CorpusReport` and the serving layer's
  ``ServerStats``.

Discarding a source calls :meth:`AnswerCache.drop_owner` so replaced
documents can never serve stale answers.
"""

from __future__ import annotations

import itertools
import struct
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np


#: The two int32 header words of a packed answer set: width, then count.
_HEADER = struct.Struct("=ii")


class PackedAnswers(bytes):
    """An answer set stored as sorted int32 rows, one per answer tuple.

    The first two int32 words are the tuple width and the tuple count.
    """

    __slots__ = ()

    @classmethod
    def pack(cls, answers: frozenset) -> "PackedAnswers":
        count = len(answers)
        width = len(next(iter(answers))) if count else 0
        flat = np.fromiter(
            itertools.chain.from_iterable(answers), dtype=np.int32, count=count * width
        )
        rows = flat.reshape(count, width)
        if width:
            rows = rows[np.lexsort(rows.T[::-1])]
        return cls(np.array([width, count], dtype=np.int32).tobytes() + rows.tobytes())

    @classmethod
    def from_table(
        cls, rows: np.ndarray, bounds: Sequence[int], documents: Iterable[int]
    ) -> list["PackedAnswers"]:
        """Pack ``rows[bounds[i]:bounds[i + 1]]`` for each document ``i`` of ``documents``.

        ``rows`` is an int32 table whose slices are already distinct and in
        lexicographic order, as
        :meth:`repro.hcl.answering.HclAnswerer.run_table` returns them; each
        packed slice equals :meth:`pack` of its answer set, byte for byte.
        """
        width = rows.shape[1]
        step = 4 * width
        data = rows.tobytes()
        packed = []
        for document in documents:
            low, high = bounds[document], bounds[document + 1]
            count = high - low
            header = _HEADER.pack(width if count else 0, count)
            packed.append(cls(header + data[low * step : high * step]))
        return packed

    @property
    def nbytes(self) -> int:
        """Resident bytes of the packed rows, header and object included."""
        return sys.getsizeof(self)

    def unpack(self) -> frozenset:
        """Rebuild the answer set."""
        width, count = _HEADER.unpack_from(self)
        if not width:
            return frozenset({()}) if count else frozenset()
        # One flat list of the row entries, zipped ``width`` at a time into
        # tuples: no per-row numpy call.
        entries = iter(memoryview(self)[8:].cast("i").tolist())
        return frozenset(zip(*[entries] * width))


def estimate_answer_bytes(answers: frozenset) -> int:
    """Return the bytes one answer set costs in an :class:`AnswerCache`.

    That is the size of its packed rows (see :class:`PackedAnswers`), which
    is what the cache holds.
    """
    return PackedAnswers.pack(answers).nbytes


def estimate_entry_bytes(value) -> int:
    """Estimate the footprint of any cached value.

    Answer sets go through :func:`estimate_answer_bytes`; everything else —
    packed matrices (:class:`repro.pplbin.bitmatrix.Relation` objects) and
    raw numpy arrays, which both expose ``nbytes`` — is charged by the same
    :func:`repro.trees.tree.estimate_value_bytes` the per-tree matrix cache
    uses, so a cache holding bitset relations pays n^2/8 bytes rather than a
    meaningless ``getsizeof`` of the wrapper object.
    """
    if isinstance(value, frozenset):
        return estimate_answer_bytes(value)
    if isinstance(value, PackedAnswers):
        return value.nbytes
    from repro.trees.tree import estimate_value_bytes

    return estimate_value_bytes(value)


@dataclass(frozen=True)
class AnswerCacheStats:
    """Counters describing a cache's behaviour, plus its current footprint."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    current_bytes: int = 0
    max_bytes: Optional[int] = None
    entries: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "entries": self.entries,
        }


class AnswerCache:
    """A shared LRU answer-set cache bounded by total estimated bytes.

    Parameters
    ----------
    max_bytes:
        Byte budget over every entry's estimated footprint (``None`` =
        unbounded).  A single answer set larger than the whole budget is not
        cached at all — storing it would evict everything else for an entry
        that cannot pay for itself.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative (or None for unbounded)")
        self.max_bytes = max_bytes
        #: ``key[1:]`` (the query) -> ``{key[0] (the owner): value}``, both
        #: in recency order, least recent first.
        self._groups: "OrderedDict[tuple, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._count = 0
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0

    def get(self, key: tuple) -> Optional[frozenset]:
        """Return the cached answer set, bumping its recency, or ``None``.

        An answer set comes back as a new frozenset equal to the one put.
        """
        with self._lock:
            value = self._get_locked(key[1:], key[0])
        return value.unpack() if isinstance(value, PackedAnswers) else value

    def get_many(self, query: tuple, owners: Sequence[Hashable]) -> list:
        """The entries of ``query`` for each of ``owners``, under one lock hold.

        ``query`` is a key without its owner.  Hits, misses and recency
        change exactly as ``get((owner, *query))`` for each owner in turn
        would change them, but entries come back as stored (answer sets as
        :class:`PackedAnswers`), ``None`` for a miss.
        """
        with self._lock:
            return [self._get_locked(query, owner) for owner in owners]

    def _get_locked(self, query: tuple, owner: Hashable):
        group = self._groups.get(query)
        value = None if group is None else group.pop(owner, None)
        if value is None:
            self._misses += 1
            return None
        group[owner] = value
        self._groups.move_to_end(query)
        self._hits += 1
        return value

    def put(self, key: tuple, answers) -> None:
        """Insert an entry (answer set or packed matrix), evicting LRU to budget."""
        if isinstance(answers, frozenset):
            answers = PackedAnswers.pack(answers)
        cost = estimate_entry_bytes(answers)
        with self._lock:
            self._put_locked(key[1:], key[0], answers, cost)

    def put_many(self, query: tuple, entries: Sequence[tuple[Hashable, PackedAnswers]]) -> None:
        """Insert ``(owner, packed answers)`` entries of ``query`` under one lock hold.

        The cache ends up exactly as after ``put((owner, *query), packed)``
        for each entry in turn: the same insertions, evictions and bytes.
        """
        costs = [estimate_entry_bytes(packed) for _, packed in entries]
        with self._lock:
            for (owner, packed), cost in zip(entries, costs):
                self._put_locked(query, owner, packed, cost)

    def _put_locked(self, query: tuple, owner: Hashable, answers, cost: int) -> None:
        if self.max_bytes is not None and cost > self.max_bytes:
            return
        group = self._groups.get(query)
        if group is None:
            group = self._groups[query] = {}
        else:
            self._groups.move_to_end(query)
        previous = group.pop(owner, None)
        if previous is not None:
            self._bytes -= estimate_entry_bytes(previous)
            self._count -= 1
        group[owner] = answers
        self._bytes += cost
        self._count += 1
        self._insertions += 1
        while self.max_bytes is not None and self._bytes > self.max_bytes:
            oldest, victims = next(iter(self._groups.items()))
            self._bytes -= estimate_entry_bytes(victims.pop(next(iter(victims))))
            self._count -= 1
            self._evictions += 1
            if not victims:
                del self._groups[oldest]

    def drop_owner(self, owner: Hashable) -> int:
        """Remove every entry whose key starts with ``owner``; return the count.

        Called when a source is discarded from the store, so a later document
        registered under the same name can never see the old answers.
        """
        dropped = 0
        with self._lock:
            for query in list(self._groups):
                group = self._groups[query]
                value = group.pop(owner, None)
                if value is None:
                    continue
                self._bytes -= estimate_entry_bytes(value)
                dropped += 1
                if not group:
                    del self._groups[query]
            self._count -= dropped
        return dropped

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._groups.clear()
            self._count = 0
            self._bytes = 0

    @property
    def stats(self) -> AnswerCacheStats:
        """A consistent snapshot of the counters and footprint."""
        with self._lock:
            return AnswerCacheStats(
                hits=self._hits,
                misses=self._misses,
                insertions=self._insertions,
                evictions=self._evictions,
                current_bytes=self._bytes,
                max_bytes=self.max_bytes,
                entries=self._count,
            )

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnswerCache(entries={len(self)}, bytes={self._bytes}, "
            f"max_bytes={self.max_bytes})"
        )
