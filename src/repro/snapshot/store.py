"""The on-disk snapshot store: content-addressed trees and spilled answers.

:class:`SnapshotStore` manages one directory of snapshot artefacts:

* ``<sha256>.snap`` — columnar document snapshots (:mod:`repro.snapshot.codec`),
  addressed by the SHA-256 digest of the *source payload* (XML text or file
  bytes), so a changed source can never resolve to a stale snapshot;
* ``<sha256>.ans`` — spilled answer sets, addressed by the
  ``(doc digest, plan key, engine)`` triple, so a warm start skips the first
  evaluation as well as the parse.

The storage rules are :class:`repro.diskstore.DiskStore`'s, the same code
:class:`repro.serve.plancache.PlanCache` runs on: **corruption-tolerant**
loads (any malformed, truncated, version-skewed or identity-mismatched file
counts as a miss, is deleted best-effort, and the caller rebuilds — a
damaged store costs time, never correctness), **atomic** writes (unique
temp file + ``os.replace``), and one **byte-budgeted LRU** over the ``.snap``
and ``.ans`` files ordered by access time (hits ``os.utime``-touch their
file).  This module keeps what is a snapshot's own: the key fields, the
payloads, the counters and the codec call.  Multiple processes — the
executor's shard workers — share one directory safely.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro._config import UNSET as _UNSET
from repro.diskstore import DiskStore
from repro.obs import trace as _trace
from repro.snapshot.codec import decode_snapshot, encode_snapshot
from repro.trees.tree import Tree

TREE_SUFFIX = ".snap"
ANSWER_SUFFIX = ".ans"
#: Version of the spilled answer payload, separate from the tree layout's
#: ``codec.FORMAT_VERSION`` so a tree-layout change keeps spilled answers.
#: Bump when the payload changes incompatibly; old spills then miss.
ANSWER_FORMAT_VERSION = 1
_SUFFIXES = (TREE_SUFFIX, ANSWER_SUFFIX)


@dataclass(frozen=True)
class SnapshotStats:
    """Counters for one store instance (not persisted across processes)."""

    tree_hits: int = 0
    tree_misses: int = 0
    tree_stores: int = 0
    answer_hits: int = 0
    answer_misses: int = 0
    answer_stores: int = 0
    invalid: int = 0
    evictions: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class SnapshotStore(DiskStore):
    """One directory of content-addressed snapshots and spilled answers.

    Parameters
    ----------
    directory:
        Where the artefacts live; created on first write.
    max_bytes:
        Total byte budget over every artefact file (``None`` = unbounded),
        enforced after each store by deleting least-recently-*accessed*
        files first (GC also callable explicitly via :meth:`gc`).
    """

    _suffixes = _SUFFIXES

    # ---------------------------------------------------------------- digests
    @staticmethod
    def digest_bytes(payload: bytes) -> str:
        """The content address of one source payload: SHA-256 hex."""
        return hashlib.sha256(payload).hexdigest()

    def digest_source(self, kind: str, payload: str) -> Optional[str]:
        """Digest one picklable source spec (``DocumentSource.spec()`` shape).

        ``"xml"`` digests the text; ``"file"`` digests the file *bytes* (so
        an edited file revalidates to a different address — the snapshot of
        the old content simply stops being found).  Unreadable files and
        unknown kinds return ``None``: the caller falls back to the normal
        parse path, which will raise its own (typed, actionable) error.
        """
        if kind == "xml":
            return self.digest_bytes(payload.encode("utf-8"))
        if kind == "file":
            try:
                return self.digest_bytes(Path(payload).read_bytes())
            except OSError:
                return None
        return None

    @staticmethod
    def answer_key(
        digest: str, plan: str, variables: Sequence[str], engine: str
    ) -> str:
        """The content address of one spilled answer set.

        SHA-256 over the format version, the document digest, the plan text,
        the output-variable tuple and the engine name, JSON-framed so fields
        cannot collide.
        """
        return DiskStore._address(
            ANSWER_FORMAT_VERSION, "answers", digest, plan, list(variables), engine
        )

    def tree_path(self, digest: str) -> Path:
        """The file a snapshot for this source digest lives at."""
        return self.directory / (digest + TREE_SUFFIX)

    def answer_path(
        self, digest: str, plan: str, variables: Sequence[str], engine: str
    ) -> Path:
        """The file a spilled answer set for this identity lives at."""
        return self.directory / (
            self.answer_key(digest, plan, variables, engine) + ANSWER_SUFFIX
        )

    # ------------------------------------------------------------------ trees
    def has_tree(self, digest: str) -> bool:
        """Whether a snapshot file exists for ``digest`` (no validation)."""
        return self.tree_path(digest).is_file()

    def load_tree(self, digest: str, *, matrix_cache_bytes=_UNSET) -> Optional[Tree]:
        """Load the snapshot for ``digest``, or ``None`` on miss or damage.

        Never raises for store trouble: a malformed, truncated,
        version-skewed or digest-mismatched file is deleted (best-effort)
        and reported as a miss, so the caller reparses and rebuilds.
        """

        def decode(path: Path) -> Tree:
            with _trace.span("snapshot.load", digest=digest[:12]):
                return decode_snapshot(
                    path, expected_digest=digest, matrix_cache_bytes=matrix_cache_bytes
                )

        return self._load(
            self.tree_path(digest), decode, key=digest, site="snapshot", kind="tree_"
        )

    def store_tree(self, tree: Tree, digest: str) -> Path:
        """Serialise ``tree`` under ``digest``; returns the file written."""
        return self._store(self.tree_path(digest), encode_snapshot(tree, digest), "tree_")

    # ---------------------------------------------------------------- answers
    @staticmethod
    def _identity(digest: str, plan: str, variables: Sequence[str], engine: str) -> dict:
        return dict(
            format=ANSWER_FORMAT_VERSION, digest=digest, plan=plan,
            variables=list(variables), engine=engine,
        )

    def load_answers(
        self, digest: str, plan: str, variables: Sequence[str], engine: str
    ) -> Optional[frozenset]:
        """Return the spilled answer set, or ``None`` on miss or damage."""
        path = self.answer_path(digest, plan, variables, engine)
        identity = self._identity(digest, plan, variables, engine)
        return self._load_pickle(
            path, identity, "answers", frozenset, key=digest, site="snapshot", kind="answer_"
        )

    def store_answers(
        self,
        digest: str,
        plan: str,
        variables: Sequence[str],
        engine: str,
        answers: frozenset,
    ) -> Path:
        """Spill one answer set; returns the file written."""
        path = self.answer_path(digest, plan, variables, engine)
        identity = self._identity(digest, plan, variables, engine)
        return self._store_pickle(path, identity, "answers", answers, "answer_")

    # ------------------------------------------------------------ housekeeping
    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used artefacts down to ``max_bytes``.

        ``max_bytes`` defaults to the store's configured budget; with both
        unset this is a no-op.  Returns how many files were removed.
        Ordering is by access time (``st_atime``; hits touch their file), so
        hot snapshots survive cold ones regardless of build order.
        """
        return self._evict(max_bytes if max_bytes is not None else self.max_bytes)

    def clear(self) -> int:
        """Delete every artefact file; returns how many were removed."""
        return self._clear()

    # -------------------------------------------------------------- inspection
    def total_bytes(self) -> int:
        """Current on-disk footprint across snapshots and spilled answers."""
        return self._total_bytes()

    def file_counts(self) -> dict[str, int]:
        """How many artefacts of each kind are on disk."""
        counts = {"trees": 0, "answers": 0}
        for path in self._files():
            if path.suffix == TREE_SUFFIX:
                counts["trees"] += 1
            else:
                counts["answers"] += 1
        return counts

    @property
    def stats(self) -> SnapshotStats:
        """Snapshot of this instance's counters."""
        return self._stats(SnapshotStats)
