"""The on-disk snapshot store: content-addressed trees and spilled answers.

:class:`SnapshotStore` manages one directory of snapshot artefacts:

* ``<sha256>.snap`` — columnar document snapshots (:mod:`repro.snapshot.codec`),
  addressed by the SHA-256 digest of the *source payload* (XML text or file
  bytes), so a changed source can never resolve to a stale snapshot;
* ``<sha256>.ans`` — spilled answer sets, addressed by the
  ``(doc digest, plan key, engine)`` triple, so a warm start skips the first
  evaluation as well as the parse.

The store follows :class:`repro.serve.plancache.PlanCache` semantics
throughout: **corruption-tolerant** loads (any malformed, truncated,
version-skewed or identity-mismatched file counts as a miss, is deleted
best-effort, and the caller rebuilds — a damaged store costs time, never
correctness), **atomic** writes (unique temp file + ``os.replace``), and a
**byte-budgeted LRU** over the artefact files ordered by access time (hits
``os.utime``-touch their file).  Multiple processes — the executor's shard
workers — share one directory safely.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import faults
from repro._config import UNSET as _UNSET
from repro.errors import FaultInjectedError
from repro.obs import trace as _trace
from repro.snapshot.codec import SnapshotError, decode_snapshot, encode_snapshot
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
        return {
            "tree_hits": self.tree_hits,
            "tree_misses": self.tree_misses,
            "tree_stores": self.tree_stores,
            "answer_hits": self.answer_hits,
            "answer_misses": self.answer_misses,
            "answer_stores": self.answer_stores,
            "invalid": self.invalid,
            "evictions": self.evictions,
        }


class SnapshotStore:
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

    def __init__(
        self, directory: Union[str, Path], *, max_bytes: Optional[int] = None
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative (or None for unbounded)")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._tree_hits = 0
        self._tree_misses = 0
        self._tree_stores = 0
        self._answer_hits = 0
        self._answer_misses = 0
        self._answer_stores = 0
        self._invalid = 0
        self._evictions = 0

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
        identity = json.dumps(
            [ANSWER_FORMAT_VERSION, "answers", digest, plan, list(variables), engine],
            separators=(",", ":"),
        )
        return hashlib.sha256(identity.encode("utf-8")).hexdigest()

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
        path = self.tree_path(digest)
        if not path.is_file():
            with self._lock:
                self._tree_misses += 1
            return None
        try:
            faults.trip("corrupt_read", key=digest, site="snapshot")
        except FaultInjectedError:
            # Injected read corruption: report a miss (caller reparses) but
            # leave the healthy file alone, unlike organic damage below.
            with self._lock:
                self._tree_misses += 1
            return None
        try:
            with _trace.span("snapshot.load", digest=digest[:12]):
                tree = decode_snapshot(
                    path, expected_digest=digest, matrix_cache_bytes=matrix_cache_bytes
                )
        except SnapshotError:
            self._drop_invalid(path)
            with self._lock:
                self._tree_misses += 1
            return None
        with self._lock:
            self._tree_hits += 1
        self._touch(path)
        return tree

    def store_tree(self, tree: Tree, digest: str) -> Path:
        """Serialise ``tree`` under ``digest``; returns the file written."""
        path = self.tree_path(digest)
        self._write_atomic(path, encode_snapshot(tree, digest))
        with self._lock:
            self._tree_stores += 1
        self._enforce_budget()
        return path

    # ---------------------------------------------------------------- answers
    def load_answers(
        self, digest: str, plan: str, variables: Sequence[str], engine: str
    ) -> Optional[frozenset]:
        """Return the spilled answer set, or ``None`` on miss or damage."""
        path = self.answer_path(digest, plan, variables, engine)
        try:
            faults.trip("corrupt_read", key=digest, site="snapshot")
            blob = path.read_bytes()
        except FaultInjectedError:
            # Injected corruption: miss without unlinking the healthy file.
            with self._lock:
                self._answer_misses += 1
            return None
        except OSError:
            with self._lock:
                self._answer_misses += 1
            return None
        try:
            payload = pickle.loads(blob)
            if not isinstance(payload, dict):
                raise ValueError("answer payload is not a dict")
            if payload.get("format") != ANSWER_FORMAT_VERSION:
                raise ValueError("answer format version mismatch")
            if (
                payload.get("digest") != digest
                or payload.get("plan") != plan
                or tuple(payload.get("variables", ())) != tuple(variables)
                or payload.get("engine") != engine
            ):
                raise ValueError("answer identity mismatch")
            answers = payload["answers"]
            if not isinstance(answers, frozenset):
                raise ValueError("answer payload holds no frozenset")
        except Exception:
            self._drop_invalid(path)
            with self._lock:
                self._answer_misses += 1
            return None
        with self._lock:
            self._answer_hits += 1
        self._touch(path)
        return answers

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
        payload = pickle.dumps(
            {
                "format": ANSWER_FORMAT_VERSION,
                "digest": digest,
                "plan": plan,
                "variables": list(variables),
                "engine": engine,
                "answers": answers,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._write_atomic(path, payload)
        with self._lock:
            self._answer_stores += 1
        self._enforce_budget()
        return path

    # ------------------------------------------------------------ housekeeping
    def _write_atomic(self, path: Path, payload: bytes) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        # Unique per writer thread *and* process: shard workers share the
        # directory, and concurrent stores of one digest must not rename
        # each other's temp file away mid-replace.
        temporary = path.with_suffix(
            ".tmp-%d-%d" % (os.getpid(), threading.get_ident())
        )
        temporary.write_bytes(payload)
        os.replace(temporary, path)

    def _drop_invalid(self, path: Path) -> None:
        with self._lock:
            self._invalid += 1
        try:
            path.unlink()
        except OSError:
            pass

    def _touch(self, path: Path) -> None:
        """Refresh access+modification time so GC is least-recently-used."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _artefacts(self) -> list[Path]:
        try:
            return [
                entry
                for entry in self.directory.iterdir()
                if entry.suffix in _SUFFIXES
            ]
        except OSError:
            return []

    def _enforce_budget(self) -> None:
        if self.max_bytes is not None:
            self.gc(self.max_bytes)

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used artefacts down to ``max_bytes``.

        ``max_bytes`` defaults to the store's configured budget; with both
        unset this is a no-op.  Returns how many files were removed.
        Ordering is by access time (``st_atime``; hits touch their file), so
        hot snapshots survive cold ones regardless of build order.
        """
        budget = max_bytes if max_bytes is not None else self.max_bytes
        if budget is None:
            return 0
        entries = []
        total = 0
        for path in self._artefacts():
            try:
                status = path.stat()
            except OSError:
                continue
            entries.append((status.st_atime, status.st_mtime, status.st_size, path))
            total += status.st_size
        entries.sort()  # oldest access first = least recently used
        removed = 0
        for _, _, size, path in entries:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            with self._lock:
                self._evictions += 1
        return removed

    def clear(self) -> int:
        """Delete every artefact file; returns how many were removed."""
        removed = 0
        for path in self._artefacts():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # -------------------------------------------------------------- inspection
    def total_bytes(self) -> int:
        """Current on-disk footprint across snapshots and spilled answers."""
        total = 0
        for path in self._artefacts():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def file_counts(self) -> dict[str, int]:
        """How many artefacts of each kind are on disk."""
        counts = {"trees": 0, "answers": 0}
        for path in self._artefacts():
            if path.suffix == TREE_SUFFIX:
                counts["trees"] += 1
            else:
                counts["answers"] += 1
        return counts

    def __len__(self) -> int:
        return len(self._artefacts())

    @property
    def stats(self) -> SnapshotStats:
        """Snapshot of this instance's counters."""
        with self._lock:
            return SnapshotStats(
                tree_hits=self._tree_hits,
                tree_misses=self._tree_misses,
                tree_stores=self._tree_stores,
                answer_hits=self._answer_hits,
                answer_misses=self._answer_misses,
                answer_stores=self._answer_stores,
                invalid=self._invalid,
                evictions=self._evictions,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotStore({str(self.directory)!r}, max_bytes={self.max_bytes})"
