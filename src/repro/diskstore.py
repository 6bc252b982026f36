"""One content-addressed artefact directory: the storage rules, written once.

Theorem 1 splits answering into a document-independent compile and
per-document work, and the repository persists both halves across restarts:
compiled plans (:class:`repro.serve.plancache.PlanCache`) and indexed trees
plus spilled first answers (:class:`repro.snapshot.store.SnapshotStore`).
Both are typed views over :class:`DiskStore`, which owns every rule about
the files themselves:

* **addressing** — a file name is SHA-256 over a JSON-framed identity whose
  first field is a format version, so fields cannot collide and a version
  bump re-addresses (and so invalidates) every old file;
* **loads** — an absent file is a plain miss; an injected ``corrupt_read``
  fault is a miss that keeps the healthy file; a damaged, truncated,
  version-skewed or identity-mismatched file is a miss that counts
  ``invalid`` and deletes the file — a damaged store costs time, never
  correctness; a hit ``os.utime``-touches its file;
* **writes** — :func:`write_atomic`: a temp file unique per process *and*
  thread, then ``os.replace``, so concurrent writers of one path (server
  threads, shard worker processes) never rename each other's temp file away;
* **byte budget** — one LRU over the store's own suffixes, evicting the
  oldest access time first (then modification time); every hit touches its
  file, so this is least-recently-*used*;
* **housekeeping** — clearing, footprint and file count cover only the
  store's own suffixes, so a plan cache and a snapshot store can share one
  directory; one lock guards the counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro import faults
from repro.errors import FaultInjectedError


def write_atomic(path: Union[str, Path], payload: bytes) -> None:
    """Write ``payload`` to ``path``; readers see the old bytes or the new, never a mix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique per writer thread *and* process: two writers of one path must
    # not rename each other's temp file away mid-replace.
    temporary = path.with_suffix(".tmp-%d-%d" % (os.getpid(), threading.get_ident()))
    temporary.write_bytes(payload)
    os.replace(temporary, path)


class DiskStore:
    """Base of the on-disk stores; subclasses name their ``_suffixes``.

    Every helper is private, so a view exposes only its own typed methods.
    Counters live in one :class:`collections.Counter` keyed by the field
    names of the view's stats dataclass (``kind`` prefixes such as
    ``"tree_"`` select the per-kind hit/miss/store fields).
    """

    _suffixes: tuple[str, ...] = ()

    def __init__(
        self, directory: Union[str, Path], *, max_bytes: Optional[int] = None
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative (or None for unbounded)")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._counts: Counter = Counter()

    @staticmethod
    def _address(*identity: Any) -> str:
        """SHA-256 hex over the JSON-framed identity (format version first)."""
        framed = json.dumps(list(identity), separators=(",", ":"))
        return hashlib.sha256(framed.encode("utf-8")).hexdigest()

    def _count(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def _stats(self, stats_type: type) -> Any:
        with self._lock:
            return stats_type(**{f.name: self._counts[f.name] for f in fields(stats_type)})

    # ------------------------------------------------------------------ loads
    def _load(
        self, path: Path, decode: Callable[[Path], Any], *, key: str, site: str, kind: str = ""
    ) -> Optional[Any]:
        """``decode(path)``, or ``None`` on a miss; never raises for store trouble."""
        if not path.is_file():
            self._count(kind + "misses")
            return None
        try:
            faults.trip("corrupt_read", key=key, site=site)
            value = decode(path)
        except FaultInjectedError:
            self._count(kind + "misses")  # injected: the file itself is fine
            return None
        except Exception as error:
            if not isinstance(error, FileNotFoundError):  # not a racing eviction
                self._count("invalid")
                self._unlink(path)
            self._count(kind + "misses")
            return None
        self._count(kind + "hits")
        try:
            os.utime(path)
        except OSError:
            pass
        return value

    def _load_pickle(
        self, path: Path, identity: dict, body: str, body_type: type, **load: str
    ) -> Optional[Any]:
        """Load a pickled dict whose ``identity`` fields, as stored, must match exactly."""

        def decode(path: Path) -> Any:
            payload = pickle.loads(path.read_bytes())
            if not isinstance(payload, dict) or {
                name: payload.get(name) for name in identity
            } != identity:
                raise ValueError(f"{path.suffix} payload version or identity mismatch")
            if not isinstance(payload.get(body), body_type):
                raise ValueError(f"{path.suffix} payload holds no {body_type.__name__}")
            return payload[body]

        return self._load(path, decode, **load)

    # ----------------------------------------------------------------- writes
    def _store(self, path: Path, payload: bytes, kind: str = "") -> Path:
        write_atomic(path, payload)
        self._count(kind + "stores")
        self._evict(self.max_bytes)
        return path

    def _store_pickle(
        self, path: Path, identity: dict, body: str, value: Any, kind: str = ""
    ) -> Path:
        payload = pickle.dumps({**identity, body: value}, protocol=pickle.HIGHEST_PROTOCOL)
        return self._store(path, payload, kind)

    # ----------------------------------------------------------- housekeeping
    def _files(self) -> list[Path]:
        try:
            return [entry for entry in self.directory.iterdir() if entry.suffix in self._suffixes]
        except OSError:
            return []

    def _entries(self) -> list[tuple[float, float, int, Path]]:
        """``(atime, mtime, size, path)`` of each file still present."""
        entries = []
        for path in self._files():
            try:
                status = path.stat()
            except OSError:
                continue  # removed since listing
            entries.append((status.st_atime, status.st_mtime, status.st_size, path))
        return entries

    @staticmethod
    def _unlink(path: Path) -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def _evict(self, budget: Optional[int]) -> int:
        """Delete least-recently-used files until the total fits ``budget``."""
        if budget is None:
            return 0
        entries = sorted(self._entries())  # oldest access first = least recently used
        total = sum(size for _, _, size, _ in entries)
        removed = 0
        for _, _, size, path in entries:
            if total <= budget:
                break
            if self._unlink(path):
                total -= size
                removed += 1
                self._count("evictions")
        return removed

    def _clear(self) -> int:
        return sum(self._unlink(path) for path in self._files())

    def _total_bytes(self) -> int:
        return sum(size for _, _, size, _ in self._entries())

    def __len__(self) -> int:
        return len(self._files())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.directory)!r}, max_bytes={self.max_bytes})"
