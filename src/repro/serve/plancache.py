"""Persistent, content-addressed cache of compiled query plans.

Compiling a query is the expensive half of the paper's pipeline: parse the
Core XPath 2.0 syntax, check Definition 1, build the Fig. 7 HCL⁻(PPLbin)
translation and (when variable free) the Fig. 4 PPLbin form.  The result is
a document-independent :class:`repro.api.Query` value — exactly the thing a
server wants to keep across restarts so warm starts answer immediately
instead of recompiling the whole workload.

:class:`PlanCache` stores compiled plans on disk:

* **content-addressed** — the filename is a SHA-256 over the cache format
  version, the expression text, the output-variable tuple and the engine
  label, so a plan can never be served for the wrong source text and a
  format bump silently invalidates every old file;
* **versioned + corruption-tolerant** — payloads carry the format version
  and the addressing fields *inside* the pickle; any load failure
  (truncated file, foreign bytes, version or text mismatch) counts as a
  miss, deletes the offending file, and falls back to compilation — a
  corrupted cache can cost time, never correctness;
* **byte-budgeted** — an optional LRU budget over the ``.plan`` files,
  enforced on every store by deleting least-recently-*used* plans (hits
  touch their file);
* **stack-safe** — serialisation rides on :class:`repro.api.Query`'s
  depth-robust pickling, so arbitrarily deep plans round-trip.

The storage rules themselves — addressing, loads, atomic writes, the LRU
budget and housekeeping — are :class:`repro.diskstore.DiskStore`'s, shared
with :class:`repro.snapshot.store.SnapshotStore`; this module keeps only
what is a plan's own: its key fields, its payload and its counters.  Both
stores may share one directory: each counts and evicts only its own files.

The cache is wired into serving through
:meth:`repro.serve.server.CorpusServer`, and into ad-hoc compilation through
:meth:`PlanCache.get_or_compile`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.api.query import Query, compile_query
from repro.diskstore import DiskStore
from repro.obs import trace as _trace

#: Bump when the payload layout (or anything pickled inside it) changes
#: incompatibly; old files then miss by key and are evicted by budget.
FORMAT_VERSION = 1

#: Default engine label when a plan is not tied to a particular backend
#: (compiled Query values carry every translation, so most callers share).
ANY_ENGINE = "any"

_SUFFIX = ".plan"


@dataclass(frozen=True)
class PlanCacheStats:
    """Counters for one cache instance (not persisted across processes)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalid: int = 0

    def to_dict(self) -> dict:
        return asdict(self)




class PlanCache(DiskStore):
    """On-disk LRU cache of compiled :class:`repro.api.Query` plans.

    Parameters
    ----------
    directory:
        Where the ``<sha256>.plan`` files live; created on first use.
    max_bytes:
        Total byte budget over the plan files (``None`` = unbounded).
    """

    _suffixes = (_SUFFIX,)

    # ------------------------------------------------------------------- keys
    @staticmethod
    def key(
        expression: str, variables: Sequence[str] = (), engine: str = ANY_ENGINE
    ) -> str:
        """The content address of one plan: SHA-256 hex over the identity.

        The digest covers the cache format version, the exact expression
        text, the output-variable tuple and the engine label, in a framing
        (JSON) that cannot collide across fields.
        """
        return DiskStore._address(FORMAT_VERSION, expression, list(variables), engine)

    def path_for(
        self, expression: str, variables: Sequence[str] = (), engine: str = ANY_ENGINE
    ) -> Path:
        """The file a plan for this identity would be stored at."""
        return self.directory / (self.key(expression, variables, engine) + _SUFFIX)

    @staticmethod
    def _identity(text: str, variables: Sequence[str], engine: str) -> dict:
        return dict(format=FORMAT_VERSION, text=text, variables=list(variables), engine=engine)

    # ------------------------------------------------------------------ loads
    def load(
        self, expression: str, variables: Sequence[str] = (), engine: str = ANY_ENGINE
    ) -> Optional[Query]:
        """Return the cached plan, or ``None`` on miss *or any* load failure.

        Never raises for cache trouble: unreadable, truncated, foreign,
        version-skewed or mismatched files are deleted (best-effort) and
        reported as a miss, so a damaged cache degrades to cold compilation.
        """
        path = self.path_for(expression, variables, engine)
        identity = self._identity(expression, variables, engine)
        return self._load_pickle(path, identity, "query", Query, key=expression, site="plan_cache")

    def store(
        self,
        query: Query,
        *,
        expression: Optional[str] = None,
        engine: str = ANY_ENGINE,
    ) -> Path:
        """Persist a compiled plan; returns the file written.

        ``expression`` defaults to ``query.unparse()`` — pass the original
        text explicitly when it must match later ``load`` lookups verbatim.
        """
        text = expression if expression is not None else query.unparse()
        path = self.path_for(text, query.variables, engine)
        identity = self._identity(text, query.variables, engine)
        return self._store_pickle(path, identity, "query", query)

    def get_or_compile(
        self,
        expression: str,
        variables: Sequence[str] = (),
        *,
        engine: str = ANY_ENGINE,
        require_ppl: bool = False,
    ) -> Query:
        """One-stop compilation through the cache: load, else compile + store."""
        with _trace.span("plan_cache.lookup") as lookup:
            cached = self.load(expression, variables, engine)
            lookup.set(hit=cached is not None)
        if cached is not None:
            return cached
        with _trace.span("compile"):
            query = compile_query(expression, tuple(variables), require_ppl=require_ppl)
        self.store(query, expression=expression, engine=engine)
        return query

    # -------------------------------------------------------------- housekeeping
    def clear(self) -> int:
        """Delete every plan file; returns how many were removed."""
        return self._clear()

    def total_bytes(self) -> int:
        """Current on-disk footprint of the plan files."""
        return self._total_bytes()

    @property
    def stats(self) -> PlanCacheStats:
        """Snapshot of this instance's counters."""
        return self._stats(PlanCacheStats)
