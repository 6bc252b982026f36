"""Execution and serving policies: one precedence chain for every knob.

Before PR 5, engine choice, kernel selection, worker strategy and cache
budgets were wired through a different mix of keyword arguments, ``REPRO_*``
environment variables and CLI flags in each of the three front doors
(``Document.answer``, ``CorpusExecutor``, ``CorpusServer``).  This module
replaces the ad-hoc lookups with two frozen dataclasses and one documented
rule:

    **explicit argument  >  policy field  >  environment  >  default**

:class:`ExecutionPolicy` carries everything that shapes *how a query runs*
(engine, kernel, strategy, worker counts, cache byte budgets, timeout);
:class:`ServingPolicy` carries everything that shapes *how a server admits
work* (concurrency, admission queue, stream buffers, auth, per-client
quotas, request size limits).  Both are immutable: a policy handed to a
:class:`repro.session.Session` can never change under it, and tests can
assert on exactly what was resolved — :meth:`ExecutionPolicy.explain`
reports each field's value *and where it came from*.

Unset fields use the :data:`UNSET` sentinel (not ``None``) wherever ``None``
is itself a meaningful value (e.g. ``answer_cache_bytes=None`` means an
unbounded cache, while ``UNSET`` means "fall through to the environment").
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Optional

#: The "not specified" sentinel used by policy fields where ``None`` is a
#: meaningful explicit value (unbounded budgets, process-default kernel).
#: One shared object across the whole stack — see :mod:`repro._config`.
from repro._config import UNSET
from repro.obs.http import OBS_PORT_ENV

# ------------------------------------------------------------- environment
#: Environment variables of the execution chain, one per policy field.
#: ``REPRO_KERNEL`` and ``REPRO_MATRIX_CACHE_BYTES`` predate this module:
#: :mod:`repro.pplbin.bitmatrix` still reads the first for its process-wide
#: default, and :mod:`repro.trees.tree` resolves a tree's default matrix
#: budget through :data:`DEFAULT_EXECUTION`; the rest are new with the
#: Session API.
ENGINE_ENV = "REPRO_ENGINE"
KERNEL_ENV = "REPRO_KERNEL"
STRATEGY_ENV = "REPRO_STRATEGY"
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"
MAX_RESIDENT_ENV = "REPRO_MAX_RESIDENT"
ANSWER_CACHE_BYTES_ENV = "REPRO_ANSWER_CACHE_BYTES"
MATRIX_CACHE_BYTES_ENV = "REPRO_MATRIX_CACHE_BYTES"
PLAN_CACHE_DIR_ENV = "REPRO_PLAN_CACHE"
PLAN_CACHE_BYTES_ENV = "REPRO_PLAN_CACHE_BYTES"
SNAPSHOT_DIR_ENV = "REPRO_SNAPSHOT_DIR"
SNAPSHOT_BYTES_ENV = "REPRO_SNAPSHOT_BYTES"
TIMEOUT_ENV = "REPRO_TIMEOUT"
TRACE_ENV = "REPRO_TRACE"
TRACE_SAMPLE_ENV = "REPRO_TRACE_SAMPLE"
SLOW_QUERY_SECONDS_ENV = "REPRO_SLOW_QUERY_SECONDS"
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
ON_ERROR_ENV = "REPRO_ON_ERROR"
MAX_WORKER_RESTARTS_ENV = "REPRO_MAX_WORKER_RESTARTS"
RESTART_BACKOFF_ENV = "REPRO_RESTART_BACKOFF"

#: Serving environment fallbacks: the cluster topology and the
#: ``REPRO_OBS_PORT`` scrape target are deployment configuration rather than
#: admission behaviour, so they are the (only) serving knobs read from the
#: environment — at *server/supervisor/CLI start*, when the matching
#: :class:`ServingPolicy` field is ``None``, under the usual explicit >
#: policy > env > default precedence (see :func:`resolve_serving_field`).
CLUSTER_MEMBERS_ENV = "REPRO_CLUSTER_MEMBERS"
CLUSTER_PLACEMENT_ENV = "REPRO_CLUSTER_PLACEMENT"
CLUSTER_AUTOTUNE_ENV = "REPRO_CLUSTER_AUTOTUNE"

_ENV_OF_FIELD = {
    "engine": ENGINE_ENV,
    "kernel": KERNEL_ENV,
    "strategy": STRATEGY_ENV,
    "max_workers": MAX_WORKERS_ENV,
    "max_resident": MAX_RESIDENT_ENV,
    "answer_cache_bytes": ANSWER_CACHE_BYTES_ENV,
    "matrix_cache_bytes": MATRIX_CACHE_BYTES_ENV,
    "plan_cache_dir": PLAN_CACHE_DIR_ENV,
    "plan_cache_bytes": PLAN_CACHE_BYTES_ENV,
    "snapshot_dir": SNAPSHOT_DIR_ENV,
    "snapshot_bytes": SNAPSHOT_BYTES_ENV,
    "timeout": TIMEOUT_ENV,
    "trace": TRACE_ENV,
    "trace_sample": TRACE_SAMPLE_ENV,
    "slow_query_seconds": SLOW_QUERY_SECONDS_ENV,
    "max_retries": MAX_RETRIES_ENV,
    "retry_backoff": RETRY_BACKOFF_ENV,
    "on_error": ON_ERROR_ENV,
    "max_worker_restarts": MAX_WORKER_RESTARTS_ENV,
    "restart_backoff": RESTART_BACKOFF_ENV,
}

_INT_FIELDS = frozenset(
    {
        "max_workers",
        "max_resident",
        "answer_cache_bytes",
        "matrix_cache_bytes",
        "plan_cache_bytes",
        "snapshot_bytes",
        "max_retries",
        "max_worker_restarts",
    }
)
_FLOAT_FIELDS = frozenset(
    {"timeout", "trace_sample", "slow_query_seconds", "retry_backoff", "restart_backoff"}
)
_BOOL_FIELDS = frozenset({"trace"})
#: Integer fields where ``0`` is a real value (no retries / no restarts),
#: not the "unbounded/auto" convention of the byte-budget fields.
_ZERO_MEANS_ZERO = frozenset({"max_retries", "max_worker_restarts"})
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def _coerce_env(field: str, raw: str) -> Any:
    """Parse an environment value for ``field`` (int/float fields numeric).

    For byte-budget and worker-count fields an empty string or ``0`` means
    "unbounded"/"auto" (``None``), matching the pre-existing convention of
    ``REPRO_MATRIX_CACHE_BYTES``; the retry/restart budgets treat ``0`` as
    a literal zero (retries and respawns disabled).  Boolean fields accept
    ``1/true/yes/on`` (case-insensitive); anything else is false.
    """
    raw = raw.strip()
    if field in _BOOL_FIELDS:
        return raw.lower() in _TRUTHY
    if field in _INT_FIELDS:
        if not raw or (raw == "0" and field not in _ZERO_MEANS_ZERO):
            return None
        return int(raw)
    if field in _FLOAT_FIELDS:
        if not raw:
            return None
        return float(raw)
    return raw or None


@dataclass(frozen=True)
class Resolved:
    """One resolved knob: the value plus the precedence layer that won.

    ``source`` is one of ``"explicit"``, ``"policy"``, ``"env"`` or
    ``"default"`` — the regression tests for the precedence chain assert on
    it directly instead of reverse-engineering the winner from behaviour.
    """

    value: Any
    source: str


def _resolve(field: str, explicit: Any, policy_value: Any, default: Any) -> Resolved:
    """Apply the documented chain for one field."""
    if explicit is not UNSET and explicit is not None:
        return Resolved(explicit, "explicit")
    if policy_value is not UNSET:
        return Resolved(policy_value, "policy")
    env_name = _ENV_OF_FIELD.get(field)
    if env_name is not None:
        raw = os.environ.get(env_name)
        if raw is not None:
            return Resolved(_coerce_env(field, raw), "env")
    return Resolved(default, "default")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How queries execute: engine, kernel, workers, budgets, timeout.

    Every field defaults to :data:`UNSET` ("not specified"), in which case
    the matching ``REPRO_*`` environment variable applies, then the built-in
    default.  An explicit per-call argument (e.g. ``engine=`` on
    :meth:`repro.session.Session.query`) always wins over all of these —
    including inside worker subprocesses, which receive the resolved values
    rather than re-reading the environment on spawn.

    Fields
    ------
    engine:
        Registry key of the default backend (default ``"polynomial"``).
    kernel:
        Matrix-kernel name for the Theorem 2 evaluator (``dense`` /
        ``bitset`` / ``sparse`` / ``adaptive``); ``None`` means the process
        default (which itself honours ``REPRO_KERNEL``).
    strategy:
        Corpus execution strategy (``serial`` / ``processes``, default
        ``serial``).
    max_workers:
        Shard count of the ``processes`` strategy (``None`` = automatic).
    max_resident:
        LRU bound on concurrently materialised documents (``None`` =
        unbounded).
    cache_answers:
        Whether store-managed documents memoise answer sets (default true).
    answer_cache_bytes:
        Byte budget of the corpus-wide answer cache (``None`` = unbounded;
        default 64 MiB, :data:`repro.corpus.store.DEFAULT_ANSWER_CACHE_BYTES`).
    matrix_cache_bytes:
        Per-tree matrix cache budget (``None`` = unbounded; default 256 MiB).
    plan_cache_dir:
        Directory of the persistent compiled-plan cache (``None`` = no
        persistence; compiled plans still memoise in memory per session).
    plan_cache_bytes:
        LRU byte budget of the persistent plan cache.
    snapshot_dir:
        Directory of the on-disk columnar snapshot store (``None`` = no
        snapshots; documents always parse from source).  When set, document
        stores prefer memmap-loadable snapshots over XML parsing and spill
        first-evaluation answer sets alongside.
    snapshot_bytes:
        LRU byte budget of the snapshot directory (``None`` = unbounded).
    timeout:
        Per-query-run wall-clock budget in seconds; an exceeded budget
        cancels outstanding work (async) or raises
        :class:`repro.errors.CorpusTimeoutError` (sync corpus runs).
    trace:
        Enable the :mod:`repro.obs.trace` span tracer (default false).
        Like the kernel default, tracing is process-wide: a session built
        with ``trace=True`` calls :func:`repro.obs.trace.set_tracing`.
    trace_sample:
        Probabilistic head-sampling rate in ``[0, 1]`` for always-on
        tracing (``None``/``0`` = off).  Unlike ``trace=True`` (sample
        everything), only this fraction of query roots is published to the
        bounded in-memory trace ring — but every query's span tree is still
        captured thread-locally, so slow-query-log entries carry a full
        exemplar even for unsampled queries.  Applied process-wide via
        :func:`repro.obs.trace.set_trace_sample`.
    slow_query_seconds:
        Threshold of the slow-query log in seconds (``None`` = disabled).
        Queries at or above it are recorded — with their span breakdown
        when tracing is on — in ``Session.slowlog`` and, on servers, the
        ``slowlog`` protocol op.
    max_retries:
        How many times a transiently failing *document* is retried before
        its failure is final (default 0: first error is final, matching the
        pre-supervision behaviour).  Applies to every strategy; under
        ``processes`` a crash-and-redispatch consumes the supervisor's
        restart budget, not this one.
    retry_backoff:
        Base of the exponential retry delay in seconds (attempt *n* sleeps
        ``retry_backoff * 2**(n-1)``; default 0.05).
    on_error:
        What a *final* per-document failure does to the stream:
        ``"raise"`` (default — propagate, aborting the stream),
        ``"record"`` (yield typed error records with empty answer sets and
        keep streaming: partial-results semantics) or ``"skip"`` (drop the
        document silently, counted in metrics).  Quarantined documents
        always surface as error records, whatever this is set to.
    max_worker_restarts:
        Per-shard budget of worker-pool respawns under the ``processes``
        strategy (default 3).  A shard that exhausts it trips the circuit
        breaker: its documents fall back to in-process serial evaluation
        and health reports ``degraded``.
    restart_backoff:
        Base of the exponential respawn delay in seconds, with jitter
        (default 0.1).
    """

    engine: Any = UNSET
    kernel: Any = UNSET
    strategy: Any = UNSET
    max_workers: Any = UNSET
    max_resident: Any = UNSET
    cache_answers: Any = UNSET
    answer_cache_bytes: Any = UNSET
    matrix_cache_bytes: Any = UNSET
    plan_cache_dir: Any = UNSET
    plan_cache_bytes: Any = UNSET
    snapshot_dir: Any = UNSET
    snapshot_bytes: Any = UNSET
    timeout: Any = UNSET
    trace: Any = UNSET
    trace_sample: Any = UNSET
    slow_query_seconds: Any = UNSET
    max_retries: Any = UNSET
    retry_backoff: Any = UNSET
    on_error: Any = UNSET
    max_worker_restarts: Any = UNSET
    restart_backoff: Any = UNSET

    # ------------------------------------------------------------ composition
    def override(self, **explicit: Any) -> "ExecutionPolicy":
        """Return a policy with the given *specified* fields replaced.

        This is how explicit constructor arguments fold into a policy while
        preserving precedence: only arguments that were actually given
        (not ``None``/:data:`UNSET`) replace the field.  ``cache_answers``
        accepts explicit booleans.
        """
        changes = {
            name: value
            for name, value in explicit.items()
            if value is not None and value is not UNSET
        }
        return dataclasses.replace(self, **changes) if changes else self

    # -------------------------------------------------------------- resolution
    def resolve(self, field: str, explicit: Any = UNSET) -> Resolved:
        """Resolve one field through explicit > policy > env > default."""
        defaults = _EXECUTION_DEFAULTS
        if field not in defaults:
            raise ValueError(f"unknown execution-policy field {field!r}")
        return _resolve(field, explicit, getattr(self, field), defaults[field])

    def resolved(self, field: str, explicit: Any = UNSET) -> Any:
        """Shorthand for ``resolve(...).value``."""
        return self.resolve(field, explicit).value

    def explain(self) -> dict[str, Resolved]:
        """The full resolution table: every field's value and winning layer."""
        return {name: self.resolve(name) for name in _EXECUTION_DEFAULTS}


#: The policy that pins nothing: its resolutions are env > default.  A tree
#: built without an explicit matrix budget takes ``matrix_cache_bytes`` from
#: it, so that budget follows the same chain (and ``explain()``) as every
#: other knob.
DEFAULT_EXECUTION = ExecutionPolicy()


def _execution_defaults() -> dict[str, Any]:
    # Imported lazily: policy must stay importable without dragging the
    # whole engine stack in (worker subprocesses import it early).
    from repro.api.registry import DEFAULT_ENGINE
    from repro.corpus.store import DEFAULT_ANSWER_CACHE_BYTES
    from repro.trees.tree import DEFAULT_MATRIX_CACHE_BYTES

    return {
        "engine": DEFAULT_ENGINE,
        "kernel": None,
        "strategy": "serial",
        "max_workers": None,
        "max_resident": None,
        "cache_answers": True,
        "answer_cache_bytes": DEFAULT_ANSWER_CACHE_BYTES,
        "matrix_cache_bytes": DEFAULT_MATRIX_CACHE_BYTES,
        "plan_cache_dir": None,
        "plan_cache_bytes": None,
        "snapshot_dir": None,
        "snapshot_bytes": None,
        "timeout": None,
        "trace": False,
        "trace_sample": None,
        "slow_query_seconds": None,
        "max_retries": 0,
        "retry_backoff": 0.05,
        "on_error": "raise",
        "max_worker_restarts": 3,
        "restart_backoff": 0.1,
    }


class _LazyDefaults:
    """Mapping view over :func:`_execution_defaults`, computed on first use."""

    def __init__(self) -> None:
        self._table: Optional[dict[str, Any]] = None

    def _load(self) -> dict[str, Any]:
        if self._table is None:
            self._table = _execution_defaults()
        return self._table

    def __contains__(self, field: str) -> bool:
        return field in self._load()

    def __getitem__(self, field: str) -> Any:
        return self._load()[field]

    def __iter__(self):
        return iter(self._load())


_EXECUTION_DEFAULTS = _LazyDefaults()


@dataclass(frozen=True)
class ServingPolicy:
    """How a server admits and protects work: concurrency, quotas, auth.

    Unlike :class:`ExecutionPolicy`, serving knobs have no environment
    layer — a server's admission behaviour should be explicit in the code
    or config that starts it, never ambient — so fields carry their real
    defaults directly.

    Fields
    ------
    max_concurrent:
        Documents evaluated at once, server-wide (semaphore width).
    max_queue:
        Admitted-but-unfinished document bound; overflowing submissions are
        rejected with a typed ``overloaded`` error while other work pends.
    stream_buffer:
        Per-submission result queue size (per-client backpressure).
    abandon_grace:
        Seconds a full, unread stream queue survives during drain before
        being treated as abandoned and cancelled.
    auth_token:
        When set, every NDJSON request must carry ``"auth": <token>``;
        requests without it get a typed ``unauthorized`` error line.
    max_submissions_per_client:
        Per-connection bound on concurrently active submissions (``None`` =
        unbounded); exceeding it is a typed ``overloaded`` rejection.
    max_request_bytes:
        NDJSON request-line size limit (the stream reader's buffer bound).
    obs_port:
        TCP port of the stdlib HTTP observability endpoint
        (``/metrics``, ``/healthz``, ``/slowlog.json``, ``/traces.ndjson``)
        the server starts alongside the NDJSON protocol; ``None`` = no
        endpoint, ``0`` = bind an ephemeral port.  Like the cluster fields
        below, this is a serving knob with an environment fallback —
        ``REPRO_OBS_PORT`` is read at server/CLI start when the field is
        ``None``, because scrape targets are deployment configuration in a
        way admission limits are not.
    cluster_members:
        Member-process count of the shared-nothing serving cluster
        (:class:`repro.cluster.ClusterSupervisor`); ``None`` falls through
        to ``REPRO_CLUSTER_MEMBERS``, then the supervisor's default.
        Cluster topology is deployment configuration (the same argument as
        ``obs_port``), hence the env fallback.
    placement:
        Shard-placement strategy of the cluster supervisor: ``"cost"``
        (greedy balanced partitioning over measured per-document cost,
        the default) or ``"round_robin"``; ``None`` falls through to
        ``REPRO_CLUSTER_PLACEMENT``.
    autotune:
        Whether the supervisor autotunes each member's ``max_concurrent``
        (AIMD on the windowed p95 queue wait); ``None`` falls through to
        ``REPRO_CLUSTER_AUTOTUNE`` (``1/true/yes/on``), then the default
        (on).
    """

    max_concurrent: int = 4
    max_queue: int = 256
    stream_buffer: int = 16
    abandon_grace: float = 5.0
    auth_token: Optional[str] = None
    max_submissions_per_client: Optional[int] = None
    max_request_bytes: int = 16 * 1024 * 1024
    obs_port: Optional[int] = None
    cluster_members: Optional[int] = None
    placement: Optional[str] = None
    autotune: Optional[bool] = None

    def override(self, **explicit: Any) -> "ServingPolicy":
        """Return a policy with the given specified fields replaced."""
        changes = {
            name: value for name, value in explicit.items() if value is not None
        }
        return dataclasses.replace(self, **changes) if changes else self


#: Environment variable and coercion of each serving field with an env fallback.
_SERVING_ENV_OF_FIELD = {
    "obs_port": (OBS_PORT_ENV, "int"),
    "cluster_members": (CLUSTER_MEMBERS_ENV, "int"),
    "placement": (CLUSTER_PLACEMENT_ENV, "str"),
    "autotune": (CLUSTER_AUTOTUNE_ENV, "bool"),
}


def resolve_serving_field(
    policy: Optional[ServingPolicy],
    field: str,
    explicit: Any = None,
    default: Any = None,
) -> Resolved:
    """Resolve one serving knob with an env fallback: explicit > policy > env > default.

    These are the serving fields with a documented environment fallback —
    ``obs_port`` (``REPRO_OBS_PORT``) and the cluster fields
    (``REPRO_CLUSTER_*``): scrape targets and cluster topology are
    deployment configuration.  A malformed integer resolves to ``default``.
    Resolution happens once, at server/supervisor/CLI start, never
    ambiently per request.
    """
    if field not in _SERVING_ENV_OF_FIELD:
        raise ValueError(f"unknown env-backed serving field {field!r}")
    if explicit is not None and explicit is not UNSET:
        return Resolved(explicit, "explicit")
    policy_value = getattr(policy, field, None) if policy is not None else None
    if policy_value is not None:
        return Resolved(policy_value, "policy")
    env_name, kind = _SERVING_ENV_OF_FIELD[field]
    raw = os.environ.get(env_name)
    if raw is not None and raw.strip():
        raw = raw.strip()
        if kind == "int":
            try:
                return Resolved(int(raw), "env")
            except ValueError:
                pass  # malformed deployment config: fall through to default
        elif kind == "bool":
            return Resolved(raw.lower() in _TRUTHY, "env")
        else:
            return Resolved(raw, "env")
    return Resolved(default, "default")
