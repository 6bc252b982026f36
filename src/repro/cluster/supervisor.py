"""The cluster supervisor: spawn, place, tune, scrape, respawn.

:class:`ClusterSupervisor` owns everything that is *cluster-wide*:

- the shared public listener(s) — one ``SO_REUSEPORT`` socket per member
  when the platform supports it, else **one** supervisor-bound listener
  duplicated into every member (logged as a warning, never a raw bind
  error);
- the member processes (:func:`repro.cluster.member.member_main` via
  ``multiprocessing``), respawned with an incremented *incarnation* when
  they die;
- the placement (:mod:`repro.cluster.placement`): file-size priors seed
  the cost model, members' observed per-document latencies refine it, and
  a bounded-move :func:`~repro.cluster.placement.rebalance` re-plans on a
  slow cadence (and immediately after membership events);
- the per-member concurrency autotune
  (:class:`repro.cluster.autotune.AIMDController` over windowed queue-wait
  p95 from scrape-to-scrape histogram diffs);
- the merged observability surface: a control thread scrapes every
  member's ``cluster.describe`` op, folds the payloads tolerantly (a dead
  or half-written member becomes a ``repro_cluster_members_unreachable_total``
  increment, never a crash), and exposes ``/metrics``, ``/healthz`` and
  ``/cluster.json`` over its own :class:`repro.obs.http.ObsHTTPServer`.

The supervisor is deliberately synchronous (threads, plain sockets): it
never sits on a member's event loop, and its failure modes stay separate
from serving's.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.obs.http import ObsHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.session.policy import ServingPolicy, resolve_serving_field
from repro.cluster.autotune import AIMDController, DEFAULT_TARGET_P95
from repro.cluster.member import MemberConfig, member_main
from repro.cluster.placement import (
    DEFAULT_MOVE_BUDGET,
    CostModel,
    PlacementPlan,
    STRATEGIES,
    greedy_partition,
    rebalance,
    round_robin_partition,
)

logger = logging.getLogger("repro.cluster")

#: Seconds between control-loop ticks (scrape + autotune).
DEFAULT_CONTROL_INTERVAL = 1.0

#: Re-plan placement every N control ticks (plus immediately on membership
#: events); churn is bounded by the move budget regardless.
REBALANCE_EVERY_TICKS = 5

#: Name of the unreachable-members counter on the merged /metrics surface.
UNREACHABLE_METRIC = "repro_cluster_members_unreachable_total"


class ClusterError(ReproError):
    """Raised for cluster supervision failures (spawn, handshake, config)."""


def control_request(
    host: str, port: int, payload: dict, *, timeout: float = 5.0
) -> dict:
    """One synchronous NDJSON control round-trip (single reply line)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        with sock.makefile("rb") as stream:
            line = stream.readline()
    if not line:
        raise ConnectionError(f"no reply from {host}:{port}")
    reply = json.loads(line)
    if reply.get("type") == "error":
        raise ClusterError(
            f"control op {payload.get('op')!r} failed: {reply.get('error')}"
        )
    return reply


def merge_member_metrics(
    payloads: dict[str, Optional[dict]]
) -> tuple[MetricsRegistry, int]:
    """Fold per-member ``cluster.describe`` payloads into one registry.

    Tolerant by design — this runs against processes that can die between
    the connect and the read: a ``None`` payload (unreachable member), a
    payload without a usable ``metrics`` dict, or a metrics dict the
    registry rejects (truncated mid-write, histogram bounds mismatch) all
    count that member as unreachable for this scrape and contribute
    nothing.  Each member merges atomically: the payload is folded into a
    trial registry first, so a family that fails partway through (say the
    second histogram's bounds mismatch, after its counters merged fine)
    cannot leave half a member's series in the result.  Returns the merged
    registry and the unreachable count; never raises for malformed member
    data.
    """
    registry = MetricsRegistry()
    unreachable = 0
    for _member_id, payload in sorted(payloads.items()):
        if not isinstance(payload, dict):
            unreachable += 1
            continue
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            unreachable += 1
            continue
        trial = MetricsRegistry()
        try:
            trial.merge(registry)
            trial.merge(metrics)
        except Exception:  # noqa: BLE001 - any poisoned payload counts, only
            unreachable += 1
            continue
        registry = trial
    return registry, unreachable


def queue_wait_histogram(payload: Optional[dict]) -> Optional[dict]:
    """The raw queue-wait histogram (bounds + counts) of one describe payload.

    This is the autotune's input: :class:`~repro.cluster.autotune.
    HistogramWindow` needs bucket snapshots to diff, not the quantile
    summary ``stats.queue_wait`` carries.  Prefers the member's dedicated
    ``queue_wait_hist`` field, falling back to the
    ``repro_request_queue_wait_seconds`` series inside the ``metrics``
    dict; returns ``None`` when neither is usable (unreachable member, or
    a payload from before the histogram saw traffic).
    """
    if not isinstance(payload, dict):
        return None
    candidates = [payload.get("queue_wait_hist")]
    metrics = payload.get("metrics")
    if isinstance(metrics, dict):
        candidates.append(metrics.get("repro_request_queue_wait_seconds"))
    for hist in candidates:
        if isinstance(hist, dict) and "bounds" in hist and "counts" in hist:
            return hist
    return None


@dataclass
class MemberHandle:
    """Supervisor-side state of one member slot."""

    member_id: str
    sock: socket.socket
    process: Optional[multiprocessing.Process] = None
    incarnation: int = -1
    internal_port: Optional[int] = None
    pid: Optional[int] = None
    max_concurrent: int = 0
    restarts: int = 0
    last_describe: Optional[dict] = field(default=None, repr=False)
    last_seen: Optional[float] = None
    ready_conn: Optional[object] = field(default=None, repr=False)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ClusterSupervisor:
    """Spawn and steer a shared-nothing serving cluster over one corpus.

    Parameters follow the documented precedence for the three cluster
    knobs: explicit argument > ``ServingPolicy`` field > ``REPRO_CLUSTER_*``
    environment variable > default (2 members, ``cost`` placement, autotune
    on).  ``reuseport`` forces the listener mode: ``None`` probes the
    platform, ``False`` exercises the single-listener fallback explicitly
    (tests do), ``True`` fails hard if the platform cannot do it.
    """

    def __init__(
        self,
        corpus_dir,
        *,
        pattern: str = "*.xml",
        host: str = "127.0.0.1",
        port: int = 0,
        members: Optional[int] = None,
        placement: Optional[str] = None,
        autotune: Optional[bool] = None,
        move_budget: int = DEFAULT_MOVE_BUDGET,
        serving: Optional[ServingPolicy] = None,
        engine: Optional[str] = None,
        strategy: Optional[str] = None,
        max_workers: Optional[int] = None,
        kernel: Optional[str] = None,
        plan_cache_dir: Optional[str] = None,
        snapshot_dir: Optional[str] = None,
        obs_port: Optional[int] = None,
        control_interval: float = DEFAULT_CONTROL_INTERVAL,
        target_p95: float = DEFAULT_TARGET_P95,
        max_concurrent_ceiling: int = 64,
        reuseport: Optional[bool] = None,
    ) -> None:
        self.corpus_dir = str(corpus_dir)
        self.pattern = pattern
        self.host = host
        self._requested_port = port
        policy = serving if serving is not None else ServingPolicy()
        # The supervisor owns the obs endpoint; members must not inherit it
        # (they also drop REPRO_OBS_PORT from their own environment).
        self.serving = dataclasses.replace(policy, obs_port=None)
        self.member_count = int(
            resolve_serving_field(policy, "cluster_members", members, default=2).value
        )
        if self.member_count < 1:
            raise ClusterError("cluster_members must be at least 1")
        self.placement_strategy = str(
            resolve_serving_field(policy, "placement", placement, default="cost").value
        )
        if self.placement_strategy not in STRATEGIES:
            raise ClusterError(
                f"unknown placement strategy {self.placement_strategy!r}; "
                f"expected one of {', '.join(STRATEGIES)}"
            )
        self.autotune_enabled = bool(
            resolve_serving_field(policy, "autotune", autotune, default=True).value
        )
        self.move_budget = int(move_budget)
        self.engine = engine
        self.strategy = strategy
        self.max_workers = max_workers
        self.kernel = kernel
        self.plan_cache_dir = plan_cache_dir
        self.snapshot_dir = snapshot_dir
        self.control_interval = float(control_interval)
        self.reuseport_requested = reuseport
        self.reuseport_active: Optional[bool] = None
        self.port: Optional[int] = None

        # The serving policy's own obs_port is not consulted: the supervisor
        # takes its endpoint from the argument, then REPRO_OBS_PORT.
        self._obs_port = resolve_serving_field(None, "obs_port", obs_port).value
        self.obs_http: Optional[ObsHTTPServer] = None

        self.cost_model = CostModel()
        self.autotune = AIMDController(
            target_p95=target_p95,
            min_concurrent=1,
            max_concurrent=max_concurrent_ceiling,
        )
        self._members: dict[str, MemberHandle] = {}
        self._plan: Optional[PlacementPlan] = None
        self._plan_version = 0
        self._last_moves: list = []
        self._deferred_moves = 0
        self._known_files: dict[str, float] = {}
        self._unreachable_total = 0
        self._tune_log: list[dict] = []
        self._merged_registry = MetricsRegistry()
        #: Guards everything the obs HTTP thread reads while the control
        #: thread mutates: the plan (+ version/moves), the known-file map,
        #: the cost model, per-member handle fields, the merged registry
        #: and the tune log.  Reentrant so ``status()`` can nest
        #: ``_health_payload()`` under one acquisition.  Never held across
        #: member I/O (spawn, control sockets) — only around state flips.
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._control_thread: Optional[threading.Thread] = None
        self._started = False
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._mp = multiprocessing.get_context()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Bind listeners, spawn every member, broadcast the first placement.

        All-or-nothing: a member that dies before the ready handshake (or
        an observability port that fails to bind) tears the whole cluster
        back down — already-spawned members are terminated and every
        listener closed — before the error propagates, so a failed
        ``start()`` (hence a failed ``__enter__``) never leaks non-daemon
        processes or a bound port.
        """
        if self._started:
            return
        self._stop.clear()
        names = self._scan_corpus()
        if not names:
            raise ClusterError(
                f"no documents matching {self.pattern!r} in {self.corpus_dir}"
            )
        member_ids = [f"member-{i}" for i in range(self.member_count)]
        sockets = self._bind_member_sockets()
        for member_id, sock in zip(member_ids, sockets):
            self._members[member_id] = MemberHandle(member_id=member_id, sock=sock)
        self._plan = self._initial_plan(member_ids)
        self._plan_version = 1
        try:
            for handle in self._members.values():
                self._spawn(handle)
            self._await_ready()
            self._broadcast_placement()
            if self._obs_port is not None:
                self.obs_http = ObsHTTPServer(
                    self.metrics_text,
                    health=self._health_payload,
                    cluster=self.status,
                    host=self.host,
                    port=self._obs_port,
                )
                self.obs_http.start()
            self._control_thread = threading.Thread(
                target=self._control_loop, name="repro-cluster-control", daemon=True
            )
            self._control_thread.start()
        except BaseException:
            try:
                self.stop()
            except Exception:  # noqa: BLE001 - never mask the startup error
                logger.exception("cleanup after failed cluster start also failed")
            raise
        self._started = True

    def stop(self, *, timeout: float = 10.0) -> None:
        """Stop the control loop, terminate members, close every socket."""
        self._stop.set()
        if self._control_thread is not None:
            self._control_thread.join(timeout=timeout)
            self._control_thread = None
        if self.obs_http is not None:
            self.obs_http.close()
            self.obs_http = None
        for handle in self._members.values():
            if handle.process is not None and handle.process.is_alive():
                handle.process.terminate()
        deadline = time.monotonic() + timeout
        for handle in self._members.values():
            if handle.process is None:
                continue
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2.0)
        seen: set[int] = set()
        for handle in self._members.values():
            if id(handle.sock) not in seen:  # fallback mode shares one socket
                seen.add(id(handle.sock))
                try:
                    handle.sock.close()
                except OSError:
                    pass
        self._started = False

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def request_stop(self) -> None:
        """Ask :meth:`run_forever` to return (signal-handler safe)."""
        self._stop.set()

    def run_forever(self) -> None:
        """Block until :meth:`request_stop`/:meth:`stop` (CLI foreground mode)."""
        while not self._stop.wait(timeout=0.5):
            pass

    # ------------------------------------------------------------ chaos hook
    def kill_member(self, member_id: str) -> bool:
        """Hard-kill one member (chaos/testing); the control loop respawns it."""
        handle = self._members.get(member_id)
        if handle is None or handle.process is None or not handle.process.is_alive():
            return False
        handle.process.kill()
        handle.process.join(timeout=5.0)
        return True

    # --------------------------------------------------------------- sockets
    def _bind_member_sockets(self) -> list[socket.socket]:
        """One listener per member via ``SO_REUSEPORT``, or one shared.

        The fallback is graceful and *logged*: platforms without
        ``SO_REUSEPORT`` get a single supervisor-bound listener duplicated
        into every member (the kernel still load-balances ``accept`` across
        their event loops), never a raw ``OSError`` out of bind.
        """
        want_reuseport = self.reuseport_requested
        if want_reuseport is None:
            want_reuseport = hasattr(socket, "SO_REUSEPORT")
        if want_reuseport:
            try:
                sockets = self._bind_reuseport_sockets()
                self.reuseport_active = True
                return sockets
            except (AttributeError, OSError) as error:
                if self.reuseport_requested is True:
                    raise ClusterError(
                        f"SO_REUSEPORT was requested but is unavailable: {error}"
                    ) from error
                logger.warning(
                    "SO_REUSEPORT unavailable on this platform (%s); "
                    "falling back to a single shared listener handed to all "
                    "%d members",
                    error,
                    self.member_count,
                )
        else:
            logger.warning(
                "SO_REUSEPORT disabled; using a single shared listener "
                "handed to all %d members",
                self.member_count,
            )
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self._requested_port))
        sock.listen(128)
        self.reuseport_active = False
        self.port = sock.getsockname()[1]
        return [sock] * self.member_count

    def _bind_reuseport_sockets(self) -> list[socket.socket]:
        sockets: list[socket.socket] = []
        port = self._requested_port
        try:
            for _ in range(self.member_count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                sock.bind((self.host, port))
                sock.listen(128)
                if port == 0:
                    port = sock.getsockname()[1]
                sockets.append(sock)
        except BaseException:
            for sock in sockets:
                sock.close()
            raise
        self.port = port
        return sockets

    # -------------------------------------------------------------- spawning
    def _spawn(self, handle: MemberHandle) -> None:
        with self._lock:
            handle.incarnation += 1
            if handle.incarnation > 0:
                handle.restarts += 1
        config = MemberConfig(
            member_id=handle.member_id,
            incarnation=handle.incarnation,
            corpus_dir=self.corpus_dir,
            pattern=self.pattern,
            internal_host=self.host,
            serving=self.serving,
            engine=self.engine,
            strategy=self.strategy,
            max_workers=self.max_workers,
            kernel=self.kernel,
            plan_cache_dir=self.plan_cache_dir,
            snapshot_dir=self.snapshot_dir,
        )
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=member_main,
            args=(config, handle.sock, child_conn),
            name=f"repro-cluster-{handle.member_id}",
            daemon=False,
        )
        process.start()
        child_conn.close()
        with self._lock:
            handle.process = process
            handle.internal_port = None
            handle.pid = process.pid
            handle.max_concurrent = self.serving.max_concurrent
            handle.last_describe = None
            handle.ready_conn = parent_conn

    def _await_ready(self, *, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        for handle in self._members.values():
            if handle.internal_port is not None:
                continue
            conn = handle.ready_conn
            if conn is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            if not conn.poll(remaining):
                raise ClusterError(
                    f"{handle.member_id} did not report ready within {timeout}s"
                )
            try:
                message = conn.recv()
            except (EOFError, OSError) as error:
                raise ClusterError(
                    f"{handle.member_id} died during startup"
                ) from error
            finally:
                conn.close()
            with self._lock:
                handle.internal_port = int(message["internal_port"])
                handle.pid = int(message["pid"])
                handle.last_seen = time.monotonic()

    def _respawn(self, handle: MemberHandle) -> bool:
        """Bring one dead member back; returns True when it came up."""
        exitcode = handle.process.exitcode if handle.process is not None else None
        logger.warning(
            "%s died (exit code %s); respawning as incarnation %d",
            handle.member_id,
            exitcode,
            handle.incarnation + 1,
        )
        self.autotune.forget(handle.member_id)
        self._spawn(handle)
        conn = handle.ready_conn
        try:
            if conn is None or not conn.poll(30.0):
                logger.error("%s respawn did not report ready", handle.member_id)
                return False
            message = conn.recv()
        except (EOFError, OSError):
            logger.error("%s respawn died during startup", handle.member_id)
            return False
        finally:
            if conn is not None:
                conn.close()
        with self._lock:
            handle.internal_port = int(message["internal_port"])
            handle.pid = int(message["pid"])
            handle.last_seen = time.monotonic()
        return True

    # ------------------------------------------------------------- placement
    def _scan_corpus(self) -> list[str]:
        """Refresh file-size priors; returns current document names (stems)."""
        files: dict[str, float] = {}
        root = Path(self.corpus_dir)
        for path in sorted(root.glob(self.pattern)):
            try:
                files[path.stem] = float(path.stat().st_size)
            except OSError:
                continue
        with self._lock:
            for name, size in files.items():
                self.cost_model.set_size(name, size)
            for name in set(self._known_files) - set(files):
                self.cost_model.forget(name)
            self._known_files = files
        return sorted(files)

    def _initial_plan(self, member_ids: Sequence[str]) -> PlacementPlan:
        names = sorted(self._known_files)
        if self.placement_strategy == "round_robin":
            return round_robin_partition(names, member_ids)
        return greedy_partition(self.cost_model.costs(names), member_ids)

    def _broadcast_placement(self) -> None:
        """Push the routing table to every reachable member."""
        plan = self._plan
        if plan is None:
            return
        placement = {}
        for member_id, documents in plan.assignments.items():
            handle = self._members.get(member_id)
            if handle is None or handle.internal_port is None:
                continue
            placement[member_id] = {
                "addr": [self.host, handle.internal_port],
                "documents": list(documents),
            }
        request = {
            "op": "cluster.place",
            "id": 0,
            "placement": placement,
            "version": self._plan_version,
            "rescan": True,
        }
        if self.serving.auth_token is not None:
            request["auth"] = self.serving.auth_token
        for member_id in placement:
            handle = self._members[member_id]
            try:
                control_request(self.host, handle.internal_port, request)
            except (OSError, ValueError, ClusterError) as error:
                logger.warning(
                    "placement broadcast to %s failed: %s", member_id, error
                )

    def _replan(self) -> None:
        names = self._scan_corpus()
        if not names or self._plan is None:
            return
        drain = [
            handle.member_id
            for handle in self._members.values()
            if isinstance(handle.last_describe, dict)
            and handle.last_describe.get("health", {}).get("status") == "degraded"
        ]
        if self.placement_strategy == "round_robin":
            plan = round_robin_partition(names, sorted(self._members))
            moves = ()
            deferred = 0
            changed = plan.assignments != self._plan.assignments
        else:
            with self._lock:
                costs = self.cost_model.costs(names)
            plan = rebalance(
                self._plan.assignments,
                costs,
                sorted(self._members),
                move_budget=self.move_budget,
                drain=drain,
            )
            moves = plan.moves
            deferred = plan.deferred
            changed = bool(moves)
        with self._lock:
            self._plan = plan
            self._deferred_moves = deferred
            if changed:
                self._plan_version += 1
                self._last_moves = [list(move) for move in moves][-16:]
        if changed:
            logger.info(
                "placement v%d: %d moves (%d deferred)%s",
                self._plan_version,
                len(moves),
                deferred,
                f", draining {drain}" if drain else "",
            )
            self._broadcast_placement()

    # ----------------------------------------------------------- control loop
    def _control_loop(self) -> None:
        tick = 0
        while not self._stop.wait(timeout=self.control_interval):
            tick += 1
            try:
                self._control_tick(tick)
            except Exception:  # noqa: BLE001 - supervision must survive a tick
                logger.exception("cluster control tick failed")

    def _control_tick(self, tick: int) -> None:
        respawned = False
        for handle in self._members.values():
            if not handle.alive:
                respawned = self._respawn(handle) or respawned
        payloads = self._scrape()
        registry, unreachable = merge_member_metrics(payloads)
        with self._lock:
            self._unreachable_total += unreachable
            self._merged_registry = registry
        for member_id, payload in payloads.items():
            if not isinstance(payload, dict):
                continue
            handle = self._members[member_id]
            with self._lock:
                handle.last_describe = payload
                handle.last_seen = time.monotonic()
                reported = payload.get("max_concurrent")
                if isinstance(reported, int):
                    handle.max_concurrent = reported
                latencies = payload.get("doc_latencies")
                if isinstance(latencies, dict):
                    self.cost_model.observe_report(latencies)
        if self.autotune_enabled:
            self._autotune_tick(payloads)
        if respawned or tick % REBALANCE_EVERY_TICKS == 0:
            self._replan()
        if respawned:
            # Even a zero-move replan must rebroadcast after a respawn: the
            # reborn member has an empty routing table and a new internal
            # port its peers need to learn.
            self._broadcast_placement()

    def _scrape(self) -> dict[str, Optional[dict]]:
        request: dict = {"op": "cluster.describe", "id": 0}
        if self.serving.auth_token is not None:
            request["auth"] = self.serving.auth_token
        payloads: dict[str, Optional[dict]] = {}
        for member_id, handle in self._members.items():
            if handle.internal_port is None or not handle.alive:
                payloads[member_id] = None
                continue
            try:
                payloads[member_id] = control_request(
                    self.host, handle.internal_port, request, timeout=3.0
                )
            except (OSError, ValueError, ClusterError):
                payloads[member_id] = None
        return payloads

    def _autotune_tick(self, payloads: dict[str, Optional[dict]]) -> None:
        for member_id, payload in payloads.items():
            handle = self._members[member_id]
            queue_wait = queue_wait_histogram(payload)
            queue_depth = 0
            if isinstance(payload, dict):
                stats = payload.get("stats")
                if isinstance(stats, dict):
                    queue_depth = int(stats.get("queued") or 0)
            decision = self.autotune.decide(
                member_id,
                current=handle.max_concurrent or self.serving.max_concurrent,
                queue_wait=queue_wait,
                queue_depth=queue_depth,
            )
            if not decision.changed:
                continue
            request: dict = {
                "op": "cluster.tune",
                "id": 0,
                "max_concurrent": decision.new_value,
            }
            if self.serving.auth_token is not None:
                request["auth"] = self.serving.auth_token
            try:
                control_request(self.host, handle.internal_port, request)
            except (OSError, ValueError, ClusterError) as error:
                logger.warning("tune of %s failed: %s", member_id, error)
                continue
            with self._lock:
                handle.max_concurrent = decision.new_value
                self._tune_log.append(
                    {
                        "member": member_id,
                        "old": decision.old_value,
                        "new": decision.new_value,
                        "reason": decision.reason,
                        "p95": decision.p95,
                    }
                )
                del self._tune_log[:-32]
            logger.info(
                "autotune %s: %d -> %d (%s, p95=%s)",
                member_id,
                decision.old_value,
                decision.new_value,
                decision.reason,
                f"{decision.p95:.4f}" if decision.p95 is not None else "n/a",
            )

    # -------------------------------------------------------------- telemetry
    def metrics_text(self) -> str:
        """Merged Prometheus text across members plus supervisor counters."""
        registry = MetricsRegistry()
        with self._lock:
            registry.merge(self._merged_registry)
            unreachable = self._unreachable_total
            alive = sum(1 for handle in self._members.values() if handle.alive)
            restarts = sum(handle.restarts for handle in self._members.values())
        registry.counter(
            UNREACHABLE_METRIC,
            "Member scrapes that failed or returned unusable payloads",
        ).inc(unreachable)
        registry.gauge(
            "repro_cluster_members", "Configured cluster member count"
        ).set(self.member_count)
        registry.gauge(
            "repro_cluster_members_alive", "Members whose process is alive"
        ).set(alive)
        registry.counter(
            "repro_cluster_member_restarts_total", "Member respawns"
        ).inc(restarts)
        return registry.render()

    def _health_payload(self) -> dict:
        with self._lock:
            alive = sum(1 for handle in self._members.values() if handle.alive)
            quarantined: dict[str, dict] = {}
            for member_id, handle in sorted(self._members.items()):
                describe = handle.last_describe
                if not isinstance(describe, dict):
                    continue
                health = describe.get("health")
                if isinstance(health, dict) and health.get("quarantined"):
                    quarantined[member_id] = health["quarantined"]
        payload = {
            "status": "ok" if alive == self.member_count else "degraded",
            "members": self.member_count,
            "members_alive": alive,
            "quarantined": quarantined,
        }
        return payload

    def status(self) -> dict:
        """The ``/cluster.json`` payload (and ``serve cluster status`` body).

        Runs on the obs HTTP thread while the control thread re-plans and
        scrapes, so the whole snapshot is assembled under the supervisor
        lock — assignments, plan version and per-member fields always come
        from one consistent instant.
        """
        with self._lock:
            unreachable = self._unreachable_total
            tune_log = list(self._tune_log[-8:])
            members = {}
            for member_id, handle in sorted(self._members.items()):
                describe = handle.last_describe if isinstance(handle.last_describe, dict) else {}
                stats = describe.get("stats") if isinstance(describe.get("stats"), dict) else {}
                members[member_id] = {
                    "alive": handle.alive,
                    "pid": handle.pid,
                    "incarnation": handle.incarnation,
                    "restarts": handle.restarts,
                    "internal_port": handle.internal_port,
                    "max_concurrent": handle.max_concurrent,
                    "owned": describe.get("owned"),
                    "placement_version": describe.get("placement_version"),
                    "submitted": stats.get("submitted"),
                    "completed": stats.get("completed"),
                    "queue_wait_p95": stats.get("queue_wait_p95"),
                    "fallbacks": describe.get("fallbacks"),
                }
            plan = self._plan
            costs = self.cost_model.costs(sorted(self._known_files))
            return {
                "host": self.host,
                "port": self.port,
                "reuseport": self.reuseport_active,
                "documents": len(self._known_files),
                "members": members,
                "members_unreachable_total": unreachable,
                "placement": {
                    "strategy": self.placement_strategy,
                    "version": self._plan_version,
                    "move_budget": self.move_budget,
                    "deferred_moves": self._deferred_moves,
                    "last_moves": list(self._last_moves),
                    "assignments": (
                        {m: list(names) for m, names in plan.assignments.items()}
                        if plan is not None
                        else {}
                    ),
                    "loads": plan.loads(costs) if plan is not None else {},
                    "observed_documents": self.cost_model.observed_count(),
                },
                "autotune": {
                    "enabled": self.autotune_enabled,
                    "target_p95": self.autotune.target_p95,
                    "recent": tune_log,
                },
                "health": self._health_payload(),
            }
