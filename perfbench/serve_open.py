"""serve-open: an open-loop client against a ``serve run`` subprocess.

One single-threaded asyncio process sends single-document ``submit``
requests over two connections on a fixed schedule, whether or not earlier
requests have returned.  Each request's latency runs from the time the
schedule gave it to its ``done`` line, so a stall also charges the requests
queued behind it; how late the generator itself sent is ``loadgen lag``.

The untraced run holds one fixed offered rate for all of ``--seconds``.  The
traced run holds it for 60%, switching the server's tracing on and off every
second, then climbs a rate ladder with tracing off: a step counts toward
``max_rate_rps`` only if its p99 latency is at most 50 ms, nothing was
refused or failed, every request returned within a short grace after the
step (no growing backlog) and the generator kept up.

85% of requests repeat a small query set the warm-up put in the server's
answer cache; 15% carry a fresh query text.  Every result line is checked
against the reference answer.
"""

from __future__ import annotations

import asyncio
import gc
import json
import queue
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import docs
from layers import LAYERS, layer_metrics
from measure import PROBE_REFERENCE_S, Outcome, SpeedProbe, peak_rss_mib, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DOCUMENTS = 32
SHAPES = (docs.PAIR, docs.TRIPLE, docs.SIBLING)
FIXED_RATE = 100.0
LADDER = (100.0, 150.0, 200.0, 300.0, 400.0, 600.0, 800.0)
SLO_P99 = 0.050
#: A run whose generator sent later than this at p99 measured itself.
MAX_LAG_P99 = 0.020
SLOTS = 4  # the server's default max_concurrent
TRACE_WINDOW = 1.0
SETUPS = 5  # server starts per run; setup_s is their median
ORDER_SEED = 20072


@dataclass
class Request:
    id: int
    due: float
    doc: str
    shape: int
    bytes_out: int = 0
    bytes_in: int = 0
    sent: float = 0.0
    done: float = 0.0
    seconds: float = 0.0
    answers: frozenset = frozenset()
    error: str = ""
    traced: bool = False
    finished: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def latency(self) -> float:
        return self.done - self.due


class Server:
    """One ``serve run`` subprocess; stderr is drained on a reader thread."""

    def __init__(self, directory: Path, traced: bool) -> None:
        entry = [str(HERE / "traced_server.py")] if traced else ["-m", "repro.cli"]
        self.process = subprocess.Popen(
            [sys.executable, *entry, "serve", "run", "--dir", str(directory), "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.process.stderr:
            self.lines.put(line)
        self.lines.put("")

    def port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while True:
            line = self.lines.get(timeout=max(0.01, deadline - time.monotonic()))
            if not line:
                raise RuntimeError("server exited before serving")
            if line.startswith("serving "):
                return int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mib(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)


class Client:
    """Two NDJSON connections; responses demultiplexed by request id."""

    def __init__(self) -> None:
        self.connections: list = []
        self.requests: dict[int, Request] = {}
        #: Ids of requests sent and not yet answered.
        self.pending: set[int] = set()
        self.replies: dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.readers: list[asyncio.Task] = []

    async def open(self, port: int) -> None:
        for index in range(2):
            reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
            self.connections.append(writer)
            self.readers.append(asyncio.create_task(self._read(reader)))

    async def close(self) -> None:
        for writer in self.connections:
            writer.close()
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)

    def _id(self) -> int:
        self.next_id += 1
        return self.next_id

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            message = json.loads(line)
            now = time.perf_counter()
            request = self.requests.get(message.get("id"))
            if request is None:
                future = self.replies.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
                continue
            request.bytes_in += len(line)
            kind = message.get("type")
            if kind == "result":
                request.answers = frozenset(tuple(answer) for answer in message["answers"])
                request.seconds += message["seconds"]
            elif kind in ("done", "error"):
                if kind == "error":
                    request.error = message.get("kind") or "error"
                request.done = now
                request.finished.set()
                self.pending.discard(request.id)

    async def call(self, payload: dict) -> dict:
        """One control op (ping, stats, bench.trace) and its reply."""
        ident = self._id()
        future = asyncio.get_running_loop().create_future()
        self.replies[ident] = future
        writer = self.connections[ident % 2]
        writer.write((json.dumps({**payload, "id": ident}) + "\n").encode())
        await writer.drain()
        return await asyncio.wait_for(future, timeout=30)

    def submit(self, request: Request, text: str, variables) -> None:
        line = json.dumps(
            {"op": "submit", "id": request.id, "query": text, "vars": list(variables), "docs": [request.doc]}
        ).encode() + b"\n"
        request.bytes_out = len(line)
        self.requests[request.id] = request
        self.pending.add(request.id)
        request.sent = time.perf_counter()
        self.connections[request.id % 2].write(line)


class Workload:
    """Seeded documents, query choice and answer checking for serve-open."""

    def __init__(self, seed: int, directory: Path) -> None:
        self.seed = seed
        rng = random.Random(seed)
        # The request order (document, shape, repeat or fresh) is the same
        # for every seed, so the tail of costly fresh requests is too; the
        # seed varies the documents' contents and the fresh texts.
        self.order = random.Random(ORDER_SEED)
        books = docs.zipf_books(DOCUMENTS, largest=48)
        self.names = [f"doc{i:02d}" for i in range(DOCUMENTS)]
        self.expected = {}
        for name, count in zip(self.names, books):
            text = docs.bibliography_xml(count, rng)
            (directory / f"{name}.xml").write_text(text, encoding="utf-8")
            walk = docs.Walk(text)
            for index, shape in enumerate(SHAPES):
                self.expected[(name, index)] = docs.reference(walk, shape)
        self.fresh = 0

    def choose(self) -> tuple[str, int, str]:
        """(document, shape index, query text) of the next request."""
        name = self.order.choice(self.names)
        shape = self.order.randrange(len(SHAPES))
        if self.order.random() < 0.85:
            tag = "u0"
        else:
            self.fresh += 1
            tag = f"u{self.seed}x{self.fresh}"
        return name, shape, SHAPES[shape][0].format(tag=tag)


async def offer(
    client: Client,
    workload: Workload,
    rate: float,
    duration: float,
    outcome: Outcome,
    probe: SpeedProbe,
    window=None,
) -> dict:
    """Send ``rate * duration`` requests on schedule; wait for them; summarise.

    The client's own garbage collector is off meanwhile, so its pauses do
    not show up as server latency.  Host-speed probes run only while no
    request is in flight, so the server's own work never slows them, and
    only in gaps of at least 2 ms before the next send, so they never delay
    the schedule.
    """
    gc.disable()
    try:
        return await _offer(client, workload, rate, duration, outcome, probe, window)
    finally:
        gc.enable()


async def _offer(client, workload, rate, duration, outcome, probe, window) -> dict:
    count = max(1, int(rate * duration))
    start = time.perf_counter() + 0.005
    sent: list[Request] = []
    lags = []
    for index in range(count):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if window is not None:
            window(due)
        name, shape, text = workload.choose()
        request = Request(client._id(), due, name, shape)
        request.traced = bool(window is not None and window.traced)
        client.submit(request, text, SHAPES[shape][1])
        lags.append(request.sent - due)
        sent.append(request)
        next_due = start + (index + 1) / rate
        pause = next_due - 0.003 - time.perf_counter()
        if pause > 0:
            await asyncio.sleep(pause)
            if not client.pending and next_due - time.perf_counter() > 0.002:
                probe.maybe_sample()
    end = start + count / rate
    backlog = sum(1 for request in sent if not request.finished.is_set())
    grace = end + 1.0
    for request in sent:
        remaining = grace - time.perf_counter()
        if remaining > 0 and not request.finished.is_set():
            try:
                await asyncio.wait_for(request.finished.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                pass
    late = 0
    for request in sent:
        outcome.attempted += 1
        if not request.finished.is_set():
            late += 1
            outcome.failed += 1
        elif request.error:
            outcome.failed += 1
        else:
            outcome.check(request.answers, workload.expected[(request.doc, request.shape)])
    # Requests still unanswered after the grace are abandoned with the run.
    for request in sent:
        client.requests.pop(request.id, None)
        client.pending.discard(request.id)
    done = [request for request in sent if request.finished.is_set() and not request.error]
    return {
        "sent": sent,
        "done": done,
        # First due time to last answer: the phase's completed-ops window.
        "wall": max([start] + [request.done for request in done]) - start,
        "lag_p99": percentile(lags, 0.99),
        "errors": sum(1 for request in sent if request.error),
        "late": late,
        "backlog_at_end": backlog,
        "p99": percentile([r.latency for r in done], 0.99) if done else float("inf"),
    }


class TraceWindows:
    """Alternate tracing off/on in the server every ``TRACE_WINDOW`` seconds."""

    def __init__(self, client: Client) -> None:
        self.client = client
        self.traced = False
        self.next_switch = None
        self.switches: list[asyncio.Task] = []

    def __call__(self, due: float) -> None:
        if self.next_switch is None:
            self.next_switch = due + TRACE_WINDOW
        if due >= self.next_switch:
            self.next_switch += TRACE_WINDOW
            self.traced = not self.traced
            # Not awaited here: the sender must not wait for the reply.
            self.switches.append(
                asyncio.create_task(self.client.call({"op": "bench.trace", "on": self.traced}))
            )


async def _ladder(
    client: Client, workload: Workload, outcome: Outcome, probe: SpeedProbe, budget: float
) -> float:
    """Climb the rate ladder for up to ``budget`` seconds; the highest good rate."""
    max_rate = 0.0
    deadline = time.perf_counter() + budget
    step_seconds = budget / len(LADDER)
    for rate in LADDER:
        if time.perf_counter() + step_seconds > deadline + 0.5:
            break
        step = await offer(client, workload, rate, step_seconds, outcome, probe)
        ok = (
            step["errors"] == 0
            and step["late"] == 0
            and step["p99"] <= SLO_P99
            and step["backlog_at_end"] <= max(2, rate * SLO_P99)
            and step["lag_p99"] <= MAX_LAG_P99
        )
        outcome.notes.append(
            f"ladder {rate:g} rps: p99 {step['p99'] * 1e3:.1f} ms, errors {step['errors']}, "
            f"backlog {step['backlog_at_end']}, lag p99 {step['lag_p99'] * 1e3:.1f} ms"
            + ("" if ok else " -> stop")
        )
        if not ok:
            break
        max_rate = rate
    return max_rate


async def _setup(directory: Path, traced: bool) -> tuple[Server, Client, float]:
    started = time.perf_counter()
    server = Server(directory, traced)
    try:
        client = Client()
        await client.open(server.port())
        await client.call({"op": "ping"})
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - started


async def _warm(client: Client, workload: Workload, outcome: Outcome) -> None:
    """Answer every repeated (document, shape) once, so repeats hit the cache.

    One at a time: a burst would put its queue waits into the server's
    cumulative admission histograms that the traced run reads.
    """
    for name in workload.names:
        for shape, (text, variables) in enumerate(SHAPES):
            request = Request(client._id(), time.perf_counter(), name, shape)
            client.submit(request, text.format(tag="u0"), variables)
            await asyncio.wait_for(request.finished.wait(), timeout=60)
            outcome.attempted += 1
            if request.error:
                outcome.failed += 1
            else:
                outcome.check(request.answers, workload.expected[(name, shape)])
            client.requests.pop(request.id, None)


async def _run(seed: int, seconds: float, traced: bool, directory: Path) -> Outcome:
    outcome = Outcome()
    workload = Workload(seed, directory)
    probe = SpeedProbe()
    server = client = None
    setups = []
    for _ in range(SETUPS):
        if server is not None:
            await client.close()
            server.stop()
        for _ in range(3):
            probe.sample()
        started = time.perf_counter()
        server, client, took = await _setup(directory, traced)
        setups.append((started, took))
    for _ in range(3):
        probe.sample()
    outcome.setup_seconds = probe.normalise(setups)
    try:
        await _warm(client, workload, outcome)
        before = (await client.call({"op": "stats"}))["stats"]
        windows = None
        if traced:
            await client.call({"op": "bench.trace", "on": False, "reset": True})
            windows = TraceWindows(client)
        # The untraced run spends all its time at the fixed rate, so its p99
        # rests on enough samples; the traced run also climbs the ladder.
        fixed_seconds = 0.6 * seconds if traced else seconds
        fixed = await offer(client, workload, FIXED_RATE, fixed_seconds, outcome, probe, windows)
        if traced:
            await asyncio.gather(*windows.switches)
            totals = await client.call({"op": "bench.trace", "on": False})
        after = (await client.call({"op": "stats"}))["stats"]
        # Latencies are rescaled to the reference host speed (probes ran
        # only while the server was idle); the completed rate is not, since
        # the schedule runs on the wall clock.
        outcome.read_seconds = probe.normalise(
            [(request.due, request.latency) for request in fixed["done"]]
        )
        outcome.completed = len(fixed["done"])
        outcome.measured_seconds = fixed["wall"]
        outcome.host_speed = PROBE_REFERENCE_S / statistics.median(took for _, took in probe.samples)
        lag_p99 = fixed["lag_p99"]
        if lag_p99 > MAX_LAG_P99:
            outcome.valid = False
            outcome.notes.append(f"load generator fell behind: lag p99 {lag_p99 * 1e3:.1f} ms")

        outcome.extra = {"loadgen.lag_p99_ms": lag_p99 * 1e3}
        outcome.peak_rss_mb = server.peak_rss_mb()
        if traced:
            outcome.layers = _layers(fixed, before, after, totals)
            outcome.extra["max_rate_rps"] = await _ladder(
                client, workload, outcome, probe, 0.4 * seconds
            )
    finally:
        await client.close()
        server.stop()
    return outcome


def _layers(fixed: dict, before: dict, after: dict, totals: dict) -> dict:
    """Per-layer figures of the traced fixed-rate phase.

    The server's wrappers time plan, document, caches, oracle, Fig. 8 and
    the protocol's JSON codec; admission is the queue wait the server's
    ``stats`` op accounts, and executor the evaluation time (each result
    line's ``seconds``) not spent in a finer layer.  Shares are of the
    client-side latency of the requests sent while tracing was on.
    """
    done = fixed["done"]
    traced = [request for request in done if request.traced]
    untraced = [request for request in done if not request.traced]
    wall = sum(request.latency for request in traced)
    self_seconds = totals["self_seconds"]
    waits = {
        client: spent.get("queue_wait", 0.0) for client, spent in (after["cost_per_client"] or {}).items()
    }
    for client, spent in (before["cost_per_client"] or {}).items():
        waits[client] = waits.get(client, 0.0) - spent.get("queue_wait", 0.0)
    inner = sum(self_seconds.get(layer, 0.0) for layer in ("document", "caches", "oracle", "fig8"))
    share_seconds = {layer: self_seconds.get(layer, 0.0) for layer in LAYERS}
    share_seconds["admission"] = sum(waits.values()) * len(traced) / len(done)
    share_seconds["executor"] = max(0.0, sum(r.seconds for r in traced) - inner)
    shares = {f"trace.share.{layer}": value / wall for layer, value in share_seconds.items()}
    shares["trace.unattributed_share"] = 1.0 - sum(shares.values())
    answer_before, answer_after = before["answer_cache"] or {}, after["answer_cache"] or {}
    hits = answer_after.get("hits", 0) - answer_before.get("hits", 0)
    lookups = hits + answer_after.get("misses", 0) - answer_before.get("misses", 0)
    evaluated = sum(request.seconds for request in done)
    return {
        **layer_metrics(totals),
        "protocol.request_bytes": statistics.fmean(r.bytes_out for r in done),
        "protocol.response_bytes": statistics.fmean(r.bytes_in for r in done),
        "protocol.outside_eval_ms_p50": percentile([r.latency - r.seconds for r in done], 0.5) * 1e3,
        "admission.queue_wait_p50_ms": (after["queue_wait_p50"] or 0.0) * 1e3,
        "admission.queue_wait_p99_ms": (after["queue_wait_p99"] or 0.0) * 1e3,
        "admission.execute_p50_ms": (after["p50_latency"] or 0.0) * 1e3,
        "admission.refused": after["rejected"] - before["rejected"],
        "cache.answer_hit_ratio": hits / lookups if lookups else 0.0,
        "cache.matrix_bytes": (after["matrix_cache"] or {}).get("current_bytes", 0),
        "executor.eval_s": evaluated,
        "executor.busy_share": evaluated / (fixed["wall"] * SLOTS),
        **shares,
        "trace.overhead": (
            statistics.fmean(r.latency for r in traced) / statistics.fmean(r.latency for r in untraced) - 1.0
        ),
    }


def serve_open(seed: int, seconds: float, traced: bool) -> Outcome:
    # The corpus lives inside the checkout: the benchmark writes nowhere else.
    with tempfile.TemporaryDirectory(prefix=".perfbench-serve-", dir=ROOT) as directory:
        return asyncio.run(_run(seed, seconds, traced, Path(directory)))
