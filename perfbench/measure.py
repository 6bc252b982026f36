"""Statistics, memory and host helpers shared by the workloads."""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Outcome:
    """What one workload run measured; ``run.py`` turns it into metrics."""

    setup_seconds: list = field(default_factory=list)
    read_seconds: list = field(default_factory=list)
    write_seconds: list = field(default_factory=list)
    completed: int = 0
    measured_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    valid: bool = True
    #: Reference over median probe time: below 1 means a slow host phase.
    host_speed: float = 1.0
    #: Workload-specific end-to-end figures (max_rate_rps, loadgen lag ...).
    extra: dict = field(default_factory=dict)
    #: Per-layer metrics of a traced run.
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def check(self, got, expected) -> bool:
        """Count one answer; a mismatch counts as failed."""
        if got == expected:
            return True
        self.failed += 1
        return False


#: Probe duration that defines the reference host speed: a probe taking
#: twice as long means every time measured near it is halved.
PROBE_REFERENCE_S = 1.0e-3
_PROBE_TABLE = {index: index * 7 for index in range(512)}


def _probe_work() -> int:
    """A fixed pure-Python loop; allocates nothing the collector tracks."""
    table, total = _PROBE_TABLE, 0
    for index in range(6_000):
        total += table[index & 511] ^ (index >> 3)
    return total


class SpeedProbe:
    """Tracks how fast this host runs Python right now.

    A shared VM's CPU speed drifts by up to 1.7x in phases of seconds
    (other tenants on shared cores), which would swamp any change to the
    program.  The workloads call :meth:`sample` between operations (about
    every 0.2 s, ~1 ms each); :meth:`normalise` then scales each measured
    duration by ``PROBE_REFERENCE_S / median(probes within 2 s of it)``, so
    times read as if the host ran at its reference speed throughout.
    Successive probes run pinned to each allowed core in turn, so the
    median tracks the whole host, where worker processes and servers run.
    """

    WINDOW_S = 2.0
    EVERY_S = 0.2

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")
        self._cores = sorted(os.sched_getaffinity(0))
        self._turn = 0

    def sample(self) -> None:
        core = self._cores[self._turn % len(self._cores)]
        self._turn += 1
        os.sched_setaffinity(0, {core})  # this thread only
        try:
            started = time.perf_counter()
            _probe_work()
            took = time.perf_counter() - started
        finally:
            os.sched_setaffinity(0, self._cores)
        self.samples.append((started, took))
        self._last = started

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def factor(self, when: float) -> float:
        """Reference over local probe time, from probes near ``when``."""
        times = [started for started, _ in self.samples]
        low = bisect.bisect_left(times, when - self.WINDOW_S)
        high = bisect.bisect_right(times, when + self.WINDOW_S)
        nearby = [took for _, took in self.samples[low:high]]
        if len(nearby) < 3:  # too few around it: fall back to the run's median
            nearby = [took for _, took in self.samples]
        return PROBE_REFERENCE_S / statistics.median(nearby)

    def normalise(self, timed: list[tuple[float, float]]) -> list[float]:
        """Durations ``(start, seconds)`` rescaled to the reference speed."""
        return [seconds * self.factor(started) for started, seconds in timed]


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of one live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def host_block(root: Path) -> dict:
    """Where and with what a run was made, so runs are never mixed up."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.split()
        if Path(top).resolve() == root.resolve():
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass  # not a git checkout: src_sha256 identifies the code instead
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }
