"""Deterministic fault injection for chaos testing the execution tier.

The supervised executor (:mod:`repro.corpus.executor`), the snapshot store
and the plan cache all call :func:`trip` at named *fault points*.  With no
plan armed the call is one global check — effectively free — so the hooks
stay compiled into production builds.  A plan arms a schedule of
:class:`FaultSpec` entries, each naming a point and (optionally) filtering
by call-site key and site; decisions that involve probability draw from a
per-spec seeded RNG, so a given schedule replays the same firing pattern
every run.

Fault points
------------
``worker_crash``
    Simulated worker death.  Inside a shard worker process (the harness is
    told via :func:`mark_worker`) the process exits immediately with
    :data:`KILL_EXIT_CODE` — a *real* ``BrokenProcessPool`` for the
    supervisor to handle.  In the parent (the serial strategy) it
    raises :class:`repro.errors.WorkerCrashError`, exercising the retry
    path instead.
``slow_query``
    Sleeps ``delay`` seconds at the point, then continues.
``corrupt_read``
    Raises :class:`repro.errors.FaultInjectedError`; the snapshot store and
    plan cache treat it like a corrupt blob (count a miss, fall back).
``pickle_error``
    Raises :class:`repro.errors.FaultInjectedError` after evaluation, where
    result marshalling would fail.
``member_crash``
    Simulated cluster-member death: the process exits immediately with
    :data:`KILL_EXIT_CODE`, wherever it is (members are top-level serving
    processes, not pool workers).  Tripped by the cluster member protocol
    per handled submission with ``key=<member id>`` and
    ``site=member.submit``, so ``REPRO_FAULTS="member_crash,
    match=member-1,times=1"`` kills exactly one member exactly once —
    respawned incarnations are distinguished by ``epoch`` (the supervisor
    marks each incarnation, so a default ``epoch=0``-less spec with
    ``times=1`` still fires once *per incarnation*; add ``epoch=0`` to
    crash only the first).

Schedules
---------
A schedule is specs separated by ``;``, each spec a point name followed by
comma-separated ``field=value`` pairs::

    REPRO_FAULTS="worker_crash,match=doc003,epoch=0;slow_query,rate=0.01,seed=7,delay=0.02"

Fields: ``match`` (fnmatch pattern on the key, default ``*``), ``site``
(fnmatch on the call site: ``worker``, ``serial``, ``degraded``,
``snapshot``, ``plan_cache``, ``compose``; default ``*``), ``times``
(max firings per process, default unlimited), ``rate``
(probability per matching hit, default 1.0), ``seed`` (RNG stream for the
rate decisions), ``delay`` (sleep seconds for ``slow_query``), ``epoch``
(only fire in the N-th incarnation of a shard worker — epoch 0 is the
first spawn; respawned workers get fresh per-process counters, so ``epoch``
is how a schedule says "crash once, then recover").

The plan ships to shard workers explicitly (fresh counters per worker
incarnation) via :func:`payload` / :func:`install_payload`; the parent's
counters never leak into workers and vice versa.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Optional, Sequence, Union

from repro.errors import FaultInjectedError, ReproError, WorkerCrashError

FAULTS_ENV = "REPRO_FAULTS"

#: The recognised fault points.
POINTS = ("worker_crash", "slow_query", "corrupt_read", "pickle_error", "member_crash")

#: Exit status used by an injected worker crash, distinguishable in core
#: dumps / CI logs from a python traceback exit.
KILL_EXIT_CODE = 87


class FaultPlanError(ReproError):
    """Raised for an unparseable ``REPRO_FAULTS`` schedule."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: a point plus filters and a firing budget."""

    point: str
    match: str = "*"
    site: str = "*"
    times: Optional[int] = None
    rate: float = 1.0
    seed: int = 0
    delay: float = 0.05
    epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.point not in POINTS:
            raise FaultPlanError(
                f"unknown fault point {self.point!r}; expected one of {', '.join(POINTS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(f"fault rate must be in [0, 1], got {self.rate}")


_SPEC_FIELDS = {
    "match": str,
    "site": str,
    "times": int,
    "rate": float,
    "seed": int,
    "delay": float,
    "epoch": int,
}


def parse_spec(text: str) -> FaultSpec:
    """Parse one ``point,field=value,...`` spec."""
    head, *rest = [part.strip() for part in text.split(",") if part.strip()]
    fields: dict = {}
    for part in rest:
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or name not in _SPEC_FIELDS:
            raise FaultPlanError(
                f"bad fault field {part!r} in {text!r}; "
                f"expected one of {', '.join(_SPEC_FIELDS)}"
            )
        try:
            fields[name] = _SPEC_FIELDS[name](value.strip())
        except ValueError as error:
            raise FaultPlanError(f"bad value for {name!r} in {text!r}") from error
    return FaultSpec(point=head, **fields)


def parse_plan(text: str) -> tuple[FaultSpec, ...]:
    """Parse a ``;``-separated schedule into specs."""
    return tuple(
        parse_spec(part) for part in text.split(";") if part.strip()
    )


class FaultPlan:
    """An armed schedule with per-spec hit/firing counters (thread-safe)."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = tuple(specs)
        self._lock = threading.Lock()
        self._fired = [0] * len(self.specs)
        self._rngs = [random.Random(spec.seed) for spec in self.specs]

    def decide(self, point: str, key: str, site: str, epoch: int) -> Optional[FaultSpec]:
        """The first spec that fires for this hit, counting its budget."""
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.point != point:
                    continue
                if spec.epoch is not None and spec.epoch != epoch:
                    continue
                if not fnmatchcase(key, spec.match):
                    continue
                if not fnmatchcase(site, spec.site):
                    continue
                if spec.times is not None and self._fired[index] >= spec.times:
                    continue
                if spec.rate < 1.0 and self._rngs[index].random() >= spec.rate:
                    continue
                self._fired[index] += 1
                return spec
        return None

    def stats(self) -> dict:
        with self._lock:
            return {
                "specs": len(self.specs),
                "fired": list(self._fired),
                "total_fired": sum(self._fired),
            }


_UNINITIALISED = object()
#: The module-global plan: ``_UNINITIALISED`` (consult the environment on
#: first use), ``None`` (explicitly disarmed) or a :class:`FaultPlan`.
_PLAN: Union[object, None, FaultPlan] = _UNINITIALISED
_IN_WORKER = False
_EPOCH = 0
_LOCK = threading.Lock()


def install(specs: Union[str, Sequence[FaultSpec]]) -> FaultPlan:
    """Arm a plan for this process (replacing any previous one)."""
    global _PLAN
    plan = FaultPlan(parse_plan(specs) if isinstance(specs, str) else specs)
    with _LOCK:
        _PLAN = plan
    return plan


def install_from_env(environ=os.environ) -> Optional[FaultPlan]:
    """Arm from ``REPRO_FAULTS``; disarm (and return None) when unset."""
    schedule = environ.get(FAULTS_ENV, "").strip()
    if not schedule:
        clear()
        return None
    return install(schedule)


def clear() -> None:
    """Disarm fault injection for this process."""
    global _PLAN
    with _LOCK:
        _PLAN = None


def reset() -> None:
    """Forget everything: the next :func:`trip` re-reads the environment.

    Test hygiene hook — also resets the worker flag and epoch.
    """
    global _PLAN, _IN_WORKER, _EPOCH
    with _LOCK:
        _PLAN = _UNINITIALISED
        _IN_WORKER = False
        _EPOCH = 0


def active() -> bool:
    """Whether a plan with at least one spec is armed."""
    plan = _plan()
    return plan is not None and bool(plan.specs)


def plan_stats() -> Optional[dict]:
    """Firing counters of the armed plan (None when disarmed)."""
    plan = _plan()
    return plan.stats() if plan is not None else None


def mark_worker(epoch: int = 0) -> None:
    """Flag this process as a sacrificial shard worker at ``epoch``."""
    global _IN_WORKER, _EPOCH
    _IN_WORKER = True
    _EPOCH = epoch


def in_worker() -> bool:
    return _IN_WORKER


def payload() -> Optional[tuple[FaultSpec, ...]]:
    """The armed specs in picklable form, for shipping to shard workers."""
    plan = _plan()
    return plan.specs if plan is not None and plan.specs else None


def install_payload(specs: Optional[Sequence[FaultSpec]], *, epoch: int = 0) -> None:
    """Worker-side arming: fresh counters, worker flag and epoch set."""
    mark_worker(epoch)
    if specs:
        install(specs)
    else:
        clear()


def _plan() -> Optional[FaultPlan]:
    global _PLAN
    plan = _PLAN
    if plan is _UNINITIALISED:
        with _LOCK:
            if _PLAN is _UNINITIALISED:
                schedule = os.environ.get(FAULTS_ENV, "").strip()
                _PLAN = FaultPlan(parse_plan(schedule)) if schedule else None
            plan = _PLAN
    return plan  # type: ignore[return-value]


def trip(point: str, key: str = "", site: str = "") -> None:
    """Fire the fault point if the armed plan says so.

    Disarmed: a global load and a comparison — safe on hot paths.
    """
    plan = _PLAN
    if plan is None:
        return
    plan = _plan()
    if plan is None:
        return
    spec = plan.decide(point, key, site, _EPOCH)
    if spec is None:
        return
    if point == "member_crash":
        # A cluster member is a top-level serving process: an injected
        # member kill is always a hard exit, exactly what SIGKILL or an
        # OOM kill looks like to the supervisor and to connected clients.
        os._exit(KILL_EXIT_CODE)
    if point == "worker_crash":
        if _IN_WORKER:
            # A real, unceremonious death: no cleanup handlers, no pickled
            # traceback — exactly what an OOM kill or native segfault looks
            # like to the parent's pool.
            os._exit(KILL_EXIT_CODE)
        raise WorkerCrashError(point, key)
    if point == "slow_query":
        time.sleep(spec.delay)
        return
    raise FaultInjectedError(point, key)
