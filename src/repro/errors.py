"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch everything coming out of the engine with a single handler
while still being able to distinguish parse errors from semantic restriction
violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


class TreeError(ReproError):
    """Raised for malformed trees or invalid node identifiers."""


class ParseError(ReproError):
    """Raised when a concrete-syntax expression cannot be parsed.

    Attributes
    ----------
    position:
        Character offset in the input at which the error was detected, or
        ``None`` when the offset is unknown.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EvaluationError(ReproError):
    """Raised when an expression cannot be evaluated.

    The most common cause is a free variable that has no binding in the
    supplied variable assignment.
    """


class UnboundVariableError(EvaluationError):
    """Raised when evaluation reaches a variable with no assigned node."""

    def __init__(self, variable: str) -> None:
        super().__init__(f"variable ${variable} is not bound by the assignment")
        self.variable = variable


class RestrictionViolation(ReproError):
    """Raised when an expression violates one of the PPL restrictions.

    The violated condition names follow Definition 1 of the paper, e.g.
    ``"N(for)"`` or ``"NVS(/)"``.
    """

    def __init__(self, condition: str, message: str) -> None:
        super().__init__(f"{condition}: {message}")
        self.condition = condition


class NotAcyclicError(ReproError):
    """Raised when a conjunctive query is not acyclic (no join tree exists)."""


class TranslationError(ReproError):
    """Raised when a translation between languages is not defined."""


class EngineError(ReproError):
    """Base class for errors raised by the engine registry and dispatch."""


class UnknownEngineError(EngineError):
    """Raised when an engine name is not present in the registry.

    Attributes
    ----------
    engine:
        The requested name.
    available:
        The registered engine names at lookup time.
    """

    def __init__(self, engine: str, available: tuple[str, ...] = ()) -> None:
        hint = f"; available engines: {', '.join(available)}" if available else ""
        super().__init__(f"unknown engine {engine!r}{hint}")
        self.engine = engine
        self.available = available


class EngineCapabilityError(EngineError):
    """Raised *before evaluation* when a query exceeds an engine's capabilities.

    Examples: an n-ary query dispatched to a binary-only backend, a union to
    a union-free backend, or a complement to the set-based Core XPath 1.0
    evaluator.

    Attributes
    ----------
    engine:
        The engine that refused the query.
    capability:
        Short name of the violated capability (e.g. ``"max_arity"``).
    """

    def __init__(self, engine: str, capability: str, message: str) -> None:
        super().__init__(f"engine {engine!r} cannot run this query ({capability}): {message}")
        self.engine = engine
        self.capability = capability


class SessionError(ReproError):
    """Base class for errors raised by the :mod:`repro.session` layer."""


class SessionClosedError(SessionError):
    """Raised when an operation is attempted on a closed :class:`Session`.

    Every public method of :class:`repro.session.Session` raises this once
    :meth:`~repro.session.Session.close` (or the context manager) has run,
    so use-after-teardown fails loudly instead of touching torn-down pools.
    """

    def __init__(self, operation: str = "operation") -> None:
        super().__init__(f"the session is closed; cannot perform {operation}")
        self.operation = operation


class CorpusTimeoutError(SessionError):
    """Raised when a sync corpus run exceeds the policy's ``timeout``.

    The deadline covers the whole streamed run (parse + evaluation across
    every document), not each result individually — the sync counterpart of
    the async surface's submission watchdog, which cancels instead.
    """

    def __init__(self, timeout: float) -> None:
        super().__init__(f"corpus run exceeded the {timeout:g} s execution timeout")
        self.timeout = timeout


class DocumentQuarantinedError(ReproError):
    """Raised for a document that repeatedly killed its shard worker.

    The supervised process strategy attributes each worker death to the
    document that was being evaluated; after the second fatal dispatch the
    document is quarantined so a poison document cannot consume the whole
    restart budget.  The error appears as a typed *error record* in the
    result stream (never a stream abort), regardless of ``on_error``.

    Attributes
    ----------
    doc_name:
        The quarantined document.
    crashes:
        How many worker deaths were attributed to it.
    """

    def __init__(self, doc_name: str, crashes: int) -> None:
        super().__init__(
            f"document {doc_name!r} killed its shard worker {crashes} times "
            "and is quarantined for the life of this executor"
        )
        self.doc_name = doc_name
        self.crashes = crashes


class FaultInjectedError(ReproError):
    """Raised by an armed :mod:`repro.faults` fault point.

    Deliberately *not* a subclass of the error the point simulates: chaos
    tests distinguish injected failures from organic ones by type.

    Attributes
    ----------
    point:
        The fault point that fired (e.g. ``"corrupt_read"``).
    key:
        The call-site key (document name, snapshot digest, ...).
    """

    def __init__(self, point: str, key: str = "") -> None:
        detail = f" at {key!r}" if key else ""
        super().__init__(f"injected fault {point!r}{detail}")
        self.point = point
        self.key = key


class WorkerCrashError(FaultInjectedError):
    """An injected ``worker_crash`` tripped outside a sacrificial process.

    Inside a shard worker the harness exits the process (a real worker
    death, exercising supervision); in the parent (the serial strategy)
    it raises this instead, exercising the retry path.
    """


class ObsPortInUseError(ReproError):
    """The observability HTTP endpoint could not bind its port.

    Attributes
    ----------
    host / port:
        The requested bind address.  ``obs_port=0`` (ephemeral) remains the
        escape hatch when a fixed port may be contended.
    """

    def __init__(self, host: str, port: int) -> None:
        super().__init__(
            f"observability HTTP port {port} on {host} is already in use "
            "(another exporter running? use obs_port=0 for an ephemeral port)"
        )
        self.host = host
        self.port = port
