"""Backend-agnostic compiled queries.

A :class:`Query` is the result of compiling a Core XPath 2.0 expression once:
it carries the parsed AST, the Definition 1 check result (the violation list,
empty for PPL expressions), the Fig. 7 HCL⁻(PPLbin) translation (when the
expression is PPL) and the Fig. 4 PPLbin translation (when it is variable
free).  Queries are document-independent values: compile once, answer on many
documents, with any registered engine whose capabilities cover the query.
"""

from __future__ import annotations

import pickle
import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Optional, Sequence

from repro.errors import RestrictionViolation, TranslationError
from repro.xpath.ast import OrTest, PathExpr, PathUnion
from repro.xpath.analysis import is_variable_free
from repro.obs import trace as _trace
from repro.xpath.parser import parse_path
from repro.core.ppl import Violation, ppl_violations
from repro.core.translate import ppl_to_hcl
from repro.pplbin.ast import BinExpr
from repro.pplbin.translate import from_core_xpath
from repro.hcl.ast import HclExpr


@dataclass(frozen=True)
class Query:
    """A compiled, backend-agnostic n-ary query.

    Instances are produced by :func:`compile_query` or
    :meth:`repro.api.document.Document.compile`; construct directly only in
    tests.

    Attributes
    ----------
    source:
        The parsed Core XPath 2.0 expression.
    variables:
        The output variable tuple ``x1 ... xn`` (without ``$`` sigils).
    violations:
        Definition 1 violations; empty exactly when the expression is PPL.
    hcl:
        The Fig. 7 HCL⁻(PPLbin) translation, or ``None`` when not PPL.
    pplbin:
        The Fig. 4 PPLbin translation, or ``None`` when the expression is
        not variable free.
    text:
        The concrete syntax the query was compiled from, when available.
    """

    source: PathExpr
    variables: tuple[str, ...]
    violations: tuple[Violation, ...] = ()
    hcl: Optional[HclExpr] = None
    pplbin: Optional[BinExpr] = None
    text: Optional[str] = field(default=None, compare=False)

    @property
    def arity(self) -> int:
        """The width ``n`` of the answer tuples."""
        return len(self.variables)

    @property
    def is_ppl(self) -> bool:
        """True when the expression satisfies Definition 1."""
        return not self.violations

    @property
    def is_variable_free(self) -> bool:
        """True when the expression satisfies N($x) (has a PPLbin form)."""
        return self.pplbin is not None

    @property
    def free_variables(self) -> frozenset[str]:
        """The free variables of the source expression."""
        return self.source.free_variables

    @property
    def has_union(self) -> bool:
        """True when a ``union`` or ``or`` occurs anywhere in the expression."""
        return any(isinstance(sub, (PathUnion, OrTest)) for sub in self.source.walk())

    def require_ppl(self) -> None:
        """Raise :class:`RestrictionViolation` unless the query is PPL."""
        if self.violations:
            first = self.violations[0]
            raise RestrictionViolation(first.condition, first.message)

    def unparse(self) -> str:
        """Return concrete syntax for the source expression."""
        return self.text if self.text is not None else self.source.unparse()

    @cached_property
    def plan_text(self) -> str:
        """The canonical text of the plan: the source AST unparsed.

        Two spellings of one expression share it, and unlike the AST it
        pins a single string, which is why answer caches key by it.
        """
        return self.source.unparse()

    @cached_property
    def expression_size(self) -> int:
        """Node count of the source expression (``QueryReport.expression_size``)."""
        return self.source.size

    @cached_property
    def hcl_size(self) -> int:
        """Size of the HCL translation, 0 when not PPL (``QueryReport.hcl_size``)."""
        return self.hcl.size if self.hcl is not None else 0

    @cached_property
    def distinct_leaves(self) -> int:
        """Distinct binary queries among the HCL leaves (``QueryReport.distinct_leaves``)."""
        if self.hcl is None:
            return 0
        return len({leaf.query for leaf in self.hcl.leaves()})

    @property
    def cache_key(self) -> tuple:
        """The plan-identity key ``(expression, variables)``.

        This is the key under which a :class:`repro.session.Session`
        memoises compiled plans (and the identity the persistent
        :class:`repro.serve.PlanCache` hashes), so the sync and async
        surfaces of a session resolve the same expression to the *same*
        compiled object.  The original text is preferred when the query was
        compiled from a string — the common case — falling back to the
        (hashable, value-compared) source AST.
        """
        return (self.text if self.text is not None else self.source, self.variables)

    def __str__(self) -> str:
        return self.unparse()

    # ------------------------------------------------------------ serialisation
    def plan_size(self) -> int:
        """Total node count across the AST and every materialised translation.

        This is the depth bound used to make pickling stack-safe: the ASTs
        are linked structures whose nesting can reach their size (e.g. a long
        ``/``-chain), and the default pickler recurses once per node.
        Counted through the iterative ``walk()`` — the recursive ``size``
        property would itself overflow on the expressions this exists for.
        """
        count = sum(1 for _ in self.source.walk())
        if self.hcl is not None:
            count += sum(1 for _ in self.hcl.walk())
            count += sum(
                1 for leaf in self.hcl.leaves() for _ in leaf.query.walk()
            )
        if self.pplbin is not None:
            count += sum(1 for _ in self.pplbin.walk())
        return count

    def __reduce__(self):
        # Deep queries (and their HCL⁻/PPLbin translations, whichever were
        # materialised) overflow the interpreter's recursion limit under the
        # default structural pickle, and `copy.deepcopy` fails the same way.
        # Serialising the fields with a nested pickler under raised headroom
        # makes the query a flat bytes payload to any *outer* pickler — so
        # `pickle.dumps(query)`, pickling a container of queries, shipping a
        # query to a worker process and `deepcopy` (which routes through
        # `__reduce__`) all work regardless of nesting depth.
        size = self.plan_size()
        with _recursion_headroom(size):
            payload = pickle.dumps(
                {
                    "source": self.source,
                    "variables": self.variables,
                    "violations": self.violations,
                    "hcl": self.hcl,
                    "pplbin": self.pplbin,
                    "text": self.text,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        return (_unpickle_query, (payload, size))


#: Guards the process-global recursion limit: concurrent picklers (server
#: submissions compile in worker threads) must not restore the limit while
#: another thread is still inside a deep pickle.
_headroom_lock = threading.Lock()
_headroom_depth = 0
_headroom_baseline = 0


@contextmanager
def _recursion_headroom(node_count: int):
    """Temporarily raise the recursion limit to cover ``node_count`` nesting.

    The pickler spends a handful of frames per nested object; eight per AST
    node is a comfortable over-approximation (nesting depth is at most the
    node count).  The limit is only ever raised while any thread is inside
    (never lowered, so concurrent deep pickles cannot yank each other's
    headroom away) and restored to the outermost entrant's baseline once
    the last thread leaves.
    """
    global _headroom_depth, _headroom_baseline
    target = 1000 + 8 * node_count
    with _headroom_lock:
        if _headroom_depth == 0:
            _headroom_baseline = sys.getrecursionlimit()
        _headroom_depth += 1
        if target > sys.getrecursionlimit():
            sys.setrecursionlimit(target)
    try:
        yield
    finally:
        with _headroom_lock:
            _headroom_depth -= 1
            if _headroom_depth == 0:
                sys.setrecursionlimit(_headroom_baseline)


def _unpickle_query(payload: bytes, size: int) -> "Query":
    """Rebuild a :class:`Query` from its nested-pickle payload."""
    with _recursion_headroom(size):
        fields = pickle.loads(payload)
    return Query(**fields)


#: Entries each in-memory compiled-plan memo keeps.  A stream of fresh
#: query texts would otherwise pin one compiled plan per text for the life
#: of the process; the least recently used plan is dropped first.
PLAN_MEMO_ENTRIES = 256


class PlanMemo:
    """A bounded, thread-safe LRU of compiled queries.

    Keyed by ``(expression, variables)``.  The one memo implementation
    behind the session's plan memo, each document's compile memo, the shard
    workers' memo and the executor's in-parent fallback, all sized by
    :data:`PLAN_MEMO_ENTRIES`.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, Query]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Query]:
        """Return the memoised query (refreshing its recency), or ``None``."""
        with self._lock:
            query = self._entries.get(key)
            if query is not None:
                self._entries.move_to_end(key)
            return query

    def setdefault(self, key: Hashable, query: Query) -> Query:
        """Return the memoised query for ``key``, storing ``query`` if absent."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = query
            if len(self._entries) > PLAN_MEMO_ENTRIES:
                self._entries.popitem(last=False)
            return query

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def compile_query(
    expression: PathExpr | str,
    variables: Sequence[str] = (),
    *,
    require_ppl: bool = True,
) -> Query:
    """Parse, check and translate a query once, for repeated execution.

    With ``require_ppl`` (the default) a non-PPL expression raises
    immediately, like the seed's ``compile_query``; with
    ``require_ppl=False`` the violations are recorded on the query instead,
    so it can still be dispatched to backends that do not need Definition 1
    (e.g. ``"naive"``).

    Raises
    ------
    ParseError
        If the concrete syntax is invalid.
    RestrictionViolation
        If ``require_ppl`` is true and the expression violates Definition 1.
    """
    text = expression if isinstance(expression, str) else None
    if isinstance(expression, str):
        with _trace.span("parse"):
            parsed = parse_path(expression)
    else:
        parsed = expression
    query = _build_query(parsed, tuple(variables), text=text)
    if require_ppl:
        query.require_ppl()
    return query


def _build_query(
    parsed: PathExpr,
    variables: tuple[str, ...],
    *,
    text: Optional[str] = None,
) -> Query:
    """Check and translate a parsed expression into a :class:`Query`."""
    violations = tuple(ppl_violations(parsed))

    hcl: Optional[HclExpr] = None
    if not violations:
        with _trace.span("translate", target="hcl"):
            hcl = ppl_to_hcl(parsed)

    pplbin: Optional[BinExpr] = None
    if is_variable_free(parsed):
        try:
            with _trace.span("translate", target="pplbin"):
                pplbin = from_core_xpath(parsed)
        except TranslationError:  # pragma: no cover - N($x) already excludes this
            pplbin = None

    return Query(
        source=parsed,
        variables=variables,
        violations=violations,
        hcl=hcl,
        pplbin=pplbin,
        text=text,
    )
