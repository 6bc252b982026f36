"""Query diagnostics for the polynomial engine of Theorem 1.

The pipeline itself (now driven by the ``"polynomial"`` engine of the
registry) answers n-ary PPL queries on a fixed tree in time
``O(|P| |t|^3  +  n |P| |t|^2 |A|)``:

1. parse the Core XPath 2.0 expression (if given as text),
2. check the Definition 1 restrictions,
3. translate into HCL⁻(PPLbin) (Fig. 7, Proposition 5),
4. normalise into a sharing formula with equation system (Lemma 3),
5. compile the formula into a set-at-a-time answer plan,
6. run the MC-filtered answering algorithm of Fig. 8 (Propositions 10 and
   11), asking each PPLbin leaf for pre-images, images and edges of whole
   node sets; an ``except`` leaf falls back to the cubic matrix algorithm
   of Theorem 2.

Step 6 reads the leaves through one :class:`repro.hcl.binding.PPLbinOracle`
per document, whose tree arrays, label vectors and relations are cached on
the tree, so answering several queries against the same document reuses
that work.  The entry points live
on :class:`repro.api.Document` and :class:`repro.session.Session`; this
module holds the :class:`QueryReport` those surfaces hand back.  (The
``PPLEngine`` shim that used to live here was removed in 1.5.0 — see the
migration table in the README.)
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass(frozen=True)
class QueryReport:
    """Diagnostic information about one answered query (used by the CLI/benches).

    ``kernel`` names the relation kernel the document's oracle evaluated
    with; ``matrix_cache`` is the snapshot of the tree's byte-budgeted
    matrix-cache counters (hits/misses/evictions/bytes) after answering,
    mirroring the AnswerCache telemetry of the corpus layer.  ``trace`` is
    the per-query span tree (:meth:`repro.obs.trace.Span.to_dict`) when the
    :mod:`repro.obs` tracer was recording during evaluation, else ``None``
    — a plain nested dict, so reports pickle unchanged across the processes
    strategy's pool boundary.  ``cost`` is the per-query resource-accounting
    block (evaluation seconds, compose/row-union op counts, matrix bytes
    allocated, matrix/answer-cache hits and misses, snapshot hit) collected
    by :meth:`repro.api.Document.report`; the corpus and serving layers
    aggregate it into labelled metrics and per-client totals.  A corpus
    pass meters each Fig. 8 run once and gives each document its share:
    seconds and counters in proportion to its node count (integers by
    largest remainder, so they add up to the run's), its own answer-cache
    hit or miss, and ``forest_documents``, the documents the run covered;
    ``matrix_cache`` and ``trace`` are then the run's.
    """

    expression_size: int
    hcl_size: int
    distinct_leaves: int
    variables: tuple[str, ...]
    answer_count: int
    tree_size: Optional[int] = None
    engine: Optional[str] = None
    kernel: Optional[str] = None
    matrix_cache: Optional[dict] = None
    trace: Optional[dict] = None
    cost: Optional[dict] = None

    def to_dict(self) -> dict:
        """Return a plain-dict form (JSON-ready; tuples become lists)."""
        data = asdict(self)
        data["variables"] = list(self.variables)
        data["arity"] = len(self.variables)
        return data

    def to_json(self, **kwargs) -> str:
        """Return the report as a JSON object string."""
        return json.dumps(self.to_dict(), **kwargs)
