"""HCL(L) — the hybrid composition language (substrates S5 and S6).

HCL(L) (Section 5 of the paper) builds n-ary queries from a binary query
language ``L`` using composition, variables, filters and unions.  Its
variable-sharing-free fragment HCL⁻(L) admits the output-sensitive
polynomial-time answering algorithm of Section 7 (Fig. 8), which this package
implements, along with the acyclic-conjunctive-query machinery of Section 6.

Modules:

* :mod:`~repro.hcl.ast` — syntax (Fig. 5) and naive semantics (Fig. 6).
* :mod:`~repro.hcl.binding` — the oracle interface for the parameter
  language ``L`` and concrete oracles (PPLbin, raw axes, explicit relations).
* :mod:`~repro.hcl.sharing` — sharing expressions and equation systems
  (Lemma 3).
* :mod:`~repro.hcl.plan` — a sharing formula compiled once into a flat
  instruction DAG.
* :mod:`~repro.hcl.mc` — the MC filtering table (Proposition 10), one
  Boolean column per sub-formula.
* :mod:`~repro.hcl.answering` — the Fig. 8 answering algorithm
  (Proposition 11), run set-at-a-time over integer valuation tables.
* :mod:`~repro.hcl.acq` / :mod:`~repro.hcl.yannakakis` — acyclic conjunctive
  queries over binary relations and Yannakakis' algorithm (Section 6).
"""

from repro.hcl.ast import (
    HclExpr,
    HCompose,
    HFilter,
    HUnion,
    HVar,
    Leaf,
    compose,
    evaluate_hcl,
    hcl_naive_answer,
    union,
)
from repro.hcl.binding import (
    AxisOracle,
    BinaryQueryOracle,
    ExplicitRelationOracle,
    PPLbinOracle,
)
from repro.hcl.sharing import EquationSystem, normalize
from repro.hcl.answering import HclAnswerer, answer_hcl, check_no_variable_sharing
from repro.hcl.acq import Atom, ConjunctiveQuery, UnionOfACQs
from repro.hcl.yannakakis import yannakakis_answer

__all__ = [
    "HclExpr",
    "Leaf",
    "HVar",
    "HCompose",
    "HFilter",
    "HUnion",
    "compose",
    "union",
    "evaluate_hcl",
    "hcl_naive_answer",
    "BinaryQueryOracle",
    "PPLbinOracle",
    "AxisOracle",
    "ExplicitRelationOracle",
    "EquationSystem",
    "normalize",
    "answer_hcl",
    "HclAnswerer",
    "check_no_variable_sharing",
    "Atom",
    "ConjunctiveQuery",
    "UnionOfACQs",
    "yannakakis_answer",
]
