"""PPLbin — the variable-free polynomial-time path language (substrate S4).

PPLbin (Fig. 3 of the paper) is Core XPath 1.0 extended with the complement
operator ``except P``.  It defines binary queries and is the binary query
language plugged into the hybrid composition language to obtain PPL.

Modules:

* :mod:`~repro.pplbin.ast` — the Fig. 3 abstract syntax.
* :mod:`~repro.pplbin.parser` — concrete syntax parser.
* :mod:`~repro.pplbin.bitmatrix` — the dense / packed-bitset / sparse /
  adaptive relation kernel behind the evaluator.
* :mod:`~repro.pplbin.evaluator` — the O(|P| |t|^3) evaluator of Theorem 2.
* :mod:`~repro.pplbin.setwise` — set-at-a-time pre-images, images and edges
  of a binary query, the access path of the Fig. 8 answerer.
* :mod:`~repro.pplbin.translate` — Fig. 4: variable-free Core XPath 2.0 to
  PPLbin, and the inverse embedding used as a correctness oracle.
* :mod:`~repro.pplbin.corexpath1` — the linear-time set-based evaluator for
  the except-free fragment (Core XPath 1.0), the Gottlob/Koch/Pichler
  baseline discussed in Section 4.
"""

from repro.pplbin.ast import (
    BExcept,
    BFilter,
    BCompose,
    BStep,
    BUnion,
    BinExpr,
    SelfStep,
    binary_compose,
    binary_except,
    binary_intersect,
    nodes_query,
)
from repro.pplbin.parser import parse_pplbin
from repro.pplbin.bitmatrix import (
    KERNEL_NAMES,
    Relation,
    get_default_kernel,
    get_kernel,
    set_default_kernel,
)
from repro.pplbin.evaluator import evaluate_matrix, evaluate_pairs, evaluate_relation
from repro.pplbin.translate import from_core_xpath, to_core_xpath

__all__ = [
    "KERNEL_NAMES",
    "Relation",
    "get_default_kernel",
    "get_kernel",
    "set_default_kernel",
    "evaluate_relation",
    "BinExpr",
    "BStep",
    "SelfStep",
    "BCompose",
    "BUnion",
    "BExcept",
    "BFilter",
    "binary_compose",
    "binary_except",
    "binary_intersect",
    "nodes_query",
    "parse_pplbin",
    "evaluate_matrix",
    "evaluate_pairs",
    "from_core_xpath",
    "to_core_xpath",
]
