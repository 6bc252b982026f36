"""The MC filtering table of Proposition 10.

For a sharing formula ``D`` with equation system ``Δ`` over a tree ``t``, the
table holds for every sub-formula ``D0`` and node ``u`` the Boolean value

    MC(D0, u) = 1  iff  exists alpha, u' such that (u, u') in [[D0_Δ]]^{t,alpha}

i.e. whether some navigation along ``D0`` can start at ``u`` for *some*
choice of the variables.  The table is stored one Boolean column per
sub-formula and filled bottom-up over the compiled plan
(:mod:`repro.hcl.plan`), one whole column at a time:

* ``MC(self, ·)`` is all true;
* ``MC(D ∪ D', ·) = MC(D, ·) ∨ MC(D', ·)``;
* ``MC(x/D, ·) = MC(D, ·)`` — correct because of NVS(/): ``x`` does not
  occur in ``D``, so its value can be chosen independently (here: ``u``);
* ``MC([D']/D, ·) = MC(D', ·) ∧ MC(D, ·)``;
* ``MC(b/D, ·)`` is the pre-image of ``MC(D, ·)`` under ``q_b(t)``, which
  the oracle computes set-at-a-time (:mod:`repro.pplbin.setwise`).

Each column costs O(|t|) vector work per PPLbin step (an ``except`` reads
its Theorem 2 relation instead), well inside the O(|t|^2 (|D| + |Δ|)) of
Proposition 10.  The Fig. 8 answering algorithm
reads the columns to prune unsatisfiable branches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hcl.binding import BinaryQueryOracle, setwise_oracle
from repro.hcl.plan import FILTER, LEAF, SELF, UNION, Fig8Plan, compile_plan
from repro.hcl.sharing import EquationSystem, SharedExpr
from repro.trees.tree import Tree


class MCTable:
    """Satisfiability columns for one (D, Δ, t) triple.

    ``formula`` is either a sharing formula with its equation system, or an
    already compiled :class:`repro.hcl.plan.Fig8Plan` (``system`` is then
    ignored).  Every column is computed on construction, exactly once.
    """

    def __init__(
        self,
        tree: Tree,
        formula: SharedExpr | Fig8Plan,
        system: Optional[EquationSystem],
        oracle: BinaryQueryOracle,
    ) -> None:
        self.tree = tree
        self.oracle = setwise_oracle(oracle)
        # id(sub-formula) -> column, for lookups by formula object.
        self._index: dict[int, int] = {}
        if isinstance(formula, Fig8Plan):
            self.plan = formula
        else:
            self.plan = compile_plan(formula, system, index=self._index)
            self._formula = formula  # keeps the id()-keyed sub-formulas alive
            self._system = system
        self.columns = self._compute()

    def _compute(self) -> list[np.ndarray]:
        everything = np.ones(self.tree.size, dtype=bool)
        columns: list[np.ndarray] = []
        for opcode, first, second in self.plan.instructions:
            if opcode == SELF:
                column = everything
            elif opcode == UNION:
                column = columns[first] | columns[second]
            elif opcode == LEAF:
                column = self.oracle.preimage(first, columns[second])
            elif opcode == FILTER:
                column = columns[first] & columns[second]
            else:  # VAR
                column = columns[second]
            columns.append(column)
        return columns

    def table_size(self) -> int:
        """Return the number of sub-formulas tracked (the |D| + |Δ| factor)."""
        return len(self.plan.instructions)

    def entries_computed(self) -> int:
        """Return how many (sub-formula, node) entries have been computed."""
        return len(self.columns) * self.tree.size

    def value(self, formula: SharedExpr | int, node: int) -> bool:
        """Return MC(formula, node) for a sub-formula object or instruction index."""
        position = formula if isinstance(formula, int) else self._index[id(formula)]
        return bool(self.columns[position][node])

    def precompute(self) -> None:
        """Fill the whole table.

        Mirrors the presentation of Proposition 10, which computes the table
        up front; the columns are already complete after construction, so
        this is a no-op kept for that reading.
        """
