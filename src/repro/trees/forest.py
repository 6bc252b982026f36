"""Several documents as one node space: the corpus forest.

A :class:`Forest` lays the trees of many documents end to end, document
``i`` owning the preorder ids ``roots[i] .. roots[i] + size_i - 1``,
the way one pre/post-order "accel" table holds many documents.  Its
:class:`repro.trees.axes.TreeArrays` are the documents' columns shifted
by their offsets, with a ``root`` column naming each
node's document, so every set-at-a-time axis step of
:mod:`repro.trees.axes` stays inside one document: link-following axes stop
at ``parent == -1``, and ``following``/``preceding`` are clipped to the
document interval.

A forest offers what the set-at-a-time Fig. 8 path reads from a tree
(``size``, ``arrays``, ``label_ids``/``label_code`` and ``matrix_cache()``):
its label id column is the documents' columns, each remapped into one
label table and concatenated.  So one
:class:`repro.hcl.answering.HclAnswerer` run answers a query on every
document at once and returns one answer set per document.  It offers no
Theorem 2 relations: plans with an ``except`` leaf are answered one
document at a time.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.trees.axes import TreeArrays, tree_arrays
from repro.trees.tree import MatrixCache, Tree


class Forest:
    """The concatenation of ``trees``, in order, as one node space."""

    __slots__ = (
        "trees", "size", "arrays", "label_ids", "_label_codes", "_matrix_cache", "_answerer",
    )

    def __init__(self, trees: Sequence[Tree]) -> None:
        self.trees = tuple(trees)
        self.arrays = TreeArrays.concatenate([tree_arrays(tree) for tree in self.trees])
        self.size = self.arrays.nodes.size
        codes: dict[str, int] = {}
        label_ids = []
        for tree in self.trees:
            remap = np.array(
                [codes.setdefault(name, len(codes)) for name in tree.columns.label_names],
                dtype=np.int64,
            )
            label_ids.append(remap[tree.label_ids])
        self.label_ids = np.concatenate(label_ids)
        self._label_codes = codes
        # The arrays plus label vectors, bounded by the alphabet: no budget.
        self._matrix_cache = MatrixCache(None)
        self._matrix_cache[("tree-arrays",)] = self.arrays
        self._answerer = None

    def label_code(self, label: str) -> Optional[int]:
        """The id of ``label`` in the forest's label table, or ``None``."""
        return self._label_codes.get(label)

    def matrix_cache(self) -> MatrixCache:
        """The forest's own cache (its arrays and label vectors)."""
        return self._matrix_cache

    def answerer(self):
        """The Fig. 8 answerer over the whole forest (built once)."""
        if self._answerer is None:
            from repro.hcl.answering import HclAnswerer
            from repro.hcl.binding import PPLbinOracle

            self._answerer = HclAnswerer(self, PPLbinOracle(self))
        return self._answerer

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Forest(documents={len(self.trees)}, size={self.size})"
