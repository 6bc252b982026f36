"""E2 — Theorem 1: PPL n-ary answering is polynomial in |t| and output-sensitive.

The paper's bound is O(|P| |t|^3 + n |P| |t|^2 |A|).  The series here grows
the bibliography document (and with it, proportionally, the answer set of the
author/title pair query) and measures end-to-end answering time with the
polynomial engine — growth must stay polynomial, in contrast to the |t|^n
behaviour of the naive engine measured in E3.

The cold series runs under both the legacy dense kernel and the adaptive
bitset/sparse kernel, recording the end-to-end wall-clock improvement of the
matrix-kernel rework (the leaf relations of the author/title query are
sparse, which is exactly the regime the adaptive kernel exploits).
"""

from __future__ import annotations

import pytest

from repro.api import Document
from repro.workloads.bibliography import bibliography_pair_query, generate_bibliography

import matmul_baselines as bm
from bench_utils import run_once

BOOK_COUNTS = [5, 10, 20, 40, 80]
#: ``uint8-dense`` is the seed's kernel (the pre-rework baseline); ``dense``
#: is the new BLAS product; ``adaptive`` is the default.
KERNELS = ["uint8-dense", "dense", "adaptive"]


def _kernel(name):
    return bm.MatmulKernel(bm.bool_matmul) if name == "uint8-dense" else name


@pytest.mark.parametrize("books", BOOK_COUNTS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_pair_query_scaling(benchmark, kernel, books):
    document = generate_bibliography(
        books, authors_per_book=2, titles_per_book=1, decoys_per_book=2, seed=books
    )
    query, variables = bibliography_pair_query()

    def answer():
        # A fresh document per measurement: include translation and all matrix
        # evaluations in the measured cost (the "combined complexity" view).
        return Document(document.to_node(), kernel=_kernel(kernel)).answer(
            query, variables
        )

    answers = run_once(benchmark, answer, rounds=7)
    benchmark.extra_info["tree_size"] = document.size
    benchmark.extra_info["answer_size"] = len(answers)
    benchmark.extra_info["tuple_width"] = len(variables)
    benchmark.extra_info["kernel"] = kernel


@pytest.mark.parametrize("books", [10, 40])
@pytest.mark.parametrize("kernel", KERNELS)
def test_pair_query_scaling_warm_engine(benchmark, kernel, books):
    """Same series with a warm document: leaf relations already cached."""
    tree = generate_bibliography(
        books, authors_per_book=2, titles_per_book=1, decoys_per_book=2, seed=books
    )
    query, variables = bibliography_pair_query()
    engine = Document(tree, kernel=_kernel(kernel))
    engine.answer(query, variables)  # warm the caches

    answers = run_once(benchmark, engine.answer, query, variables)
    benchmark.extra_info["tree_size"] = tree.size
    benchmark.extra_info["answer_size"] = len(answers)
    benchmark.extra_info["kernel"] = kernel
