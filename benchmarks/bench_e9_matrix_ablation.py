"""E9 — ablation: the Boolean matrix product dominates PPLbin evaluation.

Section 4 notes that the cubic bound of Theorem 2 comes from Boolean matrix
multiplication (and could in theory be lowered to O(n^2.376)).  This ablation
compares, on the same queries, the relation kernels of
:mod:`repro.pplbin.bitmatrix`:

* ``dense`` — dense bool matrices, float32 BLAS product,
* ``bitset`` — rows packed into uint64 words, n^3/64 bit operations,
* ``sparse`` — per-row successor sets, cost follows the 1-entries touched,
* ``adaptive`` — per-sub-expression choice by the density cost model,

against the two legacy baselines kept for the trajectory:

* ``uint8-dense`` — the seed's uint8-cast numpy product (the "current dense
  product" the packed kernel is measured against),
* ``naive-triple-loop`` — the textbook O(n^3) Python loop the paper's
  complexity analysis counts (capped at small trees).

Two query families: a sparse one (axis compositions only) and a dense one
(complement under composition, which densifies every operand).  Every
measurement *asserts* that the evaluated relation matches the dense kernel's
answer, so a kernel disagreement fails the bench (and CI's smoke run).

Set ``REPRO_BENCH_SCALE=smoke`` to shrink the grid for CI.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

import pytest

from repro.obs import calibrate as obs_calibrate
from repro.trees.generators import random_tree
from repro.pplbin import bitmatrix
from repro.pplbin.bitmatrix import KERNEL_NAMES
from repro.pplbin.evaluator import evaluate_relation
from repro.pplbin.parser import parse_pplbin

import matmul_baselines as bm
from bench_utils import run_once, run_single

SMOKE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke"

SPARSE_QUERY = "child::*/descendant::a/child::*/ancestor::b"
DENSE_QUERY = "(except child::a)/(except descendant::b)"
QUERIES = {"sparse": SPARSE_QUERY, "dense": DENSE_QUERY}

KERNEL_SIZES = [30, 60] if SMOKE else [64, 128, 256, 512]
UINT8_SIZES = [30, 60] if SMOKE else [64, 128, 256, 512]
TRIPLE_LOOP_SIZES = [20] if SMOKE else [30, 60]


@lru_cache(maxsize=None)
def _tree(size: int):
    return random_tree(size, seed=size)


@lru_cache(maxsize=None)
def _reference_pairs(size: int, query_kind: str):
    """The answer set every kernel must reproduce (dense kernel, uncached)."""
    expression = parse_pplbin(QUERIES[query_kind])
    return evaluate_relation(
        _tree(size), expression, kernel="dense", use_cache=False
    ).pairs()


def _record(benchmark, relation, size, query_kind, kernel):
    benchmark.extra_info["tree_size"] = size
    benchmark.extra_info["query_kind"] = query_kind
    benchmark.extra_info["kernel"] = kernel
    benchmark.extra_info["result_pairs"] = relation.nnz()
    benchmark.extra_info["density"] = relation.density()
    benchmark.extra_info["representation"] = relation.representation
    assert relation.pairs() == _reference_pairs(size, query_kind), (
        f"kernel {kernel} disagrees with the dense reference on "
        f"size={size} query={query_kind}"
    )


@pytest.mark.parametrize("size", KERNEL_SIZES)
@pytest.mark.parametrize("query_kind", ["sparse", "dense"])
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_kernel_products(benchmark, kernel, size, query_kind):
    tree = _tree(size)
    expression = parse_pplbin(QUERIES[query_kind])

    def evaluate():
        return evaluate_relation(tree, expression, kernel=kernel, use_cache=False)

    if SMOKE:
        rounds = 1
    elif kernel == "sparse" and query_kind == "dense":
        rounds = 2  # documented pathological regime; no need to average it
    else:
        rounds = 15 if size <= 128 else 7  # sub-ms configs need more rounds
    evaluate()  # warm the per-tree axis relations; the products stay measured
    relation = run_once(benchmark, evaluate, rounds=rounds)
    _record(benchmark, relation, size, query_kind, kernel)


@pytest.mark.parametrize("size", UINT8_SIZES)
@pytest.mark.parametrize("query_kind", ["sparse", "dense"])
def test_uint8_dense_baseline(benchmark, size, query_kind):
    """The seed's uint8-cast dense product — the bar the bitset kernel beats."""
    tree = _tree(size)
    expression = parse_pplbin(QUERIES[query_kind])
    kernel = bm.MatmulKernel(bm.bool_matmul)

    def evaluate():
        return evaluate_relation(tree, expression, kernel=kernel, use_cache=False)

    evaluate()  # warm the per-tree axis relations; the products stay measured
    relation = run_once(benchmark, evaluate)
    _record(benchmark, relation, size, query_kind, "uint8-dense")


@pytest.mark.parametrize("size", TRIPLE_LOOP_SIZES)
def test_triple_loop_product(benchmark, size):
    tree = _tree(size)
    expression = parse_pplbin(SPARSE_QUERY)
    kernel = bm.MatmulKernel(bm.bool_matmul_python)

    def evaluate():
        return evaluate_relation(tree, expression, kernel=kernel, use_cache=False)

    relation = run_single(benchmark, evaluate)
    _record(benchmark, relation, size, "sparse", "naive-triple-loop")


#: Calibrated-adaptive acceptance: the whole-grid adaptive time may exceed
#: the best single fixed kernel by at most this factor.
CALIBRATED_ADAPTIVE_MARGIN = 1.15
CALIBRATION_SIZES = (48, 64, 96) if SMOKE else (96, 192, 320)
CALIBRATION_DENSITIES = (2.0, 8.0) if SMOKE else (2.0, 8.0, 32.0, 128.0)
FIXED_KERNELS = ("dense", "bitset", "sparse")


def test_calibrated_adaptive_tracks_best_fixed_kernel(benchmark):
    """Acceptance: with a freshly fitted profile, adaptive stays competitive.

    Fits cost-model constants from a controlled compose workload on *this*
    machine (``repro.obs.calibrate``), applies them, then times the full
    (size, query) grid under every fixed kernel and under ``adaptive``.
    The adaptive kernel's whole-grid time must stay within 15% of the best
    fixed kernel's — the cost model, recalibrated from observed spans, must
    still be steering representation choice correctly.
    """
    profile = obs_calibrate.calibrate(
        sizes=CALIBRATION_SIZES,
        per_node_densities=CALIBRATION_DENSITIES,
        repeats=1 if SMOKE else 3,
        seed=9,
    )
    assert profile["constants"], "the controlled grid must fit at least one constant"

    cells = [(size, kind) for size in KERNEL_SIZES for kind in ("sparse", "dense")]
    rounds = 2 if SMOKE else 5

    def grid_seconds(kernel: str) -> float:
        total = 0.0
        for size, kind in cells:
            tree = _tree(size)
            expression = parse_pplbin(QUERIES[kind])
            evaluate_relation(tree, expression, kernel=kernel, use_cache=False)  # warm
            best = None
            for _ in range(rounds):
                started = time.perf_counter()
                relation = evaluate_relation(
                    tree, expression, kernel=kernel, use_cache=False
                )
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            assert relation.pairs() == _reference_pairs(size, kind)
            total += best
        return total

    bitmatrix.set_cost_constants(profile["constants"])
    try:
        fixed = {kernel: grid_seconds(kernel) for kernel in FIXED_KERNELS}
        adaptive_seconds = grid_seconds("adaptive")

        def evaluate():  # the recorded measurement: one calibrated adaptive pass
            for size, kind in cells:
                evaluate_relation(
                    _tree(size), parse_pplbin(QUERIES[kind]), kernel="adaptive",
                    use_cache=False,
                )

        run_once(benchmark, evaluate, rounds=1 if SMOKE else 3)
    finally:
        bitmatrix.set_cost_constants(None)

    best_kernel = min(fixed, key=fixed.get)
    ratio = adaptive_seconds / fixed[best_kernel]
    benchmark.extra_info["calibration_constants"] = profile["constants"]
    benchmark.extra_info["calibration_samples"] = profile["samples"]
    benchmark.extra_info["fixed_grid_seconds"] = fixed
    benchmark.extra_info["adaptive_grid_seconds"] = adaptive_seconds
    benchmark.extra_info["best_fixed_kernel"] = best_kernel
    benchmark.extra_info["adaptive_vs_best_fixed"] = ratio
    benchmark.extra_info["margin"] = CALIBRATED_ADAPTIVE_MARGIN
    assert ratio <= CALIBRATED_ADAPTIVE_MARGIN, (
        f"calibrated adaptive ran {ratio:.2f}x the best fixed kernel "
        f"({best_kernel}); margin is {CALIBRATED_ADAPTIVE_MARGIN}"
    )


@pytest.mark.parametrize("size", TRIPLE_LOOP_SIZES)
def test_legacy_sparse_sets_product(benchmark, size):
    """The seed's python successor-set matmul (superseded by SparseRelation)."""
    tree = _tree(size)
    expression = parse_pplbin(SPARSE_QUERY)
    kernel = bm.MatmulKernel(bm.bool_matmul_sparse)

    def evaluate():
        return evaluate_relation(tree, expression, kernel=kernel, use_cache=False)

    relation = run_single(benchmark, evaluate)
    _record(benchmark, relation, size, "sparse", "legacy-sparse-sets")
