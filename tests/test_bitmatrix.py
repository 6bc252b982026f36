"""Tests for the packed-bitset matrix kernel and its integration.

Covers the :mod:`repro.pplbin.bitmatrix` representations and kernels, the
kernel-equivalence guarantee (dense / bitset / sparse / adaptive produce
identical relations on randomized trees and generated expressions, checked
against the Fig. 2 semantics oracle), axis relations against the
``iter_axis`` reference, the oracle's per-node rows, the evaluator
cache-key regression, the byte-budgeted per-tree matrix cache and its
telemetry, and the baseline products of ``benchmarks/matmul_baselines.py``
(the uint8 matmul overflow regression among them).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.api import Document
from repro.corpus.cache import AnswerCache, estimate_entry_bytes
from repro.corpus.store import DocumentStore
from repro.hcl.binding import PPLbinOracle
from repro.trees.axes import AXES, axis_matrix, axis_pairs, axis_relation
from repro.trees.generators import chain_tree, random_shallow_tree, random_tree
from repro.trees.tree import MatrixCache, Node, Tree
from repro.pplbin import bitmatrix as bx
from repro.pplbin.ast import BCompose, BExcept, BFilter, BinExpr, BStep, BUnion, SelfStep
from repro.pplbin.corexpath1 import binary_relation
from repro.pplbin.evaluator import evaluate_matrix, evaluate_relation
from repro.pplbin.parser import parse_pplbin
from repro.pplbin.translate import to_core_xpath
from repro.xpath.semantics import evaluate_path

import matmul_baselines as bm  # benchmarks/, put on the path by conftest.py

KERNELS = list(bx.KERNEL_NAMES)


@pytest.fixture(autouse=True)
def _reset_kernel_state():
    yield
    bx.set_default_kernel(None)
    bx.reset_counters()


# ------------------------------------------------------------ representations
@pytest.mark.parametrize("size", [0, 1, 2, 63, 64, 65, 130])
def test_representation_round_trips(size):
    rng = np.random.default_rng(size)
    dense = rng.random((size, size)) < 0.3
    relation = bx.relation_from_matrix(dense)
    bitset = relation.to_bitset()
    sparse = relation.to_sparse()
    assert np.array_equal(bitset.to_dense(), dense)
    assert np.array_equal(sparse.to_dense(), dense)
    assert np.array_equal(sparse.to_bitset().to_dense(), dense)
    assert relation.nnz() == bitset.nnz() == sparse.nnz() == int(dense.sum())
    assert relation.pairs() == bitset.pairs() == sparse.pairs()
    for node in range(size):
        expected = np.flatnonzero(dense[node])
        for rep in (relation, bitset, sparse):
            assert np.array_equal(rep.row_indices(node), expected)
            assert rep.row_any(node) == bool(expected.size)


@pytest.mark.parametrize("kernel_name", KERNELS)
@pytest.mark.parametrize("size", [0, 1, 5, 70])
def test_kernel_algebra_matches_dense_reference(kernel_name, size):
    rng = np.random.default_rng(7 * size + 1)
    a = rng.random((size, size)) < 0.25
    b = rng.random((size, size)) < 0.25
    kernel = bx.get_kernel(kernel_name)
    # Exercise mixed-representation operands on purpose.
    ra = bx.relation_from_matrix(a).to_bitset()
    rb = bx.relation_from_matrix(b).to_sparse()
    reference = (a.astype(np.int64) @ b.astype(np.int64)) != 0
    assert np.array_equal(kernel.compose(ra, rb).to_dense(), reference)
    assert np.array_equal(kernel.union(ra, rb).to_dense(), a | b)
    assert np.array_equal(kernel.intersection(ra, rb).to_dense(), a & b)
    assert np.array_equal(kernel.difference(ra, rb).to_dense(), a & ~b)
    assert np.array_equal(kernel.complement(ra).to_dense(), ~a)
    diagonal = np.zeros_like(a)
    np.fill_diagonal(diagonal, a.any(axis=1))
    assert np.array_equal(kernel.filter_diagonal(ra).to_dense(), diagonal)
    assert np.array_equal(kernel.identity(size).to_dense(), np.eye(size, dtype=bool))


def test_cost_model_regimes():
    # Tiny relations stay dense; large sparse ones go sparse; large mid-density
    # ones pack into words.
    assert bx.preferred_representation(32, 200) == "dense"
    assert bx.preferred_representation(1000, 900) == "sparse"
    assert bx.preferred_representation(1000, 100_000) == "bitset"
    assert bx.choose_compose(32, 100, 100) == "dense"
    assert bx.choose_compose(2048, 2048, 2048) == "sparse"
    assert bx.choose_compose(2048, 400_000, 400_000) in ("bitset", "dense")


def test_kernel_registry_and_default():
    assert set(KERNELS) == {"dense", "bitset", "sparse", "adaptive"}
    assert bx.get_default_kernel().name == "adaptive"
    assert bx.set_default_kernel("bitset").name == "bitset"
    assert bx.get_kernel(None).name == "bitset"
    assert bx.set_default_kernel(None).name == "adaptive"
    with pytest.raises(ValueError):
        bx.get_kernel("nope")


# ---------------------------------------------- baseline products (benchmarks/)
def test_bool_matmul_no_uint8_overflow():
    # Regression: the seed's uint8-cast product wrapped counts at 256 — an
    # all-ones 256x256 product came back all-False.
    for size in (256, 300, 511):
        ones = np.ones((size, size), dtype=bool)
        assert bm.bool_matmul(ones, ones).all()
    rng = np.random.default_rng(11)
    a = rng.random((300, 300)) < 0.95
    b = rng.random((300, 300)) < 0.95
    expected = (a.astype(np.int64) @ b.astype(np.int64)) != 0
    assert np.array_equal(bm.bool_matmul(a, b), expected)


def test_bool_matmul_sparse_zero_operands_early_exit():
    zero = np.zeros((40, 40), dtype=bool)
    some = np.zeros((40, 40), dtype=bool)
    some[3, 7] = True
    assert not bm.bool_matmul_sparse(zero, some).any()
    assert not bm.bool_matmul_sparse(some, zero).any()
    rng = np.random.default_rng(5)
    a = rng.random((40, 40)) < 0.1
    b = rng.random((40, 40)) < 0.1
    expected = (a.astype(np.int64) @ b.astype(np.int64)) != 0
    assert np.array_equal(bm.bool_matmul_sparse(a, b), expected)


# -------------------------------------------------------- kernel equivalence
_GEN_AXES = [axis for axis in AXES]
_GEN_LABELS = ["a", "b", "c", "d", None, "zz-absent"]


def _random_expression(rng: random.Random, depth: int) -> BinExpr:
    """A random PPLbin AST drawing from every axis and operator."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return SelfStep()
        return BStep(rng.choice(_GEN_AXES), rng.choice(_GEN_LABELS))
    operator = rng.random()
    if operator < 0.35:
        return BCompose(
            _random_expression(rng, depth - 1), _random_expression(rng, depth - 1)
        )
    if operator < 0.6:
        return BUnion(
            _random_expression(rng, depth - 1), _random_expression(rng, depth - 1)
        )
    if operator < 0.8:
        return BExcept(_random_expression(rng, depth - 1))
    return BFilter(_random_expression(rng, depth - 1))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kernels_agree_on_random_trees_and_expressions(seed):
    rng = random.Random(seed)
    tree = random_tree(10 + 7 * seed, seed=seed)
    for _ in range(12):
        expression = _random_expression(rng, 3)
        relations = {
            name: evaluate_relation(tree, expression, kernel=name, use_cache=False)
            for name in KERNELS
        }
        reference = relations["dense"].pairs()
        for name, relation in relations.items():
            assert relation.pairs() == reference, (name, expression.unparse())
        # The Fig. 2 semantics oracle cross-checks the dense reference.
        assert reference == evaluate_path(tree, to_core_xpath(expression))


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_kernels_on_one_node_and_chain_trees(kernel_name):
    one = Tree(Node("a"))
    for text in ["descendant::*", "except self", "[child::a]", "self/self"]:
        relation = evaluate_relation(one, text, kernel=kernel_name)
        assert relation.pairs() == evaluate_path(one, to_core_xpath(parse_pplbin(text)))
    chain = chain_tree(2)
    for text in ["child::a", "except child::a", "descendant::a/ancestor::a"]:
        relation = evaluate_relation(chain, text, kernel=kernel_name, use_cache=False)
        assert relation.pairs() == evaluate_path(chain, to_core_xpath(parse_pplbin(text)))


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_except_dense_expressions_across_kernels(kernel_name):
    tree = random_tree(60, seed=21)
    for text in [
        "(except child::a)/(except descendant::b)",
        "except (descendant::*/parent::*)",
        "(except (child::* union parent::*))/(except self)",
    ]:
        got = evaluate_relation(tree, text, kernel=kernel_name, use_cache=False)
        want = evaluate_relation(tree, text, kernel="dense", use_cache=False)
        assert got.pairs() == want.pairs()


def test_corexpath1_produces_relation_values():
    tree = random_tree(25, seed=4)
    text = "child::a/descendant::*[child::b]"
    relation = binary_relation(tree, text)
    assert isinstance(relation, bx.SparseRelation)
    assert relation.pairs() == evaluate_relation(tree, text).pairs()


def _caterpillar(length: int) -> Tree:
    """A spine ``length`` deep whose nodes each carry a leaf on both sides."""
    node = Node("a")
    for index in range(length):
        node = Node("b" if index % 2 else "a", Node("c"), node, Node("d"))
    return Tree(node)


#: Random, deep and wide trees, large enough that following/preceding and
#: the sibling axes reach their interval cases.
_AXIS_TREES = {
    "random": lambda: random_tree(600, seed=9),
    "deep": lambda: _caterpillar(100),
    "wide": lambda: random_shallow_tree(1000, 2, seed=3),
}


@pytest.fixture(scope="module")
def axis_references():
    """Per tree kind: the tree and, per axis, its dense matrix from ``axis_pairs``."""
    references = {}
    for kind, build in _AXIS_TREES.items():
        tree = build()
        matrices = {}
        for axis in AXES:
            matrix = np.zeros((tree.size, tree.size), dtype=bool)
            pairs = np.array(sorted(axis_pairs(tree, axis)), dtype=np.int64).reshape(-1, 2)
            matrix[pairs[:, 0], pairs[:, 1]] = True
            matrices[axis] = matrix
        references[kind] = (tree, matrices)
    return references


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_axis_relations_match_axis_matrices(kernel_name, axis_references):
    # Every kernel's axis relation, and the dense axis matrix, against the
    # independent iter_axis reference.
    for kind, (reference, expected) in axis_references.items():
        tree = Tree(reference.to_node())
        for axis in AXES:
            relation = axis_relation(tree, axis, kernel_name)
            assert np.array_equal(relation.to_dense(), expected[axis]), (kind, axis)
            assert relation.nnz() == int(expected[axis].sum()), (kind, axis)
            assert np.array_equal(axis_matrix(tree, axis), expected[axis]), (kind, axis)


# ------------------------------------------------------------- oracle rows
@pytest.mark.parametrize(
    "text",
    [
        "child::b",
        "except child::b",
        "[descendant::d]",
        "child::*/descendant::*",
        "(ancestor::* union self)/(descendant::* union self)",
        "except (descendant::b/parent::c)",
    ],
)
def test_demand_driven_rows_match_full_matrix(text):
    # Rows asked for on demand, one node at a time (PPLbinOracle.successors /
    # has_successor, each a row of the cached relation), against the full
    # matrix of the Fig. 2 semantics.
    tree = random_tree(35, seed=17)
    expected = np.zeros((tree.size, tree.size), dtype=bool)
    for source, target in evaluate_path(tree, to_core_xpath(parse_pplbin(text))):
        expected[source, target] = True
    for kernel_name in KERNELS:
        oracle = PPLbinOracle(Tree(tree.to_node()), kernel=kernel_name)
        for node in tree.nodes():
            row = oracle.successors(text, node)
            assert row == np.flatnonzero(expected[node]).tolist(), (text, kernel_name, node)
            assert oracle.has_successor(text, node) == bool(row)


# ------------------------------------------------------- cache-key regression
def test_custom_matmuls_do_not_share_cache_entries(tiny_tree):
    # Regression: the seed keyed the evaluator cache on `matmul is
    # bool_matmul`, mapping *all* custom products onto one entry.
    calls = {"first": 0, "second": 0}

    def first_matmul(a, b):
        calls["first"] += 1
        return bm.bool_matmul(a, b)

    def second_matmul(a, b):
        calls["second"] += 1
        return bm.bool_matmul(a, b)

    expression = parse_pplbin("child::*/child::*")
    evaluate_matrix(tiny_tree, expression, kernel=bm.MatmulKernel(first_matmul))
    assert calls == {"first": 1, "second": 0}
    evaluate_matrix(tiny_tree, expression, kernel=bm.MatmulKernel(second_matmul))
    assert calls == {"first": 1, "second": 1}, "second matmul must not reuse first's cache"
    # Repeats hit their own cache entries: no further product calls.
    evaluate_matrix(tiny_tree, expression, kernel=bm.MatmulKernel(first_matmul))
    evaluate_matrix(tiny_tree, expression, kernel=bm.MatmulKernel(second_matmul))
    assert calls == {"first": 1, "second": 1}


def test_kernels_have_distinct_cache_namespaces(tiny_tree):
    dense = evaluate_matrix(tiny_tree, "child::*", kernel="dense")
    bitset = evaluate_relation(tiny_tree, "child::*", kernel="bitset")
    assert isinstance(bitset, bx.BitsetRelation)
    assert np.array_equal(bitset.to_dense(), dense)


def test_evaluate_matrix_still_caches_identically(tiny_tree):
    first = evaluate_matrix(tiny_tree, "descendant::*[child::d]")
    second = evaluate_matrix(tiny_tree, "descendant::*[child::d]")
    assert first is second
    assert not first.flags.writeable


# -------------------------------------------------------- bounded matrix cache
def test_matrix_cache_budget_and_stats():
    cache = MatrixCache(max_bytes=3000)
    big = np.zeros((10, 10), dtype=np.float64)  # 800 bytes + overhead
    for index in range(5):
        cache[("entry", index)] = big
    stats = cache.stats
    assert stats.evictions >= 2
    assert stats.current_bytes <= 3000
    assert stats.insertions == 5
    assert len(cache) == stats.entries
    assert cache.get(("entry", 4)) is big
    assert cache.get(("missing",)) is None
    stats = cache.stats
    assert stats.hits == 1 and stats.misses >= 1
    # An entry larger than the whole budget is not stored.
    cache[("huge",)] = np.zeros(10_000, dtype=np.float64)
    assert ("huge",) not in cache


def test_matrix_cache_unbounded_and_lru_order():
    cache = MatrixCache(max_bytes=None)
    for index in range(100):
        cache[index] = np.zeros(64, dtype=np.uint8)
    assert len(cache) == 100
    assert cache.stats.evictions == 0

    bounded = MatrixCache(max_bytes=1000)
    a, b = np.zeros(300, dtype=np.uint8), np.zeros(300, dtype=np.uint8)
    bounded["a"] = a
    bounded["b"] = b
    assert bounded.get("a") is a  # bump recency: "b" is now LRU
    bounded["c"] = np.zeros(300, dtype=np.uint8)
    assert "b" not in bounded and "a" in bounded


def test_tree_cache_budget_constructor_and_eviction_safety():
    tree = Tree(Node("a", Node("b"), Node("c")), matrix_cache_bytes=1)
    # Every relation overflows the 1-byte budget: nothing caches, everything
    # still evaluates correctly.
    first = evaluate_matrix(tree, "child::*")
    second = evaluate_matrix(tree, "child::*")
    assert np.array_equal(first, second)
    assert len(tree.matrix_cache()) == 0
    unbounded = Tree(Node("a", Node("b")), matrix_cache_bytes=None)
    assert unbounded.matrix_cache().max_bytes is None


def test_query_report_exposes_matrix_cache_and_kernel(paper_bib):
    document = Document(paper_bib)
    report = document.report(
        "descendant::book[child::author[. is $y] and child::title[. is $z]]",
        ["y", "z"],
    )
    assert report.kernel == "adaptive"
    assert report.matrix_cache is not None
    assert report.matrix_cache["insertions"] > 0
    data = report.to_dict()
    assert data["matrix_cache"]["hits"] >= 0
    assert data["kernel"] == "adaptive"


def test_store_aggregates_matrix_cache_stats(tmp_path):
    from repro.workloads import generate_corpus, write_corpus

    write_corpus(tmp_path, generate_corpus(3, base=4, seed=1))
    store = DocumentStore.from_directory(tmp_path)
    for name in store.names():
        store.get(name).answer("descendant::a", [])
    aggregated = store.matrix_cache_stats()
    assert aggregated.insertions > 0
    assert aggregated.current_bytes > 0
    assert aggregated.to_dict()["entries"] == aggregated.entries


# ------------------------------------------------- answer-cache byte accounting
def test_answer_cache_accounts_packed_matrices():
    relation = bx.relation_from_matrix(np.ones((64, 64), dtype=bool)).to_bitset()
    cost = estimate_entry_bytes(relation)
    assert cost >= relation.nbytes  # 64x64 bits = 512 bytes of words
    assert estimate_entry_bytes(np.zeros(100, dtype=np.uint8)) >= 100
    answers = frozenset({(1, 2), (3, 4)})
    assert estimate_entry_bytes(answers) > 0
    cache = AnswerCache(max_bytes=10_000)
    cache.put(("owner", "rel"), relation)
    assert cache.get(("owner", "rel")) is relation
    assert cache.stats.current_bytes >= relation.nbytes


# ----------------------------------------------------------------- CLI knob
def test_cli_bench_kernel_knob(tmp_path, capsys):
    import json

    from repro.cli import main

    xml = tmp_path / "doc.xml"
    xml.write_text("<a><b/><c><d/><b/></c></a>", encoding="utf-8")
    code = main(
        [
            "bench",
            "--xml",
            str(xml),
            "--query",
            "descendant::b",
            "--engines",
            "polynomial",
            "--repeat",
            "1",
            "--kernel",
            "bitset",
        ]
    )
    assert code == 0
    results = json.loads(capsys.readouterr().out)
    assert results[0]["kernel"] == "bitset"
    assert bx.get_default_kernel().name == "bitset"  # reset by the fixture


def test_document_kernel_override(paper_bib):
    document = Document(paper_bib, kernel="sparse")
    assert document.oracle.kernel.name == "sparse"
    answers = document.answer("descendant::author", ["x"])
    baseline = Document(Tree(paper_bib.to_node())).answer("descendant::author", ["x"])
    assert answers == baseline
