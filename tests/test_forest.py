"""One Fig. 8 run over a forest of documents against one run per document.

A corpus pass answers each query once over the concatenation of the
resident documents (:class:`repro.trees.forest.Forest`) and splits the
answers back per document.  These tests check that the split answers are
exactly the per-document answers, and both equal a direct enumeration over
the XML parsed with the standard library: for every axis (following,
preceding and the siblings of document roots included), for unions that
lack a variable on one side, for zero-variable queries, on forests that mix
one-node, tiny and 200–2,000-node documents.  Through the corpus executor
they check that the forest path really ran (``forest_documents > 1``),
that ``not(...)``/``except`` plans stay per document, that a replaced
document never answers from a stale forest, and that a worker crash inside
a shard batch quarantines only the crashing document.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from itertools import product

import pytest

from repro import faults
from repro.api.query import compile_query
from repro.corpus import CorpusExecutor, DocumentStore
from repro.hcl.answering import HclAnswerer, forest_safe, plan_for
from repro.hcl.ast import HVar, Leaf, compose
from repro.hcl.binding import PPLbinOracle
from repro.obs import trace as obs_trace
from repro.pplbin.ast import BFilter, BStep
from repro.session import Session
from repro.trees.axes import AXES, Axis
from repro.trees.forest import Forest
from repro.trees.generators import random_tree
from repro.trees.xml_io import tree_from_xml, tree_to_xml
from repro.workloads import generate_corpus, write_corpus

ALPHABET = ("a", "b", "c", "d")
PAIR_QUERY = "descendant::book[child::author[. is $y] and child::title[. is $z]]"
PAIR_VARS = ("y", "z")


# ------------------------------------------------------ stdlib reference
class Walk:
    """Preorder-numbered view of one XML text, built without the library."""

    def __init__(self, text: str) -> None:
        self.labels: list[str] = []
        self.parent: list[int] = []
        self.children: list[list[int]] = []
        stack = [(ET.fromstring(text), -1)]
        while stack:
            element, parent = stack.pop()
            uid = len(self.labels)
            self.labels.append(element.tag)
            self.parent.append(parent)
            self.children.append([])
            if parent >= 0:
                self.children[parent].append(uid)
            stack.extend((child, uid) for child in reversed(list(element)))
        self.end = list(range(len(self.labels)))
        for uid in range(len(self.labels) - 1, 0, -1):
            self.end[self.parent[uid]] = max(self.end[self.parent[uid]], self.end[uid])

    @property
    def nodes(self) -> range:
        return range(len(self.labels))

    def ancestors(self, u: int) -> list[int]:
        found = []
        while self.parent[u] >= 0:
            u = self.parent[u]
            found.append(u)
        return found

    def siblings(self, u: int) -> list[int]:
        return self.children[self.parent[u]] if self.parent[u] >= 0 else [u]

    def step(self, axis: Axis, u: int) -> list[int]:
        """Nodes reachable from ``u`` along ``axis``, by the axis definitions."""
        if axis is Axis.SELF:
            return [u]
        if axis is Axis.CHILD:
            return list(self.children[u])
        if axis is Axis.PARENT:
            return [self.parent[u]] if self.parent[u] >= 0 else []
        if axis is Axis.DESCENDANT:
            return list(range(u + 1, self.end[u] + 1))
        if axis is Axis.DESCENDANT_OR_SELF:
            return list(range(u, self.end[u] + 1))
        if axis is Axis.ANCESTOR:
            return self.ancestors(u)
        if axis is Axis.ANCESTOR_OR_SELF:
            return [u] + self.ancestors(u)
        siblings = self.siblings(u)
        position = siblings.index(u)
        if axis is Axis.FOLLOWING_SIBLING:
            return siblings[position + 1 :]
        if axis is Axis.PRECEDING_SIBLING:
            return siblings[:position]
        if axis is Axis.NEXT_SIBLING:
            return siblings[position + 1 : position + 2]
        if axis is Axis.PREVIOUS_SIBLING:
            return siblings[max(0, position - 1) : position]
        if axis is Axis.FIRST_CHILD:
            return self.children[u][:1]
        if axis is Axis.FOLLOWING:
            return [v for v in self.nodes if v > self.end[u]]
        if axis is Axis.PRECEDING:
            return [v for v in self.nodes if v < u and self.end[v] < u]
        raise AssertionError(axis)


def _forest_of(sizes: list[int], seed: int) -> tuple[list[str], Forest]:
    rng = random.Random(seed)
    texts = [
        tree_to_xml(random_tree(size, alphabet=ALPHABET, seed=rng.randrange(10**6)))
        for size in sizes
    ]
    return texts, Forest([tree_from_xml(text) for text in texts])


def _per_document(forest: Forest, formula, variables) -> list[frozenset]:
    return [
        HclAnswerer(tree, PPLbinOracle(tree)).answer(formula, variables)
        for tree in forest.trees
    ]


MIXED = [1, 3, 1, 250, 7, 1, 1200, 12, 2, 600, 1]


# ------------------------------------------------------------ every axis
@pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.value)
def test_every_axis_matches_per_document_and_stdlib_walk(axis):
    # Pairs list axis edges; the filter reads the axis pre-image and the
    # image of a projected leaf reads the pre-image of the inverse axis.
    texts, forest = _forest_of(MIXED, seed=7)
    step = Leaf(BStep(axis, "b"))
    shapes = [
        (compose(HVar("x"), step, HVar("y")), ["x", "y"]),
        (compose(HVar("x"), Leaf(BFilter(BStep(axis, "b")))), ["x"]),
        (compose(step, HVar("y")), ["y"]),
    ]
    for text, *answers in zip(texts, *(
        forest.answerer().answer_documents(formula, variables) for formula, variables in shapes
    )):
        walk = Walk(text)
        pairs = {(u, v) for u in walk.nodes for v in walk.step(axis, u) if walk.labels[v] == "b"}
        assert answers == [
            frozenset(pairs),
            frozenset((u,) for u, _ in pairs),
            frozenset((v,) for _, v in pairs),
        ]
    for formula, variables in shapes:
        assert forest.answerer().answer_documents(formula, variables) == _per_document(
            forest, formula, variables
        )


@pytest.mark.parametrize(
    "axis",
    [Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING, Axis.NEXT_SIBLING,
     Axis.PREVIOUS_SIBLING, Axis.FOLLOWING, Axis.PRECEDING],
    ids=lambda axis: axis.value,
)
def test_roots_and_boundaries_reach_nothing_across_documents(axis):
    # Documents of one node each: every node is a root, so no sibling,
    # following or preceding step may leave its document.
    _, forest = _forest_of([1] * 9, seed=3)
    formula = compose(HVar("x"), Leaf(BStep(axis, None)), HVar("y"))
    assert forest.answerer().answer_documents(formula, ["x", "y"]) == [frozenset()] * 9


@pytest.mark.parametrize("seed", range(4))
def test_random_forests_of_mixed_sizes(seed):
    rng = random.Random(seed)
    sizes = [rng.choice([1, 2, rng.randint(3, 30), rng.randint(200, 2000)]) for _ in range(8)]
    texts, forest = _forest_of(sizes, seed=seed)
    axis_a, axis_b = rng.sample([axis for axis in AXES if axis is not Axis.SELF], 2)
    formula = compose(
        HVar("x"), Leaf(BStep(axis_a, "a")), HVar("y"), Leaf(BStep(axis_b, "c")), HVar("z")
    )
    variables = ["x", "z"]
    shared = forest.answerer().answer_documents(formula, variables)
    assert shared == _per_document(forest, formula, variables)
    for text, answers in zip(texts, shared):
        walk = Walk(text)
        expected = frozenset(
            (x, z)
            for x in walk.nodes
            for y in walk.step(axis_a, x)
            if walk.labels[y] == "a"
            for z in walk.step(axis_b, y)
            if walk.labels[z] == "c"
        )
        assert answers == expected


# ------------------------------------------------- ANY and zero variables
def test_union_lacking_a_variable_expands_over_its_own_document():
    texts, forest = _forest_of([1, 5, 1, 40, 9, 120, 2], seed=11)
    query = compile_query("child::a[. is $x] union child::b[. is $y]", ("x", "y"))
    shared = forest.answerer().answer_documents(query.hcl, ["x", "y"])
    assert shared == _per_document(forest, query.hcl, ["x", "y"])
    for text, answers in zip(texts, shared):
        walk = Walk(text)
        below = {"a": [], "b": []}
        for v in walk.nodes:
            if walk.parent[v] >= 0 and walk.labels[v] in below:
                below[walk.labels[v]].append(v)
        expected = frozenset(product(below["a"], walk.nodes)) | frozenset(
            product(walk.nodes, below["b"])
        )
        assert answers == expected


def test_zero_variable_queries_answer_per_document():
    texts, forest = _forest_of([1, 30, 1, 300, 4, 2], seed=5)
    query = compile_query("descendant::a/child::b", ())
    shared = forest.answerer().answer_documents(query.hcl, [])
    assert shared == _per_document(forest, query.hcl, [])
    for text, answers in zip(texts, shared):
        walk = Walk(text)
        hit = any(
            walk.labels[a] == "a" and walk.parent[a] >= 0 and walk.labels[b] == "b"
            for a in walk.nodes
            for b in walk.children[a]
        )
        assert answers == (frozenset({()}) if hit else frozenset())


def test_complement_plans_are_not_forest_safe():
    pair = compile_query(PAIR_QUERY, PAIR_VARS)
    negated = compile_query("descendant::book[not(child::price)][. is $b]", ("b",))
    assert forest_safe(plan_for(pair.hcl, PAIR_VARS))
    assert not forest_safe(plan_for(negated.hcl, ("b",)))


# ----------------------------------------------------------- the executor
#: Query templates: ``{tag}`` gets a label no document has, so each pass
#: sends texts the answer cache has not seen, with unchanged answers.
PAIR = (
    "descendant::book[child::author[. is $y] and child::title[. is $z]"
    " and (child::author or child::{tag})]",
    ("y", "z"),
)
PRECEDING = (
    "descendant::title[. is $z]/(preceding::author union preceding::{tag})[. is $a]",
    ("z", "a"),
)
BOOLEAN = ("descendant::book/(child::title union child::{tag})", ())
NEGATED = ("descendant::book[not(child::price or child::{tag})][. is $b]", ("b",))


def _pass(templates, tag: str) -> list:
    return [(text.format(tag=tag), variables) for text, variables in templates]


def _corpus_dir(tmp_path, count=6, seed=11):
    directory = tmp_path / "corpus"
    directory.mkdir()
    write_corpus(directory, generate_corpus(count, base=5, skew=0.4, seed=seed, decoys_per_book=2))
    return directory


def _by_position(results, queries) -> dict:
    """``(document, query index) -> answers`` for the results of one pass."""
    index = {text: position for position, (text, _) in enumerate(queries)}
    return {(result.doc_name, index[result.query]): result.answers for result in results}


def _per_document_answers(directory, templates) -> dict:
    with Session(store=DocumentStore.from_directory(directory)) as cold:
        return {
            (name, position): cold.query(name, *query)
            for name in cold.store.names()
            for position, query in enumerate(_pass(templates, "t0"))
        }


@pytest.mark.parametrize("strategy", ["serial", "processes"])
def test_warm_passes_share_one_forest_run(tmp_path, strategy):
    directory = _corpus_dir(tmp_path)
    templates = [PAIR, PRECEDING, BOOLEAN]
    expected = _per_document_answers(directory, templates)
    with Session(
        store=DocumentStore.from_directory(directory), strategy=strategy, max_workers=2
    ) as session:
        cold, warm = _pass(templates, "t1"), _pass(templates, "t2")
        first = list(session.query_corpus(cold))
        second = list(session.query_corpus(warm))
    assert _by_position(first, cold) == expected
    assert _by_position(second, warm) == expected
    assert all(result.report.cost["forest_documents"] == 1 for result in first)
    # Serial shares one forest over the corpus; processes one per shard.
    shared = 6 if strategy == "serial" else 3
    assert all(result.report.cost["forest_documents"] == shared for result in second)
    # Each document's report carries its share of the forest run's time.
    assert all(result.seconds == result.report.cost["seconds"] > 0 for result in second)


def test_traced_forest_pass_names_its_spans(tmp_path):
    directory = _corpus_dir(tmp_path)
    previous = obs_trace.set_tracing(True)
    try:
        with Session(store=DocumentStore.from_directory(directory)) as session:
            list(session.query_corpus(_pass([PAIR], "t1")))
            results = list(session.query_corpus(_pass([PAIR], "t2")))
    finally:
        obs_trace.set_tracing(previous)
    trace = results[0].report.trace
    assert trace["name"] == "corpus.forest.answer"
    assert trace["attrs"]["documents"] == 6
    assert [child["name"] for child in trace["children"]] == ["corpus.forest.build"]


def test_cache_hits_stay_out_of_the_forest(tmp_path):
    directory = _corpus_dir(tmp_path)
    expected = _per_document_answers(directory, [PAIR])
    query = _pass([PAIR], "t1")
    with Session(store=DocumentStore.from_directory(directory)) as session:
        names = session.store.names()
        list(session.query_corpus(query, names[1:]))  # cold; caches all but doc000
        before = session.store.answer_cache.stats
        results = list(session.query_corpus(query))
        after = session.store.answer_cache.stats
    assert _by_position(results, query) == expected
    # Every document is looked up once: five hits, one miss.
    assert (after.hits - before.hits, after.misses - before.misses) == (5, 1)
    for result in results:
        cost = result.report.cost
        missed = result.doc_name == names[0]
        assert (cost["answer_cache_hits"], cost["answer_cache_misses"]) == (
            (0, 1) if missed else (1, 0)
        )
        assert cost["forest_documents"] == 1


def test_except_plans_and_other_engines_stay_per_document(tmp_path):
    directory = _corpus_dir(tmp_path)
    expected = _per_document_answers(directory, [NEGATED])
    with Session(store=DocumentStore.from_directory(directory)) as session:
        list(session.query_corpus(_pass([NEGATED], "t1")))
        warm = _pass([NEGATED], "t2")
        results = list(session.query_corpus(warm))
        naive = list(session.query_corpus(_pass([PAIR], "t3"), engine="naive"))
    assert _by_position(results, warm) == expected
    assert all(result.report.cost["forest_documents"] == 1 for result in results + naive)


def test_replaced_document_never_answers_from_a_stale_forest(tmp_path):
    directory = _corpus_dir(tmp_path)
    replacement = (directory / "doc002.xml").read_text()
    with Session(store=DocumentStore.from_directory(directory)) as session:
        list(session.query_corpus(_pass([PAIR], "t1")))
        list(session.query_corpus(_pass([PAIR], "t2")))
        session.store.discard("doc000")
        session.add_xml("doc000", replacement)
        session.document("doc000")  # resident again, as a new tree
        results = list(session.query_corpus(_pass([PAIR], "t3")))
        expected = session.query("doc002", *_pass([PAIR], "t0")[0])
    by_name = {result.doc_name: result for result in results}
    assert by_name["doc000"].answers == expected == by_name["doc002"].answers
    assert by_name["doc000"].report.cost["forest_documents"] == 6


# ----------------------------------------------------- faults in a batch
@pytest.fixture
def armed():
    yield faults
    faults.clear()
    faults.reset()


def test_worker_crash_inside_a_shard_batch_quarantines_only_that_document(tmp_path, armed):
    directory = _corpus_dir(tmp_path)
    expected = {
        name: answers for (name, _), answers in _per_document_answers(directory, [PAIR]).items()
    }
    armed.install("worker_crash,match=doc003,site=worker")
    store = DocumentStore.from_directory(directory)
    others = [name for name in store.names() if name != "doc003"]
    with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
        # Warm both shard workers without doc003; the next pass sends each
        # shard one batch, and doc003 kills its worker inside the batch.
        list(executor.run(_pass([PAIR], "t0"), others))
        crashed = list(executor.run(_pass([PAIR], "t1")))
        after = list(executor.run(_pass([PAIR], "t2")))
        stats = executor.fault_stats()
    assert stats["quarantined"] == ["doc003"]
    # The batch's death is not attributed; doc003's own two deaths are.
    assert stats["crashes"] == {"doc003": 2}
    assert stats["worker_restarts"] == 3
    for results in (crashed, after):
        errors = [result for result in results if not result.ok]
        assert [result.doc_name for result in errors] == ["doc003"]
        assert errors[0].error_kind == "DocumentQuarantinedError"
        survivors = {result.doc_name: result.answers for result in results if result.ok}
        assert survivors == {name: value for name, value in expected.items() if name != "doc003"}
    shared = {
        result.doc_name: result.report.cost["forest_documents"] for result in after if result.ok
    }
    assert shared == {"doc000": 3, "doc001": 3, "doc002": 3, "doc004": 2, "doc005": 2}
