"""The columnar XML loader against the Node builder and a plain walk.

``tree_from_xml`` writes a tree's columns straight from the parser's events;
``Tree(Node)`` computes them from a builder.  Both are checked, on every
public list, every :class:`repro.trees.tree.TreeArrays` column and every
label vector, against a reference computed here by walking the standard
library's ElementTree in Python: preorder ids, parents, depths, postorder
numbers, subtree ends, child lists and sibling links, as the paper's data
model defines them.  Inputs cover seeded random documents, the repository
benchmark's document shapes, namespaces, the XML the data model drops
(attributes, text, tails, comments, processing instructions, CDATA), one
node and a 100,000-deep chain.
"""

from __future__ import annotations

import importlib.util
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from repro.api import Document, compile_query
from repro.errors import TreeError
from repro.snapshot.codec import decode_snapshot, encode_snapshot
from repro.trees.axes import label_vector
from repro.trees.forest import Forest
from repro.trees.tree import Node, Tree
from repro.trees.xml_io import tree_from_xml, tree_from_xml_file

_DOCS = Path(__file__).resolve().parent.parent / "perfbench" / "docs.py"
_VIEWS = (
    "labels", "parent", "depth", "post", "subtree_end",
    "children_of", "next_sibling", "prev_sibling", "_label_index",
)


def _perfbench_docs():
    spec = importlib.util.spec_from_file_location("perfbench_docs", _DOCS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _local(tag: str) -> str:
    return tag.split("}", 1)[1] if tag.startswith("{") else tag


def _preorder(root: ET.Element) -> list[tuple[ET.Element, int]]:
    """``(element, parent id)`` in document order, iteratively."""
    order: list[tuple[ET.Element, int]] = []
    stack = [(root, -1)]
    while stack:
        element, parent = stack.pop()
        uid = len(order)
        order.append((element, parent))
        stack.extend((child, uid) for child in reversed(list(element)))
    return order


def reference(text: str) -> dict:
    """Every public list of the tree of ``text``, by a plain Python walk."""
    order = _preorder(ET.fromstring(text))
    size = len(order)
    labels = [_local(element.tag) for element, _ in order]
    parent = [None if p < 0 else p for _, p in order]
    children: list[list[int]] = [[] for _ in range(size)]
    depth = [0] * size
    for uid in range(1, size):
        children[parent[uid]].append(uid)
        depth[uid] = depth[parent[uid]] + 1
    end = list(range(size))
    for uid in range(size - 1, 0, -1):
        end[parent[uid]] = max(end[parent[uid]], end[uid])
    next_sibling: list = [None] * size
    prev_sibling: list = [None] * size
    for kids in children:
        for left, right in zip(kids, kids[1:]):
            next_sibling[left] = right
            prev_sibling[right] = left
    closed: list[int] = []
    walk = [(0, False)]
    while walk:
        uid, closing = walk.pop()
        if closing:
            closed.append(uid)
            continue
        walk.append((uid, True))
        walk.extend((child, False) for child in reversed(children[uid]))
    post = [0] * size
    for number, uid in enumerate(closed):
        post[uid] = number
    index: dict[str, list[int]] = {}
    for uid, label in enumerate(labels):
        index.setdefault(label, []).append(uid)
    return {
        "labels": labels,
        "parent": parent,
        "depth": depth,
        "post": post,
        "subtree_end": end,
        "children_of": [tuple(kids) for kids in children],
        "next_sibling": next_sibling,
        "prev_sibling": prev_sibling,
        "_label_index": {label: tuple(ids) for label, ids in index.items()},
    }


def node_tree(text: str) -> Tree:
    """``Tree(Node)`` built from the same ElementTree."""
    root = ET.fromstring(text)
    top = Node(_local(root.tag))
    stack = [(root, top)]
    while stack:
        source, target = stack.pop()
        for child in source:
            node = target.add(Node(_local(child.tag)))
            stack.append((child, node))
    return Tree(top)


def assert_matches(tree: Tree, expected: dict) -> None:
    for name in _VIEWS:
        assert getattr(tree, name) == expected[name], name
    assert tree.size == len(expected["labels"])
    assert tree.alphabet() == frozenset(expected["_label_index"])
    for label, ids in expected["_label_index"].items():
        assert tree.nodes_with_label(label) == ids
    arrays = tree.arrays

    def column(values) -> np.ndarray:
        return np.array([-1 if v is None else v for v in values], dtype=np.int64)

    firsts = [kids[0] if kids else None for kids in expected["children_of"]]
    assert np.array_equal(arrays.parent, column(expected["parent"]))
    assert np.array_equal(arrays.end, column(expected["subtree_end"]))
    assert np.array_equal(arrays.first_child, column(firsts))
    assert np.array_equal(arrays.next_sibling, column(expected["next_sibling"]))
    assert np.array_equal(arrays.prev_sibling, column(expected["prev_sibling"]))
    assert np.array_equal(arrays.nodes, np.arange(tree.size))
    assert not arrays.root.any() and arrays.roots.tolist() == [0]
    for name in ("parent", "end", "first_child", "next_sibling", "prev_sibling", "nodes", "root"):
        assert getattr(arrays, name).dtype == np.int64, name
    for label, ids in expected["_label_index"].items():
        assert np.flatnonzero(label_vector(tree, label)).tolist() == list(ids)
    assert label_vector(tree, None).all()
    assert not label_vector(tree, "no-such-label").any()


def check(text: str) -> Tree:
    expected = reference(text)
    columnar = tree_from_xml(text)
    assert_matches(columnar, expected)
    built = node_tree(text)
    assert_matches(built, expected)
    assert columnar == built and hash(columnar) == hash(built)
    return columnar


def random_document(rng: random.Random, size: int) -> str:
    """A random tree of ``size`` elements with the noise the model drops."""
    children: list[list[int]] = [[] for _ in range(size)]
    for uid in range(1, size):
        children[rng.randrange(uid)].append(uid)
    tags = ["root"] + [rng.choice(["a", "b", "c", "d", "p:b", "q:c"]) for _ in range(1, size)]
    noise = ["", "<!-- comment -->", "<?pi data?>", "<![CDATA[<not-a-tag/>]]>", "text &amp; more"]
    parts = ['<root xmlns:p="urn:p" xmlns:q="urn:q">']
    stack: list[tuple[int, bool]] = [(child, False) for child in reversed(children[0])]
    while stack:
        uid, closing = stack.pop()
        if closing:
            parts.append(f"</{tags[uid]}>" + rng.choice(["", "tail text"]))
            continue
        attributes = rng.choice(["", ' x="1"', ' p:y="2"'])
        parts.append(f"<{tags[uid]}{attributes}>" + rng.choice(noise))
        stack.append((uid, True))
        stack.extend((child, False) for child in reversed(children[uid]))
    parts.append("</root>")
    return "".join(parts)


@pytest.mark.parametrize("seed", range(12))
def test_random_documents(seed):
    rng = random.Random(seed)
    check(random_document(rng, rng.randint(1, 300)))


def test_benchmark_document_shapes():
    docs = _perfbench_docs()
    for seed in (1, 2):
        check(docs.bibliography_xml(96, random.Random(seed)))
        check(docs.bibliography_xml(12, random.Random(seed)))
        check(docs.restaurants_xml(60, random.Random(seed)))


def test_namespaces_strip_to_one_label():
    tree = check(
        '<a xmlns="urn:x" xmlns:p="urn:p"><p:b/><b/><c p:attr="1"><p:c/></c></a>'
    )
    assert tree.labels == ["a", "b", "b", "c", "c"]
    assert tree.columns.label_names == ("a", "b", "c")


def test_attributes_text_comments_pis_and_cdata_are_dropped():
    tree = check(
        '<?xml version="1.0"?><!-- before --><?pi x?>'
        '<a x="1">text<b>inner<![CDATA[<notatag/>]]></b>tail<!-- c --><?pi2?>'
        "<c y='2'/>more</a><!-- after -->"
    )
    assert tree.labels == ["a", "b", "c"]


def test_one_node_document():
    tree = check("<only/>")
    assert tree.size == 1 and tree.children(0) == () and tree.is_leaf(0)


def test_deep_chain():
    depth = 100_000
    tree = check("<a>" * depth + "</a>" * depth)
    assert tree.depth[-1] == depth - 1
    assert tree.subtree_end[0] == depth - 1


@pytest.mark.parametrize("text", ["<a><b></a>", "", "<a/><b/>", "not xml", "<a>&undefined;</a>"])
def test_malformed_xml_raises_the_same_message(text):
    with pytest.raises(ET.ParseError) as expected:
        ET.fromstring(text)
    with pytest.raises(TreeError) as raised:
        tree_from_xml(text)
    assert str(raised.value) == f"invalid XML document: {expected.value}"


def test_file_errors_raise_the_same_message(tmp_path):
    missing = str(tmp_path / "missing.xml")
    broken = tmp_path / "broken.xml"
    broken.write_text("<a>\n<b>\n</a>")
    for path in (missing, str(broken), str(tmp_path)):
        with pytest.raises((ET.ParseError, OSError)) as expected:
            ET.parse(path)
        with pytest.raises(TreeError) as raised:
            tree_from_xml_file(path)
        assert str(raised.value) == f"cannot read XML file {path!r}: {expected.value}"


def test_file_loader_matches_string_loader(tmp_path):
    text = random_document(random.Random(7), 2_000)
    path = tmp_path / "doc.xml"
    path.write_text(text)
    assert_matches(tree_from_xml_file(str(path)), reference(text))


def test_snapshot_round_trip_equals_the_cold_parse(tmp_path):
    docs = _perfbench_docs()
    text = docs.bibliography_xml(40, random.Random(3))
    cold = tree_from_xml(text)
    path = tmp_path / "doc.snap"
    path.write_bytes(encode_snapshot(cold, "a" * 64))
    warm = decode_snapshot(path, expected_digest="a" * 64)
    assert warm == cold
    assert_matches(warm, reference(text))
    for name in ("label_ids", "parent", "depth", "post", "end"):
        assert np.array_equal(getattr(warm.columns, name), getattr(cold.columns, name)), name
    assert warm.columns.label_names == cold.columns.label_names


def test_load_and_answer_build_no_node_and_no_list_view(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the XML loader built a Node")

    text = _perfbench_docs().bibliography_xml(20, random.Random(5))
    monkeypatch.setattr(Node, "__init__", refuse)
    tree = tree_from_xml(text)
    query = compile_query(
        "descendant::book[child::author[. is $y] and child::title[. is $z]]", ["y", "z"]
    )
    Document(tree).answer(query)
    for name in _VIEWS:
        # The slot descriptor itself, bypassing the lazy derivation.
        with pytest.raises(AttributeError):
            getattr(Tree, name).__get__(tree)


def test_forest_label_vectors_concatenate_the_documents():
    texts = ["<a><b/><c/></a>", "<c><c/><d/></c>", "<b/>"]
    trees = [tree_from_xml(text) for text in texts]
    forest = Forest(trees)
    for label in ("a", "b", "c", "d", None, "absent"):
        expected = np.concatenate([label_vector(tree, label) for tree in trees])
        assert np.array_equal(label_vector(forest, label), expected), label
