"""Unit tests for the axis relations (repro.trees.axes)."""

import numpy as np
import pytest

from repro.errors import TreeError
from repro.trees.axes import (
    AXES,
    CORE_AXES,
    INVERSE_AXIS,
    Axis,
    axis_edges,
    axis_matrix,
    axis_nodes,
    axis_pairs,
    iter_axis,
    label_vector,
    parse_axis,
)


def test_parse_axis_accepts_both_spellings():
    assert parse_axis("following-sibling") is Axis.FOLLOWING_SIBLING
    assert parse_axis("following_sibling") is Axis.FOLLOWING_SIBLING
    assert parse_axis("  CHILD ") is Axis.CHILD


def test_parse_axis_rejects_unknown():
    with pytest.raises(TreeError):
        parse_axis("sideways")


def test_self_axis(tiny_tree):
    assert list(iter_axis(tiny_tree, Axis.SELF, 3)) == [3]


def test_child_and_parent(tiny_tree):
    assert list(iter_axis(tiny_tree, Axis.CHILD, 2)) == [3, 4]
    assert list(iter_axis(tiny_tree, Axis.PARENT, 3)) == [2]
    assert list(iter_axis(tiny_tree, Axis.PARENT, 0)) == []


def test_descendant_and_ancestor(tiny_tree):
    assert list(iter_axis(tiny_tree, Axis.DESCENDANT, 0)) == [1, 2, 3, 4]
    assert list(iter_axis(tiny_tree, Axis.ANCESTOR, 4)) == [2, 0]
    assert list(iter_axis(tiny_tree, Axis.DESCENDANT_OR_SELF, 2)) == [2, 3, 4]
    assert list(iter_axis(tiny_tree, Axis.ANCESTOR_OR_SELF, 4)) == [4, 2, 0]


def test_sibling_axes(tiny_tree):
    assert list(iter_axis(tiny_tree, Axis.FOLLOWING_SIBLING, 1)) == [2]
    assert list(iter_axis(tiny_tree, Axis.PRECEDING_SIBLING, 2)) == [1]
    assert list(iter_axis(tiny_tree, Axis.NEXT_SIBLING, 3)) == [4]
    assert list(iter_axis(tiny_tree, Axis.PREVIOUS_SIBLING, 4)) == [3]
    assert list(iter_axis(tiny_tree, Axis.FIRST_CHILD, 2)) == [3]
    assert list(iter_axis(tiny_tree, Axis.FIRST_CHILD, 1)) == []


def test_following_and_preceding(tiny_tree):
    # following(1) = everything after node 1 in document order, minus ancestors/descendants.
    assert list(iter_axis(tiny_tree, Axis.FOLLOWING, 1)) == [2, 3, 4]
    assert list(iter_axis(tiny_tree, Axis.PRECEDING, 3)) == [1]
    assert list(iter_axis(tiny_tree, Axis.PRECEDING, 4)) == [3, 1]
    assert list(iter_axis(tiny_tree, Axis.FOLLOWING, 0)) == []


def test_axis_nodes_returns_frozenset(tiny_tree):
    assert axis_nodes(tiny_tree, Axis.CHILD, 0) == frozenset({1, 2})


def test_axis_pairs_match_iteration(tiny_tree):
    for axis in AXES:
        pairs = axis_pairs(tiny_tree, axis)
        rebuilt = {
            (node, target)
            for node in tiny_tree.nodes()
            for target in iter_axis(tiny_tree, axis, node)
        }
        assert pairs == rebuilt


def test_axis_matrix_matches_pairs(tiny_tree):
    for axis in AXES:
        matrix = axis_matrix(tiny_tree, axis)
        pairs = axis_pairs(tiny_tree, axis)
        for u in tiny_tree.nodes():
            for v in tiny_tree.nodes():
                assert matrix[u, v] == ((u, v) in pairs)


def test_axis_matrix_is_cached_and_readonly(tiny_tree):
    first = axis_matrix(tiny_tree, Axis.CHILD)
    second = axis_matrix(tiny_tree, Axis.CHILD)
    assert first is second
    with pytest.raises(ValueError):
        first[0, 0] = True


def test_inverse_axis_table(tiny_tree):
    # For the symmetric-by-inversion axes the matrices must be transposes.
    for axis in CORE_AXES:
        inverse = INVERSE_AXIS[axis]
        forward = axis_matrix(tiny_tree, axis)
        backward = axis_matrix(tiny_tree, inverse)
        assert np.array_equal(forward, backward.T)


def test_label_vector(tiny_tree):
    vector = label_vector(tiny_tree, "b")
    assert vector.tolist() == [False, True, False, False, True]
    assert label_vector(tiny_tree, None).all()


def test_absent_labels_share_one_cache_entry(tiny_tree):
    label_vector(tiny_tree, "missing-1")
    entries = len(tiny_tree.matrix_cache())
    for index in range(2, 10):
        assert not label_vector(tiny_tree, f"missing-{index}").any()
    assert len(tiny_tree.matrix_cache()) == entries


def test_axis_edges_match_axis_pairs_on_every_subset(tiny_tree):
    # Includes source sets with no axis successors at all, such as the root
    # alone under ancestor, which must give no pairs rather than fail.
    size = tiny_tree.size
    for axis in AXES:
        full = set(axis_pairs(tiny_tree, axis))
        for source_bits in range(1, 2**size):
            sources = np.array([(source_bits >> n) & 1 == 1 for n in range(size)])
            for target_bits in (1, 2**size - 1, source_bits):
                targets = np.array([(target_bits >> n) & 1 == 1 for n in range(size)])
                us, vs = axis_edges(tiny_tree, axis, sources, targets)
                expected = {(u, v) for u, v in full if sources[u] and targets[v]}
                assert sorted(zip(us.tolist(), vs.tolist())) == sorted(expected)


def test_descendant_equals_transitive_child(wide_tree, deep_tree):
    for tree in (wide_tree, deep_tree):
        child = axis_matrix(tree, Axis.CHILD).astype(np.uint8)
        closure = np.zeros_like(child)
        power = child.copy()
        for _ in range(tree.size):
            closure = ((closure + power) > 0).astype(np.uint8)
            power = ((power @ child) > 0).astype(np.uint8)
        assert np.array_equal(closure.astype(bool), axis_matrix(tree, Axis.DESCENDANT))


def test_partition_self_descendant_ancestor_following_preceding(tiny_tree):
    # For any two nodes exactly one of the five relations holds (XPath's
    # document partition property).
    for u in tiny_tree.nodes():
        for v in tiny_tree.nodes():
            count = sum(
                [
                    u == v,
                    (u, v) in axis_pairs(tiny_tree, Axis.DESCENDANT),
                    (u, v) in axis_pairs(tiny_tree, Axis.ANCESTOR),
                    (u, v) in axis_pairs(tiny_tree, Axis.FOLLOWING),
                    (u, v) in axis_pairs(tiny_tree, Axis.PRECEDING),
                ]
            )
            assert count == 1
