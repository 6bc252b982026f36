"""XML import/export for the tree data model.

The paper abstracts away attributes, namespaces and text content; this module
keeps only element structure and element names when reading XML, which is
exactly the Core XPath data model.  Export produces well-formed XML with one
element per node.

Loading writes the tree's columns straight from the parser's events: an
``xml.etree.ElementTree.XMLParser`` (the standard library's expat binding,
used purely as a tokenizer) calls a :class:`repro.trees.tree.ColumnBuilder`
target once per element start and end, which appends a label id, a parent
and a depth and records the closing order.  No element tree, no
:class:`repro.trees.tree.Node` and no per-node Python object is built; the
tree's Python list views are derived later, only if something reads them.
Text, attributes, comments and processing instructions never reach the
target.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

from repro.errors import TreeError
from repro.trees.tree import ColumnBuilder, Tree

#: Bytes read per parser feed from a file (what ``ElementTree.parse`` reads).
_CHUNK = 64 * 1024


def _strip_namespace(tag: str) -> str:
    """Drop a ``{namespace}`` prefix from an ElementTree tag."""
    if tag.startswith("{"):
        return tag.split("}", 1)[1]
    return tag


def _column_parser() -> ET.XMLParser:
    return ET.XMLParser(target=ColumnBuilder(_strip_namespace))


def tree_from_xml(text: str) -> Tree:
    """Parse an XML document string into a :class:`Tree`.

    Only element structure is kept; attributes, text and comments are
    discarded, matching the paper's data model.

    Raises
    ------
    TreeError
        If the input is not well-formed XML.
    """
    parser = _column_parser()
    try:
        parser.feed(text)
        columns = parser.close()
    except ET.ParseError as exc:
        raise TreeError(f"invalid XML document: {exc}") from exc
    return Tree(columns)


def tree_from_xml_file(path: str) -> Tree:
    """Parse the XML document stored at ``path`` into a :class:`Tree`."""
    parser = _column_parser()
    try:
        with open(path, "rb") as handle:
            while chunk := handle.read(_CHUNK):
                parser.feed(chunk)
        columns = parser.close()
    except (ET.ParseError, OSError) as exc:
        raise TreeError(f"cannot read XML file {path!r}: {exc}") from exc
    return Tree(columns)


def tree_to_xml(tree: Tree, indent: bool = False) -> str:
    """Serialize ``tree`` back to XML text.

    Parameters
    ----------
    tree:
        The tree to serialize.
    indent:
        When True, pretty-print with two-space indentation (one element per
        line); otherwise produce a compact single-line document.
    """
    parts: list[str] = []

    # Iterative rendering with explicit open/close events.
    stack: list[tuple[int, bool]] = [(tree.root(), False)]
    while stack:
        node, closing = stack.pop()
        label = escape(tree.labels[node])
        pad = "  " * tree.depth[node] if indent else ""
        newline = "\n" if indent else ""
        if closing:
            parts.append(f"{pad}</{label}>{newline}")
            continue
        if tree.is_leaf(node):
            parts.append(f"{pad}<{label}/>{newline}")
            continue
        parts.append(f"{pad}<{label}>{newline}")
        stack.append((node, True))
        for child in reversed(tree.children(node)):
            stack.append((child, False))
    return "".join(parts).rstrip("\n") if indent else "".join(parts)
