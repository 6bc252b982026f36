"""The columnar snapshot file format: encode once, memory-map forever.

A snapshot is the compiled form of one document: the preorder-indexed
struct-of-arrays representation of its :class:`repro.trees.tree.Tree`
(label ids, parent, depth, post, subtree extents) plus a label dictionary.
No axis relation is stored: the Fig. 8 answerer reads axes set-at-a-time
off the tree's arrays, and a relation the Theorem 2 evaluator needs is
rebuilt from them in O(|t| log |t|) plus its size.  The layout is designed
for O(1) loads: a fixed prefix, one JSON header describing every array
(dtype, offset, shape), then a 64-byte-aligned little-endian body that a
memory map exposes to numpy without parsing.  The columns are exactly a
tree's storage (:class:`repro.trees.tree.Columns`): encoding writes them as
they are, and decoding validates the mapped arrays and hands copies of them
to the :class:`Tree` constructor (copies, so no resident tree keeps the map
and its file descriptor open); the tree's sibling links and Python list
views are derived on first use.

On-disk layout (format version 2)::

    bytes 0..5    magic  b"RXSNAP"
    bytes 6..7    format version  (uint16, little endian)
    bytes 8..11   header length H (uint32, little endian)
    bytes 12..12+H JSON header (utf-8)
    ...padding to a 64-byte boundary...
    body          the arrays, each at a 64-byte-aligned offset

The header carries the source digest *inside* the file, so a snapshot can
never be served for a source it was not built from — the PlanCache identity
rule applied to documents.  ``pre`` is not stored: preorder ids are the node
ids themselves (``pre[u] == u`` by construction).

Everything here raises :class:`SnapshotError` on any malformed input;
the store layer (:mod:`repro.snapshot.store`) turns that into
delete-and-rebuild, never a crash or a wrong answer.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import struct
import sys
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro._config import UNSET as _UNSET
from repro.errors import ReproError
from repro.trees.tree import Columns, Tree

#: Bump when the layout (prefix, header schema or column set) changes
#: incompatibly; old files then fail validation and are rebuilt.
FORMAT_VERSION = 2

MAGIC = b"RXSNAP"
_PREFIX = struct.Struct("<6sHI")
_ALIGN = 64

_COLUMN_DTYPES = {
    "label_ids": "<u4",
    "parent": "<i8",
    "depth": "<i4",
    "post": "<i8",
    "subtree_end": "<i8",
}


class SnapshotError(ReproError):
    """Raised for malformed, truncated or mismatched snapshot files."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ----------------------------------------------------------------- encoding
def encode_snapshot(tree: Tree, digest: str) -> bytes:
    """Serialise ``tree`` into the columnar snapshot format.

    ``digest`` is the content address of the *source* the tree was parsed
    from; it is stored inside the header so loads can revalidate identity.
    """
    size = tree.size
    stored = tree.columns
    columns = {
        "label_ids": stored.label_ids,
        "parent": stored.parent,
        "depth": stored.depth,
        "post": stored.post,
        "subtree_end": stored.end,
    }
    # Lay the body out: every array at a 64-byte-aligned offset (relative
    # to the body start, which is itself aligned), so memmap views land on
    # cache-line boundaries.
    column_meta: dict[str, dict] = {}
    body_parts: list[tuple[int, np.ndarray]] = []
    cursor = 0
    for name, array in columns.items():
        cursor = _align(cursor)
        dtype = _COLUMN_DTYPES[name]
        column_meta[name] = {"dtype": dtype, "offset": cursor, "shape": list(array.shape)}
        part = np.ascontiguousarray(array.astype(dtype, copy=False))
        body_parts.append((cursor, part))
        cursor += part.nbytes

    header = {
        "format": FORMAT_VERSION,
        "digest": digest,
        "size": size,
        "byteorder": "little",
        "labels": list(stored.label_names),
        "columns": column_meta,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body_start = _align(_PREFIX.size + len(header_bytes))

    out = io.BytesIO()
    out.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes)))
    out.write(header_bytes)
    out.write(b"\x00" * (body_start - _PREFIX.size - len(header_bytes)))
    position = 0
    for offset, part in body_parts:
        out.write(b"\x00" * (offset - position))
        out.write(part.tobytes())
        position = offset + part.nbytes
    return out.getvalue()


# ----------------------------------------------------------------- decoding
def _parse_header(read, name: str) -> tuple[dict, int]:
    """Read and validate the prefix and header through ``read(length)``.

    Returns the header and the body's start offset.  Raises
    :class:`SnapshotError` for anything malformed.
    """
    prefix = read(_PREFIX.size)
    if len(prefix) < _PREFIX.size:
        raise SnapshotError(f"snapshot {name}: truncated prefix")
    magic, version, header_length = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise SnapshotError(f"snapshot {name}: bad magic")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot {name}: format version {version} (expected {FORMAT_VERSION})"
        )
    header_bytes = read(header_length)
    if len(header_bytes) < header_length:
        raise SnapshotError(f"snapshot {name}: truncated header")
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise SnapshotError(f"snapshot {name}: header is not JSON") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_VERSION:
        raise SnapshotError(f"snapshot {name}: header format mismatch")
    if header.get("byteorder") != sys.byteorder:
        raise SnapshotError(f"snapshot {name}: foreign byte order")
    return header, _align(_PREFIX.size + header_length)


def read_header(path: Union[str, Path]) -> dict:
    """Parse and validate a snapshot file's header (not the body).

    Raises :class:`SnapshotError` for anything malformed.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            header, _ = _parse_header(handle.read, path.name)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    return header


def _mapped_array(
    body: np.ndarray, body_start: int, descriptor: dict, name: str
) -> np.ndarray:
    try:
        dtype = np.dtype(descriptor["dtype"])
        shape = tuple(int(extent) for extent in descriptor["shape"])
        offset = body_start + int(descriptor["offset"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot array {name}: bad descriptor") from exc
    if any(extent < 0 for extent in shape):
        raise SnapshotError(f"snapshot array {name}: negative extent")
    nbytes = dtype.itemsize * math.prod(shape)
    if offset < 0 or offset + nbytes > body.shape[0]:
        raise SnapshotError(f"snapshot array {name}: body out of range")
    return body[offset : offset + nbytes].view(dtype).reshape(shape)


def decode_snapshot(
    path: Union[str, Path],
    *,
    expected_digest: Optional[str] = None,
    matrix_cache_bytes=_UNSET,
) -> Tree:
    """Load a snapshot into a :class:`Tree` by memory-mapping the file.

    ``expected_digest`` (when given) must match the digest recorded inside
    the file — the stale-source guard.

    Raises
    ------
    SnapshotError
        For any malformed, truncated, version-skewed or mismatched file.
        Never returns a structurally inconsistent tree: the columns are
        validated (vectorised, O(n)) before the wrapper is built.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot map snapshot {path}: {exc}") from exc
    # A plain ndarray over the map: slicing it copies nothing and skips the
    # per-view bookkeeping of the numpy.memmap subclass.
    body = np.frombuffer(mapped, dtype=np.uint8)
    header, body_start = _parse_header(mapped.read, path.name)
    if expected_digest is not None and header.get("digest") != expected_digest:
        raise SnapshotError(
            f"snapshot {path.name}: stale digest "
            f"(file {str(header.get('digest'))[:12]}…, source {expected_digest[:12]}…)"
        )
    size = header.get("size")
    labels_table = header.get("labels")
    column_meta = header.get("columns")
    if (
        not isinstance(size, int)
        or size < 1
        or not isinstance(labels_table, list)
        or not isinstance(column_meta, dict)
    ):
        raise SnapshotError(f"snapshot {path.name}: malformed header fields")
    columns = {}
    for name in _COLUMN_DTYPES:
        descriptor = column_meta.get(name)
        if not isinstance(descriptor, dict):
            raise SnapshotError(f"snapshot {path.name}: missing column {name}")
        array = _mapped_array(body, body_start, descriptor, name)
        if array.shape != (size,):
            raise SnapshotError(f"snapshot {path.name}: column {name} has wrong shape")
        columns[name] = array

    # Structural validation, vectorised: random body corruption overwhelmingly
    # fails one of these instead of producing a silently wrong tree.
    label_ids = columns["label_ids"]
    parent = columns["parent"]
    subtree_end = columns["subtree_end"]
    if label_ids.size and int(label_ids.max()) >= len(labels_table):
        raise SnapshotError(f"snapshot {path.name}: label id out of dictionary range")
    if int(parent[0]) != -1:
        raise SnapshotError(f"snapshot {path.name}: root must be parentless")
    if size > 1:
        tail = parent[1:]
        if int(tail.min()) < 0 or bool(
            (tail >= np.arange(1, size, dtype=np.int64)).any()
        ):
            raise SnapshotError(f"snapshot {path.name}: parent ids not preorder-consistent")
    nodes = np.arange(size, dtype=np.int64)
    if bool((subtree_end < nodes).any()) or int(subtree_end.max()) >= size:
        raise SnapshotError(f"snapshot {path.name}: subtree extents out of range")

    if not all(isinstance(label, str) for label in labels_table):
        raise SnapshotError(f"snapshot {path.name}: label dictionary is not all strings")
    # Copy the validated columns out of the map (one memcpy each): the tree
    # keeps its columns, and a live map holds a file descriptor.
    stored = {name: np.array(array) for name, array in columns.items()}
    return Tree(
        Columns(
            tuple(labels_table),
            stored["label_ids"],
            stored["parent"],
            stored["depth"],
            stored["post"],
            stored["subtree_end"],
        ),
        matrix_cache_bytes=matrix_cache_bytes,
    )
