"""repro.snapshot — the on-disk, content-addressed columnar snapshot store.

Compiling a document is the expensive half of every cold corpus start:
parse the XML and number the tree.  This package persists that work as
*snapshots* — versioned files holding the tree's struct arrays plus a label
dictionary, laid out so a memory map hands them to numpy without parsing
(:mod:`repro.snapshot.codec`) — and *spills answer sets* addressed by
``(document digest, plan key, engine)``, so a warm start skips the first
evaluation too (:mod:`repro.snapshot.store`).

The store plugs into the stack through ``DocumentStore(snapshot_dir=...)``
(preferring snapshots over XML sources with digest revalidation),
``Session(snapshot_dir=...)`` / ``ExecutionPolicy.snapshot_dir`` /
``REPRO_SNAPSHOT_DIR`` under the usual precedence, and the
``repro-xpath corpus snapshot build/stats/gc`` CLI group.
"""

from repro.snapshot.codec import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotError,
    decode_snapshot,
    encode_snapshot,
    read_header,
)
from repro.snapshot.store import (
    ANSWER_SUFFIX,
    TREE_SUFFIX,
    SnapshotStats,
    SnapshotStore,
)

__all__ = [
    "ANSWER_SUFFIX",
    "FORMAT_VERSION",
    "MAGIC",
    "SnapshotError",
    "SnapshotStats",
    "SnapshotStore",
    "TREE_SUFFIX",
    "decode_snapshot",
    "encode_snapshot",
    "read_header",
]
