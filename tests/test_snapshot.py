"""Tests for the on-disk columnar snapshot store (PR 6).

Covers the tentpole and its satellites:

* codec round-trips: structure, labels and orders;
* answer equivalence: a snapshot-loaded document answers byte-identically
  to a parsed one, across engines;
* robustness: truncated files, garbage, format-version skew and stale
  source digests all fall back to parse-and-rebuild with the bad file
  deleted — never a crash, never a wrong answer;
* the answer spill: a warm store serves the first evaluation from disk;
* byte-budgeted LRU GC, with hits keeping their files alive;
* DocumentStore/Session/CorpusReport/ServerStats telemetry counters
  (``parse_count`` / ``snapshot_hits`` / ``snapshot_misses``);
* configuration precedence (explicit > policy > env > default) for
  ``snapshot_dir`` / ``snapshot_bytes``;
* the ``repro-xpath corpus snapshot build/stats/gc`` CLI group;
* the sync ``query_corpus`` timeout watchdog (CorpusTimeoutError).
"""

from __future__ import annotations

import asyncio
import copy
import hashlib
import json
import os
import pickle
import struct
import sys
import threading
import time

import pytest

from repro.corpus.store import DocumentStore
from repro.errors import CorpusTimeoutError
from repro.session import ExecutionPolicy, Session
from repro.snapshot.store import ANSWER_FORMAT_VERSION
from repro.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotError,
    SnapshotStore,
    decode_snapshot,
    encode_snapshot,
    read_header,
)
from repro.trees import tree_to_xml
from repro.trees.tree import Node, Tree
from repro.workloads import generate_bibliography

QUERY = "descendant::book[child::author[. is $y] and child::title[. is $z]]"
VARIABLES = ["y", "z"]


def small_tree() -> Tree:
    return generate_bibliography(5, authors_per_book=2, titles_per_book=1, seed=11)


def write_small_corpus(directory, count: int = 4) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        tree = generate_bibliography(3 + index, seed=index)
        (directory / f"doc{index:03d}.xml").write_text(tree_to_xml(tree))


# ------------------------------------------------------------------- codec
class TestCodec:
    def test_round_trip_structure(self):
        tree = small_tree()
        blob = encode_snapshot(tree, "d" * 64)
        path = None
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.snap")
            with open(path, "wb") as handle:
                handle.write(blob)
            loaded = decode_snapshot(path, expected_digest="d" * 64)
            assert loaded.size == tree.size
            assert list(loaded.labels) == list(tree.labels)
            assert list(loaded.parent) == list(tree.parent)
            assert list(loaded.depth) == list(tree.depth)
            assert list(loaded.post) == list(tree.post)
            assert list(loaded.subtree_end) == list(tree.subtree_end)
            assert [list(c) for c in loaded.children_of] == [
                list(c) for c in tree.children_of
            ]

    def test_links_derived_on_first_read(self, tmp_path):
        tree = small_tree()
        path = tmp_path / "snap.snap"
        path.write_bytes(encode_snapshot(tree, "d" * 64))
        loaded = decode_snapshot(path)
        # Calling the slot descriptor directly bypasses Tree.__getattr__,
        # so this sees whether the load already built the links.
        for name in ("children_of", "next_sibling", "prev_sibling", "_label_index"):
            with pytest.raises(AttributeError):
                getattr(Tree, name).__get__(loaded)
        assert loaded.next_sibling == tree.next_sibling
        assert loaded.prev_sibling == tree.prev_sibling
        assert loaded.children_of == tree.children_of
        for label in tree.alphabet():
            assert loaded.nodes_with_label(label) == tree.nodes_with_label(label)
        fresh = decode_snapshot(path)
        clone = pickle.loads(pickle.dumps(fresh))
        assert clone == tree
        assert clone.children_of == tree.children_of

    def test_concurrent_first_reads_see_complete_links(self, tmp_path):
        tree = generate_bibliography(40, authors_per_book=2, seed=3)
        path = tmp_path / "snap.snap"
        path.write_bytes(encode_snapshot(tree, "d" * 64))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                loaded = decode_snapshot(path)
                seen: list = []
                barrier = threading.Barrier(8)

                def read(name: str) -> None:
                    barrier.wait(timeout=10)
                    # Copy at read time: a list published half-filled and
                    # completed later would otherwise compare equal.
                    seen.append((name, copy.copy(getattr(loaded, name))))

                names = ["children_of", "next_sibling", "prev_sibling", "_label_index"] * 2
                threads = [threading.Thread(target=read, args=(name,)) for name in names]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len(seen) == len(names)
                for name, value in seen:
                    assert value == getattr(tree, name), name
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_decoded_trees_hold_no_file_descriptor(self, tmp_path):
        path = tmp_path / "snap.snap"
        path.write_bytes(encode_snapshot(small_tree(), "d" * 64))
        before = len(os.listdir("/proc/self/fd"))
        trees = [decode_snapshot(path) for _ in range(20)]
        assert len(os.listdir("/proc/self/fd")) - before < 5
        assert all(tree == trees[0] for tree in trees)

    def test_header_readable(self, tmp_path):
        tree = small_tree()
        path = tmp_path / "snap.snap"
        path.write_bytes(encode_snapshot(tree, "f" * 64))
        header = read_header(path)
        assert header["format"] == FORMAT_VERSION
        assert header["digest"] == "f" * 64
        assert header["size"] == tree.size
        assert set(header["columns"]) == {
            "label_ids",
            "parent",
            "depth",
            "post",
            "subtree_end",
        }
        assert "relations" not in header

    def test_answers_identical_across_engines(self, tmp_path):
        from repro.api import Document

        tree = small_tree()
        path = tmp_path / "snap.snap"
        path.write_bytes(encode_snapshot(tree, "a" * 64))
        loaded = decode_snapshot(path)
        for engine in ("polynomial", "naive"):
            parsed = Document(tree).answer(QUERY, VARIABLES, engine=engine)
            warm = Document(loaded).answer(QUERY, VARIABLES, engine=engine)
            assert parsed == warm, engine

    def test_stale_digest_rejected(self, tmp_path):
        path = tmp_path / "snap.snap"
        path.write_bytes(encode_snapshot(small_tree(), "0" * 64))
        with pytest.raises(SnapshotError, match="stale digest"):
            decode_snapshot(path, expected_digest="1" * 64)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "snap.snap"
        blob = bytearray(encode_snapshot(small_tree(), "0" * 64))
        # Patch the uint16 format version in the prefix.
        blob[len(MAGIC) : len(MAGIC) + 2] = struct.pack("<H", FORMAT_VERSION + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="format version"):
            decode_snapshot(path)

    def test_truncated_and_garbage_rejected(self, tmp_path):
        blob = encode_snapshot(small_tree(), "0" * 64)
        truncated = tmp_path / "t.snap"
        truncated.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError):
            decode_snapshot(truncated)
        garbage = tmp_path / "g.snap"
        garbage.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError):
            decode_snapshot(garbage)
        empty = tmp_path / "e.snap"
        empty.write_bytes(b"")
        with pytest.raises(SnapshotError):
            decode_snapshot(empty)
        header_cut = tmp_path / "h.snap"
        header_cut.write_bytes(blob[:20])
        with pytest.raises(SnapshotError, match="truncated header"):
            decode_snapshot(header_cut)
        with pytest.raises(SnapshotError):
            decode_snapshot(tmp_path / "missing.snap")

    def test_corrupt_body_never_inconsistent(self, tmp_path):
        # Scribble over the parent column: validation must refuse the file
        # rather than hand back a broken tree.
        tree = small_tree()
        blob = bytearray(encode_snapshot(tree, "0" * 64))
        header = json.loads(
            bytes(blob[12 : 12 + struct.unpack("<I", blob[8:12])[0]])
        )
        offset = header["columns"]["parent"]["offset"]
        body_start = (12 + struct.unpack("<I", blob[8:12])[0] + 63) // 64 * 64
        start = body_start + offset
        blob[start : start + 8 * tree.size] = struct.pack(
            "<%dq" % tree.size, *([tree.size + 5] * tree.size)
        )
        path = tmp_path / "c.snap"
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            decode_snapshot(path)


# ----------------------------------------------------------- snapshot store
class TestSnapshotStore:
    def test_tree_roundtrip_and_counters(self, tmp_path):
        store = SnapshotStore(tmp_path)
        tree = small_tree()
        digest = store.digest_bytes(b"some source")
        assert store.load_tree(digest) is None  # plain miss
        store.store_tree(tree, digest)
        loaded = store.load_tree(digest)
        assert loaded is not None and loaded.size == tree.size
        stats = store.stats
        assert stats.tree_misses == 1
        assert stats.tree_stores == 1
        assert stats.tree_hits == 1

    def test_damaged_file_is_deleted_and_missed(self, tmp_path):
        store = SnapshotStore(tmp_path)
        digest = "9" * 64
        path = store.tree_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        assert store.load_tree(digest) is None
        assert not path.exists()  # bad file removed
        assert store.stats.invalid == 1

    def test_truncated_snapshot_recovers(self, tmp_path):
        store = SnapshotStore(tmp_path)
        tree = small_tree()
        digest = "8" * 64
        path = store.store_tree(tree, digest)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 50])
        assert store.load_tree(digest) is None
        assert not path.exists()
        # Rebuild path: store again, loads fine.
        store.store_tree(tree, digest)
        assert store.load_tree(digest) is not None

    def test_stale_digest_file_dropped(self, tmp_path):
        # A snapshot renamed to a different digest's address must not serve.
        store = SnapshotStore(tmp_path)
        store.store_tree(small_tree(), "2" * 64)
        os.replace(store.tree_path("2" * 64), store.tree_path("3" * 64))
        assert store.load_tree("3" * 64) is None
        assert not store.tree_path("3" * 64).exists()

    def test_answer_spill_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        answers = frozenset({(1, 2), (3, 4)})
        digest = "5" * 64
        assert store.load_answers(digest, QUERY, VARIABLES, "polynomial") is None
        store.store_answers(digest, QUERY, VARIABLES, "polynomial", answers)
        assert store.load_answers(digest, QUERY, VARIABLES, "polynomial") == answers
        # A different engine or plan is a different address.
        assert store.load_answers(digest, QUERY, VARIABLES, "naive") is None
        assert store.load_answers(digest, "child::a", (), "polynomial") is None

    def test_answer_key_ignores_tree_layout_version(self):
        # Answer spills carry their own payload version, so bumping the tree
        # layout's FORMAT_VERSION keeps every spill written before it.
        identity = json.dumps(
            [ANSWER_FORMAT_VERSION, "answers", "5" * 64, QUERY, VARIABLES, "polynomial"],
            separators=(",", ":"),
        )
        assert ANSWER_FORMAT_VERSION == 1
        assert SnapshotStore.answer_key(
            "5" * 64, QUERY, VARIABLES, "polynomial"
        ) == hashlib.sha256(identity.encode("utf-8")).hexdigest()

    def test_corrupt_answers_deleted(self, tmp_path):
        store = SnapshotStore(tmp_path)
        digest = "6" * 64
        store.store_answers(digest, QUERY, VARIABLES, "polynomial", frozenset())
        path = store.answer_path(digest, QUERY, VARIABLES, "polynomial")
        path.write_bytes(b"\x80\x04junk")
        assert store.load_answers(digest, QUERY, VARIABLES, "polynomial") is None
        assert not path.exists()

    def test_gc_lru_by_access(self, tmp_path):
        store = SnapshotStore(tmp_path)
        digests = ["%064x" % index for index in range(4)]
        tree = small_tree()
        for index, digest in enumerate(digests):
            path = store.store_tree(tree, digest)
            stamp = 1_000_000 + index
            os.utime(path, (stamp, stamp))
        # Touch the oldest so it becomes the hottest.
        os.utime(store.tree_path(digests[0]), None)
        per_file = store.tree_path(digests[0]).stat().st_size
        removed = store.gc(2 * per_file)
        assert removed == 2
        assert store.has_tree(digests[0])  # survived: recently accessed
        assert not store.has_tree(digests[1])
        assert not store.has_tree(digests[2])
        assert store.has_tree(digests[3])
        assert store.stats.evictions == 2

    def test_budget_enforced_on_store(self, tmp_path):
        store = SnapshotStore(tmp_path, max_bytes=1)
        store.store_tree(small_tree(), "7" * 64)
        assert store.total_bytes() <= 1  # everything over budget evicted
        assert len(store) == 0


# ----------------------------------------------------- document store wiring
class TestDocumentStoreSnapshots:
    def test_cold_then_warm(self, tmp_path):
        snap = tmp_path / "snaps"
        xml = tree_to_xml(small_tree())
        cold = DocumentStore(snapshot_dir=snap)
        cold.add_xml("doc", xml)
        answers_cold = cold.get("doc").answer(QUERY, VARIABLES)
        assert cold.stats.parse_count == 1
        assert cold.stats.snapshot_misses == 1
        assert cold.snapshot_stats()["tree_stores"] == 1

        warm = DocumentStore(snapshot_dir=snap)
        warm.add_xml("doc", xml)
        answers_warm = warm.get("doc").answer(QUERY, VARIABLES)
        assert answers_warm == answers_cold
        assert warm.stats.parse_count == 0
        assert warm.stats.snapshot_hits == 1
        assert warm.snapshot_stats()["answer_hits"] == 1  # spill served too

    def test_file_source_revalidates_digest(self, tmp_path):
        snap = tmp_path / "snaps"
        doc = tmp_path / "doc.xml"
        doc.write_text(tree_to_xml(small_tree()))
        first = DocumentStore(snapshot_dir=snap)
        first.add_file(doc)
        first.get("doc")
        assert first.stats.parse_count == 1

        # Edit the source: the old snapshot must not serve.
        doc.write_text(tree_to_xml(Tree(Node("r", Node("a")))))
        second = DocumentStore(snapshot_dir=snap)
        second.add_file(doc)
        document = second.get("doc")
        assert document.tree.size == 2
        assert second.stats.parse_count == 1
        assert second.stats.snapshot_hits == 0

    def test_corrupt_snapshot_falls_back_to_parse(self, tmp_path):
        snap = tmp_path / "snaps"
        xml = tree_to_xml(small_tree())
        seed = DocumentStore(snapshot_dir=snap)
        seed.add_xml("doc", xml)
        expected = seed.get("doc").answer(QUERY, VARIABLES)
        # Corrupt every snapshot file in place.
        snap_files = list(snap.glob("*.snap"))
        assert snap_files
        for path in snap_files:
            path.write_bytes(b"ruined")

        store = DocumentStore(snapshot_dir=snap)
        store.add_xml("doc", xml)
        assert store.get("doc").answer(QUERY, VARIABLES) == expected
        assert store.stats.parse_count == 1  # fell back
        assert store.snapshot_stats()["invalid"] == 1
        # The bad file was deleted and a valid one rebuilt in its place.
        for path in snap_files:
            assert decode_snapshot(path).size == seed.get("doc").tree.size

    def test_tree_sources_bypass_snapshots(self, tmp_path):
        store = DocumentStore(snapshot_dir=tmp_path / "snaps")
        store.add_tree("doc", small_tree())
        store.get("doc")
        stats = store.stats
        assert stats.snapshot_hits == 0 and stats.snapshot_misses == 0
        assert stats.parse_count == 0  # in-memory trees never parse

    def test_over_budget_store_serves_identical_answers(self, tmp_path):
        # The LRU budget is far too small for the corpus: every access
        # evicts, yet answers match an unbudgeted all-in-memory store.
        corpus = tmp_path / "corpus"
        write_small_corpus(corpus, count=4)
        plain = DocumentStore()
        plain.add_directory(corpus)
        expected = {
            name: plain.get(name).answer(QUERY, VARIABLES) for name in plain.names()
        }

        budgeted = DocumentStore(
            snapshot_dir=tmp_path / "snaps", snapshot_bytes=2048, max_resident=1
        )
        budgeted.add_directory(corpus)
        for _ in range(2):  # second pass re-materialises under eviction
            for name in budgeted.names():
                assert budgeted.get(name).answer(QUERY, VARIABLES) == expected[name]


# -------------------------------------------------------------- session layer
class TestSessionSnapshots:
    def test_warm_session_skips_parse_and_first_evaluation(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_small_corpus(corpus)
        snap = tmp_path / "snaps"
        with Session(snapshot_dir=snap) as session:
            session.add_directory(corpus)
            cold = {
                (r.doc_name, r.query): r.answers
                for r in session.query_corpus((QUERY, VARIABLES))
            }
            stats = session.stats()
            assert stats["store"]["parse_count"] == 4
            assert stats["snapshot"]["tree_stores"] == 4
            assert stats["snapshot"]["answer_stores"] == 4

        with Session(snapshot_dir=snap) as session:
            session.add_directory(corpus)
            warm = {
                (r.doc_name, r.query): r.answers
                for r in session.query_corpus((QUERY, VARIABLES))
            }
            stats = session.stats()
            assert stats["store"]["parse_count"] == 0
            assert stats["store"]["snapshot_hits"] == 4
            assert stats["snapshot"]["answer_hits"] == 4
        assert cold == warm

    def test_report_and_server_stats_carry_snapshot_telemetry(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_small_corpus(corpus, count=2)
        with Session(snapshot_dir=tmp_path / "snaps") as session:
            session.add_directory(corpus)
            report = session.corpus_report((QUERY, VARIABLES))
            assert report.snapshot is not None
            assert report.snapshot["tree_stores"] == 2
            assert report.to_dict()["snapshot"]["tree_stores"] == 2

            async def poke_server():
                stats = session.server().stats
                return stats.to_dict()

            payload = asyncio.run(poke_server())
            assert payload["snapshot"] is not None
            assert payload["snapshot"]["tree_stores"] == 2

    def test_processes_strategy_shares_snapshot_dir(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_small_corpus(corpus, count=3)
        snap = tmp_path / "snaps"
        with Session(
            snapshot_dir=snap, strategy="processes", max_workers=2
        ) as session:
            session.add_directory(corpus)
            cold = {
                (r.doc_name, r.query): r.answers
                for r in session.query_corpus((QUERY, VARIABLES))
            }
            worker = session.worker_stats()
            assert worker.parse_count == 3
            assert worker.snapshot_misses == 3
        assert len(list(snap.glob("*.snap"))) == 3

        with Session(
            snapshot_dir=snap, strategy="processes", max_workers=2
        ) as session:
            session.add_directory(corpus)
            warm = {
                (r.doc_name, r.query): r.answers
                for r in session.query_corpus((QUERY, VARIABLES))
            }
            worker = session.worker_stats()
            assert worker.parse_count == 0
            assert worker.snapshot_hits == 3
            report = session.corpus_report((QUERY, VARIABLES))
            assert report.snapshot["trees"] == 3  # shared dir, not summed
        assert cold == warm

    def test_precedence_explicit_over_policy_over_env(self, tmp_path, monkeypatch):
        explicit_dir = tmp_path / "explicit"
        policy_dir = tmp_path / "policy"
        env_dir = tmp_path / "env"
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(env_dir))

        with Session() as session:
            resolved = session.execution.resolve("snapshot_dir")
            assert resolved.source == "env"
            assert resolved.value == str(env_dir)
            assert session.store.snapshot_dir == str(env_dir)

        policy = ExecutionPolicy(snapshot_dir=str(policy_dir))
        with Session(execution=policy) as session:
            assert session.execution.resolve("snapshot_dir").source == "policy"
            assert session.store.snapshot_dir == str(policy_dir)

        # An explicit constructor argument folds over the policy field
        # (explicit > policy): the resolved value is the explicit one.
        with Session(execution=policy, snapshot_dir=explicit_dir) as session:
            assert session.execution.resolved("snapshot_dir") == str(explicit_dir)
            assert session.store.snapshot_dir == str(explicit_dir)

    def test_snapshot_bytes_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "snaps"))
        monkeypatch.setenv("REPRO_SNAPSHOT_BYTES", "4096")
        with Session() as session:
            assert session.store.snapshot_store.max_bytes == 4096

    def test_default_is_no_snapshots(self):
        with Session() as session:
            assert session.store.snapshot_store is None
            assert session.stats()["snapshot"] is None


# ------------------------------------------------------------- sync timeout
class _SlowEngine:
    """A registry engine that stalls long enough to trip any watchdog."""

    name = "slow-for-test"

    def __init__(self):
        from repro.api.registry import EngineCapabilities

        self.capabilities = EngineCapabilities()

    def answer(self, tree, query):  # pragma: no cover - interrupted mid-sleep
        time.sleep(5.0)
        return frozenset()


class TestSyncTimeout:
    def test_query_corpus_times_out_on_slow_document(self, tiny_tree):
        from repro.api.registry import _REGISTRY, register_engine

        register_engine(_SlowEngine(), replace=True)
        try:
            with Session(timeout=0.2, engine="slow-for-test") as session:
                session.add_tree("slow", tiny_tree)
                started = time.monotonic()
                with pytest.raises(CorpusTimeoutError):
                    list(session.query_corpus(("child::a", ())))
                elapsed = time.monotonic() - started
                assert elapsed < 4.0  # did not wait out the slow engine
        finally:
            _REGISTRY.pop("slow-for-test", None)

    def test_generous_timeout_streams_normally(self, tiny_tree):
        with Session(timeout=60.0) as session:
            session.add_tree("doc", tiny_tree)
            results = list(session.query_corpus(("child::b", ())))
            assert len(results) == 1

    def test_no_timeout_returns_raw_stream(self, tiny_tree):
        with Session() as session:
            session.add_tree("doc", tiny_tree)
            assert len(list(session.query_corpus(("child::b", ())))) == 1


# --------------------------------------------------------------------- CLI
class TestSnapshotCli:
    def run_cli(self, *arguments: str, capsys) -> dict:
        from repro.cli import main

        assert main(list(arguments)) == 0
        return json.loads(capsys.readouterr().out)

    def test_build_stats_gc(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_small_corpus(corpus, count=3)
        snap = str(tmp_path / "snaps")

        built = self.run_cli(
            "corpus", "snapshot", "build",
            "--dir", str(corpus), "--snapshot-dir", snap,
            capsys=capsys,
        )
        assert built["documents"] == 3
        assert built["snapshot"]["tree_stores"] == 3

        stats = self.run_cli(
            "corpus", "snapshot", "stats", "--snapshot-dir", snap, capsys=capsys
        )
        assert stats["files"]["trees"] == 3
        assert stats["total_bytes"] > 0

        collected = self.run_cli(
            "corpus", "snapshot", "gc",
            "--snapshot-dir", snap, "--max-bytes", "0",
            capsys=capsys,
        )
        assert collected["removed_files"] == 3
        assert collected["bytes_after"] == 0

    def test_corpus_answer_uses_snapshots(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_small_corpus(corpus, count=2)
        snap = str(tmp_path / "snaps")
        self.run_cli(
            "corpus", "snapshot", "build",
            "--dir", str(corpus), "--snapshot-dir", snap,
            capsys=capsys,
        )
        report = self.run_cli(
            "corpus", "answer",
            "--dir", str(corpus), "--snapshot-dir", snap,
            "--query", QUERY, "--vars", ",".join(VARIABLES), "--json",
            capsys=capsys,
        )
        assert report["snapshot"]["tree_hits"] == 2

    def test_build_takes_snapshot_dir_from_env(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        write_small_corpus(corpus, count=2)
        monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
        assert main(["corpus", "snapshot", "build", "--dir", str(corpus)]) == 1
        assert "requires --snapshot-dir" in capsys.readouterr().err
        snap = str(tmp_path / "env-snaps")
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", snap)
        built = self.run_cli(
            "corpus", "snapshot", "build", "--dir", str(corpus), capsys=capsys
        )
        assert built["snapshot_dir"] == snap
        assert built["snapshot"]["tree_stores"] == 2
