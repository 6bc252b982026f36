"""Tests for the shared on-disk store behind the plan cache and snapshot store.

:class:`repro.diskstore.DiskStore` holds the storage rules once; these
tests pin what both views must agree on:

* the on-disk format: hand-written payloads in the documented layout load
  as hits, and stores write exactly that layout, so every existing cache
  directory stays readable;
* one directory shared by a plan cache and a snapshot store: each view's
  length, footprint, clearing and budget eviction see only its own files;
* uniform misses: an absent file never trips ``corrupt_read``, and an
  injected read leaves the healthy file on disk, for plans, trees and
  answers alike;
* one LRU order (access time, then modification time) for both views;
* the atomic write under concurrent writers of one path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import threading

import pytest

from repro import faults
from repro.api import compile_query
from repro.obs import calibrate as obs_calibrate
from repro.serve.plancache import FORMAT_VERSION, PlanCache
from repro.snapshot.store import ANSWER_FORMAT_VERSION, SnapshotStore
from repro.workloads import generate_bibliography

QUERY = "descendant::book[child::author[. is $y] and child::title[. is $z]]"
VARIABLES = ["y", "z"]
DIGEST = "ab" * 32


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def small_tree():
    return generate_bibliography(3, authors_per_book=1, titles_per_book=1, seed=3)


# ------------------------------------------------------------- format pin
class TestFormatPin:
    def test_hand_written_plan_payload_loads_as_hit(self, tmp_path):
        query = compile_query(QUERY, VARIABLES)
        payload = {
            "format": FORMAT_VERSION,
            "text": QUERY,
            "variables": VARIABLES,
            "engine": "any",
            "query": query,
        }
        cache = PlanCache(tmp_path)
        path = cache.path_for(QUERY, VARIABLES)
        identity = json.dumps([1, QUERY, VARIABLES, "any"], separators=(",", ":"))
        assert path.name == hashlib.sha256(identity.encode("utf-8")).hexdigest() + ".plan"
        path.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        loaded = cache.load(QUERY, VARIABLES)
        assert loaded is not None and loaded.unparse() == query.unparse()
        assert cache.stats.hits == 1 and cache.stats.invalid == 0
        # A store writes exactly the documented layout, byte for byte.
        written = PlanCache(tmp_path / "fresh").store(query, expression=QUERY)
        assert written.name == path.name
        assert written.read_bytes() == pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def test_hand_written_answer_payload_loads_as_hit(self, tmp_path):
        answers = frozenset({(1, 2), (3, 4)})
        payload = {
            "format": ANSWER_FORMAT_VERSION,
            "digest": DIGEST,
            "plan": QUERY,
            "variables": VARIABLES,
            "engine": "polynomial",
            "answers": answers,
        }
        store = SnapshotStore(tmp_path)
        path = store.answer_path(DIGEST, QUERY, VARIABLES, "polynomial")
        path.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        assert store.load_answers(DIGEST, QUERY, VARIABLES, "polynomial") == answers
        assert store.stats.answer_hits == 1 and store.stats.invalid == 0
        fresh = SnapshotStore(tmp_path / "fresh")
        written = fresh.store_answers(DIGEST, QUERY, VARIABLES, "polynomial", answers)
        assert written.name == path.name
        assert written.read_bytes() == pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


# ------------------------------------------------------- shared directory
class TestSharedDirectory:
    def test_views_count_clear_and_evict_only_their_own_files(self, tmp_path):
        plans = PlanCache(tmp_path)
        snapshots = SnapshotStore(tmp_path)
        plan_paths = [
            plans.store(compile_query(text), expression=text) for text in ("child::a", "child::b")
        ]
        tree_path = snapshots.store_tree(small_tree(), DIGEST)
        answer_path = snapshots.store_answers(DIGEST, QUERY, VARIABLES, "naive", frozenset())
        assert len(plans) == 2 and len(snapshots) == 2
        assert plans.total_bytes() == sum(path.stat().st_size for path in plan_paths)
        assert snapshots.total_bytes() == tree_path.stat().st_size + answer_path.stat().st_size

        # A snapshot budget of zero evicts every snapshot file, no plan.
        assert snapshots.gc(0) == 2
        assert len(snapshots) == 0 and snapshots.stats.evictions == 2
        assert all(path.exists() for path in plan_paths)

        # A plan budget evicts plans only.
        snapshots.store_tree(small_tree(), DIGEST)
        plans.max_bytes = 1
        plans.store(compile_query("child::c"), expression="child::c")
        assert len(plans) == 0 and plans.stats.evictions == 3
        assert snapshots.has_tree(DIGEST)

        # Clearing one view leaves the other's files.
        plans.max_bytes = None
        plans.store(compile_query("child::d"), expression="child::d")
        assert snapshots.clear() == 1
        assert len(plans) == 1
        assert plans.clear() == 1
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------- uniform misses
def _plan_case(tmp_path):
    cache = PlanCache(tmp_path)
    query = compile_query(QUERY, VARIABLES)
    return (
        lambda: cache.load(QUERY, VARIABLES),
        lambda: cache.store(query, expression=QUERY),
        lambda: cache.stats.invalid,
    )


def _tree_case(tmp_path):
    store = SnapshotStore(tmp_path)
    return (
        lambda: store.load_tree(DIGEST),
        lambda: store.store_tree(small_tree(), DIGEST),
        lambda: store.stats.invalid,
    )


def _answer_case(tmp_path):
    store = SnapshotStore(tmp_path)
    return (
        lambda: store.load_answers(DIGEST, QUERY, VARIABLES, "naive"),
        lambda: store.store_answers(DIGEST, QUERY, VARIABLES, "naive", frozenset({(1, 2)})),
        lambda: store.stats.invalid,
    )


@pytest.mark.parametrize(
    "case", [_plan_case, _tree_case, _answer_case], ids=["plan", "tree", "answer"]
)
def test_corrupt_read_fires_only_on_present_files(tmp_path, case):
    load, store, invalid = case(tmp_path)
    plan = faults.install("corrupt_read")
    assert load() is None  # absent: a plain miss, no firing spent
    assert plan.stats()["total_fired"] == 0
    path = store()
    assert load() is None  # injected: a miss that keeps the file
    assert plan.stats()["total_fired"] == 1
    assert path.exists() and invalid() == 0
    faults.clear()
    assert load() is not None


# --------------------------------------------------------------- LRU order
def test_both_views_evict_the_same_file_for_the_same_access_times(tmp_path):
    # (atime, mtime) per file: access time decides, so file 1 is the victim
    # even though file 0 has the oldest modification time.
    times = [(3000, 1000), (1000, 3000), (2000, 2000)]

    plans = PlanCache(tmp_path / "plans")
    plan_paths = [
        plans.store(compile_query(text), expression=text)
        for text in ("child::a", "child::b", "child::c")
    ]
    snapshots = SnapshotStore(tmp_path / "snapshots")
    tree_paths = [snapshots.store_tree(small_tree(), "%064x" % index) for index in range(3)]
    for paths in (plan_paths, tree_paths):
        for path, stamps in zip(paths, times):
            os.utime(path, stamps)

    size = plan_paths[0].stat().st_size
    assert all(path.stat().st_size == size for path in plan_paths)
    plans.max_bytes = 3 * size + size // 2  # room for three plans
    plans.store(compile_query("child::d"), expression="child::d")
    snapshots.max_bytes = 3 * tree_paths[0].stat().st_size
    snapshots.store_tree(small_tree(), "%064x" % 3)

    assert [path.exists() for path in plan_paths] == [True, False, True]
    assert [path.exists() for path in tree_paths] == [True, False, True]
    assert plans.stats.evictions == snapshots.stats.evictions == 1


# ------------------------------------------------------------ atomic write
def test_concurrent_profile_saves_of_one_path(tmp_path):
    # Two threads saving one profile path must not rename each other's temp
    # file away: the temp name is unique per thread, not only per process.
    path = str(tmp_path / "profile.json")
    errors = []

    def hammer(index):
        try:
            for _ in range(200):
                obs_calibrate.save_profile(path, {"constants": {"writer": index}})
        except Exception as error:  # pragma: no cover - the regression
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert obs_calibrate.load_profile(path)["constants"]["writer"] in range(4)
    assert sorted(os.listdir(tmp_path)) == ["profile.json"]
