"""Tests for the corpus subsystem: store, executor, report, CLI, batch API."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.api import Document, answer_batch, compile_query
from repro.corpus import (
    CorpusError,
    CorpusExecutor,
    CorpusReport,
    DocumentStore,
    answer_corpus,
)
from repro.trees.xml_io import tree_to_xml
from repro.workloads import corpus_scales, generate_corpus, write_corpus
from repro.workloads.bibliography import (
    bibliography_pair_query,
    generate_bibliography,
)

PAIR_QUERY, PAIR_VARS = bibliography_pair_query()
#: Variable-free Boolean query every backend (corexpath1 included) can run.
BOOLEAN_QUERY = "descendant::book[child::author]"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Six small bibliography documents on disk, skewed sizes."""
    directory = tmp_path_factory.mktemp("corpus")
    corpus = generate_corpus(6, base=6, skew=0.5, seed=7, decoys_per_book=2)
    write_corpus(directory, corpus)
    return directory


@pytest.fixture()
def store(corpus_dir):
    return DocumentStore.from_directory(corpus_dir)


def expected_answers(corpus_dir, query, variables, engine="polynomial"):
    compiled = compile_query(query, variables, require_ppl=False)
    out = {}
    for path in sorted(corpus_dir.glob("*.xml")):
        out[path.stem] = Document.from_file(str(path)).answer(compiled, engine=engine)
    return out


# ----------------------------------------------------------------- the store
class TestDocumentStore:
    def test_directory_loading_is_sorted_and_named_by_stem(self, store):
        assert store.names() == tuple(f"doc{i:03d}" for i in range(6))
        assert "doc000" in store and "nope" not in store
        assert len(store) == 6

    def test_lazy_parse(self, store):
        assert store.stats.loads == 0
        store.get("doc000")
        assert store.stats.loads == 1

    def test_hits_do_not_reload(self, store):
        first = store.get("doc001")
        again = store.get("doc001")
        assert first is again
        assert store.stats.loads == 1
        assert store.stats.hits == 1

    def test_eviction_and_reload(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir, max_resident=2)
        docs = [store.get(name) for name in store.names()]
        assert len(store.resident_names()) == 2
        stats = store.stats
        assert stats.loads == 6 and stats.evictions == 4
        # The evicted document reloads transparently — fresh object, same tree.
        reloaded = store.get("doc000")
        assert reloaded is not docs[0]
        assert reloaded.tree == docs[0].tree
        assert store.stats.loads == 7

    def test_lru_order_victims(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir, max_resident=2)
        store.get("doc000")
        store.get("doc001")
        store.get("doc000")  # refresh doc000: doc001 is now the LRU victim
        store.get("doc002")
        assert set(store.resident_names()) == {"doc000", "doc002"}

    def test_unknown_name_and_bad_capacity(self, store, corpus_dir):
        with pytest.raises(CorpusError):
            store.get("missing")
        with pytest.raises(CorpusError):
            DocumentStore(max_resident=0)
        with pytest.raises(CorpusError):
            DocumentStore.from_directory(corpus_dir / "nothing-here")

    def test_duplicate_names_rejected(self, store):
        with pytest.raises(CorpusError):
            store.add_xml("doc000", "<bib/>")

    def test_add_xml_and_tree_sources(self):
        store = DocumentStore()
        tree = generate_bibliography(2, seed=0)
        store.add_xml("from-xml", tree_to_xml(tree))
        store.add_tree("from-tree", tree)
        assert store.get("from-xml").tree == store.get("from-tree").tree
        # Tree sources ship to workers as serialised XML.
        kind, payload = store.source_spec("from-tree")
        assert kind == "xml" and payload == tree_to_xml(tree)

    def test_resolve_name_path_and_garbage(self, store, corpus_dir):
        by_name = store.resolve("doc000")
        by_path = store.resolve(corpus_dir / "doc000.xml")
        # The path registers a second source; both parse to the same tree.
        assert by_name.tree == by_path.tree
        with pytest.raises(CorpusError):
            store.resolve("no-such-doc-or-file")

    def test_resolve_survives_stem_collisions(self, corpus_dir, tmp_path, monkeypatch):
        # A different spelling of an already-registered file must not clash
        # with its stem registration, nor must another directory's file with
        # the same stem: adopted paths are keyed by their full path string.
        store = DocumentStore.from_directory(corpus_dir)
        monkeypatch.chdir(corpus_dir)
        relative = store.resolve("doc000.xml")
        assert relative.tree == store.get("doc000").tree
        other_dir = tmp_path / "other"
        write_corpus(other_dir, {"doc000": generate_bibliography(4, seed=9)})
        elsewhere = store.resolve(other_dir / "doc000.xml")
        assert elsewhere.tree == generate_bibliography(4, seed=9)
        # Repeated resolution reuses the registration (no duplicate error).
        assert store.resolve(other_dir / "doc000.xml").tree == elsewhere.tree

    def test_store_documents_memoise_answers(self, store):
        document = store.get("doc000")
        first = document.answer(PAIR_QUERY, PAIR_VARS)
        hits = store.answer_cache.stats.hits
        # A hit rebuilds the set from the cache's packed rows.
        assert document.answer(PAIR_QUERY, PAIR_VARS) == first
        assert store.answer_cache.stats.hits == hits + 1
        # Ad-hoc documents do not memoise (two equal but distinct frozensets).
        adhoc = Document(generate_bibliography(2, seed=0))
        assert adhoc.answer(PAIR_QUERY, PAIR_VARS) is not adhoc.answer(
            PAIR_QUERY, PAIR_VARS
        )


# -------------------------------------------------------------- the executor
class TestCorpusExecutor:
    @pytest.mark.parametrize("strategy", ("serial", "processes"))
    @pytest.mark.parametrize(
        "engine,query,variables",
        [
            ("polynomial", PAIR_QUERY, PAIR_VARS),
            ("naive", PAIR_QUERY, PAIR_VARS),
            ("yannakakis", PAIR_QUERY, PAIR_VARS),
            ("corexpath1", BOOLEAN_QUERY, []),
        ],
    )
    def test_cross_strategy_agreement_all_engines(
        self, corpus_dir, strategy, engine, query, variables
    ):
        reference = expected_answers(corpus_dir, query, variables, engine)
        store = DocumentStore.from_directory(corpus_dir)
        with CorpusExecutor(store, strategy=strategy, max_workers=2) as executor:
            results = list(executor.run((query, variables), engine=engine))
        assert {r.doc_name: r.answers for r in results} == reference
        assert all(r.report.engine == engine for r in results)

    def test_deterministic_ordering(self, store):
        with CorpusExecutor(store, strategy="processes", max_workers=3) as executor:
            ordered = [r.doc_name for r in executor.run((PAIR_QUERY, PAIR_VARS))]
        assert ordered == list(store.names())

    def test_unordered_same_multiset(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            unordered = list(executor.run((PAIR_QUERY, PAIR_VARS), ordered=False))
        assert {r.doc_name: r.answers for r in unordered} == expected_answers(
            corpus_dir, PAIR_QUERY, PAIR_VARS
        )

    def test_streaming_is_lazy(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir)
        iterator = CorpusExecutor(store).run((PAIR_QUERY, PAIR_VARS))
        assert store.stats.loads == 0
        first = next(iterator)
        assert store.stats.loads == 1
        assert first.doc_name == "doc000"

    def test_result_unpacks_to_name_and_report(self, store):
        result = next(iter(CorpusExecutor(store).run((PAIR_QUERY, PAIR_VARS))))
        doc_name, report = result
        assert doc_name == result.doc_name == "doc000"
        assert report is result.report
        assert report.answer_count == len(result.answers)
        assert report.variables == tuple(PAIR_VARS)

    def test_multiple_queries_per_document(self, store):
        queries = [(PAIR_QUERY, PAIR_VARS), BOOLEAN_QUERY]
        results = list(CorpusExecutor(store).run(queries))
        assert len(results) == 2 * len(store)
        assert {r.query for r in results} == {
            compile_query(PAIR_QUERY, PAIR_VARS).unparse(),
            compile_query(BOOLEAN_QUERY).unparse(),
        }

    def test_document_subset_and_unknown_name(self, store):
        results = list(
            CorpusExecutor(store).run((PAIR_QUERY, PAIR_VARS), ["doc002", "doc004"])
        )
        assert [r.doc_name for r in results] == ["doc002", "doc004"]
        with pytest.raises(CorpusError):
            list(CorpusExecutor(store).run((PAIR_QUERY, PAIR_VARS), ["doc999"]))

    def test_unknown_strategy(self, store):
        with pytest.raises(CorpusError):
            CorpusExecutor(store, strategy="gpu")

    def test_worker_caches_reused_across_runs(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir, max_resident=3)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            first = {r.doc_name: r.answers for r in executor.run((PAIR_QUERY, PAIR_VARS))}
            second = {r.doc_name: r.answers for r in executor.run((PAIR_QUERY, PAIR_VARS))}
            worker_stats = executor.worker_stats()
        assert first == second
        # Work happened in the shard workers, never in the parent store —
        # and the second run hit the worker caches instead of reloading.
        assert store.stats.loads == 0
        assert worker_stats.loads == 6
        assert worker_stats.hits >= 6

    def test_processes_sees_same_name_replacement(self):
        store = DocumentStore()
        store.add_xml("a", tree_to_xml(generate_bibliography(1, seed=0)))
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            before = list(executor.run((PAIR_QUERY, PAIR_VARS)))
            assert len(before[0].answers) == 1
            store.discard("a")
            store.add_xml("a", tree_to_xml(generate_bibliography(3, seed=1)))
            after = list(executor.run((PAIR_QUERY, PAIR_VARS)))
        # The shard pools were rebuilt, so the worker answered the new content.
        assert len(after[0].answers) == 3

    def test_explicit_single_worker_is_honoured(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir)
        with CorpusExecutor(store, strategy="processes", max_workers=1) as executor:
            results = list(executor.run((PAIR_QUERY, PAIR_VARS)))
            assert executor._pools is not None and len(executor._pools) == 1
        assert {r.doc_name: r.answers for r in results} == expected_answers(
            corpus_dir, PAIR_QUERY, PAIR_VARS
        )

    def test_subset_run_spawns_only_owning_shards(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir)
        with CorpusExecutor(store, strategy="processes", max_workers=3) as executor:
            results = list(executor.run((PAIR_QUERY, PAIR_VARS), ["doc000"]))
            spawned = [pool for pool in executor._pools if pool is not None]
            assert len(spawned) == 1
        assert [r.doc_name for r in results] == ["doc000"]

    def test_answer_corpus_helper(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir)
        results = list(
            answer_corpus(
                store, (PAIR_QUERY, PAIR_VARS), strategy="processes", max_workers=2
            )
        )
        assert {r.doc_name: r.answers for r in results} == expected_answers(
            corpus_dir, PAIR_QUERY, PAIR_VARS
        )


# ---------------------------------------------------------------- the report
class TestCorpusReport:
    def test_run_report_aggregates(self, store):
        report = CorpusExecutor(store).run_report([(PAIR_QUERY, PAIR_VARS), BOOLEAN_QUERY])
        assert report.strategy == "serial"
        assert report.document_count == 6
        assert report.query_count == 2
        assert len(report.entries) == 12
        assert report.wall_seconds is not None and report.wall_seconds > 0
        rollup = report.per_document()
        assert set(rollup) == set(store.names())
        assert all(entry["results"] == 2 for entry in rollup.values())

    def test_to_json_round_trip(self, store):
        report = CorpusExecutor(store).run_report((PAIR_QUERY, PAIR_VARS))
        payload = json.loads(report.to_json())
        assert payload["strategy"] == "serial"
        assert payload["documents"] == 6
        assert payload["results"] == 6
        assert len(payload["entries"]) == 6
        assert payload["entries"][0]["doc_name"] == "doc000"

    def test_from_results_without_wall(self, store):
        results = list(CorpusExecutor(store).run((PAIR_QUERY, PAIR_VARS)))
        report = CorpusReport.from_results(results, strategy="serial")
        assert report.wall_seconds is None
        assert report.total_answers == sum(len(r.answers) for r in results)


# ------------------------------------------------------------- answer_batch
class TestAnswerBatchResolution:
    def test_paths_without_store(self, corpus_dir):
        paths = sorted(corpus_dir.glob("*.xml"))
        answers = answer_batch([str(p) for p in paths], PAIR_QUERY, PAIR_VARS)
        reference = expected_answers(corpus_dir, PAIR_QUERY, PAIR_VARS)
        assert answers == [reference[p.stem] for p in paths]

    def test_names_through_store(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir)
        answers = answer_batch(list(store.names()), PAIR_QUERY, PAIR_VARS, store=store)
        reference = expected_answers(corpus_dir, PAIR_QUERY, PAIR_VARS)
        assert answers == [reference[name] for name in store.names()]
        assert store.stats.loads == 6

    def test_mixed_items(self, corpus_dir):
        store = DocumentStore.from_directory(corpus_dir)
        tree = generate_bibliography(3, seed=1)
        answers = answer_batch(
            ["doc000", corpus_dir / "doc001.xml", tree, Document(tree)],
            PAIR_QUERY,
            PAIR_VARS,
            store=store,
        )
        reference = expected_answers(corpus_dir, PAIR_QUERY, PAIR_VARS)
        direct = Document(tree).answer(PAIR_QUERY, PAIR_VARS)
        assert answers == [reference["doc000"], reference["doc001"], direct, direct]

    def test_unresolvable_items_raise(self):
        with pytest.raises(CorpusError):
            answer_batch(["nowhere.xml"], PAIR_QUERY, PAIR_VARS)
        with pytest.raises(TypeError):
            answer_batch([42], PAIR_QUERY, PAIR_VARS)


# --------------------------------------------------------------- the CLI
class TestCorpusCli:
    def test_load_inventory(self, corpus_dir, capsys):
        assert cli.main(["corpus", "load", "--dir", str(corpus_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 6
        assert [doc["name"] for doc in payload["documents"]] == list(
            f"doc{i:03d}" for i in range(6)
        )
        assert payload["stats"]["loads"] == 6

    @pytest.mark.parametrize("strategy", ("serial", "processes"))
    def test_answer_round_trip(self, corpus_dir, capsys, strategy):
        code = cli.main(
            [
                "corpus",
                "answer",
                "--dir",
                str(corpus_dir),
                "--query",
                PAIR_QUERY,
                "--vars",
                ",".join(PAIR_VARS),
                "--strategy",
                strategy,
                "--workers",
                "2",
            ]
        )
        assert code == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#")
        ]
        reference = expected_answers(corpus_dir, PAIR_QUERY, PAIR_VARS)
        assert lines == [f"{name}\t{len(reference[name])}" for name in sorted(reference)]

    def test_answer_json_report(self, corpus_dir, capsys):
        code = cli.main(
            [
                "corpus",
                "answer",
                "--dir",
                str(corpus_dir),
                "--query",
                PAIR_QUERY,
                "--vars",
                "y,z",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["documents"] == 6
        reference = expected_answers(corpus_dir, PAIR_QUERY, PAIR_VARS)
        assert payload["total_answers"] == sum(len(a) for a in reference.values())

    def test_answer_env_applies_without_flags(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STRATEGY", "processes")
        monkeypatch.setenv("REPRO_ENGINE", "naive")
        base = ["corpus", "answer", "--dir", str(corpus_dir), "--query", PAIR_QUERY,
                "--vars", "y,z", "--json", "--workers", "2"]
        assert cli.main(base) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["strategy"], payload["engine"]) == ("processes", "naive")
        # An explicit flag still beats the environment.
        assert cli.main(base + ["--strategy", "serial", "--engine", "polynomial"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["strategy"], payload["engine"]) == ("serial", "polynomial")

    @pytest.mark.parametrize(
        "argv",
        (
            ["corpus", "answer", "--query", PAIR_QUERY],
            ["corpus", "bench", "--query", PAIR_QUERY],
            ["serve", "run"],
            ["serve", "cluster", "run"],
        ),
    )
    def test_session_flags_default_to_none(self, argv):
        # argparse defaults would count as explicit values and shadow the
        # REPRO_* environment, so every Session-building subcommand leaves
        # them unset.
        args = cli.build_parser().parse_args([*argv, "--dir", "corpus"])
        assert args.engine is None
        assert getattr(args, "strategy", None) is None
        assert args.workers is None

    def test_bench_agreement_and_out_file(self, corpus_dir, capsys, tmp_path):
        out = tmp_path / "corpus_bench.json"
        code = cli.main(
            [
                "corpus",
                "bench",
                "--dir",
                str(corpus_dir),
                "--query",
                PAIR_QUERY,
                "--vars",
                "y,z",
                "--strategies",
                "serial,processes",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["agreement"] is True
        assert {run["strategy"] for run in printed["strategies"]} == {
            "serial",
            "processes",
        }
        assert json.loads(out.read_text()) == printed

    def test_answer_rejects_empty_corpus(self, tmp_path, capsys):
        tmp_path.joinpath("empty").mkdir()
        code = cli.main(
            [
                "corpus",
                "answer",
                "--dir",
                str(tmp_path / "empty"),
                "--query",
                PAIR_QUERY,
                "--vars",
                "y,z",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


# ------------------------------------------------------- corpus generation
class TestCorpusGeneration:
    def test_scales_monotone_and_deterministic(self):
        flat = corpus_scales(5, 10, 0.0)
        assert flat == [10] * 5
        skewed = corpus_scales(5, 10, 1.0)
        assert skewed == sorted(skewed, reverse=True)
        assert skewed[0] == 10 and skewed[-1] == 2
        with pytest.raises(ValueError):
            corpus_scales(0, 10, 1.0)

    def test_generate_corpus_kinds_and_seeding(self):
        bib = generate_corpus(3, base=4, seed=5)
        again = generate_corpus(3, base=4, seed=5)
        assert list(bib) == ["doc000", "doc001", "doc002"]
        assert all(bib[name] == again[name] for name in bib)
        restaurants = generate_corpus(2, kind="restaurants", base=3, seed=5)
        assert restaurants["doc000"].labels[0] == "guide"
        with pytest.raises(ValueError):
            generate_corpus(2, kind="newspapers")

    def test_write_corpus_round_trips_through_store(self, tmp_path):
        corpus = generate_corpus(3, base=4, skew=0.5, seed=2)
        write_corpus(tmp_path, corpus)
        store = DocumentStore.from_directory(tmp_path)
        assert store.names() == ("doc000", "doc001", "doc002")
        for name in store.names():
            assert store.get(name).tree == corpus[name]
