r"""Command-line front end, driven entirely by the :mod:`repro.api` facade.

Subcommands
-----------
``answer``
    Answer an n-ary query against an XML document, with any registered
    engine::

        repro-xpath answer --xml bib.xml \
            --query "descendant::book[child::author[. is \$y] and child::title[. is \$z]]" \
            --vars y,z --engine polynomial

``check``
    Report whether an expression belongs to PPL (Definition 1) without
    evaluating it::

        repro-xpath check --query "for \$x in child::a return \$x"

``translate``
    Print the Fig. 7 HCL⁻(PPLbin) translation (and, for variable-free
    expressions, the Fig. 4 PPLbin form)::

        repro-xpath translate --query "descendant::a[. is \$x]"

``bench``
    Time one query on one document across engines and emit machine-readable
    JSON (a :class:`repro.api.QueryReport` per engine plus timings)::

        repro-xpath bench --xml bib.xml --query "..." --vars y,z \
            --engines polynomial,naive --repeat 3

``engines``
    List the registered backends and their capability flags.

``corpus``
    Multi-document commands backed by :mod:`repro.corpus` — a subcommand
    group of its own:

    ``corpus load``
        Register every XML file of a directory in a
        :class:`repro.corpus.DocumentStore` and print a JSON inventory
        (names, sizes, store stats)::

            repro-xpath corpus load --dir corpus/ --max-resident 32

    ``corpus answer``
        Answer one query on every document (or ``--docs`` a subset), with
        any strategy of the :class:`repro.corpus.CorpusExecutor`; prints one
        ``name<TAB>count`` line per document as results stream in, or the
        full :class:`repro.corpus.CorpusReport` with ``--json``::

            repro-xpath corpus answer --dir corpus/ \
                --query "descendant::book[child::author[. is \$y] and child::title[. is \$z]]" \
                --vars y,z --strategy processes --workers 4

    ``corpus bench``
        Time the same corpus run under several strategies, check that they
        all return identical answers, and write a JSON comparison::

            repro-xpath corpus bench --dir corpus/ --query "..." --vars y,z \
                --strategies serial,processes --out BENCH_corpus.json

``serve``
    Async serving commands backed by :mod:`repro.serve`:

    ``serve run``
        Serve a corpus directory over the newline-delimited-JSON TCP
        protocol, optionally with a persistent compiled-plan cache::

            repro-xpath serve run --dir corpus/ --port 8723 \
                --strategy processes --plan-cache /var/cache/repro-plans

    ``serve query`` / ``serve stats``
        Thin NDJSON clients: submit one query (streaming one
        ``name<TAB>count`` line per document) or fetch the
        :class:`repro.serve.ServerStats` snapshot of a running server.

    ``serve warm``
        Compile queries into a plan cache ahead of time, so the first
        ``serve run`` over that cache starts warm::

            repro-xpath serve warm --plan-cache /var/cache/repro-plans \
                --query "descendant::book[child::author[. is \$y]]" --vars y

The seed's flat invocation (``repro-xpath --xml ... --query ...``) keeps
working and is routed through the same facade; ``--engine ppl`` is accepted
as an alias of ``polynomial``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.api import (
    DEFAULT_ENGINE,
    available_engines,
    check_capabilities,
    get_engine,
)
from repro.corpus import STRATEGIES
from repro.session import ExecutionPolicy, ServingPolicy, Session

SUBCOMMANDS = (
    "answer",
    "check",
    "translate",
    "bench",
    "engines",
    "corpus",
    "serve",
    "obs",
)


# ---------------------------------------------------------------- new parser
def build_parser() -> argparse.ArgumentParser:
    """Return the subcommand argument parser for the ``repro-xpath`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-xpath",
        description="Answer n-ary PPL (Core XPath 2.0) queries on XML documents "
        "through the pluggable engine registry of Filiot et al., PODS 2007.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_kernel_option(subparser: argparse.ArgumentParser) -> None:
        from repro.pplbin.bitmatrix import KERNEL_NAMES

        subparser.add_argument(
            "--kernel",
            default=None,
            choices=KERNEL_NAMES,
            help="Boolean matrix kernel for the Theorem 2 evaluator "
            "(default: adaptive, or the REPRO_KERNEL environment variable)",
        )

    answer = subparsers.add_parser(
        "answer", help="answer a query on an XML document with a registered engine"
    )
    answer.add_argument("--xml", required=True, help="path to the XML document to query")
    answer.add_argument("--query", required=True, help="the Core XPath 2.0 expression")
    answer.add_argument(
        "--vars",
        default="",
        help="comma-separated output variables (without $), e.g. 'y,z'",
    )
    answer.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        help="registry name of the engine (see `repro-xpath engines`); "
        f"default: {DEFAULT_ENGINE}",
    )
    answer.add_argument(
        "--labels",
        action="store_true",
        help="print node labels next to node identifiers in the answer tuples",
    )
    answer.add_argument(
        "--stats",
        action="store_true",
        help="print expression/translation statistics (human line + JSON) to stderr",
    )

    check = subparsers.add_parser(
        "check", help="report whether the expression satisfies Definition 1 (PPL)"
    )
    check.add_argument("--query", required=True, help="the Core XPath 2.0 expression")

    translate = subparsers.add_parser(
        "translate", help="print the HCL⁻(PPLbin) (and PPLbin) translations"
    )
    translate.add_argument("--query", required=True, help="the Core XPath 2.0 expression")

    bench = subparsers.add_parser(
        "bench", help="time one query across engines, emitting JSON reports"
    )
    bench.add_argument("--xml", required=True, help="path to the XML document to query")
    bench.add_argument("--query", required=True, help="the Core XPath 2.0 expression")
    bench.add_argument("--vars", default="", help="comma-separated output variables")
    bench.add_argument(
        "--engines",
        default=DEFAULT_ENGINE,
        help="comma-separated registry names to time (default: polynomial)",
    )
    bench.add_argument(
        "--repeat", type=int, default=3, help="timing rounds per engine (best is kept)"
    )
    add_kernel_option(bench)

    subparsers.add_parser("engines", help="list registered engines and capabilities")

    corpus = subparsers.add_parser(
        "corpus", help="multi-document commands (load / answer / bench)"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    # Session knobs default to None so the Session resolves them: explicit
    # flag > REPRO_* environment > built-in default.
    engine_help = f"registry engine (default: REPRO_ENGINE, else {DEFAULT_ENGINE})"
    workers_help = (
        "shard count of the processes strategy "
        "(default: REPRO_MAX_WORKERS, else automatic)"
    )

    def add_session_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--engine", default=None, help=engine_help)
        subparser.add_argument(
            "--strategy",
            default=None,
            choices=STRATEGIES,
            help="corpus execution strategy (default: REPRO_STRATEGY, else serial)",
        )
        subparser.add_argument("--workers", type=int, default=None, help=workers_help)

    def add_store_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--dir", required=True, help="directory holding the corpus XML files"
        )
        subparser.add_argument(
            "--pattern", default="*.xml", help="glob selecting corpus files (default *.xml)"
        )
        subparser.add_argument(
            "--max-resident",
            type=int,
            default=None,
            help="LRU bound on concurrently materialised documents (default unbounded)",
        )
        subparser.add_argument(
            "--snapshot-dir",
            default=None,
            help="directory of the on-disk columnar snapshot store "
            "(default: REPRO_SNAPSHOT_DIR, else no snapshots)",
        )
        subparser.add_argument(
            "--snapshot-bytes",
            type=int,
            default=None,
            help="LRU byte budget of the snapshot directory (default unbounded)",
        )

    corpus_load = corpus_sub.add_parser(
        "load", help="register a directory and print a JSON inventory"
    )
    add_store_options(corpus_load)

    corpus_answer = corpus_sub.add_parser(
        "answer", help="answer one query on every document of a corpus"
    )
    add_store_options(corpus_answer)
    corpus_answer.add_argument("--query", required=True, help="the Core XPath 2.0 expression")
    corpus_answer.add_argument("--vars", default="", help="comma-separated output variables")
    add_session_options(corpus_answer)
    corpus_answer.add_argument(
        "--docs", default="", help="comma-separated document names (default: all)"
    )
    corpus_answer.add_argument(
        "--unordered",
        action="store_true",
        help="stream results in completion order instead of store order",
    )
    corpus_answer.add_argument(
        "--json", action="store_true", help="print the aggregate CorpusReport as JSON"
    )

    corpus_bench = corpus_sub.add_parser(
        "bench", help="compare strategies on one corpus, verifying agreement"
    )
    add_store_options(corpus_bench)
    corpus_bench.add_argument("--query", required=True, help="the Core XPath 2.0 expression")
    corpus_bench.add_argument("--vars", default="", help="comma-separated output variables")
    corpus_bench.add_argument("--engine", default=None, help=engine_help)
    corpus_bench.add_argument(
        "--strategies",
        default=",".join(STRATEGIES),
        help="comma-separated strategies to time (default all)",
    )
    corpus_bench.add_argument(
        "--rounds", type=int, default=1, help="query batches per strategy (default 1)"
    )
    corpus_bench.add_argument("--workers", type=int, default=None, help=workers_help)
    corpus_bench.add_argument(
        "--out", default=None, help="write the JSON comparison to this path as well"
    )

    corpus_snapshot = corpus_sub.add_parser(
        "snapshot", help="manage the on-disk columnar snapshot store"
    )
    snapshot_sub = corpus_snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )

    snapshot_build = snapshot_sub.add_parser(
        "build", help="materialise every corpus document into the snapshot store"
    )
    add_store_options(snapshot_build)

    snapshot_stats = snapshot_sub.add_parser(
        "stats", help="print a snapshot directory's sizes and file counts"
    )
    snapshot_stats.add_argument(
        "--snapshot-dir", required=True, help="the snapshot directory to inspect"
    )

    snapshot_gc = snapshot_sub.add_parser(
        "gc", help="evict least-recently-used snapshot files down to a byte budget"
    )
    snapshot_gc.add_argument(
        "--snapshot-dir", required=True, help="the snapshot directory to collect"
    )
    snapshot_gc.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        help="target byte budget; least-recently-used files go first",
    )

    serve = subparsers.add_parser(
        "serve", help="async serving commands (run / query / stats / warm)"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = serve_sub.add_parser(
        "run", help="serve a corpus over the newline-delimited-JSON TCP protocol"
    )
    add_store_options(serve_run)
    serve_run.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_run.add_argument(
        "--port", type=int, default=8723, help="TCP port (0 = kernel-assigned)"
    )
    add_session_options(serve_run)
    serve_run.add_argument(
        "--plan-cache", default=None, help="directory of the persistent compiled-plan cache"
    )
    serve_run.add_argument(
        "--plan-cache-bytes", type=int, default=None, help="plan-cache LRU byte budget"
    )
    serve_run.add_argument(
        "--answer-cache-bytes",
        type=int,
        default=None,
        help="corpus-wide answer-memo byte budget (default 64 MiB)",
    )
    serve_run.add_argument(
        "--max-concurrent", type=int, default=4, help="documents evaluated at once"
    )
    serve_run.add_argument(
        "--max-queue", type=int, default=256, help="admission bound on pending documents"
    )
    serve_run.add_argument(
        "--auth-token",
        default=None,
        help="require this token in the 'auth' field of every NDJSON request",
    )
    serve_run.add_argument(
        "--client-quota",
        type=int,
        default=None,
        help="max concurrently streaming submissions per connection",
    )
    serve_run.add_argument(
        "--obs-port",
        type=int,
        default=None,
        help="also serve the HTTP observability endpoint "
        "(/metrics /healthz /slowlog.json /traces.ndjson) on this port "
        "(0 = kernel-assigned; default: REPRO_OBS_PORT, else off)",
    )
    add_kernel_option(serve_run)

    serve_query = serve_sub.add_parser(
        "query", help="submit one query to a running server, streaming results"
    )
    serve_query.add_argument("--host", default="127.0.0.1", help="server address")
    serve_query.add_argument("--port", type=int, required=True, help="server port")
    serve_query.add_argument("--query", required=True, help="the Core XPath 2.0 expression")
    serve_query.add_argument("--vars", default="", help="comma-separated output variables")
    serve_query.add_argument(
        "--docs", default="", help="comma-separated document names (default: all)"
    )
    serve_query.add_argument("--engine", default=None, help="registry engine override")
    serve_query.add_argument(
        "--unordered",
        action="store_true",
        help="stream results in completion order instead of store order",
    )
    serve_query.add_argument(
        "--json", action="store_true", help="print the raw NDJSON response lines"
    )
    serve_query.add_argument(
        "--auth", default=None, help="auth token expected by the server"
    )

    serve_stats = serve_sub.add_parser(
        "stats", help="print a running server's telemetry snapshot"
    )
    serve_stats.add_argument("--host", default="127.0.0.1", help="server address")
    serve_stats.add_argument("--port", type=int, required=True, help="server port")
    serve_stats.add_argument(
        "--auth", default=None, help="auth token expected by the server"
    )

    serve_cluster = serve_sub.add_parser(
        "cluster",
        help="shared-nothing serving cluster (run / status) over one public port",
    )
    serve_cluster_sub = serve_cluster.add_subparsers(
        dest="serve_cluster_command", required=True
    )

    cluster_run = serve_cluster_sub.add_parser(
        "run",
        help="supervise N member processes with cost-aware placement and "
        "concurrency autotune",
    )
    cluster_run.add_argument(
        "--dir", required=True, help="directory holding the corpus XML files"
    )
    cluster_run.add_argument(
        "--pattern", default="*.xml", help="glob selecting corpus files (default *.xml)"
    )
    cluster_run.add_argument("--host", default="127.0.0.1", help="bind address")
    cluster_run.add_argument(
        "--port", type=int, default=8723, help="shared public TCP port (0 = kernel-assigned)"
    )
    cluster_run.add_argument(
        "--members",
        type=int,
        default=None,
        help="member process count (default: ServingPolicy.cluster_members, "
        "then REPRO_CLUSTER_MEMBERS, then 2)",
    )
    cluster_run.add_argument(
        "--placement",
        default=None,
        choices=("cost", "round_robin"),
        help="shard placement strategy (default: REPRO_CLUSTER_PLACEMENT, then cost)",
    )
    autotune_group = cluster_run.add_mutually_exclusive_group()
    autotune_group.add_argument(
        "--autotune",
        action="store_true",
        default=None,
        help="force per-member concurrency autotune on",
    )
    autotune_group.add_argument(
        "--no-autotune",
        dest="autotune",
        action="store_false",
        help="force per-member concurrency autotune off "
        "(default: REPRO_CLUSTER_AUTOTUNE, then on)",
    )
    cluster_run.add_argument(
        "--move-budget",
        type=int,
        default=4,
        help="max load-smoothing document moves per placement re-plan (default 4)",
    )
    add_session_options(cluster_run)
    cluster_run.add_argument(
        "--plan-cache",
        default=None,
        help="shared persistent compiled-plan cache directory",
    )
    cluster_run.add_argument(
        "--snapshot-dir",
        default=None,
        help="shared on-disk snapshot directory for warm member starts",
    )
    cluster_run.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="initial per-member evaluation concurrency (autotune adjusts it)",
    )
    cluster_run.add_argument(
        "--max-queue", type=int, default=None, help="per-member admission bound"
    )
    cluster_run.add_argument(
        "--auth-token",
        default=None,
        help="require this token in the 'auth' field of every NDJSON request",
    )
    cluster_run.add_argument(
        "--target-p95",
        type=float,
        default=0.050,
        help="autotune's p95 queue-wait target in seconds (default 0.050)",
    )
    cluster_run.add_argument(
        "--control-interval",
        type=float,
        default=1.0,
        help="seconds between supervisor scrape/tune ticks (default 1.0)",
    )
    cluster_run.add_argument(
        "--obs-port",
        type=int,
        default=None,
        help="serve the merged HTTP observability endpoint "
        "(/metrics /healthz /cluster.json) on this port "
        "(0 = kernel-assigned; default: REPRO_OBS_PORT, else off)",
    )
    add_kernel_option(cluster_run)

    cluster_status = serve_cluster_sub.add_parser(
        "status", help="print a running cluster's /cluster.json status"
    )
    cluster_status.add_argument(
        "--host", default="127.0.0.1", help="supervisor observability address"
    )
    cluster_status.add_argument(
        "--port",
        type=int,
        required=True,
        help="supervisor observability port (serve cluster run --obs-port)",
    )

    serve_warm = serve_sub.add_parser(
        "warm", help="compile queries into a plan cache ahead of serving"
    )
    serve_warm.add_argument(
        "--plan-cache", required=True, help="directory of the plan cache to fill"
    )
    serve_warm.add_argument(
        "--query",
        action="append",
        required=True,
        help="expression to compile (repeatable)",
    )
    serve_warm.add_argument(
        "--vars",
        action="append",
        default=None,
        help="comma-separated output variables, one per --query (default: none)",
    )

    obs = subparsers.add_parser(
        "obs", help="observability commands (metrics / trace / slowlog / calibrate)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_metrics = obs_sub.add_parser(
        "metrics",
        help="scrape a running server's metrics in Prometheus text format",
    )
    obs_metrics.add_argument("--host", default="127.0.0.1", help="server address")
    obs_metrics.add_argument("--port", type=int, required=True, help="server port")
    obs_metrics.add_argument(
        "--auth", default=None, help="auth token expected by the server"
    )

    obs_trace = obs_sub.add_parser(
        "trace",
        help="answer one query with tracing enabled and print its span tree",
    )
    obs_trace.add_argument("--xml", required=True, help="path to the XML document")
    obs_trace.add_argument("--query", required=True, help="the Core XPath 2.0 expression")
    obs_trace.add_argument("--vars", default="", help="comma-separated output variables")
    obs_trace.add_argument("--engine", default=None, help="registry engine override")
    add_kernel_option(obs_trace)
    obs_trace.add_argument(
        "--ndjson",
        action="store_true",
        help="emit flat NDJSON trace events instead of the indented tree",
    )

    obs_slowlog = obs_sub.add_parser(
        "slowlog", help="print a running server's slow-query log"
    )
    obs_slowlog.add_argument("--host", default="127.0.0.1", help="server address")
    obs_slowlog.add_argument("--port", type=int, required=True, help="server port")
    obs_slowlog.add_argument(
        "--auth", default=None, help="auth token expected by the server"
    )
    obs_slowlog.add_argument(
        "--limit", type=int, default=None, help="most recent entries to print"
    )

    obs_calibrate = obs_sub.add_parser(
        "calibrate",
        help="fit the kernel cost model from traced compose spans and "
        "write a calibration profile",
    )
    obs_calibrate.add_argument(
        "--out",
        default=None,
        help="write the fitted profile JSON here (loadable via "
        "REPRO_COST_PROFILE); default: print only",
    )
    obs_calibrate.add_argument(
        "--sizes",
        default="96,192,320",
        help="comma-separated matrix sizes of the controlled workload",
    )
    obs_calibrate.add_argument(
        "--densities",
        default="2,8,32,128",
        help="comma-separated successors-per-node densities",
    )
    obs_calibrate.add_argument(
        "--repeats", type=int, default=3, help="composes per cell (default 3)"
    )
    obs_calibrate.add_argument(
        "--seed", type=int, default=0, help="seed of the random relations"
    )

    return parser


# ------------------------------------------------------------- legacy parser
def build_legacy_parser() -> argparse.ArgumentParser:
    """The seed's flat parser, kept so existing invocations stay valid."""
    parser = argparse.ArgumentParser(
        prog="repro-xpath",
        description="Answer n-ary PPL (Core XPath 2.0) queries on XML documents "
        "with the polynomial-time engine of Filiot et al., PODS 2007.",
    )
    parser.add_argument("--xml", help="path to the XML document to query")
    parser.add_argument("--query", required=True, help="the Core XPath 2.0 / PPL expression")
    parser.add_argument(
        "--vars",
        default="",
        help="comma-separated output variables (without $), e.g. 'y,z'",
    )
    parser.add_argument(
        "--engine",
        default="ppl",
        help="query engine: a registry name, or the legacy aliases ppl/naive",
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="only report whether the expression satisfies Definition 1 (PPL)",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print expression/translation statistics"
    )
    parser.add_argument(
        "--labels",
        action="store_true",
        help="print node labels next to node identifiers in the answer tuples",
    )
    return parser


def _split_vars(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _apply_kernel(name: Optional[str]) -> None:
    """Make ``--kernel`` the process-wide default kernel as well.

    The Session already pins the kernel for its own store *and* ships the
    resolved name to worker subprocesses (the precedence fix), so this is
    not what makes workers agree any more.  It is kept because a CLI
    invocation is one process serving one command: anything materialised
    outside the session's store (ad-hoc documents, legacy paths) should
    follow the flag too, and ``REPRO_KERNEL`` is exported for tools the
    command execs in turn.
    """
    if name is None:
        return
    import os

    from repro.pplbin import bitmatrix

    bitmatrix.set_default_kernel(name)
    os.environ[bitmatrix.KERNEL_ENV] = name


# ------------------------------------------------------------------ handlers
def _run_check(query_text: str) -> int:
    from repro.core.ppl import ppl_violations

    violations = ppl_violations(query_text)
    if not violations:
        print("PPL: the expression satisfies all conditions of Definition 1")
        return 0
    print("NOT PPL: the expression violates Definition 1:")
    for violation in violations:
        print(f"  - {violation.condition}: {violation.message}")
    return 1


def _run_answer(
    xml: str,
    query_text: str,
    variables: Sequence[str],
    engine: str,
    labels: bool,
    stats: bool,
) -> int:
    with Session() as session:
        name = session.add_file(xml)
        document = session.document(name)
        answers = session.query(name, query_text, variables, engine=engine)
        if stats:
            report = session.report(
                name, query_text, variables, engine=engine, answers=answers
            )
            print(
                f"# |P|={report.expression_size} |C|={report.hcl_size} "
                f"leaves={report.distinct_leaves} |t|={document.size} "
                f"n={len(variables)} |A|={report.answer_count}",
                file=sys.stderr,
            )
            print(report.to_json(), file=sys.stderr)

        header = "\t".join(f"${name}" for name in variables) if variables else "(boolean)"
        print(header)
        if not variables:
            print("non-empty" if answers else "empty")
            return 0
        for answer_tuple in sorted(answers):
            if labels:
                rendered = [f"{node}:{document.labels[node]}" for node in answer_tuple]
            else:
                rendered = [str(node) for node in answer_tuple]
            print("\t".join(rendered))
    return 0


def _run_translate(query_text: str) -> int:
    from repro.api import compile_query

    query = compile_query(query_text, require_ppl=False)
    if not query.is_ppl:
        print("NOT PPL: no HCL⁻ translation exists; violations:")
        for violation in query.violations:
            print(f"  - {violation.condition}: {violation.message}")
        return 1
    print("expression:", query.source.unparse())
    print("hcl:", query.hcl.unparse())
    if query.pplbin is not None:
        print("pplbin:", query.pplbin.unparse())
    return 0


def _run_bench(
    xml: str,
    query_text: str,
    variables: Sequence[str],
    engine_names: Sequence[str],
    repeat: int,
    kernel: Optional[str] = None,
) -> int:
    # The explicit --kernel pins the session's kernel (beating REPRO_KERNEL,
    # per the documented precedence); timing calls the backend directly so
    # the answer memo cannot turn rounds 2..n into cache hits.
    _apply_kernel(kernel)
    with Session(kernel=kernel, cache_answers=False) as session:
        doc_name = session.add_file(xml)
        document = session.document(doc_name)
        results = []
        for name in engine_names:
            entry: dict = {"engine": name}
            try:
                backend = get_engine(name)
                compiled = session.compile(query_text, variables)
                check_capabilities(backend, compiled)
                best = None
                for _ in range(max(1, repeat)):
                    started = time.perf_counter()
                    answers = backend.answer(document, compiled)
                    elapsed = time.perf_counter() - started
                    best = elapsed if best is None else min(best, elapsed)
                report = session.report(
                    doc_name, query_text, variables, engine=name, answers=answers
                )
                entry.update(report.to_dict())
                entry["seconds"] = best
            except ReproError as error:
                entry["error"] = str(error)
            results.append(entry)
    print(json.dumps(results, indent=2))
    return 0 if all("error" not in entry for entry in results) else 1


def _corpus_session(args, **session_kwargs) -> Session:
    """Build a Session over the corpus directory named on the command line."""
    snapshot_bytes = getattr(args, "snapshot_bytes", None)
    if snapshot_bytes is not None:
        session_kwargs.setdefault("snapshot_bytes", snapshot_bytes)
    session = Session(
        max_resident=args.max_resident,
        strategy=getattr(args, "strategy", None),
        max_workers=getattr(args, "workers", None),
        engine=getattr(args, "engine", None),
        snapshot_dir=getattr(args, "snapshot_dir", None),
        **session_kwargs,
    )
    try:
        session.add_directory(args.dir, args.pattern)
    except ReproError:
        session.close()
        raise
    if not len(session.store):
        session.close()
        raise ReproError(f"no files matching {args.pattern!r} under {args.dir!r}")
    return session


def _run_corpus_load(args) -> int:
    with _corpus_session(args) as session:
        store = session.store
        documents = []
        for name in store.names():
            document = session.document(name)
            documents.append({"name": name, "nodes": document.size})
        stats = store.stats
        print(
            json.dumps(
                {
                    "directory": args.dir,
                    "documents": documents,
                    "count": len(documents),
                    "total_nodes": sum(entry["nodes"] for entry in documents),
                    "max_resident": store.max_resident,
                    "stats": {
                        "loads": stats.loads,
                        "hits": stats.hits,
                        "evictions": stats.evictions,
                    },
                },
                indent=2,
            )
        )
    return 0


def _run_corpus_answer(args) -> int:
    names = _split_vars(args.docs) or None
    variables = _split_vars(args.vars)
    with _corpus_session(args) as session:
        if args.json:
            report = session.corpus_report(
                (args.query, variables), names, ordered=not args.unordered
            )
            print(report.to_json(indent=2))
            return 0
        collected = []
        for result in session.query_corpus(
            (args.query, variables), names, ordered=not args.unordered
        ):
            print(f"{result.doc_name}\t{result.report.answer_count}")
            collected.append(result)
    total = sum(result.report.answer_count for result in collected)
    print(f"# documents={len(collected)} total_answers={total}", file=sys.stderr)
    return 0


def _run_corpus_snapshot_build(args) -> int:
    """Materialise every corpus document once, writing its snapshot."""
    # The session's own resolver (flag > REPRO_SNAPSHOT_DIR), checked before
    # the session reads the corpus directory.
    snapshot_dir = ExecutionPolicy().resolved("snapshot_dir", args.snapshot_dir)
    if snapshot_dir is None:
        print("error: corpus snapshot build requires --snapshot-dir", file=sys.stderr)
        return 1
    with _corpus_session(args) as session:
        documents = []
        for name in session.store.names():
            document = session.document(name)
            documents.append({"name": name, "nodes": document.size})
        payload = {
            "directory": args.dir,
            "snapshot_dir": snapshot_dir,
            "documents": len(documents),
            "total_nodes": sum(entry["nodes"] for entry in documents),
            "snapshot": session.store.snapshot_stats(),
        }
    print(json.dumps(payload, indent=2))
    return 0


def _run_corpus_snapshot_stats(args) -> int:
    from repro.snapshot import SnapshotStore

    store = SnapshotStore(args.snapshot_dir)
    print(
        json.dumps(
            {
                "snapshot_dir": args.snapshot_dir,
                "total_bytes": store.total_bytes(),
                "files": store.file_counts(),
            },
            indent=2,
        )
    )
    return 0


def _run_corpus_snapshot_gc(args) -> int:
    from repro.snapshot import SnapshotStore

    store = SnapshotStore(args.snapshot_dir)
    before = store.total_bytes()
    removed = store.gc(args.max_bytes)
    print(
        json.dumps(
            {
                "snapshot_dir": args.snapshot_dir,
                "max_bytes": args.max_bytes,
                "removed_files": removed,
                "bytes_before": before,
                "bytes_after": store.total_bytes(),
                "files": store.file_counts(),
            },
            indent=2,
        )
    )
    return 0


def _run_corpus_bench(args) -> int:
    variables = _split_vars(args.vars)
    strategies = _split_vars(args.strategies)
    rounds = max(1, args.rounds)
    runs = []
    answer_maps = []
    for strategy in strategies:
        # A fresh session (and store) per strategy: every strategy starts
        # cold and pays its own parse/oracle work, so the wall-clocks are
        # comparable.
        answers: dict[str, frozenset] = {}
        started = time.perf_counter()
        with _corpus_session(
            args, execution=ExecutionPolicy(strategy=strategy)
        ) as session:
            round_seconds = []
            for _ in range(rounds):
                round_started = time.perf_counter()
                for result in session.query_corpus((args.query, variables)):
                    answers[result.doc_name] = result.answers
                round_seconds.append(time.perf_counter() - round_started)
            # The process strategy loads documents inside the shard workers;
            # fold their counters in so the strategies stay comparable.
            worker_stats = session.worker_stats()
            stats = session.store.stats
            engine = session.execution.resolved("engine")
        wall = time.perf_counter() - started
        runs.append(
            {
                "strategy": strategy,
                "wall_seconds": wall,
                "round_seconds": round_seconds,
                "loads": stats.loads + worker_stats.loads,
                "evictions": stats.evictions + worker_stats.evictions,
            }
        )
        answer_maps.append(answers)
    agreement = all(candidate == answer_maps[0] for candidate in answer_maps[1:])
    serial_wall = next(
        (run["wall_seconds"] for run in runs if run["strategy"] == "serial"), None
    )
    payload = {
        "directory": args.dir,
        "query": args.query,
        "variables": variables,
        "engine": engine,
        "rounds": rounds,
        "strategies": runs,
        "agreement": agreement,
        "speedups_vs_serial": {
            run["strategy"]: serial_wall / run["wall_seconds"]
            for run in runs
            if serial_wall is not None and run["wall_seconds"] > 0
        },
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0 if agreement else 1


def _run_serve_run(args) -> int:
    import asyncio

    serving = ServingPolicy().override(
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        auth_token=args.auth_token,
        max_submissions_per_client=args.client_quota,
        obs_port=args.obs_port,
    )
    _apply_kernel(args.kernel)
    session_kwargs: dict = {
        "kernel": args.kernel,
        "plan_cache": args.plan_cache if args.plan_cache else None,
        "serving": serving,
    }
    if args.answer_cache_bytes is not None:
        session_kwargs["answer_cache_bytes"] = args.answer_cache_bytes
    if args.plan_cache_bytes is not None:
        session_kwargs["plan_cache_bytes"] = args.plan_cache_bytes
    session = _corpus_session(args, **session_kwargs)

    async def main() -> int:
        import signal

        async with session:
            tcp = await session.protocol().serve_tcp(args.host, args.port)
            port = tcp.sockets[0].getsockname()[1]
            from repro.pplbin.bitmatrix import get_default_kernel

            # Graceful drain on SIGTERM/SIGINT: stop accepting connections,
            # let in-flight submissions finish (session.aclose drains the
            # server), and log the drain outcome.  Installed before the
            # "serving ..." banner so a supervisor reacting to the banner
            # cannot outrace the handlers.  Platforms without
            # add_signal_handler (Windows loops) keep the KeyboardInterrupt
            # fallback below.
            stop = asyncio.Event()
            received: list[str] = []
            loop = asyncio.get_running_loop()

            def _request_stop(name: str) -> None:
                received.append(name)
                stop.set()

            installed: list[int] = []
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum, _request_stop, signal.Signals(signum).name
                    )
                    installed.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            kernel_name = session.execution.resolved("kernel")
            if kernel_name is None:
                kernel_name = get_default_kernel().name
            elif not isinstance(kernel_name, str):
                kernel_name = kernel_name.name
            print(
                f"serving {len(session.store)} documents on {args.host}:{port} "
                f"(strategy={session.execution.resolved('strategy')}, "
                f"engine={session.execution.resolved('engine')}, "
                f"kernel={kernel_name})",
                file=sys.stderr,
                flush=True,
            )
            obs_http = getattr(session.server(), "obs_http", None)
            if obs_http is not None:
                print(
                    f"observability endpoint on http://{obs_http.host}:{obs_http.port} "
                    "(/metrics /healthz /slowlog.json /traces.ndjson)",
                    file=sys.stderr,
                    flush=True,
                )
            try:
                async with tcp:
                    if installed:
                        # serve_tcp is already accepting; wait for a signal.
                        await stop.wait()
                    else:
                        await tcp.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                for signum in installed:
                    try:
                        loop.remove_signal_handler(signum)
                    except (NotImplementedError, RuntimeError, ValueError):
                        pass
            if received:
                server = session.server()
                in_flight = server.stats.in_flight + server.stats.queued
                drain_started = time.perf_counter()
                await session.aclose()
                drained_stats = server.stats
                print(
                    f"received {received[0]}: drained {in_flight} in-flight "
                    f"document(s) in {time.perf_counter() - drain_started:.3f}s "
                    f"({drained_stats.completed} completed, "
                    f"{drained_stats.failed} failed); shutting down",
                    file=sys.stderr,
                    flush=True,
                )
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        session.close()
        return 0


def _run_serve_cluster_run(args) -> int:
    import signal

    from repro.cluster import ClusterSupervisor

    serving = ServingPolicy().override(
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        auth_token=args.auth_token,
    )
    _apply_kernel(args.kernel)
    supervisor = ClusterSupervisor(
        args.dir,
        pattern=args.pattern,
        host=args.host,
        port=args.port,
        members=args.members,
        placement=args.placement,
        autotune=args.autotune,
        move_budget=args.move_budget,
        serving=serving,
        engine=args.engine,
        strategy=args.strategy,
        max_workers=args.workers,
        kernel=args.kernel,
        plan_cache_dir=args.plan_cache,
        snapshot_dir=args.snapshot_dir,
        obs_port=args.obs_port,
        control_interval=args.control_interval,
        target_p95=args.target_p95,
    )
    previous = {
        signum: signal.signal(signum, lambda *_: supervisor.request_stop())
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        supervisor.start()
        status = supervisor.status()
        print(
            f"cluster of {supervisor.member_count} member(s) serving "
            f"{status['documents']} documents on "
            f"{supervisor.host}:{supervisor.port} "
            f"(placement={supervisor.placement_strategy}, "
            f"autotune={'on' if supervisor.autotune_enabled else 'off'}, "
            f"reuseport={'yes' if supervisor.reuseport_active else 'shared-listener'})",
            file=sys.stderr,
            flush=True,
        )
        if supervisor.obs_http is not None:
            print(
                f"observability endpoint on "
                f"http://{supervisor.obs_http.host}:{supervisor.obs_http.port} "
                "(/metrics /healthz /cluster.json)",
                file=sys.stderr,
                flush=True,
            )
        supervisor.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("shutting down cluster", file=sys.stderr, flush=True)
        supervisor.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _run_serve_cluster_status(args) -> int:
    import urllib.request

    url = f"http://{args.host}:{args.port}/cluster.json"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            payload = json.load(response)
    except OSError as error:
        print(f"cannot reach {url}: {error}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(payload, indent=2))
    except BrokenPipeError:
        pass  # piped into head & co: the truncated view is the point
    return 0


def _run_serve_query(args) -> int:
    import asyncio

    from repro.serve import request_lines

    variables = _split_vars(args.vars)
    request = {
        "op": "submit",
        "id": 1,
        "query": args.query,
        "vars": variables,
        "ordered": not args.unordered,
    }
    docs = _split_vars(args.docs)
    if docs:
        request["docs"] = docs
    if args.engine:
        request["engine"] = args.engine
    if args.auth:
        request["auth"] = args.auth

    async def main() -> int:
        total = 0
        async for line in request_lines(args.host, args.port, request):
            if args.json:
                print(json.dumps(line))
            if line["type"] == "error":
                if not args.json:
                    print(f"error: {line['error']}", file=sys.stderr)
                return 1
            if line["type"] == "result":
                if not args.json:
                    print(f"{line['doc']}\t{line['count']}")
                total += line["count"]
            elif line["type"] == "done":
                if not args.json:
                    print(
                        f"# documents={line['results']} total_answers={total}",
                        file=sys.stderr,
                    )
                return 0
        print("error: connection closed before the stream finished", file=sys.stderr)
        return 1

    return asyncio.run(main())


def _run_serve_stats(args) -> int:
    import asyncio

    from repro.serve import request_lines

    request = {"op": "stats", "id": 1}
    if args.auth:
        request["auth"] = args.auth

    async def main() -> int:
        async for line in request_lines(args.host, args.port, request):
            if line.get("type") == "stats":
                print(json.dumps(line["stats"], indent=2))
                return 0
            if line.get("type") == "error":
                print(f"error: {line['error']}", file=sys.stderr)
                return 1
        print("error: no stats response", file=sys.stderr)
        return 1

    return asyncio.run(main())


def _run_serve_warm(args) -> int:
    # Plans are stored under the shared engine-independent label — compiled
    # Query values carry every translation, and it is the label the server
    # looks plans up with, so one warmed entry serves every --engine.
    from repro.api import compile_query
    from repro.serve import ANY_ENGINE, PlanCache

    cache = PlanCache(args.plan_cache)
    variable_lists = args.vars if args.vars is not None else []
    if len(variable_lists) not in (0, len(args.query)):
        raise ReproError("--vars must be given once per --query (or not at all)")
    entries = []
    for index, text in enumerate(args.query):
        variables = _split_vars(variable_lists[index]) if variable_lists else []
        already = cache.load(text, variables) is not None
        if not already:
            cache.store(compile_query(text, tuple(variables), require_ppl=False),
                        expression=text)
        entries.append(
            {
                "query": text,
                "variables": variables,
                "key": cache.key(text, variables),
                "cached": already,
            }
        )
    print(
        json.dumps(
            {
                "plan_cache": args.plan_cache,
                "engine": ANY_ENGINE,
                "plans": entries,
                "total_bytes": cache.total_bytes(),
            },
            indent=2,
        )
    )
    return 0


def _run_obs_metrics(args) -> int:
    import asyncio

    from repro.serve import request_lines

    request = {"op": "metrics", "id": 1}
    if args.auth:
        request["auth"] = args.auth

    async def main() -> int:
        async for line in request_lines(args.host, args.port, request):
            if line.get("type") == "metrics":
                sys.stdout.write(line["body"])
                return 0
            if line.get("type") == "error":
                print(f"error: {line['error']}", file=sys.stderr)
                return 1
        print("error: no metrics response", file=sys.stderr)
        return 1

    return asyncio.run(main())


def _run_obs_slowlog(args) -> int:
    import asyncio

    from repro.serve import request_lines

    request = {"op": "slowlog", "id": 1}
    if args.limit is not None:
        request["limit"] = args.limit
    if args.auth:
        request["auth"] = args.auth

    async def main() -> int:
        async for line in request_lines(args.host, args.port, request):
            if line.get("type") == "slowlog":
                print(
                    json.dumps(
                        {"threshold": line.get("threshold"),
                         "entries": line.get("entries", [])},
                        indent=2,
                    )
                )
                return 0
            if line.get("type") == "error":
                print(f"error: {line['error']}", file=sys.stderr)
                return 1
        print("error: no slowlog response", file=sys.stderr)
        return 1

    return asyncio.run(main())


def _run_obs_trace(args) -> int:
    from repro.obs import trace as obs_trace
    from repro.session import Session

    previous = obs_trace.set_tracing(True)
    try:
        with Session(engine=args.engine, kernel=args.kernel) as session:
            name = session.add_file(args.xml)
            report = session.report(name, args.query, _split_vars(args.vars))
        tree = report.trace
        if tree is None:
            print("error: the query produced no trace", file=sys.stderr)
            return 1
        if args.ndjson:
            sys.stdout.write(obs_trace.render_events([tree]))
        else:
            print(obs_trace.format_tree(tree))
        print(f"# answers={report.answer_count}", file=sys.stderr)
        return 0
    finally:
        obs_trace.set_tracing(previous)


def _run_obs_calibrate(args) -> int:
    from repro.obs import calibrate as obs_calibrate

    sizes = [int(text) for text in _split_vars(args.sizes)]
    densities = [float(text) for text in _split_vars(args.densities)]
    profile = obs_calibrate.calibrate(
        sizes=sizes,
        per_node_densities=densities,
        repeats=args.repeats,
        seed=args.seed,
    )
    if args.out:
        obs_calibrate.save_profile(args.out, profile)
        profile["path"] = args.out
    print(json.dumps(profile, indent=2, sort_keys=True))
    if not profile["constants"]:
        print(
            "error: no representation collected enough points to fit",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_engines() -> int:
    from dataclasses import asdict

    from repro.pplbin.bitmatrix import get_default_kernel, kernel_descriptions

    print("engines:")
    for name in available_engines():
        backend = get_engine(name)
        flags = ", ".join(
            f"{key}={value}" for key, value in asdict(backend.capabilities).items()
        )
        print(f"{name}: {flags}")
    # The kernels come from the same registry the Session resolves
    # `ExecutionPolicy.kernel` against (repro.pplbin.bitmatrix.KERNELS), so
    # this listing cannot drift from what --kernel / REPRO_KERNEL accept.
    default_kernel = get_default_kernel().name
    print("\nkernels (matrix backend of the Theorem 2 evaluator):")
    for name, description in kernel_descriptions().items():
        marker = " [default]" if name == default_kernel else ""
        print(f"{name}{marker}:")
        print(f"  storage:  {description['storage']}")
        print(f"  compose:  {description['compose']}")
        print(f"  best for: {description['best_for']}")
    return 0


# ---------------------------------------------------------------- entry point
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    # The subcommand interface is the primary one: bare invocations and
    # top-level --help must surface it.  Only invocations that *start* with a
    # legacy flag (and are not help requests) take the compatibility path.
    if not arguments or arguments[0] in SUBCOMMANDS or arguments[0] in ("-h", "--help"):
        return _main_subcommands(arguments)
    return _main_legacy(arguments)


def _main_subcommands(arguments: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(arguments)
    try:
        if args.command == "check":
            return _run_check(args.query)
        if args.command == "translate":
            return _run_translate(args.query)
        if args.command == "engines":
            return _run_engines()
        if args.command == "corpus":
            if args.corpus_command == "load":
                return _run_corpus_load(args)
            if args.corpus_command == "bench":
                return _run_corpus_bench(args)
            if args.corpus_command == "snapshot":
                if args.snapshot_command == "build":
                    return _run_corpus_snapshot_build(args)
                if args.snapshot_command == "stats":
                    return _run_corpus_snapshot_stats(args)
                return _run_corpus_snapshot_gc(args)
            return _run_corpus_answer(args)
        if args.command == "serve":
            if args.serve_command == "run":
                return _run_serve_run(args)
            if args.serve_command == "query":
                return _run_serve_query(args)
            if args.serve_command == "stats":
                return _run_serve_stats(args)
            if args.serve_command == "cluster":
                if args.serve_cluster_command == "run":
                    return _run_serve_cluster_run(args)
                return _run_serve_cluster_status(args)
            return _run_serve_warm(args)
        if args.command == "obs":
            if args.obs_command == "metrics":
                return _run_obs_metrics(args)
            if args.obs_command == "slowlog":
                return _run_obs_slowlog(args)
            if args.obs_command == "calibrate":
                return _run_obs_calibrate(args)
            return _run_obs_trace(args)
        if args.command == "bench":
            return _run_bench(
                args.xml,
                args.query,
                _split_vars(args.vars),
                _split_vars(args.engines),
                args.repeat,
                kernel=args.kernel,
            )
        return _run_answer(
            args.xml,
            args.query,
            _split_vars(args.vars),
            args.engine,
            args.labels,
            args.stats,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _main_legacy(arguments: list[str]) -> int:
    parser = build_legacy_parser()
    args = parser.parse_args(arguments)

    if args.check_only:
        return _run_check(args.query)

    if not args.xml:
        parser.error("--xml is required unless --check-only is given")

    try:
        return _run_answer(
            args.xml,
            args.query,
            _split_vars(args.vars),
            args.engine,  # "ppl" resolves through the registry alias
            args.labels,
            args.stats,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
