"""The repository benchmark: one workload, one seed, one timed run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload nary-answer --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``nary-answer``  closed loop, ``Session.query``, fresh n-ary query texts;
* ``corpus-churn`` closed loop, 80% reads / 20% document replacements,
  64 documents under ``max_resident=16``;
* ``serve-open``   open loop against a ``serve run`` subprocess at a fixed
  offered rate (the traced run then climbs a rate ladder);
* ``corpus-scan``  closed loop of ``Session.query_corpus`` passes with the
  processes strategy and two workers.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` times calls into
each layer's public functions from this directory's wrappers and reports the
per-layer metrics.  Every answer is checked against a reference computed by
``docs.py``; a mismatch, failure or refusal counts in ``failed``.

Set-up times, op latencies and the closed loops' ops per second are
rescaled to a reference host speed measured by an interleaved CPU probe
(``measure.SpeedProbe``): on a shared 2-core VM the CPU speed drifts by up
to 1.7x within a minute, which would otherwise swamp every bound.  serve-open's ops
per second is the completed share of a wall-clock schedule and is not
rescaled.  The record line carries the run's ``host_speed`` factor.

Latency is gated at p95, the highest percentile with at least ten samples
beyond it on every workload (nary-answer completes ~330 ops in a run);
p99 is printed by every run and reported as a per-layer figure.

Output: one ``name value unit`` line per metric, a ``# record`` line with
the host block, seed and every figure, and, as the last line, the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  Without the
program's sources next to this directory the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nary-answer", "corpus-churn", "serve-open", "corpus-scan")


def _prepare() -> None:
    """Make the program importable from this checkout, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # Configuration comes from the benchmark alone, never the caller's shell.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])


def end_to_end(outcome) -> dict:
    """The bounded end-to-end metrics, reported by every workload."""
    import statistics

    from measure import percentile

    reads = outcome.read_seconds
    return {
        "setup_s": statistics.median(outcome.setup_seconds),
        "ops_per_s": outcome.completed / outcome.measured_seconds,
        "latency_p50_ms": percentile(reads, 0.50) * 1e3,
        "latency_p95_ms": percentile(reads, 0.95) * 1e3,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def extra(outcome) -> dict:
    """Workload-specific end-to-end figures: only those the workload measured.

    A bounded end-to-end metric must be measurable, and non-zero, on every
    workload, so these are declared as per-layer metrics instead (0 in a
    traced run of a workload without such ops); every run prints them.
    """
    from measure import percentile

    figures = {
        "error_rate": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "latency_p99_ms": percentile(outcome.read_seconds, 0.99) * 1e3,
    }
    if outcome.write_seconds:
        figures["write_p50_ms"] = percentile(outcome.write_seconds, 0.50) * 1e3
        figures["write_p99_ms"] = percentile(outcome.write_seconds, 0.99) * 1e3
    figures.update(outcome.extra)
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare()

    from measure import host_block

    if args.workload == "serve-open":
        from serve_open import serve_open as runner
    else:
        import closed

        runner = {
            "nary-answer": closed.nary_answer,
            "corpus-churn": closed.corpus_churn,
            "corpus-scan": closed.corpus_scan,
        }[args.workload]
    outcome = runner(args.seed, args.seconds, bool(args.trace))

    # Metric names and units come from BENCHMARK.json alone.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    figures = extra(outcome)
    if args.trace:
        units = layer_units
        measured = {**outcome.layers, **figures}
        undeclared = sorted(set(measured) - set(units))
        if undeclared:
            raise SystemExit(f"perfbench: undeclared per-layer metrics {undeclared}")
        # A layer the workload never calls reads 0 (its predicted no-change).
        values = {name: measured.get(name, 0.0) for name in units}
    else:
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        values = end_to_end(outcome)
    for name in units:
        print(f"{name} {values[name]:.6g} {units[name]}")
    for name, value in figures.items():
        if name not in units:
            print(f"{name} {value:.6g} {layer_units[name]}")
    # Any failed, refused, late or wrong op makes the run incorrect, so a
    # change that drops work cannot read as a speed-up.
    correct = outcome.valid and outcome.failed == 0 and outcome.attempted > 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_block(ROOT),
        "valid": outcome.valid,
        "host_speed": outcome.host_speed,
        "notes": outcome.notes,
        "samples": {
            "setups": len(outcome.setup_seconds),
            "reads": len(outcome.read_seconds),
            "writes": len(outcome.write_seconds),
        },
        "metrics": {**values, **figures},
    }
    print("# record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
