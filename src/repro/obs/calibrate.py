"""Span-driven calibration of the kernel cost model.

The adaptive kernel in :mod:`repro.pplbin.bitmatrix` picks a composition
algorithm from hand-calibrated nanosecond constants.  This module closes
the loop: every ``kernel.compose`` span the tracer records carries the
chosen representation, the matrix size and the operand populations, so
observed durations can be regressed against the cost model's own
predictors and the constants re-fitted for the machine actually running
the workload.

Pipeline:

1. :func:`samples_from_traces` extracts ``kernel.compose`` samples from
   recorded span trees (the trace ring, ``QueryReport.trace``, or a
   controlled run);
2. samples are grouped by ``(representation, n, density bucket)`` and
   reduced to per-group medians (:func:`group_samples`) so one noisy
   outlier cannot steer the fit;
3. :func:`fit_constants` least-squares fits each representation's
   constants against the group medians — ``dense`` fits
   ``BLAS_NS_PER_CELL`` on ``n^3``, ``bitset`` fits ``ROW_OVERHEAD_NS`` +
   ``WORD_NS`` on ``(n, left_nnz * words(n))``, ``sparse`` fits
   ``SPARSE_ELEMENT_NS`` on the touched-entry count;
4. :func:`calibrate` runs a controlled compose workload under tracing and
   returns a JSON-serialisable profile; :func:`save_profile` persists it.

``repro.pplbin.bitmatrix`` loads a persisted profile via
``REPRO_COST_PROFILE`` (or :func:`repro.pplbin.bitmatrix.load_cost_profile`),
after which ``estimate_compose_ns``/``choose_compose`` use the fitted
constants.  The ``repro-xpath obs calibrate`` CLI wraps steps 1–4.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.diskstore import write_atomic
from repro.obs import trace as _trace

__all__ = [
    "COMPOSE_SPAN",
    "PROFILE_FORMAT",
    "samples_from_traces",
    "density_bucket",
    "group_samples",
    "fit_constants",
    "calibrate",
    "build_profile",
    "save_profile",
    "load_profile",
]

#: Span name the evaluator and the calibration harness both emit.
COMPOSE_SPAN = "kernel.compose"

#: Version stamp of the persisted profile JSON.
PROFILE_FORMAT = 1

#: Which cost-model constants each representation's fit produces.
_FITTED_CONSTANTS = {
    "dense": ("BLAS_NS_PER_CELL",),
    "bitset": ("ROW_OVERHEAD_NS", "WORD_NS"),
    "sparse": ("SPARSE_ELEMENT_NS",),
}

#: Minimum group-median points before a representation's fit is trusted.
_MIN_POINTS = 3


# ------------------------------------------------------------- extraction
def samples_from_traces(trees: Iterable[dict]) -> List[dict]:
    """Extract ``kernel.compose`` samples from span trees.

    A usable span carries ``representation``, ``n`` and ``left_nnz`` attrs
    (the evaluator sets them whenever tracing or sampling is active);
    spans predating the attribute enrichment are skipped, not errors.
    """
    samples: List[dict] = []
    pending = list(trees)
    while pending:
        node = pending.pop()
        if node is None:
            continue
        attrs = node.get("attrs", {})
        if (
            node.get("name") == COMPOSE_SPAN
            and "representation" in attrs
            and "n" in attrs
            and "left_nnz" in attrs
        ):
            samples.append(
                {
                    "representation": attrs["representation"],
                    "n": int(attrs["n"]),
                    "left_nnz": int(attrs["left_nnz"]),
                    "right_nnz": int(attrs.get("right_nnz", attrs["left_nnz"])),
                    "seconds": float(node["seconds"]),
                }
            )
        pending.extend(node.get("children", ()))
    return samples


def density_bucket(n: int, nnz: int) -> int:
    """Log2 bucket of successors-per-node — the density key of a sample."""
    if n <= 0:
        return 0
    per_node = max(nnz / n, 2.0 ** -10)
    return int(round(math.log2(per_node)))


def group_samples(samples: Sequence[dict]) -> List[dict]:
    """Median-reduce samples keyed by ``(representation, n, density bucket)``."""
    groups: Dict[Tuple[str, int, int], List[dict]] = {}
    for sample in samples:
        key = (
            sample["representation"],
            sample["n"],
            density_bucket(sample["n"], sample["left_nnz"]),
        )
        groups.setdefault(key, []).append(sample)
    reduced = []
    for (representation, n, bucket), members in sorted(groups.items()):
        reduced.append(
            {
                "representation": representation,
                "n": n,
                "density_bucket": bucket,
                "samples": len(members),
                "median_seconds": statistics.median(m["seconds"] for m in members),
                "left_nnz": int(statistics.median(m["left_nnz"] for m in members)),
                "right_nnz": int(statistics.median(m["right_nnz"] for m in members)),
            }
        )
    return reduced


# ---------------------------------------------------------------- fitting
def _words(n: int) -> int:
    return (n + 63) // 64


def _fit_origin(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """One-parameter least squares through the origin: y ≈ c·x."""
    sxx = sum(x * x for x in xs)
    if sxx <= 0.0:
        return None
    c = sum(x * y for x, y in zip(xs, ys)) / sxx
    return c if c > 0.0 else None


def _fit_two(
    x1s: Sequence[float], x2s: Sequence[float], ys: Sequence[float]
) -> Optional[Tuple[float, float]]:
    """Two-parameter least squares through the origin: y ≈ a·x1 + b·x2."""
    s11 = sum(x * x for x in x1s)
    s22 = sum(x * x for x in x2s)
    s12 = sum(x1 * x2 for x1, x2 in zip(x1s, x2s))
    s1y = sum(x * y for x, y in zip(x1s, ys))
    s2y = sum(x * y for x, y in zip(x2s, ys))
    det = s11 * s22 - s12 * s12
    if abs(det) < 1e-12 * max(s11 * s22, 1.0):
        return None
    a = (s1y * s22 - s2y * s12) / det
    b = (s11 * s2y - s12 * s1y) / det
    if a <= 0.0 or b <= 0.0:
        return None
    return a, b


def fit_constants(groups: Sequence[dict]) -> Dict[str, float]:
    """Fit per-representation ns constants from group medians.

    Returns only the constants a fit produced — representations with too
    few points (or a degenerate/negative fit) keep their built-in values.
    """
    constants: Dict[str, float] = {}
    by_rep: Dict[str, List[dict]] = {}
    for group in groups:
        by_rep.setdefault(group["representation"], []).append(group)

    dense = by_rep.get("dense", [])
    if len(dense) >= _MIN_POINTS:
        xs = [float(g["n"]) ** 3 for g in dense]
        ys = [g["median_seconds"] * 1e9 for g in dense]
        c = _fit_origin(xs, ys)
        if c is not None:
            constants["BLAS_NS_PER_CELL"] = c

    bitset = by_rep.get("bitset", [])
    if len(bitset) >= _MIN_POINTS:
        x1s = [float(g["n"]) for g in bitset]
        x2s = [float(g["left_nnz"] * _words(g["n"])) for g in bitset]
        ys = [g["median_seconds"] * 1e9 for g in bitset]
        fit = _fit_two(x1s, x2s, ys)
        if fit is not None:
            constants["ROW_OVERHEAD_NS"], constants["WORD_NS"] = fit
        else:
            # Collinear densities: fall back to fitting the word term alone.
            c = _fit_origin(x2s, ys)
            if c is not None:
                constants["WORD_NS"] = c

    sparse = by_rep.get("sparse", [])
    if len(sparse) >= _MIN_POINTS:
        xs = [
            g["left_nnz"] + (g["left_nnz"] * g["right_nnz"] / g["n"] if g["n"] else 0.0)
            for g in sparse
        ]
        ys = [g["median_seconds"] * 1e9 for g in sparse]
        c = _fit_origin(xs, ys)
        if c is not None:
            constants["SPARSE_ELEMENT_NS"] = c

    return constants


# ------------------------------------------------------------ controlled run
def _random_relation(size: int, per_node: float, seed: int):
    import numpy as np

    from repro.pplbin.bitmatrix import relation_from_matrix

    rng = np.random.default_rng(seed)
    density = min(max(per_node / size, 0.0), 1.0)
    matrix = rng.random((size, size)) < density
    return relation_from_matrix(matrix)


def record_compose(kernel, representation: str, left, right) -> None:
    """Run one compose under a fully-attributed ``kernel.compose`` span."""
    with _trace.span(
        COMPOSE_SPAN,
        kernel=kernel.name,
        representation=representation,
        n=left.size,
        left_nnz=left.nnz(),
        right_nnz=right.nnz(),
    ):
        kernel.compose(left, right)


def calibrate(
    sizes: Sequence[int] = (96, 192, 320),
    per_node_densities: Sequence[float] = (2.0, 8.0, 32.0, 128.0),
    repeats: int = 3,
    seed: int = 0,
    representations: Sequence[str] = ("dense", "bitset", "sparse"),
) -> dict:
    """Run a controlled compose workload and fit a calibration profile.

    Each (representation, size, density) cell composes freshly generated
    random relations ``repeats`` times with tracing temporarily enabled;
    samples are read back out of the recorded span trees — the same
    extraction path production traces go through — then grouped and
    fitted.  Returns the profile dict (see :func:`build_profile`).
    """
    from repro.pplbin.bitmatrix import get_kernel

    samples: List[dict] = []
    previous = _trace.set_tracing(True)
    try:
        _trace.take_last_trace()
        for size in sizes:
            for per_node in per_node_densities:
                if per_node > size:
                    continue
                left = _random_relation(size, per_node, seed=seed + size)
                right = _random_relation(size, per_node, seed=seed + size + 1)
                for representation in representations:
                    kernel = get_kernel(representation)
                    left_rep = kernel.coerce(left)
                    right_rep = kernel.coerce(right)
                    # Warm one compose so numpy's first-call setup is not fitted.
                    kernel.compose(left_rep, right_rep)
                    for _ in range(max(1, repeats)):
                        record_compose(kernel, representation, left_rep, right_rep)
                        tree = _trace.take_last_trace()
                        if tree is not None:
                            samples.extend(samples_from_traces([tree]))
    finally:
        _trace.set_tracing(previous)
    return build_profile(samples)


# ---------------------------------------------------------------- profiles
def build_profile(samples: Sequence[dict]) -> dict:
    """Group, fit, and wrap samples into the persisted profile shape."""
    groups = group_samples(samples)
    constants = fit_constants(groups)
    return {
        "format": PROFILE_FORMAT,
        "fitted_at": time.time(),
        "samples": len(samples),
        "groups": groups,
        "constants": constants,
    }


def save_profile(path: str, profile: dict) -> str:
    """Atomically persist a profile as JSON; returns the path."""
    text = json.dumps(profile, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))
    return path


def load_profile(path: str) -> dict:
    """Load a persisted profile (raises on unreadable/invalid JSON)."""
    with open(path, "r", encoding="utf-8") as handle:
        profile = json.load(handle)
    if not isinstance(profile, dict) or "constants" not in profile:
        raise ValueError(f"not a calibration profile: {path!r}")
    return profile
