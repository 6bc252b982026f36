"""Metrics primitives: labelled counters, gauges, and mergeable histograms.

The registry replaces the ad-hoc latency windows that used to live on
:class:`repro.serve.server.CorpusServer`.  Histograms use fixed log-spaced
bucket bounds so that two histograms observed in different processes can be
merged bucket-by-bucket — the processes corpus strategy ships shard-worker
histograms back to the parent exactly the way snapshot stats already
aggregate.

Metrics form **families**: every metric has a name, and a family may fan
out into series distinguished by a label set (``engine``, ``kernel``,
``representation``, ``strategy``, ``op``, ...).  The registry keys series
on ``(name, sorted(labels))`` so merges across the process-pool boundary
line up label-identical series and create disjoint ones for label sets the
parent has not observed yet.  A family's metric type (counter vs gauge vs
histogram) must be consistent across all of its series.

Everything here is plain-Python and picklable via ``to_dict``/``from_dict``
(worker processes return dicts over the pool boundary, never live objects).
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "quantile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_latency_bounds",
    "series_key",
]

LabelItems = Tuple[Tuple[str, str], ...]


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of a **sorted** sequence.

    The nearest-rank definition: the smallest value with at least
    ``ceil(q * n)`` observations at or below it, i.e.
    ``values[ceil(q * n) - 1]``.  The previous in-line server computation
    indexed ``values[int(q * n)]`` which is off by one whenever ``q * n``
    is an integer — for a 20-element window ``int(0.95 * 20) == 19`` is the
    *maximum*, not the 95th percentile.
    """
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile fraction must be in (0, 1], got {q}")
    rank = math.ceil(q * len(values))
    return values[max(0, rank - 1)]


def default_latency_bounds() -> Tuple[float, ...]:
    """Log-spaced (factor ``sqrt(2)``) bucket upper bounds in seconds.

    Spans ~1 microsecond (``2**-20`` s) to 128 s in 55 buckets; observations
    above the last finite bound land in the implicit ``+Inf`` bucket.  The
    factor-``sqrt(2)`` spacing keeps histogram quantiles within one bucket
    (at worst ~41% relative error) of the exact sorted-window quantile,
    which is plenty for latency telemetry.
    """
    return tuple(2.0 ** (i / 2.0 - 20.0) for i in range(55))


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    """Normalise a label mapping to the canonical sorted items tuple."""
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        value = labels[key]
        if not isinstance(key, str) or not isinstance(value, str):
            raise TypeError("metric labels must be str -> str")
        items.append((key, value))
    return tuple(items)


def _escape_help(text: str) -> str:
    """HELP text escaping per the Prometheus exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    """Label-value escaping: backslash, double quote, newline."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_string(items: LabelItems) -> str:
    return ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in items)


def series_key(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """The registry's stable transport key for one series of a family."""
    items = labels if isinstance(labels, tuple) else _label_items(labels)
    if not items:
        return name
    return f"{name}{{{_label_string(items)}}}"


class Counter:
    """A monotonically increasing counter (one series of a family)."""

    __slots__ = ("name", "help", "labels", "_value", "_lock")

    def __init__(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels: LabelItems = _label_items(labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        payload = {"type": "counter", "name": self.name, "help": self.help, "value": self._value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def merge(self, other: "Counter | dict") -> None:
        value = other["value"] if isinstance(other, dict) else other.value
        with self._lock:
            self._value += value


class Gauge:
    """A value that can go up and down (set to the latest reading)."""

    __slots__ = ("name", "help", "labels", "_value", "_lock")

    def __init__(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels: LabelItems = _label_items(labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        payload = {"type": "gauge", "name": self.name, "help": self.help, "value": self._value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def merge(self, other: "Gauge | dict") -> None:
        # Gauges are last-reading values; merging sums them (the only merge
        # the corpus layer needs is "in-flight across shards").
        value = other["value"] if isinstance(other, dict) else other.value
        with self._lock:
            self._value += value


class Histogram:
    """Fixed-bucket cumulative histogram with mergeable counts.

    ``bounds`` are the inclusive upper bounds of each bucket; an implicit
    final bucket catches everything above ``bounds[-1]``.  Two histograms
    merge iff their bounds are identical — by construction they are, since
    every histogram in the codebase uses :func:`default_latency_bounds`
    unless a test says otherwise.
    """

    __slots__ = (
        "name",
        "help",
        "labels",
        "bounds",
        "_counts",
        "_sum",
        "_count",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels: LabelItems = _label_items(labels)
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else default_latency_bounds()
        )
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self._counts = [0] * (len(self.bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------- recording
    def _bucket_index(self, value: float) -> int:
        return bisect.bisect_left(self.bounds, value)

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Record each of ``values`` as :meth:`observe` would, under one lock hold."""
        if not values:
            return
        indices = [self._bucket_index(value) for value in values]
        low, high = min(values), max(values)
        with self._lock:
            for index, value in zip(indices, values):
                self._counts[index] += 1
                self._sum += value
            self._count += len(values)
            if self._min is None or low < self._min:
                self._min = low
            if self._max is None or high > self._max:
                self._max = high

    # ----------------------------------------------------------- inspection
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    @property
    def counts(self) -> List[int]:
        return list(self._counts)

    def quantile(self, q: float) -> Optional[float]:
        """Histogram quantile: the upper bound of the nearest-rank bucket.

        Returns ``None`` on an empty histogram.  The answer is exact to
        within one bucket of the true nearest-rank quantile; values landing
        in the overflow bucket report the observed maximum.
        """
        if self._count == 0:
            return None
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile fraction must be in (0, 1], got {q}")
        rank = math.ceil(q * self._count)
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self._max
        return self._max  # pragma: no cover - unreachable

    # -------------------------------------------------------------- merging
    def merge(self, other: "Histogram | dict") -> None:
        if isinstance(other, Histogram):
            data = other.to_dict()
        else:
            data = other
        if tuple(data["bounds"]) != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        with self._lock:
            for index, bucket_count in enumerate(data["counts"]):
                self._counts[index] += bucket_count
            self._sum += data["sum"]
            self._count += data["count"]
            other_min = data.get("min")
            other_max = data.get("max")
            if other_min is not None:
                self._min = other_min if self._min is None else min(self._min, other_min)
            if other_max is not None:
                self._max = other_max if self._max is None else max(self._max, other_max)

    # ------------------------------------------------------------ transport
    def to_dict(self) -> dict:
        with self._lock:
            payload = {
                "type": "histogram",
                "name": self.name,
                "help": self.help,
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "min": self._min,
                "max": self._max,
            }
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls(
            data["name"],
            data.get("help", ""),
            bounds=data["bounds"],
            labels=data.get("labels"),
        )
        histogram.merge(data)
        return histogram

    def summary(self) -> dict:
        """Count/sum plus the standard latency quantiles, for stats dicts."""
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """A collection of metric families with Prometheus text exposition.

    ``counter``/``gauge``/``histogram`` are get-or-create accessors so call
    sites never race on registration; they take an optional ``labels``
    mapping selecting one series of the family.  Re-registering a family
    name with a different metric type raises — across *all* label sets, so
    a family cannot be half counter, half histogram.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, type] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self, kind, name: str, help: str, labels: Optional[Mapping[str, str]], **kwargs
    ):
        items = _label_items(labels)
        with self._lock:
            registered = self._kinds.get(name)
            if registered is not None and registered is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as {registered.__name__}"
                )
            existing = self._metrics.get((name, items))
            if existing is not None:
                return existing
            metric = kind(name, help, labels=dict(items) if items else None, **kwargs)
            self._metrics[(name, items)] = metric
            self._kinds[name] = kind
            return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, bounds=bounds)

    def get(self, name: str, labels: Optional[Mapping[str, str]] = None):
        """One series by family name and label set (``None`` if absent)."""
        return self._metrics.get((name, _label_items(labels)))

    def series(self, name: str) -> List[object]:
        """Every series of one family, in sorted label order."""
        with self._lock:
            keys = sorted(key for key in self._metrics if key[0] == name)
        return [self._metrics[key] for key in keys]

    def names(self) -> List[str]:
        """Sorted family names (each may hold several labelled series)."""
        with self._lock:
            return sorted({name for name, _ in self._metrics})

    # ------------------------------------------------------------ transport
    def to_dict(self) -> dict:
        """Picklable payload keyed by series (``name`` or ``name{labels}``)."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {
            series_key(name, items): metric.to_dict() for (name, items), metric in metrics
        }

    def merge(self, other: "MetricsRegistry | dict") -> None:
        """Fold another registry (or its ``to_dict``) into this one.

        Unknown series are created on the fly so a worker process can
        define label sets (or whole families) the parent has not observed
        yet — families whose series carry different label sets merge into
        disjoint series, never an error.  Payload values carry their own
        ``name``/``labels``, so both the current series-keyed form and the
        pre-label name-keyed form are accepted.
        """
        data = other.to_dict() if isinstance(other, MetricsRegistry) else other
        for key, payload in data.items():
            name = payload.get("name", key)
            labels = payload.get("labels")
            kind = payload.get("type", "counter")
            if kind == "histogram":
                metric = self.histogram(
                    name, payload.get("help", ""), bounds=payload["bounds"], labels=labels
                )
            elif kind == "gauge":
                metric = self.gauge(name, payload.get("help", ""), labels=labels)
            else:
                metric = self.counter(name, payload.get("help", ""), labels=labels)
            metric.merge(payload)

    # ----------------------------------------------------------- exposition
    def render(self) -> str:
        """Render every family in the Prometheus text exposition format.

        One ``# HELP``/``# TYPE`` pair per family, then one sample line per
        series with its label string.  HELP text escapes backslashes and
        newlines; label values additionally escape double quotes.
        """
        lines: List[str] = []
        with self._lock:
            keys = sorted(self._metrics)
            families: Dict[str, List[object]] = {}
            for name, items in keys:
                families.setdefault(name, []).append(self._metrics[(name, items)])
        for name in sorted(families):
            group = families[name]
            help_text = next((metric.help for metric in group if metric.help), "")
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            first = group[0]
            if isinstance(first, Histogram):
                lines.append(f"# TYPE {name} histogram")
            elif isinstance(first, Gauge):
                lines.append(f"# TYPE {name} gauge")
            else:
                lines.append(f"# TYPE {name} counter")
            for metric in group:
                label_string = _label_string(metric.labels)
                if isinstance(metric, Histogram):
                    data = metric.to_dict()
                    cumulative = 0
                    for bound, bucket_count in zip(data["bounds"], data["counts"]):
                        cumulative += bucket_count
                        bucket_labels = _merge_label_strings(
                            label_string, f'le="{_format_value(bound)}"'
                        )
                        lines.append(f"{name}_bucket{{{bucket_labels}}} {cumulative}")
                    cumulative += data["counts"][-1]
                    bucket_labels = _merge_label_strings(label_string, 'le="+Inf"')
                    lines.append(f"{name}_bucket{{{bucket_labels}}} {cumulative}")
                    suffix = f"{{{label_string}}}" if label_string else ""
                    lines.append(f"{name}_sum{suffix} {repr(float(data['sum']))}")
                    lines.append(f"{name}_count{suffix} {data['count']}")
                else:
                    suffix = f"{{{label_string}}}" if label_string else ""
                    lines.append(f"{name}{suffix} {_format_value(metric.value)}")
        return "\n".join(lines) + "\n"


def _merge_label_strings(base: str, extra: str) -> str:
    return f"{base},{extra}" if base else extra
