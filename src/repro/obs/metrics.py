"""Metrics registry: named counters, gauges, histograms and series with labels.

Prometheus-flavoured but dependency-free. A :class:`MetricsRegistry`
owns the metric families; each family carries a fixed tuple of label
names and stores one value (histogram state, time series) per observed
label-value combination. Label values may be any hashable (worker ids
stay ints internally); they are stringified only on export.

The engine records everything a run measures here — ``grad_bytes_total``,
``maxn_chosen_n``, the per-worker ``loss_series``, … (the full catalog
is in ``docs/observability.md``) — and :class:`~repro.core.host.RunResult`
is a read-only view over the registry, so a ``--metrics-out`` dump and
the in-process result can never disagree, and one :meth:`dump_state`
carries a worker's whole run.
"""

from __future__ import annotations

import json
import pathlib
from bisect import bisect_left
from typing import Iterable, Sequence

from repro.utils.metrics import TimeSeries

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "DEFAULT_BUCKETS",
    "percentile_from_buckets",
]

# Latency-flavoured default buckets (seconds); +inf is implicit.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0
)

# Percentiles included in every histogram export (p50/p95/p99 keys).
EXPORT_PERCENTILES = (0.50, 0.95, 0.99)


def percentile_from_buckets(
    edges: Sequence[float],
    cumulative: Sequence[int],
    q: float,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float | None:
    """Estimate the ``q``-quantile from cumulative bucket counts.

    ``edges`` are the finite upper bucket bounds; ``cumulative`` has one
    entry per edge plus a final entry for the implicit ``+inf`` bucket
    (so ``cumulative[-1]`` is the total observation count). Linear
    interpolation within the landing bucket, Prometheus
    ``histogram_quantile`` style; observations that land in the ``+inf``
    bucket resolve to ``maximum`` when known (else the last finite
    edge). Returns ``None`` when the series is empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if len(cumulative) != len(edges) + 1:
        raise ValueError(
            f"cumulative counts must cover every edge plus +inf: "
            f"{len(edges)} edge(s) but {len(cumulative)} count(s)"
        )
    total = cumulative[-1]
    if total == 0:
        return None
    rank = q * total
    i = 0
    while i < len(cumulative) and cumulative[i] < rank:
        i += 1
    if i >= len(edges):  # +inf bucket: no finite upper bound to lerp to
        return maximum if maximum is not None else edges[-1]
    below = cumulative[i - 1] if i else 0
    in_bucket = cumulative[i] - below
    lower = edges[i - 1] if i else (minimum if minimum is not None else 0.0)
    upper = edges[i]
    if in_bucket <= 0:
        value = upper
    else:
        value = lower + (upper - lower) * (rank - below) / in_bucket
    if minimum is not None:
        value = max(value, minimum)
    if maximum is not None:
        value = min(value, maximum)
    return value


class _Family:
    """Shared bookkeeping: name, help text, the label schema, and one
    stored value (a number, histogram state or series) per label key."""

    kind = "abstract"

    def __init__(self, name: str, help: str, label_names: Sequence[str]):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._values: dict[tuple, object] = {}

    def _key(self, labels: tuple) -> tuple:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label value(s) "
                f"{self.label_names}, got {labels!r}"
            )
        return labels

    def _label_dict(self, key: tuple) -> dict[str, str]:
        return {n: str(v) for n, v in zip(self.label_names, key)}

    def items(self) -> Iterable[tuple[tuple, object]]:
        """``(label_values, value)`` pairs in first-seen order."""
        return self._values.items()

    def samples(self) -> list[dict]:
        """Export form: one ``{labels, value}`` record per series."""
        return [
            {"labels": self._label_dict(k), "value": v}
            for k, v in self._values.items()
        ]


class Counter(_Family):
    """A monotonically increasing sum per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1.0, *labels) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"{self.name}: counters cannot decrease")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *labels) -> float:
        """Current sum for one label combination (0.0 if never incremented)."""
        return self._values.get(self._key(labels), 0.0)


class Gauge(_Family):
    """A value that can go up and down; remembers the last set value."""

    kind = "gauge"

    def set(self, value: float, *labels) -> None:
        """Set the labelled series to ``value``."""
        self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, *labels) -> None:
        """Adjust the labelled series by ``amount`` (may be negative)."""
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *labels) -> float:
        """Last set value (0.0 if never set)."""
        return self._values.get(self._key(labels), 0.0)


class _HistogramState:
    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Family):
    """Fixed-bucket histogram (cumulative on export, like Prometheus).

    Buckets are upper edges; an implicit ``+inf`` bucket catches the
    rest. ``min``/``max``/``sum``/``count`` ride along so reports can
    print means and ranges without re-deriving them from buckets.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise ValueError(f"{self.name}: need at least one bucket edge")
        if len(set(edges)) != len(edges):
            raise ValueError(f"{self.name}: duplicate bucket edges")
        self.buckets = edges

    def observe(self, value: float, *labels) -> None:
        """Record one observation into the labelled series."""
        key = self._key(labels)
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = _HistogramState(len(self.buckets))
        # bisect_left: the first edge >= value, so edges act as inclusive
        # upper bounds (Prometheus ``le`` semantics); past the last edge
        # the index lands on the +inf slot.
        state.bucket_counts[bisect_left(self.buckets, value)] += 1
        state.count += 1
        state.sum += value
        state.min = min(state.min, value)
        state.max = max(state.max, value)

    def count(self, *labels) -> int:
        """Number of observations for one label combination."""
        state = self._values.get(self._key(labels))
        return state.count if state else 0

    def sum(self, *labels) -> float:
        """Sum of observations for one label combination."""
        state = self._values.get(self._key(labels))
        return state.sum if state else 0.0

    def mean(self, *labels) -> float:
        """Mean observation (0.0 before any observation)."""
        state = self._values.get(self._key(labels))
        if not state or state.count == 0:
            return 0.0
        return state.sum / state.count

    def _cumulative(self, st: _HistogramState) -> list[int]:
        out, running = [], 0
        for c in st.bucket_counts:
            running += c
            out.append(running)
        return out

    def percentile(self, q: float, *labels) -> float | None:
        """Estimated ``q``-quantile for one series (None if empty)."""
        state = self._values.get(self._key(labels))
        if state is None or state.count == 0:
            return None
        return percentile_from_buckets(
            self.buckets, self._cumulative(state), q,
            minimum=state.min, maximum=state.max,
        )

    def percentile_all(self, q: float) -> float | None:
        """Estimated ``q``-quantile pooled across every series.

        Bucket counts from all label combinations are summed before
        estimation — the cluster-wide view (e.g. p99 frame latency over
        every link) rather than a per-series one.
        """
        pooled = [0] * (len(self.buckets) + 1)
        lo, hi, total = float("inf"), float("-inf"), 0
        for st in self._values.values():
            for i, c in enumerate(st.bucket_counts):
                pooled[i] += c
            total += st.count
            if st.count:
                lo = min(lo, st.min)
                hi = max(hi, st.max)
        if total == 0:
            return None
        running = 0
        cumulative = []
        for c in pooled:
            running += c
            cumulative.append(running)
        return percentile_from_buckets(
            self.buckets, cumulative, q, minimum=lo, maximum=hi
        )

    def samples(self) -> list[dict]:
        """Export form: cumulative buckets, count/sum/min/max, p50/95/99."""
        out = []
        for key, st in self._values.items():
            cumulative = self._cumulative(st)
            bucket_rows = [
                {"le": edge, "count": c}
                for edge, c in zip(self.buckets, cumulative)
            ]
            bucket_rows.append({"le": "+inf", "count": st.count})
            record = {
                "labels": self._label_dict(key),
                "count": st.count,
                "sum": st.sum,
                "min": st.min if st.count else None,
                "max": st.max if st.count else None,
                "buckets": bucket_rows,
            }
            for q in EXPORT_PERCENTILES:
                record[f"p{int(q * 100)}"] = (
                    percentile_from_buckets(
                        self.buckets, cumulative, q,
                        minimum=st.min, maximum=st.max,
                    )
                    if st.count
                    else None
                )
            out.append(record)
        return out


class Series(_Family):
    """One append-only :class:`TimeSeries` per label combination.

    Series hold a run's history (per-worker loss, the GBS schedule, …).
    They travel in :meth:`MetricsRegistry.dump_state` but not in
    :meth:`MetricsRegistry.to_dict`, which exports current values only.
    """

    kind = "series"

    def append(self, t: float, value: float, *labels) -> None:
        """Record ``value`` at time ``t`` in the labelled series."""
        key = self._key(labels)
        series = self._values.get(key)
        if series is None:
            series = self._values[key] = TimeSeries()
        series.append(t, value)

    def series(self, *labels) -> TimeSeries:
        """The labelled series; an empty one, not stored, if nobody
        recorded it (an inserted empty key would block a later merge)."""
        series = self._values.get(self._key(labels))
        return series if series is not None else TimeSeries()


class MetricsRegistry:
    """Owns metric families; get-or-create by name with schema checks."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, cls, name, help, label_names, **kw):
        fam = self._families.get(name)
        if fam is not None:
            if not isinstance(fam, cls) or fam.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind} "
                    f"with labels {fam.label_names}"
                )
            return fam
        fam = cls(name, help, label_names, **kw)
        self._families[name] = fam
        return fam

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        """Get or register a counter family."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        """Get or register a gauge family."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or register a histogram family."""
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def series(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Series:
        """Get or register a series family."""
        return self._get_or_create(Series, name, help, labels)

    def get(self, name: str) -> _Family | None:
        """The registered family, or None."""
        return self._families.get(name)

    def names(self) -> list[str]:
        """Registered family names in registration order."""
        return list(self._families)

    def dump_state(self) -> dict:
        """Picklable snapshot of every family's raw series.

        The inverse of :meth:`merge_state`; used by the live backend to
        ship each child process's registry back to the parent. Label
        tuples are preserved verbatim (ints stay ints), so a merged
        registry is indistinguishable from one recorded in-process.
        """
        out: dict = {}
        for name, fam in self._families.items():
            entry: dict = {
                "kind": fam.kind,
                "help": fam.help,
                "labels": fam.label_names,
            }
            if isinstance(fam, Histogram):
                entry["buckets"] = fam.buckets
                entry["series"] = {
                    key: {
                        "bucket_counts": list(st.bucket_counts),
                        "count": st.count,
                        "sum": st.sum,
                        "min": st.min,
                        "max": st.max,
                    }
                    for key, st in fam.items()
                }
            elif isinstance(fam, Series):
                entry["series"] = {
                    key: (list(ts.times), list(ts.values))
                    for key, ts in fam.items()
                }
            else:
                entry["series"] = dict(fam._values)
            out[name] = entry
        return out

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`dump_state` snapshot into this registry.

        Counters add, gauges take the incoming value (last writer wins),
        histograms merge bucket counts, and a series key keeps its first
        writer — so merging N worker registries yields the same totals
        and histories as one shared registry would have recorded (a
        worker's series has one writer, the host that holds it; of a
        cluster-wide series every host records its own view, and the
        first one merged is kept).
        """
        for name, entry in state.items():
            labels = tuple(entry["labels"])
            if entry["kind"] == "counter":
                fam = self.counter(name, entry["help"], labels)
                for key, value in entry["series"].items():
                    fam.inc(value, *key)
            elif entry["kind"] == "gauge":
                fam = self.gauge(name, entry["help"], labels)
                for key, value in entry["series"].items():
                    fam.set(value, *key)
            elif entry["kind"] == "histogram":
                fam = self.histogram(
                    name, entry["help"], labels, buckets=entry["buckets"]
                )
                for key, sdict in entry["series"].items():
                    st = fam._values.get(tuple(key))
                    if st is None:
                        st = fam._values[tuple(key)] = _HistogramState(
                            len(fam.buckets)
                        )
                    for i, c in enumerate(sdict["bucket_counts"]):
                        st.bucket_counts[i] += c
                    st.count += sdict["count"]
                    st.sum += sdict["sum"]
                    st.min = min(st.min, sdict["min"])
                    st.max = max(st.max, sdict["max"])
            elif entry["kind"] == "series":
                fam = self.series(name, entry["help"], labels)
                for key, (times, values) in entry["series"].items():
                    if key not in fam._values:
                        fam._values[key] = TimeSeries(list(times), list(values))
            else:  # pragma: no cover - future kinds
                raise ValueError(f"unknown metric kind {entry['kind']!r}")

    def to_dict(self) -> dict:
        """JSON-serializable dump of every counter, gauge and histogram
        (series are history, exported with the run result instead)."""
        return {
            name: {
                "kind": fam.kind,
                "help": fam.help,
                "labels": list(fam.label_names),
                "samples": fam.samples(),
            }
            for name, fam in self._families.items()
            if not isinstance(fam, Series)
        }

    def write(self, path: str | pathlib.Path) -> None:
        """Dump the registry as indented JSON (streamed: a 1,000-worker
        dump is ~12 MB of text and ~100 MB as one in-memory string)."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
