"""The metric model: counters, gauges, and log-bucketed histograms.

One :class:`Metrics` registry serialises all recording behind a single
lock; every series may carry a label set (``labels={"worker": "03"}``)
in addition to its name, which is how the process-pool leader exposes
per-worker breakdowns next to fleet-wide totals.

Two representations leave the registry:

``snapshot()``
    The human-oriented JSON dict served at ``/stats`` — counters,
    gauges, and histogram *summaries* (quantiles, mean, extrema).

``export()``
    The full-fidelity, JSON/pickle-able state (raw histogram bucket
    counts included).  Exports are closed under :func:`diff_exports`
    and :func:`merge_exports`, which is the whole cross-process
    aggregation story: each worker ships ``diff_exports(now, last)``
    to the leader at batch boundaries and the leader folds the deltas
    into cumulative per-worker exports with :func:`merge_exports`.
    Extrema merge with ``min``/``max`` (order statistics are idempotent
    under re-merging), so totals stay exact across worker restarts.

Histogram quantiles interpolate linearly *within* the selected bucket,
clamped to the observed extrema — a single observation therefore
reports itself exactly instead of its bucket's upper edge.
"""

from __future__ import annotations

import bisect
import json
import threading
import time

__all__ = [
    "BATCH_BUCKETS",
    "LATENCY_BUCKETS",
    "Histogram",
    "Metrics",
    "diff_exports",
    "empty_export",
    "export_snapshot",
    "histogram_from_export",
    "merge_exports",
    "relabel_export",
    "stage_summaries",
]

#: Latency buckets (seconds): 10us .. ~100s, quarter-decade spacing.
LATENCY_BUCKETS = tuple(10 ** (e / 4) for e in range(-20, 9))

#: Batch-size buckets: 1 .. 4096, powers of two.
BATCH_BUCKETS = tuple(float(1 << e) for e in range(13))

#: Canonical label key for the unlabeled series of a metric.
_NO_LABELS = "[]"


def _label_key(labels: dict | None) -> str:
    """Canonical (sorted, JSON) key for a label set; ``"[]"`` if none."""
    if not labels:
        return _NO_LABELS
    return json.dumps(
        sorted((str(k), str(v)) for k, v in labels.items()),
        separators=(",", ":"),
    )


def label_items(key: str) -> list[tuple[str, str]]:
    """Decode a canonical label key back into sorted ``(name, value)`` pairs."""
    return [tuple(pair) for pair in json.loads(key)]


def _label_suffix(key: str) -> str:
    """Human-readable ``{k="v",...}`` suffix for snapshot dict keys."""
    if key == _NO_LABELS:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in label_items(key))
    return "{%s}" % inner


class Histogram:
    """Fixed-bucket histogram with count / sum / min / max and quantiles.

    Not itself locked — the owning :class:`Metrics` registry serialises
    access.  ``counts[i]`` holds observations in
    ``(buckets[i-1], buckets[i]]`` (Prometheus ``le`` semantics);
    ``counts[-1]`` is the overflow bucket.
    """

    def __init__(self, buckets=LATENCY_BUCKETS):
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q: float) -> float | None:
        """Interpolated quantile estimate (``None`` when empty).

        Walks the cumulative bucket counts to the bucket holding rank
        ``q * count``, then interpolates linearly within that bucket.
        Both bucket edges are clamped to the observed extrema, so the
        underflow bucket (values below the first edge) interpolates
        from the true minimum, a single observation reports itself
        exactly, and the overflow bucket tops out at the true maximum.
        """
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if not c:
                continue
            if cumulative + c >= rank:
                if i >= len(self.buckets):
                    lo = self.buckets[-1] if self.buckets else self.min
                    hi = self.max
                else:
                    lo = self.buckets[i - 1] if i else 0.0
                    hi = self.buckets[i]
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return hi
                fraction = min(max((rank - cumulative) / c, 0.0), 1.0)
                return lo + (hi - lo) * fraction
            cumulative += c
        return self.max

    @property
    def mean(self) -> float | None:
        """Arithmetic mean of all observations (``None`` when empty)."""
        return self.total / self.count if self.count else None

    def snapshot(self) -> dict:
        """JSON-able summary (quantiles, mean, extrema, total count)."""
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": None if self.mean is None else round(self.mean, 6),
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def export(self) -> dict:
        """Full-fidelity JSON-able state (raw bucket counts included)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


def histogram_from_export(data: dict) -> Histogram:
    """Rebuild a :class:`Histogram` from an :meth:`Histogram.export` dict."""
    hist = Histogram(buckets=data.get("buckets") or LATENCY_BUCKETS)
    counts = list(data.get("counts") or [])
    if len(counts) == len(hist.counts):
        hist.counts = counts
    hist.count = int(data.get("count", 0))
    hist.total = float(data.get("total", 0.0))
    hist.min = data.get("min")
    hist.max = data.get("max")
    return hist


class Metrics:
    """Thread-safe registry of named counters, gauges, and histograms.

    One instance per serving pool leader and one per worker process
    (plus one process-global runtime registry, see
    :mod:`repro.obs.runtime`); every thread of the process records into
    it.  ``snapshot()`` is the ``/stats`` payload;
    ``export()`` feeds the Prometheus renderer and the cross-process
    delta pipeline.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, dict[str, int]] = {}
        self._gauges: dict[str, dict[str, float]] = {}
        self._histograms: dict[str, dict[str, Histogram]] = {}
        self.started_at = time.time()

    def inc(self, name: str, amount: int = 1, labels: dict | None = None) -> None:
        """Increment a counter series (created on first use)."""
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + amount

    def set_gauge(self, name: str, value: float,
                  labels: dict | None = None) -> None:
        """Set a gauge series to an instantaneous value."""
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)

    def observe(self, name: str, value: float, buckets=LATENCY_BUCKETS,
                labels: dict | None = None) -> None:
        """Record into a histogram series (created on first use)."""
        key = _label_key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            hist = series.get(key)
            if hist is None:
                hist = series[key] = Histogram(buckets)
            hist.observe(value)

    def counter(self, name: str, labels: dict | None = None) -> int:
        """Current value of a counter series (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0)

    def gauge(self, name: str, labels: dict | None = None) -> float | None:
        """Current value of a gauge series (``None`` if never set)."""
        with self._lock:
            return self._gauges.get(name, {}).get(_label_key(labels))

    def snapshot(self) -> dict:
        """JSON-able view of every counter, gauge, and histogram."""
        with self._lock:
            export = self._export_locked()
        snap = export_snapshot(export)
        snap["uptime_s"] = round(time.time() - self.started_at, 3)
        return snap

    def export(self) -> dict:
        """Full-fidelity state; see the module docstring for the shape."""
        with self._lock:
            return self._export_locked()

    def _export_locked(self) -> dict:
        return {
            "counters": {
                name: dict(series) for name, series in self._counters.items()
            },
            "gauges": {
                name: dict(series) for name, series in self._gauges.items()
            },
            "histograms": {
                name: {key: hist.export() for key, hist in series.items()}
                for name, series in self._histograms.items()
            },
        }


def empty_export() -> dict:
    """A fresh all-empty export dict (the ``merge_exports`` identity)."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def export_snapshot(export: dict) -> dict:
    """Summarise an export dict into the ``/stats`` snapshot shape.

    Unlabeled series land under their plain name; labeled series under
    ``name{k="v",...}``.  Histograms are summarised via
    :meth:`Histogram.snapshot`.
    """
    counters: dict[str, int] = {}
    for name, series in export.get("counters", {}).items():
        for key, value in series.items():
            counters[name + _label_suffix(key)] = value
    gauges: dict[str, float] = {}
    for name, series in export.get("gauges", {}).items():
        for key, value in series.items():
            gauges[name + _label_suffix(key)] = value
    histograms: dict[str, dict] = {}
    for name, series in export.get("histograms", {}).items():
        for key, data in series.items():
            histograms[name + _label_suffix(key)] = (
                histogram_from_export(data).snapshot()
            )
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def relabel_export(export: dict, labels: dict) -> dict:
    """A copy of ``export`` with ``labels`` folded into every series key.

    This is how the process-pool leader turns one worker's cumulative
    export into ``name{worker="NN"}`` series served next to the
    fleet-wide (unlabeled) totals.  Keys already present in a series'
    label set are overwritten by ``labels``.
    """
    extra = {str(k): str(v) for k, v in labels.items()}

    def rekey(key: str) -> str:
        merged = dict(label_items(key))
        merged.update(extra)
        return _label_key(merged)

    out = empty_export()
    for name, series in export.get("counters", {}).items():
        out["counters"][name] = {
            rekey(key): value for key, value in series.items()}
    for name, series in export.get("gauges", {}).items():
        out["gauges"][name] = {
            rekey(key): value for key, value in series.items()}
    for name, series in export.get("histograms", {}).items():
        out["histograms"][name] = {
            rekey(key): {**data, "buckets": list(data["buckets"]),
                         "counts": list(data["counts"])}
            for key, data in series.items()}
    return out


def stage_summaries(export: dict) -> dict:
    """Summaries of the unlabeled ``stage.*_s`` histograms in an export.

    The ``/trace`` payload's per-stage latency decomposition: maps the
    bare stage name (``queue``, ``descent``, ``wal_fsync``, ...) to its
    histogram snapshot.
    """
    stages: dict[str, dict] = {}
    for name, series in export.get("histograms", {}).items():
        if not name.startswith("stage."):
            continue
        data = series.get(_NO_LABELS)
        if data is not None:
            stage = name[len("stage."):]
            if stage.endswith("_s"):
                stage = stage[:-2]
            stages[stage] = histogram_from_export(data).snapshot()
    return stages


def diff_exports(current: dict, previous: dict) -> dict:
    """The delta that takes ``previous`` to ``current`` (for shipping).

    Counter values and histogram bucket counts subtract; zero counter
    deltas are dropped.  Gauges and histogram extrema pass through at
    their current values (extrema re-merge exactly with ``min``/``max``
    on the receiving side).
    """
    delta = empty_export()
    prev_counters = previous.get("counters", {})
    for name, series in current.get("counters", {}).items():
        prev_series = prev_counters.get(name, {})
        changed = {
            key: value - prev_series.get(key, 0)
            for key, value in series.items()
            if value != prev_series.get(key, 0)
        }
        if changed:
            delta["counters"][name] = changed
    prev_gauges = previous.get("gauges", {})
    for name, series in current.get("gauges", {}).items():
        prev_series = prev_gauges.get(name, {})
        changed = {
            key: value for key, value in series.items()
            if value != prev_series.get(key)
        }
        if changed:
            delta["gauges"][name] = changed
    prev_hists = previous.get("histograms", {})
    for name, series in current.get("histograms", {}).items():
        prev_series = prev_hists.get(name, {})
        for key, data in series.items():
            prev_data = prev_series.get(key)
            if prev_data is None:
                delta["histograms"].setdefault(name, {})[key] = {
                    **data,
                    "buckets": list(data["buckets"]),
                    "counts": list(data["counts"]),
                }
                continue
            if data["count"] == prev_data["count"]:
                continue
            delta["histograms"].setdefault(name, {})[key] = {
                "buckets": list(data["buckets"]),
                "counts": [
                    c - p for c, p in zip(data["counts"], prev_data["counts"])
                ],
                "count": data["count"] - prev_data["count"],
                "total": data["total"] - prev_data["total"],
                "min": data["min"],
                "max": data["max"],
            }
    return delta


def _merge_extreme(a, b, pick):
    if a is None:
        return b
    if b is None:
        return a
    return pick(a, b)


def merge_exports(target: dict, delta: dict) -> dict:
    """Fold ``delta`` (an export or diff) into ``target``, in place.

    Counters and histogram counts add; gauges take the delta's value;
    extrema merge with ``min``/``max``.  Returns ``target``.
    """
    for name, series in delta.get("counters", {}).items():
        dest = target.setdefault("counters", {}).setdefault(name, {})
        for key, value in series.items():
            dest[key] = dest.get(key, 0) + value
    for name, series in delta.get("gauges", {}).items():
        target.setdefault("gauges", {}).setdefault(name, {}).update(series)
    for name, series in delta.get("histograms", {}).items():
        dest = target.setdefault("histograms", {}).setdefault(name, {})
        for key, data in series.items():
            existing = dest.get(key)
            if existing is None or existing.get("buckets") != list(
                    data["buckets"]):
                dest[key] = {
                    **data,
                    "buckets": list(data["buckets"]),
                    "counts": list(data["counts"]),
                }
                continue
            existing["counts"] = [
                a + b for a, b in zip(existing["counts"], data["counts"])
            ]
            existing["count"] += data["count"]
            existing["total"] += data["total"]
            existing["min"] = _merge_extreme(existing["min"], data["min"], min)
            existing["max"] = _merge_extreme(existing["max"], data["max"], max)
    return target
