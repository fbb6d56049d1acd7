"""Prometheus text exposition: renderer, parser, and strict validator.

:func:`render_prometheus` turns a metrics export (see
:mod:`repro.obs.metrics`) into the text format v0.0.4 that Prometheus
scrapes — ``# HELP`` / ``# TYPE`` headers, escaped label values,
cumulative ``le`` buckets with a ``+Inf`` terminator.  Counter families
get a ``_total`` suffix; metric names are sanitised to the
``[a-zA-Z_:][a-zA-Z0-9_:]*`` charset.

:func:`parse_exposition` reads the format back into families (used by
the round-trip tests and the CI scrape assertions) and
:func:`validate_exposition` is the strict in-repo format checker the
``metrics-scrape-smoke`` CI job runs against a live ``/metrics`` scrape:
it returns a list of violations (empty means valid) covering name/label
syntax, escaping, HELP/TYPE placement, duplicate series, and histogram
bucket monotonicity/terminators.
"""

from __future__ import annotations

import math
import re

from repro.obs.metrics import label_items

__all__ = [
    "CONTENT_TYPE",
    "parse_exposition",
    "render_prometheus",
    "validate_exposition",
]

#: The Content-Type a /metrics response advertises.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SANITISE_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: HELP strings for the well-known series; everything else gets a stub.
HELP_TEXTS = {
    "requests_total": "Requests accepted by the front end.",
    "requests_served_total": "Requests completed by a shard worker.",
    "requests_failed_total": "Requests failed inside a shard worker.",
    "served_total": "Responses resolved back to callers.",
    "errors_total": "Requests that resolved to an error.",
    "rejected_total": "Requests rejected on admission (queue full).",
    "cancelled_total": "Requests cancelled by pool shutdown.",
    "batches_total": "Micro-batches executed.",
    "worker_deaths_total": "Worker processes that died unexpectedly.",
    "worker_restarts_total": "Replacement worker processes spawned.",
    "worker_hangs_total":
        "Workers killed by the supervisor for heartbeat silence.",
    "worker_pipe_drops_total":
        "Workers killed by the supervisor over a torn request pipe.",
    "replication_lag_max":
        "Worst shipped-minus-applied worker-log record count.",
    "wal_fsync_stalls_total":
        "WAL fsyncs delayed by an injected slow-disk stall.",
    "replica_refresh_errors_total":
        "Worker idle-refresh attempts that failed (lag persists).",
    "frontier_cache_hits_total": "Compiled-plan frontier cache hits.",
    "frontier_cache_misses_total": "Compiled-plan frontier cache misses.",
    "epochs_minted_total": "Delta-overlay epochs minted.",
    "compactions_total": "Delta-overlay compactions into a fresh plan.",
    "checkpoints_total": "Durable checkpoints taken.",
    "wal_records_total": "Records appended to the write-ahead log.",
    "wal_bytes_total": "Bytes appended to the write-ahead log.",
    "wal_fsyncs_total": "fsync() calls issued by the write-ahead log.",
    "recovery_records_replayed_total": "WAL records replayed at recovery.",
    "recovery_records_skipped_total":
        "WAL records skipped at recovery (already in snapshot).",
    "recovery_ids_applied_total": "Occupancy ids applied during replay.",
    "delta_density": "Live delta-overlay density of the newest epoch.",
    "queue_depth": "Requests queued across shard workers right now.",
    "workers": "Worker processes currently attached.",
    "uptime_seconds": "Seconds since the service started.",
    "batch_size": "Dispatched micro-batch sizes.",
    "stage_queue_s": "Per-request queue wait (submit to dispatch).",
    "stage_batch_assembly_s": "Batch assembly window duration.",
    "stage_execute_s": "Batch execution (kernel dispatch) duration.",
    "stage_descent_s": "Compiled-plan frontier descent duration.",
    "stage_wal_append_s": "WAL append duration (encode + write).",
    "stage_wal_fsync_s": "WAL fsync duration.",
    "stage_checkpoint_s": "Durable checkpoint duration.",
    "stage_recovery_s": "Crash-recovery (snapshot + replay) duration.",
    "stage_total_s": "End-to-end request latency (submit to resolve).",
}


def metric_name(name: str) -> str:
    """Sanitise an internal series name into a Prometheus metric name."""
    name = _SANITISE_RE.sub("_", name)
    if not name or not _NAME_RE.match(name):
        name = "_" + name
    return name


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _series_order(key: str):
    """Order series within a family: the unlabeled series leads."""
    return (key != "[]", key)


def _render_labels(items) -> str:
    if not items:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in items
    )
    return "{%s}" % inner


def _help_for(family: str) -> str:
    return HELP_TEXTS.get(family, f"repro series {family}.")


def render_prometheus(export: dict) -> str:
    """Render a metrics export dict as Prometheus text exposition v0.0.4.

    Families are emitted in sorted name order, each with its ``# HELP``
    and ``# TYPE`` header; series within a family emit the unlabeled
    series first, then labeled series sorted by label string.
    Histograms emit cumulative ``_bucket`` samples (terminated by
    ``le="+Inf"``) plus ``_sum`` and ``_count``.
    """
    families: list[tuple[str, list[str]]] = []

    for name, series in export.get("counters", {}).items():
        family = metric_name(name)
        if not family.endswith("_total"):
            family += "_total"
        lines = [
            f"# HELP {family} {_escape_help(_help_for(family))}",
            f"# TYPE {family} counter",
        ]
        for key in sorted(series, key=_series_order):
            lines.append(
                f"{family}{_render_labels(label_items(key))}"
                f" {_format_value(series[key])}"
            )
        families.append((family, lines))

    for name, series in export.get("gauges", {}).items():
        family = metric_name(name)
        lines = [
            f"# HELP {family} {_escape_help(_help_for(family))}",
            f"# TYPE {family} gauge",
        ]
        for key in sorted(series, key=_series_order):
            lines.append(
                f"{family}{_render_labels(label_items(key))}"
                f" {_format_value(series[key])}"
            )
        families.append((family, lines))

    for name, series in export.get("histograms", {}).items():
        family = metric_name(name)
        lines = [
            f"# HELP {family} {_escape_help(_help_for(family))}",
            f"# TYPE {family} histogram",
        ]
        for key in sorted(series, key=_series_order):
            data = series[key]
            base = label_items(key)
            cumulative = 0
            for edge, count in zip(data["buckets"], data["counts"]):
                cumulative += count
                items = base + [("le", _format_value(edge))]
                lines.append(
                    f"{family}_bucket{_render_labels(items)} {cumulative}"
                )
            items = base + [("le", "+Inf")]
            lines.append(
                f"{family}_bucket{_render_labels(items)} {data['count']}"
            )
            lines.append(
                f"{family}_sum{_render_labels(base)}"
                f" {_format_value(data['total'])}"
            )
            lines.append(
                f"{family}_count{_render_labels(base)} {data['count']}"
            )
        families.append((family, lines))

    out: list[str] = []
    for _, lines in sorted(families, key=lambda item: item[0]):
        out.extend(lines)
    return "\n".join(out) + "\n" if out else ""


def _parse_label_block(block: str):
    """Parse the inside of a ``{...}`` label block; raises ValueError."""
    labels: dict[str, str] = {}
    i, n = 0, len(block)
    while i < n:
        while i < n and block[i] in " \t":
            i += 1
        if i >= n:
            break
        j = i
        while j < n and block[j] not in "=":
            j += 1
        if j >= n:
            raise ValueError("label without '='")
        name = block[i:j].strip()
        if not _LABEL_NAME_RE.match(name):
            raise ValueError(f"bad label name {name!r}")
        if name in labels:
            raise ValueError(f"duplicate label {name!r}")
        i = j + 1
        if i >= n or block[i] != '"':
            raise ValueError(f"label {name!r} value not quoted")
        i += 1
        value = []
        while i < n:
            ch = block[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise ValueError("dangling escape in label value")
                esc = block[i + 1]
                if esc == "n":
                    value.append("\n")
                elif esc in ('"', "\\"):
                    value.append(esc)
                else:
                    raise ValueError(f"bad escape \\{esc} in label value")
                i += 2
                continue
            if ch == '"':
                break
            if ch == "\n":
                raise ValueError("unescaped newline in label value")
            value.append(ch)
            i += 1
        else:
            raise ValueError("unterminated label value")
        labels[name] = "".join(value)
        i += 1
        while i < n and block[i] in " \t":
            i += 1
        if i < n:
            if block[i] != ",":
                raise ValueError("expected ',' between labels")
            i += 1
    return labels


def _split_sample(line: str):
    """Split a sample line into (name, labels, value); raises ValueError."""
    brace = line.find("{")
    if brace != -1:
        end = line.rfind("}")
        if end == -1 or end < brace:
            raise ValueError("unbalanced '{' in sample")
        name = line[:brace]
        labels = _parse_label_block(line[brace + 1:end])
        rest = line[end + 1:].strip()
    else:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError("sample line has no value")
        name, rest = parts[0], parts[1].strip()
        labels = {}
    if not _NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    fields = rest.split()
    if not fields or len(fields) > 2:
        raise ValueError("expected 'value [timestamp]' after sample name")
    raw = fields[0]
    if raw == "+Inf":
        value = math.inf
    elif raw == "-Inf":
        value = -math.inf
    elif raw == "NaN":
        value = math.nan
    else:
        value = float(raw)
    return name, labels, value


def _family_for(name: str, families: dict) -> str | None:
    """The declared family a sample belongs to, or ``None``."""
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if base in families and families[base]["type"] in (
                    "histogram", "summary"):
                return base
    return None


def _parse(text: str):
    families: dict[str, dict] = {}
    errors: list[str] = []
    current: str | None = None
    seen_series: set[tuple[str, tuple]] = set()

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                errors.append(f"line {lineno}: malformed comment {line!r}")
                continue
            kind, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                errors.append(f"line {lineno}: bad metric name {name!r}")
                continue
            entry = families.setdefault(
                name, {"help": None, "type": None, "samples": []})
            if kind == "HELP":
                if entry["help"] is not None:
                    errors.append(f"line {lineno}: duplicate HELP for {name}")
                if entry["samples"]:
                    errors.append(
                        f"line {lineno}: HELP for {name} after its samples")
                entry["help"] = parts[3] if len(parts) > 3 else ""
            else:
                if entry["type"] is not None:
                    errors.append(f"line {lineno}: duplicate TYPE for {name}")
                if entry["samples"]:
                    errors.append(
                        f"line {lineno}: TYPE for {name} after its samples")
                declared = parts[3].strip() if len(parts) > 3 else ""
                if declared not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    errors.append(
                        f"line {lineno}: unknown TYPE {declared!r}"
                        f" for {name}")
                entry["type"] = declared
                current = name
            continue
        try:
            name, labels, value = _split_sample(line)
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        family = _family_for(name, families)
        if family is None:
            errors.append(
                f"line {lineno}: sample {name!r} has no TYPE declaration")
            continue
        if current != family:
            errors.append(
                f"line {lineno}: sample {name!r} outside its family block")
        series_key = (name, tuple(sorted(labels.items())))
        if series_key in seen_series:
            errors.append(f"line {lineno}: duplicate series {name}{labels}")
        seen_series.add(series_key)
        families[family]["samples"].append((name, labels, value))

    for family, entry in families.items():
        if entry["type"] is None:
            errors.append(f"family {family}: missing TYPE")
            continue
        if entry["type"] == "counter":
            if not family.endswith("_total"):
                errors.append(f"family {family}: counter without _total")
            for name, labels, value in entry["samples"]:
                if value < 0:
                    errors.append(
                        f"family {family}: negative counter {labels}")
        if entry["type"] == "histogram":
            errors.extend(_check_histogram(family, entry["samples"]))
    return families, errors


def _check_histogram(family: str, samples) -> list[str]:
    errors = []
    grouped: dict[tuple, dict] = {}
    for name, labels, value in samples:
        base = tuple(sorted(
            (k, v) for k, v in labels.items() if k != "le"))
        slot = grouped.setdefault(
            base, {"buckets": [], "sum": None, "count": None})
        if name == family + "_bucket":
            le = labels.get("le")
            if le is None:
                errors.append(f"family {family}: _bucket without le label")
                continue
            edge = math.inf if le == "+Inf" else float(le)
            slot["buckets"].append((edge, value))
        elif name == family + "_sum":
            slot["sum"] = value
        elif name == family + "_count":
            slot["count"] = value
        else:
            errors.append(
                f"family {family}: unexpected histogram sample {name}")
    for base, slot in grouped.items():
        buckets = slot["buckets"]
        if not buckets:
            errors.append(f"family {family}{dict(base)}: no buckets")
            continue
        edges = [edge for edge, _ in buckets]
        if edges != sorted(edges):
            errors.append(f"family {family}{dict(base)}: le out of order")
        values = [v for _, v in buckets]
        if any(b > a for a, b in zip(values[1:], values)):
            errors.append(
                f"family {family}{dict(base)}: buckets not cumulative")
        if not math.isinf(edges[-1]):
            errors.append(f"family {family}{dict(base)}: missing +Inf bucket")
        elif slot["count"] is not None and values[-1] != slot["count"]:
            errors.append(
                f"family {family}{dict(base)}: +Inf bucket != _count")
        if slot["count"] is None:
            errors.append(f"family {family}{dict(base)}: missing _count")
        if slot["sum"] is None:
            errors.append(f"family {family}{dict(base)}: missing _sum")
    return errors


def parse_exposition(text: str) -> dict:
    """Parse exposition text into families; raises ``ValueError`` if invalid.

    Returns ``{family: {"help": str|None, "type": str, "samples":
    [(sample_name, labels_dict, value), ...]}}``.
    """
    families, errors = _parse(text)
    if errors:
        raise ValueError("; ".join(errors))
    return families


def validate_exposition(text: str) -> list[str]:
    """Strictly check exposition text; returns violations (empty = valid)."""
    _, errors = _parse(text)
    return errors
