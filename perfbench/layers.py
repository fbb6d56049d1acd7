"""The traced run: per-layer metrics for one workload.

The traced run replays the end-to-end traffic (same server, warm-up,
window and probes) and scrapes ``/metrics`` just before the window, just
after it and after the probes, never during the window.  It then times
calls into each layer's public functions from this process, on the same
generated inputs.  Spans are kept in memory and written to
``.perfbench/traces/<workload>-<seed>.jsonl`` when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from harness import Direct, closed_loop, quantile_ms

#: Length of each in-process replay of the window's streams.
INPROCESS_SECONDS = 3.0

#: Occupancy writes applied to the durable twin of a read-only workload.
TWIN_WRITES = 100

#: Sample requests per ``descend_frontier`` batch.
DESCENT_BATCH = 32


class Spans:
    """Spans kept in memory: ``with spans("layer.call"):`` or :meth:`add`."""

    def __init__(self):
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float, start: float | None = None,
            **attrs) -> None:
        with self._lock:
            self.records.append({"name": name, "start": start,
                                 "seconds": seconds, **attrs})

    @contextlib.contextmanager
    def __call__(self, name: str, **attrs):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start, start, **attrs)

    def seconds(self, name: str) -> list[float]:
        return [r["seconds"] for r in self.records if r["name"] == name]

    def p50_ms(self, name: str) -> float:
        return quantile_ms(self.seconds(name), 0.5)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")


class Scrape:
    """A parsed ``/metrics`` exposition: unlabeled series by sample name."""

    def __init__(self, text: str):
        from repro.obs import parse_exposition

        self.values: dict[str, float] = {}
        self.buckets: dict[str, list[tuple[float, float]]] = {}
        for family in parse_exposition(text).values():
            for sample, labels, value in family["samples"]:
                if sample.endswith("_bucket") and set(labels) == {"le"}:
                    self.buckets.setdefault(sample[:-7], []).append(
                        (float(labels["le"]), float(value)))
                elif not labels:
                    self.values[sample] = float(value)

    def delta(self, before: "Scrape") -> "Scrape":
        """Counts accrued since ``before`` (counters and histograms)."""
        out = Scrape("")
        out.values = {k: v - before.values.get(k, 0.0)
                      for k, v in self.values.items()}
        for name, buckets in self.buckets.items():
            old = dict(before.buckets.get(name, ()))
            out.buckets[name] = [(le, c - old.get(le, 0.0))
                                 for le, c in buckets]
        return out

    def counter(self, name: str) -> float:
        return self.values.get(f"{name}_total", 0.0)

    def quantile_ms(self, name: str, q: float) -> float:
        """Bucket-interpolated quantile of a seconds histogram, in ms."""
        buckets = sorted(self.buckets.get(name, ()))
        total = buckets[-1][1] if buckets else 0.0
        if total <= 0:
            return 0.0
        rank = q * total
        lo_edge, lo_count = 0.0, 0.0
        for edge, cumulative in buckets:
            if cumulative >= rank:
                if edge == float("inf"):
                    return lo_edge * 1e3
                span = cumulative - lo_count
                fraction = (rank - lo_count) / span if span else 1.0
                return (lo_edge + (edge - lo_edge) * fraction) * 1e3
            lo_edge, lo_count = edge, cumulative
        return lo_edge * 1e3

    def mean(self, name: str) -> float:
        count = self.values.get(f"{name}_count", 0.0)
        return self.values.get(f"{name}_sum", 0.0) / count if count else 0.0


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


# -- the server ----------------------------------------------------------------


def traced_window(run, spans: Spans) -> dict:
    """Serve, warm up, run the window and the probes; scrape around them."""
    server, _ = run.boot(1)
    with spans("warmup"):
        run.warm_up(server)
    before = Scrape(server.get("/metrics"))
    tally, _ = run.window(server)
    window = Scrape(server.get("/metrics")).delta(before)
    run.probes(server, tally)
    writes = Scrape(server.get("/metrics")).delta(before)
    server.kill()
    for op, values in tally.latency.items():
        for seconds in values:
            spans.add(f"http.{op}", seconds)
    return {
        "http_sample_p50_ms": quantile_ms(tally.latency["sample"], 0.5),
        "window": window,
        "writes": writes,
        "write_ids": sum(len(body["ids"]) for _, _, body in run.written),
    }


# -- in-process replays of the window's streams -------------------------------


def submitter(pool):
    """``fn(path, body)`` calling the pool directly, answering wire dicts."""

    def call(path: str, body: dict):
        if path == "/insert":
            return {"inserted": pool.insert_ids(body["ids"])}
        if path == "/retire":
            return {"retired": pool.retire_ids(body["ids"])}
        if path == "/sample":
            future = pool.submit("sample", (body["set"],), rounds=body["r"],
                                 seed=body["seed"])
        elif path == "/reconstruct":
            future = pool.submit("reconstruct", (body["set"],),
                                 exhaustive=True)
        elif path == "/contains":
            future = pool.submit("contains", (body["set"],), x=body["x"])
        else:
            future = pool.submit("sample_union", tuple(body["sets"]),
                                 seed=body["seed"])
        return future.result(60.0)

    return call


def procpool_layers(run, spans: Spans) -> dict:
    """Replay the window in-process on a freshly spawned pool.

    One pass goes through ``route_request`` on a ``ProcessService`` (the
    HTTP server minus HTTP), one straight into ``ProcessShardPool``.
    Both use the window's connection count and streams, writes paced as
    in the window, after the same warm-up.
    """
    from repro.service import BatchPolicy, ProcessService, ProcessShardPool
    from repro.service.http import route_request

    seconds = INPROCESS_SECONDS
    count = int(round(run.workload.writes_per_s * seconds))
    writes = run.inputs.write_plan(2 * count)
    pool = ProcessShardPool(
        run.copy(run.template, "pool"), run.workers, policy=BatchPolicy(),
        durable=run.workload.durable,
        sync="batch" if run.workload.durable else None)
    try:
        with spans("procpool.start"):
            pool.start()
        service = ProcessService(pool)

        def route():
            return Direct(lambda path, body: route_request(service, path,
                                                           body))

        run.warm_samples(route)
        passes = {}
        for name, connect, segment in (
                ("route", route, writes[:count]),
                ("submit", lambda: Direct(submitter(pool)), writes[count:])):
            streams, drain = run.streams(seconds, segment)
            tally, _ = closed_loop(connect, streams, seconds,
                                   run.inputs.check, drain=drain)
            run.tally(tally)
            passes[name] = tally.latency
    finally:
        pool.stop()
    for name, latencies in passes.items():
        for op, values in latencies.items():
            for value in values:
                spans.add(f"{name}.{op}", value)
    reads = [s for op, values in passes["submit"].items() if op != "write"
             for s in values]
    return {
        "route_sample_p50_ms": quantile_ms(passes["route"]["sample"], 0.5),
        "procpool.submit_p50_ms": quantile_ms(reads, 0.5),
        "procpool.submit_p99_ms": quantile_ms(reads, 0.99),
        "procpool.spawn_s": spans.seconds("procpool.start")[0],
    }


# -- direct layer calls --------------------------------------------------------


def import_seconds(run, spans: Spans, repeats: int = 3) -> float:
    """``import repro`` in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=run.env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        spans.add("import repro", float(out.stdout.strip()))
    return statistics.median(spans.seconds("import repro"))


def engine_layers(run, spans: Spans, batch_size: int) -> dict:
    """BloomDB load and sample_many, descent hot and cold, reconstruction."""
    from repro import BloomDB, SampleSpec
    from repro.core import DescentRequest, descend_frontier

    for _ in range(3):
        with spans("engine.load"):
            db = BloomDB.load(run.template)

    stream = run.inputs.read_stream(0)
    samples = [req[2] for req in (next(stream) for _ in range(2000))
               if req[0] == "sample"][:400]
    warm = [b for _, _, b in run.inputs.probe_samples(len(run.inputs.names))]
    db.sample_many([SampleSpec(b["set"], b["r"], True, seed=b["seed"])
                    for b in warm])
    for i in range(0, len(samples), batch_size):
        specs = [SampleSpec(b["set"], b["r"], True, seed=b["seed"])
                 for b in samples[i:i + batch_size]]
        with spans("engine.sample_many", size=len(specs)):
            db.sample_many(specs)

    plan = db.compiled_tree()
    requests = [DescentRequest(db.filter(b["set"]), b["r"], True, b["seed"])
                for b in samples[:DESCENT_BATCH]]
    config = db.config
    for _ in range(5):
        plan.clear_cache()
        for name in ("plan.descend_cold", "plan.descend_hot"):
            with spans(name, size=len(requests)):
                descend_frontier(plan, requests,
                                 empty_threshold=config.threshold,
                                 descent=config.descent,
                                 backend=config.descent_backend)

    fresh = BloomDB.load(run.copy(run.template, "fresh"))
    names = run.inputs.names
    before = rss_mb()
    with spans("store.reconstruct_first", set=names[0]):
        fresh.store.reconstruct_many([names[0]], exhaustive=True)
    rss_delta = rss_mb() - before
    for name in names[1:6]:
        with spans("store.reconstruct_warm", set=name):
            fresh.store.reconstruct_many([name], exhaustive=True)
    return {
        "engine.load_s": statistics.median(spans.seconds("engine.load")),
        "engine.sample_many_p50_ms": spans.p50_ms("engine.sample_many"),
        "plan.descend_hot_ms": spans.p50_ms("plan.descend_hot"),
        "plan.descend_cold_ms": spans.p50_ms("plan.descend_cold"),
        "store.reconstruct_first_ms":
            spans.seconds("store.reconstruct_first")[0] * 1e3,
        "store.reconstruct_warm_ms": spans.p50_ms("store.reconstruct_warm"),
        "store.reconstruct_rss_delta_mb": rss_delta,
    }


def durable_engine(run):
    """A durable dynamic engine directory to time the write layers on.

    A copy of the workload's own on ``write_churn``; otherwise a twin
    with the same namespace and seed holding the workload's first 16
    sets, because static engines take no occupancy writes.
    """
    from repro import BloomDB
    from repro.durability import open_durable

    if run.workload.durable:
        return run.copy(run.template, "durable")
    w = run.workload
    directory = run.dir / "twin"
    twin = BloomDB.plan(namespace_size=w.namespace, accuracy=0.9,
                        set_size=w.set_size, family="murmur3",
                        tree="dynamic", plan="compiled", mutation="delta",
                        seed=run.inputs.seed)
    db, _ = open_durable(directory, twin.config, sync="batch")
    for name in run.inputs.names[:16]:
        db.add_set(name, run.inputs.sets[name])
    db.checkpoint()
    db.wal.close()
    return directory


def write_layers(run, spans: Spans) -> dict:
    """Insert/retire/checkpoint, WAL append/flush, recovery replay.

    Recovery replays a copy of the killed server's directory on
    ``write_churn``, else the twin's directory after its writes.
    """
    from repro.durability import WriteAheadLog, recover_engine

    writes = run.writes or run.inputs.write_plan(TWIN_WRITES)
    directory = durable_engine(run)
    db, _ = recover_engine(directory, sync="batch")
    for i, (_, path, body) in enumerate(writes):
        ids = np.asarray(body["ids"], dtype=np.uint64)
        insert = path == "/insert"
        with spans("engine.insert" if insert else "engine.retire",
                   ids=len(ids)):
            (db.insert_ids if insert else db.retire_ids)(ids)
        if i + 1 == len(writes) // 2:
            with spans("engine.checkpoint"):
                db.checkpoint()
    db.wal.close()
    crashed = run.copy(run.serving if run.writes else directory, "crashed")
    with spans("recovery.recover_engine"):
        recovered, report = recover_engine(crashed, sync="batch")
    recovered.wal.close()

    wal = WriteAheadLog(run.dir / "wal-bench", sync="batch")
    for i, (_, path, body) in enumerate(run.written):
        op = {"/insert": "insert", "/retire": "retire"}.get(path, "add_set")
        with spans("wal.append", ids=len(body["ids"])):
            wal.append(op, np.asarray(body["ids"], dtype=np.uint64),
                       epoch=i + 1, name=body.get("set", ""))
        with spans("wal.flush"):
            wal.flush()
    wal.close()
    return {
        "engine.insert_p50_ms": spans.p50_ms("engine.insert"),
        "engine.retire_p50_ms": spans.p50_ms("engine.retire"),
        "engine.checkpoint_ms": spans.seconds("engine.checkpoint")[0] * 1e3,
        "recovery.replay_s": spans.seconds("recovery.recover_engine")[0],
        "recovery.records": report.records_replayed,
        "wal.append_p50_us": spans.p50_ms("wal.append") * 1e3,
        "wal.flush_p50_us": spans.p50_ms("wal.flush") * 1e3,
    }


def per_layer(run) -> dict:
    """The ``--trace 1`` run: every per-layer metric."""
    spans = Spans()
    try:
        served = traced_window(run, spans)
        window, writes = served["window"], served["writes"]
        pool = procpool_layers(run, spans)
        batch_mean = window.mean("batch_size")
        hits = window.counter("frontier_cache_hits")
        values = {
            "warmup_s": spans.seconds("warmup")[0],
            "import_s": import_seconds(run, spans),
            "aserver.self_p50_ms": (served["http_sample_p50_ms"]
                                    - pool.pop("route_sample_p50_ms")),
            **pool,
            "procpool.queue_p50_ms": window.quantile_ms("stage_queue_s", 0.5),
            "procpool.batch_assembly_p50_ms":
                window.quantile_ms("stage_batch_assembly_s", 0.5),
            "procpool.execute_p50_ms":
                window.quantile_ms("stage_execute_s", 0.5),
            "procpool.batch_size_mean": batch_mean,
            "procpool.rejected": window.counter("rejected"),
            **engine_layers(run, spans, max(1, round(batch_mean))),
            "plan.descent_p50_ms": window.quantile_ms("stage_descent_s", 0.5),
            "plan.frontier_hit_ratio": hits / max(
                hits + window.counter("frontier_cache_misses"), 1.0),
            "plan.frontier_repairs": window.counter("frontier_cache_repairs"),
            "wal.bytes_per_id_byte": writes.counter("wal_bytes")
            / max(8 * served["write_ids"], 1),
            "wal.fsyncs": writes.counter("wal_fsyncs"),
            **write_layers(run, spans),
        }
        # The queue stage runs from submit to dispatch, so it already
        # holds the batch-assembly wait.
        values["unaccounted_p50_ms"] = served["http_sample_p50_ms"] - (
            values["aserver.self_p50_ms"] + values["procpool.queue_p50_ms"]
            + values["procpool.execute_p50_ms"])
    finally:
        spans.write(run.dir.parent.parent / "traces"
                    / f"{run.args.workload}-{run.args.seed}.jsonl")
    units = {"_ms": "ms", "_us": "us", "_s": "s", "_mb": "MiB"}
    out = {}
    for name, value in values.items():
        unit = next((u for suffix, u in units.items()
                     if name.endswith(suffix)), "count")
        if name.endswith(("_ratio", "_mean", "bytes_per_id_byte")):
            unit = "ratio"
        out[name] = {"value": float(value), "unit": unit}
    return out
