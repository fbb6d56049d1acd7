"""Serving benchmark: HTTP end to end through ``repro serve --workers N``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same traffic and reports the per-layer metrics instead.  Progress and a
host fingerprint go to stdout first; the last line is the JSON result.
The exit code is 0 only when a result was printed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

from harness import (Server, Tally, adopt_orphans, closed_loop, quantile_ms,
                     stop_children, timed_call)

ROOT = pathlib.Path.cwd()
WORK = ROOT / ".perfbench"

#: Launches on fresh engine copies whose median ready time is ``setup_s``.
SETUP_BOOTS = 3

#: Relaunches on copies of the crashed directory; median is ``recovery_s``.
RECOVERY_BOOTS = 3

#: Latency samples the probes make up for after the window.
PROBES = {"reconstruct": 200, "write": 1000}

#: Seeded samples compared before and after the ``kill -9``.
KILL_PROBES = 32

#: Every how many window samples one is checked against the engine.
CHECK_EVERY = 8


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(message, flush=True)


def server_env() -> dict:
    """Environment of every interpreter the benchmark starts."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""),
                PYTHONUNBUFFERED="1",
                REPRO_NATIVE_CACHE=str(WORK / "native"))


def fingerprint(args, workers: int) -> dict:
    """Host and build facts; results with different ones are not compared."""
    import numpy

    import repro
    from repro.core import native_status
    from repro.core.native import resolve_backend

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpus": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "native_status": native_status(),
        "descent_backend": resolve_backend(None),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
    }


class Run:
    """One benchmark run: a workload's inputs, its servers, its checks."""

    def __init__(self, args, inputs, template: pathlib.Path, workers: int):
        self.args = args
        self.inputs = inputs
        self.workload = inputs.workload
        self.template = template
        self.workers = workers
        self.dir = WORK / "runs" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = server_env()
        self.live: Server | None = None   # the newest server launched
        self.failures: list[str] = []
        self.attempted = 0
        self.writes: list = []     # the window's planned writes
        self.written: list = []    # every write acknowledged

    def launch(self, directory: pathlib.Path) -> Server:
        """Serve ``directory``; the previous server must be stopped."""
        self.serving = directory
        self.live = Server(ROOT, self.workers,
                           self.workload.serve_args(directory),
                           directory.with_suffix(".log"), self.env)
        return self.live

    def copy(self, source: pathlib.Path, name: str) -> pathlib.Path:
        """Copy ``source`` and fsync the copy.

        A durable server fsyncs its checkpoint before it turns ready; a
        copy still in the page cache would add its own write-back to
        that wait, by however much the disk happens to be behind.
        """
        directory = self.dir / name
        shutil.copytree(source, directory)
        for path in sorted(directory.rglob("*"), reverse=True) + [directory]:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return directory

    def tally(self, tally: Tally) -> None:
        self.attempted += tally.attempted
        self.failures.extend(tally.failures)

    def call_all(self, server: Server, requests) -> list:
        """Send ``requests`` in order on one connection; returns answers."""
        tally = Tally()
        conn = server.connect()
        try:
            answers = [timed_call(conn, request, tally, self.inputs.check)
                       for request in requests]
        finally:
            conn.close()
        self.tally(tally)
        return answers

    def spread(self, connect, requests, on_answer=None,
               connections: int | None = None) -> Tally:
        """Send finite ``requests`` over ``connections`` (default
        ``workers``) connections, closed loop, so no worker sits idle."""
        n = connections or self.workers
        tally, _ = closed_loop(
            connect, [iter(requests[c::n]) for c in range(n)],
            0.0, self.inputs.check, on_answer=on_answer, drain=range(n))
        self.tally(tally)
        return tally

    def compare(self, what: str, bodies, got) -> None:
        """Count every answer differing from the direct engine's."""
        from workloads import expected_answers

        want = expected_answers(self.template, bodies)
        self.attempted += len(bodies)
        for body, g, w in zip(bodies, got, want):
            if g != w:
                self.failures.append(f"{what}: /sample {body} answered {g}, "
                                     f"direct engine gives {w}")

    # -- phases --------------------------------------------------------------

    def boot(self, boots: int) -> tuple[Server, list[float]]:
        """Launch ``boots`` servers on fresh copies; keep the last one."""
        setups = []
        for k in range(boots):
            if k:
                self.live.kill()
            self.launch(self.copy(self.template, f"engine{k}"))
            setups.append(self.live.setup_s)
        return self.live, setups

    def warm_up(self, server: Server) -> float:
        """Fill frontier caches, fault in pages, build object trees.

        After :meth:`warm_samples`, each worker gets one exhaustive
        ``/reconstruct`` (its first object-tree build) and one
        ``/sample-union``.
        """
        from repro.service import ConsistentHashRing

        started = time.perf_counter()
        self.warm_samples(server.connect)
        ring = ConsistentHashRing(self.workers, 64)
        first = {}
        for name in self.inputs.names:
            first.setdefault(ring.shard_for(name), name)
        extra = []
        for name in first.values():
            extra.append(("reconstruct", "/reconstruct",
                          {"set": name, "exhaustive": True}))
            extra.append(("union", "/sample-union",
                          {"sets": [name, self.inputs.names[0]], "seed": 1}))
        self.call_all(server, extra)
        return time.perf_counter() - started

    def warm_samples(self, connect) -> None:
        """Fill every worker's frontier LRU with seeded ``/sample`` calls.

        Each worker gets one request per set it owns, up to the LRU's
        size; the answers are compared with the saved engine's.
        """
        from repro.core.plan import DEFAULT_FRONTIER_CACHE
        from repro.service import ConsistentHashRing

        ring = ConsistentHashRing(self.workers, 64)
        owned = [0] * self.workers
        samples = []
        for request in self.inputs.probe_samples(len(self.inputs.names)):
            shard = ring.shard_for(request[2]["set"])
            if owned[shard] < DEFAULT_FRONTIER_CACHE:
                owned[shard] += 1
                samples.append(request)
        answered = []
        self.spread(connect, samples,
                    lambda request, answer: answered.append(
                        (request[2], answer)))
        self.compare("warm-up", [b for b, _ in answered],
                     [a for _, a in answered])

    def streams(self, seconds: float, writes: list):
        """The window's request streams and the index of the writer's."""
        streams = [self.inputs.read_stream(c) for c in range(self.workers)]
        if not writes:
            return streams, ()
        streams[-1] = paced(writes, seconds)
        return streams, (len(streams) - 1,)

    def window(self, server: Server) -> tuple[Tally, float]:
        """The timed closed loop: ``workers`` keep-alive connections."""
        checked = []

        def keep(request, answer):
            op, _, body = request
            if op == "write":
                self.written.append(request)
            elif (op == "sample" and not self.writes
                  and body["seed"] % CHECK_EVERY == 0):
                checked.append((body, answer))

        self.writes = self.inputs.write_plan(int(round(
            self.workload.writes_per_s * self.args.seconds)))
        streams, drain = self.streams(self.args.seconds, self.writes)
        tally, elapsed = closed_loop(
            server.connect, streams, self.args.seconds, self.inputs.check,
            on_answer=keep, drain=drain)
        self.tally(tally)
        if checked:
            self.compare("window", [b for b, _ in checked],
                         [a for _, a in checked])
        return tally, elapsed

    def probes(self, server: Server, tally: Tally) -> None:
        """Time what the window lacks.

        Reconstructions are topped up to ``PROBES["reconstruct"]`` over
        every connection, so their p90 has twenty samples beyond it.  Writes
        are probed only on workloads whose window sends none, on one
        connection: the leader applies writes one at a time, so a second
        writer would time its wait behind the first.
        """
        missing = PROBES["reconstruct"] - tally.count("reconstruct")
        if missing > 0:
            rng = self.inputs.rng(43)
            tally.merge(self.spread(
                server.connect,
                [self.inputs.request("reconstruct", rng)
                 for _ in range(missing)]))
        if not tally.count("write"):
            tally.merge(self.spread(
                server.connect, self.inputs.probe_writes(PROBES["write"]),
                lambda request, answer: self.written.append(request),
                connections=1))

    def crash(self, server: Server) -> list[float]:
        """``kill -9`` the tree, then relaunch on copies of its directory.

        Every relaunch recovers the same crashed state; the last one
        stays up (``self.live``) and must answer the seeded probes as
        before the kill.  Returns every relaunch-to-ready time.
        """
        probes = self.inputs.probe_samples(KILL_PROBES)
        before = self.call_all(server, probes)
        server.kill()
        crashed = self.serving
        recoveries = []
        for k in range(RECOVERY_BOOTS):
            if k:
                self.live.kill()
            self.launch(self.copy(crashed, f"crashed{k}"))
            recoveries.append(self.live.setup_s)
        after = self.call_all(self.live, probes)
        self.attempted += len(probes)
        for request, b, a in zip(probes, before, after):
            if a != b:
                self.failures.append(f"after kill -9: {request[2]} answered "
                                     f"{a}, before {b}")
        return recoveries

    def check_writes(self) -> None:
        """Every acknowledged write is in the recovered engine.

        A relaunched durable server checkpoints what it recovered before
        it turns ready, so the saved engine holds it.
        """
        from repro import BloomDB

        if not self.writes:
            return
        expected = set(int(v) for v in BloomDB.load(self.template).occupied)
        for _, path, body in self.written:
            if path == "/insert":
                expected.update(body["ids"])
            else:
                expected.difference_update(body["ids"])
        got = set(int(v) for v in BloomDB.load(self.serving).occupied)
        self.attempted += 1
        if got != expected:
            self.failures.append(
                f"occupancy after recovery: {len(expected - got)} acked "
                f"ids missing, {len(got - expected)} unexpected")

    def close(self) -> None:
        """Kill the newest server (a no-op once stopped), drop the files."""
        if self.live is not None:
            self.live.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


def paced(requests, seconds: float):
    """Yield ``requests`` evenly over 90% of ``seconds`` (sooner if late)."""
    start = time.perf_counter()
    gap = 0.9 * seconds / max(len(requests), 1)
    for i, request in enumerate(requests):
        delay = start + i * gap - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        yield request


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run: Run) -> dict:
    """The ``--trace 0`` run: every end-to-end metric."""
    server, setups = run.boot(SETUP_BOOTS)
    log(f"setup_s per launch: {[round(s, 3) for s in setups]}")
    log(f"warm-up: {run.warm_up(server):.3f}s")
    tally, elapsed = run.window(server)
    window_requests = tally.attempted
    pss = server.pss_mb()
    run.probes(server, tally)
    recoveries = run.crash(server)
    log(f"recovery_s per relaunch: {[round(s, 3) for s in recoveries]}")
    run.live.kill()
    run.check_writes()
    lat = tally.latency
    log(f"window: {elapsed:.3f}s, {window_requests} requests; latency "
        f"samples per op: { {op: len(v) for op, v in lat.items()} }")
    return {
        "throughput_rps": metric(window_requests / elapsed, "1/s"),
        "sample_p50_ms": metric(quantile_ms(lat["sample"], 0.50), "ms"),
        "sample_p99_ms": metric(quantile_ms(lat["sample"], 0.99), "ms"),
        "reconstruct_p50_ms": metric(
            quantile_ms(lat["reconstruct"], 0.50), "ms"),
        "reconstruct_p90_ms": metric(
            quantile_ms(lat["reconstruct"], 0.90), "ms"),
        "write_p50_ms": metric(quantile_ms(lat["write"], 0.50), "ms"),
        "write_p90_ms": metric(quantile_ms(lat["write"], 0.90), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "recovery_s": metric(statistics.median(recoveries), "s"),
        "fleet_pss_mb": metric(pss, "MiB"),
    }


def measure(args) -> tuple[Run, dict]:
    """Build or reuse the engine, then make the run ``--trace`` asks for."""
    from workloads import WORKLOADS, Inputs

    workers = len(os.sched_getaffinity(0))
    log("fingerprint " + json.dumps(fingerprint(args, workers)))
    inputs = Inputs(WORKLOADS[args.workload], args.seed)
    template, build_s = inputs.template(WORK / "engines")
    log(f"engine {template.name}: built in {build_s:.3f}s"
        if build_s else f"engine {template.name}: cached")
    run = Run(args, inputs, template, workers)
    try:
        if args.trace:
            from layers import per_layer

            return run, per_layer(run)
        return run, end_to_end(run)
    finally:
        run.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root of "
              f"a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    adopt_orphans()
    try:
        run, metrics = measure(args)
    finally:
        stop_children()
    for failure in run.failures[:20]:
        log(f"FAILED {failure}")
    error_rate = len(run.failures) / max(run.attempted, 1)
    log(f"error_rate {error_rate} ({len(run.failures)} of {run.attempted})")
    print(json.dumps({"correct": not run.failures,
                      "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
