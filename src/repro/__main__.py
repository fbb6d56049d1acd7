"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``plan``
    Resolve BloomSampleTree parameters (m, depth, M_perp, memory) from a
    namespace, set size and desired accuracy — the Section 5.4 planner.

``paper-tables``
    Print the reproduction of the paper's Tables 2 and 3 (parameter
    choices), with the paper's own m values for comparison.

``demo``
    A miniature end-to-end run through the :class:`~repro.api.BloomDB`
    facade: plan an engine, store a random set, sample from it and
    reconstruct it.

``sample``
    Draw ``r`` samples from a stored set.  Either load a saved engine
    directory (``--db``) or build an ephemeral engine around a random
    hidden set.

``reconstruct``
    Recover a stored set's contents, against a saved or ephemeral engine.

``bench``
    Run the benchmark harness (:mod:`repro.bench`): cached, scenario-based
    timing of the vectorized sampling/reconstruction kernels, emitting
    ``BENCH_sampling.json``, ``BENCH_reconstruction.json`` and
    ``BENCH_serving.json`` (plus a ``BENCH_history.json`` trajectory
    entry per run).

``serve``
    Boot the serving subsystem (:mod:`repro.service`): ``--workers N``
    shard worker *processes* attached to one shared mmap snapshot,
    micro-batching their queues, behind an asyncio HTTP/JSON front end;
    writes route through the leader and fan out over per-worker WALs.
    ``--smoke`` boots on a free port, checks seeded answers and a write
    cycle over HTTP and exits non-zero on any error — the CI liveness
    check.  ``--durable DIR`` makes the leader journal every write
    (:mod:`repro.durability`) and recovers the directory — snapshot load
    + WAL replay — on every start; SIGTERM drains, promotes a final
    snapshot and marks every log clean.

``recover``
    Recover a durable engine directory and print the JSON recovery
    report; ``--inspect`` summarises the WAL read-only,
    ``--verify`` CRC-checks the snapshot blobs, ``--checkpoint`` folds
    the replayed state into a fresh snapshot.

``compile``
    Compile a saved engine directory into the flat-array plan format
    (:mod:`repro.core.plan`): ``plan.bst`` + ``sets.bst``, raw buffers
    that load via ``np.memmap`` — cold starts become O(mmap) and every
    serving shard shares one read-only tree mapping.

All engine-backed commands take ``--tree static|pruned|dynamic`` and
``--family simple|murmur3|md5`` — the variant is purely a config choice.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.logs import LOG_LEVELS, configure_logging, get_logger

_log = get_logger("cli")


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.design import plan_tree

    params = plan_tree(args.namespace, args.set_size, args.accuracy,
                       k=args.k, cost_ratio=args.cost_ratio)
    print(f"namespace M        : {params.namespace_size}")
    print(f"query set size n   : {params.query_set_size}")
    print(f"target accuracy    : {params.target_accuracy}")
    print(f"filter bits m      : {params.m}")
    print(f"hash functions k   : {params.k}")
    print(f"tree depth         : {params.depth}")
    print(f"leaf capacity M_perp: {params.leaf_capacity}")
    print(f"tree nodes         : {params.num_nodes}")
    print(f"tree memory        : {params.memory_mb:.3f} MB")
    return 0


def _cmd_paper_tables(args: argparse.Namespace) -> int:
    from repro.experiments.formatting import format_rows
    from repro.experiments.tables import parameter_rows

    columns = ["accuracy", "m", "depth", "M_perp", "memory_mb", "paper_m",
               "m_ratio"]
    print(format_rows(parameter_rows(1_000_000), columns,
                      title="Table 2 (n=1e3, M=1e6)"))
    print()
    print(format_rows(parameter_rows(10_000_000), columns,
                      title="Table 3 (n=1e3, M=1e7)"))
    return 0


def _open_or_build_db(args: argparse.Namespace):
    """Load a saved engine, or build an ephemeral one with a hidden set.

    Returns ``(db, set_name, truth)`` where ``truth`` is the hidden set
    for ephemeral engines (``None`` for loaded ones — the whole point of
    the paper is that the raw sets are not available).
    """
    import pathlib

    from repro.api import BloomDB
    from repro.workloads.generators import uniform_query_set

    if args.db is not None:
        if not (pathlib.Path(args.db) / "engine.json").exists():
            raise SystemExit(f"no saved engine at {args.db} "
                             f"(expected an engine.json inside)")
        _warn_ignored_build_args(args)
        db = BloomDB.load(args.db)
        name = args.set or (db.names()[0] if db.names() else None)
        if name is None:
            raise SystemExit(f"engine at {args.db} holds no sets")
        if name not in db:
            raise SystemExit(
                f"no set named {name!r} in {args.db} "
                f"(available: {', '.join(db.names())})")
        return db, name, None

    db = BloomDB.plan(
        namespace_size=args.namespace,
        accuracy=args.accuracy,
        set_size=args.set_size,
        family=args.family,
        tree=args.tree,
        seed=args.seed,
    )
    secret = uniform_query_set(args.namespace, args.set_size, rng=args.seed)
    name = args.set or "hidden"
    db.add_set(name, secret)
    return db, name, set(secret.tolist())


#: Engine-construction flags (and their defaults) that ``--db`` makes moot:
#: a loaded engine's configuration comes entirely from its engine.json.
_BUILD_ARG_DEFAULTS = {
    "namespace": 50_000,
    "set_size": 300,
    "accuracy": 0.95,
    "tree": "static",
    "family": "murmur3",
    "seed": 1,
}


def _warn_ignored_build_args(args: argparse.Namespace) -> None:
    """Tell the user which build flags a ``--db`` load does not honour."""
    ignored = [f"--{name.replace('_', '-')}"
               for name, default in _BUILD_ARG_DEFAULTS.items()
               if getattr(args, name) != default]
    if ignored:
        print(f"warning: {', '.join(ignored)} ignored — the engine at "
              f"{args.db} keeps the configuration it was saved with",
              file=sys.stderr)


def _cmd_demo(args: argparse.Namespace) -> int:
    db, name, truth = _open_or_build_db(args)
    print(db)

    batch = db.sample(name, r=10)
    print(f"10 samples from {name!r}: {batch.values}")
    cost = (f"({batch.ops.intersections} intersections, "
            f"{batch.ops.memberships} membership queries)")
    if truth is not None:
        hits = sum(v in truth for v in batch.values)
        print(f"{hits}/{len(batch.values)} are true elements {cost}")
    else:
        print(f"cost: {cost}")

    result = db.reconstruct(name)
    line = (f"reconstruction: {result.size} elements recovered, "
            f"{result.ops.memberships} membership queries "
            f"(namespace {db.config.namespace_size})")
    if truth is not None:
        recovered = len(truth & set(result.elements.tolist()))
        line += f" — {recovered}/{len(truth)} of the true set"
    print(line)
    if args.save_db:
        path = db.save(args.save_db)
        print(f"engine saved to {path}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.rounds <= 0:
        raise SystemExit("--rounds must be positive")
    db, name, truth = _open_or_build_db(args)
    result = db.sample(name, r=args.rounds, replacement=not args.distinct)
    print(f"{len(result.values)} samples from {name!r}: {result.values}")
    if result.shortfall:
        print(f"shortfall: {result.shortfall} paths ended in "
              f"false-positive dead ends")
    if truth is not None:
        hits = sum(v in truth for v in result.values)
        print(f"{hits}/{len(result.values)} are true elements of the "
              f"hidden set")
    print(f"cost: {result.ops.intersections} intersections + "
          f"{result.ops.memberships} membership queries "
          f"({result.ops.nodes_visited} tree nodes)")
    if args.save_db:
        path = db.save(args.save_db)
        print(f"engine saved to {path}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    db, name, truth = _open_or_build_db(args)
    result = db.reconstruct(name, exhaustive=args.exhaustive)
    mode = "exhaustive" if args.exhaustive else "estimator-guided"
    print(f"reconstruction of {name!r} ({mode}): "
          f"{result.size} elements recovered")
    if truth is not None:
        recovered = len(truth & set(result.elements.tolist()))
        print(f"{recovered}/{len(truth)} of the true set recovered")
    print(f"cost: {result.ops.intersections} intersections + "
          f"{result.ops.memberships} membership queries")
    if args.save_db:
        path = db.save(args.save_db)
        print(f"engine saved to {path}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import time

    from repro.api import BloomDB

    path = pathlib.Path(args.db)
    engine_file = path / "engine.json"
    if not engine_file.exists():
        raise SystemExit(f"no saved engine at {args.db} "
                         f"(expected an engine.json inside)")
    if (path / "plan.bst").exists() and not args.force:
        print(f"{args.db} already holds a compiled plan "
              f"(use --force to recompile)")
        return 0

    start = time.perf_counter()
    db = BloomDB.load(args.db)
    plan = db.compiled_tree()
    plan.save(path / "plan.bst")
    db.store.save_compiled(path / "sets.bst")
    payload = json.loads(engine_file.read_text())
    payload["config"]["plan"] = "compiled"
    engine_file.write_text(json.dumps(payload, indent=2))
    elapsed = time.perf_counter() - start

    plan_bytes = (path / "plan.bst").stat().st_size
    sets_bytes = (path / "sets.bst").stat().st_size
    print(f"compiled {plan.num_nodes} nodes "
          f"({plan.backend} tree, depth {plan.depth}) in {elapsed:.2f}s")
    print(f"plan.bst: {plan_bytes / 1e6:.2f} MB  "
          f"sets.bst: {sets_bytes / 1e6:.2f} MB ({len(db.names())} sets)")
    print(f"engine.json now says plan=\"compiled\"; subsequent "
          f"`--db {args.db}` loads mmap these buffers")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    """Print the cross-PR speedup trajectory table from BENCH_history.json.

    One column per recorded run, one row per ``(scenario, metric)``
    headline, so a perf regression is visible as a drop along its row
    rather than only against the immediately preceding run.  With
    ``--csv PATH`` the same trajectory is exported long-form (one line
    per run x scenario x metric) for spreadsheets/plots.
    """
    import pathlib

    from repro.bench.runner import HISTORY_FILE, load_history

    path = pathlib.Path(args.output_dir) / HISTORY_FILE
    if not path.exists():
        print(f"error: no benchmark history at {path} — run "
              f"`repro bench` (or `repro bench --quick`) first to record "
              f"a baseline", file=sys.stderr)
        return 1
    history = load_history(path)
    runs = history["runs"]
    if not runs:
        print(f"no runs recorded in {path}")
        return 1

    # (scenario, metric) -> one cell per run ("-" where the run lacks it).
    trajectories: dict[tuple[str, str], list[str]] = {}
    for run_ix, run in enumerate(runs):
        for scenario, summary in run["scenarios"].items():
            for key, value in summary.items():
                if not key.startswith(("speedup_", "throughput_")):
                    continue
                cells = trajectories.setdefault(
                    (scenario, key), ["-"] * len(runs))
                cells[run_ix] = f"{value:g}"
    if not trajectories:
        print("history holds no speedup/throughput headline values")
        return 1

    if args.csv:
        csv_path = pathlib.Path(args.csv)
        lines = ["run,generated_at,version,mode,scenario,metric,value"]
        for run_ix, run in enumerate(runs):
            for scenario in sorted(run["scenarios"]):
                for key, value in sorted(run["scenarios"][scenario].items()):
                    if key.startswith(("speedup_", "throughput_")):
                        lines.append(
                            f"{run_ix},{run.get('generated_at', '')},"
                            f"{run['version']},{run['mode']},"
                            f"{scenario},{key},{value}")
        csv_path.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines) - 1} rows to {csv_path}")

    headers = [f"v{run['version']}[{run['mode'][0]}]" for run in runs]
    label_w = max(len(f"{s} {k}") for s, k in trajectories)
    col_ws = [
        max(len(headers[i]),
            max(len(cells[i]) for cells in trajectories.values()))
        for i in range(len(runs))
    ]
    print(f"{len(runs)} run(s); latest "
          f"{runs[-1].get('generated_at', '?')} "
          f"(mode column: [q]uick / [f]ull)")
    print(f"  {'':{label_w}}  "
          + "  ".join(f"{h:>{w}}" for h, w in zip(headers, col_ws)))
    for (scenario, key), cells in sorted(trajectories.items()):
        print(f"  {f'{scenario} {key}':<{label_w}}  "
              + "  ".join(f"{c:>{w}}" for c, w in zip(cells, col_ws)))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import BENCH_FILES, SCENARIOS, BenchRunner
    from repro.bench.scenarios import scenario_names

    if args.compare:
        return _cmd_bench_compare(args)
    if args.list:
        for name in scenario_names():
            scenario = SCENARIOS[name]
            print(f"{name:26s} [{scenario.kind}] {scenario.title}")
            print(f"{'':26s} maps to: {scenario.maps_to}")
        return 0

    names = args.scenario or None
    runner = BenchRunner(
        cache_dir=args.cache_dir,
        output_dir=args.output_dir,
        quick=args.quick,
        force=args.force,
    )
    try:
        payloads = runner.run(names)
    except ValueError as exc:
        raise SystemExit(str(exc))

    for kind, payload in sorted(payloads.items()):
        print(f"== {kind} ({payload['mode']}) ==")
        for name, entry in payload["scenarios"].items():
            status = "cached" if entry["cached"] else \
                f"ran in {entry['elapsed_s']:.2f}s"
            line = f"  {name:26s} {status}"
            result = entry["result"]
            for key in ("speedup_batch_vs_scalar_loop",
                        "speedup_batch_vs_vector_loop",
                        "speedup_coalesced_vs_naive"):
                if key in result:
                    what, against = key.removeprefix("speedup_").split("_vs_")
                    line += f"  {what} {result[key]}x vs {against}"
                    break
            print(line)
        path = runner.output_dir / BENCH_FILES[kind]
        print(f"  -> {path}")
    print(f"  history -> {runner.output_dir / 'BENCH_history.json'}")
    return 0


def _build_server(args):
    """Construct the pool + asyncio front end ``repro serve`` runs.

    ``--db`` serves a saved compiled-plan engine directory in place
    (``EPOCH`` / generation links / per-worker logs live next to the
    snapshot); ``--durable DIR`` open-or-creates a durable leader there,
    seeded from ``--db`` or an ephemeral engine on first run; otherwise
    an ephemeral engine is built, persisted to a temp directory and
    served from it.  ``--replicas R`` (R > 1) serves each shard from an
    R-member replica group with supervised failover
    (:class:`~repro.replication.ReplicatedShardPool`); ``--ack quorum``
    gates write acks on majority application.
    """
    import pathlib
    import tempfile

    from repro.api import BloomDB, DurabilityError
    from repro.durability.recovery import refuse_ring_layout
    from repro.service import (
        AsyncReproServer,
        BatchPolicy,
        ProcessService,
        ProcessShardPool,
    )

    if args.replicas > 1:
        from repro.replication import ReplicatedShardPool

        def make_pool(directory, **kwargs):
            return ReplicatedShardPool(
                directory, args.workers, replication=args.replicas,
                ack=args.ack, heartbeat_s=args.heartbeat_ms / 1000.0,
                policy=policy, **kwargs)
    else:
        def make_pool(directory, **kwargs):
            return ProcessShardPool(directory, args.workers,
                                    policy=policy, **kwargs)

    try:
        policy = BatchPolicy(max_batch=args.max_batch,
                             max_delay_ms=args.max_delay_ms,
                             queue_depth=args.queue_depth)
        if args.durable is not None:
            path = pathlib.Path(args.durable)
            refuse_ring_layout(path)
            if not (path / "engine.json").exists():
                template = (BloomDB.load(args.db) if args.db is not None
                            else _ephemeral_engine(args))
                _seed_durable_engine(path, template, args.wal_sync)
            elif args.db is not None:
                _log.warning("db_ignored", path=str(path),
                             reason="directory already holds an engine")
            pool = make_pool(path, durable=True, sync=args.wal_sync)
            report = pool.recovery_report
            _log.info("leader_recovered", path=report.path,
                      epoch=report.recovered_epoch,
                      replayed=report.records_replayed,
                      clean=report.clean_shutdown,
                      elapsed_s=round(report.elapsed_s, 3))
        elif args.db is not None:
            _warn_ignored_build_args(args)
            if not (pathlib.Path(args.db) / "engine.json").exists():
                raise SystemExit(f"no saved engine at {args.db} "
                                 f"(expected an engine.json inside)")
            pool = make_pool(args.db)
        else:
            directory = pathlib.Path(tempfile.mkdtemp(prefix="repro-serve-"))
            _ephemeral_engine(args).save(directory)
            pool = make_pool(directory)
    except (ValueError, DurabilityError) as exc:
        raise SystemExit(f"error: {exc}")
    return AsyncReproServer(ProcessService(pool), host=args.host,
                            port=args.port)


def _seed_durable_engine(directory, template, sync: str) -> None:
    """Persist ``template`` as a durable leader engine at ``directory``.

    The config is upgraded the way :func:`~repro.durability.open_durable`
    upgrades it — durability on, compiled plan, delta mutation — with
    the template's sets and occupancy carried over; the pool then
    recovers it through the normal ``open_durable`` path.
    """
    import dataclasses

    from repro.api import BloomDB

    config = dataclasses.replace(
        template.config, durability="wal", plan="compiled",
        mutation="delta", wal_sync=sync)
    if template.spec.requires_occupied:
        db = BloomDB(config, params=template.params,
                     family=template.family, occupied=template.occupied)
    else:
        db = BloomDB(config, params=template.params,
                     family=template.family, tree=template.tree)
    for name in template.names():
        db.store.install(name, template.filter(name).copy())
    db.save(directory)


def _ephemeral_engine(args):
    """A compiled-plan engine with ``--num-sets`` synthetic sets."""
    from repro.api import BloomDB
    from repro.workloads.generators import uniform_query_set

    db = BloomDB.plan(
        namespace_size=args.namespace,
        accuracy=args.accuracy,
        set_size=args.set_size,
        family=args.family,
        tree=args.tree,
        seed=args.seed,
        plan="compiled",
        mutation="delta",
    )
    for i in range(args.num_sets):
        ids = uniform_query_set(args.namespace, args.set_size,
                                rng=args.seed + i)
        db.add_set(f"set{i:02d}", ids)
    return db


def _run_process_smoke(server, args) -> int:
    """Boot on a free port, check the served answers, exit 1 on any error.

    Everything goes over HTTP against the running server:

    1. seeded samples of every set, compared (values *and* OpCounters)
       with the leader engine's direct answers;
    2. a concurrent mixed load of ``--requests`` sample / contains /
       reconstruct / union requests, which must all succeed;
    3. writes: ``/insert`` ids at the top of the namespace, ``/add-set``
       a set holding them and reconstruct it exhaustively; on trees that
       can remove ids, ``/retire`` them and check the set reconstructs
       empty;
    4. ``/compact`` (and ``/checkpoint`` on durable pools) must leave a
       seeded sample bit-identical.
    """
    import random
    from concurrent.futures import ThreadPoolExecutor

    from repro.api.batch import SampleSpec
    from repro.service import HTTPServiceClient
    from repro.service.client import HTTPError, encode_result

    failures: list[str] = []
    with server:
        pool = server.client.pool
        print(f"smoke: serving on {server.url} "
              f"({pool.num_workers} worker processes)")
        http = HTTPServiceClient(server.url)
        leader = pool.leader
        namespace = leader.config.namespace_size
        names = sorted(leader.store.names())
        if not names:
            failures.append("the served engine holds no sets")
        for i, name in enumerate(names):
            got = http.sample(name, r=8, seed=1000 + i)
            spec = SampleSpec(name, 8, True, seed=1000 + i, key="0")
            want = encode_result(leader.sample_many([spec]).ordered()[0])
            if got != want:
                failures.append(f"sample({name}) diverged from the "
                                f"leader engine")

        def one_request(i: int) -> None:
            name = names[i % len(names)]
            roll = random.Random(args.seed + i).random()
            if roll < 0.70:
                http.sample(name, r=1 + i % 8, seed=i)
            elif roll < 0.90:
                http.contains(name, i % namespace)
            elif roll < 0.98:
                http.reconstruct(name)
            else:
                http.sample_union([name, names[(i + 1) % len(names)]],
                                  seed=i)

        with ThreadPoolExecutor(max_workers=8) as executor:
            futures = [executor.submit(one_request, i)
                       for i in range(args.requests if names else 0)]
            for i, future in enumerate(futures):
                try:
                    future.result(60)
                except Exception as exc:  # noqa: BLE001 - report them all
                    failures.append(
                        f"request {i}: {type(exc).__name__}: {exc}")

        ids = [namespace - 1 - i for i in range(16)]
        if http.insert_ids(ids).get("inserted") != len(ids):
            failures.append("insert_ids failed")
        try:
            http.add_set("smoke", ids)
        except HTTPError as exc:
            if exc.status != 409:  # durable reruns already hold the set
                raise
        recon = http.reconstruct("smoke", exhaustive=True)
        if sorted(set(recon["elements"])) != sorted(ids):
            failures.append(f"reconstruct(smoke) -> {recon['elements']}")
        if leader.spec.supports_remove:
            if http.retire_ids(ids).get("retired") != len(ids):
                failures.append("retire_ids failed")
            recon = http.reconstruct("smoke", exhaustive=True)
            if recon["elements"]:
                failures.append(f"retired ids still reconstruct: "
                                f"{recon['elements']}")
        if names:
            before = http.sample(names[0], r=8, seed=2)
            http.compact()
            if http.sample(names[0], r=8, seed=2) != before:
                failures.append("compaction changed a seeded sample")
            if pool.durable:
                http.checkpoint()
                if http.sample(names[0], r=8, seed=2) != before:
                    failures.append("checkpoint changed a seeded sample")
        workers = http.workers()["workers"]
        if not all(w["alive"] for w in workers):
            failures.append(f"dead workers: {workers}")
        counters = http.stats()["counters"]
        served = counters.get("served_total", 0)
        errors = counters.get("errors_total", 0)
        print(f"smoke: {served} served, {errors} errors")
    for failure in failures[:10]:
        print(f"smoke: FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else
                       f"OK ({len(names)} sets verified bit-identical, "
                       f"{args.requests} mixed requests)"))
    return 1 if failures else 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from repro.api import DurabilityError
    from repro.core.mmapio import CorruptBlobError
    from repro.durability import CorruptWalError, inspect_wal, recover_engine

    configure_logging(args.log_level)
    try:
        if args.inspect:
            print(json.dumps(inspect_wal(args.path), indent=2))
            return 0
        db, report = recover_engine(args.path, verify=args.verify)
        if args.checkpoint:
            summary = db.checkpoint()
            _log.info("checkpointed", path=summary["path"],
                      epoch=summary["epoch"],
                      wal_segments_removed=summary["wal_segments_removed"])
        db.wal.mark_clean()
        db.wal.close()
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    except (CorruptWalError, CorruptBlobError, DurabilityError) as exc:
        raise SystemExit(f"recovery failed: {exc}")
    print(json.dumps(report.describe(), indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve over HTTP: process pool + asyncio front end."""
    import signal
    import threading

    configure_logging(args.log_level)
    if args.smoke:
        args.port = 0
        return _run_process_smoke(_build_server(args), args)
    server = _build_server(args)
    pool = server.client.pool
    print(f"serving {len(pool.leader.store)} sets with "
          f"{pool.num_workers} worker processes "
          f"(shared mmap snapshot, max_batch={pool.policy.max_batch}, "
          f"max_delay_ms={pool.policy.max_delay_ms}"
          + (f", replication={args.replicas} ack={args.ack}"
             if args.replicas > 1 else "")
          + (", durable" if pool.durable else "") + ")")
    print("endpoints: GET /healthz /readyz /stats /metrics /trace "
          "/workers; POST /sample /reconstruct /contains /sample-union "
          "/sample-intersection /add-set /insert /retire /compact "
          "/checkpoint")

    # Graceful shutdown: SIGTERM/SIGINT stop the accept loop, drain the
    # workers, promote a final snapshot and (durable pools) write the
    # clean-shutdown markers, so the next start replays nothing.  The
    # handler only sets an event — all real work happens on the main
    # thread, where it is safe.
    stop_event = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
        stop_event.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _request_stop)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass
    server.start()
    print(f"listening on {server.url}")
    try:
        stop_event.wait()
        print("shutting down (draining + final snapshot promotion)")
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.close()
    return 0


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by the engine-backed commands.

    Tree choices come from the live backend registry (backends added via
    :func:`repro.core.backend.register_backend` are accepted without
    touching the CLI); family choices come from the one
    :data:`repro.core.hashing.FAMILY_NAMES` constant.
    """
    from repro.api.config import backends_available, families_available

    parser.add_argument("--db", default=None,
                        help="saved engine directory (BloomDB.save)")
    parser.add_argument("--set", default=None,
                        help="stored set name (default: first stored set, "
                             "or 'hidden' for ephemeral engines)")
    defaults = _BUILD_ARG_DEFAULTS
    parser.add_argument("--namespace", "-M", type=int,
                        default=defaults["namespace"])
    parser.add_argument("--set-size", "-n", type=int,
                        default=defaults["set_size"])
    parser.add_argument("--accuracy", "-a", type=float,
                        default=defaults["accuracy"])
    parser.add_argument("--tree", choices=backends_available(),
                        default=defaults["tree"])
    parser.add_argument("--family", choices=families_available(),
                        default=defaults["family"])
    parser.add_argument("--seed", type=int, default=defaults["seed"])
    parser.add_argument("--save-db", default=None,
                        help="persist the engine to this directory after "
                             "the command")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Sampling and reconstruction using Bloom filters "
                    "(ICDE 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="resolve tree parameters")
    plan.add_argument("--namespace", "-M", type=int, required=True)
    plan.add_argument("--set-size", "-n", type=int, required=True)
    plan.add_argument("--accuracy", "-a", type=float, default=0.9)
    plan.add_argument("--k", type=int, default=3)
    plan.add_argument("--cost-ratio", type=float, default=None)
    plan.set_defaults(func=_cmd_plan)

    tables = sub.add_parser("paper-tables",
                            help="print the Tables 2/3 reproduction")
    tables.set_defaults(func=_cmd_paper_tables)

    demo = sub.add_parser("demo", help="tiny end-to-end demonstration")
    _add_engine_args(demo)
    demo.set_defaults(func=_cmd_demo)

    sample = sub.add_parser(
        "sample", help="draw samples from a stored set via the engine")
    _add_engine_args(sample)
    sample.add_argument("--rounds", "-r", type=int, default=8,
                        help="samples to draw in one tree pass")
    sample.add_argument("--distinct", action="store_true",
                        help="sample without replacement")
    sample.set_defaults(func=_cmd_sample)

    reconstruct = sub.add_parser(
        "reconstruct", help="recover a stored set's contents")
    _add_engine_args(reconstruct)
    reconstruct.add_argument("--exhaustive", action="store_true",
                             help="disable estimator pruning (exact recall)")
    reconstruct.set_defaults(func=_cmd_reconstruct)

    serve = sub.add_parser(
        "serve", help="serve sampling/reconstruction over HTTP "
                      "(worker-process pool + micro-batching)")
    from repro.api.config import backends_available, families_available
    defaults = _BUILD_ARG_DEFAULTS
    serve.add_argument("--db", default=None,
                       help="saved compiled-plan engine directory to "
                            "serve in place (see `repro compile`)")
    serve.add_argument("--namespace", "-M", type=int,
                       default=defaults["namespace"])
    serve.add_argument("--set-size", "-n", type=int,
                       default=defaults["set_size"])
    serve.add_argument("--accuracy", "-a", type=float,
                       default=defaults["accuracy"])
    serve.add_argument("--tree", choices=backends_available(),
                       default=defaults["tree"])
    serve.add_argument("--family", choices=families_available(),
                       default=defaults["family"])
    serve.add_argument("--seed", type=int, default=defaults["seed"])
    serve.add_argument("--num-sets", type=int, default=8,
                       help="synthetic sets for ephemeral engines "
                            "(default: 8)")
    serve.add_argument("--max-batch", type=int, default=128,
                       help="dispatch when this many requests coalesce")
    serve.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="max wait for a batch to fill (default: 2ms)")
    serve.add_argument("--queue-depth", type=int, default=1024,
                       help="per-worker admission-control bound")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="shard worker processes attached to one "
                            "shared mmap snapshot; writes route through "
                            "the leader and fan out over per-worker "
                            "WALs (default: 1)")
    serve.add_argument("--replicas", type=int, default=1, metavar="R",
                       help="serve each shard from an "
                            "R-member replica group (WAL-shipping "
                            "followers, heartbeat supervision, automatic "
                            "leader failover; default: 1 — no "
                            "replication)")
    serve.add_argument("--ack", choices=("leader", "quorum"),
                       default="leader",
                       help="write acknowledgement policy for --replicas: "
                            "leader (records durable in every replica "
                            "log, default) or quorum (additionally "
                            "applied by a majority of each group)")
    serve.add_argument("--heartbeat-ms", type=float, default=250.0,
                       help="replica heartbeat interval for --replicas "
                            "(drives idle log tailing, hang detection "
                            "and quorum acks; default: 250)")
    serve.add_argument("--durable", default=None, metavar="DIR",
                       help="durable engine directory: initialised on "
                            "first run (from --db or an ephemeral "
                            "engine), recovered — snapshot + WAL replay — "
                            "on every later run; the leader journals "
                            "every write before it is acknowledged")
    serve.add_argument("--wal-sync", choices=("always", "batch", "off"),
                       default="batch",
                       help="WAL fsync policy for --durable (default: "
                            "batch — flushed per append, fsynced at "
                            "rotation/checkpoint; kill-9 safe)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8650,
                       help="HTTP port (0 picks a free one)")
    serve.add_argument("--smoke", action="store_true",
                       help="boot on a free port, check seeded answers "
                            "against the engine, fire --requests mixed "
                            "requests and a write cycle over HTTP, exit "
                            "non-zero on any error")
    serve.add_argument("--requests", type=int, default=200,
                       help="smoke-mode request count (default: 200)")
    serve.add_argument("--log-level", choices=LOG_LEVELS, default="info",
                       help="structured (key=value) log verbosity on "
                            "stderr (default: info)")
    serve.set_defaults(func=_cmd_serve)

    bench = sub.add_parser(
        "bench", help="run the cached benchmark harness (repro.bench)")
    bench.add_argument("--quick", action="store_true",
                       help="smoke scale: seconds instead of minutes")
    bench.add_argument("--scenario", action="append", default=None,
                       metavar="NAME",
                       help="run only this scenario (repeatable; "
                            "default: all)")
    bench.add_argument("--list", action="store_true",
                       help="list registered scenarios and exit")
    bench.add_argument("--compare", action="store_true",
                       help="print the per-scenario speedup trajectory "
                            "table recorded in BENCH_history.json and exit")
    bench.add_argument("--csv", default=None, metavar="PATH",
                       help="with --compare: also export the trajectory "
                            "long-form (run,scenario,metric,value) to PATH")
    bench.add_argument("--force", action="store_true",
                       help="ignore cached results and re-measure")
    bench.add_argument("--cache-dir", default=".bench_cache",
                       help="result cache directory (default: .bench_cache)")
    bench.add_argument("--output-dir", default=".",
                       help="where BENCH_*.json are written (default: .)")
    bench.set_defaults(func=_cmd_bench)

    compile_cmd = sub.add_parser(
        "compile",
        help="compile a saved engine into the mmap-loadable flat-array "
             "plan (plan.bst + sets.bst; flips engine.json to "
             "plan=\"compiled\")")
    compile_cmd.add_argument("--db", required=True,
                             help="saved engine directory (BloomDB.save)")
    compile_cmd.add_argument("--force", action="store_true",
                             help="recompile even if plan.bst exists")
    compile_cmd.set_defaults(func=_cmd_compile)

    recover = sub.add_parser(
        "recover",
        help="recover a durable engine directory (snapshot load + WAL "
             "replay) and print the recovery report as JSON")
    recover.add_argument("path",
                         help="durable engine directory (open_durable, "
                              "or serve --durable DIR)")
    recover.add_argument("--inspect", action="store_true",
                         help="read-only: summarise the WAL without "
                              "replaying or modifying anything (safe on a "
                              "live directory)")
    recover.add_argument("--verify", action="store_true",
                         help="additionally check every snapshot blob "
                              "segment against its recorded CRC32 "
                              "(reads all bytes)")
    recover.add_argument("--checkpoint", action="store_true",
                         help="after replay, fold the recovered state "
                              "into a fresh snapshot and truncate the WAL")
    recover.add_argument("--log-level", choices=LOG_LEVELS, default="info",
                         help="structured (key=value) log verbosity on "
                              "stderr (default: info)")
    recover.set_defaults(func=_cmd_recover)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
