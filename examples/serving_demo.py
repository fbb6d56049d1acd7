#!/usr/bin/env python3
"""Serving hashtag-audience queries: the serving tier end to end.

Drives the serving stack with the synthetic Twitter workload (Section
8's shape): hashtag audiences are loaded into an engine, the engine is
persisted into a serving directory and attached by a pool of worker
processes (:class:`~repro.service.ProcessShardPool`), concurrent clients
fire a mixed stream of sample / membership / reconstruction / union
requests at it, and the demo prints what micro-batching made of the
traffic — batch sizes, latency and throughput versus the naive
one-request-per-call loop.

Run:  python examples/serving_demo.py [--requests 600] [--workers 2]
"""

import argparse
import shutil
import tempfile
import threading
import time

from repro import BloomDB, SyntheticTwitterDataset
from repro.service import BatchPolicy, ProcessService, ProcessShardPool


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--namespace", type=int, default=220_000,
                        help="id namespace (paper: 2.2 billion)")
    parser.add_argument("--users", type=int, default=12_000,
                        help="occupied user ids")
    parser.add_argument("--hashtags", type=int, default=24,
                        help="hashtag audiences to serve")
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dataset = SyntheticTwitterDataset.generate(
        namespace_size=args.namespace,
        num_users=args.users,
        num_hashtags=args.hashtags,
        rng=args.seed,
    )
    print(f"dataset: {dataset.num_users} users, "
          f"{len(dataset.hashtag_audiences)} hashtag audiences in a "
          f"namespace of {dataset.namespace_size}")

    db = BloomDB.plan(namespace_size=args.namespace, accuracy=0.8,
                      set_size=1_000, seed=args.seed)
    names = []
    for i, audience in enumerate(dataset.hashtag_audiences):
        name = f"tag-{i:03d}"
        db.add_set(name, audience)
        names.append(name)

    directory = tempfile.mkdtemp(prefix="serving-demo-")
    pool = ProcessShardPool.from_engine(
        db, directory, workers=args.workers,
        policy=BatchPolicy(max_batch=256, max_delay_ms=2.0))
    print(f"pool: {pool!r}")

    # The same mixed plan the serving benchmark uses: mostly samples,
    # some membership probes, a few reconstructions and unions.  Clients
    # submit open-loop (fire the request, keep the future) — the point
    # of micro-batching is that a burst of independent requests
    # coalesces into kernel-sized batches.
    def submit_request(i: int):
        name = names[i % len(names)]
        slot = i % 20
        if slot < 15:
            return pool.submit("sample", (name,), rounds=1 + i % 8, seed=i)
        if slot < 18:
            return pool.submit("contains", (name,), x=i % args.namespace)
        if slot == 18:
            return pool.submit("reconstruct", (name,))
        return pool.submit("sample_union",
                           (name, names[(i + 1) % len(names)]), seed=i)

    try:
        with ProcessService(pool) as service:
            start = time.perf_counter()
            futures = []
            lock = threading.Lock()

            def run(c: int) -> None:
                mine = [submit_request(i)
                        for i in range(c, args.requests, args.clients)]
                with lock:
                    futures.extend(mine)

            threads = [threading.Thread(target=run, args=(c,))
                       for c in range(args.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for future in futures:
                future.result(120)
            coalesced_s = time.perf_counter() - start
            stats = service.stats()
        pool.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    # The naive shape of the same traffic: one direct engine call each.
    start = time.perf_counter()
    for i in range(args.requests):
        name = names[i % len(names)]
        slot = i % 20
        if slot < 15:
            db.store.sample_many(name, 1 + i % 8, rng=i)
        elif slot < 18:
            db.contains(name, i % args.namespace)
        elif slot == 18:
            db.reconstruct(name)
        else:
            db.store.sample_union([name, names[(i + 1) % len(names)]], rng=i)
    naive_s = time.perf_counter() - start

    counters = stats["counters"]
    batch = stats["histograms"]["batch_size"]
    latency = stats["histograms"].get("stage.total_s", {})
    print(f"\nserved {counters['served_total']} requests "
          f"({counters.get('errors_total', 0)} errors) on "
          f"{args.workers} worker processes")
    print(f"batches: mean {batch['mean']:.1f} requests, "
          f"max {batch['max']:.0f}")
    if latency:
        print(f"request latency: p50 {latency['p50'] * 1e3:.2f} ms, "
              f"p99 {latency['p99'] * 1e3:.2f} ms")
    print(f"coalesced: {args.requests / coalesced_s:,.0f} req/s   "
          f"naive loop: {args.requests / naive_s:,.0f} req/s   "
          f"speedup {naive_s / coalesced_s:.1f}x")


if __name__ == "__main__":
    main()
