"""Benchmark collectors: timing + op-count measurement per workload.

Every :class:`~repro.bench.scenarios.Scenario` names its collector:

* :func:`run_sampling` — measures the batched sampling path
  (:meth:`repro.api.BloomDB.sample_many`, one shared pass over the tree)
  against the per-query loop, with the loop measured both under the
  vectorized kernels and under the legacy scalar kernels
  (:func:`repro.core.kernels.scalar_kernels`).
* :func:`run_reconstruction` — measures the one-pass batched
  reconstruction (:meth:`repro.api.BloomDB.reconstruct_all`) against the
  sequential per-set loop, verifying along the way that both recover
  identical elements.
* the ``run_*`` functions below them, one per remaining workload, and
  the paper's tables and figures in :mod:`repro.bench.paper`.

Collectors return plain JSON-able dicts; the runner owns caching and
file emission.  Every engine is built through the BloomDB facade so the
numbers measure exactly what the serving surface ships.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import replace

import numpy as np

from repro.api import BloomDB, EngineConfig
from repro.api.batch import SampleSpec
from repro.core import kernels
from repro.core.kernels import PositionCache
from repro.core.serialization import save_tree
from repro.obs.runtime import RUNTIME

#: Scalar hashing microbenchmarks are capped at this many elements so the
#: legacy per-element loops stay affordable even at full scale.
_SCALAR_HASH_CAP = 3_000


def _timed(fn):
    """Run ``fn`` once; return (elapsed seconds, return value)."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def build_workload(params: dict):
    """Deterministic scenario data: ``(occupied, [(name, ids), ...])``.

    One draw sequence shared by every consumer, so every engine built
    from the same parameters holds identical sets.  For
    occupancy-tracking trees the stored sets are drawn from the
    ``occupied`` ids, mirroring the paper's sparse-namespace workloads.
    """
    namespace = int(params["namespace"])
    rng = np.random.default_rng(int(params.get("workload_seed", 42)))
    occupied = None
    universe = namespace
    if params.get("occupied"):
        occupied = rng.choice(namespace, size=int(params["occupied"]),
                              replace=False).astype(np.uint64)
        universe = occupied
    sets = []
    for i in range(int(params["num_sets"])):
        ids = rng.choice(universe, size=int(params["set_size"]),
                         replace=False)
        sets.append((f"set{i:02d}", np.asarray(ids, dtype=np.uint64)))
    return occupied, sets


def build_engine(params: dict, family: str | None = None):
    """Build a BloomDB and its stored sets from scenario parameters.

    Returns ``(db, names)``; the data comes from :func:`build_workload`.
    """
    family = family or params.get("family", "murmur3")
    occupied, sets = build_workload(params)
    db = BloomDB.plan(
        namespace_size=int(params["namespace"]),
        accuracy=float(params.get("accuracy", 0.9)),
        set_size=int(params["set_size"]),
        family=family,
        tree=params.get("tree", "static"),
        seed=int(params.get("seed", 0)),
        depth=params.get("depth"),
        occupied=occupied,
    )
    for name, ids in sets:
        db.add_set(name, ids)
    return db, [name for name, _ in sets]


def _sample_objects(db: BloomDB, specs) -> dict:
    """The recursive object-graph sampler (the compiled plan's oracle):
    one seeded sampler per request, one position cache per batch."""
    cache = PositionCache(db.tree)
    return {spec.key: db.store.sample_many(
                spec.name, spec.rounds, spec.replacement,
                position_cache=cache, rng=spec.seed)
            for spec in specs}


def _save_objects(db: BloomDB, directory: str) -> None:
    """Save ``db`` in the object layout of older releases (npz tree and
    filters, no plan): loading it rebuilds the node graph."""
    os.makedirs(directory)
    with open(f"{directory}/engine.json", "w") as out:
        json.dump({"format": 1, "config": db.config.to_dict()}, out)
    save_tree(db.tree, f"{directory}/tree.npz")
    db.store.save(f"{directory}/sets.npz")


def _per_query_us(seconds: float, queries: int) -> float:
    return round(seconds / queries * 1e6, 3) if queries else 0.0


def _loop_sample(db, names, queries: int) -> float:
    """Per-query loop: one full descent per draw (the legacy shape)."""
    sampler = db.sampler_for(rng=1)
    filters = [db.filter(name) for name in names]
    start = time.perf_counter()
    for i in range(queries):
        sampler.sample(filters[i % len(filters)])
    return time.perf_counter() - start


def run_sampling(params: dict) -> dict:
    """Measure batched vs. looped sampling; returns a JSON-able result."""
    db, names = build_engine(params)
    queries = int(params["queries"])
    per_set, extra = divmod(queries, len(names))
    requests = {name: per_set + (1 if i < extra else 0)
                for i, name in enumerate(names)}
    requests = {n: r for n, r in requests.items() if r > 0}

    batch_s, report = _timed(lambda: db.sample_many(requests))
    result = {
        "queries": queries,
        "engine": db.describe(),
        "batch": {
            "seconds": round(batch_s, 6),
            "queries": queries,
            "per_query_us": _per_query_us(batch_s, queries),
            "produced": report.produced,
            "shortfall": report.shortfall,
            "ops": report.as_row(),
        },
    }

    loop_queries = int(params.get("loop_queries", 0))
    if loop_queries:
        loop_s = _loop_sample(db, names, loop_queries)
        result["vector_loop"] = {
            "seconds": round(loop_s, 6),
            "queries": loop_queries,
            "per_query_us": _per_query_us(loop_s, loop_queries),
        }
        result["speedup_batch_vs_vector_loop"] = round(
            (loop_s / loop_queries) / (batch_s / queries), 2)

    scalar_queries = int(params.get("scalar_loop_queries", 0))
    if scalar_queries:
        with kernels.scalar_kernels():
            scalar_s = _loop_sample(db, names, scalar_queries)
        result["scalar_loop"] = {
            "seconds": round(scalar_s, 6),
            "queries": scalar_queries,
            "per_query_us": _per_query_us(scalar_s, scalar_queries),
        }
        result["speedup_batch_vs_scalar_loop"] = round(
            (scalar_s / scalar_queries) / (batch_s / queries), 2)
    return result


def run_sampling_families(params: dict) -> dict:
    """Per-hash-family kernels: batched hashing + batched sampling."""
    hash_batch = int(params["hash_batch"])
    queries = int(params["queries"])
    xs = np.arange(hash_batch, dtype=np.uint64)
    scalar_xs = xs[:_SCALAR_HASH_CAP]
    families = {}
    for family_name in params["families"]:
        db, names = build_engine(params, family=family_name)
        vec_s, _ = _timed(lambda: db.family.positions_many(xs))
        with kernels.scalar_kernels():
            scal_s, _ = _timed(lambda: db.family.positions_many(scalar_xs))
        batch_s, report = _timed(
            lambda: db.sample_many({names[0]: queries}))
        per_elem_vec = vec_s / hash_batch * 1e6
        per_elem_scal = scal_s / len(scalar_xs) * 1e6
        families[family_name] = {
            "hash_batch": hash_batch,
            "hash_vectorized_us_per_element": round(per_elem_vec, 4),
            "hash_scalar_us_per_element": round(per_elem_scal, 4),
            "hash_kernel_speedup": round(per_elem_scal / per_elem_vec, 2),
            "batch_sampling": {
                "queries": queries,
                "seconds": round(batch_s, 6),
                "per_query_us": _per_query_us(batch_s, queries),
                "produced": report.produced,
            },
        }
    return {"queries": queries, "families": families}


def run_descent_compiled(params: dict) -> dict:
    """Compiled flat-array descent vs. the recursive object-graph sampler.

    Both engines share one tree and serve the *same* seeded request plan
    through ``BloomDB.sample_many``; per-request results are verified
    bit-identical.  The compiled path is measured cold (first call:
    compile + frontier evaluation), then warm under *every* available
    replay backend (steady state, the serving regime where the plan's
    frontier cache keeps hitting the same stored sets); the headline
    speedup is the warm one under the default backend, with the NumPy
    reference always reported alongside.
    """
    from repro.core import native

    db, names = build_engine(params)

    def compiled_engine(backend: str) -> BloomDB:
        fresh = BloomDB(replace(db.config, descent_backend=backend),
                        params=db.params, family=db.family, tree=db.tree)
        for name in names:
            fresh.store.install(name, db.filter(name))
        return fresh

    default_backend = native.resolve_backend(None)
    rounds = int(params.get("rounds", 64))
    requests = int(params.get("requests", 64))
    repeats = max(1, int(params.get("repeats", 3)))
    specs = [SampleSpec(names[i % len(names)], rounds, seed=i, key=str(i))
             for i in range(requests)]
    queries = requests * rounds

    recursive_s = min(_timed(lambda: _sample_objects(db, specs))[0]
                      for _ in range(repeats))
    recursive = _sample_objects(db, specs)

    backends = {}
    identical = True
    cold_s = compiled_s = None
    for backend in dict.fromkeys([default_backend, "numpy"]):
        engine = compiled_engine(backend)
        backend_cold_s, _ = _timed(lambda: engine.sample_many(specs))
        backend_s = min(_timed(lambda: engine.sample_many(specs))[0]
                        for _ in range(repeats))
        compiled = engine.sample_many(specs)
        identical = identical and all(
            recursive[str(i)].values == compiled[str(i)].values
            and recursive[str(i)].ops == compiled[str(i)].ops
            for i in range(requests)
        )
        backends[backend] = {
            "seconds": round(backend_s, 6),
            "cold_seconds": round(backend_cold_s, 6),
            "per_request_us": _per_query_us(backend_s, requests),
            "samples_per_s": round(queries / backend_s, 1),
        }
        if backend == default_backend:
            cold_s, compiled_s = backend_cold_s, backend_s

    numpy_s = backends["numpy"]["seconds"]
    return {
        "requests": requests,
        "rounds": rounds,
        "engine": db.describe(),
        "backend": default_backend,
        "native": native.native_status(),
        "identical_to_recursive": bool(identical),
        "recursive": {
            "seconds": round(recursive_s, 6),
            "per_request_us": _per_query_us(recursive_s, requests),
            "samples_per_s": round(queries / recursive_s, 1),
        },
        "compiled": dict(backends[default_backend]),
        "backends": backends,
        "stages": _stage_decomposition(
            RUNTIME.snapshot().get("histograms", {})),
        "speedup_compiled_vs_recursive": round(recursive_s / compiled_s, 2),
        "speedup_compiled_numpy_vs_recursive":
            round(recursive_s / numpy_s, 2),
        "speedup_compiled_cold_vs_recursive": round(recursive_s / cold_s, 2),
    }


def run_descent_coldstart(params: dict) -> dict:
    """Attach-to-first-batch latency of the compiled descent path.

    The serving cold path measured on its own (``coldstart_mmap`` buries
    it under pool construction): one engine saved in both layouts, and
    the timed section is exactly what a worker pays at attach —
    ``BloomDB.load`` (mmap + per-plan setup for the compiled layout,
    npz decompress + node-graph rebuild for objects) plus the *first*
    seeded sample batch (the recursive sampler on the object graph),
    before any frontier cache is warm.  Results are verified
    bit-identical between layouts.
    """
    repeats = max(1, int(params.get("repeats", 3)))
    rounds = int(params.get("rounds", 32))
    requests = int(params.get("requests", 32))
    db, names = build_engine(params)
    specs = [SampleSpec(names[i % len(names)], rounds, seed=i, key=str(i))
             for i in range(requests)]

    def attach(directory, sample):
        load_s, engine = _timed(lambda: BloomDB.load(directory))
        batch_s, report = _timed(lambda: sample(engine, specs))
        return load_s, batch_s, report

    tmp = tempfile.mkdtemp(prefix="repro-descent-cold-")
    try:
        objects_dir = f"{tmp}/objects"
        compiled_dir = f"{tmp}/compiled"
        _save_objects(db, objects_dir)
        db.save(compiled_dir)

        objects_runs, compiled_runs = [], []
        for _ in range(repeats):
            objects_runs.append(attach(objects_dir, _sample_objects))
            compiled_runs.append(attach(compiled_dir, BloomDB.sample_many))
        o_load, o_batch, objects_report = min(
            objects_runs, key=lambda run: run[0] + run[1])
        c_load, c_batch, compiled_report = min(
            compiled_runs, key=lambda run: run[0] + run[1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    identical = all(
        objects_report[str(i)].values == compiled_report[str(i)].values
        and objects_report[str(i)].ops == compiled_report[str(i)].ops
        for i in range(requests)
    )
    objects_s = o_load + o_batch
    compiled_s = c_load + c_batch
    return {
        "requests": requests,
        "rounds": rounds,
        "engine": db.describe(),
        "identical_to_objects": bool(identical),
        "objects": {
            "seconds": round(objects_s, 6),
            "load_seconds": round(o_load, 6),
            "first_batch_seconds": round(o_batch, 6),
        },
        "compiled": {
            "seconds": round(compiled_s, 6),
            "load_seconds": round(c_load, 6),
            "first_batch_seconds": round(c_batch, 6),
        },
        "speedup_descent_coldstart": round(objects_s / compiled_s, 2),
        "speedup_descent_first_batch": round(o_batch / c_batch, 2),
    }


def run_write_churn(params: dict) -> dict:
    """Compiled sampling under id churn: delta overlay vs. invalidate.

    Two identically-built engines absorb the same deterministic churn
    stream — per cycle one retire batch, one insert batch, then a
    seeded sample batch: the engine's epoch/delta pipeline keeps the
    flat-array descent live through a sparse overlay, while the
    invalidate baseline pays a full plan recompile before the next
    batch.  Per-cycle results are verified bit-identical between
    the two pipelines, and the final cycle additionally against a
    from-scratch engine rebuilt at the final occupancy (the acceptance
    bar: churn must not change what descent computes, only how fast).
    """
    namespace = int(params["namespace"])
    occupied, sets = build_workload(params)
    names = [name for name, _ in sets]
    cycles = int(params.get("churn_cycles", 5))
    fraction = float(params.get("churn_fraction", 0.10))
    requests = int(params.get("requests", 8))
    rounds = int(params.get("rounds", 8))
    per_cycle = max(1, int(occupied.size * fraction / (2 * cycles)))

    churn_rng = np.random.default_rng(
        int(params.get("workload_seed", 42)) + 1)
    free_pool = np.setdiff1d(np.arange(namespace, dtype=np.uint64),
                             occupied)
    victims = churn_rng.choice(occupied, size=cycles * per_cycle,
                               replace=False).reshape(cycles, per_cycle)
    inserts = churn_rng.choice(free_pool, size=cycles * per_cycle,
                               replace=False).reshape(cycles, per_cycle)

    def build():
        db = BloomDB.plan(
            namespace_size=namespace,
            accuracy=float(params.get("accuracy", 0.9)),
            set_size=int(params["set_size"]),
            family=params.get("family", "murmur3"),
            tree=params.get("tree", "dynamic"),
            seed=int(params.get("seed", 0)),
            depth=params.get("depth"),
            occupied=occupied,
        )
        for name, ids in sets:
            db.add_set(name, ids)
        db.current_epoch()  # publish the base plan outside the timing
        return db

    def cycle_specs(cycle: int):
        return [SampleSpec(names[(cycle + i) % len(names)], rounds,
                           seed=1_000 * cycle + i, key=str(i))
                for i in range(requests)]

    def mutate_engine(db, retire, insert):
        db.retire_ids(retire)
        db.insert_ids(insert)

    def mutate_tree(db, retire, insert):
        # The baseline's write: the engine's tree mutation, no epoch.
        db.tree.remove_many(np.unique(retire))
        db.tree.insert_many(np.unique(insert))

    def serve_recompiled(db, specs):
        # The baseline's read: a fresh engine over the mutated tree
        # compiles a fresh plan (cold frontier) for the batch.
        return BloomDB(db.config, params=db.params, family=db.family,
                       tree=db.tree, store=db.store).sample_many(specs)

    def churn(db, mutate, serve):
        # Warm up outside the timing: serving traffic keeps hitting the
        # same stored sets, so both pipelines start with hot frontier
        # state — the delta pipeline inherits it through every epoch,
        # the invalidate baseline forfeits it at each recompile.
        serve(db, [SampleSpec(name, rounds, seed=0, key=name)
                   for name in names])
        reports = []
        mutate_s = serve_s = 0.0
        for cycle in range(cycles):
            start = time.perf_counter()
            mutate(db, victims[cycle], inserts[cycle])
            mutate_s += time.perf_counter() - start
            # The first post-mutation batch carries the pipeline's whole
            # catch-up cost: the invalidate baseline recompiles the plan
            # and re-walks the frontier cold, the delta pipeline repairs
            # the punched holes and rebuilds descent programs.
            start = time.perf_counter()
            reports.append(serve(db, cycle_specs(cycle)))
            serve_s += time.perf_counter() - start
        return mutate_s, serve_s, reports

    # The churn stream is deterministic, so every repeat reproduces the
    # same epochs and the same sample values — repeats only exist to
    # take the minimum over scheduler noise.
    repeats = max(1, int(params.get("churn_repeats", 2)))
    delta_mut_s = delta_serve_s = math.inf
    invalidate_mut_s = invalidate_serve_s = math.inf
    delta_reports = invalidate_reports = None
    delta_db = None
    for _ in range(repeats):
        delta_db = build()
        invalidate_db = build()
        mut_s, serve_s, delta_reports = churn(
            delta_db, mutate_engine, BloomDB.sample_many)
        if mut_s + serve_s < delta_mut_s + delta_serve_s:
            delta_mut_s, delta_serve_s = mut_s, serve_s
        mut_s, serve_s, invalidate_reports = churn(
            invalidate_db, mutate_tree, serve_recompiled)
        if mut_s + serve_s < invalidate_mut_s + invalidate_serve_s:
            invalidate_mut_s, invalidate_serve_s = mut_s, serve_s
    delta_s = delta_mut_s + delta_serve_s
    invalidate_s = invalidate_mut_s + invalidate_serve_s

    identical = all(
        a[str(i)].values == b[str(i)].values and a[str(i)].ops == b[str(i)].ops
        for a, b in zip(delta_reports, invalidate_reports)
        for i in range(requests)
    )

    rebuilt = BloomDB(delta_db.config, params=delta_db.params,
                      family=delta_db.family,
                      occupied=np.array(delta_db.occupied))
    for name in names:
        rebuilt.store.install(name, delta_db.filter(name).copy())
    rebuilt_report = rebuilt.sample_many(cycle_specs(cycles - 1))
    last = delta_reports[-1]
    identical_rebuild = all(
        last[str(i)].values == rebuilt_report[str(i)].values
        and last[str(i)].ops == rebuilt_report[str(i)].ops
        for i in range(requests)
    )

    epoch = delta_db.current_epoch()
    return {
        "cycles": cycles,
        "churned_ids": int(2 * cycles * per_cycle),
        "initial_occupied": int(occupied.size),
        "requests_per_cycle": requests,
        "rounds": rounds,
        "engine": delta_db.describe(),
        "identical_delta_vs_invalidate": bool(identical),
        "identical_to_rebuild": bool(identical_rebuild),
        "delta": {
            "seconds": round(delta_s, 6),
            "mutate_seconds": round(delta_mut_s, 6),
            "serve_seconds": round(delta_serve_s, 6),
            "per_cycle_ms": round(delta_s / cycles * 1e3, 3),
            "final_epoch": epoch.epoch,
            "final_delta_density": round(epoch.delta_density, 4),
        },
        "invalidate": {
            "seconds": round(invalidate_s, 6),
            "mutate_seconds": round(invalidate_mut_s, 6),
            "serve_seconds": round(invalidate_serve_s, 6),
            "per_cycle_ms": round(invalidate_s / cycles * 1e3, 3),
        },
        "speedup_delta_vs_invalidate": round(invalidate_s / delta_s, 2),
        # Serving latency through churn — the contrast the delta overlay
        # exists to win: applying the mutations costs both pipelines the
        # same, what differs is the price of the next sample batch.
        "speedup_delta_serving": round(
            invalidate_serve_s / delta_serve_s, 2),
    }


def run_reconstruction(params: dict) -> dict:
    """Measure batched vs. looped reconstruction; verify identical output."""
    db, names = build_engine(params)
    repeats = max(1, int(params.get("repeats", 1)))
    scalar_repeats = max(0, int(params.get("scalar_repeats", 0)))

    batch_times = []
    batch_report = None
    for _ in range(repeats):
        seconds, batch_report = _timed(lambda: db.reconstruct_all(names))
        batch_times.append(seconds)

    loop_times = []
    loop_results = None
    for _ in range(repeats):
        seconds, loop_results = _timed(
            lambda: [db.store.reconstruct(name) for name in names])
        loop_times.append(seconds)

    identical = all(
        np.array_equal(batch_report[name].elements, loop.elements)
        for name, loop in zip(names, loop_results)
    )

    batch_s = min(batch_times)
    loop_s = min(loop_times)
    result = {
        "sets": len(names),
        "engine": db.describe(),
        "repeats": repeats,
        "identical_to_sequential": bool(identical),
        "batch": {
            "seconds": round(batch_s, 6),
            "per_set_ms": round(batch_s / len(names) * 1e3, 4),
            "recovered": batch_report.produced,
            "ops": batch_report.as_row(),
        },
        "vector_loop": {
            "seconds": round(loop_s, 6),
            "per_set_ms": round(loop_s / len(names) * 1e3, 4),
        },
        "speedup_batch_vs_vector_loop": round(loop_s / batch_s, 2),
    }

    if scalar_repeats:
        # The legacy element-at-a-time loop is orders of magnitude slower;
        # measure it on a capped subset of sets and compare per set.
        scalar_names = names[:int(params.get("scalar_sets", len(names)))]
        scalar_times = []
        for _ in range(scalar_repeats):
            with kernels.scalar_kernels():
                seconds, _ = _timed(
                    lambda: [db.store.reconstruct(name)
                             for name in scalar_names])
            scalar_times.append(seconds)
        scalar_per_set = min(scalar_times) / len(scalar_names)
        result["scalar_loop"] = {
            "seconds": round(min(scalar_times), 6),
            "sets": len(scalar_names),
            "per_set_ms": round(scalar_per_set * 1e3, 4),
        }
        result["speedup_batch_vs_scalar_loop"] = round(
            scalar_per_set / (batch_s / len(names)), 2)
    return result


def _serving_requests(params: dict, names: list[str]) -> list[tuple]:
    """The deterministic mixed request plan: (op, name, seed) per slot.

    8/10 sampling, 1/10 membership, 1/10 reconstruction — every
    stochastic request carries its slot index as seed, so the coalesced
    and naive paths are comparable element-for-element.
    """
    plan = []
    for i in range(int(params["requests"])):
        name = names[i % len(names)]
        slot = i % 10
        if slot < 8:
            plan.append(("sample", name, i))
        elif slot == 8:
            plan.append(("contains", name, i))
        else:
            plan.append(("reconstruct", name, i))
    return plan


def run_coldstart(params: dict) -> dict:
    """Serve cold start: mmap'd compiled plan vs. npz object-graph load.

    One engine is saved twice — the object layout of older releases
    (compressed npz, node graph rebuilt on load, sampled by the
    recursive sampler) and the compiled layout (raw ``np.memmap``
    buffers, tree materialised lazily).  The timed section is what a
    serving worker pays on attach: ``BloomDB.load`` + the first seeded
    sample batch; results are verified identical between the two
    layouts.
    """
    repeats = max(1, int(params.get("repeats", 3)))
    db, names = build_engine(params)

    def boot(directory, sample):
        engine = BloomDB.load(directory)
        spec = SampleSpec(names[0], 8, seed=1, key="probe")
        return sample(engine, [spec])["probe"].values

    tmp = tempfile.mkdtemp(prefix="repro-coldstart-")
    try:
        objects_dir = f"{tmp}/objects"
        compiled_dir = f"{tmp}/compiled"
        _save_objects(db, objects_dir)
        db.save(compiled_dir)

        objects_times, compiled_times = [], []
        for _ in range(repeats):
            seconds, objects_values = _timed(
                lambda: boot(objects_dir, _sample_objects))
            objects_times.append(seconds)
            seconds, compiled_values = _timed(
                lambda: boot(compiled_dir, BloomDB.sample_many))
            compiled_times.append(seconds)
        objects_s = min(objects_times)
        compiled_s = min(compiled_times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "engine": db.describe(),
        "identical_to_objects": bool(objects_values == compiled_values),
        "objects": {"seconds": round(objects_s, 6)},
        "compiled": {"seconds": round(compiled_s, 6)},
        "speedup_coldstart_mmap": round(objects_s / compiled_s, 2),
    }


def run_coldstart_recovery(params: dict) -> dict:
    """Crash-recovery cold start: snapshot load + WAL replay under churn.

    Builds a durable engine whose sets travel in a checkpointed
    snapshot, then journals (but never checkpoints) a churn tail
    touching ``churn_fraction`` of the namespace — exactly what a crash
    leaves behind.  The timed section is
    :func:`repro.durability.recover_engine` on a copy of the crashed
    directory; fidelity is gated by ``identical_to_reference``: a
    seeded probe draw and the published epoch must match the pre-crash
    engine bit-for-bit.
    """
    from repro.durability import open_durable, recover_engine

    repeats = max(1, int(params.get("repeats", 3)))
    churn_fraction = float(params.get("churn_fraction", 0.10))
    batch_size = int(params.get("churn_batch", 512))
    namespace = int(params["namespace"])

    _, sets = build_workload(params)
    config = EngineConfig(
        namespace_size=namespace,
        accuracy=float(params.get("accuracy", 0.9)),
        set_size=int(params["set_size"]),
        family=params.get("family", "murmur3"),
        tree=params.get("tree", "dynamic"),
        seed=int(params.get("seed", 0)),
    )

    tmp = tempfile.mkdtemp(prefix="repro-recovery-")
    try:
        live_dir = f"{tmp}/live"
        live, _ = open_durable(live_dir, config)
        for name, ids in sets:
            live.add_set(name, ids)
        live.checkpoint()  # the sets travel in the snapshot, not the log

        # Churn tail: inserts (a third retired again) in
        # WAL-record-sized batches, never checkpointed.
        rng = np.random.default_rng(int(params.get("workload_seed", 42)) + 1)
        fresh = np.setdiff1d(np.arange(namespace, dtype=np.uint64),
                             live.occupied)
        churn = rng.permutation(fresh)[:int(namespace * churn_fraction)]
        ids_churned = 0
        for start in range(0, churn.size, batch_size):
            batch = churn[start:start + batch_size]
            live.insert_ids(batch)
            ids_churned += int(batch.size)
            retire = batch[::3]
            if retire.size:
                live.retire_ids(retire)
                ids_churned += int(retire.size)

        spec = SampleSpec(sets[0][0], 16, seed=1, key="probe")
        expected = list(live.sample_many([spec])["probe"].values)
        expected_epoch = live.current_epoch().epoch
        engine_desc = live.describe()
        live.wal.flush()
        wal_bytes = live.wal.tail_bytes()
        live.wal.close()  # crash: no clean marker, no final checkpoint

        times = []
        identical = False
        for repeat in range(repeats):
            crash_dir = f"{tmp}/crash{repeat}"
            shutil.copytree(live_dir, crash_dir)
            seconds, (recovered, report) = _timed(
                lambda: recover_engine(crash_dir))
            times.append(seconds)
            values = list(recovered.sample_many([spec])["probe"].values)
            identical = (values == expected
                         and recovered.current_epoch().epoch
                         == expected_epoch)
            recovered.wal.close()
            if not identical:
                break
        recovery_s = min(times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "engine": engine_desc,
        "churn_fraction": churn_fraction,
        "ids_churned": ids_churned,
        "wal_bytes": int(wal_bytes),
        "snapshot_epoch": report.snapshot_epoch,
        "recovered_epoch": report.recovered_epoch,
        "records_replayed": report.records_replayed,
        "identical_to_reference": bool(identical),
        "recovery": {"seconds": round(recovery_s, 6)},
        "throughput_recovery_ids_per_s": round(ids_churned / recovery_s, 1)
        if recovery_s else 0.0,
    }


def _stage_decomposition(histograms: dict) -> dict:
    """Per-stage latency summary from the ``stage.*`` histogram snapshots.

    Maps each unlabeled ``stage.<name>_s`` histogram in a ``/stats``
    snapshot to its p50/p99/mean/count — the queue-wait / batch-assembly /
    execute (/descent/WAL) decomposition the latency-trajectory gates
    track in ``BENCH_serving.json``.
    """
    stages: dict[str, dict] = {}
    for name, snap in histograms.items():
        if not name.startswith("stage.") or "{" in name:
            continue
        stage = name[len("stage."):]
        if stage.endswith("_s"):
            stage = stage[:-2]
        stages[stage] = {
            "count": snap.get("count"),
            "mean_s": snap.get("mean"),
            "p50_s": snap.get("p50"),
            "p99_s": snap.get("p99"),
        }
    return stages


def run_serving_multiproc(params: dict) -> dict:
    """Multi-process serving scale-out: 1 vs N worker processes.

    One engine is persisted once; a
    :class:`~repro.service.procpool.ProcessShardPool` attaches first one
    and then ``workers_high`` worker processes to the *same* promoted
    ``plan.bst`` / ``sets.bst`` snapshot (one physical mmap pool-wide)
    and each pool serves the identical open-loop seeded sampling plan.
    The scaling headline is aggregate throughput N-proc vs 1-proc, and
    fidelity is gated by ``identical_to_direct``: every result (values
    *and* operation counters) must match a direct
    :meth:`~repro.api.BloomDB.sample_many` call with the same seeds.
    """
    from repro.service import BatchPolicy
    from repro.service.client import encode_result
    from repro.service.procpool import ProcessShardPool

    requests = int(params["requests"])
    rounds = int(params.get("rounds", 8))
    workers_high = int(params.get("workers_high", 4))
    max_batch = int(params.get("max_batch", 256))
    max_delay_ms = float(params.get("max_delay_ms", 2.0))

    db, names = build_engine(params)
    plan = [(names[i % len(names)], i) for i in range(requests)]
    specs = [SampleSpec(name, rounds, seed=seed, key=str(i))
             for i, (name, seed) in enumerate(plan)]
    reference = [encode_result(result) for result
                 in db.sample_many(specs).ordered()]

    def run_pool(directory, workers: int):
        from repro.obs.metrics import export_snapshot

        pool = ProcessShardPool(
            directory, workers,
            policy=BatchPolicy(max_batch=max_batch,
                               max_delay_ms=max_delay_ms,
                               queue_depth=requests))
        pool.start()
        try:
            # Warm-up: fault the mmap pages in before timing.
            for name in names:
                pool.submit("sample", (name,), rounds=rounds,
                            seed=0).result(300)
            start = time.perf_counter()
            futures = [pool.submit("sample", (name,), rounds=rounds,
                                   seed=seed) for name, seed in plan]
            results = [f.result(300) for f in futures]
            elapsed = time.perf_counter() - start
            stages = _stage_decomposition(
                export_snapshot(pool.fleet_export())["histograms"])
        finally:
            pool.close()
        return elapsed, stages, results

    tmp = tempfile.mkdtemp(prefix="repro-multiproc-")
    try:
        db.save(tmp)
        single_s, single_stages, single_results = run_pool(tmp, 1)
        multi_s, multi_stages, multi_results = run_pool(tmp, workers_high)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    identical = (single_results == reference
                 and multi_results == reference)
    return {
        "requests": requests,
        "engine": db.describe(),
        "workers": workers_high,
        # Scaling is bounded by the hardware: the >= 2x 1 -> 4 gate is
        # meaningful only where at least 4 cores back the 4 processes.
        "cpus": len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count(),
        "identical_to_direct": bool(identical),
        "single_process": {
            "seconds": round(single_s, 6),
            "throughput_rps": round(requests / single_s, 1),
            "latency_p50_s": single_stages.get("total", {}).get("p50_s"),
            "latency_p99_s": single_stages.get("total", {}).get("p99_s"),
            "stages": single_stages,
        },
        "multi_process": {
            "seconds": round(multi_s, 6),
            "throughput_rps": round(requests / multi_s, 1),
            "latency_p50_s": multi_stages.get("total", {}).get("p50_s"),
            "latency_p99_s": multi_stages.get("total", {}).get("p99_s"),
            "stages": multi_stages,
        },
        "throughput_multiproc_rps": round(requests / multi_s, 1),
        "speedup_multiproc_vs_single": round(single_s / multi_s, 2),
    }


def run_replicated_failover(params: dict) -> dict:
    """Failover drill: ``kill -9`` a worker under read traffic.

    A :class:`~repro.service.procpool.ProcessShardPool` serves seeded
    sampling; every worker holds every set.  The drill kills the ring
    owner of the first set and reads only the sets that worker owned,
    measuring the three numbers that define the robustness story:
    *reroute time* (SIGKILL to the first of those reads answered by
    another worker), *heal time* (SIGKILL to ``/readyz`` green — the
    dead worker respawned, replayed and rejoined), and *read
    availability* through the outage (reads served vs. rejected).
    Fidelity is gated by ``identical_across_failover``: every seeded
    answer (values *and* operation counters), whether a fallback
    worker served it during the outage or its owner after the heal,
    must be byte-equal to its pre-kill value.
    """
    from repro.service import ProcessShardPool, ServiceOverloadedError

    rounds = int(params.get("rounds", 8))
    workers = int(params.get("workers", 4))
    requests = int(params["requests"])

    db, names = build_engine(params)
    seeds = {name: 4_242 + i for i, name in enumerate(names)}

    def sample(pool, name: str, seed: int):
        return pool.submit("sample", (name,), rounds=rounds,
                           seed=seed).result(300)

    tmp = tempfile.mkdtemp(prefix="repro-failover-")
    try:
        db.save(tmp)
        pool = ProcessShardPool(tmp, workers, heartbeat_s=0.05,
                                hang_timeout_s=1.0)
        pool.start()
        try:
            for name in names:  # fault the mmap pages in before timing
                sample(pool, name, 0)
            pre = {name: sample(pool, name, seeds[name]) for name in names}

            plan = [(names[i % len(names)], i) for i in range(requests)]
            start = time.perf_counter()
            futures = [pool.submit("sample", (name,), rounds=rounds,
                                   seed=seed) for name, seed in plan]
            for future in futures:
                future.result(300)
            healthy_s = time.perf_counter() - start

            victim = pool.shard_of(names[0])
            owned = [name for name in names if pool.shard_of(name) == victim]
            killed_at = time.perf_counter()
            pool.kill_worker(victim)

            served = rejected = 0
            reroute_s = None
            identical = True
            deadline = killed_at + 60.0
            while time.perf_counter() < deadline:
                name = owned[(served + rejected) % len(owned)]
                try:
                    answer = sample(pool, name, seeds[name])
                except ServiceOverloadedError:
                    rejected += 1
                else:
                    served += 1
                    identical = identical and answer == pre[name]
                    if reroute_s is None:
                        reroute_s = time.perf_counter() - killed_at
                if reroute_s is not None and pool.readyz()["ready"]:
                    break
            heal_s = time.perf_counter() - killed_at

            identical = identical and reroute_s is not None
            for name in names:
                identical = identical and sample(
                    pool, name, seeds[name]) == pre[name]
        finally:
            pool.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outage_reads = served + rejected
    return {
        "requests": requests,
        "engine": db.describe(),
        "workers": workers,
        "identical_across_failover": bool(identical),
        "healthy": {
            "seconds": round(healthy_s, 6),
            "throughput_rps": round(requests / healthy_s, 1),
        },
        "failover": {
            "reroute_s": (None if reroute_s is None
                          else round(reroute_s, 6)),
            "heal_s": round(heal_s, 6),
            "reads_during_outage": outage_reads,
            "reads_served": served,
            "reads_rejected": rejected,
            "availability": (round(served / outage_reads, 4)
                             if outage_reads else None),
        },
    }


def run_serving(params: dict) -> dict:
    """Coalesced pool throughput vs. the naive per-request loop.

    Both paths execute the *same* deterministic mixed request plan; the
    naive loop issues one direct engine call per request (fresh
    position cache every time — the shape of un-batched traffic), the
    coalesced path submits everything open-loop to a ``shards``-worker
    :class:`~repro.service.procpool.ProcessShardPool` and waits for the
    futures.  Per-request results are verified bit-identical between
    the two.
    """
    from repro.obs.metrics import diff_exports, export_snapshot
    from repro.service import BatchPolicy
    from repro.service.procpool import ProcessShardPool

    db, names = build_engine(params)
    plan = _serving_requests(params, names)
    rounds = int(params.get("rounds", 8))
    namespace = int(params["namespace"])
    workers = int(params.get("shards", 4))

    # Naive baseline: one engine call per request, no shared state.
    naive_results = {}
    start = time.perf_counter()
    for i, (op, name, seed) in enumerate(plan):
        if op == "sample":
            naive_results[i] = db.store.sample_many(name, rounds, rng=seed)
        elif op == "contains":
            naive_results[i] = db.contains(name, seed % namespace)
        else:
            naive_results[i] = db.reconstruct(name)
    naive_s = time.perf_counter() - start

    # Coalesced path: same plan, submitted open-loop to the pool.
    policy = BatchPolicy(max_batch=int(params.get("max_batch", 256)),
                         max_delay_ms=float(params.get("max_delay_ms", 2.0)),
                         queue_depth=len(plan))
    sample_latency: list[float] = []
    tmp = tempfile.mkdtemp(prefix="repro-serving-")
    try:
        db.save(tmp)
        pool = ProcessShardPool(tmp, workers, policy=policy)
        pool.start()
        try:
            for name in names:  # fault the mmap pages in before timing
                pool.submit("sample", (name,), rounds=rounds,
                            seed=0).result(300)
            warm = pool.fleet_export()
            start = time.perf_counter()
            futures = []
            for op, name, seed in plan:
                if op == "sample":
                    submitted = time.perf_counter()
                    future = pool.submit("sample", (name,), rounds=rounds,
                                         seed=seed)
                    future.add_done_callback(
                        lambda _, t=submitted: sample_latency.append(
                            time.perf_counter() - t))
                elif op == "contains":
                    future = pool.submit("contains", (name,),
                                         x=seed % namespace)
                else:
                    future = pool.submit("reconstruct", (name,))
                futures.append(future)
            coalesced_results = [future.result(120) for future in futures]
            coalesced_s = time.perf_counter() - start
            stats = export_snapshot(diff_exports(pool.fleet_export(), warm))
        finally:
            pool.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    identical = True
    for i, (op, name, seed) in enumerate(plan):
        got, want = coalesced_results[i], naive_results[i]
        if op == "sample":
            identical &= got["values"] == [int(v) for v in want.values]
        elif op == "contains":
            identical &= got["contains"] == want
        else:
            identical &= got["elements"] == [int(v) for v in want.elements]

    requests = len(plan)
    batch_hist = stats["histograms"].get("batch_size", {})
    stages = _stage_decomposition(stats["histograms"])
    latency = np.asarray(sample_latency)
    return {
        "requests": requests,
        "engine": db.describe(),
        "shards": workers,
        "identical_to_naive": bool(identical),
        "naive": {
            "seconds": round(naive_s, 6),
            "per_request_us": _per_query_us(naive_s, requests),
            "throughput_rps": round(requests / naive_s, 1),
        },
        "coalesced": {
            "seconds": round(coalesced_s, 6),
            "per_request_us": _per_query_us(coalesced_s, requests),
            "throughput_rps": round(requests / coalesced_s, 1),
            "mean_batch": batch_hist.get("mean"),
            "max_batch": batch_hist.get("max"),
            "sample_latency_p50_s": (float(np.quantile(latency, 0.5))
                                     if latency.size else None),
            "sample_latency_p99_s": (float(np.quantile(latency, 0.99))
                                     if latency.size else None),
            "queue_wait_p50_s": stages.get("queue", {}).get("p50_s"),
            "queue_wait_p99_s": stages.get("queue", {}).get("p99_s"),
            "stages": stages,
            "served": stats["counters"].get("served_total", 0),
            "errors": stats["counters"].get("errors_total", 0),
        },
        "speedup_coalesced_vs_naive": round(naive_s / coalesced_s, 2),
    }
