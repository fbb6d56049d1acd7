"""The benchmark's workloads: engines, request streams and answer checks.

Everything a run sends is derived from the workload seed.  Engines are
built once per (workload, seed) and saved; every server launch serves a
fresh copy of that saved engine.  See ``README.md`` for why each workload
exists and what it is sized against.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import time

import numpy as np

from repro import BloomDB, SampleSpec
from repro.durability import open_durable
from repro.workloads import uniform_query_set

#: Samples per ``/sample`` request.
ROUNDS = 8

#: Ids per ``/insert`` batch on ``write_churn`` (a ``/retire`` takes half)
#: and per ``/add-set`` probe write on the read workloads.
WRITE_BATCH = 64

#: Requests per block of a read stream; each mix share times this is whole.
MIX_BLOCK = 20


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix over one engine."""

    name: str
    index: int            # mixes the workload into every derived seed
    namespace: int
    set_size: int
    num_sets: int
    tree: str
    mix: tuple            # ((op, share), ...) of the read connections
    durable: bool = False
    writes_per_s: float = 0.0   # write_churn: fixed write count per second

    def serve_args(self, directory: pathlib.Path) -> list:
        """``repro serve`` options for a server over ``directory``."""
        if self.durable:
            return ["--durable", directory, "--wal-sync", "batch"]
        return ["--db", directory]


WORKLOADS = {
    "read_hot": Workload(
        "read_hot", 1, namespace=100_000, set_size=1000, num_sets=16,
        tree="static", mix=(("sample", 1.0),)),
    "read_mixed": Workload(
        "read_mixed", 2, namespace=1_000_000, set_size=1000, num_sets=1024,
        tree="static",
        mix=(("sample", 0.80), ("reconstruct", 0.10), ("contains", 0.05),
             ("union", 0.05))),
    "write_churn": Workload(
        "write_churn", 3, namespace=100_000, set_size=1000, num_sets=16,
        tree="dynamic", mix=(("sample", 1.0),), durable=True,
        writes_per_s=10.0),
}


def set_name(i: int) -> str:
    return f"set{i:04d}"


class Inputs:
    """The generated inputs of one (workload, seed): sets and streams."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = int(seed)
        root = np.random.SeedSequence([self.seed, workload.index])
        self._streams = root.spawn(64)
        set_seeds = np.random.default_rng(root.spawn(1)[0]).integers(
            0, 2**62, size=workload.num_sets)
        self.names = [set_name(i) for i in range(workload.num_sets)]
        self.sets = {
            name: uniform_query_set(workload.namespace, workload.set_size,
                                    rng=int(s))
            for name, s in zip(self.names, set_seeds)}
        self.members = {name: frozenset(int(v) for v in ids)
                        for name, ids in self.sets.items()}

    def rng(self, stream: int) -> np.random.Generator:
        """An independent generator for one named use of the seed."""
        return np.random.default_rng(self._streams[stream])

    # -- engines -------------------------------------------------------------

    def build(self, directory: pathlib.Path) -> None:
        """Build and save this workload's engine into ``directory``."""
        w = self.workload
        db = BloomDB.plan(namespace_size=w.namespace, accuracy=0.9,
                          set_size=w.set_size, family="murmur3", tree=w.tree,
                          plan="compiled", mutation="delta", seed=self.seed)
        if not w.durable:
            for name in self.names:
                db.add_set(name, self.sets[name])
            db.save(directory)
            return
        db, _ = open_durable(directory, db.config, sync="batch")
        for name in self.names:
            db.add_set(name, self.sets[name])
        db.checkpoint()
        db.wal.mark_clean()
        db.wal.close()

    def template(self, cache: pathlib.Path) -> tuple[pathlib.Path, float]:
        """The saved engine (built on first use); returns (dir, build_s)."""
        directory = cache / f"{self.workload.name}-{self.seed}"
        if (directory / "BUILT").exists():
            return directory, 0.0
        # Keep one engine per workload: runs walk through many seeds.
        for stale in cache.glob(f"{self.workload.name}-*"):
            shutil.rmtree(stale)
        started = time.perf_counter()
        self.build(directory)
        (directory / "BUILT").write_text("ok\n")
        return directory, time.perf_counter() - started

    # -- requests ------------------------------------------------------------

    def _name(self, rng) -> str:
        return self.names[int(rng.integers(len(self.names)))]

    def sample_request(self, rng, name: str | None = None):
        name = self._name(rng) if name is None else name
        return ("sample", "/sample",
                {"set": name, "r": ROUNDS,
                 "seed": int(rng.integers(2**31))})

    def request(self, op: str, rng):
        if op == "sample":
            return self.sample_request(rng)
        name = self._name(rng)
        if op == "reconstruct":
            return ("reconstruct", "/reconstruct",
                    {"set": name, "exhaustive": True})
        if op == "contains":
            ids = self.sets[name]
            x = (int(ids[rng.integers(ids.size)]) if rng.random() < 0.5
                 else int(rng.integers(self.workload.namespace)))
            return ("contains", "/contains", {"set": name, "x": x})
        if op == "union":
            return ("union", "/sample-union",
                    {"sets": [name, self._name(rng)],
                     "seed": int(rng.integers(2**31))})
        raise ValueError(op)

    def read_stream(self, connection: int):
        """Endless closed-loop request stream of one read connection.

        Requests come in blocks of :data:`MIX_BLOCK` holding each op
        exactly its share of times, shuffled within the block, so the
        mix a window sees does not drift with the seed.
        """
        rng = self.rng(connection)
        block = [op for op, share in self.workload.mix
                 for _ in range(round(share * MIX_BLOCK))]
        assert len(block) == MIX_BLOCK, self.workload.mix
        while True:
            for op in rng.permutation(block):
                yield self.request(str(op), rng)

    def write_plan(self, count: int) -> list:
        """``count`` occupancy writes (``write_churn``'s window sends them).

        Alternates an ``/insert`` of fresh ids with a ``/retire`` of half
        of the batch inserted just before, so set members stay occupied.
        The window's count depends only on its length, and so does the
        size of the WAL a crash leaves behind.
        """
        taken = np.zeros(self.workload.namespace, dtype=bool)
        for ids in self.sets.values():
            taken[ids.astype(np.int64)] = True
        fresh = self.rng(40).permutation(np.flatnonzero(~taken))
        writes = []
        for i in range(count):
            batch = fresh[(i // 2) * WRITE_BATCH:(i // 2 + 1) * WRITE_BATCH]
            if i % 2 == 0:
                writes.append(("write", "/insert",
                               {"ids": [int(v) for v in batch]}))
            else:
                writes.append(("write", "/retire",
                               {"ids": [int(v) for v in
                                        batch[:WRITE_BATCH // 2]]}))
        return writes

    def probe_writes(self, count: int) -> list:
        """``/add-set`` writes for workloads whose window has none."""
        rng = self.rng(41)
        return [("write", "/add-set",
                 {"set": f"probe{i:04d}",
                  "ids": [int(v) for v in uniform_query_set(
                      self.workload.namespace, WRITE_BATCH,
                      rng=int(rng.integers(2**62)))]})
                for i in range(count)]

    def probe_samples(self, count: int) -> list:
        """Seeded ``/sample`` requests cycling over every set."""
        rng = self.rng(42)
        return [self.sample_request(rng, self.names[i % len(self.names)])
                for i in range(count)]

    # -- answers -------------------------------------------------------------

    def check(self, request, answer) -> str | None:
        """Why ``answer`` is wrong for ``request``, or ``None``."""
        op, path, body = request
        if op == "sample":
            if answer.get("requested") != body["r"] or (
                    len(answer["values"]) + answer["shortfall"] != body["r"]):
                return f"malformed sample answer {answer}"
        elif op == "reconstruct":
            missing = self.members[body["set"]].difference(
                answer["elements"])
            if missing:
                return (f"reconstruct({body['set']}) missed "
                        f"{len(missing)} members")
        elif op == "contains":
            if body["x"] in self.members[body["set"]] and not answer[
                    "contains"]:
                return f"contains({body['set']}, {body['x']}) false negative"
        elif op == "union":
            if "value" not in answer:
                return f"malformed union answer {answer}"
        elif op == "write":
            key = {"/insert": "inserted", "/retire": "retired"}.get(path)
            if key is not None and answer.get(key) != len(body["ids"]):
                return f"write {path} acknowledged {answer}"
        return None


def expected_answers(directory: pathlib.Path, samples) -> list[dict]:
    """Direct ``BloomDB.sample_many`` answers to seeded ``/sample`` bodies.

    The wire shape of each answer (values, requested, shortfall, ops) is
    rebuilt from the engine's result objects.
    """
    db = BloomDB.load(directory)
    specs = [SampleSpec(body["set"], body["r"], True, seed=body["seed"],
                        key=str(i)) for i, body in enumerate(samples)]
    out = []
    for result in db.sample_many(specs).ordered():
        ops = result.ops
        out.append({
            "values": [int(v) for v in result.values],
            "requested": result.requested,
            "shortfall": result.shortfall,
            "ops": {"intersections": ops.intersections,
                    "memberships": ops.memberships,
                    "nodes_visited": ops.nodes_visited,
                    "backtracks": ops.backtracks},
        })
    return out
