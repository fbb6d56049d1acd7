"""BloomDB: the config-driven engine facade over the whole library.

The paper frames the system as a *database* ``D-bar = {B(X_i)}`` of
Bloom-filter-encoded sets queried through one shared BloomSampleTree
(Section 3.2).  :class:`BloomDB` is that database as a single object: it
owns the parameter planner, the hash family, the tree backend and the
:class:`~repro.core.store.FilterStore`, wires them consistently from one
:class:`~repro.api.config.EngineConfig`, and exposes the operations a
serving layer needs — named-set management, single and batched sampling,
reconstruction, algebraic (union / intersection) queries, occupancy
updates and whole-engine persistence.

Mutations are *epoch-versioned*: every occupancy change publishes a new
:class:`EngineEpoch` — an immutable (compiled plan, delta overlay) pair
behind one atomic reference swap — so concurrent compiled readers never
take the plan lock; they pin the epoch they started on and the writer
never blocks them (see ``docs/performance.md``).

>>> import numpy as np
>>> db = BloomDB.plan(namespace_size=10_000, accuracy=0.9, seed=7)
>>> ids = np.arange(100, 600, 5, dtype=np.uint64)
>>> db.add_set("community", ids).sample("community").value in set(ids.tolist())
True
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.api.batch import BatchReport, SampleSpec
from repro.api.config import EngineConfig
from repro.core.backend import (
    BackendSpec,
    TreeBackend,
    backend_for,
    backend_key_of,
)
from repro.core.bloom import BloomFilter
from repro.core.delta import (
    MAX_EPOCH_CHAIN,
    DeltaCompactionNeeded,
    PlanDelta,
)
from repro.core.design import TreeParameters
from repro.core.hashing import HashFamily
from repro.core.kernels import PositionCache
from repro.core.plan import CompiledTree
from repro.core.reconstruct import BSTReconstructor, ReconstructionResult
from repro.core.sampling import BSTSampler, MultiSampleResult, SampleResult
from repro.core.serialization import load_tree, save_tree
from repro.core.store import FilterStore
from repro.obs.runtime import RUNTIME
from repro.obs.trace import record_stage

#: Name of the config file inside a saved engine directory.
_ENGINE_FILE = "engine.json"
_TREE_FILE = "tree.npz"
_SETS_FILE = "sets.npz"
#: Compiled artefacts written alongside when ``plan == "compiled"``:
#: the flat-array tree plan and the packed set filters, both loadable
#: via ``np.memmap`` (see repro.core.mmapio).
_PLAN_FILE = "plan.bst"
_SETS_COMPILED_FILE = "sets.bst"
_SAVE_FORMAT = 1


def _materialise_once(factory):
    """Wrap a factory so concurrent callers share one materialisation."""
    lock = threading.Lock()
    cell: list = []

    def call():
        with lock:
            if not cell:
                cell.append(factory())
        return cell[0]

    return call


class BackendCapabilityError(RuntimeError):
    """An operation the configured tree backend does not support."""


class DurabilityError(RuntimeError):
    """A durability invariant would be violated.

    Raised when a ``durability="wal"`` engine is mutated without an
    attached WAL (the write would be silently volatile), or when an
    operation would advance the epoch past the WAL's truncation point
    without journalling it (``compact(path=...)`` on a durable engine).
    """


@dataclass(frozen=True)
class EngineEpoch:
    """One immutable snapshot of an engine's compiled read state.

    ``epoch`` is a per-engine monotonic id; ``plan`` the compiled base
    snapshot; ``delta`` the sparse mutation overlay accumulated since
    that base was compiled (``None`` right after a compile/compaction).
    Epochs are published by a single atomic reference swap (one
    attribute store), so a reader that grabbed an epoch keeps a
    consistent ``base ⊕ delta`` for its whole batch no matter how many
    writers publish behind it.
    """

    epoch: int
    plan: CompiledTree
    delta: PlanDelta | None = None

    def view(self):
        """The effective plan ``descend_frontier`` should read."""
        if self.delta is None or self.delta.is_empty:
            return self.plan
        return self.delta.view()

    @property
    def delta_density(self) -> float:
        """Dirty-node fraction of the overlay (0.0 for a clean epoch)."""
        return 0.0 if self.delta is None else self.delta.density


class BloomDB:
    """A database of named Bloom-filter sets behind one BloomSampleTree.

    Build with :meth:`plan` (the one-call entry point) or
    :meth:`from_config`; attach to pre-built components with the
    constructor's keyword arguments (used by the experiment harness to
    share cached trees).  All stored filters share the engine's ``m`` and
    hash family, which is the compatibility requirement of the paper's
    Definition 5.1.
    """

    def __init__(
        self,
        config: EngineConfig,
        *,
        params: TreeParameters | None = None,
        family: HashFamily | None = None,
        tree: TreeBackend | None = None,
        store: FilterStore | None = None,
        occupied=None,
        compiled: CompiledTree | None = None,
    ):
        self.config = config
        self.params = params if params is not None else config.parameters()
        self.family = (family if family is not None
                       else config.build_family(self.params))
        self._spec: BackendSpec = backend_for(config.tree)
        self._compiled = compiled
        # True whenever the tree has mutated past ``_compiled`` — the
        # signal that lets a no-op ``compact()`` keep the plan object
        # (and its warmed caches) instead of recompiling identical bits.
        self._plan_dirty = False
        self._plan_lock = threading.RLock()
        # The published epoch: readers take one attribute load, writers
        # replace it (under the plan lock) with one attribute store.
        self._epoch: EngineEpoch | None = None
        self._epoch_counter = 0
        # Durability: a WriteAheadLog attached via attach_wal journals
        # every mutation before its epoch publishes; recovery replay
        # temporarily suspends journalling (the records already exist).
        self._wal = None
        self._wal_dir: pathlib.Path | None = None
        self._durability_suspended = False
        # ``tree`` may be a backend instance, a zero-arg factory (lazy
        # materialisation shared with the store), or None — in which
        # case the tree is materialised from the compiled plan when one
        # was given, or built eagerly as before.
        self._tree: TreeBackend | None = None
        self._tree_factory = None
        if tree is not None and not callable(tree):
            self._tree = tree
        elif callable(tree):
            self._tree_factory = tree
        elif compiled is not None:
            self._tree_factory = self._tree_from_plan
        else:
            if occupied is not None:
                occupied = self._as_ids(occupied)
            self._tree = self._spec.build(
                config.namespace_size, self.params.depth, self.family,
                occupied=occupied,
            )
        if store is None:
            store = FilterStore(
                self.family,
                tree=(self._tree if self._tree is not None
                      else (lambda: self.tree)),
                rng=config.seed,
                empty_threshold=config.threshold,
                descent=config.descent,
            )
        self.store = store

    @property
    def tree(self) -> TreeBackend:
        """The tree backend (materialised from the plan on first use).

        Engines loaded with ``plan="compiled"`` defer building the
        pointer-linked node graph: compiled sampling never needs it, so a
        serving cold start that only samples pays O(mmap).  The first
        operation that genuinely walks objects (reconstruction, a single
        :meth:`sample`, occupancy updates) materialises it here.
        """
        if self._tree is None:
            with self._plan_lock:
                if self._tree is None:
                    self._tree = self._tree_factory()
        return self._tree

    def _tree_from_plan(self) -> TreeBackend:
        # Occupancy-tracking backends must stay mutable, so their node
        # filters are copied out of the mapping; static trees keep
        # zero-copy views.
        return self._compiled.to_tree(
            writable=self._spec.requires_occupied)

    def compiled_tree(self) -> CompiledTree:
        """This engine's flat-array base plan (compiled lazily, cached).

        If the published epoch carries a mutation overlay, it is folded
        in first (:meth:`compact`), so the returned plan always reflects
        the live tree — this is what :meth:`save` and the ``repro
        compile`` CLI persist.  Batched sampling does *not* come through
        here: it reads the published :class:`EngineEpoch` view, which
        keeps deltas sparse.
        """
        epoch = self.current_epoch()
        if epoch.delta is not None and not epoch.delta.is_empty:
            return self.compact()
        return epoch.plan

    # -- epoch pipeline ---------------------------------------------------------

    def current_epoch(self) -> EngineEpoch:
        """The published epoch (compiling + publishing the first lazily).

        Reading the current epoch is one atomic reference load — the
        plan lock is only ever taken to compile the very first plan (or
        by writers), so concurrent ``sample_many`` calls never contend.
        """
        epoch = self._epoch
        if epoch is None:
            with self._plan_lock:
                epoch = self._epoch
                if epoch is None:
                    if self._compiled is None:
                        self._compiled = CompiledTree.from_tree(self.tree)
                        self._plan_dirty = False
                    epoch = self._next_epoch(self._compiled, None)
                    self._epoch = epoch
        return epoch

    def _next_epoch(self, plan: CompiledTree,
                    delta: PlanDelta | None) -> EngineEpoch:
        """Mint the next monotonic epoch (callers hold the plan lock)."""
        self._epoch_counter += 1
        RUNTIME.inc("epochs_minted")
        RUNTIME.set_gauge("delta_density",
                          0.0 if delta is None else delta.density)
        return EngineEpoch(self._epoch_counter, plan, delta)

    # -- durability -------------------------------------------------------------

    @property
    def wal(self):
        """The attached write-ahead log, or ``None`` (volatile engine)."""
        return self._wal

    @property
    def wal_directory(self) -> pathlib.Path | None:
        """The durable directory this engine journals into, or ``None``."""
        return self._wal_dir

    def attach_wal(self, wal, directory) -> None:
        """Attach an opened WAL; every later mutation journals through it.

        ``directory`` is the engine's durable home (the ``save()``
        layout holding ``engine.json`` / ``plan.bst`` / ``sets.bst``):
        :meth:`checkpoint` rewrites its snapshot files in place.  An
        epoch is published immediately, so a durable engine's mutations
        always have a concrete epoch id to stamp into their records.
        Normally called by :func:`repro.durability.open_durable` /
        ``recover_engine`` after replay, not directly.
        """
        if self.config.durability == "off":
            raise DurabilityError(
                "engine config has durability=\"off\"; rebuild the config "
                "with durability=\"wal\" before attaching a WAL")
        with self._plan_lock:
            self._wal = wal
            self._wal_dir = pathlib.Path(directory)
            self._durability_suspended = False
            self.current_epoch()

    @contextlib.contextmanager
    def suspend_durability(self):
        """Permit unlogged mutations on a durable-configured engine.

        Recovery replays records that are already in the log; journalling
        them again would duplicate the tail on the next crash.  Anything
        else that mutates under this context forfeits durability — it is
        recovery plumbing, not an optimisation hook.
        """
        with self._plan_lock:
            previous = self._durability_suspended
            self._durability_suspended = True
        try:
            yield self
        finally:
            with self._plan_lock:
                self._durability_suspended = previous

    def _require_wal(self) -> None:
        """Refuse silently-volatile writes on a durable-configured engine."""
        if self.config.durability != "off" and self._wal is None \
                and not self._durability_suspended:
            raise DurabilityError(
                "engine is configured with durability=\"wal\" but no WAL is "
                "attached; open it via repro.durability.open_durable / "
                "recover_engine instead of mutating a bare load")

    def _journal(self, op: str, ids, epoch: int, name: str = "") -> None:
        """Append one record if a WAL is attached (and not replaying)."""
        if self._wal is not None and not self._durability_suspended:
            self._wal.append(op, ids, epoch=epoch, name=name)

    def restore_epoch(self, epoch: int) -> None:
        """Re-seat the epoch counter so the next published epoch is ``epoch``.

        Recovery plumbing: after loading a snapshot checkpointed at
        epoch ``E``, the engine must republish ``E`` (not restart at 1)
        so that replaying the WAL tail reproduces the original epoch
        ids exactly.  Only legal before anything has been published.
        """
        if epoch < 1:
            raise ValueError("epoch ids start at 1")
        with self._plan_lock:
            if self._epoch is not None:
                raise RuntimeError(
                    "cannot restore the epoch counter after an epoch was "
                    "published")
            self._epoch_counter = int(epoch) - 1

    def _apply_occupancy(self, kind: str, ids) -> None:
        """Apply an occupancy mutation and publish the next epoch.

        ``kind`` is ``"insert"`` or ``"retire"``.  The object tree is
        mutated first (it is the authoritative state); the next epoch
        extends the published delta overlay, or is a fresh recompile
        when the overlay cannot express the change or has grown past
        ``compact_threshold``.  With ``mutation="invalidate"`` the epoch
        is cleared instead and the next reader recompiles.

        The (re-entrant) plan lock is held from the tree mutation to the
        publication: two concurrent writers must not both extend the
        same predecessor epoch, or the later publish would silently drop
        the other's paths.
        """
        if kind not in ("insert", "retire"):
            raise ValueError(f"unknown occupancy mutation {kind!r}")
        self._require_wal()
        ids = np.unique(self._as_ids(ids))
        with self._plan_lock:
            if kind == "insert":
                # Drop ids that are already occupied: re-registering
                # them (add_set/extend_set over overlapping sets) must
                # not dirty their paths or publish a pointless epoch.
                occupied = self.occupied
                if occupied is not None and occupied.size:
                    ids = ids[~np.isin(ids, occupied)]
                if ids.size == 0:
                    return
                self.tree.insert_many(ids)
            else:
                if ids.size == 0:
                    return
                self.tree.remove_many(ids)
            self._plan_dirty = True
            current = self._epoch
            if current is None:
                # Nothing published: drop any stale pre-epoch plan and
                # let the next reader compile from the mutated tree.
                self._compiled = None
                return
            if self.config.mutation == "invalidate":
                self._compiled = None
                self._epoch = None
                return
            delta = (current.delta if current.delta is not None
                     else PlanDelta(current.plan))
            try:
                epoch = self._next_epoch(current.plan,
                                         delta.extend(self.tree, ids))
            except DeltaCompactionNeeded:
                # Structural change the overlay cannot express (tree
                # emptied / base held no nodes): recompile outright.
                epoch = self._next_epoch(self._recompile(), None)
            else:
                if (epoch.delta.density >= self.config.compact_threshold
                        or epoch.delta.chain_length >= MAX_EPOCH_CHAIN):
                    # Fold the overlay *before* publication, so readers
                    # see the mutation and its compaction in one swap.
                    # The chain-length bound catches churn that keeps
                    # re-dirtying the same hot slots, which density
                    # alone never would.
                    RUNTIME.inc("compactions")
                    epoch = self._next_epoch(self._recompile(), None)
            # Journal the *effective* ids (deduped, already-occupied
            # inserts dropped) stamped with the epoch about to publish —
            # write-ahead: the record is on its way to disk before any
            # reader can observe the mutation.  Replay re-derives the
            # same epoch id deterministically, which recovery checks.
            self._journal(kind, ids, epoch.epoch)
            self._epoch = epoch

    def _recompile(self) -> CompiledTree:
        """Compile a fresh base plan from the live tree (plan lock held)."""
        self._compiled = CompiledTree.from_tree(self.tree)
        self._plan_dirty = False
        return self._compiled

    def compact(self, path=None) -> CompiledTree:
        """Fold the published delta into a fresh base plan.

        Runs entirely off the read path: in-flight readers keep the
        epoch they pinned, and the fresh plan is promoted by one atomic
        reference swap.  With ``path`` the plan is also persisted
        through the atomic-rename writer of :mod:`repro.core.mmapio`
        and re-opened memory-mapped, so the served base plan *is* the
        promoted file.  Returns the fresh base plan.

        On a durable engine (WAL attached) a plain ``compact()``
        auto-redirects to :meth:`checkpoint`: an in-memory-only
        compaction would advance the epoch past the WAL's truncation
        bound without leaving a journal record, making replay diverge
        after the next crash.  An explicit ``path`` is refused for the
        same reason — the snapshot must land in the engine's own
        durable directory, with the promoted epoch id inside it.
        """
        with self._plan_lock:
            if self._wal is not None:
                if path is not None:
                    raise DurabilityError(
                        "compact(path=...) on a durable engine would "
                        "promote an epoch outside the WAL-bound snapshot; "
                        "use checkpoint(), which persists into the "
                        "engine's durable directory")
                self.checkpoint()
                return self._compiled
            clean = self._compiled is not None and not self._plan_dirty
            if clean and path is None:
                # No-op compaction: the published base already equals a
                # from-scratch recompile bit for bit, so keep the plan
                # object — and with it every warmed candidate/position/
                # frontier cache — rather than cold-missing readers.
                RUNTIME.inc("compactions_noop")
                self._epoch = self._next_epoch(self._compiled, None)
                return self._compiled
            fresh = CompiledTree.from_tree(self.tree)
            if path is not None:
                fresh.save(path)
                reloaded = CompiledTree.load(path)
                # The mmap-backed reload carries identical bits, so the
                # outgoing plan's caches stay valid on it.
                if clean:
                    reloaded.adopt_caches(self._compiled)
                fresh = reloaded
            self._compiled = fresh
            self._plan_dirty = False
            RUNTIME.inc("compactions")
            self._epoch = self._next_epoch(fresh, None)
            return fresh

    def checkpoint(self) -> dict:
        """Durable snapshot: persist, promote, truncate the WAL.

        The sequence (all under the plan lock, so no mutation
        interleaves):

        1. persist the packed set filters (``sets.bst``);
        2. compile a fresh base plan from the live tree and persist it
           (``plan.bst``) with the about-to-promote epoch id embedded in
           the blob header — snapshot and WAL-truncation bound land in
           *one* atomic rename;
        3. promote the fresh (mmap-backed) plan as a clean epoch;
        4. truncate the WAL to a fresh segment stamped with that epoch.

        A crash between any two steps is safe: recovery filters
        occupancy replay by the epoch id found inside ``plan.bst``, so
        a WAL that still carries pre-checkpoint records replays none of
        them, and a renamed-but-untruncated log is merely un-collected
        garbage.  Returns a summary dict (epoch, path, WAL effect).
        """
        if self._wal is None or self._wal_dir is None:
            raise DurabilityError(
                "checkpoint() needs an attached WAL; open the engine via "
                "repro.durability.open_durable")
        with self._plan_lock:
            started = time.perf_counter()
            promote_at = self._epoch_counter + 1
            clean = self._compiled is not None and not self._plan_dirty
            self.store.save_compiled(self._wal_dir / _SETS_COMPILED_FILE)
            fresh = CompiledTree.from_tree(self.tree)
            plan_path = self._wal_dir / _PLAN_FILE
            fresh.save(plan_path, extra_meta={"wal_epoch": promote_at})
            fresh = CompiledTree.load(plan_path)
            if clean:
                # A checkpoint with nothing accumulated re-persists the
                # same bits; carry the warmed caches onto the reloaded
                # mmap-backed plan so readers keep their frontier hits.
                fresh.adopt_caches(self._compiled)
            self._compiled = fresh
            self._plan_dirty = False
            epoch = self._next_epoch(fresh, None)
            assert epoch.epoch == promote_at
            self._epoch = epoch
            removed = self._wal.truncate(epoch.epoch)
            RUNTIME.inc("checkpoints")
            record_stage("checkpoint", time.perf_counter() - started)
            return {"epoch": epoch.epoch, "path": str(self._wal_dir),
                    "wal_segments_removed": removed,
                    "wal_bytes": self._wal.tail_bytes()}

    # -- construction ---------------------------------------------------------

    @classmethod
    def plan(
        cls,
        namespace_size: int,
        accuracy: float = 0.95,
        *,
        set_size: int | None = None,
        family: str = "murmur3",
        tree: str = "static",
        threshold: float | None = None,
        descent: str = "threshold",
        plan: str = "objects",
        descent_backend: str = "native",
        mutation: str = "delta",
        compact_threshold: float | None = None,
        seed: int = 0,
        k: int = 3,
        cost_ratio: float | None = None,
        depth: int | None = None,
        occupied=None,
    ) -> "BloomDB":
        """Plan parameters from the Section 5.4 knobs and build the engine.

        This is the single entry point replacing the hand-wired
        ``plan_tree -> family_for_parameters -> Tree.build -> FilterStore``
        chain: every component is derived from one config.

        ``occupied`` seeds occupancy-tracking backends with the ids
        already in use, using the variant's bulk build (much faster than
        :meth:`insert_ids` after the fact); the static backend, which
        always covers the full namespace, ignores it.
        """
        kwargs = dict(
            namespace_size=namespace_size,
            accuracy=accuracy,
            set_size=set_size,
            family=family,
            tree=tree,
            descent=descent,
            plan=plan,
            descent_backend=descent_backend,
            mutation=mutation,
            seed=seed,
            k=k,
            cost_ratio=cost_ratio,
            depth=depth,
        )
        if threshold is not None:
            kwargs["threshold"] = threshold
        if compact_threshold is not None:
            kwargs["compact_threshold"] = compact_threshold
        return cls(EngineConfig(**kwargs), occupied=occupied)

    @classmethod
    def from_config(cls, config: EngineConfig) -> "BloomDB":
        """Build an engine from an existing config."""
        return cls(config)

    # -- set management -------------------------------------------------------

    def add_set(self, name: str, ids) -> "BloomDB":
        """Store a new named set; returns ``self`` for chaining.

        For occupancy-tracking backends (``pruned`` / ``dynamic``) the ids
        are also registered in the tree, keeping its candidate space in
        sync with the stored data.
        """
        ids = self._as_ids(ids)
        self.store_set("add_set", name, ids)
        self._register_ids(ids)
        return self

    def extend_set(self, name: str, ids) -> "BloomDB":
        """Insert additional elements into an existing named set."""
        ids = self._as_ids(ids)
        self.store_set("extend_set", name, ids)
        self._register_ids(ids)
        return self

    def store_set(self, op: str, name: str, ids) -> None:
        """Apply a store-only set mutation, journalled on durable engines.

        ``op`` is ``"add_set"`` (create) or ``"extend_set"`` (insert
        into an existing filter).  :meth:`add_set` and
        :meth:`extend_set` both come through here, so durable engines
        journal set content whichever entry point mutated it.  The
        record carries no epoch contract (set content does not publish
        epochs); replay applies it idempotently — create replaces,
        extend ORs into the filter.
        """
        self._require_wal()
        ids = self._as_ids(ids)
        if op == "add_set":
            self.store.create(name, ids)
        elif op == "extend_set":
            self.store.add(name, ids)
        else:
            raise ValueError(f"unknown set mutation {op!r}")
        current = self._epoch
        self._journal(op, ids, 0 if current is None else current.epoch,
                      name=str(name))

    def drop_set(self, name: str) -> "BloomDB":
        """Forget a named set (tree occupancy is left untouched: other
        sets may share the ids, and plain Bloom filters cannot forget)."""
        self.store.discard(name)
        return self

    def names(self) -> list[str]:
        """Stored set names, sorted."""
        return self.store.names()

    def filter(self, name: str) -> BloomFilter:
        """The raw Bloom filter of a named set."""
        return self.store.filter(name)

    def contains(self, name: str, x: int) -> bool:
        """Membership query against one named set."""
        return self.store.contains(name, x)

    def sets_containing(self, x: int) -> list[str]:
        """Names of every stored set whose filter accepts ``x``."""
        return self.store.sets_containing(x)

    def __contains__(self, name: str) -> bool:
        return name in self.store

    def __len__(self) -> int:
        return len(self.store)

    # -- occupancy updates ----------------------------------------------------

    def insert_ids(self, ids) -> "BloomDB":
        """Register ids as occupied without storing them in any set.

        Models the paper's dynamic scenario (new accounts coming into
        use).  Requires an occupancy-tracking backend.
        """
        if not self._spec.supports_insert:
            raise BackendCapabilityError(
                f"tree backend {self.config.tree!r} does not track "
                f"occupancy; use tree=\"pruned\" or tree=\"dynamic\""
            )
        self._apply_occupancy("insert", ids)
        return self

    def retire_ids(self, ids) -> "BloomDB":
        """Remove ids from the occupied namespace (``dynamic`` trees only).

        Retired ids can no longer be produced by sampling or
        reconstruction — the tree's candidate space is the live
        population.  Stored set filters are *not* rewritten (plain Bloom
        filters cannot forget); they simply stop matching anything.
        """
        if not self._spec.supports_remove:
            raise BackendCapabilityError(
                f"tree backend {self.config.tree!r} cannot remove ids; "
                f"use tree=\"dynamic\""
            )
        self._apply_occupancy("retire", ids)
        return self

    @property
    def occupied(self) -> np.ndarray | None:
        """Occupied ids for occupancy-tracking backends, else ``None``."""
        return getattr(self.tree, "occupied", None)

    # -- sampling -------------------------------------------------------------

    def sample(
        self,
        name: str,
        r: int | None = None,
        replacement: bool = True,
    ) -> SampleResult | MultiSampleResult:
        """Draw from a named set: one element, or ``r`` in one tree pass.

        With ``r=None`` runs Algorithm 1 once and returns a
        :class:`~repro.core.sampling.SampleResult`; with an integer ``r``
        runs the one-pass multi-sample of Section 5.3 and returns a
        :class:`~repro.core.sampling.MultiSampleResult`.
        """
        if r is None:
            return self.store.sample(name)
        return self.store.sample_many(name, r, replacement)

    def sample_union(self, names: Iterable[str]) -> SampleResult:
        """Sample from the union of named sets (exact, Section 3.1)."""
        return self.store.sample_union(names)

    def sample_intersection(self, names: Iterable[str]) -> SampleResult:
        """Sample from the intersection sketch of named sets."""
        return self.store.sample_intersection(names)

    def sample_many(
        self,
        names: "Iterable[str | SampleSpec] | Mapping[str, int] | None" = None,
        r: int = 8,
        replacement: bool = True,
    ) -> BatchReport:
        """Batched sampling across stored sets in one call.

        ``names`` may be a list of set names (each sampled ``r`` times), a
        mapping ``{name: rounds}`` for per-set demand, ``None`` for every
        stored set, or a sequence of
        :class:`~repro.api.batch.SampleSpec` objects for full per-request
        control (rounds, replacement and — crucially for the serving
        layer — a per-request ``seed`` that makes the request's result
        independent of batch composition).  Each request's rounds ride
        down the tree together via the one-pass multi-sample machinery,
        so shared-prefix node visits and intersections are paid once per
        set rather than once per round; the returned
        :class:`~repro.api.batch.BatchReport` carries every per-request
        result plus one merged op tally.
        """
        specs = self._normalise_requests(names, r, replacement)
        report = BatchReport()
        start = time.perf_counter()
        if self.config.plan == "compiled":
            # Flat-array path: one level-synchronous descend_frontier
            # pass serves the whole batch (bit-identical per request).
            # The epoch is pinned once here — a concurrent occupancy
            # writer publishes behind us without ever blocking the read.
            results = self.store.sample_batch_compiled(
                self.current_epoch().view(),
                [(spec.name, spec.rounds, spec.replacement, spec.seed)
                 for _, spec in specs],
                backend=self.config.descent_backend)
            for (key, _), result in zip(specs, results):
                report.add(key, result)
        else:
            # One shared position cache: every request's paths hash each
            # leaf's candidates at most once for the whole batch.
            cache = PositionCache(self.tree)
            for key, spec in specs:
                report.add(key, self.store.sample_many(
                    spec.name, spec.rounds, spec.replacement,
                    position_cache=cache, rng=spec.seed))
        report.elapsed_s = time.perf_counter() - start
        return report

    # -- reconstruction -------------------------------------------------------

    def reconstruct(self, name: str,
                    exhaustive: bool = False) -> ReconstructionResult:
        """Recover a named set's contents (Section 6)."""
        return self.store.reconstruct(name, exhaustive=exhaustive)

    def reconstruct_all(
        self,
        names: Iterable[str] | None = None,
        exhaustive: bool = False,
    ) -> BatchReport:
        """Reconstruct many stored sets; one merged op/time report.

        ``names=None`` reconstructs every stored set.
        """
        if names is None:
            names = self.names()
        names = list(names)
        report = BatchReport()
        start = time.perf_counter()
        # Batched kernel: one pass over the tree serves every query filter
        # (identical per-set results to sequential reconstruction).
        for name, result in zip(
                names, self.store.reconstruct_many(names,
                                                   exhaustive=exhaustive)):
            report.add(name, result)
        report.elapsed_s = time.perf_counter() - start
        return report

    # -- component access (experiment harness, advanced callers) --------------

    @property
    def spec(self) -> BackendSpec:
        """The registry entry of the configured tree backend."""
        return self._spec

    def sampler_for(self, rng=None) -> BSTSampler:
        """A fresh sampler on this engine's tree and thresholds.

        The engine's own sampler draws from one shared random stream;
        experiments that need per-trial reproducibility pass their own
        ``rng`` here.
        """
        return BSTSampler(
            self.tree,
            empty_threshold=self.config.threshold,
            rng=self.config.seed if rng is None else rng,
            descent=self.config.descent,
        )

    def reconstructor_for(self, exhaustive: bool = False) -> BSTReconstructor:
        """A reconstructor on this engine's tree and thresholds."""
        return BSTReconstructor(
            self.tree,
            empty_threshold=self.config.threshold,
            exhaustive=exhaustive,
        )

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> pathlib.Path:
        """Persist the whole engine under directory ``path``.

        Writes three files: ``engine.json`` (the config), ``tree.npz``
        (the tree backend) and ``sets.npz`` (every named filter).  With
        ``plan="compiled"`` it additionally writes the mmap-loadable
        compiled artefacts (``plan.bst``, ``sets.bst``) that make
        :meth:`load` O(mmap).  Returns the directory path.

        Durable engines snapshot through :meth:`checkpoint` instead —
        a free-standing ``save()`` would write a snapshot that carries
        no epoch bound and never truncates the WAL.
        """
        if self._wal is not None:
            raise DurabilityError(
                "save() on a durable engine; use checkpoint(), which "
                "persists into the engine's durable directory with the "
                "promoted epoch id")
        path = pathlib.Path(path)
        path.mkdir(parents=True, exist_ok=True)
        payload = {"format": _SAVE_FORMAT, "config": self.config.to_dict()}
        (path / _ENGINE_FILE).write_text(json.dumps(payload, indent=2))
        save_tree(self.tree, path / _TREE_FILE)
        self.store.save(path / _SETS_FILE)
        if self.config.plan == "compiled":
            self.compiled_tree().save(path / _PLAN_FILE)
            self.store.save_compiled(path / _SETS_COMPILED_FILE)
        return path

    @classmethod
    def load(cls, path, *, plan_file: str | None = None,
             sets_file: str | None = None) -> "BloomDB":
        """Rebuild an engine saved with :meth:`save`.

        A ``plan="compiled"`` save with its compiled artefacts present
        loads through ``np.memmap``: no decompression, no object graph —
        the tree materialises lazily from the plan on first
        object-walking operation, and compiled sampling never needs it.

        ``plan_file`` / ``sets_file`` override the compiled artefact
        names inside ``path`` — the multi-process serving tier promotes
        epochs as generation-named snapshot pairs next to the canonical
        ``plan.bst``/``sets.bst``, and its workers attach to exactly the
        pair the ``EPOCH`` version file names (see
        :mod:`repro.service.procpool`).  Only meaningful for
        ``plan="compiled"`` saves.
        """
        path = pathlib.Path(path)
        payload = json.loads((path / _ENGINE_FILE).read_text())
        fmt = int(payload.get("format", -1))
        if fmt != _SAVE_FORMAT:
            raise ValueError(f"unsupported engine save format {fmt}")
        config = EngineConfig.from_dict(payload["config"])
        if (plan_file is not None or sets_file is not None) \
                and config.plan != "compiled":
            raise ValueError(
                "plan_file/sets_file overrides need a plan=\"compiled\" "
                "engine save; this save has no compiled artefacts")

        plan_path = path / (plan_file if plan_file is not None
                            else _PLAN_FILE)
        if plan_file is not None and not plan_path.exists():
            raise FileNotFoundError(
                f"{path} holds no compiled plan named {plan_file!r}")
        if config.plan == "compiled" and plan_path.exists():
            plan = CompiledTree.load(plan_path)
            # Pay the per-plan setup (position tables, hoisted descent
            # constants, frontier buffers) once at attach, not inside
            # the first serving batch.
            plan.prepare()
            if plan.backend != config.tree:
                raise ValueError(
                    f"engine save at {path} is inconsistent: engine.json "
                    f"says tree={config.tree!r} but {plan_path.name} holds "
                    f"a {plan.backend!r} plan")
            spec = backend_for(config.tree)
            materialise = _materialise_once(
                lambda: plan.to_tree(writable=spec.requires_occupied))
            sets_compiled = path / (sets_file if sets_file is not None
                                    else _SETS_COMPILED_FILE)
            if sets_compiled.exists():
                store = FilterStore.load_compiled(
                    sets_compiled, tree=materialise, rng=config.seed,
                    empty_threshold=config.threshold,
                    descent=config.descent)
            else:
                store = FilterStore.load(
                    path / _SETS_FILE, tree=materialise, rng=config.seed,
                    empty_threshold=config.threshold,
                    descent=config.descent)
            return cls(config, family=plan.family, tree=materialise,
                       store=store, compiled=plan)

        tree = load_tree(path / _TREE_FILE)
        loaded_kind = backend_key_of(tree)
        if loaded_kind != config.tree:
            raise ValueError(
                f"engine save at {path} is inconsistent: engine.json says "
                f"tree={config.tree!r} but tree.npz holds a "
                f"{loaded_kind!r} tree")
        store = FilterStore.load(
            path / _SETS_FILE,
            tree=tree,
            rng=config.seed,
            empty_threshold=config.threshold,
            descent=config.descent,
        )
        return cls(config, family=tree.family, tree=tree, store=store)

    # -- introspection --------------------------------------------------------

    def describe(self) -> dict:
        """Summary of the engine: config, resolved parameters, live state."""
        info = self.config.describe()
        info.update(
            sets=len(self.store),
            set_bytes=self.store.nbytes,
            tree_nodes=self.tree.num_nodes,
            tree_bytes=self.tree.memory_bytes,
        )
        occupied = self.occupied
        if occupied is not None:
            info["occupied"] = int(occupied.size)
        epoch = self._epoch
        if epoch is not None:
            info["epoch"] = epoch.epoch
            info["delta_density"] = round(epoch.delta_density, 4)
        if self._wal is not None:
            info["wal_attached"] = True
            info["wal_bytes"] = self._wal.tail_bytes()
        return info

    def __repr__(self) -> str:
        return (f"BloomDB(M={self.config.namespace_size}, "
                f"tree={self.config.tree!r}, family={self.config.family!r}, "
                f"m={self.family.m}, depth={self.params.depth}, "
                f"sets={len(self.store)})")

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _as_ids(ids) -> np.ndarray:
        """Normalise any id collection to a uint64 array."""
        return np.asarray(ids, dtype=np.uint64)

    def _register_ids(self, ids: np.ndarray) -> None:
        """Keep occupancy-tracking backends in sync with stored data."""
        if self._spec.requires_occupied and ids.size:
            self._apply_occupancy("insert", ids)

    def _normalise_requests(
        self,
        names: "Iterable[str | SampleSpec] | Mapping[str, int] | None",
        r: int,
        replacement: bool = True,
    ) -> list[tuple[str, SampleSpec]]:
        """Resolve a ``sample_many`` request into ``[(key, spec), ...]``.

        Name/mapping forms keep one entry per set name (their report keys
        are the names); spec sequences may repeat a name, so their keys
        default to ``"<index>:<name>"`` unless the spec carries its own.
        """
        if r <= 0:
            raise ValueError("r must be positive")
        if names is None:
            return [(name, SampleSpec(name, r, replacement))
                    for name in self.names()]
        if isinstance(names, Mapping):
            if any(int(v) <= 0 for v in names.values()):
                raise ValueError("per-set rounds must be positive")
            return [(str(k), SampleSpec(str(k), int(v), replacement))
                    for k, v in names.items()]
        if isinstance(names, str):
            return [(names, SampleSpec(names, r, replacement))]
        names = list(names)
        if any(isinstance(name, SampleSpec) for name in names):
            specs = []
            for i, spec in enumerate(names):
                if not isinstance(spec, SampleSpec):
                    raise TypeError(
                        "cannot mix SampleSpec and name entries in one "
                        "sample_many call")
                specs.append((spec.key or f"{i}:{spec.name}", spec))
            if len({key for key, _ in specs}) != len(specs):
                raise ValueError("duplicate SampleSpec keys in batch")
            return specs
        return [(str(name), SampleSpec(str(name), r, replacement))
                for name in names]
