"""FilterStore: the paper's database of Bloom-filter-encoded sets.

Section 3.2 frames the system as a database ``D-bar = {B(X_i)}`` of many
subsets, each stored as a Bloom filter with shared parameters — e.g. one
filter per social-media community, per graph vertex, per keyword.  This
module provides that container plus the query surface the paper builds
on top of it:

* named set management (create / extend / discard),
* sampling and reconstruction of any stored set through a shared
  BloomSampleTree,
* algebraic queries across sets — sample from a *union* of communities
  (exact, Section 3.1) or from an *intersection sketch* (approximate),
* persistence of the whole store to one ``.npz`` file.

All filters share the store's hash family, which is the compatibility
requirement of Definition 5.1.

Thread safety: every entry point that touches the name->filter mapping
or the shared sampler stream takes an internal re-entrant lock, so
concurrent threads (the serving leader's request threads in
:mod:`repro.service`, or any embedder) can read sets while another
thread creates or extends them.  Per-request determinism under
concurrency comes from the ``rng`` argument of :meth:`FilterStore.sample_many`
— a seeded call uses its own transient sampler instead of the shared
stream, making the result a pure function of (tree, filter, seed).
"""

from __future__ import annotations

import pathlib
import threading
from typing import Iterable

import numpy as np

from repro.core.bloom import BloomFilter
from repro.core.reconstruct import BSTReconstructor, ReconstructionResult
from repro.core.sampling import DEFAULT_EMPTY_THRESHOLD, BSTSampler, SampleResult
from repro.core.serialization import _family_spec
from repro.core.hashing import create_family
from repro.utils.rng import ensure_rng


class DuplicateSetError(KeyError):
    """A set name is already stored (kept a ``KeyError`` for compat)."""


class FilterStore:
    """A collection of named sets stored as compatible Bloom filters.

    ``tree`` is any BloomSampleTree variant over the same family; when
    provided, :meth:`sample` and :meth:`reconstruct` are available.
    """

    def __init__(
        self,
        family,
        tree=None,
        rng: "int | np.random.Generator | None" = None,
        empty_threshold: float = DEFAULT_EMPTY_THRESHOLD,
        descent: str = "threshold",
    ):
        self.family = family
        self._filters: dict[str, BloomFilter] = {}
        self._rng = ensure_rng(rng)
        self._empty_threshold = float(empty_threshold)
        self._descent = descent
        # Guards _filters and the shared sampler stream; re-entrant so
        # compound operations (union_filter inside sample_union) can nest.
        self._lock = threading.RLock()
        # ``tree`` may also be a zero-arg factory: a compiled-plan engine
        # (repro.core.plan) defers materialising the object tree until an
        # operation actually walks it, keeping cold start O(mmap).
        self._tree_source = tree
        self._tree = None
        self._sampler: BSTSampler | None = None
        self._reconstructor: BSTReconstructor | None = None
        if tree is not None and not callable(tree):
            self._bind_tree(tree)

    def _bind_tree(self, tree) -> None:
        tree.check_query(BloomFilter(self.family))
        self._sampler = BSTSampler(tree, self._empty_threshold, self._rng,
                                   self._descent)
        self._reconstructor = BSTReconstructor(tree, self._empty_threshold)
        self._tree = tree

    @property
    def tree(self):
        """The attached tree backend (materialised on first use)."""
        if self._tree is None and self._tree_source is not None:
            with self._lock:
                if self._tree is None:
                    self._bind_tree(self._tree_source())
        return self._tree

    # -- set management --------------------------------------------------------

    def create(self, name: str, items: np.ndarray | None = None) -> BloomFilter:
        """Create a named set (optionally pre-populated); returns its filter."""
        bloom = BloomFilter(self.family)
        if items is not None:
            bloom.add_many(np.asarray(items, dtype=np.uint64))
        self.install(name, bloom)
        return bloom

    def install(self, name: str, bloom: BloomFilter) -> None:
        """Adopt an existing compatible filter as a named set.

        The supported path for moving filters between stores (e.g.
        seeding a durable serving engine from a template) without reaching
        into private
        state; enforces the same duplicate and Definition 5.1
        compatibility checks as :meth:`create`.
        """
        if bloom.family.m != self.family.m or bloom.family.k != self.family.k:
            raise ValueError(
                f"incompatible filter (m={bloom.family.m}, "
                f"k={bloom.family.k}) for store with m={self.family.m}, "
                f"k={self.family.k}")
        with self._lock:
            if name in self._filters:
                raise DuplicateSetError(f"set {name!r} already exists")
            self._filters[name] = bloom

    def add(self, name: str, items: np.ndarray) -> None:
        """Insert elements into an existing named set.

        Filters loaded from a compiled (memory-mapped, read-only) store
        are copied on first write, so mutation works transparently while
        untouched sets keep sharing the mapped pages.
        """
        with self._lock:
            bloom = self._get(name)
            if not bloom.bits.words.flags.writeable:
                bloom = bloom.copy()
                self._filters[name] = bloom
            bloom.add_many(np.asarray(items, dtype=np.uint64))

    def discard(self, name: str) -> None:
        """Drop a named set."""
        with self._lock:
            if name not in self._filters:
                raise KeyError(name)
            del self._filters[name]

    def filter(self, name: str) -> BloomFilter:
        """The raw Bloom filter of a named set."""
        return self._get(name)

    def copy_filter(self, name: str) -> BloomFilter:
        """A consistent copy of a named filter, taken under the lock.

        Readers that merge filters (the serving workers' union and
        intersection samples) use this instead of :meth:`filter` so a
        concurrent ``add_many`` can never be observed half-applied.
        """
        with self._lock:
            return self._get(name).copy()

    def _get(self, name: str) -> BloomFilter:
        with self._lock:
            try:
                return self._filters[name]
            except KeyError:
                raise KeyError(f"no set named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._filters

    def __len__(self) -> int:
        with self._lock:
            return len(self._filters)

    def names(self) -> list[str]:
        """Stored set names, sorted."""
        with self._lock:
            return sorted(self._filters)

    @property
    def nbytes(self) -> int:
        """Bytes of filter storage (excluding the shared tree)."""
        with self._lock:
            return sum(f.nbytes for f in self._filters.values())

    # -- membership --------------------------------------------------------------

    def contains(self, name: str, x: int) -> bool:
        """Membership query on one named set."""
        return x in self._get(name)

    def sets_containing(self, x: int) -> list[str]:
        """Names of every stored set whose filter accepts ``x``.

        This is the multiset-membership query of Bloofi / Yoon et al.
        (Section 2), answered by brute force over the stored filters.
        """
        with self._lock:
            return [name for name in self.names()
                    if x in self._filters[name]]

    # -- sampling and reconstruction ------------------------------------------------

    def _require_tree(self):
        if self._tree_source is None:
            raise RuntimeError(
                "this FilterStore was created without a BloomSampleTree; "
                "pass tree= to enable sampling and reconstruction"
            )

    def _shared_sampler(self) -> BSTSampler:
        """The store's shared-stream sampler (materialises a lazy tree)."""
        self._require_tree()
        _ = self.tree
        return self._sampler

    def _shared_reconstructor(self) -> BSTReconstructor:
        """The store's reconstructor (materialises a lazy tree)."""
        self._require_tree()
        _ = self.tree
        return self._reconstructor

    def sample(self, name: str) -> SampleResult:
        """Near-uniform sample from a named set (Algorithm 1)."""
        sampler = self._shared_sampler()
        with self._lock:  # the shared rng stream is not thread-safe
            return sampler.sample(self._get(name))

    def sample_many(self, name: str, r: int, replacement: bool = True,
                    position_cache=None, rng=None):
        """One-pass multi-sample from a named set.

        ``position_cache`` (a :class:`~repro.core.kernels.PositionCache`)
        lets a batch of calls over different sets share the leaf-hashing
        work — see :meth:`repro.api.BloomDB.sample_many`.

        ``rng`` (a seed or generator) draws from a transient sampler
        instead of the store's shared stream, making the result
        deterministic per request and safe to run concurrently with other
        seeded calls (the shared-stream path serialises on the store
        lock).
        """
        if rng is None:
            sampler = self._shared_sampler()
            with self._lock:
                return sampler.sample_many(
                    self._get(name), r, replacement,
                    position_cache=position_cache)
        self._require_tree()
        sampler = BSTSampler(self.tree, self._empty_threshold,
                             ensure_rng(rng), self._descent)
        return sampler.sample_many(self._get(name), r, replacement,
                                   position_cache=position_cache)

    def sample_batch_compiled(self, plan, requests,
                              backend: str | None = None):
        """Batched multi-sample through a compiled tree plan.

        ``requests`` is a sequence of ``(name, rounds, replacement,
        seed)`` tuples; the returned list of
        :class:`~repro.core.sampling.MultiSampleResult` is aligned with
        it.  Seeded requests draw from their own streams; unseeded ones
        consume the store's shared stream in request order — in both
        cases bit-identical to calling :meth:`sample_many` per request
        (see :func:`repro.core.plan.descend_frontier`).  The whole batch
        runs under the store lock, but never touches (or materialises)
        the object tree — only the plan's flat arrays.
        """
        from repro.core.plan import DescentRequest, descend_frontier

        self._require_tree()
        with self._lock:
            descent_requests = [
                DescentRequest(
                    self._get(name), rounds, replacement,
                    self._rng if seed is None else ensure_rng(seed))
                for name, rounds, replacement, seed in requests
            ]
            return descend_frontier(
                plan, descent_requests,
                empty_threshold=self._empty_threshold,
                descent=self._descent, backend=backend)

    def reconstruct(self, name: str,
                    exhaustive: bool = False) -> ReconstructionResult:
        """Recover a named set's contents (Section 6)."""
        self._require_tree()
        if exhaustive:
            return BSTReconstructor(self.tree, exhaustive=True).reconstruct(
                self._get(name))
        return self._shared_reconstructor().reconstruct(self._get(name))

    def reconstruct_many(self, names: Iterable[str],
                         exhaustive: bool = False,
                         ) -> list[ReconstructionResult]:
        """Reconstruct several named sets in one pass over the tree.

        Per set the result is identical to calling :meth:`reconstruct`
        sequentially; the batched kernel shares the per-node intersection
        popcounts and each leaf's candidate hashing across the batch.
        """
        self._require_tree()
        queries = [self._get(name) for name in names]
        if exhaustive:
            return BSTReconstructor(
                self.tree, exhaustive=True).reconstruct_many(queries)
        return self._shared_reconstructor().reconstruct_many(queries)

    def union_filter(self, names: Iterable[str]) -> BloomFilter:
        """Exact filter of the union of named sets (Section 3.1)."""
        names = list(names)
        if not names:
            raise ValueError("need at least one set name")
        with self._lock:  # one consistent snapshot of every named filter
            merged = self._get(names[0]).copy()
            for name in names[1:]:
                merged.union_update(self._get(name))
        return merged

    def intersection_filter(self, names: Iterable[str]) -> BloomFilter:
        """Approximate filter of the intersection (bitwise AND sketch).

        A superset sketch: every common element passes, plus false set
        overlaps with the Eq. (1) probability.
        """
        names = list(names)
        if not names:
            raise ValueError("need at least one set name")
        with self._lock:
            merged = self._get(names[0])
            for name in names[1:]:
                merged = merged.intersection(self._get(name))
        return merged

    def sample_filter(self, query: BloomFilter, rng=None) -> SampleResult:
        """Sample from an ad-hoc query filter (union/intersection merges).

        ``rng=None`` draws from the store's shared stream (serialised on
        the store lock); a seed or generator draws from a transient
        sampler — the deterministic path the serving layer uses.
        """
        if rng is None:
            sampler = self._shared_sampler()
            with self._lock:
                return sampler.sample(query)
        self._require_tree()
        sampler = BSTSampler(self.tree, self._empty_threshold,
                             ensure_rng(rng), self._descent)
        return sampler.sample(query)

    def sample_union(self, names: Iterable[str], rng=None) -> SampleResult:
        """Sample from the union of named sets (e.g. allied communities)."""
        return self.sample_filter(self.union_filter(names), rng=rng)

    def sample_intersection(self, names: Iterable[str],
                            rng=None) -> SampleResult:
        """Sample from the intersection sketch of named sets."""
        return self.sample_filter(self.intersection_filter(names), rng=rng)

    # -- persistence -------------------------------------------------------------------

    def save(self, path) -> None:
        """Serialise all named filters (not the tree) to one ``.npz``."""
        name, seed = _family_spec(self.family)
        with self._lock:
            names = self.names()
            if names:
                words = np.stack([self._filters[n].bits.words
                                  for n in names])
            else:
                words = np.empty((0, 0), dtype=np.uint64)
        namespace = getattr(self.family, "namespace_size", self.family.m)
        np.savez_compressed(
            path,
            family_name=np.array(name),
            family_seed=np.int64(seed),
            k=np.int64(self.family.k),
            m=np.int64(self.family.m),
            namespace_size=np.int64(namespace),
            set_names=np.array(names),
            words=words,
        )

    @classmethod
    def load(cls, path, tree=None,
             rng: "int | np.random.Generator | None" = None,
             empty_threshold: float = DEFAULT_EMPTY_THRESHOLD,
             descent: str = "threshold") -> "FilterStore":
        """Load a store saved by :meth:`save`; optionally attach a tree."""
        path = pathlib.Path(path)
        with np.load(path, allow_pickle=False) as data:
            family = create_family(
                str(data["family_name"]), int(data["k"]), int(data["m"]),
                namespace_size=int(data["namespace_size"]),
                seed=int(data["family_seed"]),
            )
            store = cls(family, tree=tree, rng=rng,
                        empty_threshold=empty_threshold, descent=descent)
            from repro.core.bitvector import BitVector
            for name, row in zip(data["set_names"].tolist(), data["words"]):
                bloom = BloomFilter(family, BitVector(family.m, row.copy()))
                store._filters[str(name)] = bloom
        return store

    def save_compiled(self, path) -> None:
        """Serialise all named filters to one raw mappable buffer.

        The compiled counterpart of :meth:`save`
        (:mod:`repro.core.mmapio` layout): :meth:`load_compiled` maps the
        stacked filter words read-only instead of decompressing them, so
        a serving cold start touches no set data until a query does.
        """
        from repro.core.mmapio import write_blob

        name, seed = _family_spec(self.family)
        with self._lock:
            names = self.names()
            if names:
                words = np.stack([self._filters[n].bits.words
                                  for n in names])
            else:
                words = np.empty((0, 0), dtype=np.uint64)
        namespace = getattr(self.family, "namespace_size", self.family.m)
        meta = {
            "kind": "filter-store",
            "family_name": name,
            "family_seed": int(seed),
            "k": int(self.family.k),
            "m": int(self.family.m),
            "namespace_size": int(namespace),
            "set_names": names,
        }
        write_blob(path, meta, {"words": words})

    @classmethod
    def load_compiled(cls, path, tree=None,
                      rng: "int | np.random.Generator | None" = None,
                      empty_threshold: float = DEFAULT_EMPTY_THRESHOLD,
                      descent: str = "threshold") -> "FilterStore":
        """Load a store saved by :meth:`save_compiled` (zero-copy).

        Every filter's bit words are read-only views of one shared
        memory mapping; :meth:`add` copies a filter on first write.
        """
        from repro.core.bitvector import BitVector
        from repro.core.mmapio import read_blob

        meta, arrays = read_blob(path, mmap=True)
        if meta.get("kind") != "filter-store":
            raise ValueError(f"{path} is not a compiled filter store")
        family = create_family(
            meta["family_name"], int(meta["k"]), int(meta["m"]),
            namespace_size=int(meta["namespace_size"]),
            seed=int(meta["family_seed"]),
        )
        store = cls(family, tree=tree, rng=rng,
                    empty_threshold=empty_threshold, descent=descent)
        words = arrays["words"]
        for row, name in enumerate(meta["set_names"]):
            store._filters[str(name)] = BloomFilter(
                family, BitVector(family.m, words[row]))
        return store

    def __repr__(self) -> str:
        has_tree = self._tree_source is not None
        return (f"FilterStore(sets={len(self)}, m={self.family.m}, "
                f"k={self.family.k}, tree={'yes' if has_tree else 'no'})")
