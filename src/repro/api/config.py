"""EngineConfig: every knob of a BloomDB engine in one frozen dataclass.

The paper resolves its free parameters in Section 5.4: the desired
sampling *accuracy* fixes the filter size ``m``; the intersection-to-
membership cost ratio fixes the leaf capacity ``M_perp`` (equivalently
the tree depth).  :class:`EngineConfig` captures those experiment-level
knobs plus the deployment choices the paper leaves to the engineer —
hash family, tree variant, thresholding, seed — and turns them into the
concrete :class:`~repro.core.design.TreeParameters` and
:class:`~repro.core.hashing.HashFamily` the engine is built from.

Configs are JSON-serialisable (:meth:`EngineConfig.to_dict` /
:meth:`EngineConfig.from_dict`), which is how a saved
:class:`~repro.api.engine.BloomDB` records how to rebuild itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.core.backend import available_backends, backend_for
from repro.core.design import (
    TreeParameters,
    family_for_parameters,
    plan_tree,
)
from repro.core.hashing import FAMILY_NAMES, HashFamily
from repro.core.sampling import DEFAULT_EMPTY_THRESHOLD

#: Planner default for the expected query-set size when the caller does
#: not know it (the paper's experiments use n = 1000 throughout).
DEFAULT_SET_SIZE = 1_000

_FAMILIES = FAMILY_NAMES
_DESCENTS = ("threshold", "floored")
_DESCENT_BACKENDS = ("numpy", "native")
_DURABILITY = ("off", "wal")
_WAL_SYNCS = ("always", "batch", "off")

#: Default delta density at which the engine folds the overlay back
#: into a fresh base plan (see :meth:`repro.api.BloomDB.compact`).
DEFAULT_COMPACT_THRESHOLD = 0.5

#: The retired ``plan`` / ``mutation`` knobs, at the one engine left.
#: ``from_dict`` and ``BloomDB.plan`` drop them; ``BloomDB.save`` writes
#: them, since releases that read them load a save without as objects.
LEGACY_ENGINE_KEYS = {"plan": "compiled", "mutation": "delta"}


@dataclass(frozen=True)
class EngineConfig:
    """Complete, validated configuration of a :class:`~repro.api.BloomDB`.

    ``namespace_size``
        The id universe ``M``; every stored element lives in ``[0, M)``.
    ``accuracy``
        Target sampling accuracy of Section 5.4 (drives the filter size).
    ``set_size``
        Expected size ``n`` of a stored set, used by the planner.  ``None``
        uses :data:`DEFAULT_SET_SIZE` capped to half the namespace.
    ``family``
        Hash family name: ``"simple"`` (weakly invertible), ``"murmur3"``
        or ``"md5"`` (Table 1).
    ``tree``
        Tree backend key: ``"static"`` (complete tree, Section 5),
        ``"pruned"`` (occupied subset, Section 5.2) or ``"dynamic"``
        (counting filters; occupancy can also shrink).
    ``threshold``
        The Section 5.6 empty-intersection threshold.
    ``descent``
        Branch policy of :class:`~repro.core.sampling.BSTSampler`:
        ``"threshold"`` (paper) or ``"floored"`` (starvation-free).
    ``descent_backend``
        Replay backend for the compiled descent path: ``"native"``
        (default) uses the compile-on-demand C kernel from
        :mod:`repro.core.native` *when available* and transparently
        falls back to the pure-NumPy reference otherwise; ``"numpy"``
        pins the golden-reference Python/NumPy replay.  Both backends
        are bit-identical (values and OpCounters) per shared rng
        stream.  The ``REPRO_DESCENT_BACKEND`` environment variable
        overrides this field at runtime.
    ``compact_threshold``
        Delta density (dirty-node fraction) at which the engine
        auto-folds the overlay into a fresh base plan after a mutation
        (:meth:`~repro.api.BloomDB.compact`).  Values above 1.0
        effectively disable auto-compaction.
    ``durability``
        ``"off"`` (default): mutations live only in memory between
        explicit saves.  ``"wal"``: the engine journals every mutation
        to a write-ahead log before publishing its epoch and recovers
        the exact pre-crash state on restart (see
        :mod:`repro.durability`) — recovery replays into delta overlays
        over the mmap-loaded snapshot.
    ``wal_sync``
        WAL fsync policy: ``"always"`` (fsync per append, survives
        power loss), ``"batch"`` (default: flush per append — survives
        process death — fsync at checkpoints/flush), or ``"off"``
        (buffered; for bulk loads that checkpoint at the end).
    ``seed``
        Seeds both the hash family and the engine's random stream.
    ``k``
        Hash functions per filter (the paper fixes 3).
    ``cost_ratio``
        Intersection/membership cost ratio for depth planning; ``None``
        uses the analytic model.
    ``depth``
        Explicit tree depth, overriding the planner's choice.
    """

    namespace_size: int
    accuracy: float = 0.95
    set_size: int | None = None
    family: str = "murmur3"
    tree: str = "static"
    threshold: float = DEFAULT_EMPTY_THRESHOLD
    descent: str = "threshold"
    descent_backend: str = "native"
    compact_threshold: float = DEFAULT_COMPACT_THRESHOLD
    durability: str = "off"
    wal_sync: str = "batch"
    seed: int = 0
    k: int = 3
    cost_ratio: float | None = None
    depth: int | None = None

    def __post_init__(self):
        if self.namespace_size < 2:
            raise ValueError("namespace_size must hold at least 2 elements")
        if not 0.0 < self.accuracy <= 1.0:
            raise ValueError("accuracy must be in (0, 1]")
        if self.set_size is not None and not (
                0 < self.set_size < self.namespace_size):
            raise ValueError("set_size must satisfy 0 < n < namespace_size")
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown hash family {self.family!r} (known: {_FAMILIES})")
        backend_for(self.tree)  # raises ValueError on unknown keys
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.descent not in _DESCENTS:
            raise ValueError(
                f"unknown descent policy {self.descent!r} "
                f"(known: {_DESCENTS})")
        if self.descent_backend not in _DESCENT_BACKENDS:
            raise ValueError(
                f"unknown descent backend {self.descent_backend!r} "
                f"(known: {_DESCENT_BACKENDS})")
        if self.compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive")
        if self.durability not in _DURABILITY:
            raise ValueError(
                f"unknown durability mode {self.durability!r} "
                f"(known: {_DURABILITY})")
        if self.wal_sync not in _WAL_SYNCS:
            raise ValueError(
                f"unknown wal_sync policy {self.wal_sync!r} "
                f"(known: {_WAL_SYNCS})")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.depth is not None:
            if self.depth < 0:
                raise ValueError("depth must be non-negative")
            if (1 << self.depth) > self.namespace_size:
                raise ValueError("depth deeper than the namespace allows")

    # -- resolution -----------------------------------------------------------

    @property
    def planned_set_size(self) -> int:
        """The ``n`` handed to the planner (explicit or defaulted)."""
        if self.set_size is not None:
            return self.set_size
        return max(1, min(DEFAULT_SET_SIZE, self.namespace_size // 2))

    def parameters(self) -> TreeParameters:
        """Resolve ``(m, depth, M_perp)`` via the Section 5.4 planner."""
        params = plan_tree(
            self.namespace_size,
            self.planned_set_size,
            self.accuracy,
            k=self.k,
            cost_ratio=self.cost_ratio,
        )
        if self.depth is not None and self.depth != params.depth:
            leaf = -(-self.namespace_size // (1 << self.depth))
            params = replace(params, depth=self.depth,
                             leaf_capacity=max(2, leaf))
        return params

    def build_family(self, params: TreeParameters | None = None) -> HashFamily:
        """Construct the hash family for the resolved parameters."""
        if params is None:
            params = self.parameters()
        return family_for_parameters(params, self.family, seed=self.seed)

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-serialisable dict (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """Rebuild a config saved with :meth:`to_dict`.

        The retired :data:`LEGACY_ENGINE_KEYS` are dropped, whatever
        their value.  Any other unknown key is rejected so stale save
        files fail loudly rather than silently dropping a knob.
        """
        data = {key: value for key, value in data.items()
                if key not in LEGACY_ENGINE_KEYS}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown EngineConfig keys: {sorted(unknown)}")
        return cls(**data)

    def describe(self) -> dict:
        """Human-facing summary: the config plus the resolved parameters."""
        params = self.parameters()
        info = self.to_dict()
        info.update(
            m=params.m,
            resolved_depth=params.depth,
            leaf_capacity=params.leaf_capacity,
            tree_nodes=params.num_nodes,
            tree_memory_mb=round(params.memory_mb, 3),
        )
        return info


def backends_available() -> list[str]:
    """Keys accepted by :attr:`EngineConfig.tree` (re-exported for CLIs)."""
    return available_backends()


def families_available() -> list[str]:
    """Names accepted by :attr:`EngineConfig.family` (for CLIs)."""
    return list(_FAMILIES)
