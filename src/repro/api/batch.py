"""Batched operation reports: per-set results plus one merged cost tally.

The paper's evaluation currency is operation counts (intersections and
membership queries).  When the :class:`~repro.api.engine.BloomDB` facade
runs a batched call — ``sample_many`` across several stored sets, or
``reconstruct_all`` — each per-set result keeps its own
:class:`~repro.core.ops.OpCounter`, and the batch as a whole reports the
merged counter plus wall-clock time, so a serving layer can account a
whole request with one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ops import OpCounter
from repro.core.reconstruct import ReconstructionResult
from repro.core.sampling import MultiSampleResult


@dataclass(frozen=True)
class SampleSpec:
    """One fully-specified sampling request inside a batch.

    :meth:`repro.api.BloomDB.sample_many` accepts a sequence of these in
    place of a name list / rounds mapping.  The extra knob over those
    forms is ``seed``: a non-``None`` seed makes the request's draws come
    from its *own* random stream (derived only from the seed), so the
    result is a pure function of (engine, spec) — independent of batch
    composition, request ordering, and whatever else shares the engine's
    default stream.  That independence is what lets the serving layer's
    worker processes coalesce concurrent requests into batches while
    staying bit-identical to direct calls (see :mod:`repro.service`).

    ``key`` names the request inside the :class:`BatchReport` (default:
    ``"<index>:<name>"``); :meth:`BatchReport.ordered` returns results in
    request order regardless.
    """

    name: str
    rounds: int = 1
    replacement: bool = True
    seed: int | None = None
    key: str | None = None

    def __post_init__(self):
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")


@dataclass
class BatchReport:
    """Outcome of one batched engine call.

    ``results`` maps each stored-set name to its individual result
    (:class:`~repro.core.sampling.MultiSampleResult` for sampling batches,
    :class:`~repro.core.reconstruct.ReconstructionResult` for
    reconstruction batches).  ``ops`` is the merge of every per-result
    counter; ``elapsed_s`` is the wall-clock time of the whole batch.
    """

    results: dict[str, object] = field(default_factory=dict)
    ops: OpCounter = field(default_factory=OpCounter)
    elapsed_s: float = 0.0

    def add(self, name: str, result) -> None:
        """Record one per-set result and fold its ops into the batch tally."""
        self.results[name] = result
        ops = getattr(result, "ops", None)
        if ops is not None:
            self.ops.merge(ops)

    def __getitem__(self, name: str):
        return self.results[name]

    def __contains__(self, name: str) -> bool:
        return name in self.results

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def ordered(self) -> list:
        """Per-request results in submission order (dicts preserve it)."""
        return list(self.results.values())

    @property
    def values(self) -> dict[str, list[int]]:
        """Sampled values per set (sampling batches only)."""
        return {
            name: list(result.values)
            for name, result in self.results.items()
            if isinstance(result, MultiSampleResult)
        }

    @property
    def elements(self) -> dict[str, object]:
        """Recovered id arrays per set (reconstruction batches only)."""
        return {
            name: result.elements
            for name, result in self.results.items()
            if isinstance(result, ReconstructionResult)
        }

    @property
    def requested(self) -> int:
        """Total sample paths requested across the batch."""
        return sum(
            result.requested for result in self.results.values()
            if isinstance(result, MultiSampleResult)
        )

    @property
    def produced(self) -> int:
        """Total samples (or recovered elements) actually produced."""
        total = 0
        for result in self.results.values():
            if isinstance(result, MultiSampleResult):
                total += len(result.values)
            elif isinstance(result, ReconstructionResult):
                total += result.size
        return total

    @property
    def shortfall(self) -> int:
        """Requested sample paths that ended in false-positive dead ends."""
        return self.requested - sum(
            len(result.values) for result in self.results.values()
            if isinstance(result, MultiSampleResult)
        )

    def as_row(self) -> dict:
        """Flat summary dict, ready for the experiment table formatter."""
        return {
            "sets": len(self.results),
            "requested": self.requested,
            "produced": self.produced,
            "intersections": self.ops.intersections,
            "memberships": self.ops.memberships,
            "nodes": self.ops.nodes_visited,
            "backtracks": self.ops.backtracks,
            "time_ms": round(self.elapsed_s * 1e3, 3),
        }

    def __repr__(self) -> str:
        return (f"BatchReport(sets={len(self.results)}, "
                f"produced={self.produced}, "
                f"intersections={self.ops.intersections}, "
                f"memberships={self.ops.memberships}, "
                f"time_ms={self.elapsed_s * 1e3:.3f})")
