"""Constants of the paper's evaluation (Table 1).

The grids themselves are the ``quick`` and ``full`` parameters of the
``paper`` scenarios in :mod:`repro.bench.scenarios`.
"""

from __future__ import annotations

#: Hash function count used throughout the paper's evaluation.
PAPER_K = 3

#: Default hash family for quality-sensitive experiments.  The paper's
#: "Simple" family is kept for the speed comparisons (Fig. 7) and for
#: HashInvert, but it correlates pathologically with contiguous id runs
#: (see ``docs/algorithms.md``, "Known deviations"), so murmur3 is the
#: default elsewhere.
DEFAULT_FAMILY = "murmur3"
