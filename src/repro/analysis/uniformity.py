"""Sample-quality testing via Pearson's chi-squared (Section 7.2).

The paper's protocol: draw ``T = 130 * n`` samples from a filter storing
``n`` elements, tally how often each element appears, and test the null
hypothesis "sampling is uniform" at significance level 0.08.  A p-value
above the level means uniformity is *not* rejected — the paper's Table 5
reports these p-values.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np
from scipy import stats

#: The paper sets the significance level slightly above the usual 0.05.
PAPER_SIGNIFICANCE_LEVEL = 0.08

#: Samples per stored element recommended for that level (Section 7.2).
ROUNDS_PER_ELEMENT = 130


def recommended_rounds(n: int) -> int:
    """The paper's sample-count rule ``T = 130 * n``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return ROUNDS_PER_ELEMENT * n


def sample_counts(
    samples: Iterable[int],
    population: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Observed draw counts aligned with ``population`` order.

    Samples outside the population (false positives of the query filter)
    are ignored — the chi-squared test concerns uniformity *within* the
    stored set, matching the paper's setup where accuracy is reported
    separately.
    """
    counts = Counter(int(s) for s in samples)
    return np.array([counts.get(int(x), 0) for x in population],
                    dtype=np.int64)


def chi_squared_uniformity(
    observed: np.ndarray,
) -> tuple[float, float]:
    """Pearson chi-squared test against the uniform expectation.

    ``observed[i]`` is how often element ``i`` was drawn.  Returns
    ``(statistic, p_value)``; under uniform sampling the statistic follows
    a chi-squared distribution with ``len(observed) - 1`` degrees of
    freedom.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 1 or observed.size < 2:
        raise ValueError("need a 1-D vector of at least 2 counts")
    total = observed.sum()
    if total <= 0:
        raise ValueError("no observations")
    expected = np.full(observed.size, total / observed.size)
    statistic, p_value = stats.chisquare(observed, expected)
    return float(statistic), float(p_value)


def uniformity_p_value(
    samples: Iterable[int],
    population: Sequence[int] | np.ndarray,
) -> float:
    """Convenience wrapper: p-value for draws over a known population."""
    counts = sample_counts(samples, population)
    if counts.sum() == 0:
        raise ValueError("no sample fell inside the population")
    return chi_squared_uniformity(counts)[1]


def total_variation_distance(observed: np.ndarray) -> float:
    """Total-variation distance of the empirical pmf from uniform.

    ``TV = 0.5 * sum_i |p_hat_i - 1/n|`` in ``[0, 1)``: 0 is perfectly
    uniform, 1 - 1/n is maximal concentration.  Unlike the chi-squared
    *test* (which answers "can uniformity be rejected?" and saturates at
    p=0 once any element starves), TV *measures how far* a distribution
    is from uniform — the right scale for comparing samplers in the
    estimator's noise-limited regime (see the estimator noise floor in
    ``docs/algorithms.md``, "Known deviations").
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 1 or observed.size < 2:
        raise ValueError("need a 1-D vector of at least 2 counts")
    total = observed.sum()
    if total <= 0:
        raise ValueError("no observations")
    empirical = observed / total
    return float(0.5 * np.abs(empirical - 1.0 / observed.size).sum())
