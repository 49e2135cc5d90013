"""Batch summaries and confidence intervals for replicate arrays.

The estimators hand back per-replicate values and integer costs; everything
here is plain frequentist machinery on those arrays: one two-pass mean and
variance (``summarize``), CLT and percentile-bootstrap intervals, and the
cost-times-variance figure of merit used to tune geometric rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import RandomStream

CLT = "clt"
BOOTSTRAP_PERCENTILE = "bootstrap-percentile"

_BLOCK = 1 << 16


@dataclass(frozen=True)
class BatchSummary:
    """Moments and accounting for one batch of replicates.

    ``variance`` is the unbiased sample variance (0 for a single replicate,
    with ``degenerate`` set), ``std_error`` is sqrt(variance / n), and
    ``total_cost`` is the exact integer sum of per-replicate costs.
    """

    n: int
    mean: float
    variance: float
    std_error: float
    total_cost: int
    wall_time: float = 0.0
    degenerate: bool = False


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    level: float
    method: str
    degenerate: bool = False


def summarize(values, costs, wall_time: float = 0.0) -> BatchSummary:
    """Reduce replicate values and costs to a BatchSummary.

    Two passes over the values: ``mean`` is ``values.mean()`` and the sample
    variance is the sum of squared deviations from it over ``n - 1``, both
    numpy's pairwise sums -- bit-equal to ``np.var(values, ddof=1)``, without
    its per-call overhead.
    """
    values = np.asarray(values, dtype=float)
    costs = np.asarray(costs)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    if costs.shape != values.shape:
        raise ValueError("values and costs must have matching length")
    n = values.size
    mean = float(values.mean())
    variance = float(((values - mean) ** 2).sum()) / (n - 1) if n > 1 else 0.0
    return BatchSummary(
        n=n,
        mean=mean,
        variance=variance,
        std_error=math.sqrt(variance / n),
        total_cost=int(costs.sum()),
        wall_time=float(wall_time),
        degenerate=(n == 1),
    )


def check_interval_args(alpha: float, resamples: int | None = None, n: int = 2) -> None:
    """Raise the ValueError that ``clt_ci`` or ``bootstrap_ci`` would raise.

    With ``resamples`` None the arguments are checked for ``clt_ci``, which
    accepts ``alpha`` = 1; otherwise for ``bootstrap_ci`` on ``n`` values.
    The CLI calls this before any replicate runs, so a bad flag fails at once.
    """
    if resamples is None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        return
    if n < 2:
        raise ValueError("bootstrap needs at least two values")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if resamples < 100:
        raise ValueError("resamples must be at least 100")


def normal_quantile(alpha: float) -> float:
    """z_{alpha/2} = Phi^{-1}(1 - alpha/2), a two-sided interval's half-width in standard errors."""
    from scipy.special import ndtri  # deferred: scipy.special is most of the time `import musemc` takes

    return float(ndtri(1.0 - alpha / 2.0))


def clt_ci(summary: BatchSummary, alpha: float = 0.05) -> ConfidenceInterval:
    """Central-limit interval mean +/- z_{alpha/2} * std_error.

    ``alpha`` may equal 1 (a zero-width interval at the mean); a
    zero-variance batch is flagged degenerate.
    """
    check_interval_args(alpha)
    if summary.n < 1:
        raise ValueError("summary must cover at least one replicate")
    half = normal_quantile(alpha) * summary.std_error
    return ConfidenceInterval(
        lo=summary.mean - half,
        hi=summary.mean + half,
        level=1.0 - alpha,
        method=CLT,
        degenerate=summary.degenerate or summary.variance == 0.0,
    )


def bootstrap_ci(values, alpha: float = 0.05, resamples: int = 1000, stream=None) -> ConfidenceInterval:
    """Percentile bootstrap interval for the mean.

    Resamples are keyed in blocks, like replicates: with ``n`` values, block
    ``c`` holds resamples ``c*k`` up to the next block or ``resamples``,
    where ``k = max(1, _BLOCK // n)``, and draws all of their indices as one
    ``(kc, n)`` array from the substream keyed ``(c,)`` of ``stream``.  A
    block's index array thus holds at most ``max(_BLOCK, n)`` elements,
    whatever ``resamples`` is, and for ``n > _BLOCK // 2`` every block is one
    resample.  Values are sorted first, so the interval is a function of
    (``stream``, the multiset of values, ``resamples``) alone.  Quantiles
    use the inverse-CDF convention: the q-quantile of B sorted means is
    entry ceil(q * B).
    """
    values = np.sort(np.asarray(values, dtype=float))
    check_interval_args(alpha, resamples, values.size)
    if not isinstance(stream, RandomStream):
        raise TypeError("bootstrap_ci needs a RandomStream to key its resamples")
    n = values.size
    per_block = max(1, _BLOCK // n)
    means = np.empty(resamples)
    for c, start in enumerate(range(0, resamples, per_block)):
        kc = min(per_block, resamples - start)
        idx = stream.child(c).generator.integers(0, n, size=(kc, n))
        means[start : start + kc] = values[idx].mean(axis=1)
    means.sort()

    def quantile(q: float) -> float:
        k = math.ceil(q * resamples)
        k = min(max(k, 1), resamples)
        return float(means[k - 1])

    return ConfidenceInterval(
        lo=quantile(alpha / 2.0),
        hi=quantile(1.0 - alpha / 2.0),
        level=1.0 - alpha,
        method=BOOTSTRAP_PERCENTILE,
        degenerate=bool(values[0] == values[-1]),
    )


def self_normalized_variance(values, costs) -> float:
    """Mean cost times sample variance: the figure of merit for rate tuning.

    By Wald-type reasoning this is proportional to the variance achievable
    per unit of sampling budget, so comparing it across rates is a fair
    cost-adjusted comparison.  The variance is ``summarize``'s.
    """
    costs = np.asarray(costs, dtype=float)
    variance = summarize(values, costs).variance
    return float(costs.mean()) * variance


def summary_to_json(summary: BatchSummary, ci: ConfidenceInterval) -> dict:
    """The canonical JSON payload for one estimation run."""
    return {
        "n": summary.n,
        "mean": summary.mean,
        "variance": summary.variance,
        "std_error": summary.std_error,
        "ci_lo": ci.lo,
        "ci_hi": ci.hi,
        "ci_method": ci.method,
        "level": ci.level,
        "total_cost": summary.total_cost,
        "wall_time_s": summary.wall_time,
    }
