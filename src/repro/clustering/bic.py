"""Bayesian Information Criterion for a K-means clustering.

The spherical-Gaussian BIC of Pelleg & Moore (X-means), the same criterion
the SimPoint tool uses to score clusterings (the paper cites Schwarz's BIC,
Sec. III-E).  Higher is better.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ClusteringError
from .kmeans import KMeansResult

_VARIANCE_FLOOR = 1e-12

#: Fraction of the data's overall per-dimension variance below which tighter
#: clusters stop improving the likelihood.  Real BBV profiles carry sampling
#: noise that keeps K-means inertia bounded away from zero; our synthetic
#: slices can be near-duplicates, which would make the ML variance collapse
#: and the likelihood diverge with k.  The floor models that measurement
#: noise (relative, so it is invariant to projection scaling).
DEFAULT_NOISE_FLOOR = 0.1


def points_variance(points: np.ndarray) -> float:
    """The data's mean per-dimension variance (the noise floor's scale)."""
    return float(points.var(axis=0).mean())


def bic_score(
    points: np.ndarray,
    result: KMeansResult,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    total_variance: Optional[float] = None,
) -> float:
    """BIC of ``result`` as a model of ``points``.

    Uses the closed-form spherical-Gaussian log-likelihood:

    ``l = sum_j nj*log(nj) - n*log(n) - n*d/2*log(2*pi*var) - d*(n-k)/2``

    with ``var`` the pooled ML variance (floored at ``noise_floor**2`` times
    the data's overall variance), penalized by ``p/2 * log(n)`` free
    parameters, ``p = k*(d+1)``.  ``total_variance`` is the data's mean
    per-dimension variance (:func:`points_variance`); a k sweep computes it
    once and passes it in.
    """
    n, d = points.shape
    k = result.k
    if n <= k:
        raise ClusteringError(f"BIC needs more points ({n}) than clusters ({k})")
    variance = result.inertia / (d * (n - k))
    if total_variance is None:
        total_variance = points_variance(points)
    variance = max(variance, noise_floor ** 2 * total_variance, _VARIANCE_FLOOR)

    sizes = np.bincount(result.labels, minlength=k).astype(np.float64)
    nonzero = sizes[sizes > 0]
    log_likelihood = (
        float((nonzero * np.log(nonzero)).sum())
        - n * math.log(n)
        - 0.5 * n * d * math.log(2.0 * math.pi * variance)
        - 0.5 * d * (n - k)
    )
    num_params = k * (d + 1)
    return log_likelihood - 0.5 * num_params * math.log(n)
