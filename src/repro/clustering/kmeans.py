"""K-means with k-means++ seeding (Forgy/Lloyd iteration), pure numpy.

The assignment step runs in GEMM form by default (``|x|^2 + |c|^2 -
2 x . c^T`` with row chunking, see :mod:`repro.perf.kernels`): the same
squared distances as the naive broadcast without the ``O(n * k * d)``
temporary, and the inner product goes through BLAS.  The broadcast form is
kept behind ``assignment="broadcast"`` (or ``REPRO_KMEANS_ASSIGN``) as a
debugging reference.  The points' squared norms are computed once per fit,
not once per iteration.  The update step accumulates weighted sums per
cluster with a single ``np.bincount`` over ``(label, dimension)`` bins —
one pass over the points instead of ``k`` boolean-mask scans.

A fit reports its Lloyd iterations in :class:`KMeansResult`; the caller
counts fits and iterations into the metrics registry, so the counts survive
fits that run in pool workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ClusteringError
from ..perf.kernels import assign_labels, weighted_means
from ..resilience import KMEANS_DIVERGE, maybe_inject

_ASSIGNMENT_MODES = ("gemm", "broadcast")


def default_assignment() -> str:
    """Assignment mode from ``REPRO_KMEANS_ASSIGN`` (default ``gemm``)."""
    mode = os.environ.get("REPRO_KMEANS_ASSIGN", "gemm").strip().lower()
    if mode not in _ASSIGNMENT_MODES:
        raise ClusteringError(
            f"REPRO_KMEANS_ASSIGN must be one of {_ASSIGNMENT_MODES}, "
            f"got {mode!r}"
        )
    return mode


@dataclass
class KMeansResult:
    """Labels, centroids, and the within-cluster sum of squares."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    k: int
    iterations: int


def _kmeanspp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    dist2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            # All remaining points coincide with a chosen centroid: any
            # fill is equivalent (the extra centroids own empty clusters),
            # so use the deterministic one — duplicating the first
            # centroid — rather than consuming an rng draw for a choice
            # that cannot matter.
            centroids[i:] = centroids[0]
            break
        probs = dist2 / total
        choice = int(rng.choice(n, p=probs))
        centroids[i] = points[choice]
        new_d = ((points - centroids[i]) ** 2).sum(axis=1)
        np.minimum(dist2, new_d, out=dist2)
    return centroids


def _assign(
    points: np.ndarray, centroids: np.ndarray, mode: str, x2: np.ndarray
):
    """``(labels, min_sq_dist)`` under either assignment mode; ``x2`` is
    the points' squared norms (used by ``gemm``)."""
    if mode == "gemm":
        return assign_labels(points, centroids, x2=x2)
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-8,
    weights: Optional[np.ndarray] = None,
    init_centroids: Optional[np.ndarray] = None,
    assignment: Optional[str] = None,
) -> KMeansResult:
    """Lloyd's algorithm; optionally instruction-weighted points.

    Weighting points by their instruction counts makes big slices pull
    centroids harder, matching how extrapolation later weights clusters.

    ``init_centroids`` skips k-means++ seeding and starts Lloyd iteration
    from the given ``(k, d)`` array — the warm-start hook the incremental-k
    sweep in :mod:`repro.clustering.simpoint` uses.  ``assignment`` picks
    the distance computation (``gemm``/``broadcast``); default comes from
    :func:`default_assignment`.
    """
    if points.ndim != 2:
        raise ClusteringError(f"expected 2-D points, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"need 1 <= k <= {n}, got k={k}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,) or np.any(weights < 0):
            raise ClusteringError("weights must be non-negative, one per point")
    mode = assignment or default_assignment()
    if mode not in _ASSIGNMENT_MODES:
        raise ClusteringError(
            f"assignment must be one of {_ASSIGNMENT_MODES}, got {mode!r}"
        )

    maybe_inject(KMEANS_DIVERGE, f"kmeans:k={k}")
    if init_centroids is not None:
        centroids = np.asarray(init_centroids, dtype=np.float64)
        if centroids.shape != (k, points.shape[1]):
            raise ClusteringError(
                f"init_centroids shape {centroids.shape} does not match "
                f"(k={k}, d={points.shape[1]})"
            )
        centroids = centroids.copy()
    else:
        rng = np.random.default_rng(seed)
        centroids = _kmeanspp_init(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    x2 = np.einsum("ij,ij->i", points, points)  # |x|^2, once per fit
    iterations = 0
    # The counter is read after the loop for the iteration report.
    for iterations in range(1, max_iter + 1):  # noqa: B007
        labels, min_d2 = _assign(points, centroids, mode, x2)
        new_centroids, wsum = weighted_means(points, labels, k, weights)
        empty = wsum == 0
        if empty.any():
            # Re-seed empty (or zero-weight) clusters at the farthest point.
            far = int(min_d2.argmax())
            new_centroids[empty] = points[far]
        shift = float(((new_centroids - centroids) ** 2).sum())
        centroids = new_centroids
        if shift <= tol:
            break
    labels, min_d2 = _assign(points, centroids, mode, x2)
    inertia = float(min_d2.sum())
    return KMeansResult(
        labels=labels, centroids=centroids, inertia=inertia, k=k,
        iterations=iterations,
    )
