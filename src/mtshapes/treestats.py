"""Per-shape statistics and sample-level aggregation.

The block size of an internal node is its total child count (leaves plus
internal children); summed over nodes this is always N + K - 1, so the
average block size is determined by (N, K).  An m-tip cherry is a node
whose children are exactly m leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .shapes import TreeShape, _child_counts

__all__ = ["ShapeStats", "StatsSummary", "shape_stats", "aggregate", "lower_median"]


class ShapeStats(NamedTuple):
    """Summary of one shape: tips, internal nodes, block sizes, cherries."""

    n: int
    k: int
    max_block: int
    avg_block: float
    cherries: tuple[tuple[int, int], ...]  # (m, count), ascending m


def shape_stats(shape: TreeShape) -> ShapeStats:
    """Block-size and cherry statistics of a single shape, in one pass
    over its nodes."""
    t, l = shape.t, shape.l
    max_block = 0
    cherries: dict[int, int] = {}
    for internal, leaves in zip(_child_counts(t), l):
        block = internal + leaves
        if block > max_block:
            max_block = block
        if not internal:
            cherries[leaves] = cherries.get(leaves, 0) + 1
    n, k = sum(l), len(t)
    return ShapeStats(n, k, max_block, (n + k - 1) / k, tuple(sorted(cherries.items())))


def lower_median(values: Sequence[float]) -> float:
    """Median with the lower convention for even-length samples."""
    if not values:
        raise ValueError("median of an empty sample")
    return sorted(values)[(len(values) - 1) // 2]


@dataclass(frozen=True)
class StatsSummary:
    """Aggregate over a sample of shapes."""

    count: int
    mean_k: float
    median_k: float
    mean_max_block: float
    median_max_block: float
    mean_avg_block: float
    median_avg_block: float
    mean_cherries: dict[int, float]  # m -> mean count per shape
    scaled_cherries: dict[int, float]  # m -> mean of count / n


def aggregate(
    stats: Iterable[ShapeStats], cherry_sizes: Sequence[int] = range(2, 7)
) -> StatsSummary:
    """Means and lower medians of K, max block, and average block, plus
    per-size cherry means (raw and scaled by each sample's tip count)."""
    return _summary(_stats_columns(stats), cherry_sizes)


# Below this many tips (n + k - 1) / k and c / n are float64 divisions of
# exactly representable ints, which round as Python's int / int does.
_MAX_TIPS = 2**53


def _check_tips(n_max: int):
    if n_max >= _MAX_TIPS:
        raise ValueError(f"stats takes shapes with fewer than 2**53 tips, got {n_max}")


class _Columns(NamedTuple):
    """A sample as per-shape int64 columns, in sample order.  Cherry
    counts are kept sparse, one (size m, shape index, count) column per
    shape and m with a nonzero count, so a wide cherry range costs
    nothing per shape."""

    n: np.ndarray
    k: np.ndarray
    max_block: np.ndarray
    cherries: np.ndarray  # (3, pairs)

    def avg_block(self) -> np.ndarray:
        return (self.n + self.k - 1) / self.k


def _stats_columns(stats: Iterable[ShapeStats]) -> _Columns:
    items = list(stats)
    n = [s.n for s in items]
    _check_tips(max(n, default=0))
    cherries = [(m, i, c) for i, s in enumerate(items) for m, c in s.cherries]
    return _Columns(
        np.array(n, dtype=np.int64),
        np.array([s.k for s in items], dtype=np.int64),
        np.array([s.max_block for s in items], dtype=np.int64),
        np.array(cherries, dtype=np.int64).reshape(-1, 3).T,
    )


def _node_columns(k: np.ndarray, internal: np.ndarray, leaves: np.ndarray) -> _Columns:
    """Columns of shapes given node by node: K per shape, then every
    node's internal-child and leaf counts (``children_counts()`` of each
    shape, concatenated)."""
    first = np.cumsum(k) - k
    leaves = leaves.astype(np.int64)
    n = np.add.reduceat(leaves, first)
    _check_tips(int(n.max(initial=0)))
    max_block = np.maximum.reduceat(internal + leaves, first)
    shape = np.repeat(np.arange(k.size), k)
    cherry = internal == 0
    key, count = np.unique(leaves[cherry] * k.size + shape[cherry], return_counts=True)
    cherries = np.stack((key // k.size, key % k.size, count))
    return _Columns(n, k, max_block, cherries)


def _concat_columns(parts: Sequence[_Columns]) -> _Columns:
    """One sample from consecutive parts, renumbering the shapes."""
    shift = np.cumsum([0] + [p.k.size for p in parts[:-1]])
    return _Columns(
        np.concatenate([p.n for p in parts]),
        np.concatenate([p.k for p in parts]),
        np.concatenate([p.max_block for p in parts]),
        np.concatenate(
            [p.cherries + [[0], [s], [0]] for p, s in zip(parts, shift)], axis=1
        ),
    )


def _lower_median(x: np.ndarray):
    return np.sort(x)[(x.size - 1) // 2].item()


def _summary(cols: _Columns, cherry_sizes: Sequence[int]) -> StatsSummary:
    """The one aggregation behind ``aggregate`` and ``mtshapes stats``.
    Means of integer columns are Python-int sums over the count, and
    float means are ``math.fsum`` sums, so the result does not depend
    on how the sample was split or ordered before reaching here."""
    count = cols.k.size
    if not count:
        raise ValueError("cannot aggregate an empty sample")
    avgs = cols.avg_block()
    totals = dict.fromkeys(cherry_sizes, 0)
    terms = dict.fromkeys(totals, ())  # per size, c / n of each shape with c > 0
    size, shape, counts = cols.cherries
    for m in totals.keys() & set(size.tolist()):
        at = size == m
        totals[m] = int(counts[at].sum())
        terms[m] = (counts[at] / cols.n[shape[at]]).tolist()
    return StatsSummary(
        count=count,
        mean_k=int(cols.k.sum()) / count,
        median_k=_lower_median(cols.k),
        mean_max_block=int(cols.max_block.sum()) / count,
        median_max_block=_lower_median(cols.max_block),
        mean_avg_block=math.fsum(avgs.tolist()) / count,
        median_avg_block=_lower_median(avgs),
        # Shapes without an m-cherry add exact zeros, which change neither sum.
        mean_cherries={m: c / count for m, c in totals.items()},
        scaled_cherries={m: math.fsum(v) / count for m, v in terms.items()},
    )
