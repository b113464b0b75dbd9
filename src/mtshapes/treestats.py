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
    items = list(stats)
    if not items:
        raise ValueError("cannot aggregate an empty sample")
    count = len(items)
    _, ks, maxes, avgs, _ = zip(*items)
    totals = dict.fromkeys(cherry_sizes, 0)
    terms = {m: [] for m in totals}  # per size, c / n of each shape with c > 0
    for s in items:
        for m, c in s.cherries:
            if m in totals:
                totals[m] += c
                terms[m].append(c / s.n)
    return StatsSummary(
        count=count,
        mean_k=sum(ks) / count,
        median_k=lower_median(ks),
        mean_max_block=sum(maxes) / count,
        median_max_block=lower_median(maxes),
        mean_avg_block=math.fsum(avgs) / count,
        median_avg_block=lower_median(avgs),
        # Shapes without an m-cherry add exact zeros, which change neither sum.
        mean_cherries={m: c / count for m, c in totals.items()},
        scaled_cherries={m: math.fsum(v) / count for m, v in terms.items()},
    )
