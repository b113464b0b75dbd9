"""Topology sampler for Beta-measure multiple-merger coalescents.

Backward in time, k of b extant lineages merge at rate

    lambda(b, k) = integral over [0,1] of x^(k-2) (1-x)^(b-k) dLambda(x),

with Lambda a Beta(a, b) probability measure; conditional on an event the
merger size is drawn proportional to C(b, k) * lambda(b, k) and the k
lineages are an exchangeable uniform subset.  Event times are not
generated: every statistic in this package is a function of the ranked
shape alone, and for Beta(1, 1) (the uniform measure) branch lengths are
independent of the topology anyway.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import inf, lgamma

import numpy as np

from .shapes import TreeShape

__all__ = [
    "BetaMeasure",
    "UNIFORM_MEASURE",
    "merger_distribution",
    "sample_topologies",
]


@dataclass(frozen=True)
class BetaMeasure:
    """Beta(a, b) probability measure on [0, 1] driving merger rates."""

    a: float
    b: float

    def __post_init__(self):
        if not all(0 < x < inf for x in (self.a, self.b)):
            raise ValueError(
                f"shape parameters must be finite and positive, got {self}"
            )

    @classmethod
    def from_alpha(cls, alpha: float) -> "BetaMeasure":
        """The one-parameter family Beta(2 - alpha, alpha), 0 < alpha < 2.

        alpha = 1 is the uniform measure; alpha -> 2 pushes toward the
        pairwise-merger limit, which itself is out of range.
        """
        if not 0 < alpha < 2:
            raise ValueError(f"alpha must be in (0, 2), got {alpha}")
        return cls(2.0 - alpha, alpha)


UNIFORM_MEASURE = BetaMeasure(1.0, 1.0)


def _log_beta(x: float, y: float) -> float:
    return lgamma(x) + lgamma(y) - lgamma(x + y)


def merger_distribution(n_lineages: int, measure: BetaMeasure) -> np.ndarray:
    """Probability of merger size k = 2..b at the next event, each
    proportional to C(b, k) times the k-merger rate."""
    if n_lineages < 2:
        raise ValueError(f"need at least 2 lineages, got {n_lineages}")
    b = n_lineages
    a, bb = measure.a, measure.b
    log_b0 = _log_beta(a, bb)
    logs = np.array(
        [
            lgamma(b + 1)
            - lgamma(k + 1)
            - lgamma(b - k + 1)
            + _log_beta(k - 2 + a, b - k + bb)
            - log_b0
            for k in range(2, b + 1)
        ]
    )
    w = np.exp(logs - logs.max())
    return w / w.sum()


@cache
def _cumulative_weights(n_lineages: int, measure: BetaMeasure) -> list[float]:
    """Running sums of ``merger_distribution`` as a plain list, for
    drawing the merger size with one uniform and a bisection."""
    return list(accumulate(merger_distribution(n_lineages, measure).tolist()))


def sample_topologies(
    n: int, measure: BetaMeasure, count: int, rng: np.random.Generator
) -> list[TreeShape]:
    """Draw ``count`` independent shapes, reusing per-b merger laws.

    Each draw reads one block of 3n uniforms: an event with b lineages
    takes one for the merger size k and k for the merged lineages, and
    the K events of a draw use at most (n - 1) + 2K <= 3n - 3 of them.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    cums = [None, None] + [_cumulative_weights(b, measure) for b in range(2, n + 1)]
    out = []
    for _ in range(count):
        u = rng.random(3 * n).tolist()
        pos = 0
        # a lineage is 0 for an original tip or the 1-based id of the
        # event that formed it
        lineages = [0] * n
        up: list[int] = []  # up[e - 1]: the event that merged event e's lineage
        tips: list[int] = []  # tips[e - 1]: original tips merged at event e
        b = n
        while b > 1:
            cum = cums[b]
            k = bisect_right(cum, u[pos] * cum[-1]) + 2
            pos += 1
            event = len(up) + 1
            leaves = 0
            # partial Fisher-Yates: pick uniformly among the first m
            # lineages, then move the last of them into the hole
            for m in range(b, b - k, -1):
                i = int(u[pos] * m)
                pos += 1
                x = lineages[i]
                lineages[i] = lineages[m - 1]
                if x:
                    up[x - 1] = event
                else:
                    leaves += 1
            del lineages[b - k + 1 :]
            lineages[b - k] = event
            up.append(0)
            tips.append(leaves)
            b -= k - 1
        # backward event e is the node of rank K - e + 1 (ranks root-down)
        k_nodes = len(up)
        t = [k_nodes + 1 - e if e else 0 for e in reversed(up)]
        out.append(TreeShape._trusted(tuple(t), tuple(reversed(tips))))
    return out
