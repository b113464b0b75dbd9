"""Topology sampler for Beta-measure multiple-merger coalescents.

Backward in time, k of b extant lineages merge at rate

    lambda(b, k) = integral over [0,1] of x^(k-2) (1-x)^(b-k) dLambda(x),

with Lambda a Beta(a, b) probability measure; conditional on an event the
merger size is drawn proportional to C(b, k) * lambda(b, k) and the k
lineages are an exchangeable uniform subset.  Event times are not
generated: every statistic in this package is a function of the ranked
shape alone, and for Beta(1, 1) (the uniform measure) branch lengths are
independent of the topology anyway.

The sampler runs a block of draws in lockstep: each step takes the next
event of every unfinished draw with a few numpy operations, and each
draw reads its own fixed slice of the seeded stream, so the shapes are
those of drawing one at a time.  A block ends as columns of parent ranks
and leaf counts, from which ``sample_topologies`` builds its shapes and
``sample-coalescent`` writes its lines.
"""

from __future__ import annotations

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


# Draws advanced together: a block reads 3n uniforms per draw, so 512
# draws take 240 KB at n = 20 and 1.2 MB at n = 100.  Past n = 682 the
# block shrinks so that it never holds more than 2^20 uniforms (8 MB).
_BLOCK_DRAWS = 512
_BLOCK_UNIFORMS = 2**20
# The merger table stays cached, so its size has a cap of its own.
_MERGER_TABLE_BYTES = 64 * 10**6


def _block_draws(n: int) -> int:
    return max(1, min(_BLOCK_DRAWS, _BLOCK_UNIFORMS // (3 * n)))


@cache
def _merger_table(n: int, measure: BetaMeasure) -> np.ndarray:
    """Row b (2 <= b <= n) holds the running sums of
    ``merger_distribution(b, measure)``, padded with inf to a power-of-two
    width so that a binary search never reads past its row.  It stays
    cached, so its size is capped (n <= 2048)."""
    width = 1 << int(n - 1).bit_length()
    if (size := 8 * (int(n) + 1) * width) > _MERGER_TABLE_BYTES:
        raise ValueError(
            f"merger table for n = {n} needs {size / 1e6:.0f} MB; "
            f"cap is {_MERGER_TABLE_BYTES // 10**6} MB (sampling takes n <= 2048)"
        )
    table = np.full((n + 1, width), inf)
    for b in range(2, n + 1):
        table[b, : b - 1] = list(accumulate(merger_distribution(b, measure).tolist()))
    table.flags.writeable = False
    return table


def _merger_sizes(table: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Merger size for draws with b lineages and uniforms v: 2 plus the
    number of running sums in row b that are <= v times the row's total,
    which is ``bisect_right`` of the row (a branch-free binary search)."""
    width = table.shape[1]
    flat = table.ravel()
    row = b * width
    x = v * flat[row + b - 2]
    at = row - 1  # the last sum known to be <= x, or just before the row
    step = width // 2
    while step:
        wider = at + step
        at = np.where(flat[wider] <= x, wider, at)
        step //= 2
    return at - row + 3


def _lockstep(u: np.ndarray, table: np.ndarray) -> tuple[list[int], ...]:
    """The draws whose uniforms are the rows of ``u``, each row read as
    one draw reads its 3n uniforms.  Every unfinished draw takes its next
    merger event in the same numpy step.  Returns ``(t, l, ends, ks)``:
    draw i is the shape whose vectors are ``t`` and ``l`` over
    ``[ends[i] - ks[i], ends[i])``."""
    c, width = u.shape
    n = width // 3
    u = u.ravel()
    size = c * n
    # Draw r owns slots r*n .. r*n + n - 1, one per event; lin holds its
    # extant lineages, each the slot of the event that formed it or `size`
    # for an original tip; up[slot] is the (1-based) event that merged that
    # event's lineage, 0 at the root, and up[size] absorbs the tips.
    lin = np.full(size, size)
    up = np.zeros(size + 1, np.intp)
    merged = np.zeros(size, np.intp)  # lineages merged at each event
    base = np.arange(0, size, n)  # first slot of each unfinished draw
    pos = np.arange(0, u.size, width)  # its next uniform
    b = np.full(c, n)  # its lineage count
    back = -np.arange(n)
    event = 0
    while base.size:
        event += 1
        k = _merger_sizes(table, b, u[pos])
        # largest merger first, so the draws still picking are a prefix
        order = np.argsort(-k)
        k, base, pos, b = k[order], base[order], pos[order], b[order]
        counts = np.searchsorted(-k, back[: k[0]])  # draws with k > j
        ends = np.cumsum(counts)
        # pick j of every draw, j-major: the partial Fisher-Yates of the
        # per-draw loop, picking among the first m = b - j lineages
        j = np.repeat(np.arange(len(counts)), counts)
        r = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        m = b[r] - j
        first = base[r]
        pick = (u[pos[r] + 1 + j] * m).astype(np.intp) + first
        last = first + m - 1
        start = 0
        for end in ends.tolist():
            i = pick[start:end]
            up[lin[i]] = event
            lin[i] = lin[last[start:end]]  # move the last of them into the hole
            start = end
        slot = base + (event - 1)
        lin[base + b - k] = slot  # the new lineage, after the b - k left
        merged[slot] = k
        b -= k - 1
        pos += k + 1
        live = b > 1
        base, pos, b = base[live], pos[live], b[live]
    up = up[:size]
    n_events = np.count_nonzero(merged.reshape(c, n), axis=1)
    row = np.arange(0, size, n)
    inner = up > 0
    # an event's tips: the lineages it merged less the events among them
    tips = merged - np.bincount((up + np.repeat(row - 1, n))[inner], minlength=size)
    # backward event e is the node of rank K - e + 1 (ranks root-down)
    np.subtract(np.repeat(n_events + 1, n), up, out=up, where=inner)
    # a draw's K nodes in rank order: the slots of events K, K - 1, .., 1
    ends = np.cumsum(n_events)
    nodes = np.repeat(row - 1 + ends, n_events) - np.arange(ends[-1])
    return up[nodes].tolist(), tips[nodes].tolist(), ends.tolist(), n_events.tolist()


def _draw_columns(n: int, measure: BetaMeasure, count: int, rng: np.random.Generator):
    """``_lockstep``'s columns for ``count`` draws, one block at a time."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    table = _merger_table(n, measure)
    draws = _block_draws(n)
    for done in range(0, count, draws):
        yield _lockstep(rng.random((min(draws, count - done), 3 * n)), table)


def sample_topologies(
    n: int, measure: BetaMeasure, count: int, rng: np.random.Generator
) -> list[TreeShape]:
    """Draw ``count`` independent shapes.

    Draw i reads uniforms 3n*i .. 3n*i + 3n - 1 of the call's stream: an
    event with b lineages takes one for the merger size k and k for the
    merged lineages, and the K events of a draw use at most
    (n - 1) + 2K <= 3n - 3 of them.  The draws run in blocks that take
    their uniforms with one ``rng.random((draws, 3 * n))``, which reads
    the stream exactly as one ``rng.random(3 * n)`` per draw does; so a
    call for 25 draws and one for 45 give the same shapes as one for 70.
    Each block ends as columns, and the shapes are built from them.
    """
    return [
        TreeShape._trusted(tuple(t[e - K : e]), tuple(l[e - K : e]))
        for t, l, ends, ks in _draw_columns(n, measure, count, rng)
        for e, K in zip(ends, ks)
    ]
