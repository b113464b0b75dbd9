"""Exact counting and exhaustive generation of ranked multifurcating shapes.

Counting is driven by the parent-rank vector ``t``: for a fixed ``t`` the
compatible leaf vectors are a stars-and-bars count that depends only on
how many nodes have zero internal children (``k0``) and how many have
exactly one (``k1``).  A three-term recursion tabulates the number of
``t`` vectors per ``(k0, k1)`` pair, and the shape count ``G(N, K)`` is a
small double sum over that table.  All arithmetic is exact (Python ints).

``generate_all`` is the brute-force oracle: it streams every shape once,
in deterministic lexicographic order, and is what the rest of the library
is tested against for small N.  It refuses any request whose exact shape
count exceeds ``MAX_GENERATED_SHAPES``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .shapes import TreeShape, _min_leaves

__all__ = [
    "MAX_COUNT_TIPS",
    "MAX_GENERATED_SHAPES",
    "PairTable",
    "pair_table",
    "count_shapes",
    "count_space",
    "count_labeled_ranked",
    "count_labeled_binary",
    "generate_all",
]

#: Most shapes generate_all yields: the full space up to N = 9 (6092 shapes).
MAX_GENERATED_SHAPES = 10_000

#: Largest N that count_space and ``mtshapes enumerate`` accept, and largest
#: K that count_shapes and pair_table accept.  Counting at K fills pair
#: tables of about K^3/12 entries that stay cached for the life of the
#: process: 95 MB at K = 150, 779 MB at K = 300.
MAX_COUNT_TIPS = 150


@dataclass(frozen=True)
class PairTable:
    """Counts of parent vectors per (k0, k1) pair for a fixed K."""

    k: int
    entries: tuple[tuple[tuple[int, int], int], ...]

    def row_sums(self) -> dict[int, int]:
        """Total vectors per k0 (the Eulerian numbers E(K-1, k0))."""
        out: dict[int, int] = {}
        for (k0, _), v in self.entries:
            out[k0] = out.get(k0, 0) + v
        return out


@functools.cache
def _pair_entries(k: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """Table ``k``, each entry of table ``k - 1`` pushed to its three
    extensions (see ``pair_table``); table 1 is the lone node's (1, 0)."""
    if k == 1:
        return (((1, 0), 1),)
    # Fill the cache from the bottom up, so that the call for k - 1 below
    # is a hit and no call recurses more than one level at any k.
    for kk in range(2, k - 1):
        _pair_entries(kk)
    nxt = {}
    for (k0, k1), a in _pair_entries(k - 1):
        rest = k - 1 - k0 - k1
        for pair, ways in ((k0, k1 + 1), k0), ((k0 + 1, k1 - 1), k1), ((k0 + 1, k1), rest):
            if ways:
                nxt[pair] = nxt.get(pair, 0) + a * ways
    return tuple(sorted(nxt.items()))


def pair_table(k: int) -> PairTable:
    """Tabulate, for every valid (k0, k1), the number of length-``k``
    parent vectors with those counts.

    Built bottom-up from K'=1 by appending one entry at a time: the new
    entry repeats a rank seen twice or more (k0 grows), repeats one seen
    once (k1 shifts into k0), or names a previously absent rank (k1
    grows).  Values sum to (k-1)! across the table.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    _check_cap("k", k)
    return PairTable(k=k, entries=_pair_entries(k))


def _comb(n: int, k: int) -> int:
    # Zero outside the usual range, including negative upper argument.
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def count_shapes(n: int, k: int) -> int:
    """Exact number of shapes with ``n`` tips and ``k`` internal nodes.

    Out-of-range ``k`` yields 0 so that callers may sum freely over k;
    a ``k`` past ``MAX_COUNT_TIPS`` is refused.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= k <= n - 1:
        return 0
    _check_cap("k", k)
    return sum(a * _comb(n - j + k - 1, k - 1) for j, a in _weight_sums(k))


@functools.cache
def _weight_sums(k: int) -> tuple[tuple[int, int], ...]:
    # count_shapes sees a pair (k0, k1) only through j = 2*k0 + k1, so
    # the table entries are summed per j once.
    sums: dict[int, int] = {}
    for (k0, k1), a in _pair_entries(k):
        sums[2 * k0 + k1] = sums.get(2 * k0 + k1, 0) + a
    return tuple(sorted(sums.items()))


def _check_cap(name: str, value: int) -> None:
    """Refuse a ``value`` past ``MAX_COUNT_TIPS`` before any table is built."""
    if value > MAX_COUNT_TIPS:
        raise ValueError(f"{name} must be <= MAX_COUNT_TIPS = {MAX_COUNT_TIPS}, got {value}")


def _check_count_tips(n: int) -> None:
    """Refuse an ``n`` outside 2..``MAX_COUNT_TIPS`` before any table is built."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _check_cap("n", n)


def count_space(n: int) -> int:
    """Exact number of shapes with ``n`` tips, over all K (n <= MAX_COUNT_TIPS)."""
    _check_count_tips(n)
    return sum(count_shapes(n, k) for k in range(1, n))


def count_labeled_ranked(n: int) -> int:
    """Ranked multifurcating trees with ``n`` labeled tips.

    Recursion f(n) = sum_k S(n, k) f(k) over k = 1..n-1, with f(1) = 1
    and S the Stirling numbers of the second kind.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # row[k] = S(m, k) for the current m; only one row is kept
    row = [0, 1]
    f = [0, 1]
    for m in range(2, n + 1):
        row.append(0)
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m + 1)]
        f.append(sum(map(operator.mul, row[1:m], f[1:m])))
    return f[n]


def count_labeled_binary(n: int) -> int:
    """Ranked binary trees with ``n`` labeled tips: n!(n-1)!/2^(n-1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1)


def _t_vectors(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """The parent vectors of length ``k`` whose nodes fit in ``n`` tips,
    in lexicographic order.

    A node with c internal children needs max(0, 2 - c) leaves.  Prefixes
    grow one entry at a time: entry i + 1 adds node i + 1, which needs 2,
    and lowers its parent's need by one while that parent has fewer than
    two children.  So each later entry adds at least one to the need, and
    a prefix of length i needs at least its own need plus k - i leaves,
    which hanging each later node off the one before attains.  A prefix
    past ``n`` by that bound is dropped, and every kept one completes.
    """
    t = [0]
    kids = [0] * (k + 1)  # internal children per node rank, 1-based

    def extend(need: int) -> Iterator[tuple[int, ...]]:
        i = len(t)
        if i == k:
            yield tuple(t)
            return
        room = n - (k - i - 1)  # most a prefix of length i + 1 may need
        for p in range(1, i + 1):
            after = need + 1 + (kids[p] >= 2)
            if after > room:
                continue
            kids[p] += 1
            t.append(p)
            yield from extend(after)
            t.pop()
            kids[p] -= 1

    if k + 1 <= n:
        yield from extend(2)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    # Stars and bars: bar positions in lexicographic order give the parts in it.
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (total + parts - 1,)))
        for bars in itertools.combinations(range(total + parts - 1), parts - 1)
    ]


def generate_all(n: int, k: int | None = None) -> Iterator[TreeShape]:
    """Stream every shape with ``n`` tips (optionally fixed ``k``) exactly
    once, in lexicographic order on (K, t, l).

    Refuses a request whose exact shape count (``count_space(n)``, or
    ``count_shapes(n, k)``) exceeds ``MAX_GENERATED_SHAPES``; that count
    is known before any shape is built.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ks = [kk for kk in (range(1, n) if k is None else [k]) if 1 <= kk <= n - 1]
    # Parent vectors with t_i in {i-2, i-1} give no node more than two
    # internal children, so each fits in K + 1 <= n tips: G(n, K) >= 2^(K-2).
    # A K past the cap by that bound is refused before its table is built.
    top = max(ks, default=1)
    if 2 ** (top - 2) > MAX_GENERATED_SHAPES:
        size = f"at least 2^{top - 2}"
    elif (total := sum(count_shapes(n, kk) for kk in ks)) > MAX_GENERATED_SHAPES:
        size = str(total)
    else:
        size = None
    if size is not None:
        where = f"n={n}" if k is None else f"n={n}, k={k}"
        raise ValueError(
            f"exhaustive generation at {where} yields {size} shapes; "
            f"cap is MAX_GENERATED_SHAPES = {MAX_GENERATED_SHAPES}"
        )
    compositions = functools.cache(_compositions)  # this call's table, keyed by (spare, K)
    for kk in ks:
        for t in _t_vectors(kk, n):
            mins = _min_leaves(t)
            for extra in compositions(n - sum(mins), kk):
                yield TreeShape._trusted(t, tuple(map(operator.add, mins, extra)))
