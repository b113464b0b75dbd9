"""Output checks written independently of ``mtshapes``.

The benchmark checks the program against these re-derivations of the
shape encoding, the edge collapse and the summary statistics, never
against the package's own helpers.
"""

from __future__ import annotations

import math
from collections import Counter
from statistics import NormalDist

import numpy as np

# Consistent per-N totals G(N), N = 2..12 (tests/test_enumeration.py).
CONSISTENT_TOTALS = {
    2: 1, 3: 2, 4: 5, 5: 15, 6: 54, 7: 228, 8: 1108,
    9: 6092, 10: 37388, 11: 253328, 12: 1878112,
}
# Acceptance criterion c11: Beta(1,1) coalescent at N = 20, (reference, tolerance).
C11_COALESCENT = {
    "mean_k": (9.09, 0.15),
    "mean_max_block": (7.74, 0.2),
    "mean_avg_block": (3.45, 0.1),
}
C10B_ACCEPTANCE = (0.85, 0.95)


def parse_shape(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``"t1,...,tK|l1,...,lK"`` to ``(t, l)``; ``ValueError`` if malformed."""
    left, right = text.split("|")
    t = tuple(int(x) for x in left.split(","))
    l = tuple(int(x) for x in right.split(","))
    if len(t) != len(l):
        raise ValueError(f"unequal vector lengths in {text!r}")
    return t, l


def is_valid(t, l, n: int) -> bool:
    """Constraints S1-S4 on the parent-rank and leaf-count vectors, with
    ``n`` tips in all."""
    k = len(t)
    if k == 0 or t[0] != 0 or sum(l) != n or min(l) < 0:
        return False
    internal = [0] * (k + 1)
    for i in range(1, k):
        if not 1 <= t[i] <= i:
            return False
        internal[t[i]] += 1
    for j in range(1, k + 1):
        if internal[j] == 0 and l[j - 1] < 2:
            return False
        if internal[j] == 1 and l[j - 1] < 1:
            return False
    return True


def collapses(t, l) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every shape one edge collapse above ``(t, l)``: nodes e and e+1 merge
    when node e+1's parent is node e, and later ranks shift down by one."""
    out = set()
    k = len(t)
    for e in range(1, k):
        if t[e] != e:
            continue
        new_t = t[:e] + tuple(p - 1 if p > e else p for p in t[e + 1 :])
        new_l = l[: e - 1] + (l[e - 1] + l[e],) + l[e + 1 :]
        out.add((new_t, new_l))
    return out


def shape_summary(shapes, n: int, cherry_sizes=range(2, 7)) -> dict:
    """The ``stats --json`` summary, recomputed from ``(t, l)`` pairs."""
    ks, maxes, avgs = [], [], []
    cherry_counts = {m: [] for m in cherry_sizes}
    for t, l in shapes:
        k = len(t)
        internal = [0] * k
        for p in t[1:]:
            internal[p - 1] += 1
        ks.append(k)
        maxes.append(max(a + b for a, b in zip(internal, l)))
        avgs.append((n + k - 1) / k)
        cherries = Counter(b for a, b in zip(internal, l) if a == 0)
        for m in cherry_sizes:
            cherry_counts[m].append(cherries.get(m, 0))
    count = len(ks)

    def lower_median(xs):
        return sorted(xs)[(len(xs) - 1) // 2]

    return {
        "count": count,
        "mean_k": sum(ks) / count,
        "median_k": lower_median(ks),
        "mean_max_block": sum(maxes) / count,
        "median_max_block": lower_median(maxes),
        "mean_avg_block": math.fsum(avgs) / count,
        "median_avg_block": lower_median(avgs),
        "mean_cherries": {str(m): sum(c) / count for m, c in cherry_counts.items()},
        "scaled_cherries": {
            str(m): math.fsum(x / n for x in c) / count
            for m, c in cherry_counts.items()
        },
    }


def same_summary(got: dict, want: dict) -> bool:
    """Every key of ``want`` present in ``got`` with an equal value
    (floats to 1e-12 relative)."""
    for key, w in want.items():
        g = got.get(key)
        if isinstance(w, dict):
            if not isinstance(g, dict) or not same_summary(g, w):
                return False
        elif isinstance(w, float):
            if not isinstance(g, (int, float)) or not math.isclose(g, w, rel_tol=1e-12):
                return False
        elif g != w:
            return False
    return True


def _average_ranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return (upper - (counts - 1) / 2.0)[inverse]


def _ess(x: np.ndarray) -> float:
    # Geyer's initial monotone sequence estimator over m chains of n draws
    # (Vehtari et al. 2021, eqs. 10-11, as in Stan and ArviZ).
    m, n = x.shape
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, size, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), size, axis=1)[:, :n] / n
    chain_var = acov[:, 0] * n / (n - 1)
    mean_var = chain_var.mean()
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if var_plus <= 0:
        return float("nan")
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho_t = np.zeros(n)
    rho_t[0], rho_t[1] = 1.0, rho[1]
    even, odd = 1.0, rho[1]
    t = 1
    while t < n - 3 and even + odd > 0:
        even, odd = rho[t + 1], rho[t + 2]
        if even + odd >= 0:
            rho_t[t + 1], rho_t[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0:
        rho_t[max_t + 1] = even
    t = 1
    while t <= max_t - 2:
        if rho_t[t + 1] + rho_t[t + 2] > rho_t[t - 1] + rho_t[t]:
            rho_t[t + 1] = rho_t[t + 2] = (rho_t[t - 1] + rho_t[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * rho_t[: max_t + 1].sum() + rho_t[max_t + 1]
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def bulk_ess(chains) -> float:
    """Rank-normalised split bulk effective sample size of an (m, n) array
    of draws (Vehtari, Gelman, Simpson, Carpenter and Buerkner 2021)."""
    x = np.asarray(chains, dtype=float)
    half = x.shape[1] // 2
    if half < 4:
        return float("nan")
    x = np.concatenate([x[:, :half], x[:, -half:]], axis=0)
    ranks = _average_ranks(x.ravel())
    inv = NormalDist().inv_cdf
    z = np.array([inv(p) for p in (ranks - 0.375) / (x.size + 0.25)])
    return _ess(z.reshape(x.shape))
