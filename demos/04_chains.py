"""Markov chains on the lattice, analyzed exactly on small spaces.

Two kernels: a symmetric chain (every neighbor with probability 1/M_N,
uniform stationary law) and the simple random walk (stationary law
proportional to degree).  For 4- and 5-tip spaces the script checks
stationarity exactly, enumerates every subset for the bottleneck ratio,
computes spectral gaps of the lazy kernels, and verifies the Cheeger
sandwich; it then compares the visit frequencies of both chains and of
the Metropolis-Hastings chain (the walk as proposal, uniform target) at
N = 5 with their stationary laws, and ends with the bound formulas up
to N = 20.
"""

from fractions import Fraction

import numpy as np

from mtshapes import (
    build_hasse,
    exact_bottleneck,
    exact_gap,
    exact_kernel,
    mixing_bounds,
    stationary_distribution,
)
from mtshapes.chains import (
    ChainState,
    semi_random_init,
    step_mh_uniform,
    step_random_walk,
    step_symmetric,
)
from mtshapes.lattice import max_degree

for n in (4, 5):
    g = build_hasse(n)
    print(f"== {n}-tip space ({g.n_vertices} shapes) ==")
    for kind in ("symmetric", "random-walk"):
        p = exact_kernel(g, kind)
        pi = stationary_distribution(g, kind)
        # Every entry of p and pi is a fraction with denominator at most
        # V * M_N.  Two such fractions lie at least 1 / (V * M_N)**2 apart,
        # far more than a float's rounding, so the fraction nearest each
        # float is its exact value, and pi P = pi is checked in rationals.
        den = g.n_vertices * max_degree(n)
        p_q = [[Fraction(x).limit_denominator(den) for x in row] for row in p.tolist()]
        pi_q = [Fraction(x).limit_denominator(den) for x in pi.tolist()]
        residual = max(
            abs(sum(pi_q[x] * p_q[x][y] for x in range(len(pi_q))) - pi_q[y])
            for y in range(len(pi_q))
        )
        bottleneck = exact_bottleneck(g, kind)
        gap = exact_gap(g, kind, lazy=True)
        phi_lazy = bottleneck.phi_star / 2
        print(f"  {kind}:")
        print(f"    stationarity residual, exact: {residual}")
        print(
            f"    bottleneck ratio: {bottleneck.phi_star} "
            f"({len(bottleneck.minimizers)} minimizing subset(s), "
            f"sizes {sorted({len(m) for m in bottleneck.minimizers})})"
        )
        print(f"    lazy spectral gap: {gap.gamma:.6f}  relaxation time: {gap.t_rel:.2f}")
        ok = float(phi_lazy**2 / 2) <= gap.gamma <= float(2 * phi_lazy)
        print(
            f"    Cheeger sandwich {float(phi_lazy**2 / 2):.5f} <= gamma <= "
            f"{float(2 * phi_lazy):.5f}: {ok}"
        )
    print()

print("visit frequencies over 20000 steps at N = 5, from a semi-random start:")
rng = np.random.Generator(np.random.PCG64(5))
for name, step, law in (
    ("symmetric", step_symmetric, stationary_distribution(g, "symmetric")),
    ("random-walk", step_random_walk, stationary_distribution(g, "random-walk")),
    ("mh-uniform", step_mh_uniform, np.full(g.n_vertices, 1 / g.n_vertices)),
):
    state = ChainState(semi_random_init(5, 2, rng))
    visits = np.zeros(g.n_vertices)
    for _ in range(20_000):
        visits[g.index[step(state, rng).shape]] += 1
    tv = 0.5 * np.abs(visits / visits.sum() - law).sum()
    print(f"  {name}: total-variation distance to the stationary law {tv:.4f}")

print("\nmixing-time bound formulas (lower bounds non-lazy, upper bounds lazy):")
print(f" {'N':>2} | {'M_N':>6} | {'shapes':>14} | {'sym lower':>10} | {'sym upper':>12} | {'walk lower':>10} | {'walk upper':>10}")
for n in range(4, 21):
    b = mixing_bounds(n)
    print(
        f" {n:>2} | {b.m_n:>6} | {b.g_n:>14} | {b.symmetric_lower:>10.2f} |"
        f" {b.symmetric_lazy_upper:>12.1f} | {b.random_walk_lower:>10.1f} |"
        f" {b.random_walk_lazy_upper:>10.2f}"
    )
