"""Uniform sampling vs the uniform-measure coalescent at N = 20.

Metropolis-Hastings over the lattice (random-walk proposal, acceptance
ratio deg/deg') targets the uniform distribution on shapes; the
coalescent sampler draws ranked topologies by merging uniformly chosen
lineage subsets with Beta(1, 1)-measure merger sizes.  The two laws are
very different: the table below contrasts internal-node counts, block
sizes, and the cherry spectrum.

Pass --big to add a 100-tip coalescent run (a few seconds more).
"""

import sys

import numpy as np

from mtshapes import (
    UNIFORM_MEASURE,
    aggregate,
    run_chains,
    sample_topologies,
    shape_stats,
)

N = 20
print(f"uniform law via Metropolis-Hastings: {N - 1} chains x {200 * N} steps")
mh = run_chains(N, n_chains=N - 1, n_steps=200 * N, seed=2024)
print("per-chain acceptance rates:", " ".join(f"{r:.2f}" for r in mh.acceptance_rates))
uniform = aggregate(shape_stats(s) for s in mh.pooled())

print(f"\ncoalescent law: 40000 independent {N}-tip topologies")
rng = np.random.Generator(np.random.PCG64(99))
beta = aggregate(shape_stats(s) for s in sample_topologies(N, UNIFORM_MEASURE, 40_000, rng))

rows = [
    ("samples", "count", "{}"),
    ("internal nodes", "mean_k", "{:.2f}"),
    ("internal nodes (median)", "median_k", "{}"),
    ("max block size", "mean_max_block", "{:.2f}"),
    ("max block size (median)", "median_max_block", "{}"),
    ("avg block size", "mean_avg_block", "{:.2f}"),
]
print(f"\n{'':>26} {'uniform':>10} {'coalescent':>12}")
for label, attr, fmt in rows:
    u, b = getattr(uniform, attr), getattr(beta, attr)
    print(f"{label:>26} {fmt.format(u):>10} {fmt.format(b):>12}")
print(f"{'scaled m-tip cherries':>26}")
for m in (2, 3, 4):
    print(
        f"{f'm = {m}':>26} {uniform.scaled_cherries[m]:>10.4f}"
        f" {beta.scaled_cherries[m]:>12.4f}"
    )

if "--big" in sys.argv[1:]:
    print("\ncoalescent law at N = 100 (5000 topologies):")
    rng = np.random.Generator(np.random.PCG64(7))
    big = aggregate(shape_stats(s) for s in sample_topologies(100, UNIFORM_MEASURE, 5000, rng))
    print(
        f"  mean K = {big.mean_k:.2f}  mean max block = {big.mean_max_block:.2f}"
        f"  mean avg block = {big.mean_avg_block:.2f}"
    )
