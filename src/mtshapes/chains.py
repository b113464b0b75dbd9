"""Markov chains on the refinement lattice of shapes with N tips.

Two kernels use the covering graph directly: a symmetric chain that
jumps to each neighbor with probability 1/M_N (uniform stationary law)
and the simple random walk (stationary law proportional to degree).
Metropolis-Hastings with the random walk as proposal samples the uniform
distribution.  Small spaces admit exact analysis: dense kernels,
stationary checks, spectral gaps, and exhaustive bottleneck ratios.

Neighbor moves never materialize the (possibly huge) refinement set: a
single uniform integer below the degree is unranked into either a
collapse or one concrete node split.  A chain keeps its current
``Neighborhood`` and moves by patching it (``Neighborhood.move``), so
after its first step it never rebuilds one from scratch, and the
proposal's degree costs O(1).  Draws read the bit generator directly
through its ctypes interface, under its lock: each rank word and each
MH uniform is the value ``rng.integers(0, 2**32, dtype=np.uint64)`` or
``rng.random()`` would return, so the seeded stream is the Generator's.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .enumeration import count_space
from .lattice import (
    LatticeGraph,
    Neighborhood,
    build_hasse,
    max_degree,
    split_count,  # noqa: F401  (kept importable: perfbench counts calls through it)
)
from .shapes import TreeShape, _parse_text

__all__ = [
    "ChainState",
    "RunResult",
    "BottleneckResult",
    "GapResult",
    "BoundReport",
    "random_below",
    "step_symmetric",
    "step_random_walk",
    "step_mh_uniform",
    "semi_random_init",
    "run_chains",
    "exact_kernel",
    "stationary_distribution",
    "exact_bottleneck",
    "exact_gap",
    "mixing_bounds",
    "MAX_KERNEL_BYTES",
    "MAX_BOTTLENECK_VERTICES",
]

KINDS = ("symmetric", "random-walk")

# The exact paths hold dense V x V float64 kernels and run an O(V^3)
# eigensolve.  N = 8 (1108 shapes, 9.8 MB) fits; N = 9 (6092 shapes,
# 297 MB before the eigensolve's own copies) does not.
MAX_KERNEL_BYTES = 64 * 10**6
# exact_bottleneck enumerates all 2^V subsets: N = 5 has 15 shapes, N = 6 has 54.
MAX_BOTTLENECK_VERTICES = 15


@dataclass
class ChainState:
    """Mutable state of one running chain."""

    shape: TreeShape
    accepted: int = 0
    proposed: int = 0
    cached: Neighborhood | None = field(default=None, repr=False)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else math.nan

    def neighborhood(self) -> Neighborhood:
        """The current shape's neighborhood.  The steppers keep it patched;
        it is rebuilt only if ``shape`` was set from outside."""
        if self.cached is None or self.cached.shape is not self.shape:
            self.cached = Neighborhood(self.shape)
        return self.cached


def random_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision ``n``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    bitgen = rng.bit_generator
    c = bitgen.ctypes
    with bitgen.lock:
        return _below(c.next_uint32, c.state, n)


def _below(word, state, n: int) -> int:
    """Uniform integer in [0, n), n >= 1, from 32-bit words ``word(state)``.

    The top bits of ceil(bits(n) / 32) words, rejected until below n.
    Read through the bit generator's ctypes interface, each word is the
    value ``rng.integers(0, 2**32, dtype=np.uint64)`` would return, so
    the stream is that of the Generator calls without their overhead.
    n == 1 draws nothing.
    """
    if n == 1:
        return 0
    bits = n.bit_length()
    words = (bits + 31) // 32
    shift = words * 32 - bits
    while True:
        r = word(state)
        for _ in range(words - 1):
            r = (r << 32) | word(state)
        r >>= shift
        if r < n:
            return r


def _require_neighbors(nbhd: Neighborhood) -> None:
    if nbhd.degree == 0:
        raise ValueError("shape has no neighbors (single-shape space)")


def step_symmetric(state: ChainState, rng: np.random.Generator) -> ChainState:
    """One step of the symmetric chain: each neighbor with probability
    1/M_N, else hold (self-loop mass 1 - deg/M_N)."""
    here = state.neighborhood()
    _require_neighbors(here)
    r = random_below(rng, max_degree(state.shape.n_tips))
    if r < here.degree:
        there = here.move(r)
        state.shape, state.cached = there.shape, there
    return state


def step_random_walk(state: ChainState, rng: np.random.Generator) -> ChainState:
    """One step of the simple random walk: a uniform neighbor, never a
    self-loop (reflects at binary shapes and at the star)."""
    here = state.neighborhood()
    _require_neighbors(here)
    there = here.move(random_below(rng, here.degree))
    state.shape, state.cached = there.shape, there
    return state


def step_mh_uniform(state: ChainState, rng: np.random.Generator) -> ChainState:
    """One Metropolis-Hastings step targeting the uniform distribution,
    with the random walk as proposal: accept with min(1, deg/deg').

    The proposal's rank is drawn first, then the uniform ``u`` (the value
    ``rng.random()`` would return), whether or not the test needs it.
    """
    here = state.neighborhood()
    _require_neighbors(here)
    bitgen = rng.bit_generator
    c = bitgen.ctypes
    with bitgen.lock:
        r = _below(c.next_uint32, c.state, here.degree)
        u = c.next_double(c.state)
    there = here.move(r)
    state.proposed += 1
    if _accepts(u, here.degree, there.degree):
        state.shape, state.cached = there.shape, there
        state.accepted += 1
    return state


def _accepts(u: float, deg: int, deg_p: int) -> bool:
    """The MH test u < min(1, deg/deg'); exact in rationals once deg'
    reaches 2**52."""
    if deg >= deg_p:
        return True
    if deg_p < 2**52:
        return u < deg / deg_p
    return Fraction(u) < Fraction(deg, deg_p)


# -- initialization ----------------------------------------------------


def semi_random_init(n: int, k: int, rng: np.random.Generator) -> TreeShape:
    """A shape with exactly ``k`` internal nodes from a diagonal draw:
    k - 1 distinct values from {2..n-1}, sorted, then n.  Always valid;
    not uniform over shapes.

    Filling each column of the F-matrix with diagonal d downward by
    max(0, previous - 1) puts s_j - i at row i of column j until 0, with
    s_j = d_j + j strictly increasing.  Node i + 1 appears at row i, where
    the columns with s_j >= i (a suffix) lose one each; its parent is the
    first of them, t_i = 1 + #{j : s_j < i}.  The last row's differences
    are the leaves, l_j = max(0, s_j - k + 1) - max(0, s_{j-1} - k + 1).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    s = np.arange(k)
    s[-1] += n
    if k > 1:
        # the stream of choice(np.arange(2, n), ...), without that array
        s[:-1] += 2 + np.sort(rng.choice(n - 2, size=k - 1, replace=False))
    t = 1 + np.searchsorted(s, np.arange(1, k))
    l = np.diff(np.maximum(0, s - k + 1), prepend=0)
    return TreeShape._trusted((0, *t.tolist()), tuple(l.tolist()))


# -- multi-chain runner -------------------------------------------------


@dataclass
class RunResult:
    """Thinned samples per chain, with per-chain acceptance rates.

    ``lines`` holds each chain's samples as canonical text (``to_text``),
    made where the chain ran, so forked workers send back strings rather
    than pickled shapes.  ``samples`` decodes them into shapes on first
    access and keeps them; equality compares the lines and the rates.
    """

    lines: list[list[str]]
    acceptance_rates: list[float]

    def __eq__(self, other):
        # A chain that makes no MH proposal has rate NaN, and a NaN pickled
        # back from a worker is a new object, so two NaNs count as equal.
        if not isinstance(other, RunResult):
            return NotImplemented
        return self.lines == other.lines and np.array_equal(
            self.acceptance_rates, other.acceptance_rates, equal_nan=True
        )

    @cached_property
    def samples(self) -> list[list[TreeShape]]:
        return [[TreeShape._trusted(*_parse_text(s)) for s in chain] for chain in self.lines]

    def pooled(self) -> list[TreeShape]:
        """All samples concatenated in chain-index order."""
        return [s for chain in self.samples for s in chain]


_STEPPERS = {
    "mh-uniform": step_mh_uniform,
    "symmetric": step_symmetric,
    "random-walk": step_random_walk,
}


def _run_one_chain(n, sampler, n_steps, thin, k, seed_seq):
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    state = ChainState(semi_random_init(n, k, rng))
    stepper = _STEPPERS[sampler]
    out = []
    for s in range(1, n_steps + 1):
        stepper(state, rng)
        if s % thin == 0:
            out.append(state.shape.to_text())
    return out, state.acceptance_rate


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chains(
    n: int,
    sampler: str = "mh-uniform",
    *,
    n_chains: int,
    n_steps: int,
    seed: int,
    thin: int = 1,
    threads: int = 1,
) -> RunResult:
    """Run independent chains with per-chain RNG streams spawned from one
    seed; the output is identical however the chains are scheduled.

    Chain i starts at a semi-random shape with (i mod (N-1)) + 1 internal
    nodes, drawn from that chain's own stream.  To start from a chosen
    shape, step a ``ChainState`` directly.

    ``threads`` runs the chains in up to min(threads, n_chains, usable
    CPUs) forked worker processes, with output identical to a serial run.
    Where fork is unavailable, the chains run serially.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if sampler not in _STEPPERS:
        raise ValueError(f"sampler must be one of {tuple(_STEPPERS)}, got {sampler!r}")
    if n_chains < 1 or n_steps < 1 or thin < 1:
        raise ValueError("n_chains, n_steps and thin must be positive")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    seqs = np.random.SeedSequence(seed).spawn(n_chains)
    jobs = [
        (n, sampler, n_steps, thin, (i % (n - 1)) + 1, seqs[i])
        for i in range(n_chains)
    ]
    workers = min(threads, n_chains, _usable_cpus())
    if workers > 1:
        # Imported here so that `import mtshapes.cli` does not pay for it.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.starmap(_run_one_chain, jobs, chunksize=1)
    else:
        results = [_run_one_chain(*a) for a in jobs]
    return RunResult(
        lines=[r[0] for r in results],
        acceptance_rates=[r[1] for r in results],
    )


# -- exact small-N analysis ---------------------------------------------
#
# Both kernels move to each neighbor of x with probability 1/w(x) and
# hold otherwise: w = M_N for the symmetric chain, w = deg for the random
# walk.  So pi is proportional to w, and the bottleneck ratio of S is
# |boundary of S| / w(S).  _weights is the only place that reads the kind.


def _weights(graph: LatticeGraph, kind: str) -> np.ndarray:
    """Holding weight w(x) per vertex of ``graph`` for chain ``kind``."""
    if kind == "symmetric":
        w = np.full(graph.n_vertices, max_degree(graph.n))
    elif kind == "random-walk":
        plus, minus = graph.degrees()
        w = plus + minus
    else:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not w.all():
        raise ValueError(f"{kind} chain undefined: the space has an isolated shape")
    return w


def _edges(graph: LatticeGraph) -> tuple[list[int], list[int]]:
    """The covering edges as parallel lists of lower and upper vertices."""
    lower = [i for i, ups in enumerate(graph.up) for _ in ups]
    upper = [j for ups in graph.up for j in ups]
    return lower, upper


def exact_kernel(graph: LatticeGraph, kind: str, lazy: bool = False) -> np.ndarray:
    """Dense transition matrix over ``graph.vertices``: 1/w(x) from x to
    each covering neighbour, and the rest of the row's mass on x."""
    w = _weights(graph, kind)
    v = graph.n_vertices
    size = 8 * v * v  # float64 entries
    if size > MAX_KERNEL_BYTES:
        raise ValueError(
            f"dense kernel over {v} shapes needs {size / 1e6:.0f} MB; "
            f"cap is {MAX_KERNEL_BYTES // 10**6} MB (exact analysis takes N <= 8)"
        )
    lower, upper = _edges(graph)
    p = np.diag(1.0 - np.bincount(lower + upper, minlength=v) / w)
    p[lower + upper, upper + lower] = 1.0 / w[lower + upper]
    if lazy:
        p[np.diag_indices(v)] += 1.0
        p /= 2.0
    return p


def stationary_distribution(graph: LatticeGraph, kind: str) -> np.ndarray:
    """Proportional to the holding weight: uniform for the symmetric
    chain, degree-proportional for the walk."""
    w = _weights(graph, kind)
    return w / w.sum()


@dataclass
class BottleneckResult:
    """Exhaustive bottleneck ratio and every minimizing subset."""

    kind: str
    phi_star: Fraction
    minimizers: list[tuple[TreeShape, ...]]


def exact_bottleneck(graph: LatticeGraph, kind: str) -> BottleneckResult:
    """Minimize Q(S, S^c)/pi(S) over nonempty S with pi(S) <= 1/2 by
    enumerating all 2^V subsets (exact rational arithmetic).

    The ratio reduces to integer counts: boundary edges over w(S), the
    holding weight of S (M_N * |S| for the symmetric chain, the total
    degree of S for the random walk).
    """
    w = _weights(graph, kind)
    v = graph.n_vertices
    if v > MAX_BOTTLENECK_VERTICES:
        raise ValueError(
            f"subset enumeration over {v} vertices (2^{v} sets) refused; "
            f"cap is {MAX_BOTTLENECK_VERTICES}"
        )
    masks = np.arange(1, 2**v, dtype=np.uint64)
    member = (masks[:, None] >> np.arange(v, dtype=np.uint64) & 1).astype(bool)
    lower, upper = _edges(graph)
    cut = (member[:, lower] != member[:, upper]).sum(1)
    vol = member @ w
    admissible = np.flatnonzero(2 * vol <= w.sum())
    cut, vol = cut[admissible], vol[admissible]
    # A float pick, confirmed in integers: cut/vol >= cut0/vol0 exactly
    # when cut * vol0 >= cut0 * vol, the volumes being positive.
    s0 = np.argmin(cut / vol)
    lhs, rhs = cut * vol[s0], cut[s0] * vol
    if (lhs < rhs).any():
        raise ArithmeticError("float argmin missed the exact bottleneck minimum")
    best = Fraction(int(cut[s0]), int(vol[s0]))
    arg = admissible[lhs == rhs]
    minimizers = [
        tuple(graph.vertices[i] for i in np.flatnonzero(member[s]))
        for s in arg
    ]
    return BottleneckResult(kind=kind, phi_star=best, minimizers=minimizers)


@dataclass
class GapResult:
    """Spectral diagnostics of a reversible kernel."""

    gamma: float
    gamma_star: float
    t_rel: float
    eigenvalues: np.ndarray


def exact_gap(graph: LatticeGraph, kind: str, lazy: bool = False) -> GapResult:
    """Spectral gap via a symmetric eigensolve.

    The kernel is symmetrized by the similarity transform
    D^(1/2) P D^(-1/2) with D = diag(pi), which preserves the spectrum
    (the identity for the symmetric chain, whose pi is uniform).
    """
    p = exact_kernel(graph, kind, lazy=lazy)
    root = np.sqrt(stationary_distribution(graph, kind))
    p *= root[:, None]
    p /= root[None, :]
    w = np.linalg.eigvalsh(p)
    gamma = 1.0 - w[-2]
    gamma_star = 1.0 - max(abs(w[0]), w[-2])
    # Periodic chains have an eigenvalue at -1; treat the gap as zero.
    t_rel = math.inf if gamma_star <= 1e-12 else 1.0 / gamma_star
    return GapResult(gamma=gamma, gamma_star=gamma_star, t_rel=t_rel, eigenvalues=w)


@dataclass
class BoundReport:
    """Mixing-time bound formulas (and optional exact small-N numbers)."""

    n: int
    m_n: int
    g_n: int
    symmetric_lower: float
    symmetric_lazy_upper: float
    random_walk_lower: float
    random_walk_lazy_upper: float
    exact: dict | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if out["exact"] is None:
            del out["exact"]
        return out


def mixing_bounds(n: int, *, include_exact: bool = False) -> BoundReport:
    """Evaluate the four mixing-time bound formulas at ``n``:

    * symmetric chain lower bound M_N / 4 (bottleneck at a degree-1 shape);
    * lazy symmetric upper bound 8 M_N^2 log(4 G(N));
    * random-walk lower bound (diameter/2) = N - 3;
    * lazy random-walk upper bound 8 log(4 M_N G(N)).

    With ``include_exact`` (n <= 8) the report also carries the lazy
    spectral gaps and the diameter, and the exhaustive bottleneck ratios
    while the space has at most ``MAX_BOTTLENECK_VERTICES`` shapes (n <= 5).
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    m_n = max_degree(n)
    g_n = count_space(n)
    report = BoundReport(
        n=n,
        m_n=m_n,
        g_n=g_n,
        symmetric_lower=m_n / 4.0,
        symmetric_lazy_upper=8.0 * float(m_n) ** 2 * math.log(4 * g_n),
        random_walk_lower=float(n - 3),
        random_walk_lazy_upper=8.0 * math.log(4 * m_n * g_n),
    )
    if include_exact:
        from .lattice import diameter as _diameter

        graph = build_hasse(n)
        exact = {"diameter": _diameter(graph)}
        for kind in KINDS:
            exact[kind] = {}
            # As in `exact`, the ratio is omitted where subsets are refused.
            if graph.n_vertices <= MAX_BOTTLENECK_VERTICES:
                exact[kind]["phi_star"] = float(exact_bottleneck(graph, kind).phi_star)
            gap = exact_gap(graph, kind, lazy=True)
            exact[kind].update(lazy_gamma=float(gap.gamma), lazy_t_rel=float(gap.t_rel))
        report.exact = exact
    return report
