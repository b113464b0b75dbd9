"""Markov chains on the refinement lattice of shapes with N tips.

Two kernels use the covering graph directly: a symmetric chain that
jumps to each neighbor with probability 1/M_N (uniform stationary law)
and the simple random walk (stationary law proportional to degree).
Metropolis-Hastings with the random walk as proposal samples the uniform
distribution.  Small spaces admit exact analysis: dense kernels,
stationary checks, spectral gaps, and exhaustive bottleneck ratios.

Neighbor moves never materialize the (possibly huge) refinement set: a
single uniform integer below the degree is unranked into either a
collapse or one concrete node split.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .enumeration import count_space
from .lattice import (
    LatticeGraph,
    Neighborhood,
    build_hasse,
    max_degree,
    split_count,  # noqa: F401  (kept importable: perfbench counts calls through it)
)
from .shapes import TreeShape

__all__ = [
    "ChainSpec",
    "ChainState",
    "RunResult",
    "BottleneckResult",
    "GapResult",
    "BoundReport",
    "random_below",
    "neighbor_by_rank",
    "uniform_neighbor",
    "step_symmetric",
    "step_random_walk",
    "step_mh_uniform",
    "semi_random_fmatrix",
    "semi_random_init",
    "run_chains",
    "exact_kernel",
    "stationary_distribution",
    "exact_bottleneck",
    "exact_gap",
    "mixing_bounds",
]

KINDS = ("symmetric", "random-walk")


@dataclass(frozen=True)
class ChainSpec:
    """A kernel on the lattice: which rule, whether lazy, which N."""

    kind: str
    n: int
    lazy: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


@dataclass
class ChainState:
    """Mutable state of one running chain."""

    shape: TreeShape
    step: int = 0
    accepted: int = 0
    proposed: int = 0
    cached: Neighborhood | None = field(default=None, repr=False)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else math.nan

    def neighborhood(self) -> Neighborhood:
        """The current shape's neighborhood, rebuilt after the shape changed."""
        if self.cached is None or self.cached.shape is not self.shape:
            self.cached = Neighborhood(self.shape)
        return self.cached


def random_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision ``n``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return 0
    bits = n.bit_length()
    words = (bits + 31) // 32
    while True:
        # Scalar draws consume the stream exactly as one size=words draw
        # does, without the array's overhead.
        r = 0
        for _ in range(words):
            r = (r << 32) | int(rng.integers(0, 1 << 32, dtype=np.uint64))
        r >>= words * 32 - bits
        if r < n:
            return r


def neighbor_by_rank(shape: TreeShape, rank: int) -> TreeShape:
    """The ``rank``-th neighbor (0-based) in :class:`~mtshapes.lattice.Neighborhood` order."""
    return Neighborhood(shape).neighbor(rank)


def uniform_neighbor(
    rng: np.random.Generator, shape: TreeShape, nbhd: Neighborhood | None = None
) -> tuple[TreeShape, int]:
    """A uniformly chosen neighbor and the degree of ``shape``; ``nbhd``,
    if given, is ``shape``'s already built neighborhood."""
    if nbhd is None:
        nbhd = Neighborhood(shape)
    if nbhd.degree == 0:
        raise ValueError("shape has no neighbors (single-shape space)")
    return nbhd.neighbor(random_below(rng, nbhd.degree)), nbhd.degree


def step_symmetric(
    state: ChainState, rng: np.random.Generator, m_n: int | None = None
) -> ChainState:
    """One step of the symmetric chain: each neighbor with probability
    1/M_N, else hold (self-loop mass 1 - deg/M_N)."""
    if m_n is None:
        m_n = max_degree(state.shape.n_tips)
    nbhd = state.neighborhood()
    r = random_below(rng, m_n)
    if r < nbhd.degree:
        state.shape = nbhd.neighbor(r)
    state.step += 1
    return state


def step_random_walk(state: ChainState, rng: np.random.Generator) -> ChainState:
    """One step of the simple random walk: a uniform neighbor, never a
    self-loop (reflects at binary shapes and at the star)."""
    state.shape, _ = uniform_neighbor(rng, state.shape, state.neighborhood())
    state.step += 1
    return state


def step_mh_uniform(state: ChainState, rng: np.random.Generator) -> ChainState:
    """One Metropolis-Hastings step targeting the uniform distribution,
    with the random walk as proposal: accept with min(1, deg/deg')."""
    proposal, deg = uniform_neighbor(rng, state.shape, state.neighborhood())
    there = Neighborhood(proposal)
    deg_p = there.degree
    state.proposed += 1
    u = rng.random()
    if deg >= deg_p:
        accept = True
    elif deg_p < 2**52:
        accept = u < deg / deg_p
    else:
        accept = Fraction(u) < Fraction(deg, deg_p)
    if accept:
        state.shape, state.cached = proposal, there
        state.accepted += 1
    state.step += 1
    return state


# -- initialization ----------------------------------------------------


def semi_random_fmatrix(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an F-matrix by sampling k-1 distinct diagonal values from
    {2..n-1}, sorting, appending n, and filling each column downward by
    max(0, previous - 1).  Always valid; not uniform over shapes."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    diag = np.empty(k, dtype=np.int64)
    diag[-1] = n
    if k > 1:
        diag[:-1] = np.sort(rng.choice(np.arange(2, n), size=k - 1, replace=False))
    rows = np.arange(k)[:, None]
    cols = np.arange(k)[None, :]
    return np.tril(np.maximum(0, diag[None, :] - (rows - cols)))


def semi_random_init(n: int, k: int, rng: np.random.Generator) -> TreeShape:
    """A shape with exactly ``k`` internal nodes via the diagonal draw."""
    return TreeShape.from_fmatrix(semi_random_fmatrix(n, k, rng))


# -- multi-chain runner -------------------------------------------------


@dataclass
class RunResult:
    """Thinned samples per chain, with per-chain acceptance rates."""

    n: int
    sampler: str
    seed: int
    thin: int
    samples: list[list[TreeShape]]
    acceptance_rates: list[float]

    def pooled(self) -> list[TreeShape]:
        """All samples concatenated in chain-index order."""
        return [s for chain in self.samples for s in chain]


_STEPPERS = {
    "mh-uniform": step_mh_uniform,
    "symmetric": step_symmetric,
    "random-walk": step_random_walk,
}


def _run_one_chain(n, sampler, n_steps, thin, init_shape, seed_seq):
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    if isinstance(init_shape, int):  # draw a semi-random start with k = init_shape
        state = ChainState(semi_random_init(n, init_shape, rng))
    else:
        state = ChainState(init_shape)
    stepper = _STEPPERS[sampler]
    out = []
    for s in range(1, n_steps + 1):
        stepper(state, rng)
        if s % thin == 0:
            out.append(state.shape)
    return out, state.acceptance_rate


def run_chains(
    n: int,
    sampler: str = "mh-uniform",
    *,
    n_chains: int,
    n_steps: int,
    seed: int,
    init="semi-random",
    thin: int = 1,
    threads: int = 1,
) -> RunResult:
    """Run independent chains with per-chain RNG streams spawned from one
    seed; the output is identical however the chains are scheduled.

    ``init`` is either ``"semi-random"`` (chain i starts at a semi-random
    shape with (i mod (N-1)) + 1 internal nodes, drawn from that chain's
    own stream), a single TreeShape, or one TreeShape per chain.
    """
    if sampler not in _STEPPERS:
        raise ValueError(f"sampler must be one of {tuple(_STEPPERS)}, got {sampler!r}")
    if n_chains < 1 or n_steps < 1 or thin < 1:
        raise ValueError("n_chains, n_steps and thin must be positive")
    if init == "semi-random":
        inits = [(i % (n - 1)) + 1 for i in range(n_chains)]
    elif isinstance(init, TreeShape):
        if init.n_tips != n:
            raise ValueError(f"init shape has {init.n_tips} tips, expected {n}")
        inits = [init] * n_chains
    else:
        inits = list(init)
        if len(inits) != n_chains or any(s.n_tips != n for s in inits):
            raise ValueError("init must provide one n-tip shape per chain")
    seqs = np.random.SeedSequence(seed).spawn(n_chains)
    jobs = [
        (n, sampler, n_steps, thin, inits[i], seqs[i]) for i in range(n_chains)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda a: _run_one_chain(*a), jobs))
    else:
        results = [_run_one_chain(*a) for a in jobs]
    return RunResult(
        n=n,
        sampler=sampler,
        seed=seed,
        thin=thin,
        samples=[r[0] for r in results],
        acceptance_rates=[r[1] for r in results],
    )


# -- exact small-N analysis ---------------------------------------------


def _as_kind(kind, lazy):
    """Accept either a kind string or a ChainSpec."""
    if isinstance(kind, ChainSpec):
        return kind.kind, kind.lazy or lazy
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind, lazy


def exact_kernel(
    graph: LatticeGraph, kind, lazy: bool = False
) -> np.ndarray:
    """Dense transition matrix over ``graph.vertices``."""
    kind, lazy = _as_kind(kind, lazy)
    v = graph.n_vertices
    p = np.zeros((v, v))
    if kind == "symmetric":
        m_n = max_degree(graph.n)
        for i in range(v):
            nbrs = graph.neighbors(i)
            p[i, list(nbrs)] = 1.0 / m_n
            p[i, i] = 1.0 - len(nbrs) / m_n
    else:
        for i in range(v):
            nbrs = graph.neighbors(i)
            if not nbrs:
                raise ValueError(
                    "random walk undefined: the space has an isolated shape"
                )
            p[i, list(nbrs)] = 1.0 / len(nbrs)
    if lazy:
        p = (np.eye(v) + p) / 2.0
    return p


def stationary_distribution(graph: LatticeGraph, kind) -> np.ndarray:
    """Uniform for the symmetric chain; degree-proportional for the walk."""
    kind, _ = _as_kind(kind, False)
    if kind == "symmetric":
        return np.full(graph.n_vertices, 1.0 / graph.n_vertices)
    plus, minus = graph.degrees()
    deg = plus + minus
    return deg / deg.sum()


@dataclass
class BottleneckResult:
    """Exhaustive bottleneck ratio and every minimizing subset."""

    kind: str
    phi_star: Fraction
    minimizers: list[tuple[TreeShape, ...]]


def exact_bottleneck(
    graph: LatticeGraph, kind, max_vertices: int = 20
) -> BottleneckResult:
    """Minimize Q(S, S^c)/pi(S) over nonempty S with pi(S) <= 1/2 by
    enumerating all 2^V subsets (exact rational arithmetic).

    For both kernels the ratio reduces to integer counts: boundary edges
    over M_N * |S| for the symmetric chain, boundary edges over the total
    degree of S for the random walk.
    """
    kind, _ = _as_kind(kind, False)
    v = graph.n_vertices
    if v > max_vertices:
        raise ValueError(
            f"subset enumeration over {v} vertices (2^{v} sets) refused; "
            f"cap is {max_vertices}"
        )
    adj = np.zeros((v, v), dtype=np.int64)
    for i in range(v):
        adj[i, list(graph.neighbors(i))] = 1
    deg = adj.sum(axis=1)
    masks = np.arange(1, 2**v, dtype=np.uint64)
    member = (masks[:, None] >> np.arange(v, dtype=np.uint64)[None, :]) & 1
    member = member.astype(bool)
    cut = np.einsum("si,ij,sj->s", member, adj, ~member, dtype=np.int64)
    if kind == "symmetric":
        m_n = max_degree(graph.n)
        size = member.sum(axis=1)
        eligible = 2 * size <= v
        denom = m_n * size
    else:
        vol = member @ deg
        eligible = 2 * vol <= deg.sum()
        denom = vol
    best = None
    arg: list[int] = []
    for s in np.flatnonzero(eligible):
        phi = Fraction(int(cut[s]), int(denom[s]))
        if best is None or phi < best:
            best, arg = phi, [s]
        elif phi == best:
            arg.append(s)
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


def exact_gap(graph: LatticeGraph, kind, lazy: bool = False) -> GapResult:
    """Spectral gap via a symmetric eigensolve.

    The random walk is symmetrized by the similarity transform
    D^(1/2) P D^(-1/2) with D = diag(pi), which preserves the spectrum.
    """
    kind, lazy = _as_kind(kind, lazy)
    p = exact_kernel(graph, kind, lazy=lazy)
    if kind == "random-walk":
        pi = stationary_distribution(graph, kind)
        root = np.sqrt(pi)
        p = (root[:, None] * p) / root[None, :]
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
        out = {
            "n": self.n,
            "m_n": self.m_n,
            "g_n": self.g_n,
            "symmetric_lower": self.symmetric_lower,
            "symmetric_lazy_upper": self.symmetric_lazy_upper,
            "random_walk_lower": self.random_walk_lower,
            "random_walk_lazy_upper": self.random_walk_lazy_upper,
        }
        if self.exact is not None:
            out["exact"] = self.exact
        return out


def mixing_bounds(n: int, *, include_exact: bool = False) -> BoundReport:
    """Evaluate the four mixing-time bound formulas at ``n``:

    * symmetric chain lower bound M_N / 4 (bottleneck at a degree-1 shape);
    * lazy symmetric upper bound 8 M_N^2 log(4 G(N));
    * random-walk lower bound (diameter/2) = N - 3;
    * lazy random-walk upper bound 8 log(4 M_N G(N)).

    With ``include_exact`` (small n only) the report also carries the
    exhaustive bottleneck ratios, lazy spectral gaps, and the diameter.
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
            phi = exact_bottleneck(graph, kind).phi_star
            gap = exact_gap(graph, kind, lazy=True)
            exact[kind] = {
                "phi_star": float(phi),
                "lazy_gamma": gap.gamma,
                "lazy_t_rel": gap.t_rel,
            }
        report.exact = exact
    return report
