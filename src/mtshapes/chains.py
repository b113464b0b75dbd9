"""Markov chains on the refinement lattice of shapes with N tips.

Two kernels use the covering graph directly, each stepped on a
``ChainState``: a symmetric chain (uniform stationary law) and the
simple random walk (stationary law proportional to degree).
``run_chains`` runs Metropolis-Hastings chains, with the walk as
proposal, that sample the uniform law.  Small spaces admit exact
analysis: dense kernels, stationary checks, spectral gaps, bottleneck ratios.

Neighbor moves never materialize the (possibly huge) refinement set: a
single uniform integer below the degree is unranked into either a
collapse or one concrete node split.  ``Neighborhood._plan`` prices a
proposal's degree in O(1) before anything is built.  ``run_chains``
patches each chain's one ``Neighborhood`` in place (``_apply``) on
acceptance only and builds no shape per step; the public steppers
patch a copy, so a neighborhood that a caller holds never changes.

Draws take one of two paths to one stream.  The public steppers read
the caller's bit generator through its ctypes interface, under its
lock, since a caller may share the Generator.  ``run_chains`` owns each
chain's PCG64 and reads it in ``random_raw`` blocks through
``_RawDraws``, which serves the same 32-bit words and doubles.  Both
paths feed ``_below`` and ``_mh_move``; ``tests/test_chains.py`` pins
the stream through both (``GOLDEN_STREAMS``) and compares the two
readers draw by draw.  With P processes, ``run_chains`` gives each a
static strided share of the chains (w, w + P, w + 2P, ...): share 0
runs in the calling process, the others in P - 1 forked children, and
the shares go back into chain order, so output never depends on P.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .enumeration import count_space
from .lattice import (
    LatticeGraph,
    Neighborhood,
    build_hasse,
    max_degree,
    split_count,  # noqa: F401  (kept importable: perfbench counts calls through it)
)
from .shapes import TreeShape, _parse_text, _text

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
    "MAX_CHAIN_TIPS",
    "MAX_KERNEL_BYTES",
    "MAX_BOTTLENECK_VERTICES",
]

KINDS = ("symmetric", "random-walk")

# Largest N that run_chains (and so ``mtshapes sample-uniform``) accepts.
# A step patches O(K)-long lists, draws a rank of up to about K bits and
# writes an O(K)-character line.  On a 2-vCPU Xeon under CPython 3.11 a
# step (a line written each step, best of three) took about 0.04 ms at
# N = 10**4 with K = 1, 1 ms there with K = N - 1, and 23 ms at N = 10**5
# with K = N - 1.
MAX_CHAIN_TIPS = 10_000

# The exact paths are capped by a dense V x V float64 kernel, which the
# symmetric chain's eigensolve holds.  N = 8 (1108 shapes, 9.8 MB) fits;
# N = 9 (6092 shapes, 297 MB before the eigensolve's copies) does not.
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
        it is rebuilt only if ``shape`` was set from outside.  A shape
        with no neighbors (the one shape of its space) is refused."""
        if self.cached is None or self.cached.shape is not self.shape:
            nbhd = Neighborhood(self.shape)
            if nbhd.degree == 0:
                raise ValueError("shape has no neighbors (single-shape space)")
            self.cached = nbhd
        return self.cached


def random_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision ``n``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    bitgen = rng.bit_generator
    c = bitgen.ctypes
    with bitgen.lock:
        return _below(partial(c.next_uint32, c.state), n)


def _below(word, n: int) -> int:
    """Uniform integer in [0, n), n >= 1, from 32-bit words ``word()``.

    The top bits of ceil(bits(n) / 32) words, rejected until below n.
    Each word is the value ``rng.integers(0, 2**32, dtype=np.uint64)``
    would return, whether read through the bit generator's ctypes
    interface or through ``_RawDraws``, so the stream is that of the
    Generator calls without their overhead.  n == 1 draws nothing.
    """
    if n == 1:
        return 0
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    bits = n.bit_length()
    words = (bits + 31) // 32
    shift = words * 32 - bits
    while True:
        r = word()
        for _ in range(words - 1):
            r = (r << 32) | word()
        r >>= shift
        if r < n:
            return r


# Raw 64-bit outputs read per random_raw call.
_RAW_BLOCK = 1024


class _RawDraws:
    """The 32-bit words and doubles that a PCG64's ctypes ``next_uint32``
    and ``next_double`` would return, read from ``random_raw`` blocks.

    ``next_uint32`` serves the low half of a 64-bit output and buffers
    the high half for the next word; ``next_double`` takes the top 53
    bits of a fresh output and leaves that buffer alone.  The buffer
    starts from the generator's own (``has_uint32``, ``uinteger``).
    Each block moves the generator up to ``_RAW_BLOCK`` outputs past
    what the reader has served, so once a reader is made, only it may
    draw from that generator.
    """

    __slots__ = ("_raw", "_outputs", "_half")

    def __init__(self, bitgen: np.random.BitGenerator):
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(f"expected a PCG64 bit generator, got {type(bitgen).__name__}")
        state = bitgen.state
        self._raw = bitgen.random_raw
        self._outputs = iter(())
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _next64(self) -> int:
        x = next(self._outputs, None)
        if x is None:
            self._outputs = iter(self._raw(_RAW_BLOCK).tolist())
            x = next(self._outputs)
        return x

    def uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & 0xFFFFFFFF

    def double(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)


def step_symmetric(state: ChainState, rng: np.random.Generator) -> ChainState:
    """One step of the symmetric chain: each neighbor with probability
    1/M_N, else hold (self-loop mass 1 - deg/M_N)."""
    here = state.neighborhood()
    r = random_below(rng, max_degree(state.shape.n_tips))
    if r < here.degree:
        there = here.move(r)
        state.shape, state.cached = there.shape, there
    return state


def step_random_walk(state: ChainState, rng: np.random.Generator) -> ChainState:
    """One step of the simple random walk: a uniform neighbor, never a
    self-loop (reflects at binary shapes and at the star)."""
    here = state.neighborhood()
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
    bitgen = rng.bit_generator
    c = bitgen.ctypes
    with bitgen.lock:
        r = _below(partial(c.next_uint32, c.state), here.degree)
        u = c.next_double(c.state)
    _mh_move(state, here, r, u)
    return state


def _mh_move(state: ChainState, here: Neighborhood, r: int, u: float) -> None:
    """Propose the ``r``-th neighbor of ``here`` (the current shape's
    neighborhood) and accept it when ``u`` passes the MH test."""
    plan = here._plan(r)
    state.proposed += 1
    if _accepts(u, here.degree, plan[0]):
        there = here._copy()
        there._apply(plan)
        state.shape, state.cached = there.shape, there
        state.accepted += 1


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
    if n > 2**62:  # s_j <= n + k - 1 < 2n must fit in int64
        raise ValueError(f"n must be <= 2**62, got {n}")
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
    made where the chain ran, so forked children send back strings rather
    than pickled shapes.  ``samples`` decodes them into shapes on first
    access and keeps them; equality compares the lines and the rates.
    """

    lines: list[list[str]]
    acceptance_rates: list[float]

    @cached_property
    def samples(self) -> list[list[TreeShape]]:
        return [[TreeShape._trusted(*_parse_text(s)) for s in chain] for chain in self.lines]

    def pooled(self) -> list[TreeShape]:
        """All samples concatenated in chain-index order."""
        return [s for chain in self.samples for s in chain]


def _run_one_chain(n, n_steps, thin, k, seed_seq):
    # The chain owns its generator, so it reads the stream in raw blocks,
    # and its one Neighborhood, so it patches it in place on each accepted
    # proposal and writes its lists out at thinned steps.  The output is
    # that of stepping step_mh_uniform on the Generator.
    bitgen = np.random.PCG64(seed_seq)
    here = ChainState(semi_random_init(n, k, np.random.Generator(bitgen))).neighborhood()
    draws = _RawDraws(bitgen)
    word, double = draws.uint32, draws.double
    out = []
    accepted = 0
    for s in range(1, n_steps + 1):
        plan = here._plan(_below(word, here.degree))
        if _accepts(double(), here.degree, plan[0]):
            here._apply(plan)
            accepted += 1
        if s % thin == 0:
            out.append(_text(here._t, here._l))
    return out, accepted / n_steps


def _run_share(send, jobs):
    # A forked child's chains, sent back as (True, results) or (False, exc).
    with send:
        try:
            send.send((True, [_run_one_chain(*a) for a in jobs]))
        except Exception as exc:
            send.send((False, exc))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chains(
    n: int,
    *,
    n_chains: int,
    n_steps: int,
    seed: int,
    thin: int = 1,
    threads: int = 1,
) -> RunResult:
    """Run independent MH chains on RNG streams spawned from one seed; the
    output is identical however they are scheduled, and each chain's is
    what ``step_mh_uniform`` would give stepped on that stream.

    Chain i starts at a semi-random shape with (i mod (N-1)) + 1 internal
    nodes, drawn from that chain's own stream.  To start from a chosen
    shape, or to run another chain, step a ``ChainState`` directly.

    ``threads`` caps the processes, the caller included: with P =
    min(threads, n_chains, usable CPUs) > 1, the caller runs chains 0, P,
    2P, ... while P - 1 forked children run the other strided shares, and
    the output is identical to a serial run.  A child's exception is
    raised here unchanged; on any error every child is stopped.  Where
    fork is unavailable, the chains run serially.  An ``n`` past
    ``MAX_CHAIN_TIPS`` is refused before any chain starts.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > MAX_CHAIN_TIPS:
        raise ValueError(f"n must be <= MAX_CHAIN_TIPS = {MAX_CHAIN_TIPS}, got {n}")
    if n_chains < 1 or n_steps < 1 or thin < 1:
        raise ValueError("n_chains, n_steps and thin must be positive")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    seqs = np.random.SeedSequence(seed).spawn(n_chains)
    jobs = [(n, n_steps, thin, (i % (n - 1)) + 1, seqs[i]) for i in range(n_chains)]
    workers = min(threads, n_chains, _usable_cpus())
    if workers > 1:
        # Imported here so that `import mtshapes.cli` does not pay for it.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers > 1:
        ctx = multiprocessing.get_context("fork")
        children, readers, shares = [], [], []
        try:
            for w in range(1, workers):
                reader, writer = ctx.Pipe(duplex=False)
                readers.append(reader)
                with writer:  # closing this copy, a child that dies unsent reads as EOF
                    child = ctx.Process(target=_run_share, args=(writer, jobs[w::workers]))
                    child.start()
                children.append(child)
            shares.append([_run_one_chain(*a) for a in jobs[::workers]])
            for reader in readers:  # before any join: a child blocks in send until read
                ok, share = reader.recv()
                if not ok:
                    raise share
                shares.append(share)
        finally:
            for child in children:
                if len(shares) < workers:  # a share failed or was interrupted
                    child.terminate()
                child.join()
            for reader in readers:
                reader.close()
        results = [shares[i % workers][i // workers] for i in range(n_chains)]
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
# |boundary of S| / w(S).  _weights is the only place that reads the kind;
# it checks w >= deg in integers, so pi P = pi exactly (`exact` prints a
# residual of 0).  exact_gap solves the walk on one side of the graph's
# bipartition by K and returns gaps to GAP_DIGITS certified digits.


def _weights(graph: LatticeGraph, kind: str) -> np.ndarray:
    """Holding weight w(x) per vertex of ``graph`` for chain ``kind``."""
    deg = np.add(*graph.degrees())
    if kind == "symmetric":
        w = np.full(graph.n_vertices, max_degree(graph.n))
    elif kind == "random-walk":
        w = deg
    else:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not w.all():
        raise ValueError(f"{kind} chain undefined: the space has an isolated shape")
    if (w < deg).any():
        raise ValueError(f"{kind} chain undefined: a shape has more than w(x) neighbours")
    return w


def _edges(graph: LatticeGraph) -> tuple[list[int], list[int]]:
    """The covering edges as lower and upper vertex lists, within the kernel cap."""
    v = graph.n_vertices
    if 8 * v * v > MAX_KERNEL_BYTES:
        raise ValueError(
            f"dense kernel over {v} shapes needs {8 * v * v / 1e6:.0f} MB; "
            f"cap is {MAX_KERNEL_BYTES // 10**6} MB (exact analysis takes N <= 8)"
        )
    lower = [i for i, ups in enumerate(graph.up) for _ in ups]
    upper = [j for ups in graph.up for j in ups]
    return lower, upper


def exact_kernel(graph: LatticeGraph, kind: str, lazy: bool = False) -> np.ndarray:
    """Dense transition matrix over ``graph.vertices``: 1/w(x) from x to
    each covering neighbour, and the rest of the row's mass on x."""
    w = _weights(graph, kind)
    v = graph.n_vertices
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
    return BottleneckResult(phi_star=best, minimizers=minimizers)


@dataclass
class GapResult:
    """Spectral diagnostics of a reversible kernel."""

    gamma: float
    gamma_star: float
    t_rel: float
    eigenvalues: np.ndarray


GAP_DIGITS = 8  # significant digits of exact_gap's gamma, gamma_star and t_rel


def _certified(x: float, err: float) -> float:
    """``x`` to GAP_DIGITS digits, which all values within ``err`` share."""
    lo, hi = (float(f"{y:.{GAP_DIGITS - 1}e}") for y in (x - err, x + err))
    if lo != hi:
        raise ArithmeticError(f"{x!r} +- {err:.1e} straddles a {GAP_DIGITS}-digit boundary")
    return lo


def exact_gap(graph: LatticeGraph, kind: str, lazy: bool = False) -> GapResult:
    """Gaps gamma = 1 - lambda_2, gamma_star = 1 - max(|lambda_min|,
    lambda_2) and t_rel = 1/gamma_star of S = W^1/2 P W^-1/2 (similar to P).

    Where no shape holds (the walk), S = [[0, C], [C^T, 0]] across K's
    parity, with spectrum +-sigma(C) plus zeros: one eigvalsh(C C^T) on the
    smaller side (529 x 529 at N = 8), and the plain walk is periodic
    (gamma_star = 0, t_rel = inf exactly).  Else the dense S is solved.
    Eigenvalues lie within delta = V * 2^-52 * ||S||, ||S|| <= 1 (LAPACK
    Users' Guide 4.7), t_rel within delta / (gamma_star (gamma_star -
    delta)); the three are rounded to GAP_DIGITS certified digits, whatever
    the BLAS.  Half-size eigenvalues near 0 hold only to about sqrt(delta).
    """
    w = _weights(graph, kind)
    delta = w.size * 2.0**-52
    if no_hold := (w == np.add(*graph.degrees())).all():
        odd = np.array([s.n_internal % 2 for s in graph.vertices], dtype=bool)
        rows = odd if 2 * odd.sum() <= odd.size else ~odd
        lower, upper = (np.array(e, dtype=np.intp) for e in _edges(graph))
        pos = np.where(rows, np.cumsum(rows), np.cumsum(~rows)) - 1
        r, c = np.where(rows[lower], lower, upper), np.where(rows[lower], upper, lower)
        block = np.zeros((rows.sum(), rows.size - rows.sum()))
        block[pos[r], pos[c]] = 1.0 / np.sqrt(w[lower] * w[upper])
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(block @ block.T), 0.0, None))
        eig = np.concatenate([-sv[::-1], np.zeros(w.size - 2 * sv.size), sv])
        eig = (1.0 + eig) / 2.0 if lazy else eig
    else:
        p = exact_kernel(graph, kind, lazy=lazy)
        p *= np.sqrt(w)[:, None] / np.sqrt(w)
        eig = np.linalg.eigvalsh(p)
    gamma = float(1.0 - eig[-2])
    gamma_star = gamma if no_hold else float(1.0 - max(abs(eig[0]), eig[-2]))
    if no_hold and not lazy:  # periodic: -1 is an exact eigenvalue
        gamma_star, t_rel = 0.0, math.inf
    else:  # t_rel's error bound holds only while gamma_star > delta
        err = delta / (gamma_star * (gamma_star - delta)) if gamma_star > delta else math.inf
        t_rel, gamma_star = _certified(1.0 / gamma_star, err), _certified(gamma_star, delta)
    gamma = _certified(gamma, delta)
    return GapResult(gamma=gamma, gamma_star=gamma_star, t_rel=t_rel, eigenvalues=eig)


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
