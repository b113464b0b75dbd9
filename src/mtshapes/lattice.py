"""The refinement partial order on shapes with a fixed number of tips.

One shape covers another when it arises from a single collapse of an
edge joining consecutively ranked internal nodes.  Under this order the
shapes (plus a formal bottom element that is never materialized here)
form a lattice: any two shapes have a unique least upper bound, found by
deleting rows/columns of their F-matrices.  This module provides the
covering moves in both directions, the least-upper-bound algorithm,
degree formulas, the maximum-degree shape, explicit Hasse graphs for
small N, and the lattice distance.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .enumeration import generate_all
from .shapes import InvalidShapeError, TreeShape, collapse_edge, validate_fmatrix
from .shapes import _checked_fmatrix, _child_counts, _delete_nodes, _fmatrix_vectors

__all__ = [
    "present_edges",
    "covers",
    "split_count",
    "Neighborhood",
    "refinements_below",
    "deg_plus",
    "deg_minus",
    "max_degree_tree",
    "max_degree",
    "lub",
    "lub_fmatrix",
    "lattice_distance",
    "LatticeGraph",
    "build_hasse",
    "diameter",
]


def present_edges(shape: TreeShape) -> tuple[int, ...]:
    """Ranks e such that the edge (e, e+1) exists, ascending.

    Edge (e, e+1) exists exactly when node e+1's parent is node e, which
    for e >= 2 is the same as the F-matrix rows e and e+1 agreeing on
    their first e-1 columns.  Edge (1, 2) exists whenever K >= 2; the
    star tree has none.
    """
    t = shape.t
    return tuple(e for e in range(1, len(t)) if t[e] == e)


def covers(shape: TreeShape) -> set[TreeShape]:
    """All shapes reachable by one collapse (one fewer internal node)."""
    return {collapse_edge(shape, e) for e in present_edges(shape)}


def split_count(k: int, l: int) -> int:
    """Number of ways to split one node with ``k`` internal and ``l``
    leaf children into two consecutively ranked nodes.

    Closed form (l+1)*2^k - k - 3, plus 1 when l == 0; equals the number
    of (subset of internal children, leaf count) choices moving at least
    two children onto the new lower node while leaving at least one
    child behind.  Zero exactly for the bifurcation cases (2, 0), (1, 1)
    and (0, 2).
    """
    if k < 0 or l < 0 or k + l < 2 or (k, l) == (1, 0):
        raise ValueError(f"not a valid child profile: k={k}, l={l}")
    return (l + 1) * 2**k - k - 3 + (1 if l == 0 else 0)


@functools.cache
def _memo_split_count(profile: tuple[int, int]) -> int:
    # A miss calls split_count by its module name, so a wrapper installed
    # on that name sees every computation.
    return split_count(*profile)


def _unrank_combination(items: list[int], size: int, rank: int) -> tuple[int, ...]:
    # Lexicographic unranking of a size-subset of items.
    out = []
    start = 0
    for _ in range(size):
        for pos in range(start, len(items)):
            block = math.comb(len(items) - pos - 1, size - len(out) - 1)
            if rank < block:
                out.append(items[pos])
                start = pos + 1
                break
            rank -= block
    return tuple(out)


def _unrank_split(k: int, l: int, rank: int) -> tuple[int, int, int]:
    """The ``rank``-th split of a node with ``k`` internal and ``l`` leaf
    children, as (internal children moved, leaves moved, rank of the
    moved subset among the size-subsets of the internal children).

    Splits run by size, then by leaves moved.  Each size s with
    k <= s <= l holds exactly 2**k splits, one per subset of the internal
    children with leaves making up the rest; that run of sizes (``lo``
    to ``hi``) is crossed with one division, and only the O(k) sizes
    outside it are walked cell by cell.
    """
    lo, hi = max(2, k), min(l, k + l - 1)
    size = 2
    while size < k + l:
        if size == lo <= hi:
            skip, within = divmod(rank, 1 << k)
            if skip > hi - lo:
                size, rank = hi + 1, rank - ((hi - lo + 1) << k)
                continue
            size, rank = lo + skip, within
        for j in range(max(0, size - k), min(size, l) + 1):
            cell = math.comb(k, size - j)
            if rank < cell:
                return size - j, j, rank
            rank -= cell
        size += 1
    raise ValueError("rank exceeds the node's split count")


def _children(t: tuple[int, ...], node: int, count: int) -> list[int]:
    """The ``count`` internal children of ``node``, ascending.  Each is
    found by ``t.index`` after the previous one (children rank after
    their parent), so the scan stops at the last child."""
    out = []
    i = node
    for _ in range(count):
        i = t.index(node, i) + 1
        out.append(i)
    return out


class Neighborhood:
    """The one-step neighbors of a shape, indexed by rank 0..degree-1.

    Built once from the shape's child profile: present edges, per-node
    (internal child, leaf) counts and per-node split counts.  Ranks follow
    one fixed order: the collapses by ascending edge, then the refinements
    by node, split size, moved-leaf count, and lexicographic position of
    the moved subset of internal children.

    A move has two halves.  ``_plan(rank)`` only reads: a collapse or a
    split changes the profile of at most two nodes and shifts the ranks
    after them, so it prices the neighbor's degree in O(1).  ``_apply``
    patches the lists behind every field in place (``shape`` is rebuilt on
    its next read); :meth:`move` applies a plan to a copy.
    """

    __slots__ = ("_shape", "_t", "_l", "_k", "_edges", "_splits", "degree")

    def __init__(self, shape: TreeShape):
        self._shape = shape
        self._t, self._l = list(shape.t), list(shape.l)
        self._k = _child_counts(shape.t)
        self._edges = list(present_edges(shape))
        self._splits = list(map(_memo_split_count, zip(self._k, self._l)))
        self.degree = len(self._edges) + sum(self._splits)

    @property
    def shape(self) -> TreeShape:
        if self._shape is None:
            self._shape = TreeShape._trusted(tuple(self._t), tuple(self._l))
        return self._shape

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(self._edges)

    @property
    def profile(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self._k, self._l))

    @property
    def splits(self) -> tuple[int, ...]:
        return tuple(self._splits)

    def neighbor(self, rank: int) -> TreeShape:
        """The ``rank``-th neighbor (0-based) in the order above."""
        return self.move(rank).shape

    def move(self, rank: int) -> "Neighborhood":
        """The neighborhood of the ``rank``-th neighbor, patched on a copy of
        this one; equal, field by field, to ``Neighborhood(self.neighbor(rank))``."""
        if not 0 <= rank < self.degree:
            raise ValueError(f"rank must be in [0, {self.degree}), got {rank}")
        out = self._copy()
        out._apply(self._plan(rank))
        return out

    def _copy(self) -> "Neighborhood":
        out = object.__new__(Neighborhood)
        out._shape, out.degree = self._shape, self.degree
        out._t, out._l, out._k = self._t[:], self._l[:], self._k[:]
        out._edges, out._splits = self._edges[:], self._splits[:]
        return out

    def _plan(self, rank: int) -> tuple:
        # The neighbor's degree, then what _apply needs: seven entries for
        # the collapse of an edge e, nine for the split of a node v.
        edges, splits, k = self._edges, self._splits, self._k
        if rank < len(edges):
            # Collapsing edge e merges nodes e and e + 1 into node e.  Edge
            # e + 1 goes; edge e stays when old node e + 2 hung off e or
            # e + 1; each later edge moves down one rank.
            e = edges[rank]
            merged = (k[e - 1] - 1 + k[e], self._l[e - 1] + self._l[e])
            s = _memo_split_count(merged)
            after = rank + 1
            if after < len(edges) and edges[after] == e + 1:
                after += 1
            keep = e + 1 < len(self._t) and self._t[e + 1] >= e
            degree = self.degree - (after - rank) + keep - splits[e - 1] - splits[e] + s
            return degree, e, rank, after, keep, merged, s
        # Splitting node v hands m of its kv internal children and j of its
        # lv leaves to a new node v + 1: v keeps (kv - m + 1, lv - j).  Edge
        # v now exists, edge v + 1 when old node v + 1 (v's first child,
        # if edge v existed) moved, and each later edge moves up one rank.
        rank -= len(edges)
        ends = list(accumulate(splits, initial=0))
        v = bisect_right(ends, rank)  # node v holds ranks ends[v - 1] .. ends[v] - 1
        kv, lv = k[v - 1], self._l[v - 1]
        m, j, sub = _unrank_split(kv, lv, rank - ends[v - 1])
        had = v < len(self._t) and self._t[v] == v
        # v's first child leads the first comb(kv - 1, m - 1) moved m-subsets.
        grown = had and m > 0 and sub < math.comb(kv - 1, m - 1)
        lower, upper = (kv - m + 1, lv - j), (m, j)
        s_low, s_up = _memo_split_count(lower), _memo_split_count(upper)
        degree = self.degree + 1 - had + grown - splits[v - 1] + s_low + s_up
        return degree, v, sub, had, grown, lower, upper, s_low, s_up

    def _apply(self, plan: tuple) -> None:
        t, l, k, edges, splits = self._t, self._l, self._k, self._edges, self._splits
        self._shape = None
        self.degree = plan[0]
        if len(plan) == 7:
            _, e, rank, after, keep, merged, s = plan
            t[e:] = [p - 1 if p > e else p for p in t[e + 1 :]]
            k[e - 1 : e + 1], l[e - 1 : e + 1] = [merged[0]], [merged[1]]
            splits[e - 1 : e + 1] = [s]
            edges[rank:] = ([e] if keep else []) + [x - 1 for x in edges[after:]]
            return
        _, v, sub, had, grown, lower, upper, s_low, s_up = plan
        rest = [p if p <= v else p + 1 for p in t[v:]]
        if m := upper[0]:
            for c in _unrank_combination(_children(t, v, k[v - 1]), m, sub):
                rest[c - v - 1] = v + 1
        t[v:] = [v, *rest]
        k[v - 1 : v], l[v - 1 : v] = zip(lower, upper)  # node v's new profile, then v + 1's
        splits[v - 1 : v] = s_low, s_up
        i = bisect_left(edges, v)
        edges[i:] = ([v, v + 1] if grown else [v]) + [x + 1 for x in edges[i + had :]]


def refinements_below(shape: TreeShape) -> set[TreeShape]:
    """All shapes that this shape covers (one more internal node): the
    refinement ranks of its :class:`Neighborhood`."""
    nbhd = Neighborhood(shape)
    return {nbhd.neighbor(r) for r in range(len(nbhd.edges), nbhd.degree)}


def deg_plus(shape: TreeShape) -> int:
    """Number of one-step coarsenings (present consecutive edges)."""
    return len(present_edges(shape))


def deg_minus(shape: TreeShape) -> int:
    """Number of one-step refinements, by the per-node split formula."""
    return sum(Neighborhood(shape).splits)


def max_degree_tree(n: int) -> tuple[TreeShape, int]:
    """The shape maximizing total degree, and that maximum ``M_N``.

    The maximizer hangs floor((N-2)/2) cherries off the root and keeps
    the 2 + (N mod 2) remaining tips as root leaves; its forward degree
    is 1, so M_N = 1 + split_count(floor((N-2)/2), 2 + N mod 2).
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    k = (n - 2) // 2 + 1
    shape = TreeShape._trusted((0,) + (1,) * (k - 1), (2 + n % 2,) + (2,) * (k - 1))
    return shape, 1 + deg_minus(shape)


@functools.cache
def max_degree(n: int) -> int:
    """M_N, the largest degree of a shape with ``n`` tips.  Below N = 4
    the space is the star alone (N = 2, M_2 = 0) or the star and the one
    binary shape, each the other's only neighbor (N = 3, M_3 = 1)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n < 4:
        return n - 2
    return max_degree_tree(n)[1]


# -- least upper bound ------------------------------------------------


def _violating_columns(m: np.ndarray) -> list[int]:
    # A column is bad if, from the diagonal down, consecutive entries
    # drop by 2 or more, or the subdiagonal entry is not diagonal - 1.
    drop = m[:-1] - m[1:]
    bad = ((drop >= 2) & np.tri(*drop.shape, dtype=bool)).any(axis=0)
    bad[:-1] |= np.diag(drop) != 1
    return np.flatnonzero(bad).tolist()


def lub_fmatrix(fx: np.ndarray, fy: np.ndarray, trace: list | None = None) -> np.ndarray:
    """Least upper bound of two same-N shapes, on their F-matrices.

    First aligns the two matrices by deleting rows/columns whose diagonal
    entry the other matrix lacks, then deletes columns where they differ,
    leaving their largest shared submatrix; finally it repeatedly deletes
    every column violating the diagonal-step conditions until a valid
    F-matrix remains.  The trailing entry N is always shared, so the loop
    terminates.  If ``trace`` is a list, the shared submatrix and each
    subsequent intermediate matrix are appended to it.  An input that is
    not a square, lower-triangular, nonnegative integer matrix raises
    ``ValueError``; one that breaks an F rule raises ``InvalidShapeError``
    naming the rule.
    """
    return _lub_fmatrix(_checked_fmatrix(fx), _checked_fmatrix(fy), trace)


def _lub_fmatrix(fx: np.ndarray, fy: np.ndarray, trace: list | None = None) -> np.ndarray:
    """``lub_fmatrix`` on two valid int64 F-matrices; checks only its result."""
    dx, dy = np.diag(fx).tolist(), np.diag(fy).tolist()
    if dx[-1] != dy[-1]:
        raise ValueError("shapes must have the same number of tips")
    shared = set(dx) & set(dy)
    fx = _delete_nodes(fx, [i for i, v in enumerate(dx) if v not in shared])
    fy = _delete_nodes(fy, [i for i, v in enumerate(dy) if v not in shared])
    s = _delete_nodes(fx, np.flatnonzero((fx != fy).any(axis=0)))
    if trace is not None:
        trace.append(s.copy())
    while bad := _violating_columns(s):
        s = _delete_nodes(s, bad)
        if trace is not None:
            trace.append(s.copy())
    if (bad := validate_fmatrix(s)) is not None:
        raise InvalidShapeError(bad, "column deletion ended at an invalid F-matrix")
    return s


def lub(a: TreeShape, b: TreeShape) -> TreeShape:
    """The unique least upper bound (coarsest common coarsening is the
    star; this is the *finest* shape both refine)."""
    if a.n_tips != b.n_tips:
        raise ValueError(
            f"shapes must have the same number of tips, got {a.n_tips} and {b.n_tips}"
        )
    if a == b:
        return a
    return TreeShape._trusted(*_fmatrix_vectors(_lub_fmatrix(a.fmatrix(), b.fmatrix())))


def lattice_distance(a: TreeShape, b: TreeShape) -> int:
    """Path length from a to b through their least upper bound:
    (K_a - K_lub) + (K_b - K_lub)."""
    m = lub(a, b)
    return (a.n_internal - m.n_internal) + (b.n_internal - m.n_internal)


# -- explicit Hasse graphs for small N ---------------------------------


@dataclass(frozen=True)
class LatticeGraph:
    """Covering relations over all shapes with ``n`` tips.

    ``vertices`` is sorted by (K, t, l); ``up[i]`` lists the vertices
    covering vertex i (one collapse away, K - 1 internal nodes) and
    ``down[i]`` the vertices it covers.
    """

    n: int
    vertices: tuple[TreeShape, ...]
    up: tuple[tuple[int, ...], ...]
    down: tuple[tuple[int, ...], ...]
    index: dict[TreeShape, int] = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return sum(len(u) for u in self.up)

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(forward, backward) degree per vertex, from the graph."""
        plus = np.array([len(u) for u in self.up], dtype=np.int64)
        minus = np.array([len(d) for d in self.down], dtype=np.int64)
        return plus, minus

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.up[i] + self.down[i]

    def is_connected(self) -> bool:
        # one search from vertex 0: row i holds whether i has been reached
        _, reached = _spread(self, np.eye(self.n_vertices, 1, dtype=bool))
        return bool(reached.all())


def build_hasse(n: int) -> LatticeGraph:
    """Materialize the covering graph over every shape with ``n`` tips
    (``generate_all``'s cap applies: N <= 9).  Each present edge e of a parent
    vector t is collapsed once; (t, l) covers the shape of that vector whose
    leaves are l with l[e - 1] and l[e] merged."""
    vertices = tuple(generate_all(n))
    rows: dict[tuple, dict[tuple, int]] = {}  # t -> {l: vertex index}
    for i, v in enumerate(vertices):
        rows.setdefault(v.t, {})[v.l] = i
    up, down = [], [[] for _ in vertices]
    for t, row in rows.items():
        edges = [e for e in range(1, len(t)) if t[e] == e]
        collapsed = [(e, rows[t[:e] + tuple(p - (p > e) for p in t[e + 1 :])]) for e in edges]
        for l, i in row.items():
            ups = sorted(at[l[: e - 1] + (l[e - 1] + l[e],) + l[e + 1 :]] for e, at in collapsed)
            up.append(tuple(ups))
            for j in ups:
                down[j].append(i)
    index = {v: i for i, v in enumerate(vertices)}
    return LatticeGraph(n, vertices, tuple(up), tuple(map(tuple, down)), index)


def diameter(graph: LatticeGraph) -> int:
    """Exact diameter of the undirected covering graph.

    A breadth-first search from every source at once, on bitsets (Akiba,
    Iwata & Yoshida, SIGMOD 2013): row i holds the vertices within the
    current distance of i, and each level ORs in the rows of i's
    neighbours.  The diameter is the number of levels that grow some row.
    """
    v = graph.n_vertices
    # Rows are padded to whole 64-bit words so that each OR acts on words.
    width = -(-v // 64) * 64
    reach = np.packbits(np.eye(v, width, dtype=bool), axis=1).view(np.uint64)
    levels, reach = _spread(graph, reach)
    full = np.packbits(np.arange(width) < v).view(np.uint64)
    if not (reach == full).all():
        raise ValueError("graph is not connected")
    return levels


def _spread(graph: LatticeGraph, reach: np.ndarray) -> tuple[int, np.ndarray]:
    """OR each vertex's neighbours' rows of ``reach`` into its own row
    until nothing changes; return the number of levels that changed
    something and the final rows."""
    plus, minus = graph.degrees()
    deg = plus + minus
    targets = np.fromiter(
        (j for i in range(graph.n_vertices) for j in graph.neighbors(i)),
        dtype=np.intp,
        count=int(deg.sum()),
    )
    # reduceat over the starts of the non-empty neighbour lists only: an
    # isolated vertex has nothing to OR in.
    linked = np.flatnonzero(deg)
    starts = (np.cumsum(deg) - deg)[linked]
    levels = 0
    while True:
        grown = reach.copy()
        grown[linked] |= np.bitwise_or.reduceat(reach[targets], starts, axis=0)
        if np.array_equal(grown, reach):
            return levels, reach
        reach = grown
        levels += 1
