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
from collections import deque
from dataclasses import dataclass, field
from operator import index

import numpy as np

from .enumeration import DEFAULT_GENERATION_CAP, generate_all
from .shapes import InvalidShapeError, TreeShape, collapse_edge, validate_fmatrix

__all__ = [
    "present_edges",
    "covers",
    "split_count",
    "refine_node",
    "Neighborhood",
    "refinements_below",
    "deg_plus",
    "deg_minus",
    "degree",
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


def refine_node(shape: TreeShape, node: int, moved: tuple[int, ...], leaves: int) -> TreeShape:
    """Split ``node`` by inserting a new node of rank ``node + 1`` that
    takes the internal children ``moved`` (old ranks) plus ``leaves`` of
    the node's leaves.  Inverse of collapsing edge (node, node + 1).
    """
    t, l = shape.t, shape.l
    k = len(t)
    node, leaves = index(node), index(leaves)
    if not 1 <= node <= k:
        raise ValueError(f"node must be in 1..{k}, got {node}")
    moved_set = frozenset(moved)
    if any(c < 2 or c > k or t[c - 1] != node for c in moved_set):
        raise ValueError(f"moved ranks must be internal children of node {node}")
    size = len(moved_set) + leaves
    if leaves < 0 or leaves > l[node - 1] or not 2 <= size <= t.count(node) + l[node - 1] - 1:
        raise ValueError("split must move at least 2 and leave at least 1 child")
    new_t = t[:node] + (node,) + tuple(
        node + 1 if c in moved_set else (p if p <= node else p + 1)
        for c, p in enumerate(t[node:], start=node + 1)
    )
    new_l = l[: node - 1] + (l[node - 1] - leaves, leaves) + l[node:]
    return TreeShape._trusted(new_t, new_l)


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


class Neighborhood:
    """The one-step neighbors of a shape, indexed by rank 0..degree-1.

    Built once from the shape's child profile: present edges, per-node
    (internal child, leaf) counts and per-node split counts.  Ranks follow
    one fixed order: the collapses by ascending edge, then the refinements
    by node, split size, moved-leaf count, and lexicographic position of
    the moved subset of internal children.
    """

    __slots__ = ("shape", "edges", "profile", "splits", "degree")

    def __init__(self, shape: TreeShape):
        self.shape = shape
        self.edges = present_edges(shape)
        self.profile = shape.children_counts()
        self.splits = list(map(_memo_split_count, self.profile))
        self.degree = len(self.edges) + sum(self.splits)

    def neighbor(self, rank: int) -> TreeShape:
        """The ``rank``-th neighbor (0-based) in the order above."""
        if not 0 <= rank < self.degree:
            raise ValueError(f"rank must be in [0, {self.degree}), got {rank}")
        if rank < len(self.edges):
            return collapse_edge(self.shape, self.edges[rank])
        rank -= len(self.edges)
        for node, w in enumerate(self.splits, start=1):
            if rank >= w:
                rank -= w
                continue
            ki, li = self.profile[node - 1]
            for s in range(2, ki + li):
                for j in range(max(0, s - ki), min(s, li) + 1):
                    cell = math.comb(ki, s - j)
                    if rank < cell:
                        children = [c for c, p in enumerate(self.shape.t, 1) if p == node]
                        moved = _unrank_combination(children, s - j, rank)
                        return refine_node(self.shape, node, moved, j)
                    rank -= cell
        raise AssertionError("unreachable: rank exceeded enumerated neighbors")


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


def degree(shape: TreeShape) -> int:
    return Neighborhood(shape).degree


def max_degree_tree(n: int) -> tuple[TreeShape, int]:
    """The shape maximizing total degree, and that maximum ``M_N``.

    The maximizer hangs floor((N-2)/2) cherries off the root and keeps
    the 2 + (N mod 2) remaining tips as root leaves; its forward degree
    is 1, so M_N = 1 + split_count(floor((N-2)/2), 2 + N mod 2).
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    k = (n - 2) // 2 + 1
    shape = TreeShape((0,) + (1,) * (k - 1), (2 + n % 2,) + (2,) * (k - 1))
    return shape, 1 + deg_minus(shape)


@functools.cache
def max_degree(n: int) -> int:
    return max_degree_tree(n)[1]


# -- least upper bound ------------------------------------------------


def _delete(m: np.ndarray, idx) -> np.ndarray:
    return np.delete(np.delete(m, idx, axis=0), idx, axis=1)


def _violating_columns(m: np.ndarray) -> list[int]:
    # A column is bad if, from the diagonal down, consecutive entries
    # drop by 2 or more, or the subdiagonal entry is not diagonal - 1.
    bad = []
    k = m.shape[0]
    for j in range(k):
        col = m[j:, j]
        if len(col) >= 2 and (
            col[0] - 1 != col[1] or np.any(col[:-1] - col[1:] >= 2)
        ):
            bad.append(j)
    return bad


def lub_fmatrix(fx: np.ndarray, fy: np.ndarray, trace: list | None = None) -> np.ndarray:
    """Least upper bound of two same-N shapes, on their F-matrices.

    First aligns the two matrices by deleting rows/columns whose diagonal
    entry the other matrix lacks, then deletes columns where they differ,
    leaving their largest shared submatrix; finally it repeatedly deletes
    every column violating the diagonal-step conditions until a valid
    F-matrix remains.  The trailing entry N is always shared, so the loop
    terminates.  If ``trace`` is a list, the shared submatrix and each
    subsequent intermediate matrix are appended to it.
    """
    fx = np.asarray(fx, dtype=np.int64)
    fy = np.asarray(fy, dtype=np.int64)
    dx, dy = np.diag(fx), np.diag(fy)
    if dx[-1] != dy[-1]:
        raise ValueError("shapes must have the same number of tips")
    shared = set(dx) & set(dy)
    fx = _delete(fx, [i for i, v in enumerate(dx) if v not in shared])
    fy = _delete(fy, [i for i, v in enumerate(dy) if v not in shared])
    differ = [
        j
        for j in range(fx.shape[0])
        if not np.array_equal(fx[:, j], fy[:, j])
    ]
    s = _delete(fx, differ)
    if trace is not None:
        trace.append(s.copy())
    while True:
        bad = _violating_columns(s)
        if not bad:
            break
        s = _delete(s, bad)
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
    return TreeShape.from_fmatrix(lub_fmatrix(a.fmatrix(), b.fmatrix()))


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
        plus = np.array([len(u) for u in self.up])
        minus = np.array([len(d) for d in self.down])
        return plus, minus

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.up[i] + self.down[i]

    def is_connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n_vertices


def build_hasse(n: int, *, cap: int = DEFAULT_GENERATION_CAP) -> LatticeGraph:
    """Materialize the covering graph over every shape with ``n`` tips."""
    vertices = tuple(generate_all(n, cap=cap))
    index = {v: i for i, v in enumerate(vertices)}
    up = tuple(
        tuple(sorted(index[c] for c in covers(v))) for v in vertices
    )
    down: list[list[int]] = [[] for _ in vertices]
    for i, ups in enumerate(up):
        for j in ups:
            down[j].append(i)
    return LatticeGraph(
        n=n,
        vertices=vertices,
        up=up,
        down=tuple(tuple(d) for d in down),
        index=index,
    )


def diameter(graph: LatticeGraph) -> int:
    """Exact diameter of the undirected covering graph (all-pairs BFS)."""
    best = 0
    for start in range(graph.n_vertices):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if len(dist) != graph.n_vertices:
            raise ValueError("graph is not connected")
        best = max(best, max(dist.values()))
    return best
