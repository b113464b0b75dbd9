"""Core value type and encodings for ranked multifurcating tree shapes.

A shape with N unlabeled tips and K internal nodes (ranked 1..K from the
root down) is stored canonically as two length-K integer vectors:

* ``t`` -- ``t[i]`` is the rank of the parent of internal node i+1, with
  the root's placeholder parent recorded as ``t[0] == 0``;
* ``l`` -- ``l[i]`` is the number of leaves hanging directly off internal
  node i+1.

The same shape can be encoded as a K x K lower-triangular "F-matrix" whose
entry (i, j) counts the lineages extant just after the j-th furcation that
survive, unfurcated, through the (i+1)-th furcation.  Both encodings are
bijective with the space of shapes; this module provides validation for
each, conversion in both directions, the edge-collapse operation in both
encodings, and text/JSON serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import index as _as_int

import numpy as np

__all__ = [
    "InvalidShapeError",
    "EdgeNotPresentError",
    "ParseError",
    "TreeShape",
    "validate_string",
    "validate_fmatrix",
    "string_to_dmatrix",
    "string_to_fmatrix",
    "fmatrix_to_string",
    "collapse_edge",
    "collapse_edge_fmatrix",
]


class InvalidShapeError(ValueError):
    """A vector pair or matrix fails the shape constraints.

    ``constraint`` names the first violated constraint id (``"S1"``..``"S4"``
    for the vector encoding, ``"F1"``/``"F2"``/``"F3a"``/``"F3b"``/``"F3c"``
    for the matrix encoding).
    """

    def __init__(self, constraint: str, message: str):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint


class EdgeNotPresentError(ValueError):
    """The requested edge (e, e+1) does not exist in the tree."""


class ParseError(ValueError):
    """Malformed serialized shape; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def _check_vectors(t, l):
    t = tuple(_as_int(x) for x in t)
    l = tuple(_as_int(x) for x in l)
    if len(t) != len(l):
        raise ValueError(
            f"t and l must have equal length, got {len(t)} and {len(l)}"
        )
    if len(t) == 0:
        raise ValueError("t and l must be non-empty")
    return t, l


def validate_string(t, l, n=None) -> str | None:
    """Check the vector-pair constraints; return None if valid.

    On failure returns the id of the first violated constraint in the
    fixed order S1 -> S4:

    * S1: ``t[0] == 0`` and ``1 <= t[i] <= i`` for every later position;
    * S2: leaf counts are nonnegative (and sum to ``n`` when given);
    * S3: a node with no internal children keeps at least 2 leaves;
    * S4: a node with exactly one internal child keeps at least 1 leaf.

    Structural problems (unequal or zero lengths, non-integers) raise
    ``ValueError`` instead of naming a constraint.
    """
    t, l = _check_vectors(t, l)
    k = len(t)
    if t[0] != 0:
        return "S1"
    for i in range(1, k):
        if not 1 <= t[i] <= i:
            return "S1"
    if any(x < 0 for x in l):
        return "S2"
    if n is not None and sum(l) != n:
        return "S2"
    counts = [0] * (k + 1)
    for x in t[1:]:
        counts[x] += 1
    for j in range(1, k + 1):
        if counts[j] == 0 and l[j - 1] < 2:
            return "S3"
    for j in range(1, k + 1):
        if counts[j] == 1 and l[j - 1] < 1:
            return "S4"
    return None


def _as_matrix(f) -> np.ndarray:
    m = np.asarray(f)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.issubdtype(m.dtype, np.integer):
        if np.issubdtype(m.dtype, np.floating) and np.all(m == np.floor(m)):
            m = m.astype(np.int64)
        else:
            raise ValueError("matrix entries must be integers")
    m = m.astype(np.int64, copy=False)
    if np.any(np.triu(m, 1) != 0):
        raise ValueError("matrix must be lower triangular")
    if np.any(m < 0):
        raise ValueError("matrix entries must be nonnegative")
    return m


def validate_fmatrix(f, n=None) -> str | None:
    """Check the F-matrix constraints; return None if valid.

    On failure returns the first violated constraint id in the fixed
    order F1 -> F3c:

    * F1:  diagonal strictly increasing starting at >= 2 (ending at ``n``
      when given), and each subdiagonal entry equals the diagonal above
      it minus one;
    * F2:  the first column never drops by more than 1 per row;
    * F3a: rows are non-decreasing left to right;
    * F3b: interior columns drop by 0 or 1 per row;
    * F3c: in every 2x2 block the drop grows by 0 or 1 moving right.

    Non-square, non-triangular, or negative input raises ``ValueError``.
    """
    m = _as_matrix(f)
    k = m.shape[0]
    d = np.diag(m)
    if d[0] < 2 or np.any(np.diff(d) <= 0):
        return "F1"
    if n is not None and d[-1] != n:
        return "F1"
    idx = np.arange(k - 1)
    if np.any(m[idx + 1, idx] != d[:-1] - 1):
        return "F1"
    # first-column steps for rows 3..K; max(0, prev - 1) <= cur <= prev
    # is the same as 0 <= prev - cur <= 1 for nonnegative entries
    step0 = m[1:-1, 0] - m[2:, 0]
    if np.any((step0 < 0) | (step0 > 1)):
        return "F2"
    # interior cells: rows 4..K, columns 2..row-2 (1-based)
    rows, cols = np.indices((k, k))
    interior = (rows >= 3) & (cols >= 1) & (cols <= rows - 2)
    left = np.zeros_like(m)
    left[:, 1:] = m[:, :-1]
    if np.any(interior & (m < left)):
        return "F3a"
    up = np.zeros_like(m)
    up[1:, :] = m[:-1, :]
    if np.any(interior & ((m < up - 1) | (m > up))):
        return "F3b"
    upleft = np.zeros_like(m)
    upleft[1:, 1:] = m[:-1, :-1]
    grid = (up - m) - (upleft - left)
    if np.any(interior & ((grid < 0) | (grid > 1))):
        return "F3c"
    return None


def string_to_dmatrix(t, l) -> np.ndarray:
    """Per-furcation counts of each node's not-yet-furcated children.

    Entry (i, j) is the number of children of node j+1 (leaves plus
    internal nodes of rank > i+1) still unfurcated just after the
    (i+1)-th furcation.  The F-matrix is the row-wise prefix sum.
    """
    t, l = _check_vectors(t, l)
    k = len(t)
    marks = np.zeros((k, k), dtype=np.int64)
    if k > 1:
        marks[np.arange(1, k), np.array(t[1:]) - 1] = 1
    # strict suffix count: internal children of node j+1 with rank > i+1
    unfurcated = np.zeros((k, k), dtype=np.int64)
    unfurcated[:-1] = marks[::-1].cumsum(axis=0)[::-1][1:]
    return np.tril(np.array(l, dtype=np.int64)[None, :] + unfurcated)


def string_to_fmatrix(t, l) -> np.ndarray:
    """Convert the vector-pair encoding to the F-matrix encoding."""
    d = string_to_dmatrix(t, l)
    return np.tril(np.cumsum(d, axis=1))


def fmatrix_to_string(f, validate=True):
    """Convert an F-matrix back to the vector pair ``(t, l)``."""
    m = _as_matrix(f)
    if validate:
        bad = validate_fmatrix(m)
        if bad is not None:
            raise InvalidShapeError(bad, "input is not a valid F-matrix")
    k = m.shape[0]
    d = np.diff(m, axis=1, prepend=0)
    if k == 1:
        return (0,), (int(d[0, 0]),)
    drops = (d[:-1, :] - d[1:, :] == 1) & (
        np.arange(k)[None, :] < np.arange(1, k)[:, None]
    )
    counts = drops.sum(axis=1)
    if np.any(counts != 1):
        bad = int(np.flatnonzero(counts != 1)[0]) + 2
        raise InvalidShapeError(
            "F1", f"row {bad} does not decrease exactly one column"
        )
    t = (0,) + tuple(int(x) + 1 for x in drops.argmax(axis=1))
    l = tuple(int(x) for x in d[k - 1, :])
    return t, l


@dataclass(frozen=True, order=True)
class TreeShape:
    """Immutable canonical value for a ranked multifurcating tree shape.

    Ordering (and the deterministic order of every exhaustive listing) is
    lexicographic on ``(K, t, l)``.  Equality and hashing are by the
    canonical vectors.
    """

    sort_index: tuple = field(init=False, repr=False)
    t: tuple[int, ...] = ()
    l: tuple[int, ...] = ()

    def __init__(self, t, l):
        t, l = _check_vectors(t, l)
        bad = validate_string(t, l)
        if bad is not None:
            raise InvalidShapeError(bad, f"t={t}, l={l}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "sort_index", (len(t), t, l))

    @classmethod
    def _trusted(cls, t: tuple[int, ...], l: tuple[int, ...]) -> "TreeShape":
        """Skip validation: only for int tuples that a collapse or a node
        split of a valid shape produced, valid by construction."""
        shape = object.__new__(cls)
        object.__setattr__(shape, "t", t)
        object.__setattr__(shape, "l", l)
        object.__setattr__(shape, "sort_index", (len(t), t, l))
        return shape

    @property
    def n_tips(self) -> int:
        return sum(self.l)

    @property
    def n_internal(self) -> int:
        return len(self.t)

    def children_counts(self) -> tuple[tuple[int, int], ...]:
        """Per internal node, its (internal child count, leaf count)."""
        k = len(self.t)
        ks = [0] * k
        for x in self.t[1:]:
            ks[x - 1] += 1
        return tuple(zip(ks, self.l))

    def fmatrix(self) -> np.ndarray:
        return string_to_fmatrix(self.t, self.l)

    @classmethod
    def from_fmatrix(cls, f) -> "TreeShape":
        t, l = fmatrix_to_string(f)
        return cls(t, l)

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        """Compact form ``"t1,...,tK|l1,...,lK"``, e.g. ``"0|4"``."""
        return ",".join(map(str, self.t)) + "|" + ",".join(map(str, self.l))

    @classmethod
    def from_text(cls, text: str) -> "TreeShape":
        t, l = _parse_text(text)
        return cls(t, l)

    def to_json(self) -> str:
        return json.dumps({"t": list(self.t), "l": list(self.l)})

    @classmethod
    def from_json(cls, data) -> "TreeShape":
        if isinstance(data, (str, bytes)):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as e:
                raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
        if not isinstance(data, dict) or set(data) != {"t", "l"}:
            raise ParseError('expected an object with keys "t" and "l"', 0)
        return cls(data["t"], data["l"])

    def __str__(self) -> str:
        return self.to_text()


def _parse_int_list(text: str, base: int) -> list[int]:
    out = []
    pos = 0
    for tok in text.split(","):
        if not tok or not tok.lstrip("-").isdigit() or tok.startswith("--"):
            raise ParseError(f"expected an integer, got {tok!r}", base + pos)
        out.append(int(tok))
        pos += len(tok) + 1
    return out


def _parse_text(text: str):
    if text.count("|") != 1:
        bad = text.find("|", text.find("|") + 1)
        raise ParseError(
            "expected exactly one '|' separator",
            bad if bad >= 0 else len(text),
        )
    left, right = text.split("|")
    t = _parse_int_list(left, 0)
    l = _parse_int_list(right, len(left) + 1)
    return t, l


# -- edge collapse ----------------------------------------------------


def _require_edge(k: int, e: int):
    if not 1 <= e <= k - 1:
        raise ValueError(f"edge index must be in 1..{k - 1}, got {e}")


def collapse_edge(shape: TreeShape, e: int) -> TreeShape:
    """Merge adjacent-ranked internal nodes e and e+1 (vector route).

    The edge (e, e+1) exists exactly when node e+1's parent is node e;
    edge (1, 2) always exists when K >= 2.  Node e+1's leaves move to
    node e and every later rank shifts down by one.  Raises
    ``EdgeNotPresentError`` for an absent edge and ``ValueError`` for an
    out-of-range index.
    """
    t, l = shape.t, shape.l
    k = len(t)
    _require_edge(k, e)
    if t[e] != e:
        raise EdgeNotPresentError(f"edge ({e}, {e + 1}) not present")
    new_t = t[:e] + tuple(v - 1 if v > e else v for v in t[e + 1 :])
    new_l = l[: e - 1] + (l[e - 1] + l[e],) + l[e + 1 :]
    return TreeShape._trusted(new_t, new_l)


def collapse_edge_fmatrix(f, e: int) -> np.ndarray:
    """Merge adjacent-ranked nodes e and e+1 (matrix route).

    Deletes row e and column e of the F-matrix; this is the matrix dual
    of :func:`collapse_edge`.
    """
    m = _as_matrix(f)
    k = m.shape[0]
    _require_edge(k, e)
    if e > 1 and not np.array_equal(m[e - 1, : e - 1], m[e, : e - 1]):
        raise EdgeNotPresentError(f"edge ({e}, {e + 1}) not present")
    out = np.delete(np.delete(m, e - 1, axis=0), e - 1, axis=1)
    return out
