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

One rule governs construction across the package.  Input from outside is
checked exactly once, where it enters: ``TreeShape(t, l)``, ``from_text``,
``from_json``, ``from_fmatrix``/``fmatrix_to_string``,
``string_to_dmatrix``/``string_to_fmatrix``, ``validate_*``,
``lub_fmatrix``, ``collapse_edge_fmatrix`` and the bulk text reader
``_text_columns``.  Every shape the package derives from checked data (a
collapse, a split, a decoded F-matrix, a least upper bound, a generated
or a sampled shape, or a chain's sample read back from the line that
``to_text`` wrote) is built through ``TreeShape._trusted`` and not
checked again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
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
    t, l = tuple(map(_as_int, t)), tuple(map(_as_int, l))
    if len(t) != len(l):
        raise ValueError(
            f"t and l must have equal length, got {len(t)} and {len(l)}"
        )
    if len(t) == 0:
        raise ValueError("t and l must be non-empty")
    return t, l


def _child_counts(t) -> list[int]:
    """Internal children per node: entry j - 1 counts rank j in ``t[1:]``."""
    counts = [0] * (len(t) + 1)
    for x in t:  # the root's placeholder 0 lands in counts[0], dropped
        counts[x] += 1
    return counts[1:]


def _min_leaves(t) -> list[int]:
    """Fewest leaves each node may keep: every node has at least two
    children, so a node with c internal children keeps max(0, 2 - c)."""
    return [2 - c if c < 2 else 0 for c in _child_counts(t)]


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
    if t[0] != 0:
        return "S1"
    # One pass checks S1 and counts each node's internal children.
    counts = [0] * (len(t) + 1)
    for i in range(1, len(t)):
        p = t[i]
        if not 1 <= p <= i:
            return "S1"
        counts[p] += 1
    if min(l) < 0 or (n is not None and sum(l) != n):
        return "S2"
    s4 = False
    for c, x in zip(islice(counts, 1, None), l):
        if c == 0 and x < 2:
            return "S3"
        if c == 1 and x == 0:
            s4 = True
    return "S4" if s4 else None


_COMMA, _BAR, _NEWLINE = b",|\n"
_SEPARATORS_TO_COMMAS = bytes.maketrans(b"|\n", b",,")


def _text_columns(block: str):
    """Check and decode a block of canonical text lines in one pass.

    Accepts only lines ``d(,d)*|d(,d)*`` each ending in ``\\n``, where
    every ``d`` is 1 to 9 ASCII digits.  The shapes must pass the same
    rules S1-S4 and the same equal, non-empty lengths as
    ``validate_string`` (on nonnegative tokens S3 and S4 together say
    that every node has at least two children).  Returns ``(k, internal,
    leaves)``: K per shape, then every node's internal-child count and
    leaf count in line order, which is ``children_counts()`` of each
    shape.  Returns None when the block is not of that form or any shape
    in it breaks a rule; the per-line reader then handles it and names
    the line.  Nine digits keep every token below 2**31, so tokens are
    read as int32.
    """
    if not block.isascii():
        return None
    raw = block.encode("ascii")
    b = np.frombuffer(raw, dtype=np.uint8)
    if b.size == 0 or b[-1] != _NEWLINE:
        return None
    seps = np.flatnonzero(b - ord("0") > 9)  # token i ends at byte seps[i]
    kind = b[seps]
    bar, end = kind == _BAR, kind == _NEWLINE
    if not (bar | end | (kind == _COMMA)).all():
        return None
    widths = np.diff(seps, prepend=-1) - 1
    if widths.min() < 1 or widths.max() > 9:
        return None
    bars, ends = np.flatnonzero(bar), np.flatnonzero(end)
    # '|' and '\n' alternate, starting with '|': one bar per line.
    if bars.size != ends.size or (bars > ends).any() or (bars[1:] < ends[:-1]).any():
        return None
    starts = np.empty_like(ends)  # first token of each line
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    k = ends - bars
    if (bars + 1 - starts != k).any():
        return None
    values = np.fromstring(raw.translate(_SEPARATORS_TO_COMMAS), dtype=np.int32, sep=",")
    if values.size != seps.size:
        return None
    in_l = np.zeros(seps.size + 1, dtype=np.int8)
    in_l[bars + 1] = 1
    in_l[ends + 1] -= 1
    in_l = np.cumsum(in_l[:-1], dtype=np.int8).astype(bool)
    t, leaves = values[~in_l], values[in_l]
    node_start = np.repeat(np.cumsum(k) - k, k)  # each node's line's first node
    pos = np.arange(t.size) - node_start  # rank - 1 within its shape
    # S1: t[0] == 0 and 1 <= t[i] <= i.
    if ((t > pos) | ((t == 0) != (pos == 0))).any():
        return None
    internal = np.bincount((node_start + t - 1)[pos > 0], minlength=t.size)
    if (internal + leaves < 2).any():  # S3, S4
        return None
    return k, internal, leaves


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
    return _fmatrix_rule(_as_matrix(f), n)


def _fmatrix_rule(m: np.ndarray, n=None) -> str | None:
    """The first F rule that an int64 matrix from ``_as_matrix`` breaks."""
    d = m.diagonal()
    if d[0] < 2 or (d[1:] <= d[:-1]).any():
        return "F1"
    if n is not None and d[-1] != n:
        return "F1"
    if (m.diagonal(-1) != d[:-1] - 1).any():
        return "F1"
    # drop[i - 1, j] = m[i - 1, j] - m[i, j]: how far column j falls at row i
    drop = m[:-1] - m[1:]
    # first-column steps for rows 3..K; max(0, prev - 1) <= cur <= prev
    # is the same as a drop of 0 or 1 for nonnegative entries
    if _outside_0_1(drop[1:, 0]):
        return "F2"
    # interior cells: rows 4..K, columns 2..row-2 (1-based)
    inner = np.tri(len(d), k=-2, dtype=bool)
    inner[:, 0] = False
    if (m[:, 1:] < m[:, :-1])[inner[:, 1:]].any():
        return "F3a"
    if _outside_0_1(drop[inner[1:]]):
        return "F3b"
    if _outside_0_1((drop[:, 1:] - drop[:, :-1])[inner[1:, 1:]]):
        return "F3c"
    return None


def _outside_0_1(x: np.ndarray) -> bool:
    return bool(((x < 0) | (x > 1)).any())


def string_to_dmatrix(t, l) -> np.ndarray:
    """Per-furcation counts of each node's not-yet-furcated children.

    Entry (i, j) is the number of children of node j+1 (leaves plus
    internal nodes of rank > i+1) still unfurcated just after the
    (i+1)-th furcation.  The F-matrix is the row-wise prefix sum.
    Vectors that break a rule S1-S4 raise ``InvalidShapeError``.
    """
    return _dmatrix(TreeShape(t, l))


def _dmatrix(shape: TreeShape) -> np.ndarray:
    t, l = shape.t, shape.l
    k = len(t)
    marks = np.zeros((k, k), dtype=np.int64)
    if k > 1:
        marks[np.arange(1, k), np.array(t[1:]) - 1] = 1
    # strict suffix count: internal children of node j+1 with rank > i+1
    unfurcated = np.zeros((k, k), dtype=np.int64)
    unfurcated[:-1] = marks[::-1].cumsum(axis=0)[::-1][1:]
    return np.tril(np.array(l, dtype=np.int64)[None, :] + unfurcated)


def string_to_fmatrix(t, l) -> np.ndarray:
    """Convert the vector-pair encoding to the F-matrix encoding; vectors
    that break a rule S1-S4 raise ``InvalidShapeError``."""
    return TreeShape(t, l).fmatrix()


def _checked_fmatrix(f) -> np.ndarray:
    """``f`` as an int64 matrix; ``InvalidShapeError`` names the first F
    rule it breaks."""
    m = _as_matrix(f)
    bad = _fmatrix_rule(m)
    if bad is not None:
        raise InvalidShapeError(bad, "input is not a valid F-matrix")
    return m


def fmatrix_to_string(f):
    """Convert an F-matrix back to the vector pair ``(t, l)``."""
    return _fmatrix_vectors(_checked_fmatrix(f))


def _fmatrix_vectors(m: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Decode an int64 F-matrix that passes the F rules.

    Node i + 1's parent is the one column whose per-node count drops by
    one at row i + 1; the last row holds the leaf counts.
    """
    k = m.shape[0]
    d = np.diff(m, axis=1, prepend=0)
    drops = (d[:-1] - d[1:] == 1) & np.tri(k - 1, k, dtype=bool)
    return (0, *(drops.argmax(axis=1) + 1).tolist()), tuple(d[-1].tolist())


class _Decimals(dict):
    """Decimal strings of ints, each made once and kept for 0 <= k < 1024
    (every count of a shape with fewer than 1024 tips); larger ones are
    made per call, so the table stays bounded."""

    __slots__ = ()

    def __missing__(self, k):
        s = str(k)
        if 0 <= k < 1024:
            self[k] = s
        return s


_decimal = _Decimals().__getitem__


# Sets a field of a frozen TreeShape; bound once, as each chain move builds one.
_set_field = object.__setattr__


@dataclass(frozen=True, slots=True, order=True)
class TreeShape:
    """Immutable canonical value for a ranked multifurcating tree shape.

    Ordering (and the deterministic order of every exhaustive listing) is
    lexicographic on the fields ``(n_internal, t, l)``, where ``n_internal``
    is K.  Equality and hashing are by the canonical vectors.
    """

    n_internal: int = field(init=False, repr=False, hash=False)
    t: tuple[int, ...] = ()
    l: tuple[int, ...] = ()

    def __init__(self, t, l):
        t, l = _check_vectors(t, l)
        bad = validate_string(t, l)
        if bad is not None:
            raise InvalidShapeError(bad, f"t={t}, l={l}")
        _set_field(self, "n_internal", len(t))
        _set_field(self, "t", t)
        _set_field(self, "l", l)

    @classmethod
    def _trusted(cls, t: tuple[int, ...], l: tuple[int, ...]) -> "TreeShape":
        """Build without validation, from plain tuples of exact ints that
        the package derived from checked data and that are valid by
        construction.  Outside input goes through ``TreeShape(t, l)`` or
        a reader instead; ``tests/test_construction_guard.py`` keeps every
        module but this one off the validating constructor."""
        shape = object.__new__(cls)
        _set_field(shape, "n_internal", len(t))
        _set_field(shape, "t", t)
        _set_field(shape, "l", l)
        return shape

    @property
    def n_tips(self) -> int:
        return sum(self.l)

    def children_counts(self) -> tuple[tuple[int, int], ...]:
        """Per internal node, its (internal child count, leaf count)."""
        return tuple(zip(_child_counts(self.t), self.l))

    def fmatrix(self) -> np.ndarray:
        return np.tril(np.cumsum(_dmatrix(self), axis=1))

    @classmethod
    def from_fmatrix(cls, f) -> "TreeShape":
        return cls._trusted(*fmatrix_to_string(f))

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        """Compact form ``"t1,...,tK|l1,...,lK"``, e.g. ``"0|4"``."""
        return ",".join(map(_decimal, self.t)) + "|" + ",".join(map(_decimal, self.l))

    @classmethod
    def from_text(cls, text: str) -> "TreeShape":
        return cls(*_parse_text(text))

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
        for key in "tl":
            v = data[key]
            if not isinstance(v, list) or any(type(x) is not int for x in v):
                raise ParseError(f'"{key}" must be a list of integers', 0)
        return cls(data["t"], data["l"])

    def __str__(self) -> str:
        return self.to_text()


def _parse_int_list(text: str, base: int) -> tuple[int, ...]:
    # The first bad token raises the ParseError.  str.isdecimal accepts
    # the digits int() reads; str.isdigit would also pass superscripts.
    out = []
    pos = 0
    for tok in text.split(","):
        if not tok or not tok.lstrip("-").isdecimal() or tok.startswith("--"):
            raise ParseError(f"expected an integer, got {tok!r}", base + pos)
        out.append(int(tok))
        pos += len(tok) + 1
    return tuple(out)


def _parse_text(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The vectors ``(t, l)`` of one line ``t1,...,tK|l1,...,lK``, not yet
    checked against S1-S4; a malformed line raises ``ParseError``."""
    if text.count("|") != 1:
        bad = text.find("|", text.find("|") + 1)
        raise ParseError(
            "expected exactly one '|' separator",
            bad if bad >= 0 else len(text),
        )
    left, right = text.split("|")
    return _parse_int_list(left, 0), _parse_int_list(right, len(left) + 1)


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

    Deletes row e and column e of the F-matrix (the matrix dual of
    :func:`collapse_edge`); input breaking an F rule raises ``InvalidShapeError``.
    """
    m = _checked_fmatrix(f)
    k = m.shape[0]
    _require_edge(k, e)
    if e > 1 and not np.array_equal(m[e - 1, : e - 1], m[e, : e - 1]):
        raise EdgeNotPresentError(f"edge ({e}, {e + 1}) not present")
    return _delete_nodes(m, e - 1)


def _delete_nodes(m: np.ndarray, idx) -> np.ndarray:
    """``m`` without the rows and columns ``idx`` (0-based node ranks)."""
    return np.delete(np.delete(m, idx, axis=0), idx, axis=1)
