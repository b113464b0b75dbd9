"""The bulk reader of canonical shape text against the per-shape reader.

``shapes._text_columns`` checks a block of ``t|l`` lines in numpy.  It
must accept exactly the lines ``TreeShape.from_text`` accepts among
canonical ones, and its columns must equal each shape's K and
``children_counts()``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mtshapes import TreeShape, generate_all
from mtshapes.chains import semi_random_init
from mtshapes.coalescent import UNIFORM_MEASURE, sample_topologies
from mtshapes.shapes import _text_columns
from mtshapes.treestats import (
    _concat_columns,
    _node_columns,
    _summary,
    aggregate,
    shape_stats,
)


def expected_columns(shapes):
    """K per shape, then every node's (internal children, leaves)."""
    counts = [c for s in shapes for c in s.children_counts()]
    return [s.n_internal for s in shapes], [c for c, _ in counts], [x for _, x in counts]


def as_lists(columns):
    return [col.tolist() for col in columns]


def parsed_or_none(text):
    try:
        return TreeShape.from_text(text)
    except ValueError:
        return None


def mutations(shape, other):
    """Single-token edits of ``shape``'s text: each token +-1, a token
    dropped from t or from l, t and l swapped, and ``other`` joined on."""
    t, l = shape.t, shape.l

    def text(tt, ll):
        return ",".join(map(str, tt)) + "|" + ",".join(map(str, ll))

    for i in range(len(t)):
        for d in (-1, 1):
            yield text(t[:i] + (t[i] + d,) + t[i + 1 :], l)
            yield text(t, l[:i] + (l[i] + d,) + l[i + 1 :])
        yield text(t[:i] + t[i + 1 :], l)
        yield text(t, l[:i] + l[i + 1 :])
    yield text(l, t)
    yield shape.to_text() + other.to_text()
    yield shape.to_text() + "," + other.to_text()


def test_accepts_exactly_what_from_text_accepts():
    checked = rejected = 0
    for n in range(2, 8):
        shapes = list(generate_all(n))
        for shape, other in zip(shapes, shapes[1:] + shapes[:1]):
            assert as_lists(_text_columns(shape.to_text() + "\n")) == list(
                expected_columns([shape])
            )
            for text in mutations(shape, other):
                parsed = parsed_or_none(text)
                got = _text_columns(text + "\n")
                checked += 1
                if parsed is None:
                    rejected += 1
                    assert got is None, text
                else:
                    assert got is not None, text
                    assert as_lists(got) == list(expected_columns([parsed])), text
    assert 0 < rejected < checked


def test_one_bad_line_rejects_the_block():
    good = [s.to_text() for s in generate_all(6)]
    assert _text_columns("".join(f"{x}\n" for x in good)) is not None
    for bad in ("0,1|0,2", "0|1", "0,2|2,2", "0,1|2", "-0|4", "0|1234567890", "0|4 "):
        lines = good[:20] + [bad] + good[20:]
        assert _text_columns("".join(f"{x}\n" for x in lines)) is None, bad


def test_rejects_what_is_not_canonical_text():
    for block in (
        "",
        "0|4",  # no final newline
        "0|4\n\n",  # blank line
        " 0|4\n",
        "0|4\r\n",
        '{"t": [0], "l": [4]}\n',
        "0|٤\n",  # a digit outside ASCII
        "0||4\n",
        "0|4|4\n",
        "|\n",
        "0|4\n0,1\n",
    ):
        assert _text_columns(block) is None, repr(block)


def test_nine_digit_tokens_and_leading_zeros():
    k, internal, leaves = _text_columns("0|999999999\n00,01|002,999999999\n")
    assert (k.tolist(), internal.tolist(), leaves.tolist()) == (
        [1, 2], [0, 1, 0], [999999999, 2, 999999999]
    )


@st.composite
def sampled_shapes(draw):
    """Semi-random and Beta(1, 1) coalescent shapes with 2..50 tips."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    shapes = []
    for _ in range(draw(st.integers(1, 30))):
        n = draw(st.integers(2, 50))
        if draw(st.booleans()):
            shapes.append(semi_random_init(n, draw(st.integers(1, n - 1)), rng))
        else:
            shapes.append(sample_topologies(n, UNIFORM_MEASURE, 1, rng)[0])
    cuts = draw(st.sets(st.integers(1, len(shapes)), max_size=5))
    return shapes, sorted(cuts - {len(shapes)})


@settings(deadline=None, derandomize=True)
@given(sampled_shapes())
def test_blocks_cut_at_any_line_give_the_per_shape_columns(drawn):
    shapes, cuts = drawn
    lines = [s.to_text() + "\n" for s in shapes]
    bounds = [0, *cuts, len(shapes)]
    parts = [
        _node_columns(*_text_columns("".join(lines[a:b])))
        for a, b in zip(bounds, bounds[1:])
    ]
    cols = _concat_columns(parts)
    whole = _text_columns("".join(lines))
    assert as_lists(whole) == list(expected_columns(shapes))
    # per-shape columns against the scalar oracle
    stats = [shape_stats(s) for s in shapes]
    assert cols.n.tolist() == [s.n for s in stats]
    assert cols.k.tolist() == [s.k for s in stats]
    assert cols.max_block.tolist() == [s.max_block for s in stats]
    assert cols.avg_block().tolist() == [s.avg_block for s in stats]
    size, shape, count = cols.cherries.tolist()
    cherries = [dict() for _ in shapes]
    for m, i, c in zip(size, shape, count):
        cherries[i][m] = c
    assert [tuple(sorted(d.items())) for d in cherries] == [s.cherries for s in stats]
    assert _summary(cols, range(2, 51)) == aggregate(stats, range(2, 51))
