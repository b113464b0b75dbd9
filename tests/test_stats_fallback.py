"""``mtshapes stats`` against a copy of its earlier per-line implementation.

A block of canonical text goes through the bulk reader; a block holding
any other accepted form goes through the per-line reader.  Either way
the exit status, stdout and stderr must equal those of
``reference_stats``, which keeps the per-line reader, per-shape
statistics and aggregation that ``stats`` used before it read columns.
"""

import csv
import dataclasses
import io
import json
import math
import sys

import pytest

from mtshapes import TreeShape, generate_all
from mtshapes import shapes as shapes_module
from mtshapes.cli import _text_blocks, main
from mtshapes.treestats import StatsSummary, shape_stats


def _lower_median(values):
    return sorted(values)[(len(values) - 1) // 2]


def _reference_aggregate(stats, cherry_sizes):
    items = list(stats)
    count = len(items)
    _, ks, maxes, avgs, _ = zip(*items)
    totals = dict.fromkeys(cherry_sizes, 0)
    terms = {m: [] for m in totals}
    for s in items:
        for m, c in s.cherries:
            if m in totals:
                totals[m] += c
                terms[m].append(c / s.n)
    return StatsSummary(
        count=count,
        mean_k=sum(ks) / count,
        median_k=_lower_median(ks),
        mean_max_block=sum(maxes) / count,
        median_max_block=_lower_median(maxes),
        mean_avg_block=math.fsum(avgs) / count,
        median_avg_block=_lower_median(avgs),
        mean_cherries={m: c / count for m, c in totals.items()},
        scaled_cherries={m: math.fsum(v) / count for m, v in terms.items()},
    )


def _reference_read_shapes(path):
    handle = sys.stdin if path == "-" else open(path)
    try:
        shapes = []
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.lstrip().startswith("{"):
                    shapes.append(TreeShape.from_json(line))
                else:
                    shapes.append(TreeShape.from_text(line))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from e
        return shapes
    finally:
        if handle is not sys.stdin:
            handle.close()


def reference_stats(infile, as_json=False, max_cherry=6):
    """(rc, stdout, stderr) of the per-line ``stats``."""
    out = io.StringIO()
    try:
        shapes = _reference_read_shapes(infile)
        if not shapes:
            raise ValueError("no shapes in input")
        stats = [shape_stats(s) for s in shapes]
        sizes = range(2, max_cherry + 1)
        record = dataclasses.asdict(_reference_aggregate(stats, sizes))
        if as_json:
            out.write(json.dumps(record) + "\n")
            return 0, out.getvalue(), ""
        writer = csv.writer(out)
        writer.writerow(
            ["n", "k", "max_block", "avg_block"] + [f"cherry_{m}" for m in sizes]
        )
        for s in stats:
            cherries = dict(s.cherries)
            writer.writerow(
                [s.n, s.k, s.max_block, f"{s.avg_block:.6g}"]
                + [cherries.get(m, 0) for m in sizes]
            )
        return 0, out.getvalue(), ""
    except (ValueError, OSError) as e:
        return 1, "", f"error: {e}\n"


def run_stats(capsys, infile, as_json=False, max_cherry=6):
    argv = ["stats", "--in", infile, "--max-cherry", str(max_cherry)]
    code = main(argv + ["--json"] * as_json)
    out, err = capsys.readouterr()
    return code, out, err


CANONICAL = "".join(s.to_text() + "\n" for s in generate_all(6))
# About 270 KB of canonical lines (several reader blocks), then one shape
# that breaks S3.
LONG = "".join(s.to_text() + "\n" for s in generate_all(7)) * 64
LONG_BAD = LONG + "0|4\n0,1|2,1\n0|4\n"
# The same lines, then one padded line: only the last block is not canonical.
LONG_PADDED = LONG + " 0|4\n0,1|2,2\n"

INPUTS = {
    "canonical": CANONICAL.encode(),
    "blank-line": b"0|4\n\n0,1|2,2\n",
    "padded": b" 0|4\n0,1|2,2  \n",
    "crlf": b"0|4\r\n0,1|2,2\r\n",
    "lone-cr": b"0|4\r0,1|2,2\n",
    "no-final-newline": b"0|4\n0,1|2,2",
    "json-line": b'0|4\n{"t": [0, 1], "l": [2, 2]}\n0,1|2,2\n',
    "ten-digit-leaves": b"0|4\n0|1234567890\n",
    "zero-leaves": b"0|4\n0|0\n",
    "minus-zero": b"0|4\n-0|4\n",
    "unicode-digit": "0|4\n0|٤\n".encode(),
    "empty": b"",
    "long": LONG.encode(),
    "long-bad-last-block": LONG_BAD.encode(),
    "long-padded-last-block": LONG_PADDED.encode(),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("name", list(INPUTS))
def test_same_as_per_line_stats(capsys, tmp_path, name, as_json):
    path = tmp_path / "shapes.txt"
    path.write_bytes(INPUTS[name])
    got = run_stats(capsys, str(path), as_json)
    assert got == reference_stats(str(path), as_json)
    if name == "long-bad-last-block":
        assert len(list(_text_blocks(LONG_BAD))) > 3
        bad_line = LONG_BAD.count("\n") - 1
        assert got[2].startswith(f"error: line {bad_line}: S3: ")


@pytest.mark.parametrize("max_cherry", [1, 9])
@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("name", ["canonical", "blank-line"])
def test_cherry_range(capsys, tmp_path, name, as_json, max_cherry):
    path = tmp_path / "shapes.txt"
    path.write_bytes(INPUTS[name])
    got = run_stats(capsys, str(path), as_json, max_cherry)
    assert got == reference_stats(str(path), as_json, max_cherry)
    assert ("cherry_" in got[1]) == (max_cherry > 1 and not as_json)


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("name", ["canonical", "padded", "empty"])
def test_stdin(capsys, monkeypatch, name, as_json):
    text = INPUTS[name].decode()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    got = run_stats(capsys, "-", as_json)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert got == reference_stats("-", as_json)


def test_canonical_input_is_not_checked_shape_by_shape(capsys, monkeypatch, tmp_path):
    calls = []
    real = shapes_module.validate_string
    monkeypatch.setattr(
        shapes_module, "validate_string", lambda *a: calls.append(a) or real(*a)
    )
    path = tmp_path / "shapes.txt"
    path.write_text(CANONICAL)
    assert run_stats(capsys, str(path), as_json=True)[0] == 0
    assert calls == []
    path.write_text(CANONICAL + "\n")  # a blank line: read line by line
    assert run_stats(capsys, str(path), as_json=True)[0] == 0
    assert len(calls) == CANONICAL.count("\n")


def test_only_the_non_canonical_block_is_read_line_by_line(capsys, monkeypatch, tmp_path):
    blocks = list(_text_blocks(LONG_PADDED))
    assert len(blocks) > 3 and " " not in "".join(blocks[:-1])
    last = [TreeShape.from_text(line.strip()) for line in blocks[-1].splitlines()]
    calls = []
    real = shapes_module.validate_string
    monkeypatch.setattr(
        shapes_module, "validate_string", lambda *a: calls.append(a) or real(*a)
    )
    path = tmp_path / "shapes.txt"
    path.write_text(LONG_PADDED)
    assert run_stats(capsys, str(path), as_json=True)[0] == 0
    assert [(tuple(t), tuple(l)) for t, l in calls] == [(s.t, s.l) for s in last]


TIPS_2_53 = f"0|{2**53}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("tips", [2**53, 10**30])
def test_2_to_the_53_tips_refused(capsys, tmp_path, as_json, tips):
    path = tmp_path / "shapes.txt"
    path.write_text(f"0|{2**53 - 1}\n" + LONG + f"0,1|2,{tips - 2}\n")
    assert run_stats(capsys, str(path), as_json) == (
        1, "", f"error: stats takes shapes with fewer than 2**53 tips, got {tips}\n"
    )
    path.write_text(f"0|{2**53 - 1}\n")
    assert run_stats(capsys, str(path), as_json)[0] == 0


def test_malformed_later_line_comes_before_the_tip_refusal(capsys, tmp_path):
    text = TIPS_2_53 + LONG + "0|4\n0,1|2,1\n"
    assert len(list(_text_blocks(text))) > 3
    path = tmp_path / "shapes.txt"
    path.write_text(text)
    code, out, err = run_stats(capsys, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: line {text.count(chr(10))}: S3: ")
