"""``stats`` against the benchmark's independent summary, and pinned output.

``perfbench/checks.py`` recomputes the ``stats --json`` summary from the
parsed ``(t, l)`` vectors without using ``mtshapes``.  It is loaded by
path and not edited.  The summaries must agree exactly, float for float.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from mtshapes import generate_all
from mtshapes.cli import main

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"

# sha256 of `sample-coalescent --n 20 --count 2000 --seed 2024` and of
# `stats --in` on it, as CSV and with --json.
COALESCENT_DIGEST = "c3aaefc09dd826a5cd69dd85c417991cd1ed5f75225d3d11e8a4233cf7b8df0c"
CSV_DIGEST = "5ec4108ee1c0694ee6452479cf32241a302586894c5906d1a7f12796047c0d78"
JSON_DIGEST = "cb477f8a3a8437a71e7f8a321435676f54a4ec0a176f30c41713a9894c0837cd"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("_perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_out(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def oracle(checks, text, n, max_cherry=6):
    shapes = [checks.parse_shape(line) for line in text.splitlines()]
    return checks.shape_summary(shapes, n, cherry_sizes=range(2, max_cherry + 1))


@pytest.fixture
def coalescent_file(capsys, tmp_path):
    text = cli_out(
        capsys, "sample-coalescent", "--n", "20", "--count", "2000", "--seed", "2024"
    )
    assert hashlib.sha256(text.encode()).hexdigest() == COALESCENT_DIGEST
    path = tmp_path / "coalescent.txt"
    path.write_text(text)
    return path


@pytest.mark.parametrize("n", range(2, 8))
def test_exhaustive_summary_equals_oracle(capsys, tmp_path, checks, n):
    text = "".join(s.to_text() + "\n" for s in generate_all(n))
    path = tmp_path / "all.txt"
    path.write_text(text)
    got = json.loads(cli_out(capsys, "stats", "--in", str(path), "--json"))
    assert got == oracle(checks, text, n)


@pytest.mark.parametrize("max_cherry", [6, 9])
def test_coalescent_summary_equals_oracle(capsys, checks, coalescent_file, max_cherry):
    got = json.loads(
        cli_out(
            capsys, "stats", "--in", str(coalescent_file), "--json",
            "--max-cherry", str(max_cherry),
        )
    )
    assert got == oracle(checks, coalescent_file.read_text(), 20, max_cherry)


@pytest.mark.parametrize(
    "fmt, digest", [([], CSV_DIGEST), (["--json"], JSON_DIGEST)], ids=["csv", "json"]
)
def test_coalescent_stats_output_pinned(capsys, coalescent_file, fmt, digest):
    out = cli_out(capsys, "stats", "--in", str(coalescent_file), *fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
