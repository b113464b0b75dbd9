"""The fast demos run to completion against the package under src/."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 05_sampling.py, the slowest, runs about 6 s of sampling.
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))
# Pinned stdout: 02 prints counts, pair_table(8).entries and its row sums.
STDOUT_SHA256 = {"02_enumeration.py": "79b5a4db2ddd358918fdec082b1ddea07e5ff1afe6a124dd11e06de14b56fd93"}


def test_demo_set():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    res = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
