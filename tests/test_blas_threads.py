"""`exact` and `bounds --exact` print the same bytes whatever the BLAS
thread count: ``exact_gap`` returns only certified digits.

Each command runs in two child processes at once, with
``OPENBLAS_NUM_THREADS`` set to 1 and to 2 in the child's environment
only.  Under the raw eigensolver bits that these commands once printed,
every N = 7 and 8 form differed between the two.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = [
    ["exact", "--n", "8", "--chain", "rw"],
    ["exact", "--n", "8", "--chain", "sym", "--lazy", "--json"],
    ["exact", "--n", "7", "--chain", "sym"],
    ["bounds", "--n", "8", "--exact", "--json"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_does_not_depend_on_blas_threads(argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "mtshapes.cli", *argv],
            env=dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(p for p in path if p),
                OPENBLAS_NUM_THREADS=threads,
            ),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for threads in ("1", "2")
    ]
    (out1, err1), (out2, err2) = (child.communicate(timeout=120) for child in children)
    assert [child.returncode for child in children] == [0, 0], (err1, err2)
    assert out1 == out2
    assert out1
