"""Self-check of the benchmark's own code: every workload at tiny sizes,
traced and untraced, with every output check on and no timing
assertion.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # as run.run does, for tests that import mtshapes first
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "uniform-n20": {"chains": 4, "steps": 300, "thin": 2, "threads": 2},
    "coalescent-n20": {"count": 4000},
    "lattice-n50": {"shapes": 12, "probes": 6},
    "exact-n8": {},
}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_and_checks_pass(name, trace):
    result, meta = run.run(name, seed=7, seconds=0, trace=trace, root=ROOT, size=TINY[name])
    assert result["failed"] == 0 and result["correct"] and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert meta["nproc"] and meta["source_sha256"] and meta["iterations"] == 1


def _fail(*args, **kwargs):
    raise RuntimeError("injected fault")


def _value_error(*args, **kwargs):
    raise ValueError("injected fault")


@pytest.mark.parametrize(
    "name, attr, fault",
    [
        ("uniform-n20", "run_chains", _fail),  # escapes cli.main: execute raises
        ("exact-n8", "build_hasse", _value_error),  # cli.main returns 1, hasse writes nothing
    ],
)
def test_program_fault_is_a_failed_operation(monkeypatch, name, attr, fault):
    import mtshapes.cli

    monkeypatch.setattr(mtshapes.cli, attr, fault)
    result, _ = run.run(name, seed=7, seconds=0, trace=False, root=ROOT, size=TINY[name])
    assert not result["correct"] and 1 <= result["failed"] <= result["attempted"]


def test_tracer_refuses_a_missing_name(monkeypatch):
    import mtshapes.cli
    import mtshapes.shapes

    from tracing import Tracer

    before = mtshapes.shapes.validate_string  # wrapped before the missing name is met
    monkeypatch.delattr(mtshapes.cli, "run_chains")
    with pytest.raises(AttributeError):
        with Tracer():
            pass
    assert mtshapes.shapes.validate_string is before


def test_self_time_subtracts_the_union_of_children():
    from tracing import Span, summarize

    spans = [
        Span(1, 0, "outer", 0.0, 10.0),
        Span(2, 1, "inner", 1.0, 4.0),
        Span(3, 1, "inner", 3.0, 6.0),  # overlaps its sibling, as threads do
        Span(4, 2, "leaf", 1.0, 2.0),
    ]
    agg = summarize(spans)
    assert agg["outer"].self_seconds == pytest.approx(5.0)
    assert agg["inner"].seconds == pytest.approx(6.0)
    assert agg["inner"].self_seconds == pytest.approx(5.0)
    # the root's duration, plus the one second the siblings overlap
    assert sum(a.self_seconds for a in agg.values()) == pytest.approx(11.0)


def test_tracer_restores_every_wrapped_name():
    import importlib

    from tracing import COUNTED, SPANNED, Tracer

    def snapshot():
        return {
            (mod, attr): getattr(importlib.import_module(mod), attr, None)
            for mod, attr, *_ in SPANNED + COUNTED
        }

    before = snapshot()
    with Tracer():
        assert snapshot() != before
    assert snapshot() == before


def test_bulk_ess_of_independent_and_correlated_draws():
    import numpy as np

    from checks import bulk_ess

    rng = np.random.default_rng(3)
    iid = rng.normal(size=(4, 2000))
    assert 0.8 * iid.size < bulk_ess(iid) < 1.2 * iid.size
    rho = 0.9
    ar = np.zeros_like(iid)
    for t in range(1, iid.shape[1]):
        ar[:, t] = rho * ar[:, t - 1] + iid[:, t]
    expected = iid.size * (1 - rho) / (1 + rho)
    assert 0.6 * expected < bulk_ess(ar) < 1.5 * expected


def test_independent_checks_agree_with_definitions():
    from checks import collapses, is_valid, parse_shape

    assert parse_shape("0,1|2,2") == ((0, 1), (2, 2))
    assert is_valid((0, 1), (2, 2), 4)
    assert not is_valid((0, 1), (0, 2), 2)  # S4: one internal child, no leaf
    assert not is_valid((0, 2), (2, 2), 4)  # S1: parent rank out of range
    assert collapses((0, 1), (2, 2)) == {((0,), (4,))}
    assert collapses((0,), (4,)) == set()
