"""Command-line surface: formats, exit codes, and reproducibility."""

import argparse
import csv
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from mtshapes import TreeShape, chains, cli, count_space, covers, generate_all
from mtshapes.chains import MAX_KERNEL_BYTES
from mtshapes.cli import build_parser, main
from mtshapes.coalescent import BetaMeasure, sample_topologies
from mtshapes.enumeration import MAX_COUNT_TIPS, _pair_entries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_table_row(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "12")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "n" and rows[0][-1] == "total"
        last = rows[-1]
        assert last[0] == "12"
        assert last[1:4] == ["1", "10", "90"]
        assert last[-1] == str(count_space(12)) == "1878112"

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_too_few_tips(self, capsys, n):
        code, out, err = run_cli(capsys, "enumerate", "--n", n)
        assert (code, out, err) == (1, "", f"error: n must be >= 2, got {n}\n")

    def test_past_count_cap_refused_before_any_table(self, capsys):
        _pair_entries.cache_clear()
        code, out, err = run_cli(capsys, "enumerate", "--n", str(MAX_COUNT_TIPS + 1))
        assert (code, out) == (1, "")
        assert err == "error: n must be <= MAX_COUNT_TIPS = 150, got 151\n"
        assert _pair_entries.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--n", "60"],
                "a7aab3a67ded03b473864fd62bfc4ec2b22dad7de2fbedc0f0eff78b19a1d677",
            ),
            (
                ["--n", "30", "--json"],
                "2eb97984aab4e02f125ed0f4638f9e387e2eb7b7e407c58a1405c0fcaa546abe",
            ),
        ],
        ids=["csv-60", "json-30"],
    )
    def test_output_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "enumerate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--json")
        data = json.loads(out)
        assert data["rows"][-1] == {
            "n": 5,
            "counts": {"1": 1, "2": 3, "3": 6, "4": 5},
            "total": 15,
        }


class TestValidate:
    def test_violation_names_constraint(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--tree", "0,1|2,1")
        assert code == 1
        assert "S3" in out

    def test_valid(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--tree", "0,1,2,3,3|3,1,2,3,3")
        assert code == 0
        assert out.startswith("ok")

    def test_malformed_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--tree", "0,1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "tree, key",
        [
            ('{"t": "0", "l": "4"}', "t"),
            ('{"t": 0, "l": [4]}', "t"),
            ('{"t": [0.5], "l": [4]}', "t"),
            ('{"t": [0], "l": [4.0]}', "l"),
        ],
    )
    def test_json_vectors_of_wrong_type(self, capsys, tree, key):
        code, out, err = run_cli(capsys, "validate", "--tree", tree)
        assert (code, out) == (1, "")
        assert err.startswith(f'error: "{key}" must be a list of integers')


class TestConvert:
    def test_to_text_by_default(self, capsys):
        got = run_cli(capsys, "convert", "--tree", '{"t": [0, 1], "l": [2, 2]}')
        assert got == (0, "0,1|2,2\n", "")

    def test_to_fmatrix(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--tree", "0,1,2|1,1,2", "--to", "fmatrix")
        assert out.splitlines() == ["2", "1,3", "1,2,4"]

    def test_to_json_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "convert", "--tree", "0|4", "--to", "json")
        assert TreeShape.from_json(out.strip()) == TreeShape((0,), (4,))

    def test_fmatrix_json(self, capsys):
        _, out, _ = run_cli(capsys, "convert", "--tree", "0|4", "--to", "fmatrix-json")
        assert json.loads(out) == {"f": [[4]]}


class TestLub:
    def test_worked_binary_pair_via_files(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0,1,1,3,2,5,4|0,1,1,1,1,2,2\n")
        b.write_text("0,1,1,3,2,5,6|0,1,1,2,1,1,2\n")
        code, out, _ = run_cli(capsys, "lub", "--a", str(a), "--b", str(b))
        assert code == 0
        assert out.strip() == "0,1|6,2"
        code, out, _ = run_cli(capsys, "lub", "--a", str(a), "--b", str(b), "--json")
        assert json.loads(out)["f"] == [[7, 0], [6, 8]]

    def test_mismatched_tips(self, capsys):
        code, _, err = run_cli(capsys, "lub", "--a", "0|4", "--b", "0|5")
        assert code == 1 and "error" in err


class TestShapeFiles:
    def test_reads_only_up_to_the_first_shape(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("\n  \n 0,1|2,2 \n" + "0,1,1|0,2,2\n" * 200_000)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "distance", "--a", str(path), "--b", "0|4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, "1\n", "")
        assert peak < 1e6

    def test_blank_file_is_refused(self, capsys, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("\n \t\n\n")
        code, out, err = run_cli(capsys, "distance", "--a", str(path), "--b", "0|4")
        assert (code, out, err) == (1, "", f"error: {path}: empty shape file\n")


class TestDistanceAndDegree:
    def test_distance(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--a", "0,1|2,2", "--b", "0|4")
        assert code == 0 and out.strip() == "1"

    def test_degree_text(self, capsys):
        got = run_cli(capsys, "degree", "--tree", "0,1|2,2")
        assert got == (0, "deg_plus=1 deg_minus=2 total=3\n", "")

    def test_degree_json(self, capsys):
        _, out, _ = run_cli(capsys, "degree", "--tree", "0,1|2,2", "--json")
        assert json.loads(out) == {"deg_plus": 1, "deg_minus": 2, "total": 3}


class TestHasse:
    def test_edge_list(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "hasse", "--n", "4")
        lines = [ln.split("\t") for ln in out.strip().splitlines()]
        assert len(lines) == 5  # one line per covering relation
        for parent, child in lines:
            p, c = TreeShape.from_text(parent), TreeShape.from_text(child)
            assert p.n_internal == c.n_internal - 1
        dest = tmp_path / "edges.tsv"
        code, out, _ = run_cli(capsys, "hasse", "--n", "4", "--out", str(dest))
        assert code == 0 and out == ""
        assert len(dest.read_text().strip().splitlines()) == 5

    def test_lines_match_covers(self, capsys):
        code, out, _ = run_cli(capsys, "hasse", "--n", "6")
        expect = [
            f"{parent.to_text()}\t{child.to_text()}"
            for child in generate_all(6)
            for parent in sorted(covers(child))
        ]
        assert code == 0 and out.splitlines() == expect


class TestBoundsAndExact:
    def test_bounds_values(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--n", "5", "--json")
        data = json.loads(out)
        assert data["symmetric_lower"] == 1.25
        assert data["m_n"] == 5 and data["g_n"] == 15
        assert data["random_walk_lower"] == 2.0

    def test_bounds_exact_text_prints_plain_floats(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--n", "5", "--exact", "--json")
        exact = json.loads(out)["exact"]
        code, out, _ = run_cli(capsys, "bounds", "--n", "5", "--exact")
        assert code == 0
        assert out.splitlines()[-1] == f"exact: {exact!r}"
        assert "np.float64" not in out

    def test_exact_symmetric_at_three_tips(self, capsys):
        # Every shape at N = 3 has degree M_3 = 1: the symmetric chain is the walk.
        records = {}
        for chain in ("sym", "rw"):
            code, out, _ = run_cli(capsys, "exact", "--n", "3", "--chain", chain, "--json")
            assert code == 0
            records[chain] = json.loads(out)
        assert records["sym"].pop("chain") == "symmetric"
        assert records["rw"].pop("chain") == "random-walk"
        assert records["sym"] == records["rw"]

    def test_exact_random_walk(self, capsys):
        _, out, _ = run_cli(capsys, "exact", "--n", "4", "--chain", "rw", "--json")
        data = json.loads(out)
        assert data["n_shapes"] == 5
        assert data["stationarity_residual"] < 1e-12
        assert data["phi_star_exact"] == "1/2"
        assert data["diameter"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("exact", "--n", str(n), "--chain", chain, *lazy)
            for n in (4, 5, 6)
            for chain in ("rw", "sym")
            for lazy in ((), ("--lazy",))
        ]
        + [("bounds", "--n", str(n), "--exact") for n in (4, 5, 6)],
        ids=" ".join,
    )
    def test_json_output_is_strict_json(self, capsys, argv):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, _ = run_cli(capsys, *argv, "--json")
        data = json.loads(out, parse_constant=refuse)
        assert code == 0
        if argv[0] == "exact":
            # The covering graph is bipartite by K, so only the non-lazy
            # random walk is periodic, with an infinite relaxation time.
            periodic = argv[4] == "rw" and not data["lazy"]
            assert (data["t_rel"] is None) == periodic
            _, text, _ = run_cli(capsys, *argv)
            assert ("t_rel: inf" in text.splitlines()) == periodic

    def test_bounds_exact_beyond_subset_cap(self, capsys):
        # N = 6 has 54 shapes, past MAX_BOTTLENECK_VERTICES: no phi_star,
        # as in `exact`, but the gaps and the diameter are reported.
        code, out, err = run_cli(capsys, "bounds", "--n", "6", "--exact", "--json")
        assert (code, err) == (0, "")
        exact = json.loads(out)["exact"]
        assert exact["diameter"] == 7
        for kind in ("symmetric", "random-walk"):
            assert set(exact[kind]) == {"lazy_gamma", "lazy_t_rel"}
            assert 0 < exact[kind]["lazy_gamma"] < 1

    def test_exact_n9_exceeds_kernel_cap(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--n", "9", "--chain", "rw")
        assert code == 1 and out == ""
        assert f"cap is {MAX_KERNEL_BYTES // 10**6} MB" in err


# sha256 of `sample-uniform` stdout, taken when the chains still sent back
# shapes for the CLI to format; the same under --threads 1 and 2.
UNIFORM_DIGESTS = {
    ("--n", "20", "--chains", "19", "--steps", "1000", "--thin", "2", "--seed", "1234"):
        "f159243d26d30b3180b1d4930024db027e6c942755761df9fe472f38bf37b961",
}


# sha256 of `sample-coalescent` stdout, taken when each draw still ran its
# own loop over `rng.random(3 * n)`.
COALESCENT_DIGESTS = {
    ("--n", "20", "--count", "4000", "--seed", "7"):
        "c7632a8cdb1128d89058f7e46befdfb38ad873ea300884727d304df2e7f0692d",
    ("--n", "100", "--alpha", "0.5", "--count", "500", "--seed", "3"):
        "c3cdc9df065a26c0d2c4f462d921dbea41294d42c2feb37019b6e448c1e2b6f0",
    ("--n", "3", "--count", "5000", "--seed", "1"):
        "1b5066ae686eabdacaa69b187bd82451a2d68aa8a84fc1c7b17eb1fcf041caa1",
}


# sha256 of `semi-random` stdout, taken when each start still built its
# K x K F-matrix and decoded it.
SEMI_RANDOM_DIGESTS = {
    ("--n", "50", "--count", "500", "--seed", "3"):
        "b9ae35f745bd52c422b8b883cd7f88fd526bedbe1513327889bf2de5e1886066",
    ("--n", "300", "--k", "299", "--count", "20", "--seed", "4"):
        "c58c18475e915378f9ee535145cb25df7951f64073a35e9d13b8518281cc6e1f",
    ("--n", "2000", "--k", "1500", "--count", "3", "--seed", "5"):
        "6a88d230e6e46e6bdd976065b71d1ea29953d9d575d0290862abd0070d7eeda8",
}


@pytest.fixture
def samples_unread(monkeypatch):
    """``RunResult.samples`` raises: the CLI writes the chains' text lines
    without decoding them into shapes."""

    def refuse(self):
        raise AssertionError("RunResult.samples was read")

    monkeypatch.setattr(chains.RunResult, "samples", property(refuse))


class TestSampling:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("args", list(UNIFORM_DIGESTS), ids=["text-n20"])
    def test_uniform_stdout_is_pinned(self, capsys, samples_unread, args, threads):
        code, out, err = run_cli(capsys, "sample-uniform", *args, "--threads", threads)
        assert code == 0 and err.startswith("acceptance rates: ")
        assert hashlib.sha256(out.encode()).hexdigest() == UNIFORM_DIGESTS[args]

    def test_uniform_fewer_steps_than_thin_writes_nothing(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample-uniform", "--n", "7", "--chains", "3", "--steps", "2",
            "--thin", "5", "--seed", "3",
        )
        assert (code, out) == (0, "")

    def test_uniform_reproducible_and_thread_invariant(self, capsys):
        args = ["sample-uniform", "--n", "6", "--chains", "2", "--steps", "6", "--seed", "4"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        _, out3, _ = run_cli(capsys, *args, "--threads", "2")
        assert out1 == out2 == out3
        assert len(out1.strip().splitlines()) == 12
        for line in out1.strip().splitlines():
            assert TreeShape.from_text(line).n_tips == 6

    def test_uniform_n20_threads_match_serial(self, capsys):
        args = ["sample-uniform", "--n", "20", "--chains", "5", "--steps", "200",
                "--thin", "2", "--seed", "1234"]
        serial = run_cli(capsys, *args)
        assert serial[0] == 0 and serial[2].startswith("acceptance rates: ")
        assert run_cli(capsys, *args, "--threads", "2") == serial

    @pytest.mark.parametrize(
        "args", list(COALESCENT_DIGESTS), ids=["n20", "n100-alpha0.5", "n3"]
    )
    def test_coalescent_stdout_is_pinned(self, capsys, args):
        code, out, err = run_cli(capsys, "sample-coalescent", *args)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == COALESCENT_DIGESTS[args]

    def test_coalescent_streams(self, capsys, monkeypatch):
        # draws are made and written a chunk at a time, so a reader that
        # stops after the first line leaves the rest of the count undrawn
        def closed_pipe(line=""):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_emit", closed_pipe)
        argv = ["sample-coalescent", "--n", "20", "--count", str(10**9), "--seed", "1"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().out == ""
        assert peak < 4e6

    def test_coalescent_samples(self, capsys):
        args = ["sample-coalescent", "--n", "9", "--count", "5", "--seed", "11"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        shapes = [TreeShape.from_text(ln) for ln in out1.strip().splitlines()]
        assert len(shapes) == 5 and all(s.n_tips == 9 for s in shapes)

    def test_coalescent_default_is_alpha_one(self, capsys):
        args = ["sample-coalescent", "--n", "12", "--count", "20", "--seed", "3"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args, "--alpha", "1.0")
        assert out1 == out2

    def test_coalescent_alpha_alias(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample-coalescent", "--n", "6", "--alpha", "1.0",
            "--count", "3", "--seed", "2",
        )
        assert code == 0 and len(out.strip().splitlines()) == 3

    def test_semi_random(self, capsys):
        _, out, _ = run_cli(
            capsys, "semi-random", "--n", "7", "--k", "3", "--count", "4", "--seed", "6"
        )
        shapes = [TreeShape.from_text(ln) for ln in out.strip().splitlines()]
        assert all(s.n_internal == 3 and s.n_tips == 7 for s in shapes)

    @pytest.mark.parametrize(
        "args", list(SEMI_RANDOM_DIGESTS), ids=["k-cycle-n50", "n300-k299", "n2000-k1500"]
    )
    def test_semi_random_stdout_is_pinned(self, capsys, args):
        code, out, err = run_cli(capsys, "semi-random", *args)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == SEMI_RANDOM_DIGESTS[args]

    @pytest.mark.parametrize(
        "argv",
        [
            ["semi-random", "--n", "1", "--seed", "1"],
            ["sample-uniform", "--n", "1", "--chains", "2", "--steps", "3", "--seed", "1"],
        ],
    )
    def test_one_tip_is_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: n must be >= 2, got 1\n")

    @pytest.mark.parametrize("k", [[], ["--k", "3"]])
    def test_semi_random_streams(self, capsys, monkeypatch, k):
        # K is worked out per line, so a reader that stops after the first
        # line leaves no list of `count` values behind.
        star = TreeShape((0,), (7,))
        monkeypatch.setattr(cli, "semi_random_init", lambda n, k, rng: star)

        def closed_pipe(line=""):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_emit", closed_pipe)
        argv = ["semi-random", "--n", "7", "--count", "200000", "--seed", "1", *k]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().out == ""
        assert peak < 0.5e6

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_semi_random_count_must_be_positive(self, capsys, count):
        code, out, err = run_cli(
            capsys, "semi-random", "--n", "5", "--count", count, "--seed", "1"
        )
        assert (code, out, err) == (1, "", f"error: count must be positive, got {count}\n")

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample-coalescent", "--n", "6", "--count", "1"])
        assert exc.value.code == 2


class TestStats:
    def test_csv_and_summary(self, capsys, tmp_path):
        src = tmp_path / "shapes.txt"
        src.write_text("0|4\n0,1,2|1,1,2\n")
        summary_path = tmp_path / "summary.json"
        code, out, _ = run_cli(
            capsys, "stats", "--in", str(src), "--summary-out", str(summary_path)
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "n", "k", "max_block", "avg_block",
            "cherry_2", "cherry_3", "cherry_4", "cherry_5", "cherry_6",
        ]
        assert rows[1] == ["4", "1", "4", "4", "0", "0", "1", "0", "0"]
        assert rows[2][:4] == ["4", "3", "2", "2"]
        summary = json.loads(summary_path.read_text())
        assert summary["count"] == 2
        assert summary["mean_k"] == 2.0

    def test_json_only(self, capsys, tmp_path):
        src = tmp_path / "shapes.txt"
        src.write_text("0|4\n")
        _, out, _ = run_cli(capsys, "stats", "--in", str(src), "--json")
        assert json.loads(out)["median_k"] == 1

    def test_csv_peak_memory_is_near_the_summary_only_peak(self, tmp_path, monkeypatch):
        # CSV rows are written a block at a time from the sparse cherry
        # columns, with no record per shape (17.2 MB against 7.5 MB when
        # each shape had a dict of its cherry counts).
        class Discard:
            def write(self, text):
                return len(text)

        rng = np.random.Generator(np.random.PCG64(7))
        shapes = sample_topologies(20, BetaMeasure.from_alpha(1.0), 40_000, rng)
        src = tmp_path / "shapes.txt"
        src.write_text("".join(s.to_text() + "\n" for s in shapes))
        del shapes
        monkeypatch.setattr("sys.stdout", Discard())
        peaks = {}
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                assert main(["stats", "--in", str(src)] + ["--json"] * (fmt == "json")) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["csv"] < 1.15 * peaks["json"]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("0,1|2", "line 3: t and l must have equal length, got 2 and 1"),
            ("0|1", "line 3: S3: "),
            ("0|x", "line 3: expected an integer"),
            ('{"t": [0]}', "line 3: expected an object"),
        ],
    )
    def test_bad_line_is_named(self, capsys, tmp_path, bad, message):
        src = tmp_path / "shapes.txt"
        src.write_text(f"0|4\n\n{bad}\n0|4\n")
        code, out, err = run_cli(capsys, "stats", "--in", str(src))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "bad", ['{"t": "0", "l": "4"}', '{"t": 0, "l": [4]}', '{"t": [0.5], "l": [4]}']
    )
    def test_json_vectors_of_wrong_type(self, capsys, tmp_path, bad):
        src = tmp_path / "shapes.txt"
        src.write_text(f"0|4\n\n{bad}\n0|4\n")
        code, out, err = run_cli(capsys, "stats", "--in", str(src))
        assert code == 1 and out == ""
        assert err.startswith('error: line 3: "t" must be a list of integers')

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_cherry_below_one_is_refused(self, capsys, tmp_path, value):
        src = tmp_path / "shapes.txt"
        src.write_text("0|4\n")
        for fmt in ((), ("--json",)):
            code, out, err = run_cli(
                capsys, "stats", "--in", str(src), "--max-cherry", value, *fmt
            )
            assert (code, out, err) == (1, "", f"error: max-cherry must be >= 1, got {value}\n")

    @pytest.mark.parametrize("value", ["1001", "100000000"])
    def test_max_cherry_above_cap_is_refused(self, capsys, tmp_path, value):
        src = tmp_path / "shapes.txt"
        src.write_text("0|4\n")
        code, out, err = run_cli(capsys, "stats", "--in", str(src), "--max-cherry", value)
        assert (code, out, err) == (1, "", f"error: max-cherry must be <= 1000, got {value}\n")
        code, out, _ = run_cli(capsys, "stats", "--in", str(src), "--max-cherry", "1000")
        assert code == 0 and out.splitlines()[0].endswith(",cherry_999,cherry_1000")

    def test_empty_input(self, capsys, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("\n")
        code, _, err = run_cli(capsys, "stats", "--in", str(src))
        assert code == 1 and "error" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


# Every option each subcommand accepts (-h aside); a new flag must be added
# here on purpose.
OPTION_CENSUS = {
    None: ("--version",),
    "enumerate": ("--n", "--json"),
    "validate": ("--tree",),
    "convert": ("--tree", "--to"),
    "lub": ("--a", "--b", "--json"),
    "distance": ("--a", "--b", "--json"),
    "degree": ("--tree", "--json"),
    "hasse": ("--n", "--out"),
    "bounds": ("--n", "--exact", "--json"),
    "exact": ("--n", "--chain", "--lazy", "--json"),
    "sample-uniform": (
        "--n", "--chains", "--steps", "--thin", "--seed", "--threads",
    ),
    "sample-coalescent": ("--n", "--alpha", "--count", "--seed"),
    "semi-random": ("--n", "--k", "--count", "--seed"),
    "stats": ("--in", "--json", "--summary-out", "--max-cherry"),
}


def _options(parser):
    return tuple(
        opt
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        for opt in action.option_strings
    )


def test_option_census():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    census = {None: _options(parser)}
    census.update((name, _options(p)) for name, p in sub.choices.items())
    assert census == OPTION_CENSUS
    assert sum(map(len, census.values())) == 41


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--in", "{tmp}/missing.txt"],
        ["hasse", "--n", "4", "--out", "{tmp}/missing/dir/x"],
        ["lub", "--a", "{tmp}", "--b", "0|4"],
        ["hasse", "--n", "10"],
        ["bounds", "--n", "10", "--exact"],
        ["bounds", "--n", "151"],
        ["sample-uniform", "--n", "5", "--chains", "2", "--steps", "3",
         "--seed", "1", "--threads", "0"],
        ["sample-uniform", "--n", "5", "--chains", "2", "--steps", "3",
         "--seed", "1", "--threads", "-3"],
        ["sample-coalescent", "--n", "5", "--alpha", "inf", "--count", "1",
         "--seed", "1"],
        ["stats", "--in", "{tmp}/shapes.txt", "--max-cherry", "0"],
        ["stats", "--in", "{tmp}/shapes.txt", "--max-cherry", "-3"],
        ["stats", "--in", "{tmp}/shapes.txt", "--max-cherry", "1001"],
        ["convert", "--tree", f"0,1|{2**62},{2**62}", "--to", "fmatrix"],
        ["lub", "--a", f"0,1|{2**62},{2**62}", "--b", f"0,1|{2**62 - 1},{2**62 + 1}"],
        ["distance", "--a", f"0,1|{2**62},{2**62}", "--b", f"0|{2**63}"],
        ["semi-random", "--n", str(2**63 - 1), "--k", "2", "--seed", "1"],
        ["semi-random", "--n", str(2**63), "--seed", "1"],
        ["sample-uniform", "--n", str(2**63), "--chains", "1", "--steps", "1", "--seed", "1"],
        ["sample-uniform", "--n", "10001", "--chains", "1", "--steps", "1", "--seed", "1"],
    ],
    ids=[
        "stats-missing-file", "hasse-missing-dir", "lub-directory", "hasse-n10",
        "bounds-n10-exact", "bounds-past-count-cap", "threads-0", "threads-negative", "alpha-inf",
        "max-cherry-0", "max-cherry-negative", "max-cherry-past-cap",
        "fmatrix-past-int64", "lub-past-int64", "distance-past-int64",
        "semi-random-wraps-int64", "semi-random-past-int64", "sample-uniform-past-int64",
        "sample-uniform-past-chain-cap",
    ],
)
def test_error_contract(capsys, tmp_path, argv):
    (tmp_path / "shapes.txt").write_text("0|4\n")  # a readable input for stats
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
