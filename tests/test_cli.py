"""Command-line surface: formats, exit codes, and reproducibility."""

import csv
import io
import json

import pytest

from mtshapes import TreeShape, count_space
from mtshapes.cli import main


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


class TestConvert:
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


class TestDistanceAndDegree:
    def test_distance(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--a", "0,1|2,2", "--b", "0|4")
        assert code == 0 and out.strip() == "1"

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


class TestBoundsAndExact:
    def test_bounds_values(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--n", "5", "--json")
        data = json.loads(out)
        assert data["symmetric_lower"] == 1.25
        assert data["m_n"] == 5 and data["g_n"] == 15
        assert data["random_walk_lower"] == 2.0

    def test_exact_random_walk(self, capsys):
        _, out, _ = run_cli(capsys, "exact", "--n", "4", "--chain", "rw", "--json")
        data = json.loads(out)
        assert data["n_shapes"] == 5
        assert data["stationarity_residual"] < 1e-12
        assert data["phi_star_exact"] == "1/2"
        assert data["diameter"] == 3


class TestSampling:
    def test_uniform_reproducible_and_thread_invariant(self, capsys):
        args = ["sample-uniform", "--n", "6", "--chains", "2", "--steps", "6", "--seed", "4"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        _, out3, _ = run_cli(capsys, *args, "--threads", "2")
        assert out1 == out2 == out3
        assert len(out1.strip().splitlines()) == 12
        for line in out1.strip().splitlines():
            assert TreeShape.from_text(line).n_tips == 6

    def test_uniform_jsonl(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sample-uniform", "--n", "5", "--chains", "1", "--steps", "4",
            "--thin", "2", "--seed", "0", "--jsonl",
        )
        records = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [r["step"] for r in records] == [2, 4]
        assert all(r["chain"] == 0 for r in records)

    def test_coalescent_samples(self, capsys):
        args = ["sample-coalescent", "--n", "9", "--count", "5", "--seed", "11"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        shapes = [TreeShape.from_text(ln) for ln in out1.strip().splitlines()]
        assert len(shapes) == 5 and all(s.n_tips == 9 for s in shapes)

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
