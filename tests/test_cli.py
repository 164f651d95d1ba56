import json
import subprocess
import sys

import pytest

from tracelab import family_from_text, family_to_text
from tracelab.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    lines = [ln for ln in stdout.strip().splitlines() if ln.strip()]
    return json.loads(lines[-1])


class TestConstruct:
    def test_partite_reports_formula(self, capsys, tmp_path):
        out_file = tmp_path / "f.json"
        code, out, _ = run_cli(capsys, "construct", "partite", "--n", "12", "--l", "3", "--out", str(out_file))
        assert code == 0
        obj = last_json(out)
        assert obj["size"] == 125 and obj["formula"] == 125
        data = json.loads(out_file.read_text())
        assert len(data["sets"]) == 125

    def test_turan(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "turan", "--r", "3", "--n", "6")
        assert code == 0
        assert last_json(out)["size"] == 12

    def test_special6(self, capsys, tmp_path):
        out_file = tmp_path / "s6.json"
        code, out, _ = run_cli(capsys, "construct", "special6", "--out", str(out_file))
        assert code == 0
        obj = json.loads(out_file.read_text())
        assert len(obj["g2"]) == 12 and len(obj["g3"]) == 4

    def test_downclosure(self, capsys, tmp_path):
        src = tmp_path / "gen.txt"
        src.write_text("n=3\n1,2,3\n")
        code, out, _ = run_cli(capsys, "construct", "downclosure", "--input", str(src))
        assert code == 0
        assert last_json(out)["size"] == 8

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "construct", "partite", "--n", "5")
        assert code == 2
        assert "error" in err

    def test_text_roundtrip_byte_exact(self, capsys, tmp_path):
        out_file = tmp_path / "fam.txt"
        run_cli(capsys, "construct", "partite", "--n", "6", "--l", "2", "--out", str(out_file))
        first = out_file.read_text()
        fam = family_from_text(first)
        assert family_to_text(fam) == first


class TestCheck:
    def test_no_arrow_exit_0(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        run_cli(capsys, "construct", "partite", "--n", "12", "--l", "3", "--out", str(f))
        code, out, _ = run_cli(capsys, "check", str(f), "--a", "4", "--b", "13")
        assert code == 0
        obj = last_json(out)
        assert obj["max_trace"] == 12 and obj["arrow"] is False

    def test_arrow_exit_1(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        lines = ["n=4"] + ["-"] + [
            ",".join(str(e + 1) for e in range(4) if m >> e & 1) for m in range(1, 16)
        ]
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "check", str(f), "--a", "4", "--b", "13")
        assert code == 1
        assert last_json(out)["arrow"] is True

    def test_tilde_file_is_lifted(self, capsys, tmp_path):
        f = tmp_path / "s6.json"
        run_cli(capsys, "construct", "special6", "--out", str(f))
        code, out, _ = run_cli(capsys, "check", str(f), "--a", "4", "--b", "12")
        assert code == 0
        obj = last_json(out)
        assert obj["size"] == 23 and obj["max_trace"] == 11

    def test_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("not a family\n")
        code, _, err = run_cli(capsys, "check", str(f), "--a", "3", "--b", "7")
        assert code == 2 and "error" in err


class TestSearch:
    def test_downset_search(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "4", "--a", "3", "--b", "7")
        assert code == 0
        obj = last_json(out)
        assert obj["optimum"] == 9 and obj["proved_optimal"] is True
        assert "manifest" in obj and obj["manifest"]["version"]

    def test_tilde_search(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "6", "--mode", "tilde", "--c", "7")
        assert code == 0
        assert last_json(out)["optimum"] == 16

    def test_antichain_search(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "4", "--mode", "antichain", "--k", "2")
        assert code == 0
        assert last_json(out)["optimum"] == 6

    def test_query_file(self, capsys, tmp_path):
        qf = tmp_path / "q.json"
        qf.write_text(json.dumps({"n": 5, "a": 2, "b": 4}))
        code, out, _ = run_cli(capsys, "search", "--query", str(qf))
        assert code == 0
        obj = last_json(out)
        assert obj["optimum"] == 6
        assert str(qf) in obj["manifest"]["inputs"]

    @pytest.mark.parametrize(
        "query",
        [
            [1, 2],
            "x",
            {"n": 5, "a": 3, "b": 7, "use_symmetry": False},
            {"n": 5, "a": 3, "b": 7, "threads": 2},
            {"n": 6, "mode": "tilde-complete", "c": 5, "k": 2},
            {"n": 5, "mode": "bogus", "b": 7},
        ],
    )
    def test_bad_query_file_exit_2(self, capsys, tmp_path, query):
        # not an object, a key to_json_obj never emits, or an unknown mode
        qf = tmp_path / "q.json"
        qf.write_text(json.dumps(query))
        code, out, err = run_cli(capsys, "search", "--query", str(qf))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_budget_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n", "7", "--a", "4", "--b", "13", "--budget-nodes", "30"
        )
        assert code == 3
        assert last_json(out)["proved_optimal"] is False

    def test_manifest_reproducible(self, capsys):
        _, out1, _ = run_cli(capsys, "search", "--n", "5", "--a", "3", "--b", "7")
        _, out2, _ = run_cli(capsys, "search", "--n", "5", "--a", "3", "--b", "7")
        d1 = last_json(out1)
        d2 = last_json(out2)
        assert d1["manifest"]["result_digest"] == d2["manifest"]["result_digest"]
        assert d1["witness"] == d2["witness"]


class TestVerifyTable:
    def test_small_rows_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-table", "--rows", "1,2,3,5", "--n-min", "5", "--n-max", "5"
        )
        assert code == 0
        rows = last_json(out)["rows"]
        assert all(r["status"] == "PASS" for r in rows)

    def test_row8_out_of_range_is_not_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-table", "--rows", "8", "--n-min", "5", "--n-max", "5"
        )
        assert code == 0
        rows = last_json(out)["rows"]
        assert rows[0]["status"] == "formula-out-of-range"
        assert rows[0]["searched"] >= 1

    def test_pretty_renders_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-table", "--rows", "1,2", "--n-min", "5", "--n-max", "5", "--pretty"
        )
        assert code == 0
        assert "status" in out and "PASS" in out

    def test_bad_rows_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify-table", "--rows", "4,9")
        assert code == 2


class TestTransformCommands:
    def test_reduce(self, capsys, tmp_path):
        f = tmp_path / "fam.txt"
        f.write_text("n=3\n1,2,3\n")
        code, out, _ = run_cli(capsys, "reduce", str(f))
        assert code == 0
        obj = last_json(out)
        assert obj["size"] == 1 and obj["reduced_size"] == 1 and obj["is_downset"]

    def test_symmetrize(self, capsys, tmp_path):
        f = tmp_path / "fam.txt"
        f.write_text("n=3\n-\n1\n2\n3\n1,3\n")
        code, out, _ = run_cli(capsys, "symmetrize", str(f), "--x", "1", "--y", "2", "--profitable")
        assert code == 0
        assert last_json(out)["new_size"] == 6

    def test_partition(self, capsys, tmp_path):
        f = tmp_path / "fam.json"
        run_cli(capsys, "construct", "partite", "--n", "6", "--l", "3", "--out", str(f))
        code, out, _ = run_cli(capsys, "partition", str(f))
        assert code == 0
        obj = last_json(out)
        assert obj["r"] == 3 and obj["classes"] == [[1, 2], [3, 4], [5, 6]]
        assert obj["aux_triples_linear"] is True


class TestCancellativeCommands:
    def test_search(self, capsys):
        code, out, _ = run_cli(capsys, "cancellative", "--n", "6", "--l", "3")
        assert code == 0
        assert last_json(out)["optimum"] == 8

    def test_check_mode(self, capsys, tmp_path):
        f = tmp_path / "h.txt"
        f.write_text("n=5\n1,2,3\n1,2,4\n3,4,5\n")
        code, out, _ = run_cli(capsys, "cancellative", "--check", str(f), "--l", "3")
        assert code == 0
        obj = last_json(out)
        assert obj["cancellative"] is False
        assert obj["witness"] == [[1, 2, 3], [1, 2, 4], [3, 4, 5]]

    def test_ex3_labels_computed_values(self, capsys):
        code, out, _ = run_cli(capsys, "ex3", "--n", "5", "--pattern", "k4")
        assert code == 0
        obj = last_json(out)
        assert obj["optimum"] == 7 and obj["computed_value"] is True

    def test_crosscheck(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "5", "--c", "2")
        assert code == 0
        assert last_json(out)["identity_holds"] is True


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tracelab.cli", "search", "--n", "4", "--a", "2", "--b", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip().splitlines()[-1])["optimum"] == 5

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tracelab.cli", "construct", "bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


class TestVerifyTableRows67:
    def test_three_part_and_pair_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-table", "--rows", "6,7", "--n-min", "5", "--n-max", "6"
        )
        assert code == 0
        rows = {(r["c"], r["n"]): r for r in last_json(out)["rows"]}
        assert rows[(6, 5)]["formula"] == 9           # t(3,5) + 1
        assert rows[(7, 6)]["searched"] == 17         # the six-vertex exception
        assert all(r["status"] == "PASS" for r in rows.values())
