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

    @pytest.mark.parametrize(
        "args", [("partite", "--n", "6", "--l", "2"), ("special6",)], ids=["partite", "special6"]
    )
    def test_out_into_missing_dir_exit_2(self, capsys, tmp_path, args):
        out_file = tmp_path / "no_such_dir" / "f.json"
        code, out, err = run_cli(capsys, "construct", *args, "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: cannot write") and "Traceback" not in err
        assert out == "" and not out_file.exists()


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

    @pytest.mark.parametrize("b", ["0", "-3"])
    def test_trace_target_below_1_exit_2(self, capsys, tmp_path, b):
        f = tmp_path / "f.txt"
        f.write_text("n=3\n-\n1\n")
        code, out, err = run_cli(capsys, "check", str(f), "--a", "2", "--b", b)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "sets": [[1.5]]}',
            '{"n": 3, "sets": [["1"]]}',
            '{"n": 3, "sets": 5}',
            '{"n": 3, "g2": [[1, 2], [1, 3], [2, 3]], "g3": [[1.0, 2, 3]]}',
            '{"n": 6.9, "sets": [[1]]}',
            '{"n": true, "sets": [[1]]}',
            '{"n": 3, "sets": [1]}',
            '{"n": 3, "g2": {}, "g3": []}',
        ],
        ids=["float-elem", "str-elem", "sets-int", "float-g3-elem", "float-n", "bool-n",
             "int-member", "g2-object"],
    )
    def test_malformed_family_json_exit_2(self, capsys, tmp_path, text):
        # only JSON integers count as n and as elements, and only lists as
        # families and members; nothing is converted
        f = tmp_path / "fam.json"
        f.write_text(text)
        code, out, err = run_cli(capsys, "check", str(f), "--a", "1", "--b", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:")


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
            {"mode": "antichain", "n": 5, "k": 2, "a": 9, "b": 1},
            {"mode": "antichain", "n": 5, "k": 2, "b": 1},
            {"mode": "antichain", "n": 5, "k": 2, "a": 3, "b": 8.0},
            {"mode": "tilde-complete", "n": 6, "b": 7},
            {"mode": "tilde-complete", "n": 6, "c": 7, "a": 3},
            {"mode": "tilde-complete", "n": 6, "c": 7, "b": 7},
        ],
    )
    def test_bad_query_file_exit_2(self, capsys, tmp_path, query):
        # not an object, a key to_json_obj never emits, an unknown mode, or
        # an a/b that the mode would ignore
        qf = tmp_path / "q.json"
        qf.write_text(json.dumps(query))
        code, out, err = run_cli(capsys, "search", "--query", str(qf))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", 6.9),
            ("n", "6"),
            ("a", 4.0),
            ("b", True),
            ("budget_nodes", 10.7),
            ("budget_nodes", "10"),
            ("budget_secs", "5"),
            ("budget_secs", False),
            ("n", None),
        ],
    )
    def test_non_integer_query_value_exit_2(self, capsys, tmp_path, key, value):
        # no coercion: integers must be JSON integers, budget_secs a JSON number
        qf = tmp_path / "q.json"
        qf.write_text(json.dumps({"n": 6, "a": 4, "b": 13, key: value}))
        code, out, err = run_cli(capsys, "search", "--query", str(qf))
        assert code == 2 and out == ""
        assert err.startswith("error:") and repr(key) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "query",
        [
            {"mode": "tilde-complete", "n": 6, "c": 7},
            {"mode": "antichain", "n": 4, "k": 2},
            {"n": 4, "a": 3, "b": 7},
        ],
        ids=["tilde", "antichain", "downset"],
    )
    def test_emitted_query_file_accepted(self, capsys, tmp_path, query):
        # the query object a search prints runs again as a query file
        qf = tmp_path / "q.json"
        qf.write_text(json.dumps(query))
        code, out, _ = run_cli(capsys, "search", "--query", str(qf))
        first = last_json(out)
        qf.write_text(json.dumps(first["query"]))
        code2, out2, _ = run_cli(capsys, "search", "--query", str(qf))
        assert code == code2 == 0
        assert last_json(out2)["optimum"] == first["optimum"]

    def test_negative_k_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "search", "--mode", "antichain", "--n", "5", "--k", "-3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_budget_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n", "7", "--a", "4", "--b", "13", "--budget-nodes", "30"
        )
        assert code == 3
        assert last_json(out)["proved_optimal"] is False

    @pytest.mark.parametrize(
        "flags, query",
        [
            (["--budget-nodes", "-5"], None),
            (["--budget-secs", "-1"], None),
            (["--budget-secs", "inf"], None),
            (["--budget-secs", "nan"], None),
            ([], {"budget_secs": "nan"}),
            ([], {"budget_secs": "inf"}),
            ([], {"budget_nodes": -1}),
            ([], {"budget_secs": 10**400}),
        ],
    )
    def test_bad_budget_exit_2(self, capsys, tmp_path, flags, query):
        # budgets must be finite and >= 0, from a flag or a query file
        args = ["search", *flags]
        if query is None:
            args += ["--n", "5", "--a", "4", "--b", "13"]
        else:
            qf = tmp_path / "q.json"
            qf.write_text(json.dumps({"n": 5, "a": 4, "b": 13, **query}))
            args += ["--query", str(qf)]
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget" in err and "Traceback" not in err

    def test_query_file_budgets_hold(self, capsys, tmp_path):
        # a query file's budgets apply unless a budget flag is given
        qf = tmp_path / "q.json"
        qf.write_text(json.dumps({"n": 7, "a": 4, "b": 13, "budget_nodes": 30}))
        code, out, _ = run_cli(capsys, "search", "--query", str(qf))
        obj = last_json(out)
        assert code == 3 and obj["proved_optimal"] is False
        assert obj["manifest"]["budgets"]["nodes"] == 30 and obj["nodes"] <= 31
        code, out, _ = run_cli(capsys, "search", "--query", str(qf), "--budget-nodes", "20")
        obj = last_json(out)
        assert code == 3
        assert obj["manifest"]["budgets"]["nodes"] == 20 and obj["nodes"] <= 21

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
            capsys, "verify-table", "--rows", "1,2,3,5,8", "--n-min", "5", "--n-max", "5"
        )
        assert code == 0
        rows = last_json(out)["rows"]
        assert [r["c"] for r in rows] == [1, 2, 3, 5, 8]
        assert all(r["status"] == "PASS" for r in rows)

    def test_pretty_renders_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-table", "--rows", "1,2", "--n-min", "5", "--n-max", "5", "--pretty"
        )
        assert code == 0
        assert "status" in out and "PASS" in out

    def test_bad_rows_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify-table", "--rows", "4,9")
        assert code == 2

    def test_non_integer_rows_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify-table", "--rows", "1,x")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""


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

    @pytest.mark.parametrize("profitable", [(), ("--profitable",)], ids=["plain", "profitable"])
    @pytest.mark.parametrize("x, y", [("0", "2"), ("2", "4")])
    def test_symmetrize_element_out_of_range_exit_2(self, capsys, tmp_path, profitable, x, y):
        f = tmp_path / "fam.txt"
        f.write_text("n=3\n-\n1\n2\n3\n1,3\n")
        code, out, err = run_cli(capsys, "symmetrize", str(f), "--x", x, "--y", y, *profitable)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "outside ground set" in err

    @pytest.mark.parametrize(
        "cmd", [("reduce",), ("symmetrize", "--x", "1", "--y", "2")], ids=["reduce", "symmetrize"]
    )
    def test_out_into_missing_dir_exit_2(self, capsys, tmp_path, cmd):
        f = tmp_path / "fam.txt"
        f.write_text("n=3\n-\n1\n2\n1,2\n")
        out_file = tmp_path / "no_such_dir" / "out.txt"
        code, _, err = run_cli(capsys, cmd[0], str(f), *cmd[1:], "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: cannot write")

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

    @pytest.mark.parametrize("args", [("cancellative", "--l", "2"), ("ex3",)], ids=["cancellative", "ex3"])
    def test_n_past_ground_cap_exit_2(self, capsys, args):
        # the commands have no cap of their own: the library's search cap
        # (n <= 20) refuses n = 21 before any state is built
        code, out, err = run_cli(capsys, *args, "--n", "21")
        assert code == 2
        assert err.startswith("error:") and "n <= 20" in err and "Traceback" not in err
        assert out == ""

    def test_crosscheck(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "5", "--c", "2")
        assert code == 0
        assert last_json(out)["identity_holds"] is True


@pytest.mark.parametrize(
    "args",
    [
        ["search", "--n", "4", "--a", "3", "--b", "7", "--out", "w.json"],
        ["check", "F", "--a", "4", "--b", "13", "--budget-nodes", "5"],
        ["partition", "F", "--out", "x"],
    ],
    ids=["search-out", "check-budget", "partition-out"],
)
def test_unread_flag_rejected(capsys, tmp_path, monkeypatch, args):
    # each subcommand accepts only the flags it reads
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("n=4\n-\n1\n2\n1,2\n")
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]


_DEEP = b"[" * 200_000 + b"]" * 200_000  # nested past the JSON parser's recursion limit


@pytest.mark.parametrize(
    "data",
    [
        b'{"n": 3, "sets": [[1], [\xff]]}',
        b'{"n": 3, "sets": ' + _DEEP + b"}",
        b'{"n": 3, "g2": ' + _DEEP + b', "g3": []}',
    ],
    ids=["non-utf8", "deep-family-json", "deep-pair-triple-json"],
)
@pytest.mark.parametrize(
    "args",
    [
        ["check", "F", "--a", "2", "--b", "2"],
        ["reduce", "F"],
        ["symmetrize", "F", "--x", "1", "--y", "2"],
        ["partition", "F"],
        ["cancellative", "--check", "F", "--l", "2"],
        ["construct", "downclosure", "--input", "F"],
        ["search", "--query", "F"],
    ],
    ids=["check", "reduce", "symmetrize", "partition", "cancellative-check",
         "construct-downclosure", "search-query"],
)
def test_bad_input_file_exit_2(capsys, tmp_path, monkeypatch, args, data):
    # an unreadable file is a parse error (exit 2), never a traceback; for
    # check, exit 1 would read as "arrow holds"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_bytes(data)
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--n-min", "3"],
        ["--n-min", "4"],
        ["--n-min", "21", "--n-max", "22"],
        ["--n-max", "21"],
        ["--rows", "1", "--n-min", "17", "--n-max", "21"],
        ["--rows", "8", "--n-min", "5", "--n-max", "21"],
    ],
    ids=["n-min-3", "n-min-4", "n-min-21", "n-max-21", "past-search-cap", "row-8"],
)
def test_verify_table_checks_range_before_searching(capsys, monkeypatch, flags):
    # an n outside the search's or the formula table's range is refused
    # before the first search runs: no search, no output.  Row 8 verifies
    # at n <= 20, but an n = 21 in its range still stops the whole run.
    def no_search(q):
        raise AssertionError(f"searched n={q.n}, c={q.c} before checking the range")

    monkeypatch.setattr("tracelab.cli.max_tilde", no_search)
    code, out, err = run_cli(capsys, "verify-table", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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


_TILDE_QUERY = {"mode": "tilde-complete", "n": 6, "c": 7}


@pytest.mark.parametrize(
    "args, flag",
    [
        (["search", "--query", "q.json", "--n", "9", "--c", "3"], None),
        (["search", "--query", "q.json", "--mode", "tilde"], None),
        (["search"], "--n"),
        (["search", "--mode", "tilde", "--n", "6", "--c", "7", "--a", "3"], "--a"),
        (["search", "--n", "5", "--a", "3", "--b", "7", "--k", "2"], "--k"),
        (["search", "--mode", "antichain", "--n", "5", "--k", "2", "--c", "5"], "--c"),
        (["search", "--mode", "antichain", "--n", "5", "--k", "2", "--b", "7"], "--b"),
        (["construct", "partite", "--n", "6", "--l", "3", "--r", "2", "--out", "f.json"], None),
        (["construct", "special6", "--n", "9", "--out", "s.json"], None),
        (["construct", "downclosure", "--input", "G.txt", "--n", "4", "--out", "d.json"], None),
        (["cancellative", "--check", "G.txt", "--l", "2", "--n", "9"], None),
        (["cancellative", "--check", "G.txt", "--l", "2", "--budget-nodes", "3"], None),
        (["cancellative", "--check", "G.txt", "--l", "2", "--budget-secs", "1"], None),
        (["verify-table", "--rows", ","], None),
        (["verify-table", "--rows", "1", "--n-min", "7", "--n-max", "6"], None),
    ],
    ids=[
        "search-query-and-flags", "search-query-and-mode", "search-no-flags", "search-tilde-a",
        "search-downset-k", "search-antichain-c", "search-antichain-b", "construct-partite-r",
        "construct-special6-n", "construct-downclosure-n", "cancellative-check-n",
        "cancellative-check-budget-nodes", "cancellative-check-budget-secs",
        "verify-table-no-rows", "verify-table-empty-n-range",
    ],
)
def test_unread_or_empty_command_line_exit_2(capsys, tmp_path, monkeypatch, args, flag):
    # a flag the command (in its mode or kind) does not read, or a command
    # line that leaves nothing to do, is a usage error: no output, no file.
    # A search run from flags names the flag at fault.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps(_TILDE_QUERY))
    (tmp_path / "G.txt").write_text("n=4\n1,2\n2,3\n")
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    if flag is not None:
        assert flag in err.replace(",", " ").split(), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["G.txt", "q.json"]


@pytest.mark.parametrize(
    "flags, query",
    [
        (["--n", "5", "--a", "3", "--b", "7"], {"n": 5, "a": 3, "b": 7}),
        (["--mode", "downset", "--n", "5", "--b", "13"], {"n": 5, "b": 13}),
        (["--mode", "tilde", "--n", "6", "--c", "7"], _TILDE_QUERY),
        (["--mode", "antichain", "--n", "4", "--k", "2"], {"mode": "antichain", "n": 4, "k": 2}),
    ],
    ids=["downset", "downset-default-a", "tilde", "antichain"],
)
def test_search_flags_match_query_file(capsys, tmp_path, flags, query):
    # flags and a query file holding the same keys run the same search
    # (a down-set query that leaves out a gets the file's default, 4)
    qf = tmp_path / "q.json"
    qf.write_text(json.dumps(query))
    code_f, out_f, _ = run_cli(capsys, "search", *flags)
    code_q, out_q, _ = run_cli(capsys, "search", "--query", str(qf))
    by_flags, by_file = last_json(out_f), last_json(out_q)
    assert code_f == code_q == 0
    for key in ("query", "optimum", "nodes"):
        assert by_flags[key] == by_file[key]
    assert by_flags["manifest"]["result_digest"] == by_file["manifest"]["result_digest"]


@pytest.mark.parametrize(
    "query, key",
    [
        ({"n": 5, "b": 7, "c": 3}, "c"),
        ({"n": 5, "b": 7, "k": 2}, "k"),
        ({"mode": "tilde-complete", "n": 6, "c": 7, "b": 7}, "b"),
        ({"mode": "tilde-complete", "n": 6, "c": 7, "k": 2}, "k"),
        ({"mode": "tilde-complete", "n": 6, "c": 7, "a": 3}, "a"),
        ({"mode": "antichain", "n": 5, "k": 2, "c": 5}, "c"),
        ({"mode": "antichain", "n": 5, "k": 2, "b": 7}, "b"),
        ({"a": 3, "b": 7}, "n"),
    ],
    ids=["downset-c", "downset-k", "tilde-b", "tilde-k", "tilde-a-3", "antichain-c",
         "antichain-b-7", "missing-n"],
)
def test_search_flags_and_query_file_refuse_alike(capsys, tmp_path, query, key):
    # one parser reads both: the same keys are refused with the same error,
    # which names the flag on the command line and the key in a file
    qf = tmp_path / "q.json"
    qf.write_text(json.dumps(query))
    flags = [tok for k, v in query.items() for tok in ("--" + k, str(v))]
    code_f, out_f, err_f = run_cli(capsys, "search", *flags)
    code_q, out_q, err_q = run_cli(capsys, "search", "--query", str(qf))
    assert code_f == code_q == 2 and out_f == out_q == ""
    assert err_f.startswith("error:") and err_q.startswith("error:")
    assert "--" + key in err_f.replace(",", " ").split(), err_f
    assert repr(key) in err_q, err_q
    assert err_f.replace("--" + key, repr(key)) == err_q


@pytest.mark.parametrize(
    "args, digest",
    [
        (["search", "--n", "5", "--a", "3", "--b", "7"],
         "25999186b895a20a98c4d70722b3c859d6ce5e29e52a6908154b23b9f64ec0ce"),
        (["search", "--mode", "tilde", "--n", "6", "--c", "7"],
         "f0760df54f3269c9102124b967d4cf2b7a0dddff71b49c68cbeecd34ca8ada70"),
        (["search", "--mode", "antichain", "--n", "4", "--k", "1"],
         "e7070954c0f5c1a7c7f5cf00d911d69bd7238629b9d8fef275115fdfd654edb5"),
        (["cancellative", "--n", "6", "--l", "3"],
         "8a4578707c6c64347ec4c9cc5db90fe1973cde3cdc00712c79ad98b1f7396108"),
        (["ex3", "--n", "6"],
         "1577ce2c8ca772973f9fd8be5c6dc39c356b3cfa21dfe083cb9b9a03b28fd997"),
        (["crosscheck", "--n", "6", "--c", "7"],
         "b9007177c559b92d1ecf4114fe0791423d7e151e1c2a2bc5b94fccbf2e7b862f"),
        (["verify-table", "--rows", "1,2,3", "--n-min", "5", "--n-max", "5"],
         "dd816902ed184b586b886d9ca492e5de15eafa5a55ed9b0d4b89bf9534d91346"),
    ],
    ids=["downset", "tilde", "antichain", "cancellative", "ex3", "crosscheck", "verify-table"],
)
def test_result_digest_pinned(capsys, args, digest):
    # the stable result content of each search-backed command (re-pinned
    # when every search level began from its seed, which changed the node
    # counts and, where the search finds nothing larger, the witness, and
    # again when the bounded states began to branch at a least-degree
    # vertex, which changed the down-set and cancellative node counts, and
    # when tilde and then antichain gained the vertex-deletion bound, which
    # changed their node counts, and when the down-set search dropped its
    # link sub-query, which changed its node count); a change here changes
    # what a recorded run manifest reproduces
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert last_json(out)["manifest"]["result_digest"] == digest
