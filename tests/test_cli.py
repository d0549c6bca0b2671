import json
import os
import subprocess
import sys

import pytest

from cubeturan.cli import build_parser
from cubeturan.core import MAX_WHOLE_CUBE_N

CMD = [sys.executable, "-m", "cubeturan"]


def run_cli(*args, cwd=None):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, cwd=cwd)


def test_count_c6_q3():
    proc = run_cli("count", "--n", "3", "--pattern", "c6")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["count"] == "16"
    assert blob["method"] == "closed-form"
    assert blob["density"] == {"num": "1", "den": "1"}


def test_construct_then_verify(tmp_path):
    out = tmp_path / "g.cube"
    proc = run_cli("construct", "conder", "--n", "3", "--out", str(out))
    assert proc.returncode == 0
    sidecar = json.loads(proc.stdout)
    assert sidecar["construction"] == "conder"
    assert sidecar["edge_count"] == 4
    assert sidecar["claimed_free_of"] == "c6"
    assert json.loads((tmp_path / "g.cube.json").read_text()) == sidecar

    check = run_cli("verify", "--forbid", "c6", str(out))
    assert check.returncode == 0
    assert json.loads(check.stdout)["free"] is True


def test_construct_refuses_a_parameter_its_kind_does_not_read(tmp_path):
    out = tmp_path / "g.cube"
    for argv in (("even-odd", "--n", "3", "--j", "1", "--complement"),
                 ("conder", "--n", "4", "--k", "3", "--m", "9")):
        proc = run_cli("construct", *argv, "--out", str(out))
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "BadRange"
        assert not out.exists() and not (tmp_path / "g.cube.json").exists()


def test_verify_of_a_subcube_larger_than_the_cube_says_free(tmp_path):
    out = tmp_path / "q3.cube"
    assert run_cli("construct", "qm-packing", "--n", "3", "--m", "3", "--out", str(out)).returncode == 0
    proc = run_cli("verify", "--forbid", "q4", str(out))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"forbid": "q4", "free": True, "witness": None,
                                       "checked_count": 0}


@pytest.mark.parametrize("verb", ["zwords", "construct", "verify", "search", "density",
                                  "kpartite", "count", "zl", "bounds"])
def test_only_the_verbs_that_read_z_take_a_z_cache(verb):
    sub = next(a for a in build_parser()._actions if a.dest == "verb").choices[verb]
    flags = {flag for action in sub._actions for flag in action.option_strings}
    assert ("--z-cache" in flags) == (verb in ("count", "zl", "bounds"))
    assert "--threads" in flags  # every verb takes it, whether or not it reads it


#: (forbidden pattern, witness JSON, stderr summary) of verify on all of Q_3
Q3_WITNESSES = [
    ("q2", {"type": "subcube", "cells": "**0"}, "q2 found: **0\n"),
    ("c4", {"type": "cycle", "length": 4, "vertices": [0, 1, 3, 2]}, "c4 found: 0 1 3 2\n"),
    ("e", {"type": "subcube", "cells": "*00"}, "e found: *00\n"),
]


def _full_q3(tmp_path):
    out = tmp_path / "full.cube"
    proc = run_cli("construct", "qm-packing", "--n", "3", "--m", "3", "--out", str(out))
    assert proc.returncode == 0  # that is all of Q_3
    return out


def test_verify_finds_witness(tmp_path):
    out = _full_q3(tmp_path)
    for forbid, witness, summary in Q3_WITNESSES:
        check = run_cli("verify", "--forbid", forbid, str(out))
        assert check.returncode == 1
        blob = json.loads(check.stdout)
        assert blob["free"] is False
        assert blob["witness"] == witness
        assert check.stderr == summary


def test_search_paper_value(tmp_path):
    witness = tmp_path / "w.cube"
    proc = run_cli("search", "--n", "3", "--target", "e", "--forbid", "c4",
                   "--witness-out", str(witness))
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["value"] == "9"
    assert witness.exists()
    check = run_cli("verify", "--forbid", "c4", str(witness))
    assert check.returncode == 0


def test_density_output():
    proc = run_cli("density", "--n", "3", "--target", "c6", "--forbid", "c4")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["density"] == {"num": "3", "den": "16"}


def test_zl_and_zwords(tmp_path):
    proc = run_cli("zl", "--l", "3", "--z-cache", str(tmp_path / "z.cache"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "16"
    proc = run_cli("zl", "--l", "4", "--method", "words")
    assert json.loads(proc.stdout)["value"] == "648"
    proc = run_cli("zwords", "--l", "2")
    blob = json.loads(proc.stdout)
    assert blob["count"] == "2"
    assert blob["words"] == [[1, 2, 1, 2], [2, 1, 2, 1]]


def test_the_z_cache_is_a_file_only_when_the_option_names_it(tmp_path):
    cache = tmp_path / "z.cache"
    proc = subprocess.run(CMD + ["zl", "--l", "4"], capture_output=True, text=True,
                          env={**os.environ, "CUBETURAN_ZCACHE": str(cache)})
    assert proc.returncode == 0 and json.loads(proc.stdout)["value"] == "648"
    assert not cache.exists() and list(tmp_path.iterdir()) == []


def test_bounds_verbs():
    proc = run_cli("bounds", "--theorem", "t6")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert {b["side"] for b in blob["bounds"]} == {"lower", "upper"}
    proc = run_cli("bounds", "--theorem", "t1", "--side", "lower", "--l", "2", "--k", "10")
    assert json.loads(proc.stdout)["value"] == {"num": "13", "den": "15"}
    for exact, num, den in (("3/16", "3", "16"), ("-1/2", "-1", "2"), ("0.25", "1", "4"),
                            ("7", "7", "1"), ("0." + "0" * 4297 + "1", "1", "1" + "0" * 4298)):
        proc = run_cli("bounds", "--theorem", "t6", "--exact=" + exact)
        assert json.loads(proc.stdout)["exact"] == {"num": num, "den": den}
    for argv in (("--theorem", "t6", "--exact", "1/0"), ("--theorem", "t6", "--exact", "abc"),
                 ("--theorem", "t2", "--n", "0"),
                 ("--theorem", "t4", "--side", "lower", "--n", "1", "--l", "2", "--k", "4"),
                 ("--theorem", "t7", "--side", "lower", "--n", "2", "--l", "4", "--k", "6")):
        proc = run_cli("bounds", *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "BadRange"


@pytest.mark.parametrize("theorem, params", [("a6", ("--l", "2", "--k", "10")),
                                             ("a7", ("--l", "4"))])
def test_bounds_of_a_lower_only_theorem_print_its_lower_side(theorem, params):
    proc = run_cli("bounds", "--theorem", theorem, *params)
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["theorem"] == theorem.upper()
    assert [b["side"] for b in blob["bounds"]] == ["lower"]
    lower = run_cli("bounds", "--theorem", theorem, "--side", "lower", *params)
    assert blob["bounds"][0] == json.loads(lower.stdout)
    proc = run_cli("bounds", "--theorem", theorem, "--side", "upper", *params)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "BadTheoremId"


@pytest.mark.parametrize("exact", ["1e999999", "1e99999999999", "1e3", "1_000",
                                   "\uff11/\uff12", " 1/2", "1/2\n", "+1/2", ".5", "1/-2",
                                   "0." + "0" * 4298 + "1"],
                         ids=lambda text: text if len(text) < 20 else "den-past-4300-digits")
def test_bounds_exact_takes_ascii_fractions_and_decimals_only(exact):
    # a bounded run, so that an exponent Fraction() would expand fails instead of hanging
    proc = subprocess.run(CMD + ["bounds", "--theorem", "t2", "--n", "3", "--exact=" + exact],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "BadRange"


@pytest.mark.parametrize("argv", [("t1", "--l", "2"), ("a6", "--side", "lower", "--l", "2"),
                                  ("t5", "--l", "2"), ("t1", "--l", "2", "--exact", "1/2")])
def test_bounds_refuse_a_huge_k_with_exit_4(argv):
    proc = run_cli("bounds", "--theorem", *argv, "--k", "9" * 2500)
    assert proc.returncode == 4 and proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "DimensionTooLarge" and err["message"].startswith("k=999")


def test_kpartite_verb(tmp_path):
    path = tmp_path / "h.cube"
    path.write_text("cube v1 n=3\n1*0\n*10\n")
    proc = run_cli("kpartite", "--k", "2", str(path))
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["exists"] is True
    assert len(blob["sigma"]) == 3
    for k, csv, summary in (
            ("2", "ell,3\nexists,True\nk,2\nsigma,1;2;1\n", "2-partite representation exists\n"),
            ("3", "ell,3\nexists,False\nk,3\nsigma,\n",
             "3-partite representation does not exist\n")):
        proc = run_cli("kpartite", "--k", k, "--format", "csv", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, csv, summary)


def test_csv_format(tmp_path):
    proc = run_cli("count", "--n", "3", "--pattern", "c4", "--format", "csv")
    assert proc.returncode == 0
    rows = dict(line.split(",", 1) for line in proc.stdout.strip().splitlines())
    assert rows["count"] == "6"
    assert rows["density.num"] == "1"
    out = _full_q3(tmp_path)
    for forbid, witness_rows in (
            ("q2", "checked_count,1\nforbid,q2\nfree,False\n"
                   "witness.cells,**0\nwitness.type,subcube\n"),
            ("c4", "checked_count,6\nforbid,c4\nfree,False\n"
                   "witness.length,4\nwitness.type,cycle\nwitness.vertices,0;1;3;2\n")):
        proc = run_cli("verify", "--forbid", forbid, "--format", "csv", str(out))
        assert (proc.returncode, proc.stdout) == (1, witness_rows)


def test_usage_errors_exit_2():
    assert run_cli("count", "--n", "3", "--pattern", "x9").returncode == 2
    assert run_cli("nonsense").returncode == 2
    proc = run_cli("verify", "--forbid", "c4", "/nonexistent/file.cube")
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] in ("FileNotFoundError", "OSError")


def test_budget_exit_3():
    proc = run_cli("search", "--n", "4", "--target", "e", "--forbid", "c6",
                   "--budget-nodes", "10")
    assert proc.returncode == 3
    blob = json.loads(proc.stderr)
    assert blob["error"] == "BudgetExceeded"
    assert int(blob["lower"]) <= 21 <= int(blob["upper"])


def test_zero_time_budget_exit_3():
    # a zero budget is a budget, not "no budget": the search stops at once
    proc = run_cli("search", "--n", "4", "--target", "c8", "--forbid", "c4",
                   "--budget-seconds", "0")
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"] == "BudgetExceeded"


def test_internal_limit_exit_4(tmp_path):
    path = tmp_path / "big.cube"
    path.write_text("cube v1 n=13\n" + "*" + "0" * 12 + "\n")
    proc = run_cli("count", "--n", "13", "--pattern", "c4", "--input", str(path))
    assert proc.returncode == 4
    assert json.loads(proc.stderr)["error"] == "EnumerationTooLarge"


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("count", "--n", "3", "--pattern", "c6", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(out.read_text())["count"] == "16"


@pytest.mark.parametrize("threads", ["1", "8"])
def test_runs_are_reproducible(tmp_path, threads):
    args = ("count", "--n", "4", "--pattern", "c6", "--threads", threads)
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["count"] == "128"


def test_thread_count_does_not_change_output(tmp_path):
    base = None
    for threads in ("1", "8"):
        w = tmp_path / f"w{threads}.cube"
        proc = run_cli("search", "--n", "3", "--target", "c6", "--forbid", "c4",
                       "--threads", threads, "--witness-out", str(w))
        assert proc.returncode == 0
        payload = (proc.stdout, w.read_bytes())
        if base is None:
            base = payload
        else:
            assert payload == base


@pytest.mark.parametrize("args", [("--l", "0"), ("--l", "2", "--k", "-3"), ("--l", "1")])
def test_zl_bad_range_exits_2(args, tmp_path):
    cache = tmp_path / "z.cache"
    proc = run_cli("zl", *args, "--z-cache", str(cache))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "BadRange"
    assert not cache.exists()


def test_zl_reports_the_word_method():
    # --method names the one route whatever its value, off the diagonal and below l = 4 too
    for zl, value in ((("--l", "4"), "648"), (("--l", "4", "--k", "3"), "6"),
                      (("--l", "3"), "16")):
        for args in ((), ("--method", "enum"), ("--method", "words")):
            proc = run_cli("zl", *zl, *args)
            assert proc.returncode == 0
            blob = json.loads(proc.stdout)
            assert blob["method"] == "words" and blob["value"] == value


def test_zl_has_no_allow_small_option():
    proc = run_cli("zl", "--l", "3", "--method", "words", "--allow-small")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --allow-small" in proc.stderr


@pytest.mark.parametrize("argv", [("zl", "--l", "600", "--k", "12"),
                                  ("zwords", "--l", "600", "--count-only"),
                                  ("zl", "--l", "13"), ("zl", "--l", "13", "--method", "words"),
                                  ("zwords", "--l", "13", "--count-only"),
                                  # past math.factorial's range: refused before l! is built
                                  ("zl", "--l", str(2**63)),
                                  ("bounds", "--theorem", "t3", "--l", str(2**63)),
                                  # z_{l,l} is read before 3^(l+1) or (l-1)! is built
                                  ("bounds", "--theorem", "a7", "--l", str(2**63)),
                                  ("bounds", "--theorem", "t5", "--l", str(2**63), "--k", "3"),
                                  ("zwords", "--l", str(2**63), "--count-only")])
def test_word_count_refuses_huge_l_with_exit_4(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 4
    assert json.loads(proc.stderr)["error"] == "EnumerationTooLarge"


def test_zwords_refuses_to_list_beyond_l6_before_counting(monkeypatch, capsys):
    from cubeturan import cli

    monkeypatch.setattr(cli, "count_z_words", lambda ell: pytest.fail("counted before refusing"))
    assert cli.main(["zwords", "--l", "7"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "EnumerationTooLarge"


def test_zwords_counts_l7_without_listing():
    proc = run_cli("zwords", "--l", "7", "--count-only")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"count": "192689280", "l": 7}


@pytest.mark.parametrize("pattern", ["q\u00b2", "c" + "5" * 5000],
                         ids=["superscript-digit", "past-the-int-digit-limit"])
def test_pattern_orders_that_are_not_ascii_digits_exit_2(pattern):
    proc = run_cli("count", "--n", "3", "--pattern", pattern)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "BadRange"


#: refused with exit 2 and BadRange, as every verb refuses n < 1: not a dimension
#: cap (exit 4), and not a budget that stops the search at its root (exit 3)
BAD_RANGE_ARGV = [
    *((verb, "--n", n, "--target", "e", "--forbid", "c4")
      for verb in ("search", "density") for n in ("0", "-1")),
    ("search", "--n", "3", "--target", "e", "--forbid", "c4", "--budget-nodes", "-1"),
    ("search", "--n", "3", "--target", "e", "--forbid", "c4", "--budget-seconds", "-1"),
]


@pytest.mark.parametrize("argv", BAD_RANGE_ARGV)
def test_nonpositive_dimensions_and_negative_budgets_exit_2(argv):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == "BadRange"


@pytest.mark.parametrize("argv", [
    ("bounds", "--theorem", "t4", "--l", "-1", "--k", "4"),
    ("bounds", "--theorem", "t4", "--l", "0", "--k", "0", "--n", "9"),  # there is no C_0
    ("bounds", "--theorem", "t7", "--l", "5", "--k", "6", "--n", "9" * 901),
    ("count", "--n", "20000", "--pattern", "e"),
    ("count", "--n", "20000", "--pattern", "q3"),
    ("count", "--n", "1000000000000", "--pattern", "e"),
    ("verify", "--forbid", "q2", "cube v1 n=1_0"),
    ("verify", "--forbid", "q2", "cube v1 n=+3"),
    ("verify", "--forbid", "q2", "cube v1 n=\uff13"),  # a full-width 3
    ("search", "--n", "4", "--target", "e", "--forbid", "c6", "--budget-seconds", "nan"),
    ("construct", "conder", "--out", os.devnull, "--n", str(MAX_WHOLE_CUBE_N + 1)),
    ("construct", "mod3-select", "--l", "4", "--out", os.devnull, "--n", str(MAX_WHOLE_CUBE_N + 1)),
    ("zl", "--l", "5", "--z-cache", "/nonexistent/d/z.cache"),  # no directory to write it in
    ("count", "--n", "3", "--pattern", "c4", "--out", "/nonexistent/d/r.json"),  # nor the report
    *BAD_RANGE_ARGV,
    ("verify", "--forbid", "q2", "cube v1n=2"),  # no space before n=
])
def test_hostile_inputs_fail_with_a_structured_error(argv, tmp_path):
    if argv[-1].startswith("cube v1"):  # a file holding just this header
        path = tmp_path / "header.cube"
        path.write_text(argv[-1] + "\n", encoding="utf-8")
        argv = (*argv[:-1], str(path))
    proc = run_cli(*argv)
    assert proc.returncode in (2, 4)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error" in json.loads(proc.stderr)


def test_an_unwritable_z_cache_is_named_in_the_error(tmp_path):
    cache = tmp_path / "missing" / "z.cache"
    proc = run_cli("zl", "--l", "5", "--z-cache", str(cache))
    assert proc.returncode == 2 and proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "FileNotFoundError"
    assert repr(str(cache)) in err["message"]  # not the temporary file beside it
