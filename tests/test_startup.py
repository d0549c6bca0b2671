"""Start-up: each command imports only the modules its verb runs.

`python -m cubeturan` runs `import cubeturan` and then one verb, so the
package's exports load on first access and `cli` imports each verb's modules
inside its handler and builds only that verb's arguments. Module sets are read
in a fresh interpreter, relative to what it had loaded before the package.
"""

import contextlib
import importlib
import io
import json
import subprocess
import sys

import pytest

import cubeturan
from cubeturan import cli, counting, zwords
from cubeturan.constructions import KINDS
from cubeturan.core import full_cube, save_subgraph

#: modules that no z-value lookup needs, each ~5-12 ms of start-up
NOT_FOR_ZL = ("cubeturan.core", "cubeturan.counting", "cubeturan.constructions",
              "cubeturan.search", "cubeturan.bounds",
              "dataclasses", "concurrent.futures", "fractions")


def loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads while running `code`."""
    script = ("import contextlib, io, json, sys\n"
              "before = set(sys.modules)\n"
              "with contextlib.redirect_stdout(io.StringIO()), "
              "contextlib.redirect_stderr(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in code.splitlines())
              + "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_a_bare_import_loads_only_the_version():
    assert {m for m in loaded_by("import cubeturan") if m.startswith("cubeturan")} == {
        "cubeturan", "cubeturan._version"}


def test_zl_loads_no_graph_code_and_no_heavy_stdlib():
    loaded = loaded_by('from cubeturan import cli\nassert cli.main(["zl", "--l", "4"]) == 0')
    assert "cubeturan.zwords" in loaded
    assert sorted(loaded.intersection(NOT_FOR_ZL)) == []


@pytest.mark.parametrize("threads, pool", [(1, False), (2, True)])
def test_count_starts_the_thread_pool_only_with_threads(tmp_path, threads, pool):
    path = tmp_path / "q3.cube"
    save_subgraph(full_cube(3), str(path))
    # c8: only the DFS counts, of cycles longer than C_6, run on threads
    argv = ["count", "--n", "3", "--pattern", "c8", "--input", str(path), "--threads", str(threads)]
    loaded = loaded_by(f"from cubeturan import cli\nassert cli.main({argv!r}) == 0")
    assert "cubeturan.counting" in loaded
    assert ("concurrent.futures" in loaded) == pool


def test_an_export_loads_its_home_module_alone():
    loaded = loaded_by("from cubeturan import z_kl")
    assert "cubeturan.zwords" in loaded
    assert not loaded & {"cubeturan.core", "cubeturan.counting"}


def test_submodules_still_import_from_the_package():
    loaded = loaded_by("import cubeturan\nfrom cubeturan import counting\n"
                       "assert counting.__name__ == 'cubeturan.counting'")
    assert "cubeturan.counting" in loaded


@pytest.mark.parametrize("name", cubeturan.__all__)
def test_every_export_is_the_object_of_its_home_module(name):
    value = getattr(cubeturan, name)
    home = importlib.import_module(value.__module__ if callable(value) else "cubeturan._version")
    assert getattr(home, name) is value
    assert name in dir(cubeturan)  # cached once resolved


def test_the_z_table_lives_in_zwords_and_counting_re_exports_it():
    assert counting.ZTable is zwords.ZTable is cubeturan.ZTable


def test_an_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="module 'cubeturan' has no attribute 'no_such_name'"):
        cubeturan.no_such_name  # noqa: B018


def outcome(run, argv):
    """(exit code, stdout, stderr, parsed arguments or None) of run(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result, code = run(argv), None
        except SystemExit as exc:
            result, code = None, exc.code
    parsed = vars(result) if isinstance(result, cli.argparse.Namespace) else None
    return code, out.getvalue(), err.getvalue(), parsed


#: argv of every verb that use each of its options, and every construct kind
#: with all of its parameters
VALID = [
    ("count", "--n", "3", "--pattern", "c4"),
    ("count", "--n", "3", "--pattern", "c4", "--input", "g.cube", "--threads", "2",
     "--format", "csv", "--out", "r.csv", "--z-cache", "z.cache"),
    ("zl", "--l", "5"),
    ("zl", "--l", "5", "--k", "4", "--method", "words", "--z-cache", "z.cache"),
    ("zwords", "--l", "4", "--count-only"),
    *(("construct", kind, "--out", "g.cube", "--format", "csv", "--threads", "1",
       *(arg for name in row.needs + row.takes for arg in ("--" + name, "2")),
       *("--" + name.replace("_", "-") for name in row.flags))
      for kind, row in KINDS.items()),
    ("verify", "--forbid", "c4", "g.cube"),
    ("search", "--n", "3", "--target", "e", "--forbid", "c4", "--budget-nodes", "10",
     "--budget-seconds", "1.5", "--method", "exhaustive", "--witness-out", "w.cube"),
    ("density", "--n", "3", "--target", "e", "--forbid", "c4", "--budget-nodes", "10"),
    ("bounds", "--theorem", "t4", "--side", "lower", "--n", "9", "--k", "2", "--l", "3",
     "--exact", "1/2"),
    ("kpartite", "--k", "2", "g.cube"),
]
#: usage errors, each reported by the verb's own parser
INVALID = [
    ("count",), ("count", "--n", "x", "--pattern", "c4"), ("zl", "--l", "5", "--bogus"),
    ("construct", "no-such-kind", "--out", "g.cube"), ("construct", "conder"),
    ("search", "--n", "3", "--target", "e", "--forbid", "c4", "--method", "fast"),
    ("bounds", "--side", "middle"),
]
VERBS = sorted({argv[0] for argv in VALID})


@pytest.mark.parametrize("argv", VALID + INVALID + [(verb, "--help") for verb in VERBS],
                         ids=lambda argv: " ".join(argv))
def test_a_verb_s_own_parser_parses_as_the_full_parser(argv):
    full = outcome(cli.build_parser().parse_args, list(argv))
    assert outcome(cli.build_parser(argv[0]).parse_args, list(argv)) == full
    assert (full[3] is not None) == (argv in VALID)  # the others exit


def test_valid_argv_cover_every_verb():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "verb")
    assert VERBS == sorted(sub.choices)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--version"], ["nonsense"], ["-h", "zl"], ["--version", "count"],
    ["--threads", "2", "count"], [""], ["--", "nonsense"]], ids=repr)
def test_main_without_a_valid_verb_speaks_as_the_full_parser(argv):
    main_outcome = outcome(cli.main, argv)
    assert main_outcome[:3] == outcome(cli.build_parser().parse_args, argv)[:3]
    assert main_outcome[0] in (0, 2)
