"""The three workloads: fixed `cubeturan` command lists and the checks on their output.

Each command runs in a fresh working directory per pass; files named in the
commands are written there, and seeded inputs are read from `../inputs/`.
Expected values are mathematical results pinned on the parent commit (counts,
optima, z-values, edge counts). Search-effort fields such as
`nodes_explored` and `checked_count` are not pinned, so an optimisation that
does less work still passes; witnesses are checked for validity instead.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import oracle

WORKLOADS = ("certify", "zcycles", "extremal")
#: seconds of --seconds that one pass accounts for: a run makes
#: round(--seconds / PASS_S) passes, so --seconds 20 gives 1, 2 and 1 passes
#: (about 21, 21 and 21 s on a 2-vCPU host with the pure-Python kernel)
PASS_S = {"certify": 15, "zcycles": 10, "extremal": 15}
RANDOM_INPUTS = (("r50", 0.5), ("r90", 0.9))
RANDOM_N = 11


@dataclass
class Command:
    key: str
    argv: tuple[str, ...]
    rc: int = 0
    expect: dict = field(default_factory=dict)  # dotted payload path -> exact value
    check: object = None  # (payload, workdir) -> error message or None


def cmd(key, *argv, threads=1, rc=0, expect=None, check=None) -> Command:
    return Command(key, (*argv, "--threads", str(threads)), rc, expect or {}, check)


def lookup(payload, path: str):
    for part in filter(None, path.split(".")):  # "" is the whole payload
        payload = payload[int(part)] if isinstance(payload, list) else payload[part]
    return payload


# ---------------------------------------------------------------------------
# checks that read the files a command wrote or the witness it returned

def construct_check(out: str):
    def check(payload, workdir):
        n, keys = oracle.read_edges(os.path.join(workdir, out))
        if len(keys) != payload["edge_count"]:
            return f"{out} holds {len(keys)} edges, report says {payload['edge_count']}"
        with open(os.path.join(workdir, out + ".json"), encoding="utf-8") as fh:
            if json.load(fh) != payload:
                return f"{out}.json differs from the stdout report"
        return None
    return check


def witness_check(path: str, length_or_k: int, kind: str):
    def check(payload, workdir):
        w = payload["witness"]
        if w is None:
            return None
        n, keys = oracle.read_edges(os.path.join(workdir, path))
        if kind == "c":
            ok = len(w["vertices"]) == length_or_k and oracle.is_cycle_in(w["vertices"], keys, n)
        else:
            ok = w["cells"].count("*") == length_or_k and set(oracle.subcube_edges(w["cells"])) <= keys
        return None if ok else f"witness {w} is not a {kind}{length_or_k} of {path}"
    return check


def pattern_count(n: int, keys, pattern: str) -> int | None:
    """Independent count of a pattern, or None where no independent route exists."""
    if pattern == "e":
        return len(keys)
    if pattern in ("c4", "c6"):
        return oracle.count_short_cycles(n, keys, int(pattern[1:]))
    if pattern[0] == "q":
        return oracle.count_full_subcubes(n, keys, int(pattern[1:]))
    return None


def search_check(n: int, target: str, forbid: str):
    def check(payload, workdir):
        keys = frozenset(payload["witness_edges"])
        if pattern_count(n, keys, forbid) not in (0, None):
            return f"witness contains {forbid}"
        got = pattern_count(n, keys, target)
        if got is not None and str(got) != payload["value"]:
            return f"witness holds {got} {target}, report says {payload['value']}"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads

def certify(seeded: dict) -> tuple[list[Command], list]:
    """Build, write, read, certify and count at n = 10..16, plus seeded random graphs.

    The layer-complement graph is certified Q_3-free at n = 11: its full scan
    of every Q_3 takes about 5 s at n = 12, which would leave room for only
    one pass per run.
    """
    builds = [
        ("conder12", ("conder", "--n", "12"), 8192),
        ("pq12", ("parity-q2", "--n", "12"), 8192),
        ("lc11", ("layer-complement", "--n", "11", "--k", "3", "--i", "0"), 7513),
        ("eo12", ("even-odd", "--n", "12", "--j", "0"), 12288),
        ("q12", ("layer-mod", "--n", "12", "--k", "1", "--j", "0"), 24576),  # all of Q_12
        ("qm12", ("qm-packing", "--n", "12", "--m", "3"), 6144),
        ("aks10", ("aks", "--n", "10", "--k", "3", "--i", "0", "--j", "0"), 3584),
        ("conder16", ("conder", "--n", "16"), 174762),
    ]
    cmds = [
        cmd(f"construct-{name}", "construct", *args, "--out", f"{name}.cube",
            expect={"edge_count": edges}, check=construct_check(f"{name}.cube"))
        for name, args, edges in builds
    ]

    def verify(name, forbid, rc, path=None):
        path = path or f"{name}.cube"
        return cmd(f"verify-{name}-{forbid}", "verify", "--forbid", forbid, path, rc=rc,
                   expect={"free": rc == 0},
                   check=witness_check(path, int(forbid[1:]), forbid[0]))

    cmds += [
        verify("conder12", "c6", 0), verify("pq12", "c6", 0), verify("aks10", "q3", 0),
        verify("lc11", "q3", 0), verify("eo12", "c4", 0), verify("conder12", "c8", 1),
    ]

    def count(name, n, pattern, value, path=None, threads=1):
        path = path or f"{name}.cube"
        return cmd(f"count-{name}-{pattern}", "count", "--n", str(n), "--pattern", pattern,
                   "--input", path, threads=threads, expect={"count": str(value)})

    cmds += [
        cmd("closed-q12-c4", "count", "--n", "12", "--pattern", "c4", expect={"count": "67584"}),
        cmd("closed-q12-q2", "count", "--n", "12", "--pattern", "q2", expect={"count": "67584"}),
        count("q12", 12, "c4", 67584), count("q12", 12, "q2", 67584),
        count("conder12", 12, "c8", 9717, threads=2), count("qm12", 12, "c8", 3072),
        count("aks10", 10, "q3", 0),
    ]
    for name, _ in RANDOM_INPUTS:
        path = f"../inputs/{name}.cube"
        ref = seeded[name]
        cmds += [
            count(name, RANDOM_N, "c4", ref["c4"], path),
            count(name, RANDOM_N, "q2", ref["c4"], path),
            count(name, RANDOM_N, "c6", ref["c6"], path),
        ]
    cmds += [
        verify("r50", "c4", 1 if seeded["r50"]["c4"] else 0, "../inputs/r50.cube"),
        verify("r90", "c6", 1 if seeded["r90"]["c6"] else 0, "../inputs/r90.cube"),
    ]
    cross = [
        same("count-q12-c4", "count-q12-q2", "count"),
        same("count-q12-c4", "closed-q12-c4", "count"),
        same("count-r50-c4", "count-r50-q2", "count"),
        same("count-r90-c4", "count-r90-q2", "count"),
        verdict_matches_count("verify-conder12-c8", "count-conder12-c8"),
        verdict_matches_count("verify-aks10-q3", "count-aks10-q3"),
        verdict_matches_count("verify-r50-c4", "count-r50-c4"),
        verdict_matches_count("verify-r90-c6", "count-r90-c6"),
    ]
    return cmds, cross


Z_COLD = [
    ("zl-5-5", ("zl", "--l", "5"), {"value": "47616"}),
    ("zl-5-6", ("zl", "--l", "6", "--k", "5"), {"value": "540960"}),
    ("zl-4-6", ("zl", "--l", "6", "--k", "4"), {"value": "5024"}),
    ("count-q20-c10", ("count", "--n", "20", "--pattern", "c10"), {"count": "24861204283392"}),
    ("bounds-t3", ("bounds", "--theorem", "t3", "--n", "6", "--l", "5"),
     {"bounds.0.value": {"num": "1", "den": "195035136"},
      "bounds.1.value": {"num": "36577", "den": "100000"}}),
    ("bounds-t5", ("bounds", "--theorem", "t5", "--l", "5", "--k", "3"),
     {"bounds.0.value": {"num": "1", "den": "5952"}, "bounds.1.value": None}),
]

#: |Z(8)|, so z(8,8) = |Z(8)| * 2^8 / (4 * 8)
Z8_WORDS = 23944394880


def zcycles(seeded: dict) -> tuple[list[Command], list]:
    """z-values cold (computed, cache written), by words, then warm (cache read)."""
    cache = ("--z-cache", "z.cache")
    cmds = [cmd(key, *args, *cache, expect=exp) for key, args, exp in Z_COLD]
    cmds += [
        cmd("words-5", "zl", "--l", "5", "--method", "words", expect={"value": "47616"}),
        cmd("words-8", "zl", "--l", "8", "--method", "words",
            expect={"value": str(Z8_WORDS * 2**8 // 32)}),
        cmd("zwords-7", "zwords", "--l", "7", "--count-only", expect={"count": "192689280"}),
    ]
    cmds += [cmd(key + "-warm", *args, *cache, expect=exp) for key, args, exp in Z_COLD]
    cross = [same("zl-5-5", "words-5", "value")]
    cross += [same(key, key + "-warm", "") for key, _, _ in Z_COLD]
    return cmds, cross


def extremal(seeded: dict) -> tuple[list[Command], list]:
    """Exact small optima by branch-and-bound, cross-checked by the exhaustive scan."""

    def search(n, target, forbid, value, exhaustive=False, extra=()):
        key = f"search-{n}-{target}-{forbid}" + ("-exhaustive" if exhaustive else "")
        method = ("--method", "exhaustive") if exhaustive else ()
        return cmd(key, "search", "--n", str(n), "--target", target, "--forbid", forbid,
                   *method, *extra, expect={"value": str(value)},
                   check=search_check(n, target, forbid))

    cmds = [
        search(4, "e", "c6", 21, extra=("--witness-out", "ex-e-c6.cube")),
        search(4, "c4", "c6", 5), search(4, "c8", "c4", 30), search(4, "e", "c4", 24),
        search(4, "q2", "q3", 15),
        search(3, "e", "c4", 9, exhaustive=True), search(3, "e", "c4", 9),
        search(3, "c4", "c6", 2, exhaustive=True), search(3, "c4", "c6", 2),
        cmd("density-3-c6-c4", "density", "--n", "3", "--target", "c6", "--forbid", "c4",
            expect={"value": "3", "density": {"num": "3", "den": "16"}}),
        cmd("verify-ex-e-c6", "verify", "--forbid", "c6", "ex-e-c6.cube", expect={"free": True}),
        cmd("count-ex-e-c6", "count", "--n", "4", "--pattern", "e", "--input", "ex-e-c6.cube",
            expect={"count": "21"}),
    ]
    cross = [
        same("search-3-e-c4", "search-3-e-c4-exhaustive", "value"),
        same("search-3-c4-c6", "search-3-c4-c6-exhaustive", "value"),
        same("search-4-e-c6", "count-ex-e-c6", "value", "count"),
    ]
    return cmds, cross


BUILDERS = {"certify": certify, "zcycles": zcycles, "extremal": extremal}


# ---------------------------------------------------------------------------
# cross-route checks: each returns (key to blame, error message or None)

def same(a: str, b: str, path_a: str, path_b: str | None = None):
    def check(payloads):
        va, vb = lookup(payloads[a], path_a), lookup(payloads[b], path_b or path_a)
        return b, None if va == vb else f"{a}.{path_a}={va!r} but {b}={vb!r}"
    return check


def verdict_matches_count(verify_key: str, count_key: str):
    def check(payloads):
        found = not payloads[verify_key]["free"]
        nonzero = payloads[count_key]["count"] != "0"
        return verify_key, None if found == nonzero else (
            f"{verify_key} found={found} but {count_key} count={payloads[count_key]['count']}")
    return check


def check_pass(cmds: list[Command], cross: list, outcomes: dict, workdir: str) -> dict[str, list[str]]:
    """Errors per command key. `outcomes[key]` is (exit code, stdout text)."""
    errors: dict[str, list[str]] = {c.key: [] for c in cmds}
    payloads = {}
    for c in cmds:
        rc, text = outcomes[c.key]
        if rc != c.rc:
            errors[c.key].append(f"exit code {rc}, expected {c.rc}")
        try:
            payload = json.loads(text)
        except ValueError:
            errors[c.key].append("stdout is not JSON")
            continue
        payloads[c.key] = payload
        for path, want in c.expect.items():
            try:
                got = lookup(payload, path)
            except (KeyError, IndexError, TypeError):
                got = "<missing>"
            if got != want:
                errors[c.key].append(f"{path}={got!r}, expected {want!r}")
        if c.check is not None:
            try:
                msg = c.check(payload, workdir)
            except (KeyError, TypeError, ValueError, OSError) as exc:
                msg = f"check raised {exc!r}"
            if msg:
                errors[c.key].append(msg)
    for check in cross:
        try:
            key, msg = check(payloads)
        except (KeyError, IndexError, TypeError) as exc:
            key, msg = cmds[-1].key, f"cross-check could not run: {exc!r}"
        if msg:
            errors[key].append(msg)
    return {k: v for k, v in errors.items() if v}


def summary(argv, payload) -> dict:
    """The fields of a report that the in-process replay must reproduce."""
    verb = argv[0]
    fields = {
        "construct": ("edge_count", "claimed_free_of"),
        "verify": ("free", "witness", "checked_count"),
        "count": ("count", "ambient_total"),
        "zl": ("value",),
        "zwords": ("count",),
        "search": ("value", "nodes_explored", "witness_edges"),
        "density": ("value", "density"),
        "bounds": ("bounds",),
    }[verb]
    return {f: payload.get(f) for f in fields}
