#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `cubeturan` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One single-threaded driver runs a workload's fixed command list as
`python -m cubeturan ...` subprocesses, closed loop with one client: each
command starts after the previous one exits. A run makes --seconds divided by
the workload's nominal pass time passes (rounded, at least one), so the pass
count does not depend on how fast the code under test is. Every output is
checked.

`setup_s`, `wall_s` and `cpu_s` are rescaled to a fixed host speed, sampled on
the same CPU while they are measured (hostspeed.py), because the shared host's
speed drifts by tens of percent from minute to minute. The raw figures are in
the metadata line and in result.json.

--trace 0 prints the end-to-end metrics. --trace 1 runs one pass, then replays
the same commands in-process, each once plain and once with spans around each
call into a layer, and prints the per-layer metrics. The last stdout line is one
JSON object; the line before it is the run's metadata. Everything is written
under .cubebench/ in the repository root, and the package is built and run
from a copy there, so nothing lands in src/.

Exit codes: 0 all outputs correct, 1 some output wrong, 2 set-up failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import oracle
import spans
from workloads import BUILDERS, PASS_S, RANDOM_INPUTS, RANDOM_N, WORKLOADS, check_pass, summary

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUPS = 5  # set-up repeats per untraced run; setup_s is their median
STARTUPS = 5  # `--version` repeats for cli.startup_s
COMMAND_TIMEOUT_S = 150
LAYERS = ("core", "constructions", "kernels", "counting", "verification", "zwords", "search", "bounds")
SPAN_METRICS = {
    "core.load_s": "core.load", "core.save_s": "core.save",
    "core.full_cube_s": "core.full_cube", "core.adjacency_s": "core.adjacency",
    "constructions.build_s": "constructions.build",
    "kernels.count_s": "kernels.count", "kernels.find_s": "kernels.find",
    "counting.subcube_scan_s": "counting.subcube_scan",
    "counting.z_cold_s": "counting.z_cold", "counting.z_warm_s": "counting.z_warm",
    "verification.qk_free_s": "verification.qk_free",
    "verification.c2k_free_s": "verification.c2k_free",
    "zwords.count_s": "zwords.count",
    "search.total_s": "search.total", "search.copies_s": "search.copies",
    "search.reverify_s": "search.reverify", "bounds.eval_s": "bounds.eval",
}
COUNT_METRICS = (
    "core.edges_loaded", "constructions.edges_built", "kernels.cycles_counted",
    "kernels.find_nodes", "counting.subcubes_found", "counting.z_computed",
    "verification.qk_checked", "verification.c2k_nodes", "zwords.canonical_words", "search.nodes",
)


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up: copy, build, warm __pycache__, make the seeded inputs

def child_env(build: Path, seed: int) -> dict:
    env = dict(os.environ)
    for name in ("CUBETURAN_PURE", "CUBETURAN_ZCACHE"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(build / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def make_inputs(inputs: Path, seed: int) -> dict:
    """Seeded random subgraphs of Q_11 and their independently counted 4- and 6-cycles."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    seeded = {}
    for name, density in RANDOM_INPUTS:
        keys = oracle.random_subgraph(RANDOM_N, density, rng)
        oracle.write_subgraph(inputs / f"{name}.cube", RANDOM_N, keys)
        seeded[name] = {f"c{m}": oracle.count_short_cycles(RANDOM_N, keys, m) for m in (4, 6)}
    with open(inputs / "seeded.json", "w", encoding="utf-8") as fh:
        json.dump(seeded, fh)
    return seeded


def setup(work: Path, build: Path, seed: int, workload: str) -> tuple[float, dict]:
    """Build the package the way setup.py does, in a copy; return (seconds, seeded values)."""
    t0 = time.perf_counter()
    if not (ROOT / "src" / "cubeturan").is_dir() or not (ROOT / "setup.py").is_file():
        raise SetupError(f"no package source under {ROOT}")
    shutil.rmtree(build, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__", "*.so", "*.pyd", "*.egg-info", "build")
    for name in ("src", "benchmarks"):
        shutil.copytree(ROOT / name, build / name, ignore=skip)
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, build / name)
    proc = subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                          cwd=build, env=child_env(build, seed), capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"setup.py build_ext failed:\n{proc.stderr}")
    for name in ("src", "benchmarks"):
        if not compileall.compile_dir(str(build / name), quiet=1):
            raise SetupError(f"byte-compiling {name} failed")
    seeded = make_inputs(work / "inputs", seed) if workload == "certify" else {}
    if not seeded:
        (work / "inputs").mkdir(parents=True, exist_ok=True)
        (work / "inputs" / "seeded.json").write_text("{}", encoding="utf-8")
    return time.perf_counter() - t0, seeded


# ---------------------------------------------------------------------------
# one pass: the command list as subprocesses, closed loop

def run_child(argv, cwd: Path, env: dict, stdout: Path) -> tuple[int, float, float, float]:
    """(exit code, wall s, user+sys CPU s, peak RSS MB) of one child, read with wait4."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".stderr"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                             stdin=subprocess.DEVNULL)
        timer = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
        timer.start()
        status = None
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: stop the child before leaving
                p.kill()
                os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def run_pass(cmds, passdir: Path, env: dict) -> dict:
    """Run the commands once; wall_s and cpu_s are sums over the commands."""
    passdir.mkdir(parents=True)
    rows, outcomes = {}, {}
    for c in cmds:
        out = passdir / f"{c.key}.stdout"
        t0 = time.monotonic()
        rc, wall, cpu, rss = run_child([sys.executable, "-m", "cubeturan", *c.argv], passdir, env, out)
        rows[c.key] = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
                       "interval": (t0, time.monotonic())}
        outcomes[c.key] = rc, out
    outcomes = {k: (rc, out.read_text(encoding="utf-8")) for k, (rc, out) in outcomes.items()}
    return {
        "wall_s": sum(r["wall_s"] for r in rows.values()),
        "cpu_s": sum(r["cpu_s"] for r in rows.values()),
        "peak_rss_mb": max(r["rss_mb"] for r in rows.values()),
        "commands": rows,
        "outcomes": outcomes,
    }


def rescale_pass(p: dict, samples) -> None:
    """Add the host-scaled wall and CPU sums to a pass."""
    for row in p["commands"].values():
        factor = hostspeed.scale(1.0, samples, *row["interval"])
        row["scaled_wall_s"], row["scaled_cpu_s"] = row["wall_s"] * factor, row["cpu_s"] * factor
    p["scaled_wall_s"] = sum(r["scaled_wall_s"] for r in p["commands"].values())
    p["scaled_cpu_s"] = sum(r["scaled_cpu_s"] for r in p["commands"].values())


# ---------------------------------------------------------------------------
# metadata

def git_sha() -> str:
    """HEAD read from the .git directory, if the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> int:
    """Hand-written non-test source lines under src/; Cython output is not counted."""
    total = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix not in (".py", ".pyx", ".pxd", ".c", ".h") or "__pycache__" in path.parts:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        if path.suffix == ".c" and text.startswith("/* Generated by Cython"):
            continue
        total += text.count("\n")
    return total


def cpu_parallelism(env: dict) -> float:
    """Throughput of two busy processes relative to one: 2.0 means two whole CPUs."""
    argv = [sys.executable, "-c", "for _ in range(3_000_000): pass"]
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True)
    one = time.perf_counter() - t0
    t0 = time.perf_counter()
    procs = [subprocess.Popen(argv, env=env) for _ in range(2)]
    for p in procs:
        p.wait()
    return 2 * one / (time.perf_counter() - t0)


def cli_startup(env: dict, cwd: Path, repeats: int = STARTUPS) -> tuple[float, str]:
    """Median `--version` wall time, and the kernel backend it reports."""
    times, text = [], ""
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cubeturan", "--version"], cwd=cwd, env=env,
                              capture_output=True, text=True, check=True)
        times.append(time.perf_counter() - t0)
        text = proc.stdout
    backend = text.rsplit("kernel: ", 1)[-1].rstrip(")\n") if "kernel: " in text else "unknown"
    return statistics.median(times), backend


# ---------------------------------------------------------------------------
# runs

def checked_passes(cmds, cross, work: Path, env: dict, count: int):
    """Run `count` passes; return them with their errors."""
    passes, errors = [], {}
    for i in range(count):
        passdir = work / f"pass-{i}"
        p = run_pass(cmds, passdir, env)
        errs = check_pass(cmds, cross, p["outcomes"], str(passdir))
        for key, msgs in errs.items():
            errors[f"pass-{i}:{key}"] = msgs
        p["failed"] = len(errs)
        passes.append(p)
        shutil.rmtree(passdir)
    return passes, errors


def untraced_run(workload, seed, seconds, work: Path) -> tuple[dict, dict]:
    build = work / "build"
    with hostspeed.Sampler(work / "hostspeed.txt") as sampler:
        raw_setups, intervals = [], []
        for _ in range(SETUPS):
            t0 = time.monotonic()
            dt, seeded = setup(work, build, seed, workload)
            raw_setups.append(dt)
            intervals.append((t0, time.monotonic()))
        env = child_env(build, seed)
        cmds, cross = BUILDERS[workload](seeded)
        count = max(1, round(seconds / PASS_S[workload]))
        passes, errors = checked_passes(cmds, cross, work, env, count)
        sampler.settle(time.monotonic() + hostspeed.WINDOW_S / 2)
        samples = sampler.samples()
    setups = [hostspeed.scale(dt, samples, *iv) for dt, iv in zip(raw_setups, intervals)]
    for p in passes:
        rescale_pass(p, samples)
    attempted = len(cmds) * len(passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["scaled_wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["scaled_cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": (1 - failed / attempted, "fraction"),
    }
    details = {"setups_s": setups, "raw_setups_s": raw_setups,
               "raw": {"setup_s": statistics.median(raw_setups),
                       "wall_s": statistics.median(p["wall_s"] for p in passes),
                       "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                       "host_loop_s": statistics.median(dt for _, dt in samples)},
               "passes": [strip(p) for p in passes], "errors": errors}
    return result(attempted, failed, metrics), details


def replay(workload, work: Path, build: Path, env: dict) -> dict:
    """Run replay.py; on failure return its stderr as an error and no results."""
    out = work / "replay.json"
    argv = [sys.executable, str(HERE / "replay.py"), workload, str(work / "replay"),
            str(work / "inputs" / "seeded.json"), str(out), "--benchmarks", str(build / "benchmarks")]
    rc, _, _, _ = run_child(argv, work, env, work / "replay.stdout")
    if rc != 0:
        err = (work / "replay.stderr").read_text(encoding="utf-8", errors="replace")
        return {"failed": f"exit {rc}: {err[-2000:]}"}
    for mode in ("plain", "traced"):
        shutil.rmtree(work / f"replay-{mode}")
    return json.loads(out.read_text(encoding="utf-8"))


def layer_metrics(cli_wall: float, startup: float, rep: dict) -> dict:
    recorded = [spans.Span(*row) for row in rep["spans"]]
    inclusive = spans.inclusive_times(recorded)
    own = spans.layer_self_times(recorded)
    counts = rep["counts"]
    m = {"cli.startup_s": (startup, "s"),
         "cli.overhead_s": (cli_wall - spans.root_time(recorded), "s")}
    m.update({name: (inclusive.get(span, 0.0), "s") for name, span in SPAN_METRICS.items()})
    m.update({name: (counts.get(name, 0), "count") for name in COUNT_METRICS})
    m["kernels.pure_bench_s"] = (rep["kernels"]["pure"]["seconds"], "s")
    total = inclusive.get("search.total", 0.0)
    m["search.nodes_per_s"] = (counts.get("search.nodes", 0) / total if total else 0.0, "1/s")
    m["trace.overhead_s"] = (rep["total_s"]["traced"] - rep["total_s"]["plain"], "s")
    m.update({f"{layer}.self_s": (own.get(layer, 0.0), "s") for layer in LAYERS})
    return m


def traced_run(workload, seed, seconds, work: Path) -> tuple[dict, dict]:
    build = work / "build"
    _, seeded = setup(work, build, seed, workload)
    env = child_env(build, seed)
    cmds, cross = BUILDERS[workload](seeded)
    startup, _ = cli_startup(env, work)
    passes, errors = checked_passes(cmds, cross, work, env, 1)
    cli = passes[0]
    rep = replay(workload, work, build, env)
    attempted = 3 * len(cmds)
    failed = cli["failed"]
    if "failed" in rep:
        errors["replay"] = [rep["failed"]]
        return result(attempted, failed + 2 * len(cmds), {}), {"errors": errors, "passes": [strip(cli)]}
    expected = {c.key: summary(c.argv, json.loads(cli["outcomes"][c.key][1])) for c in cmds
                if f"pass-0:{c.key}" not in errors}
    for mode in ("plain", "traced"):
        for key, msg in rep["errors"][mode].items():
            errors[f"replay-{mode}:{key}"] = [msg]
        bad = {k for k in expected if rep["results"][mode].get(k) != expected[k]}
        for key in bad:
            errors.setdefault(f"replay-{mode}:{key}", []).append(
                f"library gives {rep['results'][mode].get(key)!r}, CLI printed {expected[key]!r}")
        failed += len(bad | set(rep["errors"][mode]))
    if len({json.dumps(row["results"]) for row in rep["kernels"].values()}) > 1:
        errors["kernels"] = ["compiled and pure kernels disagree on bench_kernels workloads"]
        failed += 1
    if failed:
        return result(attempted, failed, {}), {"errors": errors, "passes": [strip(cli)]}
    details = {"passes": [strip(cli)], "errors": errors, "kernels": rep["kernels"],
               "replay_s": rep["total_s"], "spans": rep["spans"], "counts": rep["counts"]}
    return result(attempted, failed, layer_metrics(cli["wall_s"], startup, rep)), details


def strip(p: dict) -> dict:
    return {k: v for k, v in p.items() if k != "outcomes"}


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # SIGTERM unwinds like an exception, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".cubebench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = traced_run if args.trace else untraced_run
    try:
        res, details = run(args.workload, args.seed, args.seconds, work)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 2
    env = child_env(work / "build", args.seed)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(), "python": sys.version.split()[0],
        "backend": cli_startup(env, work, 1)[1], "nproc": os.cpu_count(),
        "cpu_parallelism": cpu_parallelism(env), "source_lines": source_lines(),
        "passes": len(details["passes"]), "raw": details.get("raw", {}),
    }
    for name in ("build", "inputs"):  # both can be remade from the source and the seed
        shutil.rmtree(work / name, ignore_errors=True)
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": res, **details}, fh, indent=1)
    for key, msgs in details["errors"].items():
        print(f"FAIL {key}: {'; '.join(msgs)}", file=sys.stderr)
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
