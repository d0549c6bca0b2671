"""Tests of the benchmark itself: output checks, span arithmetic, the reference counts.

Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import hostspeed
import oracle
import run
import spans
import workloads
from workloads import Command, check_pass, cmd, same, verdict_matches_count

ROOT = Path(__file__).resolve().parent.parent


def test_wrong_expected_value_counts_as_failed(tmp_path):
    cmds = [cmd("c6", "count", "--n", "3", "--pattern", "c6", expect={"count": "17"}),
            cmd("c4", "count", "--n", "3", "--pattern", "c4", expect={"count": "6"})]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("CUBETURAN_PURE", None)
    p = run.run_pass(cmds, tmp_path / "pass", env)
    errors = check_pass(cmds, [], p["outcomes"], str(tmp_path / "pass"))
    assert list(errors) == ["c6"]
    assert "count='16'" in errors["c6"][0]
    res = run.result(2, len(errors), {"ok_frac": (1 - len(errors) / 2, "fraction")})
    assert res["failed"] == 1 and not res["correct"]
    assert res["metrics"]["ok_frac"]["value"] == 0.5
    assert p["peak_rss_mb"] > 0 and p["cpu_s"] > 0


def test_exit_code_and_unparsable_output_fail():
    cmds = [Command("a", ("x",), rc=0), Command("b", ("x",), rc=1)]
    errors = check_pass(cmds, [], {"a": (1, "{}"), "b": (1, "not json")}, ".")
    assert errors == {"a": ["exit code 1, expected 0"], "b": ["stdout is not JSON"]}


def test_cross_route_checks_blame_the_second_command():
    cmds = [Command("c4", ("x",)), Command("q2", ("x",)), Command("v", ("x",), rc=1)]
    outcomes = {"c4": (0, '{"count": "5"}'), "q2": (0, '{"count": "4"}'),
                "v": (1, '{"free": false}')}
    cross = [same("c4", "q2", "count"), verdict_matches_count("v", "c4")]
    assert list(check_pass(cmds, cross, outcomes, ".")) == ["q2"]
    outcomes["c4"] = (0, '{"count": "0"}')
    assert set(check_pass(cmds, cross, outcomes, ".")) == {"q2", "v"}


def test_expectations_match_pinned_mathematics():
    cmds, _ = workloads.zcycles({})
    words8 = next(c for c in cmds if c.key == "words-8")
    assert words8.expect["value"] == "191555159040"
    cmds, _ = workloads.certify({"r50": {"c4": 3, "c6": 0}, "r90": {"c4": 0, "c6": 2}})
    by_key = {c.key: c for c in cmds}
    assert by_key["count-r50-q2"].expect == {"count": "3"}
    assert by_key["verify-r50-c4"].rc == 1 and by_key["verify-r90-c6"].rc == 1
    assert all("--threads" in c.argv for c in cmds)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        spans.Span(0, None, "replay.command", 0.0, 10.0),
        spans.Span(1, 0, "counting.report", 1.0, 4.0),
        spans.Span(2, 1, "kernels.count", 2.0, 3.0),
        spans.Span(3, 0, "kernels.count", 3.0, 6.0),  # overlaps span 1, as a worker thread does
        spans.Span(4, 3, "kernels.count", 3.5, 4.5),  # nested call of the same name
    ]
    own = spans.self_times(recorded)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0}
    layers = spans.layer_self_times(recorded)
    assert layers == {"replay": 5.0, "counting": 2.0, "kernels": 4.0}
    # spans 1 and 3 run concurrently for 1.0 s, which both count as their own time
    assert sum(layers.values()) == spans.root_time(recorded) + 1.0 == 11.0
    incl = spans.inclusive_times(recorded)
    assert incl["kernels.count"] == 4.0  # 1 + 3; the nested 1.0 is inside span 3
    assert incl["counting.report"] == 3.0


def test_covered_clips_and_merges():
    assert spans.covered([(0, 2), (1, 3), (5, 9)], 1, 6) == 3
    assert spans.covered([], 0, 1) == 0


def test_disabled_tracer_records_nothing():
    t = spans.Tracer()
    work = t.wrap("kernels.count", lambda x: x + 1, lambda r, x: [("kernels.cycles_counted", r)])
    t.enabled = False
    with t.span("replay.command"):
        assert work(1) == 2
    assert t.spans == [] and not t.counts


def test_tracer_nests_spans_and_adopts_worker_threads():
    ticks = iter(range(100))
    t = spans.Tracer(clock=lambda: next(ticks))
    seen = []
    work = t.wrap("kernels.count", lambda x: x * 2, lambda r, x: [("kernels.cycles_counted", r)])
    with t.span("replay.command"):
        with t.span("counting.report"):
            seen.append(work(3))
            worker = threading.Thread(target=lambda: seen.append(work(5)))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s.name, []).append(s)
    report = by_name["counting.report"][0]
    assert [s.parent for s in by_name["kernels.count"]] == [report.id, report.id]
    assert report.parent == by_name["replay.command"][0].id
    assert seen == [6, 10] and t.counts["kernels.cycles_counted"] == 16


def test_layer_metrics_from_a_synthetic_trace():
    traced = {
        "spans": [[0, None, "replay.command", 0.0, 4.0], [1, 0, "search.total", 0.5, 3.5],
                  [2, 1, "search.copies", 1.0, 2.0], [3, 0, "search.reverify", 3.5, 4.0]],
        "counts": {"search.nodes": 600},
        "total_s": {"plain": 4.0, "traced": 4.5},
        "kernels": {"pure": {"seconds": 0.25, "results": []}},
    }
    m = run.layer_metrics(cli_wall=6.0, startup=0.1, rep=traced)
    assert m["cli.overhead_s"] == (2.0, "s")
    assert m["search.total_s"] == (3.0, "s") and m["search.copies_s"] == (1.0, "s")
    assert m["search.nodes_per_s"] == (200.0, "1/s")
    assert m["search.self_s"] == (3.5, "s")  # 2.0 in total, 1.0 in copies, 0.5 in reverify
    assert m["trace.overhead_s"] == (0.5, "s")
    names = {row["name"] for row in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert names == set(m)


def test_oracle_counts_on_full_cubes():
    for n, c4, c6 in ((3, 6, 16), (4, 24, 128)):
        keys = [oracle.edge_key(v, p, n) for p in range(n) for v in range(1 << n) if not v >> p & 1]
        assert oracle.count_short_cycles(n, keys, 4) == c4
        assert oracle.count_short_cycles(n, keys, 6) == c6
        assert oracle.count_full_subcubes(n, keys, 2) == c4
    assert oracle.count_full_subcubes(4, keys, 3) == 8
    assert oracle.is_cycle_in([0, 1, 3, 2], set(keys), 4)
    assert not oracle.is_cycle_in([0, 1, 3, 7], set(keys), 4)


def test_benchmark_without_the_package_exits_nonzero(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "zcycles",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_host_speed_scaling_uses_the_samples_around_the_interval():
    # loop times 0.03 s in [0, 10), then 0.015 s: the host got twice as fast at t=10
    samples = [(t / 10, 0.03 if t < 100 else 0.015) for t in range(200)]
    nominal = hostspeed.REF_NOMINAL_S
    assert abs(hostspeed.scale(4.0, samples, 2.0, 6.0) - 4.0 * nominal / 0.03) < 1e-9
    assert abs(hostspeed.scale(2.0, samples, 12.0, 14.0) - 2.0 * nominal / 0.015) < 1e-9
    # a short interval is widened to WINDOW_S, centred on it
    assert abs(hostspeed.loop_mean(samples, 10.6, 10.6) - 0.015) < 1e-12
    assert abs(hostspeed.loop_mean(samples, 9.95, 9.95) - 0.0225) < 1e-12
    # no sample in the window: the nearest ones
    assert abs(hostspeed.loop_mean(samples, 50.0, 50.1) - 0.015) < 1e-12


def test_sampler_child_is_stopped(tmp_path):
    with hostspeed.Sampler(tmp_path / "speed.txt") as sampler:
        assert sampler.samples()
        proc = sampler.proc
    assert proc.poll() is not None
