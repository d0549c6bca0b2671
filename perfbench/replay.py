"""Replay a workload's commands in-process as calls to the package's public functions.

Run as a child process with the built package on PYTHONPATH:

    python perfbench/replay.py <workload> <workdir> <inputs-json> <out-json> --benchmarks <dir>

The package's module attributes are wrapped from outside, so each call into a
layer can record a span; the package's own code is unchanged. Every command
runs twice, once with the spans switched off (in <workdir>-plain) and once
with them on (in <workdir>-traced), alternating which goes first, so the two
totals are measured side by side and their difference is the cost of the
spans. The result file holds both totals, each command's report fields from
both runs, the spans, the counters and the per-backend kernel timings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import nullcontext

from spans import Tracer
from workloads import BUILDERS, summary

from cubeturan import bounds, constructions, core, counting, search, verification, zwords
from cubeturan._kernels import backend_name
from cubeturan.cli import build_parser
from cubeturan.patterns import CYCLE, EDGE, SUBCUBE, parse_pattern


def instrument(t: Tracer) -> None:
    """Wrap every layer boundary the metrics name."""
    full_cube = t.wrap("core.full_cube", core.full_cube)
    for mod in (counting, constructions, search):
        mod.full_cube = full_cube
    counting.adjacency_lists = t.wrap("core.adjacency", core.adjacency_lists)
    core.load_subgraph = t.wrap("core.load", core.load_subgraph,
                                lambda g, *a: [("core.edges_loaded", g.edge_count)])
    core.save_subgraph = t.wrap("core.save", core.save_subgraph)
    build = constructions.ConstructionSpec.build
    constructions.ConstructionSpec.build = t.wrap(
        "constructions.build", build, lambda g, *a: [("constructions.edges_built", g.edge_count)])

    counting.count_cycles_kernel = t.wrap(
        "kernels.count", counting.count_cycles_kernel,
        lambda r, *a, **k: [("kernels.cycles_counted", r)])
    counting.find_cycle_kernel = t.wrap(
        "kernels.find", counting.find_cycle_kernel, lambda r, *a: [("kernels.find_nodes", r[1])])

    counting.count_copies_qk = t.wrap(
        "counting.subcube_scan", counting.count_copies_qk,
        lambda r, *a, **k: [("counting.subcubes_found", r)])
    counting.count_report = t.wrap("counting.report", counting.count_report)
    counting.z_kl = t.wrap("counting.z_kl", counting.z_kl,
                           lambda r, *a: [("counting.z_computed", 1)])
    get = counting.ZTable.get

    def traced_get(table, k, ell):
        # cold: the entry is in neither the memo nor the cache file it loaded
        with t.span("counting.z_warm" if (k, ell) in table else "counting.z_cold"):
            return get(table, k, ell)

    counting.ZTable.get = traced_get

    qk = t.wrap("verification.qk_free", verification.is_qk_free,
                lambda v, *a: [("verification.qk_checked", v.checked_count)])
    c2k = t.wrap("verification.c2k_free", verification.is_c2k_free,
                 lambda v, *a: [("verification.c2k_nodes", v.checked_count)])
    verification.is_qk_free = search.is_qk_free = qk
    verification.is_c2k_free = search.is_c2k_free = c2k

    zwords.count_z_words = t.wrap(
        "zwords.count", zwords.count_z_words,
        lambda r, ell: [("zwords.canonical_words", r // math.factorial(ell))])
    zwords.z_ll_via_words = t.wrap("zwords.z_ll", zwords.z_ll_via_words)

    search.pattern_copies = t.wrap("search.copies", search.pattern_copies)
    search.count_in_subgraph = t.wrap("counting.count", search.count_in_subgraph)
    search.exact_extremal = t.wrap("search.total", search.exact_extremal,
                                   lambda r, *a, **k: [("search.nodes", r.nodes_explored)])
    bounds.eval_bound = t.wrap("bounds.eval", bounds.eval_bound)


class Replayer:
    """One handler per CLI verb, calling the library the way the CLI does."""

    def __init__(self, tracer):
        self.t = tracer

    def ztable(self, args):
        if not args.z_cache:
            return counting.ZTable()
        with self.t.span("counting.z_warm") if os.path.exists(args.z_cache) else nullcontext():
            return counting.ZTable(args.z_cache)

    def construct(self, args):
        params = {k: getattr(args, k) for k in ("n", "k", "l", "m", "i", "j")
                  if getattr(args, k) is not None}
        if args.with_cycles:
            params["with_cycles"] = True
        if args.complement:
            params["complement"] = True
        spec = constructions.ConstructionSpec(args.kind, params)
        g = spec.build()
        core.save_subgraph(g, args.out)
        return {"edge_count": g.edge_count, "claimed_free_of": spec.claimed_free_of()}

    def verify(self, args):
        pattern = parse_pattern(args.forbid)
        g = core.load_subgraph(args.path)
        if pattern.kind == SUBCUBE:
            verdict = verification.is_qk_free(g, pattern.order)
        elif pattern.kind == CYCLE:
            verdict = verification.is_c2k_free(g, pattern.order // 2)
        else:
            raise ValueError("the workloads verify subcubes and cycles only")
        w = verdict.witness
        if w is None:
            witness = None
        elif isinstance(w, core.StarVector):
            witness = {"type": "subcube", "cells": w.cells}
        else:
            witness = {"type": "cycle", **w.to_json_dict()}
        return {"free": verdict.free, "witness": witness, "checked_count": verdict.checked_count}

    def count(self, args):
        g = core.load_subgraph(args.input) if args.input else None
        rep = counting.count_report(args.n, parse_pattern(args.pattern), g=g,
                                    z=self.ztable(args), threads=args.threads)
        return rep.to_json_dict()

    def zl(self, args):
        if args.method == "words":
            return {"value": str(zwords.z_ll_via_words(args.l))}
        k = args.k if args.k is not None else args.l
        return {"value": str(self.ztable(args).get(k, args.l))}

    def zwords(self, args):
        return {"count": str(zwords.count_z_words(args.l))}

    def search(self, args):
        target, forbid = parse_pattern(args.target), parse_pattern(args.forbid)
        result = search.exact_extremal(args.n, target, forbid, budget_nodes=args.budget_nodes,
                                       budget_seconds=args.budget_seconds, method=args.method)
        if args.witness_out:
            core.save_subgraph(result.witness, args.witness_out)
        with self.t.span("search.reverify"):
            g = result.witness
            if forbid.kind == EDGE:
                free = g.edge_count == 0
            elif forbid.kind == SUBCUBE:
                free = forbid.order > g.n or verification.is_qk_free(g, forbid.order).free
            else:
                free = verification.is_c2k_free(g, forbid.order // 2).free
            recount = counting.count_in_subgraph(g, target)
        if not free or recount != result.value:
            raise ValueError(f"witness failed re-verification (free={free}, recount={recount})")
        return result.to_json_dict()

    def density(self, args):
        result = search.exact_extremal(args.n, parse_pattern(args.target), parse_pattern(args.forbid),
                                       budget_nodes=args.budget_nodes,
                                       budget_seconds=args.budget_seconds)
        d = result.density
        return {"value": str(result.value), "density": {"num": str(d.numerator), "den": str(d.denominator)}}

    def bounds(self, args):
        params = {k: getattr(args, k) for k in ("n", "k", "l") if getattr(args, k) is not None}
        z = self.ztable(args)
        if "l" in params:
            z.get(params["l"], params["l"])  # filled in advance, so bounds.eval excludes z work
        sides = ("lower", "upper") if args.side == "both" else (args.side,)
        return {"bounds": [bounds.eval_bound(args.theorem, s, params, z=z).to_json_dict() for s in sides]}


def kernel_rows(benchmarks_dir: str) -> dict:
    """Time benchmarks/bench_kernels.py's workloads on every backend that imports."""
    sys.path.insert(0, benchmarks_dir)
    import bench_kernels

    backends = {"pure": bench_kernels._cycles_py}
    if bench_kernels._cycles_c is not None:
        backends["compiled"] = bench_kernels._cycles_c
    rows = {}
    for label, module in backends.items():
        results, t0 = [], time.perf_counter()
        for _, job in bench_kernels.workloads():
            results.append(job(module))
        rows[label] = {"seconds": time.perf_counter() - t0, "results": results}
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("workdir")
    ap.add_argument("inputs")
    ap.add_argument("out")
    ap.add_argument("--benchmarks", required=True, help="directory of bench_kernels.py")
    opts = ap.parse_args()

    with open(opts.inputs, encoding="utf-8") as fh:
        seeded = json.load(fh)
    cmds, _ = BUILDERS[opts.workload](seeded)
    tracer = Tracer()
    instrument(tracer)
    replayer = Replayer(tracer)
    parser = build_parser()
    modes = ("plain", "traced")
    # siblings of the pass directories, so `../inputs/` resolves the same way
    dirs = {m: os.path.abspath(f"{opts.workdir}-{m}") for m in modes}
    totals = {m: 0.0 for m in modes}
    results: dict = {m: {} for m in modes}
    errors: dict = {m: {} for m in modes}
    for i, c in enumerate(cmds):
        args = parser.parse_args(list(c.argv))
        for mode in modes if i % 2 == 0 else modes[::-1]:
            tracer.enabled = mode == "traced"
            os.makedirs(dirs[mode], exist_ok=True)
            os.chdir(dirs[mode])
            t0 = time.perf_counter()
            with tracer.span("replay.command"):
                try:
                    payload = getattr(replayer, args.verb)(args)
                except Exception as exc:  # report the failure and replay the rest
                    errors[mode][c.key] = repr(exc)
                    payload = None
            totals[mode] += time.perf_counter() - t0
            if payload is not None:
                results[mode][c.key] = summary(c.argv, payload)

    out = {
        "total_s": totals, "results": results, "errors": errors, "backend": backend_name(),
        "spans": [[s.id, s.parent, s.name, s.start, s.end] for s in tracer.spans],
        "counts": dict(tracer.counts),
        "kernels": kernel_rows(opts.benchmarks),
    }
    with open(opts.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
