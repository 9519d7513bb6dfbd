#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, summarized in one file.

    tools/bench_pairs.py PARENT CHANGE --workload W [--workload W ...] \\
        --seeds 80-85 [--seconds 40] --out BENCH_<topic>.json

At each seed, for each workload in the order given, one pair of untraced
runs is made, one at a time: the parent runs first in even pairs and the
change first in odd ones, so drift in the machine's load falls on both sides.
Each run is ``python3 perfbench/run.py --trace 0`` started as a subprocess in
its own checkout, and its record is read from that checkout's
``.perfbench_out/result-W-sN-t0.json``. A run that exits non-zero is recorded
with its exit code and the last line it wrote to stderr, and its pair is left
out of the metric lists; no run is dropped.

The output follows the committed ``BENCH_*.json`` schema: ``machine``,
``runs``, and per workload the seeds, the failed ops and failed runs of each
side and, for every end-to-end metric of the parent's ``BENCHMARK.json``, both
lists, the medians, the quartiles (``*_q1_q3``), ``change_better_pairs`` (in
the metric's declared direction), ``tied_pairs`` and ``median_change_pct``;
then one headline line per metric and every run's record. ``topic``,
``parent``, ``change``, ``claim`` and ``claim_note`` are left null for the
author. The file is rewritten after every pair, so an interrupted session
keeps the pairs it finished. The tool reports and never gates; it imports
nothing from ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

DIGITS = 4  # metric values, medians and quartiles are rounded to this many places


def parse_seeds(text: str) -> list[int]:
    """``80-85`` (inclusive) or one seed."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def end_to_end_metrics(checkout: Path) -> dict[str, str]:
    """Each end-to-end metric of the checkout's BENCHMARK.json with the
    direction that is better, ``lower`` or ``higher``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             pair: int, ran_first: bool) -> dict:
    """One untraced run from ``checkout``: its compact record, or its exit
    code and last stderr line when it fails."""
    result = checkout / ".perfbench_out" / f"result-{workload}-s{seed}-t0.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    entry = {"workload": workload, "seed": seed, "pair": pair, "ran_first": ran_first}
    if proc.returncode != 0 or not result.is_file():
        lines = proc.stderr.strip().splitlines()
        return {**entry, "exit_code": proc.returncode, "error": lines[-1] if lines else ""}
    rec = json.loads(result.read_text())
    return {**entry, "attempted": rec["attempted"], "failed": rec["failed"],
            "correct": rec["failed"] == 0,
            "setup_samples_s": [round(x, DIGITS) for x in rec["setup_samples_s"]],
            "end_to_end": {k: round(v, DIGITS) for k, v in rec["end_to_end"].items()},
            "machine": rec["machine"]}


def metric_summary(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' values of one metric, pair by pair, and their comparison."""
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    return {
        "parent": parent,
        "change": change,
        "parent_median": round(pm, DIGITS),
        "parent_q1_q3": [round(float(q), DIGITS) for q in np.percentile(parent, [25, 75])],
        "change_median": round(cm, DIGITS),
        "change_q1_q3": [round(float(q), DIGITS) for q in np.percentile(change, [25, 75])],
        "change_better_pairs": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "tied_pairs": sum(p == c for p, c in zip(parent, change)),
        "median_change_pct": round((cm / pm - 1.0) * 100.0, 2) if pm else None,
    }


def workload_summary(parent: list[dict], change: list[dict], metrics: dict[str, str]) -> dict:
    """One workload's records, pair by pair (``parent[i]`` and ``change[i]``
    ran at the same seed). Only pairs in which both runs finished enter the
    metric lists."""
    both = [(p, c) for p, c in zip(parent, change)
            if "exit_code" not in p and "exit_code" not in c]
    out = {
        "seeds": [p["seed"] for p in parent],
        "failed_ops": {side: sum(r.get("failed", 0) for r in runs)
                       for side, runs in (("parent", parent), ("change", change))},
        "failed_runs": {side: sum("exit_code" in r for r in runs)
                        for side, runs in (("parent", parent), ("change", change))},
    }
    if both:
        for name, better in metrics.items():
            out[name] = metric_summary([p["end_to_end"][name] for p, _ in both],
                                       [c["end_to_end"][name] for _, c in both], better)
    return out


def headline(summary: dict) -> str:
    pct = summary["median_change_pct"]
    q1, q3 = summary["parent_q1_q3"]
    return (f"{summary['parent_median']} -> {summary['change_median']} "
            f"({'n/a' if pct is None else f'{pct:+.2f}%'}), change better in "
            f"{summary['change_better_pairs']}/{len(summary['parent'])} pairs, "
            f"parent IQR [{q1}, {q3}]")


def report(results: dict[str, list[dict]], workloads: list[str], seconds: float,
           metrics: dict[str, str], machine: dict | None) -> dict:
    """The BENCH file for the records made so far."""
    summary = {w: workload_summary([r for r in results["parent"] if r["workload"] == w],
                                   [r for r in results["change"] if r["workload"] == w],
                                   metrics)
               for w in workloads}
    return {
        "topic": None, "parent": None, "change": None,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                   f"--trace 0",
        "claim": None, "claim_note": None,
        "runs": (f"Untraced, {seconds:g} s each, one run at a time, each side from its own "
                 f"checkout: at each seed, {', then '.join(workloads)} as alternating pairs "
                 f"(parent first on even pairs, change first on odd pairs). Every run made is "
                 f"listed under results; none was dropped."),
        "machine": machine,
        "summary": summary,
        "headline": {w: {name: headline(s[name]) for name in metrics if name in s}
                     for w, s in summary.items()},
        "results": results,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="source checkout of the parent commit")
    ap.add_argument("change", type=Path, help="source checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a BENCHMARK.json workload; repeat for several")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="80-85, inclusive")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end_metrics(checkouts["parent"])

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    machine = None
    for pair, seed in enumerate(args.seeds):
        for workload in args.workload:
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                rec = run_once(checkouts[side], workload, seed, args.seconds, pair,
                               ran_first=side == order[0])
                machine = rec.pop("machine", None) or machine
                results[side].append(rec)
                shown = rec.get("end_to_end", {}).get("op_ms_p50", f"exit {rec.get('exit_code')}")
                print(f"pair {pair} {workload} seed {seed} {side}: op_ms_p50 {shown}",
                      file=sys.stderr)
            out = report(results, args.workload, args.seconds, metrics, machine)
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
