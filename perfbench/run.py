"""Benchmark command: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; d2moe is imported from ``src/``. The
command generates the workload's inputs from ``--seed``, times set-up in
separate processes, runs the workload in one worker process for ``--seconds``
and prints every metric with its unit. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). A results file with the raw op times and the machine
description goes to ``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gen_inputs import sample_block_model, write_graph_files
from workloads import END_TO_END, PER_LAYER, UNITS, WORKLOADS, smoke

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# Set-up is timed in two probe processes before the measuring worker and two
# after it, so the samples span the run; the median of the five is reported.
SETUP_PROBES_EACH_SIDE = 2
BLAS_THREADS = 1       # at most nproc; one thread keeps co-tenant noise out
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_worker(args, work_dir: Path, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return the process and
    its set-up time in seconds, from process start to that line."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--input", str(work_dir),
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup


def probe_setup(args, work_dir: Path) -> float:
    """Time one set-up in a worker that exits right after it."""
    proc, setup = start_worker(args, work_dir, ["--probe"])
    finish(proc)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return setup


def finish(proc: subprocess.Popen) -> str:
    """Read the rest of a worker's output and wait for it to exit."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def run(args) -> dict:
    if not (ROOT / "src" / "d2moe" / "__init__.py").is_file():
        raise BenchError(f"no d2moe source under {ROOT / 'src'}")
    w = smoke(WORKLOADS[args.workload]) if args.smoke else WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work_dir = OUT_DIR / "work" / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        if w.kind != "graph":
            write_graph_files(sample_block_model(w.graph, args.seed), work_dir)

        setups = [probe_setup(args, work_dir) for _ in range(SETUP_PROBES_EACH_SIDE)]
        trace_file = OUT_DIR / f"trace-{tag}.jsonl"
        extra = ["--trace", str(trace_file)] if args.trace else []
        proc, setup = start_worker(args, work_dir, extra)
        setups.append(setup)
        lines = finish(proc).strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker failed (exit {proc.returncode})")
        res = json.loads(lines[-1])
        setups += [probe_setup(args, work_dir) for _ in range(SETUP_PROBES_EACH_SIDE)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    times_ms = [t * 1e3 for t in res["op_times"]]
    if not times_ms:
        raise BenchError("no op completed")
    e2e = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": float(np.median(times_ms)),
        "op_ms_tail": float(np.percentile(times_ms, w.tail_pct)),
        "ops_per_s": len(times_ms) / res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "val_acc": res["val_acc"],
    }
    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine(),
        "setup_samples_s": setups, "tail_pct": w.tail_pct, "ops": len(times_ms),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / max(attempted, 1), "end_to_end": e2e,
        "per_layer": res.get("per_layer"), "op_ms": times_ms,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    if args.trace:
        print(res["table"])
        print(f"spans: {trace_file.relative_to(ROOT)}")
        shown = {n: res["per_layer"][n] for n in PER_LAYER}
        units = PER_LAYER
    else:
        shown, units = e2e, {n: UNITS[n] for n in END_TO_END}
    print(f"{args.workload} seed {args.seed}: {len(times_ms)} ops, "
          f"tail = p{w.tail_pct:g}, error_rate {record['error_rate']:.4f} fraction")
    for name, value in shown.items():
        print(f"  {name:<34} {value:14.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in shown.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs and few epochs, for the benchmark's tests")
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
