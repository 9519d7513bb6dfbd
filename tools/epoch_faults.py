#!/usr/bin/env python3
"""Minor page faults and time per training epoch, one line per fit.

    PYTHONPATH=src tools/epoch_faults.py GRAPH_DIR --hidden H --experts K \\
        --epochs E --fits N --seed S

Loads the graph ``d2moe.load_graph_dir`` reads from GRAPH_DIR, then runs
``fit`` N times in this one process under one BLAS thread, with E epochs and
patience E, two mixture layers (the benchmark's training workloads' depth),
the model and training seeds from S and every other setting at its default.
An epoch runs from the previous epoch's hook (the first from just before
``fit`` is called) to its own hook. Per fit it prints

    fit=I faults_p50=F faults_max=F share_over_100=X epoch_ms_p50=T maxrss_mb=M

the median and largest minor-fault count per epoch, the share of epochs with
more than 100 faults, the median epoch time and the process's ``ru_maxrss``
after the fit. It imports d2moe from the Python path, so pointing PYTHONPATH
at another checkout's ``src`` measures that checkout.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS

import argparse
import resource
import time

import numpy as np

import d2moe

FAULT_LINE = 100  # an epoch above this many minor faults counts in share_over_100


def fit_faults(g, mcfg, tcfg) -> tuple[np.ndarray, np.ndarray]:
    """Minor faults and seconds per epoch of one ``fit``."""
    faults, times = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt], [time.perf_counter()]

    def hook(**_):
        times.append(time.perf_counter())
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    d2moe.fit(g, mcfg, tcfg, epoch_hook=hook)
    return np.diff(faults), np.diff(times)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("graph_dir")
    ap.add_argument("--hidden", type=int, required=True)
    ap.add_argument("--experts", type=int, required=True)
    ap.add_argument("--epochs", type=int, required=True)
    ap.add_argument("--fits", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    g = d2moe.load_graph_dir(args.graph_dir)
    mcfg = d2moe.ModelConfig(in_dim=g.dim, hidden=args.hidden, classes=g.n_classes,
                             experts=args.experts, layers=2)
    tcfg = d2moe.TrainConfig(max_epochs=args.epochs, patience=args.epochs, seed=args.seed)
    for i in range(args.fits):
        faults, seconds = fit_faults(g, mcfg, tcfg)
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"fit={i} faults_p50={np.median(faults):g} faults_max={faults.max()} "
              f"share_over_100={np.mean(faults > FAULT_LINE):.3f} "
              f"epoch_ms_p50={np.median(seconds) * 1e3:.1f} maxrss_mb={maxrss_mb:.1f}",
              flush=True)


if __name__ == "__main__":
    main()
