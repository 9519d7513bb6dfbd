"""One workload in one process: set up, run ops for a fixed time, check them.

Run by ``run.py``; not meant to be started by hand. The process prints
``ready`` once set-up is done (the parent times process start to that line),
then, unless ``--probe`` was given, runs the timed loop in a closed loop with
one client and prints one JSON line with the raw op times, the checks and, when
traced, the per-layer metrics.

An op is one epoch (``train``), one ``evaluate`` call (``eval``) or one graph
round trip (``graph``). It fails if it raises or its check fails; failed ops
count in ``failed`` and are left out of the op times.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from gen_inputs import SPLIT
from workloads import PER_LAYER, WORKLOADS, smoke

SIGMAS = 6.0  # width of the binomial bounds; a false alarm has odds near 1e-9


class _TimeUp(Exception):
    """Raised from the epoch hook to stop a fit when the run's time is up."""


class OpClock:
    """Times ops and counts failures; with a tracer, each op is a root span."""

    def __init__(self, tracer, span_name: str):
        self.tracer = tracer
        self.span_name = span_name
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.running = False
        self._span = None
        self._t0 = 0.0

    def start(self) -> None:
        if self.tracer is not None:
            self._span = self.tracer.begin_op(self.span_name)
        self.running = True
        self._t0 = time.perf_counter()

    def stop(self, ok: bool) -> None:
        dt = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.close(self._span)
        self.running = False
        self.attempted += 1
        if ok:
            self.times.append(dt)
        else:
            self.failed += 1


# ---- checks ---------------------------------------------------------------


def _binomial_ok(observed: float, trials: float, p: float) -> bool:
    sd = math.sqrt(trials * p * (1.0 - p))
    return abs(observed - trials * p) <= SIGMAS * max(sd, 1.0)


def graph_stats_ok(g, spec) -> bool:
    """Edge count and edge homophily within binomial bounds of the spec.
    Statistical, so any correct sampler passes, not only today's."""
    sizes = np.bincount(g.labels, minlength=spec.classes).astype(float)
    within_pairs = float((sizes * (sizes - 1) / 2).sum())
    between_pairs = float((sizes.sum() ** 2 - (sizes ** 2).sum()) / 2)
    mean_e = within_pairs * spec.p_in + between_pairs * spec.p_out
    sd_e = math.sqrt(within_pairs * spec.p_in * (1 - spec.p_in)
                     + between_pairs * spec.p_out * (1 - spec.p_out))
    e = g.raw_edges.shape[0]
    if abs(e - mean_e) > SIGMAS * max(sd_e, 1.0):
        return False
    same = int((g.labels[g.raw_edges[:, 0]] == g.labels[g.raw_edges[:, 1]]).sum())
    return _binomial_ok(same, e, within_pairs * spec.p_in / mean_e)


def graphs_equal(a, b) -> bool:
    return (a.n == b.n and a.n_classes == b.n_classes
            and np.array_equal(a.raw_edges, b.raw_edges)
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and all(np.array_equal(getattr(a, m), getattr(b, m))
                    for m in ("train_mask", "val_mask", "test_mask")))


def eval_ok(report, reference) -> bool:
    """Finite probabilities whose rows sum to 1, at least one expert per node
    in every layer, and bit-identical to the first call."""
    p = report.probs
    if not np.all(np.isfinite(p)) or not np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-9):
        return False
    if any((lt.selected.sum(axis=1) < 1).any() for lt in report.trace.layers):
        return False
    return reference is None or (np.array_equal(p, reference.probs)
                                 and np.array_equal(report.predictions, reference.predictions))


def nearest_mean_val_acc(g) -> float:
    """Validation accuracy of a nearest-class-mean classifier fit on the train
    split. It is ``val_acc`` where no model trains: a guard that the loaded
    features still carry the labels."""
    train = g.train_mask
    means = np.stack([g.features[train & (g.labels == c)].mean(axis=0)
                      for c in range(g.n_classes)])
    val = g.features[g.val_mask]
    pred = np.argmin(((val[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    return float((pred == g.labels[g.val_mask]).mean())


# ---- workloads ------------------------------------------------------------


def model_config(d2moe, w, g):
    return d2moe.ModelConfig(in_dim=g.dim, hidden=w.hidden, classes=g.n_classes,
                             experts=w.experts, layers=w.layers)


def run_train(d2moe, w, g, seed, deadline, clock):
    mcfg = model_config(d2moe, w, g)
    tcfg = d2moe.TrainConfig(max_epochs=w.epochs, patience=w.epochs, seed=seed)
    first = None

    def hook(epoch, report, **_):
        losses = (report.loss_task, report.loss_re, report.loss_lb, report.loss_total)
        clock.stop(ok=all(math.isfinite(x) for x in losses))
        if epoch + 1 < w.epochs:
            if first is not None and time.perf_counter() >= deadline:
                raise _TimeUp
            clock.start()

    while first is None or time.perf_counter() < deadline:
        clock.start()
        try:
            state = d2moe.training.fit(g, mcfg, tcfg, epoch_hook=hook)
        except _TimeUp:
            break
        except Exception as exc:  # the op in flight failed; keep measuring
            print(f"fit failed: {exc!r}", file=sys.stderr)
            if clock.running:
                clock.stop(ok=False)
            else:
                clock.failed += 1
            if first is None:
                break
            continue
        final = state.history[-1]
        if first is None:
            first = final
        elif (final.acc_val, final.loss_total) != (first.acc_val, first.loss_total):
            clock.failed += 1  # a repeated fit must reproduce the first exactly
    return first.acc_val if first is not None else 0.0


def run_eval(d2moe, g, params, deadline, clock):
    reference = None
    while reference is None or time.perf_counter() < deadline:
        clock.start()
        try:
            report = d2moe.moe_core.evaluate(params, g)
        except Exception as exc:
            print(f"evaluate failed: {exc!r}", file=sys.stderr)
            clock.stop(ok=False)
            if reference is None:
                break
            continue
        clock.stop(ok=eval_ok(report, reference))
        if reference is None:
            reference = report
    return nearest_mean_val_acc(g)


def run_graph(d2moe, w, seed, work_dir, deadline, clock):
    gm = w.graph
    spec = d2moe.SbmSpec(n=gm.n, classes=gm.classes, dim=gm.dim, p_in=gm.p_in,
                         p_out=gm.p_out, signal=gm.signal, seed=seed)
    graph = d2moe.graph
    acc = None
    while acc is None or time.perf_counter() < deadline:
        with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
            clock.start()
            try:
                written = graph.split_nodes(graph.generate_sbm(spec), SPLIT,
                                            seed=seed + 1)
                graph.write_graph(written, tmp)
                loaded = graph.load_graph_dir(tmp)
            except Exception as exc:
                print(f"graph round trip failed: {exc!r}", file=sys.stderr)
                clock.stop(ok=False)
                if acc is None:
                    return 0.0
                continue
            clock.stop(ok=graphs_equal(written, loaded) and graph_stats_ok(loaded, spec))
        if acc is None:
            acc = nearest_mean_val_acc(loaded)
    return acc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--input", required=True,
                    help="work directory; holds the graph files of the model workloads")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", help="write spans here and report per-layer metrics")
    ap.add_argument("--probe", action="store_true", help="exit after set-up")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    work_dir = Path(args.input)

    import d2moe

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics, patched, self_time_table
        tracer = Tracer()
    with patched(tracer) if tracer is not None else nullcontext():
        g = params = None
        if w.kind != "graph":
            g = d2moe.graph.load_graph_dir(work_dir)
        if w.kind == "eval":
            ckpt = work_dir / "model.ckpt"
            d2moe.moe_core.save_checkpoint(d2moe.moe_core.init_params(
                model_config(d2moe, w, g), np.random.default_rng(args.seed)), ckpt)
            params = d2moe.moe_core.load_checkpoint(ckpt)
        print("ready", flush=True)
        if args.probe:
            return 0

        clock = OpClock(tracer, "training.epoch" if w.kind == "train" else "bench.op")
        t0 = time.perf_counter()
        deadline = t0 + args.seconds
        if w.kind == "train":
            val_acc = run_train(d2moe, w, g, args.seed, deadline, clock)
        elif w.kind == "eval":
            val_acc = run_eval(d2moe, g, params, deadline, clock)
        else:
            val_acc = run_graph(d2moe, w, args.seed, work_dir, deadline, clock)
        wall = time.perf_counter() - t0

    out = {
        "op_times": clock.times, "attempted": clock.attempted, "failed": clock.failed,
        "wall_s": wall, "val_acc": val_acc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        ops = tracer.op + 1
        names = [n for n in PER_LAYER if not n.startswith("trace.")]
        out["per_layer"] = layer_metrics(tracer, names, ops, w.count_window)
        out["per_layer"]["trace.op_ms_p50"] = float(np.median(clock.times) * 1e3) \
            if clock.times else 0.0
        out["table"] = self_time_table(tracer, ops)
        tracer.write(args.trace)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
