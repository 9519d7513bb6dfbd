"""Outside-in tracing of d2moe: spans around calls into each layer.

``patched(tracer)`` swaps wrappers into the d2moe names the workloads reach
(Tape methods, the names ``fit`` and ``evaluate`` look up, ``ModelParams.copy``
and the graph and checkpoint entry points) and restores the originals on exit,
so an untraced run measures unpatched code. Spans are kept in memory as
(name, start, end, parent, op) and written out when the run ends.

A span's self time is its duration minus the time its child spans cover; what
no child accounts for stays in the parent's self time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SETUP_OP = -1  # op id of spans recorded before the first op starts


class Tracer:
    """In-memory span and counter store for one run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = SETUP_OP
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed while "
                               f"{self.names[top]!r} is open")

    def begin_op(self, name: str) -> int:
        """Open the root span of the next op."""
        self.op += 1
        return self.open(name)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.op][name] += value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i],
                                     "op": self.ops[i]}) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


# ---- wrappers -------------------------------------------------------------


def _traced(tracer: Tracer, name, fn, after=None):
    """Wrap ``fn`` in a span. ``name`` may be a function of the call's
    arguments; ``after(args, kwargs, result)`` records counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "train")
    return f"moe_core.forward_{mode}"


def _tape_primitives(tape_cls) -> list[str]:
    """Public Tape methods that record a step; ``leaf`` only registers a value."""
    return [n for n, v in vars(tape_cls).items()
            if callable(v) and not n.startswith("_") and n not in ("leaf", "backward")]


def _replacements(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every name the trace patches."""
    from d2moe import graph, moe_core, numerics, training

    def tape_counter(op):
        def after(args, kwargs, out):
            tracer.count("numerics.tape_ops")
            tracer.count(f"numerics.{op}.calls")
            if op == "spmm":
                tracer.count("numerics.spmm.flop", 2 * args[1].nnz * args[3].shape[1])
            elif op == "matmul":
                a, b = args[1].shape, args[2].shape
                tracer.count("numerics.matmul.flop", 2 * a[0] * a[1] * b[1])
        return after

    def routing_counter(args, kwargs, out):
        for lt in out.trace.layers:
            tracer.count("moe_core.selected_pairs", int(lt.selected.sum()))
            tracer.count("moe_core.node_expert_slots", lt.selected.size)
            tracer.count("moe_core.node_layers", lt.selected.shape[0])

    def nnz_counter(args, kwargs, out):
        tracer.count("graph.adj_nnz", out.adj.nnz)

    out = []
    for op in _tape_primitives(numerics.Tape):
        out.append((numerics.Tape, op, _traced(tracer, f"numerics.{op}",
                                               getattr(numerics.Tape, op), tape_counter(op))))
    out.append((numerics.Tape, "backward",
                _traced(tracer, "numerics.backward", numerics.Tape.backward)))
    for module in (training, moe_core):
        out.append((module, "forward", _traced(tracer, _forward_name, module.forward,
                                               routing_counter)))
    for name in ("losses_on_tape", "clip_global_norm", "adamw_step"):
        out.append((training, name, _traced(tracer, f"training.{name}",
                                            getattr(training, name))))
    for module in (training, moe_core):
        out.append((module, "predictive_entropy",
                    _traced(tracer, "moe_core.predictive_entropy", module.predictive_entropy)))
    for name in ("select_top_p_batch", "top_k_mask"):
        out.append((moe_core, name, _traced(tracer, "moe_core.select", getattr(moe_core, name))))
    for name in ("evaluate", "save_checkpoint", "load_checkpoint"):
        out.append((moe_core, name, _traced(tracer, f"moe_core.{name}",
                                            getattr(moe_core, name))))
    out.append((moe_core.ModelParams, "copy",
                _traced(tracer, "moe_core.params_copy", moe_core.ModelParams.copy)))
    for name in ("generate_sbm", "split_nodes", "write_graph"):
        out.append((graph, name, _traced(tracer, f"graph.{name}", getattr(graph, name))))
    out.append((graph, "load_graph_dir", _traced(tracer, "graph.load_graph_dir",
                                                 graph.load_graph_dir, nnz_counter)))
    return out


@contextmanager
def patched(tracer: Tracer):
    """Install the trace wrappers; restore every original on exit."""
    saved = []
    try:
        for owner, attr, wrapper in _replacements(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---- per-layer metrics ----------------------------------------------------


def _self_ms(tracer: Tracer) -> tuple[Counter, Counter, Counter]:
    """Self time in ms by span name, in set-up and inside ops, and the number
    of spans of each name inside ops."""
    setup_ms: Counter = Counter()
    op_ms: Counter = Counter()
    op_calls: Counter = Counter()
    for name, op, t in zip(tracer.names, tracer.ops,
                           self_times(tracer.starts, tracer.ends, tracer.parents)):
        if op == SETUP_OP:
            setup_ms[name] += t * 1e3
        else:
            op_ms[name] += t * 1e3
            op_calls[name] += 1
    return setup_ms, op_ms, op_calls


def layer_metrics(tracer: Tracer, names, n_ops: int, window: int) -> dict[str, float]:
    """Per-layer metrics named in ``names``.

    ``<span>.ms`` is the span's self time in set-up (once) plus its self time
    inside ops divided by ``n_ops``; ``training.epoch_self`` reads the
    ``training.epoch`` op spans. Counts are per op over ops ``0 .. window-1``,
    which every run with one seed repeats exactly.
    """
    setup_ms, op_ms, _ = _self_ms(tracer)
    ops = max(n_ops, 1)
    done = min(window, n_ops)
    window_total: Counter = Counter()
    for op in range(done):
        window_total.update(tracer.counts.get(op, {}))
    counts: Counter = Counter(tracer.counts.get(SETUP_OP, {}))
    for k, v in window_total.items():
        counts[k] += v / done  # sum first, so whole counts stay exact

    out = {}
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if kind == "ms":
            span = "training.epoch" if base == "training.epoch_self" else base
            out[metric] = setup_ms[span] + op_ms[span] / ops
        elif metric == "moe_core.selected_pair_share":
            slots = counts["moe_core.node_expert_slots"]
            out[metric] = counts["moe_core.selected_pairs"] / slots if slots else 0.0
        elif metric == "moe_core.active_experts_mean":
            rows = counts["moe_core.node_layers"]
            out[metric] = counts["moe_core.selected_pairs"] / rows if rows else 0.0
        else:
            out[metric] = float(counts[metric])
    return out


def self_time_table(tracer: Tracer, n_ops: int) -> str:
    """Per-layer table of self time per op, calls per op and share of the
    traced op time, one block per layer, largest self time first."""
    _, ms, calls = _self_ms(tracer)
    ops = max(n_ops, 1)
    total = sum(ms.values()) or 1.0
    by_layer = defaultdict(list)
    for name in ms:
        by_layer[name.split(".")[0]].append(name)
    lines = [f"self time per op over {n_ops} ops (traced op total "
             f"{total / ops:.3f} ms)"]
    for layer in sorted(by_layer):
        lines.append(f"[{layer}]")
        for name in sorted(by_layer[layer], key=lambda n: -ms[n]):
            lines.append(f"  {name:<34} {ms[name] / ops:10.3f} ms  "
                         f"{calls[name] / ops:8.2f} calls  {100 * ms[name] / total:5.1f}%")
    return "\n".join(lines)
