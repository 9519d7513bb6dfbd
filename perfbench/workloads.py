"""The four benchmark workloads and the metric names they report.

BENCHMARK.json lists the two training workloads; the other two run by hand.
Why each workload exists is in README.md; the numbers here are its inputs.
Nothing in this module imports d2moe, so the orchestrating process stays light.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from gen_inputs import BlockModel

# The acceptance fixture (n=1000, p_in=0.01, p_out=0.03, signal 1.25) has mean
# degree 25 and edge homophily 0.1. Scaling both probabilities by
# (1000 / n) * (mean_degree / 25) gives that mean degree at any n and keeps the
# homophily.


def fixture_block_model(n: int, mean_degree: float = 25.0) -> BlockModel:
    scale = 1000.0 / n * mean_degree / 25.0
    return BlockModel(n=n, classes=4, dim=16, p_in=0.01 * scale, p_out=0.03 * scale,
                      signal=1.25)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "train", "eval" or "graph"
    graph: BlockModel
    hidden: int = 32
    experts: int = 4
    layers: int = 2
    epochs: int = 0              # train: epochs per fit, patience equal
    tail_pct: float = 90.0       # percentile reported as op_ms_tail

    @property
    def count_window(self) -> int:
        """Ops whose counters define the count metrics: the first fit for
        training (every fit repeats it exactly), else the first op."""
        return self.epochs if self.kind == "train" else 1


# Tail percentiles leave at least ten ops beyond them at the slowest op rates
# seen on a 2-core sandbox in a 40 s run: about 95 epochs of either training
# workload, 210 evaluations and 53 round trips.
WORKLOADS = {
    w.name: w for w in (
        Workload("train_aggregate", "train", fixture_block_model(8000),
                 hidden=32, experts=4, epochs=50, tail_pct=85.0),
        Workload("train_experts", "train", fixture_block_model(2000, mean_degree=4.0),
                 hidden=128, experts=8, epochs=30, tail_pct=85.0),
        # The last two run by hand but are left out of BENCHMARK.json: their
        # memory-bound ops swing up to 1.8x with the machine's speed phases
        # (see README.md).
        Workload("eval_adaptive", "eval", fixture_block_model(8000), tail_pct=90.0),
        Workload("graph_roundtrip", "graph", fixture_block_model(4000), tail_pct=80.0),
    )
}


def smoke(w: Workload) -> Workload:
    """A tiny version of a workload, for the benchmark's own tests."""
    g = w.graph
    small = fixture_block_model(200, mean_degree=g.n * (g.p_in + 3 * g.p_out) / 4)
    return replace(w, graph=small, hidden=min(w.hidden, 16),
                   epochs=min(w.epochs, 3), tail_pct=50.0)


END_TO_END = ("setup_s", "op_ms_p50", "op_ms_tail", "ops_per_s", "peak_rss_mb",
              "val_acc")
UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s",
         "peak_rss_mb": "MB", "val_acc": "fraction"}

# Per-layer metrics: ".ms" is self time in ms per op (per set-up for spans
# that run only in set-up); the rest are counts per op over the count window.
# Spans the training workloads never reach (evaluate, the checkpoint calls,
# generate_sbm, write_graph) would read 0 on every benchmark run, so they
# appear only in the traced run's self-time table.
_MS = ("numerics.spmm", "numerics.matmul", "numerics.mix", "numerics.backward",
       "numerics.add_bias", "numerics.relu", "numerics.dropout", "numerics.softmax_rows",
       "numerics.renorm_masked", "moe_core.forward_train", "moe_core.forward_eval",
       "moe_core.select", "moe_core.predictive_entropy", "moe_core.params_copy",
       "training.losses_on_tape", "training.clip_global_norm", "training.adamw_step",
       "training.epoch_self", "graph.load_graph_dir")
PER_LAYER = {
    **{f"{span}.ms": "ms" for span in _MS},
    "numerics.spmm.calls": "count", "numerics.spmm.flop": "flop",
    "numerics.matmul.calls": "count", "numerics.matmul.flop": "flop",
    "numerics.tape_ops": "count",
    "moe_core.selected_pair_share": "fraction", "moe_core.active_experts_mean": "experts",
    "graph.adj_nnz": "count",
    "trace.op_ms_p50": "ms",  # traced op median; minus the untraced one = overhead
}
