"""The benchmark's tracer around a small ``fit``: its wrappers index the
positional arguments of ``Tape.matmul`` and ``Tape.spmm`` to count FLOPs, so
a change to either signature fails in this suite, not only in perfbench's."""

import importlib.util
from pathlib import Path

from d2moe.graph import SbmSpec, generate_sbm, split_nodes
from d2moe.moe_core import ModelConfig
from d2moe.training import TrainConfig, fit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_fit_counts_flops_and_restores_every_name():
    tracing = _load_tracing()
    g = split_nodes(generate_sbm(SbmSpec(n=40, classes=2, dim=4, p_in=0.2, p_out=0.05,
                                         signal=1.5, seed=0)), (0.5, 0.25, 0.25), seed=1)
    cfg = ModelConfig(in_dim=4, hidden=8, classes=2, experts=3, layers=1,
                      expert_layout="half_half")
    tracer = tracing.Tracer()
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in tracing._replacements(tracer)]
    assert {attr for _, attr, _ in originals} >= {"matmul", "spmm", "forward"}
    with tracing.patched(tracer):
        fit(g, cfg, TrainConfig(max_epochs=2, patience=2))
    counts = tracer.counts[tracing.SETUP_OP]
    assert counts["numerics.matmul.flop"] > 0
    assert counts["numerics.spmm.flop"] > 0
    assert not tracer._stack
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr
