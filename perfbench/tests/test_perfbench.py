"""Tests of the benchmark itself: inputs, tracing arithmetic, wrappers and the
command end to end in its smoke mode.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import d2moe
from d2moe import graph, moe_core, numerics, training
from gen_inputs import BlockModel, _triangle_pairs, sample_block_model, write_graph_files
from tracing import SETUP_OP, Tracer, layer_metrics, patched, self_time_table, self_times
from worker import graph_stats_ok, graphs_equal
from workloads import END_TO_END, PER_LAYER, UNITS, WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SMALL = BlockModel(n=300, classes=4, dim=5, p_in=0.02, p_out=0.06, signal=1.0)


# ---- inputs ---------------------------------------------------------------


def test_triangle_decode_matches_triu_indices():
    for m in (2, 3, 7, 64, 1001):
        i, j = _triangle_pairs(np.arange(m * (m - 1) // 2), m)
        ti, tj = np.triu_indices(m, 1)
        assert np.array_equal(i, ti) and np.array_equal(j, tj)


def test_generator_is_deterministic_per_seed():
    a, b = sample_block_model(SMALL, 7), sample_block_model(SMALL, 7)
    for field in ("edges", "features", "labels", "split"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = sample_block_model(SMALL, 8)
    assert not np.array_equal(a.edges, c.edges) or not np.array_equal(a.labels, c.labels)


def test_generated_files_load_unchanged_and_match_the_spec(tmp_path):
    g = sample_block_model(SMALL, 3)
    loaded = d2moe.load_graph_dir(write_graph_files(g, tmp_path))
    assert np.array_equal(loaded.raw_edges, g.edges)
    assert np.array_equal(loaded.features, g.features)
    assert np.array_equal(loaded.labels, g.labels)
    assert loaded.train_mask.sum() and loaded.val_mask.sum() and loaded.test_mask.sum()
    spec = d2moe.SbmSpec(n=SMALL.n, classes=4, dim=5, p_in=SMALL.p_in, p_out=SMALL.p_out,
                         signal=1.0, seed=0)
    assert graph_stats_ok(loaded, spec)


def test_graph_checks_reject_wrong_graphs():
    spec = d2moe.SbmSpec(n=400, classes=4, dim=3, p_in=0.02, p_out=0.06, signal=1.0, seed=1)
    g = d2moe.generate_sbm(spec)
    assert graph_stats_ok(g, spec)
    assert not graph_stats_ok(g, d2moe.SbmSpec(**{**vars(spec), "p_out": 0.12}))
    assert not graph_stats_ok(g, d2moe.SbmSpec(**{**vars(spec), "p_in": 0.06, "p_out": 0.05}))
    other = d2moe.generate_sbm(d2moe.SbmSpec(**{**vars(spec), "seed": 2}))
    assert graphs_equal(g, g) and not graphs_equal(g, other)


# ---- tracing --------------------------------------------------------------


def _synthetic_tracer() -> Tracer:
    """Set-up span load [0, 2]; two ops [10, 20] and [20, 26], each with
    children; op 0's child ``b`` has a grandchild ``c``."""
    t = Tracer()
    rows = [  # name, start, end, parent, op
        ("graph.load_graph_dir", 0.0, 2.0, -1, SETUP_OP),
        ("training.epoch", 10.0, 20.0, -1, 0),
        ("numerics.spmm", 11.0, 14.0, 1, 0),
        ("training.adamw_step", 15.0, 19.0, 1, 0),
        ("numerics.spmm", 16.0, 17.0, 3, 0),
        ("training.epoch", 20.0, 26.0, -1, 1),
        ("numerics.spmm", 21.0, 23.0, 5, 1),
    ]
    for name, start, end, parent, op in rows:
        t.names.append(name)
        t.starts.append(start / 1e3)
        t.ends.append(end / 1e3)
        t.parents.append(parent)
        t.ops.append(op)
    t.op = 1
    t.counts[SETUP_OP]["graph.adj_nnz"] = 50
    t.counts[0].update({"numerics.spmm.calls": 2, "numerics.spmm.flop": 100})
    t.counts[1].update({"numerics.spmm.calls": 1, "numerics.spmm.flop": 40})
    return t


def test_self_time_subtracts_direct_children_only():
    t = _synthetic_tracer()
    own = [round(x * 1e3, 9) for x in self_times(t.starts, t.ends, t.parents)]
    # epoch 0: 10 - 3 (spmm) - 4 (adamw); adamw: 4 - 1 (nested spmm)
    assert own == [2.0, 3.0, 3.0, 3.0, 1.0, 4.0, 2.0]


def test_layer_metrics_per_op_and_per_setup():
    t = _synthetic_tracer()
    names = ["numerics.spmm.ms", "training.adamw_step.ms", "training.epoch_self.ms",
             "graph.load_graph_dir.ms", "numerics.spmm.calls", "numerics.spmm.flop",
             "graph.adj_nnz"]
    m = layer_metrics(t, names, n_ops=2, window=1)
    assert m["numerics.spmm.ms"] == pytest.approx((3 + 1 + 2) / 2)
    assert m["training.adamw_step.ms"] == pytest.approx(3 / 2)
    assert m["training.epoch_self.ms"] == pytest.approx((3 + 4) / 2)
    assert m["graph.load_graph_dir.ms"] == pytest.approx(2.0)  # set-up: once
    assert (m["numerics.spmm.calls"], m["numerics.spmm.flop"]) == (2.0, 100.0)
    assert m["graph.adj_nnz"] == 50.0
    m2 = layer_metrics(t, names, n_ops=2, window=2)
    assert (m2["numerics.spmm.calls"], m2["numerics.spmm.flop"]) == (1.5, 70.0)
    for op in range(2, 50):
        t.counts[op]["numerics.tape_ops"] = 117
    t.counts[0]["numerics.tape_ops"] = t.counts[1]["numerics.tape_ops"] = 117
    assert layer_metrics(t, ["numerics.tape_ops"], n_ops=50, window=50) == \
        {"numerics.tape_ops": 117.0}
    table = self_time_table(t, 2)
    assert "[numerics]" in table and "[training]" in table


def _patched_attrs():
    owners = [numerics.Tape, training, moe_core, moe_core.ModelParams, graph]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_wrappers_are_removed_after_a_traced_run():
    before = _patched_attrs()
    tracer = Tracer()
    with pytest.raises(KeyError):
        with patched(tracer):
            assert numerics.Tape.spmm is not before[(id(numerics.Tape), "spmm")]
            assert training.forward is not before[(id(training), "forward")]
            assert moe_core.evaluate is not before[(id(moe_core), "evaluate")]
            raise KeyError("leave the block by an error")
    assert _patched_attrs() == before
    with patched(tracer):
        g = graph.generate_sbm(d2moe.SbmSpec(n=40, classes=2, dim=3, p_in=0.2, p_out=0.1,
                                             signal=1.0, seed=0))
    assert _patched_attrs() == before
    assert tracer.names == ["graph.generate_sbm"] and g.n == 40


def test_traced_fit_records_layer_spans():
    g = d2moe.split_nodes(d2moe.generate_sbm(d2moe.SbmSpec(
        n=60, classes=2, dim=4, p_in=0.2, p_out=0.05, signal=1.5, seed=0)),
        (0.5, 0.25, 0.25), seed=1)
    cfg = d2moe.ModelConfig(in_dim=4, hidden=8, classes=2, experts=3, layers=1)
    tracer = Tracer()
    with patched(tracer):
        training.fit(g, cfg, d2moe.TrainConfig(max_epochs=2, patience=2))
    names = set(tracer.names)
    assert {"moe_core.forward_train", "moe_core.forward_eval", "numerics.spmm",
            "numerics.backward", "training.adamw_step", "moe_core.select"} <= names
    assert not tracer._stack
    # 3 experts x 1 layer, a train and an eval forward per epoch, two epochs
    assert tracer.counts[SETUP_OP]["numerics.spmm.calls"] == 12


# ---- the command ----------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(WORKLOADS) and len(names) >= 2
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(n, UNITS[n]) for n in END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER.items())
    for w in spec["workloads"]:
        assert f"p{WORKLOADS[w['name']].tail_pct:g}" in w["why"]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("train_aggregate", 1), ("train_experts", 0), ("eval_adaptive", 1),
    ("graph_roundtrip", 0), ("graph_roundtrip", 1)])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else {n: UNITS[n] for n in END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "train_aggregate", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
