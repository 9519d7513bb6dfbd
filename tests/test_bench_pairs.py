"""The paired-benchmark tool's summary arithmetic, on fixed records: no
benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _record(seed, pair, op_ms, val_acc, failed=0):
    return {"workload": "w", "seed": seed, "pair": pair, "ran_first": pair % 2 == 0,
            "attempted": 10, "failed": failed, "correct": failed == 0,
            "end_to_end": {"op_ms_p50": op_ms, "val_acc": val_acc}}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("80-85") == [80, 81, 82, 83, 84, 85]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("85-80")


def test_summary_arithmetic_on_fixed_records():
    """Medians, linear quartiles, pairs better in each metric's direction,
    ties and the median change; a run that exited non-zero takes its pair
    out of the lists but is counted."""
    metrics = {"op_ms_p50": "lower", "val_acc": "higher"}
    parent = [_record(80, 0, 100.0, 0.5), _record(81, 1, 110.0, 0.6, failed=2),
              _record(82, 2, 120.0, 0.7), _record(83, 3, 130.0, 0.8),
              _record(84, 4, 140.0, 0.9)]
    change = [_record(80, 0, 90.0, 0.5), _record(81, 1, 115.0, 0.5),
              _record(82, 2, 120.0, 0.75),
              {"workload": "w", "seed": 83, "pair": 3, "ran_first": True,
               "exit_code": 1, "error": "perfbench: worker failed (exit 1)"},
              _record(84, 4, 125.0, 0.9)]
    out = bench_pairs.workload_summary(parent, change, metrics)
    assert out["seeds"] == [80, 81, 82, 83, 84]
    assert out["failed_ops"] == {"parent": 2, "change": 0}
    assert out["failed_runs"] == {"parent": 0, "change": 1}

    ms = out["op_ms_p50"]
    assert ms["parent"] == [100.0, 110.0, 120.0, 140.0]
    assert ms["change"] == [90.0, 115.0, 120.0, 125.0]
    assert ms["parent_median"] == 115.0
    assert ms["change_median"] == 117.5
    assert ms["parent_q1_q3"] == [107.5, 125.0]
    assert ms["change_q1_q3"] == [108.75, 121.25]
    assert ms["change_better_pairs"] == 2
    assert ms["tied_pairs"] == 1
    assert ms["median_change_pct"] == 2.17

    acc = out["val_acc"]
    assert acc["change_better_pairs"] == 1  # higher is better: 0.75 > 0.7
    assert acc["tied_pairs"] == 2
    assert acc["parent_median"] == 0.65
    assert acc["change_median"] == 0.625
    assert acc["median_change_pct"] == -3.85
    assert bench_pairs.headline(ms) == ("115.0 -> 117.5 (+2.17%), change better in 2/4 "
                                        "pairs, parent IQR [107.5, 125.0]")


def test_report_keeps_every_run_and_leaves_the_claim_to_the_author():
    metrics = {"op_ms_p50": "lower"}
    results = {"parent": [_record(80, 0, 100.0, 0.5)],
               "change": [{"workload": "w", "seed": 80, "pair": 0, "ran_first": False,
                           "exit_code": 3, "error": ""}]}
    out = bench_pairs.report(results, ["w"], 40.0, metrics, machine={"nproc": 2})
    assert out["results"] is results
    assert out["summary"]["w"]["failed_runs"] == {"parent": 0, "change": 1}
    assert "op_ms_p50" not in out["summary"]["w"]
    assert out["headline"] == {"w": {}}
    assert out["topic"] is None and out["claim"] is None
    assert out["machine"] == {"nproc": 2}
