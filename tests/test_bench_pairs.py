"""The paired-benchmark tool's summary arithmetic and claim check, on fixed
records: no benchmark is run."""

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
    metrics = {"op_ms_p50": {"better": "lower", "bound": 0.25},
               "val_acc": {"better": "higher", "bound": 0.2}}
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
    assert ms["median_paired_diff"] == -5.0  # of -10, +5, 0, -15
    assert ms["claimable"] is False  # four pairs
    assert ms["within_bound"] is True  # +2.17% against a 25% bound

    acc = out["val_acc"]
    assert acc["change_better_pairs"] == 1  # higher is better: 0.75 > 0.7
    assert acc["tied_pairs"] == 2
    assert acc["parent_median"] == 0.65
    assert acc["change_median"] == 0.625
    assert acc["median_change_pct"] == -3.85
    assert acc["median_paired_diff"] == 0.0
    assert bench_pairs.headline(ms) == ("115.0 -> 117.5 (+2.17%), change better in 2/4 "
                                        "pairs, parent IQR [107.5, 125.0], claimable no, "
                                        "within bound yes")


def _pairs(parent, change, better="lower", bound=0.1):
    """``metric_summary`` of one metric over pairs of fixed values."""
    return bench_pairs.metric_summary([float(x) for x in parent], [float(x) for x in change],
                                      better, bound)


# ten parent values with quartiles 95.0 and 97.0: an IQR of 2.0
PARENT = [94, 95, 95, 95, 96, 96, 97, 97, 97, 98]


@pytest.mark.parametrize("gap, claimable", [(2.5, True), (2.0, False)],
                         ids=["gap-above-iqr", "gap-equal-to-iqr"])
def test_claimable_needs_a_median_gap_above_the_parent_iqr(gap, claimable):
    out = _pairs(PARENT, [p - gap for p in PARENT])
    assert out["parent_q1_q3"] == [95.0, 97.0]
    assert out["median_paired_diff"] == -gap
    assert out["change_better_pairs"] == 10
    assert out["claimable"] is claimable


@pytest.mark.parametrize("worse, claimable", [(1, True), (2, False)])
def test_claimable_needs_nine_of_ten_pairs_better(worse, claimable):
    change = [p - 3 for p in PARENT]
    for i in range(worse):
        change[i] = PARENT[i] + 1
    out = _pairs(PARENT, change)
    assert out["change_better_pairs"] == 10 - worse
    assert out["claimable"] is claimable


def test_claimable_share_is_exact_at_any_pair_count():
    """63 of 70 pairs is 9/10, though 0.9 * 70 is 63.00000000000001."""
    parent = PARENT * 7
    change = [p - 3 for p in parent]
    for i in range(7):
        change[i] = parent[i] + 1
    out = _pairs(parent, change)
    assert out["change_better_pairs"] == 63
    assert out["claimable"] is True


def test_claimable_counts_a_tie_for_neither_side():
    """Nine better pairs and one tie is 9/10; eight and two ties is not."""
    change = [p - 3 for p in PARENT]
    change[0] = PARENT[0]
    assert _pairs(PARENT, change)["claimable"] is True
    change[1] = PARENT[1]
    out = _pairs(PARENT, change)
    assert (out["change_better_pairs"], out["tied_pairs"]) == (8, 2)
    assert out["claimable"] is False


def test_claimable_needs_ten_pairs():
    out = _pairs(PARENT[:9], [p - 3 for p in PARENT[:9]])
    assert out["change_better_pairs"] == 9
    assert out["claimable"] is False


def test_claimable_follows_the_metric_direction():
    """A 10/10 gap above the IQR in the wrong direction is not claimable."""
    assert _pairs(PARENT, [p + 3 for p in PARENT], better="higher")["claimable"] is True
    assert _pairs(PARENT, [p + 3 for p in PARENT], better="lower")["claimable"] is False


@pytest.mark.parametrize("better, change_median, within", [
    ("lower", 105.0, True), ("lower", 106.0, False), ("lower", 50.0, True),
    ("higher", 95.0, True), ("higher", 94.0, False), ("higher", 150.0, True),
])
def test_within_bound_is_relative_to_the_parent_median(better, change_median, within):
    """A 5% relative bound on a parent median of 100, in each direction."""
    out = _pairs([99, 100, 101], [change_median - 1, change_median, change_median + 1],
                 better=better, bound=0.05)
    assert out["parent_median"] == 100.0 and out["change_median"] == change_median
    assert out["within_bound"] is within


def test_report_keeps_every_run_and_leaves_the_claim_to_the_author():
    metrics = {"op_ms_p50": {"better": "lower", "bound": 0.25}}
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
