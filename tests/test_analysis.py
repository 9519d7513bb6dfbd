"""Bucket construction checked against hand-built traces with known
selection patterns; ablation plumbing checked for determinism and the
full-budget equivalence case."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from d2moe.analysis import (
    decile_activation_spearman,
    proxy_config,
    run_ablation,
    stratify_by_entropy,
    train_proxy,
)
from d2moe.graph import SbmSpec, generate_sbm, split_nodes
from d2moe.moe_core import LayerTrace, ModelConfig, RoutingTrace, predictive_entropy
from d2moe.training import (
    FixedTopP,
    Full,
    RandomTopP,
    TopK,
    TrainConfig,
    variant_label,
)


def _graph(n=200, classes=4, dim=8, p_in=0.15, p_out=0.01, signal=3.0, seed=3):
    g = generate_sbm(SbmSpec(n=n, classes=classes, dim=dim, p_in=p_in,
                             p_out=p_out, signal=signal, seed=seed))
    return split_nodes(g, (0.48, 0.32, 0.2), seed=seed + 1)


def _uniform_probs(n, c=4):
    return np.full((n, c), 1.0 / c)


def _trace_with_counts(counts, k=4, layers=2):
    """Each node selects its requested number of experts (lowest indices),
    router rows uniform."""
    n = len(counts)
    selected = np.zeros((n, k), dtype=bool)
    for i, c in enumerate(counts):
        selected[i, :c] = True
    layer = LayerTrace(pi=np.full((n, k), 1.0 / k), selected=selected)
    return RoutingTrace([layer] * layers)


# ---- stratification ------------------------------------------------------


def test_stratify_100_nodes_gives_equal_deciles():
    n = 100
    rng = np.random.default_rng(0)
    entropy_probs = np.stack([np.array([p, (1 - p) / 3, (1 - p) / 3, (1 - p) / 3])
                              for p in rng.uniform(0.3, 0.95, n)])
    labels = rng.integers(0, 4, n)
    buckets = stratify_by_entropy(predictive_entropy(entropy_probs), np.ones(n, bool),
                                  labels.copy(), labels, _trace_with_counts([2] * n))
    assert [b.count for b in buckets] == [10] * 10


def test_stratify_remainder_goes_to_earliest_buckets():
    n = 23
    labels = np.zeros(n, dtype=np.int64)
    buckets = stratify_by_entropy(predictive_entropy(_uniform_probs(n)), np.ones(n, bool),
                                  labels, labels, _trace_with_counts([1] * n))
    assert [b.count for b in buckets] == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_stratify_ties_keep_stable_node_order():
    # Identical entropies everywhere: buckets must follow node index order.
    n = 30
    labels = np.zeros(n, dtype=np.int64)
    preds = np.zeros(n, dtype=np.int64)
    preds[3:] = 1  # only the first three nodes are correct
    buckets = stratify_by_entropy(predictive_entropy(_uniform_probs(n)), np.ones(n, bool),
                                  preds, labels, _trace_with_counts([1] * n))
    assert buckets[0].accuracy == 1.0
    assert all(b.accuracy == 0.0 for b in buckets[1:])


def test_stratify_perfect_classifier_all_ones():
    g = _graph(n=100)
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(4), size=g.n)
    buckets = stratify_by_entropy(predictive_entropy(probs), g.test_mask, g.labels.copy(),
                                  g.labels, _trace_with_counts([2] * g.n))
    assert all(b.accuracy == 1.0 for b in buckets)


def test_stratify_orders_buckets_by_entropy():
    n = 50
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.full(4, 0.6), size=n)
    labels = np.zeros(n, dtype=np.int64)
    buckets = stratify_by_entropy(predictive_entropy(probs), np.ones(n, bool), labels,
                                  labels, _trace_with_counts([1] * n))
    for a, b in zip(buckets[:-1], buckets[1:]):
        assert a.entropy_hi <= b.entropy_lo + 1e-15
        assert a.entropy_lo <= a.entropy_hi


def test_stratify_reports_per_layer_activation():
    n = 20
    labels = np.zeros(n, dtype=np.int64)
    l0 = _trace_with_counts([1] * n).layers[0]
    l1 = _trace_with_counts([3] * n).layers[0]
    buckets = stratify_by_entropy(predictive_entropy(_uniform_probs(n)), np.ones(n, bool),
                                  labels, labels, RoutingTrace([l0, l1]))
    for b in buckets:
        assert b.mean_active_per_layer == (1.0, 3.0)
        assert b.mean_active == 2.0


def test_stratify_mean_active_averages_each_node_over_layers():
    # Each bucket holds nodes whose layer-1 counts are 1, 1, 2: node means
    # 1, 1, 1.5 average to exactly 7/6, while the mean of the per-layer means
    # (1 and 4/3) rounds one ulp lower.
    n = 30
    labels = np.zeros(n, dtype=np.int64)
    l0 = _trace_with_counts([1] * n).layers[0]
    l1 = _trace_with_counts([1, 1, 2] * 10).layers[0]
    buckets = stratify_by_entropy(np.zeros(n), np.ones(n, bool), labels, labels,
                                  RoutingTrace([l0, l1]))
    for b in buckets:
        assert b.mean_active == 7 / 6
        assert np.mean(b.mean_active_per_layer) < 7 / 6


def test_stratify_rejects_small_mask():
    labels = np.zeros(9, dtype=np.int64)
    with pytest.raises(ValueError):
        stratify_by_entropy(predictive_entropy(_uniform_probs(9)), np.ones(9, bool), labels,
                            labels, _trace_with_counts([1] * 9))


def test_stratify_rejects_probabilities_in_place_of_entropy():
    n = 20
    labels = np.zeros(n, dtype=np.int64)
    with pytest.raises(ValueError, match="one entropy per node"):
        stratify_by_entropy(_uniform_probs(n), np.ones(n, bool), labels, labels,
                            _trace_with_counts([1] * n))


def test_stratify_full_budget_counts_k_everywhere():
    n, k = 40, 4
    labels = np.zeros(n, dtype=np.int64)
    buckets = stratify_by_entropy(np.linspace(0.0, 1.0, n), np.ones(n, bool), labels,
                                  labels, _trace_with_counts([k] * n, k=k))
    assert [b.mean_active for b in buckets] == [float(k)] * 10


def test_stratify_respects_mask():
    n = 40
    labels = np.zeros(n, dtype=np.int64)
    counts = [1] * 20 + [4] * 20
    mask = np.zeros(n, dtype=bool)
    mask[20:] = True  # only the 4-expert nodes
    buckets = stratify_by_entropy(np.linspace(0, 1, n), mask, labels, labels,
                                  _trace_with_counts(counts))
    assert [b.mean_active for b in buckets] == [4.0] * 10
    assert sum(b.count for b in buckets) == 20


def test_activation_monotone_pattern_has_positive_spearman():
    n = 40
    labels = np.zeros(n, dtype=np.int64)
    counts = [1] * 10 + [2] * 10 + [3] * 10 + [4] * 10  # more experts when harder
    buckets = stratify_by_entropy(np.linspace(0.0, 1.0, n), np.ones(n, bool), labels,
                                  labels, _trace_with_counts(counts))
    assert decile_activation_spearman(buckets) > 0.9


# ---- proxy teacher -------------------------------------------------------


def test_proxy_config_is_single_expert():
    g = _graph(n=80)
    cfg = proxy_config(g, hidden=16)
    assert cfg.experts == 1
    assert cfg.layers == 2
    assert cfg.classes == g.n_classes
    assert isinstance(cfg, ModelConfig)


def test_train_proxy_returns_probabilities():
    g = _graph()
    state, probs = train_proxy(g, TrainConfig(max_epochs=30, patience=30, seed=0),
                               hidden=16)
    assert probs.shape == (g.n, g.n_classes)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert state.best_val_acc > 0.7


# ---- ablations -----------------------------------------------------------


def test_variant_labels():
    assert variant_label(Full()) == "full"
    assert variant_label(TopK(2)) == "static_topk(2)"
    assert variant_label(FixedTopP(0.5)) == "fixed_topp(0.5)"
    assert variant_label(RandomTopP()) == "random_topp"


def _small_setup():
    g = _graph(n=80, seed=6)
    mcfg = ModelConfig(in_dim=8, hidden=16, classes=4, experts=3, layers=2, dropout=0.5)
    tcfg = TrainConfig(max_epochs=3, seed=0)
    return g, mcfg, tcfg


def test_run_ablation_reports_per_seed_values():
    g, mcfg, tcfg = _small_setup()
    res = run_ablation(g, mcfg, tcfg, Full(), seeds=(0, 1, 2))
    assert res.variant == "full"
    assert len(res.per_seed) == 3
    assert res.mean == pytest.approx(np.mean(res.per_seed))
    assert res.std == pytest.approx(np.std(res.per_seed, ddof=1))


def test_run_ablation_deterministic():
    g, mcfg, tcfg = _small_setup()
    a = run_ablation(g, mcfg, tcfg, TopK(1), seeds=(0, 1))
    b = run_ablation(g, mcfg, tcfg, TopK(1), seeds=(0, 1))
    assert a == b


def test_run_ablation_full_budget_equivalence():
    g, mcfg, tcfg = _small_setup()
    topk = run_ablation(g, mcfg, tcfg, TopK(3), seeds=(0, 1))
    topp = run_ablation(g, mcfg, tcfg, FixedTopP(1.0), seeds=(0, 1))
    assert topk.per_seed == topp.per_seed


def test_run_ablation_parallel_matches_serial():
    g, mcfg, tcfg = _small_setup()
    serial = run_ablation(g, mcfg, tcfg, Full(), seeds=(0, 1), jobs=1)
    parallel = run_ablation(g, mcfg, tcfg, Full(), seeds=(0, 1), jobs=2)
    assert serial == parallel


def test_run_ablation_single_seed_zero_std():
    g, mcfg, tcfg = _small_setup()
    res = run_ablation(g, mcfg, tcfg, Full(), seeds=(5,))
    assert res.std == 0.0
    with pytest.raises(ValueError):
        run_ablation(g, mcfg, tcfg, Full(), seeds=())


def _loaded_after_import_d2moe(module: str) -> bool:
    import d2moe

    src = str(Path(d2moe.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import d2moe; " \
           f"print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip() == "True"


def test_import_d2moe_does_not_load_scipy_stats():
    """scipy.stats is only needed for the decile Spearman rho, and importing
    it costs most of the package's import time."""
    assert not _loaded_after_import_d2moe("scipy.stats")


def test_import_d2moe_does_not_load_process_pool():
    """The process pool is only needed for a parallel ablation, and importing
    it loads multiprocessing into every CLI call."""
    assert not _loaded_after_import_d2moe("concurrent.futures.process")


def test_public_names_resolve_once():
    import d2moe

    assert len(d2moe.__all__) == len(set(d2moe.__all__))
    for name in d2moe.__all__:
        assert getattr(d2moe, name) is not None, name
