"""Bucket construction checked against hand-built traces with known
selection patterns; ablation plumbing checked for determinism and the
full-budget equivalence case."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from d2moe.analysis import (
    ActivationStats,
    DecileReport,
    activation_stats,
    decile_activation_spearman,
    proxy_config,
    run_ablation,
    stratify_by_entropy,
    train_proxy,
)
from d2moe.graph import SbmSpec, generate_sbm, split_nodes
from d2moe.moe_core import LayerTrace, ModelConfig, RoutingTrace
from d2moe.training import (
    FixedTopP,
    Full,
    NoLoadBalance,
    NoRoutingEntropy,
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
    probs = np.tile(np.linspace(0.3, 0.9, n)[:, None], (1, 4))
    probs = probs / probs.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(0)
    entropy_probs = np.stack([np.array([p, (1 - p) / 3, (1 - p) / 3, (1 - p) / 3])
                              for p in rng.uniform(0.3, 0.95, n)])
    labels = rng.integers(0, 4, n)
    report = stratify_by_entropy(entropy_probs, np.ones(n, bool), labels.copy(),
                                 labels, _trace_with_counts([2] * n))
    assert report.counts == [10] * 10
    assert sum(report.counts) == n


def test_stratify_remainder_goes_to_earliest_buckets():
    n = 23
    probs = _uniform_probs(n)
    labels = np.zeros(n, dtype=np.int64)
    report = stratify_by_entropy(probs, np.ones(n, bool), labels, labels,
                                 _trace_with_counts([1] * n))
    assert report.counts == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_stratify_ties_keep_stable_node_order():
    # Identical entropies everywhere: buckets must follow node index order.
    n = 30
    probs = _uniform_probs(n)
    labels = np.zeros(n, dtype=np.int64)
    preds = np.zeros(n, dtype=np.int64)
    preds[3:] = 1  # only the first three nodes are correct
    report = stratify_by_entropy(probs, np.ones(n, bool), preds, labels,
                                 _trace_with_counts([1] * n))
    assert report.buckets[0].accuracy == 1.0
    assert all(b.accuracy == 0.0 for b in report.buckets[1:])


def test_stratify_perfect_classifier_all_ones():
    g = _graph(n=100)
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(4), size=g.n)
    report = stratify_by_entropy(probs, g.test_mask, g.labels.copy(), g.labels,
                                 _trace_with_counts([2] * g.n))
    assert all(b.accuracy == 1.0 for b in report.buckets)


def test_stratify_orders_buckets_by_entropy():
    n = 50
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.full(4, 0.6), size=n)
    labels = np.zeros(n, dtype=np.int64)
    report = stratify_by_entropy(probs, np.ones(n, bool), labels, labels,
                                 _trace_with_counts([1] * n))
    for a, b in zip(report.buckets[:-1], report.buckets[1:]):
        assert a.entropy_hi <= b.entropy_lo + 1e-15
        assert a.entropy_lo <= a.entropy_hi


def test_stratify_reports_per_layer_activation():
    n = 20
    probs = _uniform_probs(n)
    labels = np.zeros(n, dtype=np.int64)
    l0 = _trace_with_counts([1] * n).layers[0]
    l1 = _trace_with_counts([3] * n).layers[0]
    report = stratify_by_entropy(probs, np.ones(n, bool), labels, labels,
                                 RoutingTrace([l0, l1]))
    for b in report.buckets:
        assert b.mean_active_per_layer == (1.0, 3.0)
    assert isinstance(report, DecileReport)
    assert report.mean_active == [2.0] * 10


def test_stratify_rejects_small_mask():
    probs = _uniform_probs(9)
    labels = np.zeros(9, dtype=np.int64)
    with pytest.raises(ValueError):
        stratify_by_entropy(probs, np.ones(9, bool), labels, labels,
                            _trace_with_counts([1] * 9))


# ---- activation statistics -----------------------------------------------


def test_activation_stats_full_budget_counts_k_everywhere():
    n, k = 40, 4
    entropy = np.linspace(0.0, 1.0, n)
    stats = activation_stats(_trace_with_counts([k] * n, k=k), entropy)
    assert stats.decile_mean_active == tuple([float(k)] * 10)


def test_activation_heat_columns_are_mixtures():
    n, k = 80, 5
    rng = np.random.default_rng(3)
    pi = rng.dirichlet(np.ones(k), size=n)
    selected = np.ones((n, k), dtype=bool)
    trace = RoutingTrace([LayerTrace(pi=pi, selected=selected)] * 2)
    stats = activation_stats(trace, rng.uniform(0, 1, n))
    assert stats.heat.shape == (k, 4)
    assert np.all(stats.heat >= 0.0) and np.all(stats.heat <= 1.0)
    assert np.allclose(stats.heat.sum(axis=0), 1.0, atol=1e-6)


def test_activation_heat_rows_average_to_global_mean():
    # Equal-sized quartiles: the unweighted mean over columns equals the
    # global mean routing weight per expert.
    n, k = 80, 3
    rng = np.random.default_rng(4)
    pi = rng.dirichlet(np.ones(k), size=n)
    trace = RoutingTrace([LayerTrace(pi=pi, selected=np.ones((n, k), bool))])
    stats = activation_stats(trace, rng.uniform(0, 1, n))
    assert np.allclose(stats.heat.mean(axis=1), pi.mean(axis=0), atol=1e-12)


def test_activation_stats_respects_mask():
    n = 40
    entropy = np.linspace(0, 1, n)
    counts = [1] * 20 + [4] * 20
    mask = np.zeros(n, dtype=bool)
    mask[20:] = True  # only the 4-expert nodes
    stats = activation_stats(_trace_with_counts(counts), entropy, mask)
    assert stats.decile_mean_active == tuple([4.0] * 10)


def test_activation_monotone_pattern_has_positive_spearman():
    n = 40
    entropy = np.linspace(0.0, 1.0, n)
    counts = [1] * 10 + [2] * 10 + [3] * 10 + [4] * 10  # more experts when harder
    stats = activation_stats(_trace_with_counts(counts), entropy)
    assert decile_activation_spearman(stats) > 0.9


def test_activation_stats_rejects_small_sets():
    with pytest.raises(ValueError):
        activation_stats(_trace_with_counts([1] * 5), np.linspace(0, 1, 5))


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
    assert variant_label(NoRoutingEntropy()) == "no_re"
    assert variant_label(NoLoadBalance()) == "no_lb"


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


def test_import_d2moe_does_not_load_scipy_stats():
    """scipy.stats is only needed for the decile Spearman rho, and importing
    it costs most of the package's import time."""
    import d2moe

    src = str(Path(d2moe.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import d2moe; " \
           "print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_public_names_resolve_once():
    import d2moe

    assert len(d2moe.__all__) == len(set(d2moe.__all__))
    for name in d2moe.__all__:
        assert getattr(d2moe, name) is not None, name
