"""Measurement utilities: entropy-decile stratification, activation
statistics, the proxy teacher, and multi-seed ablation runs.

Difficulty is always judged by a fixed proxy model, not by the model under
study; the proxy here is the same architecture collapsed to a single expert.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .moe_core import ModelConfig, RoutingTrace, evaluate, predictive_entropy
from .training import (  # noqa: F401  (re-exported: the ablation vocabulary)
    FixedTopP,
    Full,
    NoLoadBalance,
    NoRoutingEntropy,
    RandomTopP,
    StaticTopK,
    TrainConfig,
    TrainState,
    Variant,
    fit,
    make_variant,
)


def _bucket_sizes(n: int, parts: int) -> list[int]:
    """Equal split with any remainder given to the earliest buckets."""
    base, rem = divmod(n, parts)
    return [base + 1 if i < rem else base for i in range(parts)]


def _bucket_slices(order: np.ndarray, parts: int) -> list[np.ndarray]:
    sizes = _bucket_sizes(order.size, parts)
    out, start = [], 0
    for size in sizes:
        out.append(order[start:start + size])
        start += size
    return out


@dataclass(frozen=True)
class DecileBucket:
    entropy_lo: float
    entropy_hi: float
    count: int
    accuracy: float
    mean_active_per_layer: tuple[float, ...]


@dataclass(frozen=True)
class DecileReport:
    buckets: tuple[DecileBucket, ...]

    @property
    def counts(self) -> list[int]:
        return [b.count for b in self.buckets]

    @property
    def mean_active(self) -> list[float]:
        """Per-bucket activation averaged over layers."""
        return [float(np.mean(b.mean_active_per_layer)) for b in self.buckets]


def stratify_by_entropy(proxy_probs: np.ndarray, eval_mask: np.ndarray,
                        predictions: np.ndarray, labels: np.ndarray,
                        trace: RoutingTrace) -> DecileReport:
    """Sort the masked nodes by proxy predictive entropy and cut them into 10
    equal buckets (stable order on ties, remainder to the earliest buckets);
    report per-bucket accuracy and mean selected-expert count per layer."""
    idx = np.flatnonzero(eval_mask)
    if idx.size < 10:
        raise ValueError(f"need at least 10 nodes to form deciles, got {idx.size}")
    entropy = predictive_entropy(proxy_probs)
    order = idx[np.argsort(entropy[idx], kind="stable")]
    active = np.stack([lt.selected.sum(axis=1) for lt in trace.layers])  # (L, n)

    buckets = []
    for members in _bucket_slices(order, 10):
        ent = entropy[members]
        acc = float((predictions[members] == labels[members]).mean())
        per_layer = tuple(float(active[l, members].mean()) for l in range(active.shape[0]))
        buckets.append(DecileBucket(entropy_lo=float(ent.min()), entropy_hi=float(ent.max()),
                                    count=members.size, accuracy=acc,
                                    mean_active_per_layer=per_layer))
    return DecileReport(buckets=tuple(buckets))


@dataclass(frozen=True)
class ActivationStats:
    decile_mean_active: tuple[float, ...]  # 10 values, layer-averaged
    heat: np.ndarray                       # (K, 4) mean routing weight per quartile


def activation_stats(trace: RoutingTrace, entropy: np.ndarray,
                     mask: np.ndarray | None = None) -> ActivationStats:
    """Activation count per entropy decile and the K x 4 quartile heat matrix
    of mean routing weight (raw router rows averaged over layers, so every
    quartile column sums to one)."""
    n = trace.layers[0].pi.shape[0]
    idx = np.arange(n) if mask is None else np.flatnonzero(mask)
    if idx.size < 10:
        raise ValueError(f"need at least 10 nodes for decile statistics, got {idx.size}")
    order = idx[np.argsort(entropy[idx], kind="stable")]

    active = np.stack([lt.selected.sum(axis=1) for lt in trace.layers]).mean(axis=0)
    deciles = tuple(float(active[members].mean()) for members in _bucket_slices(order, 10))

    pi = np.mean([lt.pi for lt in trace.layers], axis=0)  # (n, K), rows sum to 1
    heat = np.stack([pi[members].mean(axis=0) for members in _bucket_slices(order, 4)],
                    axis=1)
    return ActivationStats(decile_mean_active=deciles, heat=heat)


def decile_activation_spearman(stats: ActivationStats) -> float:
    """Rank correlation between decile index and mean activation count; the
    difficulty-aware router should make this positive."""
    from scipy.stats import spearmanr  # deferred: scipy.stats dominates import time

    rho, _ = spearmanr(np.arange(10), np.asarray(stats.decile_mean_active))
    return float(rho)


# ---- proxy teacher -------------------------------------------------------


def proxy_config(g: Graph, hidden: int = 64, dropout: float = 0.5) -> ModelConfig:
    """The main architecture collapsed to one expert: a plain two-layer
    residual GCN whose router is a constant."""
    return ModelConfig(in_dim=g.dim, hidden=hidden, classes=g.n_classes,
                       experts=1, layers=2, dropout=dropout)


def train_proxy(g: Graph, config: TrainConfig, hidden: int = 64,
                dropout: float = 0.5) -> tuple[TrainState, np.ndarray]:
    """Fit the single-expert teacher and return its state and eval-mode
    class probabilities for every node (the difficulty reference)."""
    state = fit(g, proxy_config(g, hidden, dropout), config)
    report = evaluate(state.params, g, budget=np.ones(g.n))
    return state, report.probs


# ---- ablations -----------------------------------------------------------


def variant_label(variant: Variant) -> str:
    if isinstance(variant, StaticTopK):
        return f"static_topk({variant.k})"
    if isinstance(variant, FixedTopP):
        return f"fixed_topp({variant.p:g})"
    return {Full: "full", RandomTopP: "random_topp",
            NoRoutingEntropy: "no_re", NoLoadBalance: "no_lb"}[type(variant)]


@dataclass(frozen=True)
class AblationResult:
    variant: str
    mean: float
    std: float
    per_seed: tuple[float, ...]


def _seed_accuracy(payload) -> float:
    g, model_config, train_config, variant, seed = payload
    cfg = dataclasses.replace(train_config, seed=seed)
    state = fit(g, model_config, cfg, variant=variant)
    return state.history[state.best_epoch].acc_test


def run_ablation(g: Graph, model_config: ModelConfig, train_config: TrainConfig,
                 variant: Variant, seeds, jobs: int = 1) -> AblationResult:
    """Test accuracy at the best-validation epoch for each seed; mean and
    sample standard deviation over seeds."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_ablation needs at least one seed")
    payloads = [(g, model_config, train_config, variant, s) for s in seeds]
    if jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            accs = list(pool.map(_seed_accuracy, payloads))
    else:
        accs = [_seed_accuracy(p) for p in payloads]
    arr = np.asarray(accs, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return AblationResult(variant=variant_label(variant), mean=float(arr.mean()),
                          std=std, per_seed=tuple(float(a) for a in arr))
