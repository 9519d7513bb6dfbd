"""Measurement utilities: entropy-decile stratification (accuracy and
selected-expert counts per decile), the proxy teacher, and multi-seed
ablation runs.

Difficulty is always judged by a fixed proxy model, not by the model under
study; the proxy here is the same architecture collapsed to a single expert.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .moe_core import ModelConfig, RoutingTrace, evaluate
from .training import TrainConfig, TrainState, Variant, fit, variant_label


@dataclass(frozen=True)
class DecileBucket:
    entropy_lo: float
    entropy_hi: float
    count: int
    accuracy: float
    mean_active: float  # each node's mean over layers, averaged over the bucket
    mean_active_per_layer: tuple[float, ...]


def stratify_by_entropy(entropy: np.ndarray, eval_mask: np.ndarray,
                        predictions: np.ndarray, labels: np.ndarray,
                        trace: RoutingTrace) -> tuple[DecileBucket, ...]:
    """Sort the masked nodes by their difficulty entropy (one value per node)
    and cut them into 10 equal buckets (stable order on ties, remainder to
    the earliest buckets); report per-bucket accuracy and mean selected-expert
    count, layer-averaged and per layer."""
    if entropy.shape != eval_mask.shape:
        raise ValueError(f"need one entropy per node, shape {eval_mask.shape}; "
                         f"got shape {entropy.shape}")
    idx = np.flatnonzero(eval_mask)
    if idx.size < 10:
        raise ValueError(f"need at least 10 nodes to form deciles, got {idx.size}")
    order = idx[np.argsort(entropy[idx], kind="stable")]
    active = trace.active_counts()  # (L, n)
    node_active = active.mean(axis=0)

    buckets = []
    for members in np.array_split(order, 10):  # remainder to the earliest buckets
        ent = entropy[members]
        acc = float((predictions[members] == labels[members]).mean())
        per_layer = tuple(float(active[l, members].mean()) for l in range(active.shape[0]))
        buckets.append(DecileBucket(entropy_lo=float(ent.min()), entropy_hi=float(ent.max()),
                                    count=members.size, accuracy=acc,
                                    mean_active=float(node_active[members].mean()),
                                    mean_active_per_layer=per_layer))
    return tuple(buckets)


def decile_activation_spearman(buckets: tuple[DecileBucket, ...]) -> float:
    """Rank correlation between decile index and layer-averaged activation
    count; the difficulty-aware router should make this positive."""
    from scipy.stats import spearmanr  # deferred: scipy.stats dominates import time

    rho, _ = spearmanr(np.arange(len(buckets)), [b.mean_active for b in buckets])
    return float(rho)


# ---- proxy teacher -------------------------------------------------------


def proxy_config(g: Graph, hidden: int = 64) -> ModelConfig:
    """The main architecture collapsed to one expert: a plain two-layer
    residual GCN whose router is a constant, with the default dropout."""
    return ModelConfig(in_dim=g.dim, hidden=hidden, classes=g.n_classes, experts=1, layers=2)


def train_proxy(g: Graph, config: TrainConfig,
                hidden: int = 64) -> tuple[TrainState, np.ndarray]:
    """Fit the single-expert teacher and return its state and eval-mode
    class probabilities for every node (the difficulty reference)."""
    state = fit(g, proxy_config(g, hidden), config)
    report = evaluate(state.params, g, budget=np.ones(g.n))
    return state, report.probs


# ---- ablations -----------------------------------------------------------


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
    if not g.test_mask.any():
        raise ValueError("run_ablation: graph has no test nodes to score")
    payloads = [(g, model_config, train_config, variant, s) for s in seeds]
    if jobs > 1 and len(seeds) > 1:
        # deferred: the process pool loads multiprocessing on every import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            accs = list(pool.map(_seed_accuracy, payloads))
    else:
        accs = [_seed_accuracy(p) for p in payloads]
    arr = np.asarray(accs, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return AblationResult(variant=variant_label(variant), mean=float(arr.mean()),
                          std=std, per_seed=tuple(float(a) for a in arr))
