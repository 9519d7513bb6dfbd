"""Objectives, optimizer, and the four-phase training loop.

Each epoch: (1) map last epoch's per-node entropies to budgets (epoch 0 runs
fully activated), (2) a train-mode forward under those budgets, (3) one
clipped AdamW step on the regularized objective, (4) refresh the entropies
from this epoch's predictions for the next round. Early stopping keeps the
parameters with the best validation accuracy.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import Graph
from .moe_core import (
    ForwardResult,
    ModelConfig,
    ModelParams,
    RoutingState,
    RoutingTrace,
    TopK,
    accuracy,
    forward,
    init_params,
    map_budget,
    predict,
    predictive_entropy,
)
from .numerics import Var

log = logging.getLogger(__name__)


class TrainingDivergence(RuntimeError):
    """The objective went non-finite; carries the failing epoch."""

    def __init__(self, epoch: int, message: str):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch


# ---- ablation variants ---------------------------------------------------


@dataclass(frozen=True)
class Full:
    """Entropy-driven per-node budgets (the complete method)."""


@dataclass(frozen=True)
class StaticTopK:
    """Fixed expert count for every node at every epoch (no cold start)."""

    k: int


@dataclass(frozen=True)
class FixedTopP:
    """One global threshold for every node and epoch (after the cold start)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")


@dataclass(frozen=True)
class RandomTopP:
    """Entropy-derived thresholds shuffled across nodes each epoch: the
    marginal budget distribution survives, the difficulty alignment does not."""


@dataclass(frozen=True)
class NoRoutingEntropy:
    """Full method with the routing-sharpness regularizer disabled."""


@dataclass(frozen=True)
class NoLoadBalance:
    """Full method with the load-balance regularizer disabled."""


Variant = Full | StaticTopK | FixedTopP | RandomTopP | NoRoutingEntropy | NoLoadBalance

_VARIANT_NAMES = {
    "full": Full, "static_topk": StaticTopK, "fixed_topp": FixedTopP,
    "random_topp": RandomTopP, "no_re": NoRoutingEntropy, "no_lb": NoLoadBalance,
}


def make_variant(name: str, k: int | None = None, p: float | None = None) -> Variant:
    if name not in _VARIANT_NAMES:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(_VARIANT_NAMES)}")
    if name == "static_topk":
        if k is None:
            raise ValueError("static_topk needs k")
        return StaticTopK(k)
    if name == "fixed_topp":
        if p is None:
            raise ValueError("fixed_topp needs p")
        return FixedTopP(p)
    return _VARIANT_NAMES[name]()


# ---- configuration -------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 500
    patience: int = 100
    lr: float = 0.01
    weight_decay: float = 5e-4
    lambda_re: float = 1e-4
    lambda_lb: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 5.0
    seed: int = 0
    strict_proxy: bool = False

    def __post_init__(self):
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.lambda_re < 0 or self.lambda_lb < 0:
            raise ValueError("loss weights must be nonnegative")


# ---- losses --------------------------------------------------------------


@dataclass
class LossBreakdown:
    task: float
    routing_entropy: float
    load_balance: float
    total: float
    lam1: float
    lam2: float


def task_loss(trace_probs: np.ndarray, labels: np.ndarray, train_mask: np.ndarray) -> float:
    """Mean negative log-probability of the true class over training nodes
    (plain-value counterpart of the tape op)."""
    idx = np.flatnonzero(train_mask)
    if idx.size == 0:
        raise ValueError("task_loss: empty training mask")
    picked = np.maximum(trace_probs[idx, labels[idx]], 1e-12)
    return float(-np.log(picked).mean())


def routing_entropy_loss(trace: RoutingTrace) -> float:
    """Mean Shannon entropy (natural log) of the router distributions over all
    nodes and layers; zero when every row is one-hot, ln K when uniform."""
    n = trace.layers[0].pi.shape[0]
    total = 0.0
    for lt in trace.layers:
        p = lt.pi
        total += float(np.where(p > 0, p * np.log(np.maximum(p, 1e-12)), 0.0).sum())
    return -total / (n * len(trace.layers))


def load_balance_loss(trace: RoutingTrace) -> float:
    """Per layer: K * sum_i f_i * Q_i where f_i is the fraction of nodes that
    selected expert i (a constant) and Q_i the mean routing probability.
    Balanced one-expert routing gives exactly 1.0 per layer; total collapse
    onto one expert gives K."""
    total = 0.0
    for lt in trace.layers:
        k = lt.pi.shape[1]
        f = lt.selected.mean(axis=0)
        q = lt.pi.mean(axis=0)
        total += float(k * (f * q).sum())
    return total


def total_loss(task: float, routing_entropy: float, load_balance: float,
               lam1: float, lam2: float) -> LossBreakdown:
    return LossBreakdown(task=task, routing_entropy=routing_entropy,
                         load_balance=load_balance,
                         total=task + lam1 * routing_entropy + lam2 * load_balance,
                         lam1=lam1, lam2=lam2)


def losses_on_tape(fw: ForwardResult, g: Graph, lam1: float, lam2: float
                   ) -> tuple[LossBreakdown, Var, Var]:
    """Build the regularized objective on the forward tape. Returns the value
    breakdown, the total scalar Var, and the task scalar Var. The selection
    frequencies inside the balance term are frozen constants: its gradient
    reaches parameters only through the mean routing probabilities."""
    tape = fw.tape
    n = fw.probs.shape[0]
    n_layers = len(fw.layer_pis)

    task = tape.masked_nll(fw.probs, g.labels, g.mask_idx("train"))

    ent = None
    for pi in fw.layer_pis:
        term = tape.plogp_sum(pi)
        ent = term if ent is None else tape.add(ent, term)
    ent = tape.scale(ent, -1.0 / (n * n_layers))

    lb = None
    for pi, lt in zip(fw.layer_pis, fw.trace.layers):
        freq = lt.selected.mean(axis=0)  # constant: no gradient through f
        term = tape.scale(tape.weighted_colsum(pi, freq), pi.shape[1] / n)
        lb = term if lb is None else tape.add(lb, term)

    total = tape.add(task, tape.add(tape.scale(ent, lam1), tape.scale(lb, lam2)))
    breakdown = LossBreakdown(task=task.item(), routing_entropy=ent.item(),
                              load_balance=lb.item(), total=total.item(),
                              lam1=lam1, lam2=lam2)
    return breakdown, total, task


# ---- optimizer -----------------------------------------------------------


_DECAYED_SUFFIXES = ("w", "wa", "wb", "w_self", "w_nbr")


def decays(name: str) -> bool:
    """Weight decay applies to weight matrices only; biases, norm parameters,
    and the router are exempt."""
    if ".router." in name or ".norm." in name:
        return False
    return name.rsplit(".", 1)[-1] in _DECAYED_SUFFIXES


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is at most
    max_norm; returns the pre-clip norm."""
    total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    if max_norm > 0.0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return float(total)


def adamw_step(params: ModelParams, grads: dict[str, np.ndarray],
               state: AdamState, config: TrainConfig) -> None:
    """Bias-corrected Adam with decoupled weight decay. Moments are float64;
    the float32 parameter tensors are updated in place."""
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, arr in params.named_tensors():
        if name not in grads:
            continue
        g = grads[name]
        m = state.m.setdefault(name, np.zeros(arr.shape, dtype=np.float64))
        v = state.v.setdefault(name, np.zeros(arr.shape, dtype=np.float64))
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + config.eps)
        p64 = arr.astype(np.float64)
        if config.weight_decay > 0.0 and decays(name):
            p64 *= 1.0 - config.lr * config.weight_decay
        p64 -= config.lr * update
        arr[...] = p64.astype(np.float32)


# ---- training loop -------------------------------------------------------


@dataclass
class EpochReport:
    epoch: int
    loss_task: float
    loss_re: float
    loss_lb: float
    loss_total: float
    acc_train: float
    acc_val: float
    acc_test: float
    mean_active_experts: float
    per_expert_load: list[float]  # selection frequency, layer-major, length L*K

    def to_json(self) -> str:
        record = {
            "epoch": self.epoch,
            "loss_task": self.loss_task,
            "loss_re": self.loss_re,
            "loss_lb": self.loss_lb,
            "loss_total": self.loss_total,
            "acc_train": self.acc_train,
            "acc_val": self.acc_val,
            "acc_test": self.acc_test,
            "mean_active_experts": self.mean_active_experts,
            "per_expert_load": self.per_expert_load,
        }
        return json.dumps(record)


@dataclass
class TrainState:
    params: ModelParams          # best-validation snapshot
    final_params: ModelParams
    best_epoch: int
    best_val_acc: float
    history: list[EpochReport]
    routing: RoutingState
    stopped_early: bool


def _epoch_budget(variant: Variant, epoch: int, entropy: np.ndarray | None,
                  cfg: ModelConfig, n: int, routing_rng: np.random.Generator,
                  threshold_override: np.ndarray | None):
    if threshold_override is not None:
        return threshold_override
    if isinstance(variant, StaticTopK):
        return TopK(variant.k)
    if epoch == 0:
        return np.ones(n)
    if isinstance(variant, FixedTopP):
        return np.full(n, variant.p)
    thresholds = map_budget(entropy, cfg.gamma, epoch)
    if isinstance(variant, RandomTopP):
        return thresholds[routing_rng.permutation(n)]
    return thresholds


def _effective_lambdas(variant: Variant, config: TrainConfig) -> tuple[float, float]:
    lam1 = 0.0 if isinstance(variant, NoRoutingEntropy) else config.lambda_re
    lam2 = 0.0 if isinstance(variant, NoLoadBalance) else config.lambda_lb
    return lam1, lam2


def fit(g: Graph, model_config: ModelConfig, config: TrainConfig,
        variant: Variant = Full(),
        threshold_override: np.ndarray | None = None,
        epoch_hook: Callable[..., None] | None = None) -> TrainState:
    """Train on the graph's train mask, early-stopping on validation accuracy.

    ``threshold_override`` is a diagnostic: a fixed per-node threshold vector
    applied at every epoch in place of any budget rule. ``epoch_hook`` (if
    given) is called after each epoch with keyword arguments (epoch, budget,
    prev_entropy, report, params).
    """
    if not g.train_mask.any():
        raise ValueError("fit: graph has no training nodes")
    if not g.val_mask.any():
        raise ValueError("fit: graph has no validation nodes")
    if isinstance(variant, StaticTopK) and not 1 <= variant.k <= model_config.experts:
        raise ValueError(f"static_topk k={variant.k} outside [1, {model_config.experts}]")
    if threshold_override is not None:
        threshold_override = np.asarray(threshold_override, dtype=np.float64)
        if threshold_override.shape != (g.n,):
            raise ValueError(f"threshold_override must have shape ({g.n},)")

    seq = np.random.SeedSequence(config.seed)
    init_ss, dropout_ss, data_ss, routing_ss = seq.spawn(4)
    init_rng = np.random.default_rng(init_ss)
    dropout_rng = np.random.default_rng(dropout_ss)
    routing_rng = np.random.default_rng(routing_ss)
    del data_ss  # reserved for callers that generate data from the same seed

    params = init_params(model_config, init_rng)
    adam = AdamState()
    lam1, lam2 = _effective_lambdas(variant, config)

    entropy: np.ndarray | None = None
    routing_state = RoutingState()
    history: list[EpochReport] = []
    best_params = params.copy()
    best_val = -np.inf
    best_epoch = -1
    bad_epochs = 0
    stopped_early = False

    for epoch in range(config.max_epochs):
        budget = _epoch_budget(variant, epoch, entropy, model_config, g.n,
                               routing_rng, threshold_override)
        routing_state = RoutingState(
            epoch=epoch, entropy=entropy,
            threshold=None if isinstance(budget, TopK) else budget)

        fw = forward(params, g, budget, mode="train", rng=dropout_rng)
        breakdown, total_var, _ = losses_on_tape(fw, g, lam1, lam2)
        if not np.isfinite(breakdown.total):
            raise TrainingDivergence(
                epoch, f"non-finite objective (task={breakdown.task}, "
                       f"re={breakdown.routing_entropy}, lb={breakdown.load_balance})")

        fw.tape.backward(total_var)
        grads = {name: fw.leaf_vars[name].grad
                 for name, _ in params.named_tensors() if ".running_" not in name}
        clip_global_norm(grads, config.grad_clip)
        adamw_step(params, grads, adam, config)

        ev_probs = forward(params, g, budget, mode="eval").probs.value
        entropy = predictive_entropy(ev_probs if config.strict_proxy else fw.probs.value)
        preds = predict(ev_probs)
        report = EpochReport(
            epoch=epoch,
            loss_task=breakdown.task,
            loss_re=breakdown.routing_entropy,
            loss_lb=breakdown.load_balance,
            loss_total=breakdown.total,
            acc_train=accuracy(preds, g.labels, g.train_mask),
            acc_val=accuracy(preds, g.labels, g.val_mask),
            acc_test=accuracy(preds, g.labels, g.test_mask),
            mean_active_experts=float(fw.trace.active_counts().mean()),
            per_expert_load=[float(x) for x in fw.trace.selection_freq().reshape(-1)],
        )
        history.append(report)
        if epoch_hook is not None:
            epoch_hook(epoch=epoch, budget=budget, prev_entropy=routing_state.entropy,
                       report=report, params=params)

        if report.acc_val > best_val:
            best_val = report.acc_val
            best_epoch = epoch
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                stopped_early = True
                log.info("early stop at epoch %d (best val %.4f at epoch %d)",
                         epoch, best_val, best_epoch)
                break

    return TrainState(params=best_params, final_params=params, best_epoch=best_epoch,
                      best_val_acc=float(best_val), history=history,
                      routing=routing_state, stopped_early=stopped_early)


def write_metrics(history: list[EpochReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for report in history:
            fh.write(report.to_json() + "\n")
