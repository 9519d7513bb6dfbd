"""Objectives, optimizer, and the four-phase training loop.

Each epoch: (1) map last epoch's per-node entropies to budgets (epoch 0 runs
fully activated; a TopK variant keeps its k throughout), (2) a train-mode
forward under those budgets, (3) one clipped AdamW step on the regularized
objective, (4) refresh the entropies from this epoch's predictions for the
next round. ``_epoch`` runs the four phases and builds the epoch's one
record, ``EpochReport``; ``fit`` calls the epoch hook, stops early and keeps
the parameters with the best validation accuracy.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .graph import Graph
from .moe_core import (
    ForwardResult,
    ModelConfig,
    ModelParams,
    RoutingTrace,
    TopK,
    evaluate,
    forward,
    init_params,
    map_budget,
    predictive_entropy,
)
from .numerics import Var

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9     # first-moment decay
ADAM_BETA2 = 0.999   # second-moment decay
ADAM_EPS = 1e-8      # added to the root of the second moment
GRAD_CLIP = 5.0      # bound on the global gradient L2 norm per step
# adamw_step's slice length: one pass over a large store faults in fresh pages
# for its store-sized temporaries at every step (about 4x slower at 290k values)
ADAM_BLOCK = 16384


class TrainingDivergence(RuntimeError):
    """The objective, the gradient norm or a pass of an epoch after the first
    parameter update went non-finite; carries the failing epoch. Before that
    update the inputs are at fault, and ``fit`` re-raises their ValueError."""

    def __init__(self, epoch: int, message: str):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch


# ---- ablation variants: budget rules -------------------------------------
# A variant sets only how an epoch's expert budget is chosen; the penalty
# weights are TrainConfig's lambda_re and lambda_lb.


@dataclass(frozen=True)
class Full:
    """Entropy-driven per-node budgets (the complete method)."""


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


Variant = Full | TopK | FixedTopP | RandomTopP

VARIANT_NAMES = {
    "full": Full, "static_topk": TopK, "fixed_topp": FixedTopP, "random_topp": RandomTopP,
}


def make_variant(name: str, k: int | None = None, p: float | None = None) -> Variant:
    if name not in VARIANT_NAMES:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANT_NAMES)}")
    if name == "static_topk":
        if k is None:
            raise ValueError("static_topk needs k")
        return TopK(k)
    if name == "fixed_topp":
        if p is None:
            raise ValueError("fixed_topp needs p")
        return FixedTopP(p)
    return VARIANT_NAMES[name]()


def variant_label(variant: Variant) -> str:
    """The variant's table name, with its k or p: ``static_topk(1)``."""
    name = {cls: n for n, cls in VARIANT_NAMES.items()}[type(variant)]
    if isinstance(variant, TopK):
        return f"{name}({variant.k})"
    if isinstance(variant, FixedTopP):
        return f"{name}({variant.p:g})"
    return name


# ---- configuration -------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 500
    patience: int = 100
    lr: float = 0.01
    weight_decay: float = 5e-4
    lambda_re: float = 1e-4
    lambda_lb: float = 1e-3
    seed: int = 0
    strict_proxy: bool = False

    def __post_init__(self):
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")
        for name in ("lambda_re", "lambda_lb", "weight_decay"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


# ---- losses --------------------------------------------------------------


def losses_on_tape(fw: ForwardResult, g: Graph, lam1: float, lam2: float
                   ) -> tuple[Var, float, float, float]:
    """Build the regularized objective on the forward tape in two steps:
    ``masked_nll``, the mean true-class NLL over training nodes; then
    ``routing_penalty``, which adds to it lam1 times the mean router entropy
    (natural log) over nodes and layers plus lam2 times the balance term, per
    layer K * sum_i f_i * Q_i (f_i the fraction of nodes selecting expert i,
    Q_i its mean routing probability). Returns the total scalar Var and the
    task, router-entropy and balance values. The selection frequencies f_i are
    frozen constants: the balance gradient reaches parameters only through
    Q_i."""
    tape = fw.tape
    task = tape.masked_nll(fw.probs, g.labels, g.mask_idx("train"))
    total, ent, lb = tape.routing_penalty(task, fw.layer_pis, fw.trace.selection_freq(),
                                          lam1, lam2)
    return total, task.item(), ent, lb


# ---- optimizer -----------------------------------------------------------


class AdamState:
    """The step count and float64 moments of a ``size``-element store. Made
    with the store: allocated at the first step, after a backward, they
    raised ``train_experts`` peak RSS by about 5 MB."""

    def __init__(self, size: int):
        self.step = 0
        self.m, self.v = np.zeros(size), np.zeros(size)


def clip_global_norm(grad: np.ndarray) -> float:
    """Scale the gradient vector in place so its L2 norm is at most GRAD_CLIP;
    returns the pre-clip norm, summed by numpy (BLAS ``dot``'s order may vary
    with the thread count). A non-finite norm scales nothing."""
    total = math.sqrt((grad * grad).sum())
    if math.isfinite(total) and total > GRAD_CLIP:
        grad *= GRAD_CLIP / total
    return total


def adamw_step(params: ModelParams, grad: np.ndarray, state: AdamState,
               config: TrainConfig) -> None:
    """Bias-corrected Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) with decoupled
    weight decay on ``params.flat`` in ADAM_BLOCK slices, from its float64
    gradient. Where ``params.decayed`` is False the decay factor is exactly 1.0.
    A block whose update leaves the store's finite range (NaN included)
    raises ValueError before it is written, so the store stays finite."""
    if grad.shape != params.flat.shape:
        raise ValueError(f"gradient has shape {grad.shape}, store {params.flat.shape}")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    rate = config.lr * config.weight_decay
    limit = np.finfo(params.flat.dtype).max
    for lo in range(0, grad.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        g, m, v = grad[block], state.m[block], state.v[block]
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p64 = params.flat[block].astype(np.float64)
        p64 *= 1.0 - rate * params.decayed[block]
        p64 -= config.lr * update
        if not -limit <= p64.min() <= p64.max() <= limit:
            raise ValueError(f"adamw_step: update leaves the store's finite range in "
                             f"elements [{lo}, {lo + p64.size})")
        params.flat[block] = p64


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
        """One JSON object, keys in field order. An accuracy over an empty
        split is null; any other non-finite value raises ValueError."""
        row = asdict(self)
        for key in ("acc_train", "acc_val", "acc_test"):
            if math.isnan(row[key]):
                row[key] = None
        return json.dumps(row, allow_nan=False)


@dataclass
class TrainState:
    params: ModelParams          # best-validation epoch, a store of its own
    final_params: ModelParams    # the store ``fit`` trained, after the last epoch
    best_epoch: int
    best_val_acc: float
    history: list[EpochReport]
    stopped_early: bool


def _epoch_budget(variant: Variant, epoch: int, entropy: np.ndarray | None,
                  cfg: ModelConfig, n: int, routing_rng: np.random.Generator):
    """The budget ``forward`` runs under at ``epoch``, read off the variant: a
    TopK variant itself at every epoch; otherwise the epoch-0 cold start
    (every threshold 1, full activation), then the variant's thresholds from
    last epoch's entropies. Checking the budget is left to ``forward``."""
    if isinstance(variant, TopK):
        return variant
    if epoch == 0:
        return np.ones(n)
    if isinstance(variant, FixedTopP):
        return np.full(n, variant.p)
    thresholds = map_budget(entropy, cfg.gamma)
    if isinstance(variant, RandomTopP):
        return thresholds[routing_rng.permutation(n)]
    return thresholds


def _train_step(params: ModelParams, g: Graph, budget, dropout_rng: np.random.Generator,
                adam: AdamState, config: TrainConfig, epoch: int
                ) -> tuple[tuple[float, float, float, float], np.ndarray, RoutingTrace]:
    """Phases 2 and 3 of an epoch: a train-mode forward and one AdamW step on
    the objective regularized by the config's lambda_re and lambda_lb, whose
    gradient vector is clipped to GRAD_CLIP; a non-finite objective or
    gradient norm raises TrainingDivergence first.
    Returns the losses in EpochReport's order (task, router entropy, balance,
    total), the train-mode class probabilities and the routing trace; the
    tape is freed when this returns."""
    fw = forward(params, g, budget, mode="train", rng=dropout_rng)
    total_var, task, ent, lb = losses_on_tape(fw, g, config.lambda_re, config.lambda_lb)
    total = total_var.item()
    if not np.isfinite(total):
        raise TrainingDivergence(epoch, f"non-finite objective (task={task}, re={ent}, lb={lb})")

    grad = fw.tape.backward(total_var)
    norm = clip_global_norm(grad)
    if not math.isfinite(norm):
        bad = ", ".join(n for n, v in fw.leaf_vars.items() if not np.isfinite(v.grad).all())
        raise TrainingDivergence(epoch, f"gradient norm {norm}; non-finite gradients: {bad}")
    adamw_step(params, grad, adam, config)
    return (task, ent, lb, total), fw.probs.value, fw.trace


def _epoch(params: ModelParams, g: Graph, variant: Variant, config: TrainConfig,
           adam: AdamState, dropout_rng: np.random.Generator,
           routing_rng: np.random.Generator, epoch: int, prev_entropy: np.ndarray | None):
    """One epoch: the budget from ``prev_entropy``, the train step, the
    scoring pass and the entropies that set the next budget. Once a parameter
    has moved, a ValueError from any of these passes is a TrainingDivergence
    at this epoch. Returns the report, the budget, the new entropies and, as
    one opaque tuple, the arrays the report was read from (the scoring
    report, the train-mode probabilities and the routing trace)."""
    budget = _epoch_budget(variant, epoch, prev_entropy, params.config, g.n, routing_rng)
    try:
        losses, train_probs, trace = _train_step(
            params, g, budget, dropout_rng, adam, config, epoch)
        scored = evaluate(params, g, budget)
        entropy = predictive_entropy(scored.probs if config.strict_proxy else train_probs)
    except ValueError as err:
        if adam.step == 0:
            raise
        raise TrainingDivergence(epoch, str(err)) from None
    report = EpochReport(epoch, *losses, scored.acc_train, scored.acc_val, scored.acc_test,
                         mean_active_experts=float(trace.active_counts().mean()),
                         per_expert_load=[float(x) for x in trace.selection_freq().reshape(-1)])
    return report, budget, entropy, (scored, train_probs, trace)


def seed_streams(seed: int) -> list[np.random.SeedSequence]:
    """A master seed's four independent streams: (init, dropout, data,
    routing). ``fit`` leaves data to callers that generate the graph."""
    return np.random.SeedSequence(seed).spawn(4)


def fit(g: Graph, model_config: ModelConfig, config: TrainConfig,
        variant: Variant = Full(),
        epoch_hook: Callable[..., None] | None = None) -> TrainState:
    """Train on the graph's train mask under the variant's budgets,
    early-stopping on validation accuracy once ``patience`` epochs in a row
    have not beaten the best. ``epoch_hook`` (if given) is called after each
    epoch with keyword arguments (epoch, budget, prev_entropy, report, params).
    The best epoch is kept as one copy of ``params.flat``."""
    if not g.train_mask.any():
        raise ValueError("fit: graph has no training nodes")
    if not g.val_mask.any():
        raise ValueError("fit: graph has no validation nodes")

    init_ss, dropout_ss, _, routing_ss = seed_streams(config.seed)
    init_rng = np.random.default_rng(init_ss)
    dropout_rng = np.random.default_rng(dropout_ss)
    routing_rng = np.random.default_rng(routing_ss)

    params = init_params(model_config, init_rng)
    adam = AdamState(params.flat.size)

    entropy: np.ndarray | None = None
    history: list[EpochReport] = []
    best_flat: np.ndarray | None = None
    best_epoch = -1

    for epoch in range(config.max_epochs):
        prev_entropy = entropy
        # ``held`` keeps last epoch's scoring report, train-mode probabilities
        # and routing trace alive until this epoch's record is built. Freeing
        # them once the report was read (1.7 MB at train_aggregate sizes) let
        # glibc trim the heap top after most epochs, whose pages then faulted
        # back in: epochs ran 7-15% slower.
        report, budget, entropy, held = _epoch(params, g, variant, config, adam, dropout_rng,
                                               routing_rng, epoch, prev_entropy)
        history.append(report)
        if epoch_hook is not None:
            epoch_hook(epoch=epoch, budget=budget, prev_entropy=prev_entropy,
                       report=report, params=params)

        if best_epoch < 0 or report.acc_val > history[best_epoch].acc_val:
            best_epoch = epoch
            best_flat = params.flat.copy()
        elif epoch - best_epoch >= config.patience:
            log.info("early stop at epoch %d (best val %.4f at epoch %d)",
                     epoch, history[best_epoch].acc_val, best_epoch)
            break

    return TrainState(params=ModelParams(model_config, best_flat), final_params=params,
                      best_epoch=best_epoch, best_val_acc=float(history[best_epoch].acc_val),
                      history=history,
                      stopped_early=len(history) - 1 - best_epoch >= config.patience)


def write_metrics(history: list[EpochReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for report in history:
            fh.write(report.to_json() + "\n")
