"""The difficulty-aware mixture model.

One forward pass: an embedding layer, then L mixture layers, each holding K
independent graph experts and a small router MLP. Per node, the router's
softmax scores are cut off at that node's probability budget (top-p over the
descending scores), the surviving scores are renormalized, and the selected
expert outputs are fused into a residual update. A linear head with a row
softmax produces class probabilities.

Within a layer the experts share their neighbourhood aggregation: A_sym·h and,
for SAGE experts, mean_adj·h are computed once per layer, and each expert
applies its own weights to the shared aggregate ((A·h)·W rather than
A·(h·W)). Only the second hop of a two-hop expert is aggregated per expert.

Per-node budgets come from the normalized entropy of an earlier prediction:
high-entropy (hard) nodes get budgets near 1 and activate many experts,
low-entropy (easy) nodes get small budgets and activate few.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .numerics import Tape, Var, sigmoid

TOP_P_SLACK = 1e-9   # absorbs float summation error in the cumulative cutoff
ENTROPY_EPS = 1e-12

CHECKPOINT_MAGIC = b"D2MO"
CHECKPOINT_VERSION = 1

EXPERT_LAYOUTS = ("all_1hop", "half_half")
BACKBONES = ("gcn", "sage")


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with expectations."""


class ExpertKind(enum.Enum):
    GCN_ONE_HOP = "gcn_1hop"
    GCN_TWO_HOP = "gcn_2hop"
    SAGE_MEAN_ONE_HOP = "sage_mean_1hop"


@dataclass(frozen=True)
class ModelConfig:
    in_dim: int
    hidden: int
    classes: int
    experts: int
    layers: int
    dropout: float = 0.5
    gamma: float = 5.0
    use_batch_norm: bool = False
    expert_layout: str = "all_1hop"
    backbone: str = "gcn"

    def __post_init__(self):
        if self.experts < 1 or self.layers < 1:
            raise ValueError("need at least one expert and one layer")
        if self.hidden < 1:
            raise ValueError(f"hidden width must be >= 1, got {self.hidden}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout}")
        if self.expert_layout not in EXPERT_LAYOUTS:
            raise ValueError(f"expert_layout must be one of {EXPERT_LAYOUTS}")
        if self.backbone not in BACKBONES:
            raise ValueError(f"backbone must be one of {BACKBONES}")

    @property
    def router_width(self) -> int:
        return max(self.hidden // 2, 8)

    def expert_kinds(self) -> list[ExpertKind]:
        one_hop = (ExpertKind.GCN_ONE_HOP if self.backbone == "gcn"
                   else ExpertKind.SAGE_MEAN_ONE_HOP)
        if self.expert_layout == "all_1hop":
            return [one_hop] * self.experts
        n_one = math.ceil(self.experts / 2)
        return [one_hop] * n_one + [ExpertKind.GCN_TWO_HOP] * (self.experts - n_one)


# ---- parameters ----------------------------------------------------------


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)


@dataclass
class ExpertParams:
    kind: ExpertKind
    tensors: dict[str, np.ndarray]  # insertion order is the serialization order

    @staticmethod
    def create(kind: ExpertKind, hidden: int, rng: np.random.Generator) -> "ExpertParams":
        zeros = np.zeros((1, hidden), dtype=np.float32)
        if kind is ExpertKind.GCN_ONE_HOP:
            t = {"w": _glorot(rng, hidden, hidden), "b": zeros}
        elif kind is ExpertKind.GCN_TWO_HOP:
            t = {"wa": _glorot(rng, hidden, hidden), "wb": _glorot(rng, hidden, hidden),
                 "b": zeros}
        else:
            t = {"w_self": _glorot(rng, hidden, hidden),
                 "w_nbr": _glorot(rng, hidden, hidden), "b": zeros}
        return ExpertParams(kind, t)

    def copy(self) -> "ExpertParams":
        return ExpertParams(self.kind, {k: v.copy() for k, v in self.tensors.items()})


@dataclass
class RouterParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def copy(self) -> "RouterParams":
        return RouterParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


@dataclass
class NormParams:
    gamma: np.ndarray         # (1, h) float32
    beta: np.ndarray
    running_mean: np.ndarray  # (1, h) float32, updated during training forwards
    running_var: np.ndarray

    def copy(self) -> "NormParams":
        return NormParams(self.gamma.copy(), self.beta.copy(),
                          self.running_mean.copy(), self.running_var.copy())


@dataclass
class LayerParams:
    experts: list[ExpertParams]
    router: RouterParams
    norm: NormParams | None

    def copy(self) -> "LayerParams":
        return LayerParams([e.copy() for e in self.experts], self.router.copy(),
                           self.norm.copy() if self.norm else None)


@dataclass
class ModelParams:
    config: ModelConfig
    embed_w: np.ndarray
    embed_b: np.ndarray
    layers: list[LayerParams]
    head_w: np.ndarray
    head_b: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.embed_w.copy(), self.embed_b.copy(),
                           [l.copy() for l in self.layers],
                           self.head_w.copy(), self.head_b.copy())

    def named_tensors(self):
        """Stable (name, array) iteration; the order defines the checkpoint
        layout and the optimizer state keys."""
        yield "embed.w", self.embed_w
        yield "embed.b", self.embed_b
        for l, layer in enumerate(self.layers):
            for i, expert in enumerate(layer.experts):
                for suffix, arr in expert.tensors.items():
                    yield f"layer{l}.expert{i}.{suffix}", arr
            r = layer.router
            yield f"layer{l}.router.w1", r.w1
            yield f"layer{l}.router.b1", r.b1
            yield f"layer{l}.router.w2", r.w2
            yield f"layer{l}.router.b2", r.b2
            if layer.norm is not None:
                yield f"layer{l}.norm.gamma", layer.norm.gamma
                yield f"layer{l}.norm.beta", layer.norm.beta
                yield f"layer{l}.norm.running_mean", layer.norm.running_mean
                yield f"layer{l}.norm.running_var", layer.norm.running_var
        yield "head.w", self.head_w
        yield "head.b", self.head_b

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        for tname, arr in self.named_tensors():
            if tname == name:
                if arr.shape != value.shape:
                    raise CheckpointError(
                        f"tensor {name}: expected shape {arr.shape}, got {value.shape}")
                arr[...] = value
                return
        raise CheckpointError(f"unknown tensor name {name!r}")


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    h, c = config.hidden, config.classes
    embed_w = _glorot(rng, config.in_dim, h)
    embed_b = np.zeros((1, h), dtype=np.float32)
    layers = []
    for _ in range(config.layers):
        experts = [ExpertParams.create(kind, h, rng) for kind in config.expert_kinds()]
        r = config.router_width
        router = RouterParams(_glorot(rng, h, r), np.zeros((1, r), dtype=np.float32),
                              _glorot(rng, r, config.experts),
                              np.zeros((1, config.experts), dtype=np.float32))
        norm = None
        if config.use_batch_norm:
            norm = NormParams(np.ones((1, h), dtype=np.float32),
                              np.zeros((1, h), dtype=np.float32),
                              np.zeros((1, h), dtype=np.float32),
                              np.ones((1, h), dtype=np.float32))
        layers.append(LayerParams(experts, router, norm))
    head_w = _glorot(rng, h, c)
    head_b = np.zeros((1, c), dtype=np.float32)
    return ModelParams(config, embed_w, embed_b, layers, head_w, head_b)


# ---- difficulty -> budget ------------------------------------------------


def predictive_entropy(probs: np.ndarray) -> np.ndarray:
    """Normalized Shannon entropy per row, in [0, 1]. Base-2 logs make the
    normalizer exact for power-of-two class counts; zero probabilities
    contribute exactly zero."""
    probs = np.asarray(probs, dtype=np.float64)
    c = probs.shape[1]
    if c < 2:
        raise ValueError(f"entropy needs at least 2 classes, got {c}")
    terms = np.where(probs > 0.0, probs * np.log2(np.maximum(probs, ENTROPY_EPS)), 0.0)
    return np.clip(-terms.sum(axis=1) / np.log2(c), 0.0, 1.0)


def map_budget(entropy: np.ndarray, gamma: float, epoch: int) -> np.ndarray:
    """Per-node budget thresholds. Epoch 0 is the cold start: every budget is
    1 (full activation). Later epochs center the entropies on their mean over
    all nodes and squash through a sigmoid with steepness gamma."""
    entropy = np.asarray(entropy, dtype=np.float64)
    if entropy.size == 0:
        raise ValueError("map_budget: empty entropy vector")
    if epoch == 0:
        return np.ones_like(entropy)
    return sigmoid(gamma * (entropy - entropy.mean()))


def select_top_p(pi: np.ndarray, p: float) -> np.ndarray:
    """Minimal prefix of the descending-score order whose cumulative mass
    reaches p (small slack absorbs float summation error). Ties keep the
    lower index first; at least one expert is always selected. Returns the
    selected indices in selection order."""
    pi = np.asarray(pi, dtype=np.float64)
    order = np.argsort(-pi, kind="stable")
    csum = np.cumsum(pi[order])
    m = min(pi.size, int((csum < p - TOP_P_SLACK).sum()) + 1)
    return order[:m]


def select_top_p_batch(pi: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Vectorized top-p over rows; returns a boolean selection mask."""
    order = np.argsort(-pi, axis=1, kind="stable")
    csum = np.cumsum(np.take_along_axis(pi, order, axis=1), axis=1)
    m = np.minimum(pi.shape[1], (csum < thresholds[:, None] - TOP_P_SLACK).sum(axis=1) + 1)
    chosen = np.arange(pi.shape[1])[None, :] < m[:, None]
    mask = np.zeros(pi.shape, dtype=bool)
    np.put_along_axis(mask, order, chosen, axis=1)
    return mask


def top_k_mask(pi: np.ndarray, k: int) -> np.ndarray:
    """Fixed-budget selection: the k largest scores per row (stable ties)."""
    if not 1 <= k <= pi.shape[1]:
        raise ValueError(f"k must be in [1, {pi.shape[1]}], got {k}")
    order = np.argsort(-pi, axis=1, kind="stable")
    mask = np.zeros(pi.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=1)
    return mask


def renormalize(pi: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Rescale the selected entries of a score vector to sum to 1."""
    selected = np.asarray(selected)
    out = np.zeros_like(pi, dtype=np.float64)
    mass = pi[selected].sum()
    if mass <= 0.0:
        raise ValueError("renormalize: selected mass is zero")
    out[selected] = pi[selected] / mass
    return out


def route_scores(h: np.ndarray, router: RouterParams) -> np.ndarray:
    """Router distribution over experts for each row of h (plain numpy)."""
    hidden = np.maximum(h @ router.w1.astype(np.float64) + router.b1.astype(np.float64), 0.0)
    logits = hidden @ router.w2.astype(np.float64) + router.b2.astype(np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class TopK:
    """Budget rule selecting a fixed number of experts for every node."""

    k: int


# ---- forward pass --------------------------------------------------------


@dataclass
class LayerTrace:
    pi: np.ndarray        # (n, K) router distribution
    selected: np.ndarray  # (n, K) bool
    renorm: np.ndarray    # (n, K), zero where unselected, rows sum to 1


@dataclass
class RoutingTrace:
    layers: list[LayerTrace]

    def active_counts(self) -> np.ndarray:
        """(L, n) number of selected experts per layer and node."""
        return np.stack([lt.selected.sum(axis=1) for lt in self.layers])

    def selection_freq(self) -> np.ndarray:
        """(L, K) fraction of nodes selecting each expert."""
        return np.stack([lt.selected.mean(axis=0) for lt in self.layers])


@dataclass
class RoutingState:
    """Bootstrap memory between epochs: entropies from the previous epoch and
    the thresholds derived from them for the current one."""

    epoch: int = 0
    entropy: np.ndarray | None = None
    threshold: np.ndarray | None = None

    @property
    def mean_entropy(self) -> float | None:
        return None if self.entropy is None else float(self.entropy.mean())


@dataclass
class ForwardResult:
    probs: Var                 # (n, C) on tape
    layer_pis: list[Var]       # router distributions on tape, one per layer
    trace: RoutingTrace
    tape: Tape
    leaf_vars: dict[str, Var]  # parameter name -> tape leaf


def _layer_aggregates(tape: Tape, h: Var, g: Graph,
                      kinds: list[ExpertKind]) -> dict[str, Var]:
    """Each distinct neighbourhood aggregate of ``h`` the layer's experts read,
    computed once: ``"sym"`` is A_sym·h (every GCN expert's first hop) and
    ``"mean"`` is mean_adj·h (every SAGE expert's neighbour term)."""
    agg = {}
    if any(k is not ExpertKind.SAGE_MEAN_ONE_HOP for k in kinds):
        agg["sym"] = tape.spmm(g.adj, g.adj_t, h)
    if ExpertKind.SAGE_MEAN_ONE_HOP in kinds:
        agg["mean"] = tape.spmm(g.mean_adj, g.mean_adj_t, h)
    return agg


def _expert_output(tape: Tape, expert: ExpertParams, lv: dict[str, Var],
                   prefix: str, h: Var, agg: dict[str, Var], g: Graph) -> Var:
    """One expert's output from the layer input ``h`` and the shared
    aggregates ``agg`` of ``_layer_aggregates``. A GCN hop is written
    (A·h)·W, which equals A·(h·W) up to float reassociation."""
    t = {suffix: lv[f"{prefix}.{suffix}"] for suffix in expert.tensors}
    if expert.kind is ExpertKind.GCN_ONE_HOP:
        return tape.add_bias(tape.matmul(agg["sym"], t["w"]), t["b"])
    if expert.kind is ExpertKind.GCN_TWO_HOP:
        inner = tape.relu(tape.matmul(agg["sym"], t["wa"]))
        return tape.add_bias(tape.matmul(tape.spmm(g.adj, g.adj_t, inner), t["wb"]), t["b"])
    self_term = tape.matmul(h, t["w_self"])
    nbr_term = tape.matmul(agg["mean"], t["w_nbr"])
    return tape.add_bias(tape.add(self_term, nbr_term), t["b"])


def forward(params: ModelParams, g: Graph, budget, mode: str = "train",
            rng: np.random.Generator | None = None,
            update_norm_stats: bool | None = None) -> ForwardResult:
    """Run the model end to end.

    ``budget`` is either a per-node threshold vector (top-p selection) or a
    TopK rule. Train mode applies dropout (requires ``rng``) and batch
    statistics; eval mode is deterministic and uses running statistics.
    ``update_norm_stats`` defaults to True exactly in train mode; pass False
    to keep running statistics frozen (finite-difference probing re-runs the
    forward many times and must not drift them).
    """
    cfg = params.config
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    if update_norm_stats is None:
        update_norm_stats = train
    keep = 1.0 - cfg.dropout
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout needs an RNG stream")
    if isinstance(budget, TopK):
        if not 1 <= budget.k <= cfg.experts:
            raise ValueError(f"TopK budget {budget.k} outside [1, {cfg.experts}]")
    else:
        budget = np.asarray(budget, dtype=np.float64)
        if budget.shape != (g.n,):
            raise ValueError(f"threshold vector must have shape ({g.n},), got {budget.shape}")

    tape = Tape()
    lv = {name: tape.leaf(arr) for name, arr in params.named_tensors()}
    x = tape.leaf(g.features)

    h = tape.relu(tape.add_bias(tape.matmul(x, lv["embed.w"]), lv["embed.b"]))
    if use_dropout:
        h = tape.dropout(h, keep, rng)

    layer_pis: list[Var] = []
    traces: list[LayerTrace] = []
    for l, layer in enumerate(params.layers):
        agg = _layer_aggregates(tape, h, g, [e.kind for e in layer.experts])
        zs = [_expert_output(tape, e, lv, f"layer{l}.expert{i}", h, agg, g)
              for i, e in enumerate(layer.experts)]
        r1 = tape.relu(tape.add_bias(tape.matmul(h, lv[f"layer{l}.router.w1"]),
                                     lv[f"layer{l}.router.b1"]))
        logits = tape.add_bias(tape.matmul(r1, lv[f"layer{l}.router.w2"]),
                               lv[f"layer{l}.router.b2"])
        pi = tape.softmax_rows(logits)
        if isinstance(budget, TopK):
            mask = top_k_mask(pi.value, budget.k)
        else:
            mask = select_top_p_batch(pi.value, budget)
        pibar = tape.renorm_masked(pi, mask)
        h = tape.add(h, tape.mix(zs, pibar))
        if layer.norm is not None:
            gamma, beta = lv[f"layer{l}.norm.gamma"], lv[f"layer{l}.norm.beta"]
            if train:
                h = tape.batchnorm_train(h, gamma, beta,
                                         layer.norm.running_mean[0],
                                         layer.norm.running_var[0],
                                         update_running=update_norm_stats)
            else:
                h = tape.batchnorm_eval(h, gamma, beta,
                                        layer.norm.running_mean[0],
                                        layer.norm.running_var[0])
        h = tape.relu(h)
        if use_dropout:
            h = tape.dropout(h, keep, rng)
        layer_pis.append(pi)
        traces.append(LayerTrace(pi=pi.value, selected=mask, renorm=pibar.value))

    probs = tape.softmax_rows(tape.add_bias(tape.matmul(h, lv["head.w"]), lv["head.b"]))
    return ForwardResult(probs, layer_pis, RoutingTrace(traces), tape, lv)


def predict(probs: np.ndarray) -> np.ndarray:
    """Row argmax; ties resolve to the lowest class index."""
    return np.argmax(probs, axis=1)


def accuracy(predictions: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return float("nan")
    return float((predictions[idx] == labels[idx]).mean())


# ---- evaluation ----------------------------------------------------------


@dataclass
class EvalReport:
    probs: np.ndarray
    predictions: np.ndarray
    entropy: np.ndarray           # per-node normalized entropy (full-activation pass)
    thresholds: np.ndarray | None  # budgets used for the reported pass (None for TopK)
    trace: RoutingTrace
    acc_train: float
    acc_val: float
    acc_test: float


def evaluate(params: ModelParams, g: Graph, budget=None) -> EvalReport:
    """Deterministic scoring of a graph.

    With ``budget=None`` the adaptive two-pass rule applies: a full-activation
    pass produces probabilities, their normalized entropy is mapped through
    the sigmoid budget (mean over all scored nodes), and a second top-p pass
    under those thresholds yields the reported predictions. An explicit
    threshold vector or TopK rule skips the first pass.
    """
    if budget is None:
        first = forward(params, g, np.ones(g.n), mode="eval")
        entropy = predictive_entropy(first.probs.value)
        thresholds = map_budget(entropy, params.config.gamma, epoch=1)
        fw = forward(params, g, thresholds, mode="eval")
    else:
        fw = forward(params, g, budget, mode="eval")
        entropy = predictive_entropy(fw.probs.value)
        thresholds = None if isinstance(budget, TopK) else np.asarray(budget, np.float64)
    probs = fw.probs.value
    preds = predict(probs)
    return EvalReport(
        probs=probs, predictions=preds, entropy=entropy, thresholds=thresholds,
        trace=fw.trace,
        acc_train=accuracy(preds, g.labels, g.train_mask),
        acc_val=accuracy(preds, g.labels, g.val_mask),
        acc_test=accuracy(preds, g.labels, g.test_mask),
    )


# ---- checkpoint format ---------------------------------------------------


def _write_str(fh, text: str) -> None:
    raw = text.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, got {len(raw)}")
    return raw


def _read_str(fh) -> str:
    (n,) = struct.unpack("<H", _read_exact(fh, 2))
    return _read_exact(fh, n).decode("utf-8")


def save_checkpoint(params: ModelParams, path) -> None:
    """Binary layout (all integers little-endian):
    magic 'D2MO', version u32, then the config block (experts, layers, hidden,
    in_dim, classes as u32; expert_layout and backbone as length-prefixed
    strings; batch-norm flag u8; gamma and dropout as f64), then tensor count
    u32 and per tensor: name (u16 length + utf-8), rows u32, cols u32, and
    rows*cols float32 values row-major."""
    cfg = params.config
    tensors = list(params.named_tensors())
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<5I", cfg.experts, cfg.layers, cfg.hidden,
                             cfg.in_dim, cfg.classes))
        _write_str(fh, cfg.expert_layout)
        _write_str(fh, cfg.backbone)
        fh.write(struct.pack("<B", int(cfg.use_batch_norm)))
        fh.write(struct.pack("<2d", cfg.gamma, cfg.dropout))
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            if arr.dtype != np.float32:
                raise CheckpointError(f"tensor {name} is {arr.dtype}, expected float32")
            _write_str(fh, name)
            fh.write(struct.pack("<2I", arr.shape[0], arr.shape[1]))
            fh.write(arr.astype("<f4", copy=False).tobytes(order="C"))


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        experts, layers, hidden, in_dim, classes = struct.unpack("<5I", _read_exact(fh, 20))
        layout = _read_str(fh)
        backbone = _read_str(fh)
        (use_norm,) = struct.unpack("<B", _read_exact(fh, 1))
        gamma, dropout = struct.unpack("<2d", _read_exact(fh, 16))
        cfg = ModelConfig(in_dim=in_dim, hidden=hidden, classes=classes,
                          experts=experts, layers=layers, dropout=dropout,
                          gamma=gamma, use_batch_norm=bool(use_norm),
                          expert_layout=layout, backbone=backbone)
        params = init_params(cfg, np.random.default_rng(0))
        expected = {name for name, _ in params.named_tensors()}
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        if count != len(expected):
            raise CheckpointError(f"{path}: expected {len(expected)} tensors, found {count}")
        for _ in range(count):
            name = _read_str(fh)
            rows, cols = struct.unpack("<2I", _read_exact(fh, 8))
            raw = _read_exact(fh, rows * cols * 4)
            value = np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float32)
            params.set_tensor(name, value)
            expected.discard(name)
        if expected:
            raise CheckpointError(f"{path}: checkpoint missing tensors {sorted(expected)}")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return params
