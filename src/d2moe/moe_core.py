"""The difficulty-aware mixture model.

One forward pass: an embedding layer, then L mixture layers, each holding K
independent graph experts and a small router MLP. Per node, the router's
softmax scores are cut off at that node's probability budget (top-p over the
descending scores), the surviving scores are renormalized, and the selected
expert outputs are fused into a residual update. A linear head with a row
softmax produces class probabilities.

Within a layer the experts share their neighbourhood aggregation: A_sym·h and,
for SAGE experts, mean_adj·h are computed once per layer. One tape step,
``Tape.mix_experts``, applies every expert's weights to the shared aggregate
((A·h)·W rather than A·(h·W)), renormalizes the selected scores, mixes and
adds the residual input h. Each expert's weights are applied only to the rows
of the nodes that selected it, so a node that activates fewer experts costs
fewer FLOPs. Only a two-hop expert records steps of its own: its inner hop
and second aggregation run on every node, and only its final product is
restricted to the selecting rows. A train forward without dropout or batch
norm records 4 + 7L steps: the embedding's matmul and relu, per layer the
aggregation, the router's two matmuls, relu and softmax, the mixture and its
relu, and the head's matmul and softmax (dropout adds 1 + L steps, batch norm
L, and each two-hop expert 3 per layer).

Per-node budgets come from the normalized entropy of an earlier prediction:
high-entropy (hard) nodes get budgets near 1 and activate many experts,
low-entropy (easy) nodes get small budgets and activate few.

All parameters live in one ordered name -> float32 array store
(``ModelParams.tensors``); the config says which expert kinds and norm
tensors a layer has, and the store's order is the checkpoint layout.
"""

from __future__ import annotations

import enum
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .numerics import LOG_EPS, Const, Tape, Var, sigmoid

TOP_P_SLACK = 1e-9   # absorbs float summation error in the cumulative cutoff

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

    def expert_kind(self, i: int) -> ExpertKind:
        if self.expert_layout == "half_half" and i >= math.ceil(self.experts / 2):
            return ExpertKind.GCN_TWO_HOP
        return ExpertKind.GCN_ONE_HOP if self.backbone == "gcn" else ExpertKind.SAGE_MEAN_ONE_HOP

    def expert_kinds(self) -> list[ExpertKind]:
        return [self.expert_kind(i) for i in range(self.experts)]


# ---- parameters ----------------------------------------------------------


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)


_RUNNING_STATS = ("running_mean", "running_var")

_EXPERT_WEIGHTS = {
    ExpertKind.GCN_ONE_HOP: ("w",),
    ExpertKind.GCN_TWO_HOP: ("wa", "wb"),
    ExpertKind.SAGE_MEAN_ONE_HOP: ("w_self", "w_nbr"),
}


@dataclass
class ModelParams:
    """Every float32 (rows, cols) tensor of a model by name: ``embed.*``,
    ``layer{l}.expert{i}.*``, ``layer{l}.router.*``, ``layer{l}.norm.*`` (batch
    norm only) and ``head.*``. Insertion order is the draw order of
    ``init_params``, the checkpoint layout and the optimizer state order."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def trainable(self):
        """(name, tensor) in store order for every tensor the optimizer
        updates: all but the batch-norm running statistics, which a
        train-mode forward updates itself."""
        return ((name, arr) for name, arr in self.tensors.items()
                if name.rsplit(".", 1)[-1] not in _RUNNING_STATS)


def _param_layout(config: ModelConfig):
    """Yield (name, (rows, cols), fill) for every tensor in store order; fill
    is the constant a tensor starts at, or None for a Glorot draw. A
    generator, so a reader can stop before a huge header is fully walked."""
    h, r, k, c = config.hidden, config.router_width, config.experts, config.classes
    yield "embed.w", (config.in_dim, h), None
    yield "embed.b", (1, h), 0.0
    for l in range(config.layers):
        for i in range(k):
            for suffix in _EXPERT_WEIGHTS[config.expert_kind(i)]:
                yield f"layer{l}.expert{i}.{suffix}", (h, h), None
            yield f"layer{l}.expert{i}.b", (1, h), 0.0
        yield f"layer{l}.router.w1", (h, r), None
        yield f"layer{l}.router.b1", (1, r), 0.0
        yield f"layer{l}.router.w2", (r, k), None
        yield f"layer{l}.router.b2", (1, k), 0.0
        if config.use_batch_norm:
            yield f"layer{l}.norm.gamma", (1, h), 1.0
            yield f"layer{l}.norm.beta", (1, h), 0.0
            yield f"layer{l}.norm.running_mean", (1, h), 0.0
            yield f"layer{l}.norm.running_var", (1, h), 1.0
    yield "head.w", (h, c), None
    yield "head.b", (1, c), 0.0


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    return ModelParams(config, {
        name: _glorot(rng, *shape) if fill is None else np.full(shape, fill, np.float32)
        for name, shape, fill in _param_layout(config)})


# ---- difficulty -> budget ------------------------------------------------


def predictive_entropy(probs: np.ndarray) -> np.ndarray:
    """Normalized Shannon entropy per row, in [0, 1]. Base-2 logs make the
    normalizer exact for power-of-two class counts; zero probabilities
    contribute exactly zero. A non-finite probability raises ValueError."""
    probs = np.asarray(probs, dtype=np.float64)
    c = probs.shape[1]
    if c < 2:
        raise ValueError(f"entropy needs at least 2 classes, got {c}")
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise ValueError(f"entropy: {bad.size} row(s) with non-finite probabilities, "
                         f"first row {bad[0]}")
    terms = np.where(probs > 0.0, probs * np.log2(np.maximum(probs, LOG_EPS)), 0.0)
    return np.clip(-terms.sum(axis=1) / np.log2(c), 0.0, 1.0)


def map_budget(entropy: np.ndarray, gamma: float) -> np.ndarray:
    """Per-node budget thresholds: the entropies centered on their mean over
    all nodes and squashed through a sigmoid with steepness gamma. Training's
    epoch-0 cold start (every budget 1) maps no entropies; ``fit`` applies it."""
    entropy = np.asarray(entropy, dtype=np.float64)
    if entropy.size == 0:
        raise ValueError("map_budget: empty entropy vector")
    return sigmoid(gamma * (entropy - entropy.mean()))


def select_top_p_batch(pi: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Top-p per row: the minimal prefix of the descending-score order whose
    cumulative mass reaches the row's threshold (small slack absorbs float
    summation error). Ties keep the lower index first; at least one expert is
    always selected. Returns a boolean selection mask."""
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


@dataclass(frozen=True)
class TopK:
    """Budget rule selecting the k highest-scoring experts for every node: the
    static, uniform budget of earlier Graph MoEs. As a training variant it
    applies from epoch 0, with no cold start. ``top_k_mask`` checks k."""

    k: int


# ---- forward pass --------------------------------------------------------


@dataclass
class LayerTrace:
    pi: np.ndarray        # (n, K) router distribution
    selected: np.ndarray  # (n, K) bool


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
class ForwardResult:
    probs: Var                 # (n, C) on tape
    layer_pis: list[Var]       # router distributions on tape, one per layer
    trace: RoutingTrace
    tape: Tape                 # records steps in train mode only
    leaf_vars: dict[str, Var]  # trainable parameter name -> tape leaf


def _layer_aggregates(tape: Tape, h: Var, g: Graph,
                      kinds: list[ExpertKind]) -> dict[str, Var]:
    """Each distinct neighbourhood aggregate of ``h`` the layer's experts read,
    computed once: ``"sym"`` is A_sym·h (every GCN expert's first hop) and
    ``"mean"`` is mean_adj·h (every SAGE expert's neighbour term)."""
    agg = {}
    if any(k is not ExpertKind.SAGE_MEAN_ONE_HOP for k in kinds):
        agg["sym"] = tape.spmm(g.adj, g.adj.T, h)
    if ExpertKind.SAGE_MEAN_ONE_HOP in kinds:
        agg["mean"] = tape.spmm(g.mean_adj, g.mean_adj.T, h)
    return agg


def _expert_terms(tape: Tape, kind: ExpertKind, lv: dict[str, Var],
                  prefix: str, h: Var, agg: dict[str, Var], g: Graph):
    """One expert as ``Tape.mix_experts`` takes it, ``([(x, W), ...], b)``,
    from the layer input ``h`` and the shared aggregates ``agg``. Only a
    two-hop expert records steps here: relu((A·h)·W_a) and its second hop,
    both over every node, as the second hop reads each node's neighbours."""
    t = {suffix: lv[f"{prefix}.{suffix}"] for suffix in (*_EXPERT_WEIGHTS[kind], "b")}
    if kind is ExpertKind.GCN_ONE_HOP:
        return [(agg["sym"], t["w"])], t["b"]
    if kind is ExpertKind.GCN_TWO_HOP:
        inner = tape.relu(tape.matmul(agg["sym"], t["wa"]))
        return [(tape.spmm(g.adj, g.adj.T, inner), t["wb"])], t["b"]
    return [(h, t["w_self"]), (agg["mean"], t["w_nbr"])], t["b"]


def forward(params: ModelParams, g: Graph, budget, mode: str = "train",
            rng: np.random.Generator | None = None) -> ForwardResult:
    """Run the model end to end.

    ``budget`` is either a per-node threshold vector of finite values (top-p
    selection) or a TopK rule. Train mode applies dropout (requires ``rng``)
    and batch statistics, folds those into the running statistics, and
    records the tape for ``backward``: each dense layer (embedding, router
    layers, head) is one ``matmul`` step with its bias, and each mixture layer
    with its residual add is one ``mix_experts`` step, so without dropout or
    batch norm the tape holds 4 + 7L steps. Eval mode is
    deterministic, uses running statistics and records nothing (its tape was
    built with ``record=False``), so each intermediate is freed once the next
    layer no longer reads it.
    """
    cfg = params.config
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    keep = 1.0 - cfg.dropout
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout needs an RNG stream")
    if not isinstance(budget, TopK):
        budget = np.asarray(budget, dtype=np.float64)
        if budget.shape != (g.n,):
            raise ValueError(f"threshold vector must have shape ({g.n},), got {budget.shape}")
        bad = np.flatnonzero(~np.isfinite(budget))
        if bad.size:
            raise ValueError(f"threshold vector has {bad.size} non-finite values "
                             f"(first at node {bad[0]}: {budget[bad[0]]})")

    tape = Tape(record=train)
    lv = {name: tape.leaf(arr) for name, arr in params.trainable()}
    x = Const(g.features)

    h = tape.relu(tape.matmul(x, lv["embed.w"], lv["embed.b"]))
    if use_dropout:
        h = tape.dropout(h, keep, rng)

    layer_pis: list[Var] = []
    traces: list[LayerTrace] = []
    kinds = cfg.expert_kinds()
    for l in range(cfg.layers):
        agg = _layer_aggregates(tape, h, g, kinds)
        experts = [_expert_terms(tape, kind, lv, f"layer{l}.expert{i}", h, agg, g)
                   for i, kind in enumerate(kinds)]
        r1 = tape.relu(tape.matmul(h, lv[f"layer{l}.router.w1"], lv[f"layer{l}.router.b1"]))
        logits = tape.matmul(r1, lv[f"layer{l}.router.w2"], lv[f"layer{l}.router.b2"])
        pi = tape.softmax_rows(logits)
        if isinstance(budget, TopK):
            mask = top_k_mask(pi.value, budget.k)
        else:
            mask = select_top_p_batch(pi.value, budget)
        h = tape.mix_experts(experts, pi, mask, h)
        if cfg.use_batch_norm:
            gamma, beta = lv[f"layer{l}.norm.gamma"], lv[f"layer{l}.norm.beta"]
            running_mean = params.tensors[f"layer{l}.norm.running_mean"][0]
            running_var = params.tensors[f"layer{l}.norm.running_var"][0]
            if train:
                h = tape.batchnorm_train(h, gamma, beta, running_mean, running_var)
            else:
                h = tape.batchnorm_eval(h, gamma, beta, running_mean, running_var)
        h = tape.relu(h)
        if use_dropout:
            h = tape.dropout(h, keep, rng)
        layer_pis.append(pi)
        traces.append(LayerTrace(pi=pi.value, selected=mask))

    probs = tape.softmax_rows(tape.matmul(h, lv["head.w"], lv["head.b"]))
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
    thresholds: np.ndarray | None  # budgets used for the reported pass (None for TopK)
    trace: RoutingTrace
    acc_train: float
    acc_val: float
    acc_test: float
    first_pass_entropy: np.ndarray | None = None  # set by the adaptive rule only

    @property
    def entropy(self) -> np.ndarray:
        """Per-node normalized entropy: of the full-activation pass under the
        adaptive rule, else of ``probs``, computed when read (so a caller that
        never reads it pays nothing)."""
        if self.first_pass_entropy is not None:
            return self.first_pass_entropy
        return predictive_entropy(self.probs)


def evaluate(params: ModelParams, g: Graph, budget=None) -> EvalReport:
    """Deterministic scoring of a graph.

    With ``budget=None`` the adaptive two-pass rule applies: a full-activation
    pass produces probabilities, their normalized entropy is mapped through
    the sigmoid budget (mean over all scored nodes), and a second top-p pass
    under those thresholds yields the reported predictions. An explicit
    threshold vector or TopK rule skips the first pass. Raises ValueError if
    a threshold is non-finite or either pass yields a non-finite probability.
    """
    def checked_forward(budget, which):
        fw = forward(params, g, budget, mode="eval")
        if not np.isfinite(fw.probs.value).all():
            raise ValueError(f"{which} pass gave non-finite class probabilities")
        return fw

    if budget is None:
        first = checked_forward(np.ones(g.n), "full-activation")
        entropy = predictive_entropy(first.probs.value)
        thresholds = map_budget(entropy, params.config.gamma)
        fw = checked_forward(thresholds, "reported")
    else:
        fw = checked_forward(budget, "reported")
        entropy = None
        thresholds = None if isinstance(budget, TopK) else np.asarray(budget, np.float64)
    probs = fw.probs.value
    preds = predict(probs)
    return EvalReport(
        probs=probs, predictions=preds, thresholds=thresholds, trace=fw.trace,
        acc_train=accuracy(preds, g.labels, g.train_mask),
        acc_val=accuracy(preds, g.labels, g.val_mask),
        acc_test=accuracy(preds, g.labels, g.test_mask),
        first_pass_entropy=entropy,
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
    raw = _read_exact(fh, n)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"string {raw!r} is not UTF-8") from None


def save_checkpoint(params: ModelParams, path) -> None:
    """Binary layout (all integers little-endian):
    magic 'D2MO', version u32, then the config block (experts, layers, hidden,
    in_dim, classes as u32; expert_layout and backbone as length-prefixed
    strings; batch-norm flag u8; gamma and dropout as f64), then tensor count
    u32 and per tensor: name (u16 length + utf-8), rows u32, cols u32, and
    rows*cols float32 values row-major."""
    cfg = params.config
    tensors = list(params.tensors.items())
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
        try:
            cfg = ModelConfig(in_dim=in_dim, hidden=hidden, classes=classes,
                              experts=experts, layers=layers, dropout=dropout,
                              gamma=gamma, use_batch_norm=bool(use_norm),
                              expert_layout=layout, backbone=backbone)
        except ValueError as err:
            raise CheckpointError(f"{path}: bad config: {err}") from None
        # The config fixes every name and shape, so the file size is known
        # before a tensor is allocated; stop walking as soon as it is exceeded.
        shapes = {}
        left = os.fstat(fh.fileno()).st_size - fh.tell() - 4
        for name, shape, _ in _param_layout(cfg):
            left -= 2 + len(name) + 8 + 4 * shape[0] * shape[1]
            if left < 0:
                raise CheckpointError(f"{path}: truncated checkpoint: its config needs "
                                      f"more bytes than the file holds")
            shapes[name] = shape
        if left:
            raise CheckpointError(f"{path}: trailing bytes after last tensor")
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        if count != len(shapes):
            raise CheckpointError(f"{path}: expected {len(shapes)} tensors, found {count}")
        tensors = {}
        for _ in range(count):
            name = _read_str(fh)
            rows, cols = struct.unpack("<2I", _read_exact(fh, 8))
            if name not in shapes:
                raise CheckpointError(f"unknown tensor name {name!r}")
            if shapes[name] != (rows, cols):  # checked before the read it sizes
                raise CheckpointError(
                    f"tensor {name}: expected shape {shapes[name]}, got {(rows, cols)}")
            raw = _read_exact(fh, rows * cols * 4)
            arr = np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float32)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name} has non-finite values")
            tensors[name] = arr
        if tensors.keys() != shapes.keys():
            raise CheckpointError(f"{path}: checkpoint missing tensors "
                                  f"{sorted(shapes.keys() - tensors.keys())}")
    return ModelParams(cfg, {name: tensors[name] for name in shapes})
