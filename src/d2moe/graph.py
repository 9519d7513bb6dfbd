"""Graphs: synthetic block-model generation, text-file IO, and split management.

A Graph is immutable after construction. Topology is kept as the raw
undirected edge list (canonical i<j, deduplicated, no self-edges) and as two
normalized operators on one sparsity pattern, A+I: a symmetrically normalized
adjacency for convolution experts and a row-stochastic mean aggregator
(self-loop included in the neighborhood) for mean-aggregation experts. Both
are canonical CSR arrays sharing one read-only pair of index arrays; no
transpose is stored, as backward takes ``.T``, a CSC view.

On disk a graph is four UTF-8 tables, each read by one ``np.loadtxt`` call:
edges (whitespace-separated, '#' starts a comment anywhere on a line),
comma-separated features written as the shortest round-trip ``repr``, labels
and mask tokens. Any rejected line raises GraphFormatError naming file:line.
"""

from __future__ import annotations

import logging
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

EDGES_FILE = "edges.tsv"
FEATURES_FILE = "features.csv"
LABELS_FILE = "labels.txt"
MASKS_FILE = "masks.txt"

_MASK_TOKENS = ("train", "val", "test", "none")


class GraphFormatError(ValueError):
    """A graph file failed to parse; carries path and 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class SbmSpec:
    """Stochastic block model: C balanced classes over n nodes, intra-class
    edge probability p_in, inter-class p_out, and class-mean feature vectors
    on a sphere of radius ``signal`` with unit Gaussian noise."""

    n: int
    classes: int
    dim: int
    p_in: float
    p_out: float
    signal: float
    seed: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"need at least one node, got n={self.n}")
        if self.classes < 2 or self.n < self.classes:
            raise ValueError(f"need n >= classes >= 2, got n={self.n}, classes={self.classes}")
        if self.dim < 1:
            raise ValueError("feature dimension must be positive")
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not math.isfinite(self.signal):
            raise ValueError(f"signal must be finite, got {self.signal}")


@dataclass(frozen=True)
class Graph:
    n: int
    n_classes: int
    features: np.ndarray     # (n, d) float64
    labels: np.ndarray       # (n,) int64 in [0, n_classes)
    raw_edges: np.ndarray    # (E, 2) int64, i < j, unique, sorted
    # Both operators share one read-only, canonical pair of index arrays
    # (the pattern of A+I); their transposes are taken as ``.T`` views.
    adj: sp.csr_array        # D^{-1/2} (A+I) D^{-1/2}
    mean_adj: sp.csr_array   # D^{-1} (A+I)
    train_mask: np.ndarray   # (n,) bool, pairwise disjoint with val/test
    val_mask: np.ndarray
    test_mask: np.ndarray

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def mask_idx(self, split: str) -> np.ndarray:
        return np.flatnonzero(getattr(self, f"{split}_mask"))

    def __reduce__(self):
        """Pickle the inputs only; unpickling rebuilds both operators on one
        shared, read-only pattern, bit for bit."""
        return build_graph, (self.raw_edges, self.features, self.labels, self.n_classes,
                             (self.train_mask, self.val_mask, self.test_mask))


def _canonical_edges(edges: np.ndarray, n: int) -> np.ndarray:
    """Undirected canonical form: sorted unique (min, max) pairs, self-edges
    dropped (the normalization adds the diagonal itself)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError(f"edge endpoint out of range [0, {n})")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    # lo*n + hi orders pairs as (lo, hi) does. A sort and a neighbour test
    # dedupe it; np.unique takes a slower hash-based path on integers.
    key = np.sort(lo[keep] * n + hi[keep])
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    return np.stack([key // n, key % n], axis=1)


def _normalized_adjacencies(edges: np.ndarray, n: int):
    """Build both normalized operators from the canonical edge list on one
    CSR pattern: ``sym`` is the one COO->CSR conversion, and ``mean`` reuses
    its index arrays, which are made read-only. They are int32 while the
    nonzero count (which bounds n) fits, half the bytes of int64."""
    idx = np.int32 if 2 * len(edges) + n < 2**31 else np.int64
    src = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)]).astype(idx)
    dst = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)]).astype(idx)
    deg = np.bincount(src, minlength=n).astype(np.float64)  # >= 1 by the self-loop
    dinv_sqrt = 1.0 / np.sqrt(deg)
    sym = sp.csr_array(
        sp.coo_array((dinv_sqrt[src] * dinv_sqrt[dst], (src, dst)), shape=(n, n)))
    sym.indices.flags.writeable = sym.indptr.flags.writeable = False
    rows = np.repeat(np.arange(n), np.diff(sym.indptr))
    mean = sp.csr_array((1.0 / deg[rows], sym.indices, sym.indptr), shape=(n, n))
    return sym, mean


def build_graph(edges, features, labels, n_classes: int | None = None,
                masks: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> Graph:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"feature rows ({n}) and label count ({labels.shape[0]}) differ")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    if n_classes is None:
        n_classes = int(labels.max()) + 1 if n else 0
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    pairs = _canonical_edges(edges, n)
    sym, mean = _normalized_adjacencies(pairs, n)
    if masks is None:
        zeros = np.zeros(n, dtype=bool)
        masks = (zeros, zeros.copy(), zeros.copy())
    train, val, test = (np.asarray(m, dtype=bool) for m in masks)
    if (train & val).any() or (train & test).any() or (val & test).any():
        raise ValueError("train/val/test masks overlap")
    return Graph(n=n, n_classes=n_classes, features=features, labels=labels,
                 raw_edges=pairs, adj=sym, mean_adj=mean,
                 train_mask=train, val_mask=val, test_mask=test)


def generate_sbm(spec: SbmSpec) -> Graph:
    """Sample a block-model graph. Deterministic per spec.seed; draw order is
    labels, then edges, then class means, then feature noise."""
    rng = np.random.default_rng(spec.seed)
    labels = rng.permutation(np.arange(spec.n) % spec.classes)

    same = labels[:, None] == labels[None, :]
    prob = np.where(same, spec.p_in, spec.p_out)
    draw = rng.random((spec.n, spec.n))
    upper = np.triu(np.ones((spec.n, spec.n), dtype=bool), k=1)
    src, dst = np.nonzero(upper & (draw < prob))
    edges = np.stack([src, dst], axis=1)

    means = rng.standard_normal((spec.classes, spec.dim))
    means *= spec.signal / np.linalg.norm(means, axis=1, keepdims=True)
    features = means[labels] + rng.standard_normal((spec.n, spec.dim))
    return build_graph(edges, features, labels, n_classes=spec.classes)


def split_nodes(g: Graph, fractions: tuple[float, float, float], seed: int) -> Graph:
    """Stratified-by-class random masks. Within each class the split sizes
    follow cumulative rounding of the fractions; any remainder (fractions
    summing below 1) stays unassigned."""
    fr = tuple(float(f) for f in fractions)
    if len(fr) != 3 or not all(f >= 0 for f in fr):  # NaN fails f >= 0
        raise ValueError(f"need three nonnegative fractions, got {fractions}")
    if sum(fr) > 1.0 + 1e-9:
        raise ValueError(f"fractions sum to {sum(fr)} > 1")
    rng = np.random.default_rng(seed)
    masks = [np.zeros(g.n, dtype=bool) for _ in range(3)]
    n_slots = sum(1 for f in fr if f > 0)
    for c in range(g.n_classes):
        members = np.flatnonzero(g.labels == c)
        if members.size < n_slots:
            log.warning("class %d has %d nodes for %d split slots; proportional fallback",
                        c, members.size, n_slots)
        order = rng.permutation(members)
        bounds = [int(round(sum(fr[: k + 1]) * members.size)) for k in range(3)]
        lo = 0
        for mask, hi in zip(masks, bounds):
            mask[order[lo:hi]] = True
            lo = hi
    return replace(g, train_mask=masks[0], val_mask=masks[1], test_mask=masks[2])


def edge_homophily(g: Graph) -> float:
    """Fraction of undirected edges whose endpoints share a label."""
    if g.raw_edges.shape[0] == 0:
        return 1.0
    same = g.labels[g.raw_edges[:, 0]] == g.labels[g.raw_edges[:, 1]]
    return float(same.mean())


# ---- text formats --------------------------------------------------------


# np.loadtxt arguments per file, the column count (None: that of the first
# data line) and the words a line that does not parse is reported with
_Table = namedtuple("_Table", "dtype delimiter comments width bad")
_EDGES = _Table(np.int64, None, "#", 2, "non-integer endpoint in")
_FEATURES = _Table(np.float64, ",", None, None, "non-numeric value in")
_LABELS = _Table(np.int64, None, None, 1, "non-integer label")
_MASKS = _Table(object, None, None, 1, f"mask token must be one of {_MASK_TOKENS}, got")


def _loadtxt(source, t: _Table) -> np.ndarray:
    return np.loadtxt(source, dtype=t.dtype, comments=t.comments, delimiter=t.delimiter,
                      ndmin=2, encoding="utf-8")


def _line_of_row(path, t: _Table, row: int) -> tuple[int, str]:
    """Walk the file a line at a time through the same ``np.loadtxt`` call.
    Raise GraphFormatError at the first line that does not parse or has the
    wrong column count; else return the 1-based line number and text of data
    row ``row`` (one past the last line, and '', if there is no such row)."""
    width, seen, line_no = t.width, 0, 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            try:
                line.encode("utf-8")
                cells = _loadtxt([line], t)
            except UnicodeEncodeError:
                raise GraphFormatError(path, line_no, "invalid UTF-8") from None
            except ValueError:
                raise GraphFormatError(path, line_no, f"{t.bad} {text!r}") from None
            if cells.shape[0] == 0:
                continue
            width = width or cells.shape[1]
            if cells.shape[1] != width:
                raise GraphFormatError(path, line_no,
                                       f"expected {width} columns, got {cells.shape[1]}")
            if seen == row:
                return line_no, text
            seen += 1
    return line_no + 1, ""


def _read_table(path, t: _Table, rows: int | None = None) -> np.ndarray:
    """One ``np.loadtxt`` call, holding ``rows`` rows if given; only a failure
    walks the file to name the line."""
    try:
        table = _loadtxt(path, t)
    except ValueError as err:  # UnicodeDecodeError included
        raise GraphFormatError(path, _line_of_row(path, t, -1)[0], str(err)) from None
    if table.shape[0] and t.width not in (None, table.shape[1]):
        _line_of_row(path, t, -1)  # raises at the first line of another width
    if rows is not None and table.shape[0] != rows:
        raise GraphFormatError(path, _line_of_row(path, t, rows)[0], f"row count "
                               f"({table.shape[0]}) and feature row count ({rows}) differ")
    return table


def _reject_rows(path, t: _Table, bad_rows: np.ndarray, problem: str) -> None:
    if bad_rows.any():
        line_no, text = _line_of_row(path, t, int(np.argmax(bad_rows)))
        raise GraphFormatError(path, line_no, f"{problem} {text!r}")


def write_graph(g: Graph, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tokens = np.select([g.test_mask, g.val_mask, g.train_mask], ["test", "val", "train"], "none")
    for name, lines in (
            (EDGES_FILE, ["# src<TAB>dst, 0-based, undirected",
                          *(f"{a}\t{b}" for a, b in g.raw_edges.tolist())]),
            # repr is the shortest string that reads back to the same float64
            (FEATURES_FILE, (",".join(map(repr, row)) for row in g.features.tolist())),
            (LABELS_FILE, g.labels.tolist()),
            (MASKS_FILE, tokens.tolist())):
        (out / name).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def load_graph_dir(graph_dir) -> Graph:
    """The graph ``write_graph`` wrote into ``graph_dir`` (masks file optional)."""
    d = Path(graph_dir)
    features_path, labels_path, edges_path, masks_path = (
        d / FEATURES_FILE, d / LABELS_FILE, d / EDGES_FILE, d / MASKS_FILE)
    with warnings.catch_warnings():  # an edge file may hold only its header
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        features = _read_table(features_path, _FEATURES)
        n = features.shape[0]
        labels = _read_table(labels_path, _LABELS, rows=n)[:, 0]
        _reject_rows(features_path, _FEATURES, ~np.isfinite(features).all(axis=1),
                     "non-finite value in")
        _reject_rows(labels_path, _LABELS, labels < 0, "negative label")
        edges = _read_table(edges_path, _EDGES)
        _reject_rows(edges_path, _EDGES, ((edges < 0) | (edges >= n)).any(axis=1),
                     f"node index out of range [0, {n}) in")
        masks = None
        if masks_path.exists():
            tokens = _read_table(masks_path, _MASKS, rows=n)[:, 0]
            _reject_rows(masks_path, _MASKS, ~np.isin(tokens, _MASK_TOKENS), _MASKS.bad)
            masks = tuple(tokens == name for name in ("train", "val", "test"))
    return build_graph(edges, features, labels, masks=masks)
