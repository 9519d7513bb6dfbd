"""Seeded block-model inputs for the model workloads, made without d2moe.

The benchmark draws its own graphs so that a rewrite of ``d2moe.generate_sbm``
cannot change what the model workloads are fed. Memory is O(n + E): for each
block pair the edge count is drawn from its binomial, then that many distinct
node pairs are sampled from the pair's index space and decoded, so no n x n
array is ever built.

The output is the four text files ``d2moe.load_graph_dir`` reads:
``edges.tsv``, ``features.csv``, ``labels.txt`` and ``masks.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLIT = (0.48, 0.32, 0.2)  # train, val, test: the CLI's default split


@dataclass(frozen=True)
class BlockModel:
    """C balanced classes over n nodes; within-class edge probability p_in,
    between-class p_out; class means on a sphere of radius ``signal`` plus
    unit Gaussian feature noise."""

    n: int
    classes: int
    dim: int
    p_in: float
    p_out: float
    signal: float


@dataclass(frozen=True)
class GraphArrays:
    edges: np.ndarray     # (E, 2) int64, i < j, unique, sorted
    features: np.ndarray  # (n, dim) float64
    labels: np.ndarray    # (n,) int64
    split: np.ndarray     # (n,) int8: 0 train, 1 val, 2 test


def _triangle_pairs(k: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode indices into the m*(m-1)/2 pairs i < j of range(m), ordered
    row by row: (0,1), (0,2), ..., (1,2), ..."""
    # Rows start at s(i) = i*(2m - i - 1)/2. Take the float root, then correct
    # it by one in either direction with exact integer arithmetic.
    b = 2 * m - 1
    i = np.floor((b - np.sqrt(float(b) * b - 8.0 * k)) / 2).astype(np.int64)
    i = np.clip(i, 0, m - 2)

    def start(r):
        return r * (2 * m - r - 1) // 2

    i -= start(i) > k
    i += start(i + 1) <= k
    j = k - start(i) + i + 1
    return i, j


def sample_block_model(spec: BlockModel, seed: int) -> GraphArrays:
    """Draw a graph from ``spec``. The same seed gives the same arrays."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(spec.n) % spec.classes).astype(np.int64)
    members = [np.flatnonzero(labels == c) for c in range(spec.classes)]

    chunks = []
    for a in range(spec.classes):
        for b in range(a, spec.classes):
            na, nb = members[a].size, members[b].size
            pairs = na * (na - 1) // 2 if a == b else na * nb
            p = spec.p_in if a == b else spec.p_out
            count = int(rng.binomial(pairs, p))
            if count == 0:
                continue
            k = rng.choice(pairs, size=count, replace=False)
            if a == b:
                i, j = _triangle_pairs(k, na)
                src, dst = members[a][i], members[a][j]
            else:
                src, dst = members[a][k // nb], members[b][k % nb]
            chunks.append(np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1))
    edges = np.concatenate(chunks) if chunks else np.zeros((0, 2), dtype=np.int64)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]

    means = rng.standard_normal((spec.classes, spec.dim))
    means *= spec.signal / np.linalg.norm(means, axis=1, keepdims=True)
    features = means[labels] + rng.standard_normal((spec.n, spec.dim))

    split = np.full(spec.n, 3, dtype=np.int8)
    for idx in members:
        order = rng.permutation(idx)
        bounds = np.round(np.cumsum(SPLIT) * idx.size).astype(np.int64)
        lo = 0
        for slot, hi in enumerate(bounds):
            split[order[lo:hi]] = slot
            lo = hi
    return GraphArrays(edges, features, labels, split)


def write_graph_files(g: GraphArrays, out_dir) -> Path:
    """Write the four text files ``d2moe.load_graph_dir`` reads."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "edges.tsv", g.edges, fmt="%d", delimiter="\t",
               header="src<TAB>dst, 0-based, undirected", comments="# ")
    # 17 significant digits reproduce every float64 exactly.
    np.savetxt(out / "features.csv", g.features, fmt="%.17g", delimiter=",")
    np.savetxt(out / "labels.txt", g.labels, fmt="%d")
    tokens = np.array(["train", "val", "test", "none"])[g.split]
    (out / "masks.txt").write_text("\n".join(tokens) + "\n", encoding="utf-8")
    return out
