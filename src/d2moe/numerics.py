"""Rank-2 numerics with reverse-mode differentiation.

Values are numpy float64 arrays of shape (rows, cols); scalars travel as (1, 1).
Sparse adjacencies are scipy CSR and are never differentiated through. A Tape
records one forward pass; ``backward`` replays the recorded steps in reverse,
allocating each gradient at its first contribution and skipping steps whose
output the seed never reached. Vars left without a gradient get exact zeros, and
running it twice gives bit-identical results.

Parameters live in float32 elsewhere in the package; ``Tape.leaf`` upcasts to
float64 so finite-difference probes at step 1e-4 are not quantized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

LOG_EPS = 1e-12      # floor inside log() calls
BN_EPS = 1e-5        # batch-norm variance floor
ROWNORM_EPS = 1e-12  # row_norm zero-row floor


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class GradCheckError(RuntimeError):
    """A finite-difference check could not be carried out."""


class Var:
    """A value tracked by a Tape. ``grad`` is populated by ``Tape.backward``."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value[0, 0])


def _as2d(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a rank-2 array, got shape {out.shape}")
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (plain numpy, no tape)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _accum(v: Var, g: np.ndarray, owned: bool = True) -> None:
    """Add a gradient contribution to ``v``. The first contribution becomes
    the buffer itself; pass ``owned=False`` when ``g`` is another Var's
    gradient (or a view of one), so it is copied rather than aliased."""
    if v.grad is None:
        v.grad = g if owned else g.copy()
    else:
        v.grad += g


class Tape:
    """Single-owner record of one differentiable forward pass.

    Every Var created through a Tape method belongs to that tape, and every
    step records the Var it produced. Backward seeds the chosen scalar with 1
    and accumulates into ``.grad`` in reverse recording order; Vars the seed
    never reaches get exact-zero gradients.
    """

    def __init__(self):
        self._steps: list[tuple[Var, Callable[[], None]]] = []
        self._vars: list[Var] = []

    def _track(self, value: np.ndarray) -> Var:
        v = Var(value)
        self._vars.append(v)
        return v

    def leaf(self, array) -> Var:
        """Register an input value. Float64 arrays are aliased, not copied."""
        return self._track(_as2d(array))

    # ---- primitives ------------------------------------------------------

    def matmul(self, a: Var, b: Var) -> Var:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} x {b.shape}")
        out = self._track(a.value @ b.value)

        def back():
            _accum(a, out.grad @ b.value.T)
            _accum(b, a.value.T @ out.grad)

        self._steps.append((out, back))
        return out

    def transpose(self, a: Var) -> Var:
        out = self._track(np.ascontiguousarray(a.value.T))

        def back():
            _accum(a, out.grad.T, owned=False)

        self._steps.append((out, back))
        return out

    def spmm(self, adj, adj_t, x: Var) -> Var:
        """Sparse @ dense. ``adj_t`` must be the CSR transpose of ``adj``;
        the adjacency is a constant, gradients flow to ``x`` only."""
        if adj.shape[1] != x.shape[0]:
            raise ShapeError(f"spmm: {adj.shape} x {x.shape}")
        out = self._track(np.asarray(adj @ x.value))

        def back():
            _accum(x, adj_t @ out.grad)

        self._steps.append((out, back))
        return out

    def add(self, a: Var, b: Var) -> Var:
        if a.shape != b.shape:
            raise ShapeError(f"add: {a.shape} vs {b.shape}")
        out = self._track(a.value + b.value)

        def back():
            _accum(a, out.grad, owned=False)
            _accum(b, out.grad, owned=False)

        self._steps.append((out, back))
        return out

    def add_bias(self, m: Var, b: Var) -> Var:
        """Row-broadcast add: b has shape (1, cols)."""
        if b.shape != (1, m.shape[1]):
            raise ShapeError(f"add_bias: {m.shape} + {b.shape}")
        out = self._track(m.value + b.value)

        def back():
            _accum(m, out.grad, owned=False)
            _accum(b, out.grad.sum(axis=0, keepdims=True))

        self._steps.append((out, back))
        return out

    def scale(self, a: Var, c: float) -> Var:
        out = self._track(a.value * c)

        def back():
            _accum(a, out.grad * c)

        self._steps.append((out, back))
        return out

    def relu(self, a: Var) -> Var:
        keep = a.value > 0.0
        out = self._track(np.where(keep, a.value, 0.0))

        def back():
            _accum(a, np.where(keep, out.grad, 0.0))

        self._steps.append((out, back))
        return out

    def sigmoid(self, a: Var) -> Var:
        s = sigmoid(a.value)
        out = self._track(s)

        def back():
            _accum(a, out.grad * s * (1.0 - s))

        self._steps.append((out, back))
        return out

    def dropout(self, a: Var, keep: float, rng: np.random.Generator) -> Var:
        """Inverted dropout: survivors scaled by 1/keep, so evaluation mode is
        a pure identity (callers simply skip the op)."""
        if not 0.0 < keep <= 1.0:
            raise ValueError(f"dropout keep probability must be in (0, 1], got {keep}")
        mask = (rng.random(a.shape) < keep).astype(np.float64) / keep
        out = self._track(a.value * mask)

        def back():
            _accum(a, out.grad * mask)

        self._steps.append((out, back))
        return out

    def softmax_rows(self, m: Var) -> Var:
        z = m.value - m.value.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        out = self._track(p)

        def back():
            g = out.grad
            _accum(m, p * (g - (g * p).sum(axis=1, keepdims=True)))

        self._steps.append((out, back))
        return out

    def row_norm(self, m: Var) -> Var:
        """L2-normalize each row; rows with norm below a floor are scaled by
        1/floor instead of being divided by ~0."""
        n = np.sqrt((m.value ** 2).sum(axis=1, keepdims=True))
        d = np.maximum(n, ROWNORM_EPS)
        out = self._track(m.value / d)
        live = n > ROWNORM_EPS

        def back():
            g = out.grad
            dots = (g * m.value).sum(axis=1, keepdims=True)
            full = g / d - m.value * dots / d ** 3
            _accum(m, np.where(live, full, g / ROWNORM_EPS))

        self._steps.append((out, back))
        return out

    def renorm_masked(self, pi: Var, mask: np.ndarray) -> Var:
        """Zero the unselected entries of each row and rescale the selected
        ones to sum to 1. ``mask`` is a constant boolean (rows, cols) array
        with at least one True per row."""
        m = mask.astype(np.float64)
        kept = pi.value * m
        s = kept.sum(axis=1, keepdims=True)
        if np.any(s <= 0.0):
            raise ValueError("renorm_masked: selected mass is zero in some row")
        p = kept / s
        out = self._track(p)

        def back():
            g = out.grad
            _accum(pi, (m / s) * (g - (g * p).sum(axis=1, keepdims=True)))

        self._steps.append((out, back))
        return out

    def mix(self, parts: Sequence[Var], w: Var) -> Var:
        """Weighted sum of equal-shaped matrices with per-row weights:
        out = sum_i w[:, i, None] * parts[i]."""
        if w.shape != (parts[0].shape[0], len(parts)):
            raise ShapeError(f"mix: weights {w.shape} for {len(parts)} parts of {parts[0].shape}")
        acc = np.zeros_like(parts[0].value)
        for i, part in enumerate(parts):
            acc += w.value[:, i : i + 1] * part.value
        out = self._track(acc)

        def back():
            g = out.grad
            gw = np.empty_like(w.value)
            for i, part in enumerate(parts):
                _accum(part, g * w.value[:, i : i + 1])
                gw[:, i] = (g * part.value).sum(axis=1)
            _accum(w, gw)

        self._steps.append((out, back))
        return out

    def batchnorm_train(self, x: Var, gamma: Var, beta: Var,
                        running_mean: np.ndarray, running_var: np.ndarray,
                        momentum: float = 0.9, update_running: bool = True) -> Var:
        """Normalize each column by batch statistics (biased variance), then
        scale and shift. Optionally folds the batch statistics into the
        float32 running buffers as a side effect (suppress during
        finite-difference probing, where repeated forwards must not drift)."""
        n = x.shape[0]
        mu = x.value.mean(axis=0, keepdims=True)
        var = x.value.var(axis=0, keepdims=True)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x.value - mu) * inv
        out = self._track(xhat * gamma.value + beta.value)
        if update_running:
            running_mean[:] = (momentum * running_mean.astype(np.float64)
                               + (1.0 - momentum) * mu[0]).astype(running_mean.dtype)
            running_var[:] = (momentum * running_var.astype(np.float64)
                              + (1.0 - momentum) * var[0]).astype(running_var.dtype)

        def back():
            g = out.grad
            _accum(gamma, (g * xhat).sum(axis=0, keepdims=True))
            _accum(beta, g.sum(axis=0, keepdims=True))
            gx = g * gamma.value
            _accum(x, inv * (gx - gx.mean(axis=0, keepdims=True)
                             - xhat * (gx * xhat).mean(axis=0, keepdims=True)))

        self._steps.append((out, back))
        return out

    def batchnorm_eval(self, x: Var, gamma: Var, beta: Var,
                       running_mean: np.ndarray, running_var: np.ndarray) -> Var:
        """Affine transform with frozen running statistics."""
        inv = 1.0 / np.sqrt(running_var.astype(np.float64) + BN_EPS)
        mu = running_mean.astype(np.float64)
        xhat = (x.value - mu) * inv
        out = self._track(xhat * gamma.value + beta.value)

        def back():
            g = out.grad
            _accum(gamma, (g * xhat).sum(axis=0, keepdims=True))
            _accum(beta, g.sum(axis=0, keepdims=True))
            _accum(x, g * gamma.value * inv)

        self._steps.append((out, back))
        return out

    # ---- scalar reductions ----------------------------------------------

    def plogp_sum(self, m: Var) -> Var:
        """Scalar sum of p*log(p) over all entries, natural log, with the log
        floored at LOG_EPS so exact zeros contribute zero."""
        clamped = np.maximum(m.value, LOG_EPS)
        logc = np.log(clamped)
        out = self._track(np.array([[(m.value * logc).sum()]]))

        def back():
            g = out.grad[0, 0]
            _accum(m, g * (logc + np.where(m.value >= LOG_EPS, 1.0, 0.0)))

        self._steps.append((out, back))
        return out

    def weighted_colsum(self, m: Var, w: np.ndarray) -> Var:
        """Scalar sum_i w[i] * (column i sum of m); ``w`` is a constant."""
        if w.shape != (m.shape[1],):
            raise ShapeError(f"weighted_colsum: weights {w.shape} for {m.shape}")
        out = self._track(np.array([[(m.value.sum(axis=0) * w).sum()]]))

        def back():
            _accum(m, np.broadcast_to(out.grad[0, 0] * w[None, :], m.shape), owned=False)

        self._steps.append((out, back))
        return out

    def masked_nll(self, probs: Var, labels: np.ndarray, idx: np.ndarray) -> Var:
        """Mean negative log-probability of the true class over the rows in
        ``idx``; the log is floored at LOG_EPS."""
        if idx.size == 0:
            raise ValueError("masked_nll: empty index set")
        picked = probs.value[idx, labels[idx]]
        clamped = np.maximum(picked, LOG_EPS)
        out = self._track(np.array([[-np.log(clamped).mean()]]))

        def back():
            g = out.grad[0, 0]
            contrib = np.where(picked >= LOG_EPS, -1.0 / (idx.size * clamped), 0.0)
            if probs.grad is None:
                probs.grad = np.zeros_like(probs.value)
            np.add.at(probs.grad, (idx, labels[idx]), g * contrib)

        self._steps.append((out, back))
        return out

    # ---- reverse pass ----------------------------------------------------

    def backward(self, out: Var) -> None:
        """Populate ``.grad`` for every Var on this tape, seeding ``out``
        (a (1,1) scalar) with 1. Safe to call repeatedly; each call discards
        the previous gradients and replays identically.

        Gradient buffers are allocated lazily: a step runs only if the Var it
        produced received a gradient, and a Var's first contribution becomes
        its buffer. Vars the seed does not reach get exact zeros at the end."""
        if out.shape != (1, 1):
            raise ShapeError(f"backward seed must be a (1,1) scalar, got {out.shape}")
        for v in self._vars:
            v.grad = None
        out.grad = np.ones_like(out.value)
        for produced, back in reversed(self._steps):
            if produced.grad is not None:
                back()
        for v in self._vars:
            if v.grad is None:
                v.grad = np.zeros_like(v.value)


# ---- finite-difference checking -----------------------------------------


@dataclass
class GradCheckReport:
    per_leaf: dict[str, float]   # max relative error per leaf tensor
    max_rel_err: float


def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)


def grad_check(f: Callable[[], tuple[Tape, Var, dict[str, Var]]],
               leaves: dict[str, np.ndarray],
               step: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of a recorded scalar against central finite
    differences.

    ``f`` rebuilds the computation from scratch on each call and must read the
    float64 arrays in ``leaves`` by reference (so in-place perturbations are
    visible). It returns the tape, the scalar output, and the leaf Vars keyed
    like ``leaves``. Determinism is verified by evaluating twice at the base
    point; any non-finite value aborts the check.
    """
    for name, arr in leaves.items():
        if arr.dtype != np.float64:
            raise GradCheckError(f"leaf {name!r} must be float64 for probing, got {arr.dtype}")

    tape, out, leaf_vars = f()
    base = out.item()
    if not np.isfinite(base):
        raise GradCheckError(f"non-finite base value {base}")
    _, out2, _ = f()
    if out2.item() != base:
        raise GradCheckError("recorded computation is not deterministic at the base point")
    tape.backward(out)

    per_leaf: dict[str, float] = {}
    for name, arr in leaves.items():
        analytic = leaf_vars[name].grad
        fd = np.zeros_like(arr)
        flat = arr.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()[1].item()
            flat[i] = orig - step
            lo = f()[1].item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise GradCheckError(f"non-finite value while probing leaf {name!r}")
            fd_flat[i] = (hi - lo) / (2.0 * step)
        per_leaf[name] = float(_rel_err(analytic, fd).max())
    return GradCheckReport(per_leaf, max(per_leaf.values(), default=0.0))
