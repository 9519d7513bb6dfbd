"""Rank-2 numerics with reverse-mode differentiation.

Values are numpy float64 arrays of shape (rows, cols); scalars travel as (1, 1).
Sparse adjacencies are scipy CSR and are never differentiated through. A Tape
records one forward pass: a dense layer x·W + b as one ``matmul`` step, a
whole residual mixture layer (experts, renormalized scores, their weighted
sum and the residual input) as one ``mix_experts`` step. There each expert
runs only on the rows whose mask selected it and writes its outputs into its
slice of one stacked (pairs, cols) buffer, one row per selected (expert, row)
pair; one CSR product with the (rows, pairs) mixing matrix of renormalized
scores then sums every row's experts, and the residual is added in place.
That buffer is freed once the product is taken: backward recovers each
expert's g·z_i from the products its input gradient needs, so the tape keeps
no expert output. The training objective is two steps: ``masked_nll``, then
one ``routing_penalty`` that adds the router penalties of every layer to it.
Inputs that take no gradient, such as the node features, enter as a ``Const``
and are not leaves. ``backward`` replays the steps in reverse, allocating each
gradient at its first contribution and skipping steps whose output the seed
never reached. Every gradient array has one owner: a Var adopts the first
contribution it gets, and a step hands its output gradient on uncopied at most
once. Only leaves keep their gradients: a step's output gradient is released
as soon as the step has run. Leaves left without a gradient get exact zeros,
and running it twice gives bit-identical results. Each step declares the input
Vars whose values its backward reads, and ``backward`` starts by releasing
every other step output except the seed: its value becomes a read-only NaN
view of the same shape with no memory behind it, so reading it gives NaN and
writing to it raises. A caller that needs a step output after backward takes
it first. A tape built with ``record=False`` (the model's eval mode) records
nothing, so its intermediates live only as long as the caller holds them, and
it cannot run ``backward``.

Parameters live in float32 elsewhere in the package; ``Tape.leaf`` upcasts to
float64 so finite-difference probes at step 1e-4 are not quantized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

LOG_EPS = 1e-12      # floor inside log() calls
BN_EPS = 1e-5        # batch-norm variance floor
BN_MOMENTUM = 0.9    # weight of the old running statistics per train forward


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


class Const(Var):
    """An op input that takes no gradient, such as the node features: no op
    stores a gradient for it (``_accum`` drops any contribution), and no tape
    holds it. Float64 arrays are aliased, as by ``Tape.leaf``."""

    __slots__ = ()

    def __init__(self, array):
        super().__init__(_as2d(array))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (plain numpy, no tape)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _accum(v: Var, g: np.ndarray) -> None:
    """Add a gradient contribution to ``v``; one to a ``Const`` is dropped.
    The first contribution becomes the buffer itself, so ``g`` must be a
    writable array no other Var holds: a fresh result, or a released output
    gradient handed on once."""
    if isinstance(v, Const):
        return
    if v.grad is None:
        v.grad = g
    else:
        v.grad += g


class Tape:
    """Single-owner record of one differentiable forward pass.

    A recording tape keeps every step with the Var it produced, and a list of
    its leaves. Backward seeds the chosen scalar with 1 and accumulates into
    ``.grad`` in reverse recording order; leaves the seed never reaches get
    exact-zero gradients. A tape built with ``record=False`` keeps neither:
    each op only computes its value, so an intermediate is freed as soon as
    the caller drops it, and ``backward`` raises.
    """

    def __init__(self, record: bool = True):
        self.recording = record
        self._steps: list[tuple[Var, Callable[[], None]]] = []
        self._leaves: list[Var] = []
        self._read: set[int] = set()   # ids of the Vars some backward reads

    def _record(self, out: Var, back: Callable[[], None], reads: Sequence[Var]) -> None:
        """Keep the step ``out`` came from. ``reads`` lists the input Vars
        whose ``.value`` ``back`` reads; every other step output is released
        when backward starts."""
        if self.recording:
            self._steps.append((out, back))
            self._read.update(id(v) for v in reads)

    def leaf(self, array) -> Var:
        """Register an input value. Float64 arrays are aliased, not copied."""
        v = Var(_as2d(array))
        if self.recording:
            self._leaves.append(v)
        return v

    # ---- primitives ------------------------------------------------------

    def matmul(self, a: Var, b: Var, bias: Var | None = None) -> Var:
        """a @ b, plus the (1, cols) row ``bias`` broadcast over the rows when
        given: one step for a dense layer."""
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} x {b.shape}")
        if bias is not None and bias.shape != (1, b.shape[1]):
            raise ShapeError(f"matmul: bias {bias.shape} for {a.shape} x {b.shape}")
        value = a.value @ b.value
        if bias is not None:
            value += bias.value
        out = Var(value)

        def back():
            if bias is not None:
                _accum(bias, out.grad.sum(axis=0, keepdims=True))
            if not isinstance(a, Const):
                _accum(a, out.grad @ b.value.T)
            if not isinstance(b, Const):
                _accum(b, a.value.T @ out.grad)

        self._record(out, back, (a, b))
        return out

    def spmm(self, adj, adj_t, x: Var) -> Var:
        """Sparse @ dense. ``adj_t`` must be the transpose of ``adj``; it may
        be a view such as ``adj.T`` (CSC over the same arrays), which costs no
        copy. The adjacency is a constant, gradients flow to ``x`` only. The
        two-operator signature is pinned by the benchmark's tracer, which reads
        the positional arguments."""
        if adj.shape[1] != x.shape[0]:
            raise ShapeError(f"spmm: {adj.shape} x {x.shape}")
        out = Var(np.asarray(adj @ x.value))

        def back():
            _accum(x, adj_t @ out.grad)

        self._record(out, back, ())
        return out

    def relu(self, a: Var) -> Var:
        """max(a, 0) elementwise. A NaN entry stays NaN (``np.maximum``
        propagates it), so a non-finite value is never hidden as a zero."""
        keep = a.value > 0.0
        out = Var(np.maximum(a.value, 0.0))

        def back():
            _accum(a, out.grad * keep)

        self._record(out, back, ())
        return out

    def dropout(self, a: Var, keep: float, rng: np.random.Generator) -> Var:
        """Inverted dropout: survivors scaled by 1/keep, so evaluation mode is
        a pure identity (callers simply skip the op)."""
        if not 0.0 < keep <= 1.0:
            raise ValueError(f"dropout keep probability must be in (0, 1], got {keep}")
        kept = rng.random(a.shape) < keep
        out = Var(a.value * (kept * (1.0 / keep)))

        def back():
            _accum(a, out.grad * (kept * (1.0 / keep)))

        self._record(out, back, ())
        return out

    def softmax_rows(self, m: Var) -> Var:
        z = m.value - m.value.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        out = Var(p)

        def back():
            g = out.grad
            _accum(m, p * (g - (g * p).sum(axis=1, keepdims=True)))

        self._record(out, back, ())
        return out

    def mix_experts(self, experts: Sequence[tuple[Sequence[tuple[Var, Var]], Var]],
                    pi: Var, mask: np.ndarray, residual: Var) -> Var:
        """One residual mixture layer in one step: residual + sum_i p̃[:, i] * z_i,
        where expert i is ``(terms, b)`` with z_i = sum_j x_j·W_j + b, and p̃
        keeps each row's ``mask``-selected scores of ``pi`` rescaled to sum to
        1. ``mask`` is a constant boolean array shaped like ``pi``, and
        ``residual`` is shaped like the output. The residual is added after
        the mixture, into its buffer, so no separate mixture output is kept.

        Each expert runs only on the rows that selected it. The selected
        (expert, row) pairs are taken in expert-major order, and expert i
        writes z_i over its rows into its slice of one stacked (pairs, cols)
        buffer Z, so an unselected row of an ``x_j`` is never read and gets an
        exact-zero gradient from it. The output is one sparse product M·Z,
        where the (rows, pairs) CSR mixing matrix M holds each pair's p̃ at
        (row, pair). A CSR row lists its pairs in ascending expert order, so
        every output row sums its experts in order 0…K-1, and Z is freed once
        the product is taken. Backward runs experts K-1…0, each over its own
        rows r, and recovers the score gradient's g·z_i without Z: since
        z_i = sum_j x_j·W_j + b, g·z_i = sum_j (g·W_jᵀ)·x_j + g·b, and g·W_jᵀ
        is the product the input gradient p̃·(g·W_jᵀ) needs anyway. It is
        never read back from a p̃-scaled product, so a selected score of
        exactly 0.0 still gets its gradient. The residual takes its gradient
        before the experts do."""
        rows, cols = pi.shape[0], experts[0][1].shape[1]
        conform = all(terms and b.shape == (1, cols) and all(
            x.shape[0] == rows and x.shape[1] == w.shape[0] and w.shape[1] == cols
            for x, w in terms) for terms, b in experts)
        if (not conform or pi.shape != (rows, len(experts)) or mask.shape != pi.shape
                or residual.shape != (rows, cols)):
            raise ShapeError(f"mix_experts: {len(experts)} experts do not map to "
                             f"{(rows, cols)} under scores {pi.shape}, mask {mask.shape}, "
                             f"residual {residual.shape}")
        m = mask.astype(np.float64)
        kept = pi.value * m
        s = kept.sum(axis=1, keepdims=True)
        if np.any(s <= 0.0):
            raise ValueError("mix_experts: selected mass is zero in some row")
        p = kept / s
        pair_expert, pair_row = np.nonzero(mask.T)
        bounds = np.searchsorted(pair_expert, np.arange(len(experts) + 1))
        spans = list(zip(bounds[:-1], bounds[1:]))
        picked = [pair_row[lo:hi] for lo, hi in spans]
        stacked = np.empty((pair_row.size, cols))
        zs = [stacked[lo:hi] for lo, hi in spans]
        for r, z, (terms, b) in zip(picked, zs, experts):
            (x0, w0), *rest = terms
            np.matmul(x0.value[r], w0.value, out=z)
            for x, w in rest:
                z += x.value[r] @ w.value
            z += b.value
        # Sorting the pairs by row (stably) lists each row's pairs in expert
        # order: the CSR column indices, with p̃ read off row-major.
        indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
        mixing = sp.csr_array((p[mask], np.argsort(pair_row, kind="stable"), indptr),
                              shape=(rows, pair_row.size))
        out = Var(np.asarray(mixing @ stacked))
        out.value += residual.value

        def back():
            # gz = g·z_i = sum_j (g·W_jᵀ)·x_j + g·b: Z is not kept.
            g = out.grad
            _accum(residual, g.copy())
            gp = np.zeros_like(p)
            for i, (terms, b) in reversed(list(enumerate(experts))):
                r = picked[i]
                pr = p[r, i : i + 1]
                gr = g[r]
                gz = gr @ b.value[0]
                xrs = []
                for x, w in reversed(terms):
                    u = gr @ w.value.T
                    xr = x.value[r]
                    gz += np.einsum("ij,ij->i", u, xr)
                    if not isinstance(x, Const):
                        u *= pr
                        if x.grad is None:
                            x.grad = np.zeros_like(x.value)
                        x.grad[r] += u
                    xrs.append(xr)
                gp[r, i] = gz
                gr *= pr
                _accum(b, gr.sum(axis=0, keepdims=True))
                for (x, w), xr in zip(reversed(terms), xrs):
                    _accum(w, xr.T @ gr)
            _accum(pi, (m / s) * (gp - (gp * p).sum(axis=1, keepdims=True)))

        self._record(out, back, [v for terms, b in experts for term in terms for v in term]
                     + [b for _, b in experts])
        return out

    def batchnorm_train(self, x: Var, gamma: Var, beta: Var,
                        running_mean: np.ndarray, running_var: np.ndarray) -> Var:
        """Normalize each column by batch statistics (biased variance), then
        scale and shift. As a side effect, folds the batch statistics into the
        running buffers with momentum BN_MOMENTUM; the output reads only the
        batch statistics, so repeated forwards (finite-difference probing)
        give the same values while the buffers drift."""
        mu = x.value.mean(axis=0, keepdims=True)
        var = x.value.var(axis=0, keepdims=True)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x.value - mu) * inv
        out = Var(xhat * gamma.value + beta.value)
        running_mean[:] = (BN_MOMENTUM * running_mean.astype(np.float64)
                           + (1.0 - BN_MOMENTUM) * mu[0]).astype(running_mean.dtype)
        running_var[:] = (BN_MOMENTUM * running_var.astype(np.float64)
                          + (1.0 - BN_MOMENTUM) * var[0]).astype(running_var.dtype)

        def back():
            g = out.grad
            _accum(gamma, (g * xhat).sum(axis=0, keepdims=True))
            _accum(beta, g.sum(axis=0, keepdims=True))
            gx = g * gamma.value
            _accum(x, inv * (gx - gx.mean(axis=0, keepdims=True)
                             - xhat * (gx * xhat).mean(axis=0, keepdims=True)))

        self._record(out, back, (gamma,))
        return out

    def batchnorm_eval(self, x: Var, gamma: Var, beta: Var,
                       running_mean: np.ndarray, running_var: np.ndarray) -> Var:
        """Affine transform with frozen running statistics, for eval forwards
        only: it has no backward, so a recording tape raises rather than
        silently pass no gradient through the running statistics."""
        if self.recording:
            raise ValueError("batchnorm_eval: needs a tape built with record=False")
        inv = 1.0 / np.sqrt(running_var.astype(np.float64) + BN_EPS)
        mu = running_mean.astype(np.float64)
        return Var(((x.value - mu) * inv) * gamma.value + beta.value)

    # ---- scalar objective terms -----------------------------------------

    def routing_penalty(self, task: Var, pis: Sequence[Var], freqs: Sequence[np.ndarray],
                        lam1: float, lam2: float) -> tuple[Var, float, float]:
        """The regularized objective task + (lam1*H + lam2*B) as one scalar
        step, returned with H and B: the router penalties of L layers of
        (n, K) scores ``pis`` are summed first and then added to the (1, 1)
        ``task`` scalar. H is the mean router entropy over nodes and layers,
        -sum_l sum p*log(p) / (n*L), with the log floored at LOG_EPS so exact
        zeros contribute zero. B is the balance term summed over layers,
        K/n * sum_i colsum_i * f_i, where the constant selection frequencies
        ``freqs[l]`` (one per expert) take no gradient. Backward hands the
        output gradient on to ``task`` uncopied; a ``Const`` task takes none."""
        n = pis[0].shape[0]
        if task.shape != (1, 1) or len(freqs) != len(pis) or any(
                pi.shape[0] != n or f.shape != (pi.shape[1],) for pi, f in zip(pis, freqs)):
            raise ShapeError(f"routing_penalty: task {task.shape}, frequencies "
                             f"{[f.shape for f in freqs]} for scores {[pi.shape for pi in pis]}")
        c_ent = -1.0 / (n * len(pis))
        logs = [np.log(np.maximum(pi.value, LOG_EPS)) for pi in pis]
        plogp = [(pi.value * logc).sum() for pi, logc in zip(pis, logs)]
        balance = [(pi.value.sum(axis=0) * f).sum() * (pi.shape[1] / n)
                   for pi, f in zip(pis, freqs)]
        # Left to right from layer 0: the outputs' bytes depend on the order.
        ent = sum(plogp[1:], plogp[0]) * c_ent
        lb = sum(balance[1:], balance[0])
        out = Var(task.value + np.array([[ent * lam1 + lb * lam2]]))

        def back():
            g = out.grad[0, 0]
            _accum(task, out.grad)
            for pi, f, logc in zip(pis, freqs, logs):
                _accum(pi, np.tile((g * lam2) * (pi.shape[1] / n) * f, (n, 1)))
                _accum(pi, ((g * lam1) * c_ent) * (logc + np.where(pi.value >= LOG_EPS, 1.0, 0.0)))

        self._record(out, back, pis)
        return out, float(ent), float(lb)

    def masked_nll(self, probs: Var, labels: np.ndarray, idx: np.ndarray) -> Var:
        """Mean negative log-probability of the true class over the rows in
        ``idx``; the log is floored at LOG_EPS."""
        if idx.size == 0:
            raise ValueError("masked_nll: empty index set")
        picked = probs.value[idx, labels[idx]]
        clamped = np.maximum(picked, LOG_EPS)
        out = Var(np.array([[-np.log(clamped).mean()]]))

        def back():
            g = out.grad[0, 0]
            contrib = np.where(picked >= LOG_EPS, -1.0 / (idx.size * clamped), 0.0)
            grad = np.zeros_like(probs.value)
            np.add.at(grad, (idx, labels[idx]), g * contrib)
            _accum(probs, grad)

        self._record(out, back, (probs,))
        return out

    # ---- reverse pass ----------------------------------------------------

    def backward(self, out: Var) -> None:
        """Populate ``.grad`` for every leaf of this tape, seeding ``out``
        (a (1,1) scalar) with 1. Safe to call repeatedly; each call discards
        the previous gradients and replays identically.

        Gradient buffers are allocated lazily: a step runs only if the Var it
        produced received a gradient, and a Var's first contribution becomes
        its buffer. Only leaves keep a gradient: a step's output gradient is
        released once the step has run, as reverse recording order means every
        contribution to it has arrived by then, so every other Var ends with
        ``grad`` None. Leaves the seed does not reach get exact zeros at the
        end. Raises ValueError on a tape built with ``record=False``.

        Backward is where the tape knows the forward is done, so it first
        releases every step output that no recorded step's backward reads,
        except the seed: its ``.value`` becomes a read-only all-NaN view of
        the same shape with no memory behind it. Shapes, ``zeros_like``, a
        replay and a second backward from another seed on the same tape
        still work; writing to a released value raises."""
        if not self.recording:
            raise ValueError("backward: this tape recorded no steps (built with record=False)")
        if out.shape != (1, 1):
            raise ShapeError(f"backward seed must be a (1,1) scalar, got {out.shape}")
        for v in self._leaves:
            v.grad = None
        for produced, _ in self._steps:
            produced.grad = None
            if produced is not out and id(produced) not in self._read:
                produced.value = np.broadcast_to(np.nan, produced.shape)
        out.grad = np.ones_like(out.value)
        for produced, back in reversed(self._steps):
            if produced.grad is not None:
                back()
                produced.grad = None
        for v in self._leaves:
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
    like ``leaves``; an array with no leaf Var is one the computation holds
    constant, so its analytic gradient is zero. Determinism is verified by
    evaluating twice at the base point; any non-finite value aborts the check.
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
        analytic = leaf_vars[name].grad if name in leaf_vars else np.zeros_like(arr)
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
