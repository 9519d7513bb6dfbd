"""Rank-2 numerics with reverse-mode differentiation.

Values are numpy arrays of shape (rows, cols), float64 but for float32 leaves;
scalars travel as (1, 1). Sparse adjacencies are scipy CSR and are never
differentiated through. A Tape records one forward pass: a dense layer x·W + b
as one ``matmul`` step, a whole residual mixture layer (experts, renormalized
scores, their weighted sum and the residual input) as one ``mix_experts``
step. There each expert runs only on the rows whose mask selected it and
writes its outputs into its slice of one stacked (pairs, cols) buffer, one row
per selected (expert, row) pair; one CSR product with the (rows, pairs) mixing
matrix of renormalized scores then sums every row's experts, and the residual
is added in place. That buffer is freed once the product is taken: backward
recovers each expert's g·z_i from the products its input gradient needs, so
the tape keeps no expert output, and it adds each expert's input gradient
through the gathered input rows it has read, so it makes no scatter temporary.
The training objective is two steps: ``masked_nll``, then
one ``routing_penalty`` that adds the router penalties of every layer to it.
Inputs that take no gradient, such as the node features, enter as a ``Const``
and are not leaves. Each Var keeps its gradient in a slot of its own, apart
from its value. A recorded backward holds only its inputs' slots and the
arrays it reads, and the tape keeps only (output slot, backward) pairs and
its leaves, so a value lives exactly while its Var is held or some recorded
backward reads it: a step output that no backward reads, such as a mixture
output relu consumed, is freed as soon as the forward drops it, and nothing
is released when backward runs. ``backward`` replays the steps in reverse,
skipping those whose output the seed never reached, into one zeroed vector it
returns: each leaf's slot is a view of the leaf's slice, so a leaf the seed
never reaches keeps exact zeros. Every other gradient array has one owner: a
slot adopts its first contribution, a step hands its output gradient on
uncopied at most once and releases it once the step has run. Running it twice
gives bit-identical results, as each backward holds every array it reads. A
tape built with ``record=False`` (the model's eval mode) records nothing; it
cannot run ``backward``, ``dropout`` is the identity on it and ``batchnorm``
uses the running statistics.

Parameters live in float32 elsewhere in the package. ``Tape.leaf`` registers
a float32 (or float64) array as it is, so a leaf aliases the parameter store
and no forward holds a float64 copy of it: each op that reads a float32 leaf
promotes it to float64 exactly (numpy casts the operand inside the op), so
values and gradients have the bytes a float64 copy would give. Each op the
model records on a leaf also reads a float64 activation, so every step
output is float64, and every gradient is. ``grad_check`` probes float64
leaves, so finite-difference steps of FD_STEP are not quantized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

LOG_EPS = 1e-12      # floor inside log() calls
BN_EPS = 1e-5        # batch-norm variance floor
BN_MOMENTUM = 0.9    # weight of the old running statistics per train forward
FD_STEP = 1e-4       # grad_check's central-difference step


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class GradCheckError(RuntimeError):
    """A finite-difference check could not be carried out."""


class _Slot:
    """Where one Var's gradient accumulates, apart from its value."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Var:
    """A value tracked by a Tape. ``grad`` reads and writes the Var's gradient
    slot, which ``Tape.backward`` populates. A recorded backward holds the
    slot, not the Var, so the value lives only while the Var is held or some
    backward reads the array."""

    __slots__ = ("value", "_slot")

    def __init__(self, value: np.ndarray):
        self.value = value
        self._slot: _Slot | None = _Slot()

    @property
    def grad(self) -> np.ndarray | None:
        return self._slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._slot.grad = g

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value[0, 0])


def _as2d(a, keep: tuple = (np.float64,)) -> np.ndarray:
    """``a`` as a rank-2 array: as it is if its dtype is in ``keep``, else a
    float64 copy."""
    out = np.asarray(a)
    if out.dtype not in keep:
        out = out.astype(np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a rank-2 array, got shape {out.shape}")
    return out


class Const(Var):
    """An op input that takes no gradient, such as the node features: it has
    no gradient slot, so ``grad`` is always None and ``_accum`` drops any
    contribution, and no tape holds it. A float64 array is aliased; any
    other is copied to float64, a float32 one too, as an op with no float64
    operand would otherwise compute in float32."""

    __slots__ = ()

    def __init__(self, array):
        self.value = _as2d(array)
        self._slot = None

    @property
    def grad(self) -> None:
        return None


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (plain numpy, no tape)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _accum(slot: _Slot | None, g: np.ndarray) -> None:
    """Add a gradient contribution to a Var's ``slot``; one to a ``Const``
    (slot None) is dropped. A leaf's slot holds its view of backward's vector;
    any other slot adopts its first contribution as its buffer, so ``g`` must
    be a writable array no other slot holds: a fresh result, or an output
    gradient handed on once."""
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = g
    else:
        slot.grad += g


class Tape:
    """Single-owner record of one differentiable forward pass.

    A recording tape keeps each step as its output's gradient slot with the
    backward that consumes it, and a list of its leaves; it keeps no step's
    output Var, so a value lives while its Var is held or a recorded backward
    reads its array, and no release pass runs. Backward seeds the chosen
    scalar with 1 and accumulates in reverse recording order; the leaves'
    gradients are views of the one zeroed vector it returns. A tape built with
    ``record=False`` keeps neither: each op only computes its value, so an
    intermediate is freed as soon as the caller drops it, ``backward`` raises,
    ``dropout`` returns its input and ``batchnorm`` reads the running
    statistics.
    """

    def __init__(self, record: bool = True):
        self.recording = record
        self._steps: list[tuple[_Slot, Callable[[np.ndarray], None]]] = []
        self._leaves: list[Var] = []

    def _record(self, out: Var, back: Callable[[np.ndarray], None]) -> None:
        """Keep the step ``out`` came from: its gradient slot and ``back``,
        which takes the output gradient. ``back`` must hold no Var, only
        slots and the arrays it reads."""
        if self.recording:
            self._steps.append((out._slot, back))

    def leaf(self, array) -> Var:
        """Register an input value. A float32 or float64 array is aliased, not
        copied: an op promotes a float32 value exactly where it reads it
        beside a float64 operand, so no float64 copy of the leaf outlives
        that op. The leaf's gradient is float64 whatever its value's dtype.
        Any other dtype is copied to float64."""
        v = Var(_as2d(array, (np.float32, np.float64)))
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
        av, bv, sa, sb = a.value, b.value, a._slot, b._slot
        sbias = None if bias is None else bias._slot
        value = av @ bv
        if bias is not None:
            value += bias.value
        out = Var(value)

        def back(g):
            if sbias is not None:
                _accum(sbias, g.sum(axis=0, keepdims=True))
            if sa is not None:
                _accum(sa, g @ bv.T)
            if sb is not None:
                _accum(sb, av.T @ g)

        self._record(out, back)
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
        sx = x._slot

        def back(g):
            _accum(sx, adj_t @ g)

        self._record(out, back)
        return out

    def relu(self, a: Var) -> Var:
        """max(a, 0) elementwise. A NaN entry stays NaN (``np.maximum``
        propagates it), so a non-finite value is never hidden as a zero."""
        keep = a.value > 0.0
        out = Var(np.maximum(a.value, 0.0))
        sa = a._slot

        def back(g):
            _accum(sa, g * keep)

        self._record(out, back)
        return out

    def dropout(self, a: Var, keep: float, rng: np.random.Generator | None) -> Var:
        """Inverted dropout: survivors scaled by 1/keep. On a tape built with
        ``record=False``, or at keep 1, it returns ``a`` itself: no step, no
        draw from ``rng``. A recording tape with keep below 1 needs ``rng``."""
        if not 0.0 < keep <= 1.0:
            raise ValueError(f"dropout keep probability must be in (0, 1], got {keep}")
        if not self.recording or keep == 1.0:
            return a
        if rng is None:
            raise ValueError("dropout: a recording tape with keep < 1 needs an RNG stream")
        kept = rng.random(a.shape) < keep
        out = Var(a.value * (kept * (1.0 / keep)))
        sa = a._slot

        def back(g):
            _accum(sa, g * (kept * (1.0 / keep)))

        self._record(out, back)
        return out

    def softmax_rows(self, m: Var) -> Var:
        z = m.value - m.value.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        out = Var(p)
        sm = m._slot

        def back(g):
            _accum(sm, p * (g - (g * p).sum(axis=1, keepdims=True)))

        self._record(out, back)
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
        the product is taken. Z and the CSR product stay, although mixing
        expert by expert would cap the buffer at ``rows`` rows and give the
        same bytes: freeing the all-selected Z of a cold-start epoch is what
        lifts glibc's dynamic mmap and trim thresholds above a layer's
        arrays, so later epochs reuse the heap without page faults. Mixing
        expert by expert took thousands of minor faults per epoch and was
        about 30% slower per epoch on both benchmark workloads.

        Backward runs experts K-1…0, each over its own rows r, and recovers
        the score gradient's g·z_i without Z: since z_i = sum_j x_j·W_j + b,
        g·z_i = sum_j (g·W_jᵀ)·x_j + g·b, and g·W_jᵀ is the product the input
        gradient p̃·(g·W_jᵀ) needs anyway. It is never read back from a
        p̃-scaled product, so a selected score of exactly 0.0 still gets its
        gradient. Per expert it holds at most the gathered g[r], and per term
        u = p̃·(g·W_jᵀ) and the gathered x_j[r]; g[r] is dropped after the
        bias and weight gradients, and then each u is added into
        x_j.grad[r] through x_j[r]'s buffer, so no scatter temporary is made.
        The residual takes its gradient before the experts do: the output
        gradient itself, or a copy of it when the residual is also an expert
        input (a SAGE layer's h), whose gradient the experts' share then adds
        into."""
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
        bad = np.flatnonzero(~(s > 0.0))
        if bad.size:
            raise ValueError(f"mix_experts: selected mass is zero, negative or NaN in "
                             f"{bad.size} rows (first row {bad[0]}: {s[bad[0], 0]})")
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
        # What backward reads, with slots in place of Vars: per expert its
        # (x, W) terms as (x value, x slot, W value, W slot) and its bias.
        parts = [([(x.value, x._slot, w.value, w._slot) for x, w in terms], b.value, b._slot)
                 for terms, b in experts]
        spi, sres = pi._slot, residual._slot
        shared = any(x is residual for terms, _ in experts for x, _ in terms)

        def back(g):
            # gz = g·z_i = sum_j (g·W_jᵀ)·x_j + g·b: Z is not kept.
            _accum(sres, g.copy() if shared else g)
            gp = np.zeros_like(p)
            for i, (terms, bv, sb) in reversed(list(enumerate(parts))):
                r = picked[i]
                pr = p[r, i : i + 1]
                gr = g[r]
                gz = gr @ bv[0]
                held = []  # per term, in reverse: (p̃·(g·W_jᵀ) or None, x_j[r])
                for xv, sx, wv, _ in reversed(terms):
                    u = gr @ wv.T
                    xr = xv[r]
                    gz += np.einsum("ij,ij->i", u, xr)
                    if sx is None:
                        u = None
                    else:
                        u *= pr
                    held.append((u, xr))
                gp[r, i] = gz
                gr *= pr
                _accum(sb, gr.sum(axis=0, keepdims=True))
                for (_, _, _, sw), (_, xr) in zip(reversed(terms), held):
                    _accum(sw, xr.T @ gr)
                del gr
                # x_j.grad[r] += u, with x_j[r]'s buffer (read by now) as
                # the gathered rows: no scatter temporary. r is valid, so
                # mode="clip" only spares np.take a buffered ``out``.
                for (xv, sx, _, _), (u, xr) in zip(reversed(terms), held):
                    if u is not None:
                        if sx.grad is None:
                            sx.grad = np.zeros_like(xv)
                        np.take(sx.grad, r, axis=0, out=xr, mode="clip")
                        xr += u
                        sx.grad[r] = xr
                del held, u, xr  # before the next expert's gather
            _accum(spi, (m / s) * (gp - (gp * p).sum(axis=1, keepdims=True)))

        self._record(out, back)
        return out

    def batchnorm(self, x: Var, gamma: Var, beta: Var,
                  running_mean: np.ndarray, running_var: np.ndarray) -> Var:
        """Normalize each column, then scale and shift. A recording tape
        normalizes by the batch statistics (biased variance) and, as a side
        effect, folds them into the running buffers with momentum
        BN_MOMENTUM; the output reads only the batch statistics, so repeated
        forwards (finite-difference probing) give the same values while the
        buffers drift. A tape built with ``record=False`` normalizes by the
        running statistics and leaves the buffers as they are."""
        if not self.recording:
            inv = 1.0 / np.sqrt(running_var.astype(np.float64) + BN_EPS)
            mu = running_mean.astype(np.float64)
            return Var(((x.value - mu) * inv) * gamma.value + beta.value)
        mu = x.value.mean(axis=0, keepdims=True)
        var = x.value.var(axis=0, keepdims=True)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x.value - mu) * inv
        out = Var(xhat * gamma.value + beta.value)
        running_mean[:] = (BN_MOMENTUM * running_mean.astype(np.float64)
                           + (1.0 - BN_MOMENTUM) * mu[0]).astype(running_mean.dtype)
        running_var[:] = (BN_MOMENTUM * running_var.astype(np.float64)
                          + (1.0 - BN_MOMENTUM) * var[0]).astype(running_var.dtype)
        gv, sx, sgamma, sbeta = gamma.value, x._slot, gamma._slot, beta._slot

        def back(g):
            _accum(sgamma, (g * xhat).sum(axis=0, keepdims=True))
            _accum(sbeta, g.sum(axis=0, keepdims=True))
            gx = g * gv
            _accum(sx, inv * (gx - gx.mean(axis=0, keepdims=True)
                              - xhat * (gx * xhat).mean(axis=0, keepdims=True)))

        self._record(out, back)
        return out

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
        values = [pi.value for pi in pis]
        logs = [np.log(np.maximum(pv, LOG_EPS)) for pv in values]
        plogp = [(pv * logc).sum() for pv, logc in zip(values, logs)]
        balance = [(pv.sum(axis=0) * f).sum() * (pv.shape[1] / n)
                   for pv, f in zip(values, freqs)]
        # Left to right from layer 0: the outputs' bytes depend on the order.
        ent = sum(plogp[1:], plogp[0]) * c_ent
        lb = sum(balance[1:], balance[0])
        out = Var(task.value + np.array([[ent * lam1 + lb * lam2]]))
        stask, slots = task._slot, [pi._slot for pi in pis]

        def back(g):
            g0 = g[0, 0]
            _accum(stask, g)
            for pv, spi, f, logc in zip(values, slots, freqs, logs):
                _accum(spi, np.tile((g0 * lam2) * (pv.shape[1] / n) * f, (n, 1)))
                _accum(spi, ((g0 * lam1) * c_ent) * (logc + np.where(pv >= LOG_EPS, 1.0, 0.0)))

        self._record(out, back)
        return out, float(ent), float(lb)

    def masked_nll(self, probs: Var, labels: np.ndarray, idx: np.ndarray) -> Var:
        """Mean negative log-probability of the true class over the rows in
        ``idx``; the log is floored at LOG_EPS."""
        if idx.size == 0:
            raise ValueError("masked_nll: empty index set")
        picked = probs.value[idx, labels[idx]]
        clamped = np.maximum(picked, LOG_EPS)
        out = Var(np.array([[-np.log(clamped).mean()]]))
        shape, sprobs = probs.shape, probs._slot

        def back(g):
            contrib = np.where(picked >= LOG_EPS, -1.0 / (idx.size * clamped), 0.0)
            grad = np.zeros(shape)
            np.add.at(grad, (idx, labels[idx]), g[0, 0] * contrib)
            _accum(sprobs, grad)

        self._record(out, back)
        return out

    # ---- reverse pass ----------------------------------------------------

    def backward(self, out: Var) -> np.ndarray:
        """Seed ``out`` (a (1,1) scalar) with 1 and return the gradients of
        this tape's leaves, raveled in registration order, as one float64
        vector that starts at zero; each leaf's ``.grad`` is its (rows, cols)
        view of it, so a leaf the seed does not reach keeps exact zeros. A
        step runs only if its output slot received a gradient, and a non-leaf
        slot's first contribution becomes its buffer. A step's output gradient
        is released once the step has run, as reverse recording order means
        every contribution to it has arrived by then, so every Var but the
        leaves ends with ``grad`` None. No value is touched. Safe to call
        repeatedly: each call returns a fresh vector and replays identically,
        as every recorded backward still holds the arrays it reads. Raises
        ValueError on a tape built with ``record=False``."""
        if not self.recording:
            raise ValueError("backward: this tape recorded no steps (built with record=False)")
        if out.shape != (1, 1):
            raise ShapeError(f"backward seed must be a (1,1) scalar, got {out.shape}")
        for slot, _ in self._steps:
            slot.grad = None
        sizes = [v.value.size for v in self._leaves]
        grad = np.zeros(sum(sizes))
        for v, part in zip(self._leaves, np.split(grad, np.cumsum(sizes)[:-1])):
            v.grad = part.reshape(v.shape)
        _accum(out._slot, np.ones_like(out.value))
        for slot, back in reversed(self._steps):
            if slot.grad is not None:
                back(slot.grad)
                slot.grad = None
        return grad


# ---- finite-difference checking -----------------------------------------


@dataclass
class GradCheckReport:
    per_leaf: dict[str, float]   # max relative error per leaf tensor
    max_rel_err: float


def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)


def grad_check(f: Callable[[], tuple[Tape, Var, dict[str, Var]]],
               leaves: dict[str, np.ndarray]) -> GradCheckReport:
    """Compare tape gradients of a recorded scalar against central finite
    differences of step ``FD_STEP``.

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
            flat[i] = orig + FD_STEP
            hi = f()[1].item()
            flat[i] = orig - FD_STEP
            lo = f()[1].item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise GradCheckError(f"non-finite value while probing leaf {name!r}")
            fd_flat[i] = (hi - lo) / (2.0 * FD_STEP)
        per_leaf[name] = float(_rel_err(analytic, fd).max())
    return GradCheckReport(per_leaf, max(per_leaf.values(), default=0.0))
