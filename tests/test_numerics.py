"""Tape primitives vs hand values and central finite differences."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from d2moe.numerics import (
    LOG_EPS,
    Const,
    GradCheckError,
    ShapeError,
    Tape,
    grad_check,
    sigmoid,
)

RNG = np.random.default_rng


def weighted_colsum(tape, m, w):
    """The scalar sum_i w[i] * (column i sum of m) as two matmul steps with
    constant weights, so a finite-difference probe with fixed random ``w``
    exercises the whole Jacobian, not just sums."""
    return tape.matmul(tape.matmul(Const(np.ones((1, m.shape[0]))), m), Const(w[:, None]))


def no_task():
    """A zero (1, 1) task for ``routing_penalty``, whose output is then the
    penalty alone, bit for bit: 0.0 + x == x."""
    return Const(np.zeros((1, 1)))


def run_check(build, leaves, tol=1e-4, step=1e-4):
    report = grad_check(build, leaves, step=step)
    assert report.max_rel_err < tol, report.per_leaf
    return report


# ---- matmul --------------------------------------------------------------


def test_matmul_identity():
    t = Tape()
    m = t.leaf(RNG(0).normal(size=(3, 3)))
    out = t.matmul(t.leaf(np.eye(3)), m)
    np.testing.assert_array_equal(out.value, m.value)


def test_matmul_hand_case():
    t = Tape()
    out = t.matmul(t.leaf([[1.0, 2.0], [3.0, 4.0]]), t.leaf([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.value, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    t = Tape()
    with pytest.raises(ShapeError):
        t.matmul(t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((2, 3))))


def test_matmul_grad_of_sum_is_row_sums():
    # d sum(a@b) / da == broadcast row-sums of b
    a = RNG(1).uniform(-2, 2, size=(5, 3))
    b = RNG(2).uniform(-2, 2, size=(3, 4))
    t = Tape()
    va, vb = t.leaf(a), t.leaf(b)
    out = weighted_colsum(t, t.matmul(va, vb), np.ones(4))
    t.backward(out)
    np.testing.assert_allclose(va.grad, np.tile(b.sum(axis=1), (5, 1)), rtol=1e-12)


def test_matmul_fd():
    a = RNG(3).uniform(-2, 2, size=(5, 3))
    b = RNG(4).uniform(-2, 2, size=(3, 4))
    bias = RNG(6).uniform(-2, 2, size=(1, 4))
    w = RNG(5).normal(size=4)
    for leaves in ({"a": a, "b": b}, {"a": a, "b": b, "bias": bias}):
        def build(leaves=leaves):
            t = Tape()
            vs = {name: t.leaf(arr) for name, arr in leaves.items()}
            out = t.matmul(vs["a"], vs["b"], vs.get("bias"))
            return t, weighted_colsum(t, out, w), vs

        report = run_check(build, leaves)
        assert set(report.per_leaf) == set(leaves)


def test_matmul_bias_value_and_shape_check():
    a = RNG(7).normal(size=(3, 2))
    b = RNG(8).normal(size=(2, 4))
    bias = RNG(9).normal(size=(1, 4))
    t = Tape()
    out = t.matmul(t.leaf(a), t.leaf(b), t.leaf(bias))
    np.testing.assert_array_equal(out.value, a @ b + bias)
    with pytest.raises(ShapeError, match="bias"):
        t.matmul(t.leaf(a), t.leaf(b), t.leaf(np.zeros((1, 3))))


# ---- spmm ----------------------------------------------------------------


def _random_csr(n, seed, density=0.3):
    rng = RNG(seed)
    dense = (rng.random((n, n)) < density) * rng.normal(size=(n, n))
    adj = sp.csr_array(dense)
    return adj, sp.csr_array(adj.T), dense


def test_spmm_identity():
    eye = sp.identity(4, format="csr")
    x = RNG(6).normal(size=(4, 2))
    t = Tape()
    out = t.spmm(eye, eye, t.leaf(x))
    np.testing.assert_allclose(out.value, x, atol=1e-15)


def test_spmm_normalized_path_preserves_ones():
    # 2-node path, self-loops, symmetric normalization: rows sum to 1
    a = np.array([[1.0, 1.0], [1.0, 1.0]])  # A + I for the single edge 0-1
    d = 1.0 / np.sqrt(a.sum(axis=1))
    norm = d[:, None] * a * d[None, :]
    adj = sp.csr_array(norm)
    t = Tape()
    out = t.spmm(adj, sp.csr_array(adj.T), t.leaf(np.ones((2, 1))))
    np.testing.assert_allclose(out.value, np.ones((2, 1)), atol=1e-12)


def test_spmm_matches_dense_oracle():
    """Forward and backward against dense products, with the transpose given
    as a CSR copy and as the ``adj.T`` CSC view: the two backward products
    add each row's terms in the same order, so they agree bit for bit."""
    adj, adj_t, dense = _random_csr(10, seed=7)
    x = RNG(8).uniform(-2, 2, size=(10, 3))
    w = RNG(13).normal(size=3)
    grads = []
    for transpose in (adj_t, adj.T):
        t = Tape()
        vx = t.leaf(x)
        out = t.spmm(adj, transpose, vx)
        np.testing.assert_allclose(out.value, dense @ x, atol=1e-6)
        t.backward(weighted_colsum(t, out, w))
        np.testing.assert_allclose(vx.grad, dense.T @ np.tile(w, (10, 1)), atol=1e-12)
        grads.append(vx.grad)
    assert isinstance(adj.T, sp.csc_array)
    np.testing.assert_array_equal(grads[0], grads[1])


def test_spmm_fd():
    adj, adj_t, _ = _random_csr(8, seed=9)
    x = RNG(10).uniform(-2, 2, size=(8, 3))
    w = RNG(11).normal(size=3)

    for transpose in (adj_t, adj.T):  # a CSR copy, then the CSC view

        def build():
            t = Tape()
            vx = t.leaf(x)
            return t, weighted_colsum(t, t.spmm(adj, transpose, vx), w), {"x": vx}

        run_check(build, {"x": x})


def test_spmm_shape_mismatch():
    adj, adj_t, _ = _random_csr(4, seed=12)
    t = Tape()
    with pytest.raises(ShapeError):
        t.spmm(adj, adj_t, t.leaf(np.zeros((5, 2))))


# ---- softmax -------------------------------------------------------------


def test_softmax_zero_row_is_uniform():
    t = Tape()
    out = t.softmax_rows(t.leaf(np.zeros((1, 4))))
    np.testing.assert_allclose(out.value, [[0.25] * 4], atol=1e-15)


def test_softmax_large_magnitudes_stable():
    t = Tape()
    out = t.softmax_rows(t.leaf([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.value))
    assert out.value[0, 0] == pytest.approx(1.0)
    assert out.value[0, 1] == pytest.approx(0.0, abs=1e-300)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_softmax_rows_sum_to_one(seed, n, k):
    m = RNG(seed).uniform(-50, 50, size=(n, k))
    t = Tape()
    out = t.softmax_rows(t.leaf(m))
    np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(out.value > 0) and np.all(out.value <= 1)


def test_softmax_fd():
    m = RNG(13).uniform(-2, 2, size=(3, 4))
    w = RNG(14).normal(size=4)

    def build():
        t = Tape()
        vm = t.leaf(m)
        return t, weighted_colsum(t, t.softmax_rows(vm), w), {"m": vm}

    run_check(build, {"m": m})


# ---- elementwise ---------------------------------------------------------


def test_pointwise_trivia():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    t = Tape()
    np.testing.assert_array_equal(t.relu(t.leaf([[-3.0, 3.0]])).value, [[0.0, 3.0]])


def test_relu_propagates_nan():
    """np.maximum keeps a NaN, so relu never hides a non-finite value as 0;
    the NaN entry's gradient is an exact zero, like any non-positive one."""
    t = Tape()
    a = t.leaf([[np.nan, -1.0, 2.0]])
    out = t.relu(a)
    np.testing.assert_array_equal(out.value, [[np.nan, 0.0, 2.0]])
    t.backward(weighted_colsum(t, out, np.zeros(3)))
    np.testing.assert_array_equal(a.grad, [[0.0, 0.0, 0.0]])


def test_constant_takes_no_gradient():
    """A constant input is not a leaf and never holds a gradient: not as a
    matmul operand, a ``mix_experts`` expert input or residual, a
    ``routing_penalty`` task or ``masked_nll`` scores. Every leaf gradient
    equals that of the run with the same array wrapped as a leaf."""
    rng = RNG(40)
    x = rng.normal(size=(5, 3))
    w, b = rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
    w2, pi = rng.normal(size=(3, 2)), rng.uniform(0.1, 1.0, size=(5, 2))
    res = rng.normal(size=(5, 2))
    mask = np.array([[1, 1], [1, 0], [0, 1], [1, 1], [0, 1]], dtype=bool)
    probs = rng.uniform(0.1, 1.0, size=(5, 2))
    task = np.array([[0.25]])

    def matmul(t, wrap):
        xv = wrap(x)
        return [xv], t.matmul(xv, t.leaf(w), t.leaf(b))

    def mix(t, wrap):
        xv, rv = wrap(x), wrap(res)
        experts = [([(xv, t.leaf(w))], t.leaf(b)), ([(xv, t.leaf(w2))], t.leaf(b))]
        return [xv, rv], t.mix_experts(experts, t.leaf(pi), mask, rv)

    def penalty(t, wrap):
        tv, pv = wrap(task), t.leaf(probs)
        return [tv], t.routing_penalty(tv, [pv], [np.array([0.6, 0.4])], 0.3, 0.7)[0]

    def nll(t, wrap):
        pv = wrap(probs)
        return [pv], t.masked_nll(pv, np.array([0, 1, 1, 0, 1]), np.arange(5))

    for case in (matmul, mix, penalty, nll):
        grads = {}
        for name, wrap in (("leaf", None), ("const", Const)):
            t = Tape()
            wrapped, out = case(t, wrap or t.leaf)
            if out.shape != (1, 1):
                out = weighted_colsum(t, out, np.array([1.0, -2.0]))
            t.backward(out)
            grads[name] = [v.grad for v in t._leaves if all(v is not c for c in wrapped)]
            if wrap is Const:
                assert all(c.grad is None for c in wrapped), case.__name__
                assert not any(c is v for c in wrapped for v in t._leaves)
        assert len(grads["leaf"]) == len(grads["const"])
        for leaf, const in zip(grads["leaf"], grads["const"]):
            np.testing.assert_array_equal(leaf, const)


def test_sigmoid_saturation_finite():
    out = sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-300)


def test_relu_sigmoid_fd():
    m = RNG(15).uniform(-2, 2, size=(4, 3)) + 0.05  # nudge off the relu kink
    w = RNG(16).normal(size=3)

    def build():
        t = Tape()
        vm = t.leaf(m)
        return t, weighted_colsum(t, t.softmax_rows(t.relu(vm)), w), {"m": vm}

    run_check(build, {"m": m})


def test_dropout_keep_one_is_identity():
    x = RNG(17).normal(size=(5, 4))
    t = Tape()
    out = t.dropout(t.leaf(x), keep=1.0, rng=RNG(0))
    np.testing.assert_array_equal(out.value, x)


def test_dropout_inverted_scaling():
    x = np.ones((2000, 1))
    t = Tape()
    out = t.dropout(t.leaf(x), keep=0.5, rng=RNG(18))
    survivors = out.value[out.value != 0]
    assert np.all(survivors == 2.0)  # 1/keep
    assert out.value.mean() == pytest.approx(1.0, abs=0.1)


def test_dropout_bad_keep():
    t = Tape()
    v = t.leaf(np.ones((2, 2)))
    for keep in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            t.dropout(v, keep=keep, rng=RNG(0))


def test_dropout_fd_fixed_mask():
    x = RNG(19).uniform(-2, 2, size=(4, 3))
    w = RNG(20).normal(size=3)

    def build():
        t = Tape()
        vx = t.leaf(x)
        out = t.dropout(vx, keep=0.7, rng=RNG(21))  # same mask every call
        return t, weighted_colsum(t, out, w), {"x": vx}

    run_check(build, {"x": x})


# ---- mix_experts ---------------------------------------------------------


def _mixture_oracle(experts, pi, mask):
    """Plain numpy in the per-expert order: renormalize the selected scores,
    then add each weighted expert output z_i = sum_j x_j @ W_j + b_i."""
    kept = pi * mask
    p = kept / kept.sum(axis=1, keepdims=True)
    out = np.zeros((pi.shape[0], experts[0][1].shape[1]))
    for i, (terms, b) in enumerate(experts):
        z = terms[0][0] @ terms[0][1]
        for x, w in terms[1:]:
            z = z + x @ w
        out += p[:, i : i + 1] * (z + b)
    return out


def _mixture_case(seed, n=6, d=3, c=4, term_counts=(1, 2, 1), idle=None):
    """Random experts over shared inputs (as a layer's experts share ``h`` and
    its aggregate), softmax-able raw scores and a mask with a one-selected row
    (0), an all-selected row (1) and random rows with at least one selected.
    Expert ``idle``, if given, is selected by no row; a row left with none
    then selects the next expert instead."""
    rng = RNG(seed)
    xs = [rng.uniform(-2, 2, size=(n, d)) for _ in range(max(term_counts))]
    experts = [([(xs[j], rng.uniform(-1, 1, size=(d, c))) for j in range(t)],
                rng.uniform(-1, 1, size=(1, c))) for t in term_counts]
    k = len(term_counts)
    raw = rng.uniform(-1, 1, size=(n, k))
    mask = rng.random((n, k)) < 0.5
    mask[np.arange(n), rng.integers(0, k, size=n)] = True
    mask[0] = np.arange(k) == k - 1
    mask[1] = True
    if idle is not None:
        mask[:, idle] = False
        mask[~mask.any(axis=1), (idle + 1) % k] = True
    return xs, experts, raw, mask


def _mixture_on_tape(t, xs, experts, pi, mask):
    """The case on tape, one leaf per array; returns the output, the input
    leaves and the experts over leaves."""
    xv = {id(x): t.leaf(x) for x in xs}
    ev = [([(xv[id(x)], t.leaf(w)) for x, w in terms], t.leaf(b)) for terms, b in experts]
    zero = Const(np.zeros((pi.shape[0], experts[0][1].shape[1])))
    return t.mix_experts(ev, pi, mask, zero), [xv[id(x)] for x in xs], ev


def _named(xs, experts):
    """Every input and expert tensor by name: x{j}, e{i}.w{j} and e{i}.b."""
    out = {f"x{j}": x for j, x in enumerate(xs)}
    for i, (terms, b) in enumerate(experts):
        out.update({f"e{i}.w{j}": w for j, (_, w) in enumerate(terms)}, **{f"e{i}.b": b})
    return out


def _every_pattern_mask(busy=4, idle=2):
    """(2**busy - 1, busy + 1): row r selects the busy experts in the bits of
    r + 1, so every non-empty selection pattern occurs once; expert ``idle``
    is selected by no row."""
    bits = (np.arange(1, 2 ** busy)[:, None] >> np.arange(busy)) & 1
    return np.insert(bits.astype(bool), idle, False, axis=1)


@pytest.mark.parametrize("term_counts, every_pattern", [
    *(pytest.param(counts, False, id="-".join(map(str, counts)))
      for counts in [(1,), (2,), (1, 1, 1), (2, 2, 2), (2, 1, 2, 1)]),
    pytest.param((1, 2, 1, 2, 1), True, id="every-pattern-of-4-with-idle"),
])
def test_mix_experts_matches_numpy_oracle(term_counts, every_pattern):
    """Bit-exact against the per-expert oracle, so each output row sums its
    selected experts in ascending order, also across an idle expert."""
    xs, experts, _, mask = _mixture_case(27, n=15 if every_pattern else 6,
                                         term_counts=term_counts)
    if every_pattern:
        mask = _every_pattern_mask()
    pi = RNG(28).uniform(0.05, 1, size=mask.shape)
    t = Tape()
    out, _, _ = _mixture_on_tape(t, xs, experts, t.leaf(pi), mask)
    np.testing.assert_array_equal(out.value, _mixture_oracle(experts, pi, mask))


def test_mix_experts_weights_hand_case():
    """Scores [0.5, 0.3, 0.2] with the last unselected mix at 0.625/0.375;
    one selected expert passes through with weight exactly 1."""
    t = Tape()
    one = t.leaf(np.ones((1, 1)))
    experts = [([(one, t.leaf([[v]]))], t.leaf([[0.0]])) for v in (8.0, 16.0, 1e6)]
    zero = Const(np.zeros((1, 1)))
    out = t.mix_experts(experts, t.leaf([[0.5, 0.3, 0.2]]), np.array([[True, True, False]]), zero)
    assert out.item() == pytest.approx(0.625 * 8.0 + 0.375 * 16.0, abs=1e-12)
    out = t.mix_experts(experts, t.leaf([[0.6, 0.3, 0.1]]), np.array([[False, True, False]]), zero)
    assert out.item() == 16.0


def test_mix_experts_zero_mass_guarded():
    t = Tape()
    x, w, b = t.leaf(np.ones((1, 1))), t.leaf(np.ones((1, 1))), t.leaf(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="zero"):
        t.mix_experts([([(x, w)], b)] * 2, t.leaf([[0.0, 1.0]]), np.array([[True, False]]),
                      Const(np.zeros((1, 1))))


def test_mix_experts_shape_errors():
    t = Tape()
    leaf = lambda r, c: t.leaf(np.ones((r, c)))
    x, w, b = leaf(3, 2), leaf(2, 4), leaf(1, 4)
    pi, mask = leaf(3, 2), np.ones((3, 2), bool)
    good, zero = ([(x, w)], b), Const(np.zeros((3, 4)))
    bad = [
        ([good, good], pi, np.ones((3, 3), bool), zero),            # mask shape
        ([good], pi, mask, zero),                                   # scores per expert
        ([good, ([(x, leaf(3, 4))], b)], pi, mask, zero),           # x @ W does not conform
        ([good, ([(x, w)], leaf(1, 3))], pi, mask, zero),           # bias width
        ([good, ([(leaf(2, 2), w)], b)], pi, mask, zero),           # rows
        ([good, ([(x, w), (x, leaf(2, 3))], b)], pi, mask, zero),   # terms disagree
        ([good, ([], b)], pi, mask, zero),                          # no terms
        ([good, good], pi, mask, Const(np.zeros((3, 3)))),          # residual shape
    ]
    for experts, p, m, residual in bad:
        with pytest.raises(ShapeError):
            t.mix_experts(experts, p, m, residual)


def _mixture_grads(xs, experts, pi, mask, w):
    """The case's output and the gradient of ``weighted_colsum(out, w)`` for
    the scores (``pi``) and every named input and expert tensor."""
    t = Tape()
    pv = t.leaf(pi)
    out, xv, ev = _mixture_on_tape(t, xs, experts, pv, mask)
    t.backward(weighted_colsum(t, out, w))
    return out.value, {"pi": pv.grad, **{k: v.grad for k, v in _named(xv, ev).items()}}


def test_mix_experts_never_reads_unselected_rows():
    """Each expert gets inputs of its own whose rows it did not select are
    NaN. Dispatch never reads them: the output equals the oracle on the same
    inputs with NaN replaced by 0, and every gradient is finite and equals
    the zeroed inputs' gradient."""
    _, shared, _, mask = _mixture_case(33, term_counts=(2, 1, 2), idle=1)
    pi = RNG(34).uniform(0.05, 1, size=mask.shape)
    w = RNG(35).normal(size=4)
    poisoned = [([(np.where(mask[:, [i]], x, np.nan), wt) for x, wt in terms], b)
                for i, (terms, b) in enumerate(shared)]
    zeroed = [([(np.nan_to_num(x, nan=0.0), wt) for x, wt in terms], b)
              for terms, b in poisoned]
    inputs = lambda experts: [x for terms, _ in experts for x, _ in terms]
    assert np.isnan(inputs(poisoned)[0]).any()

    out, grads = _mixture_grads(inputs(poisoned), poisoned, pi, mask, w)
    np.testing.assert_array_equal(out, _mixture_oracle(zeroed, pi, mask))
    _, want = _mixture_grads(inputs(zeroed), zeroed, pi, mask, w)
    assert grads.keys() == want.keys()
    for name, grad in grads.items():
        assert np.all(np.isfinite(grad)), name
        np.testing.assert_array_equal(grad, want[name], err_msg=name)


def test_mix_experts_idle_expert_gets_exact_zero_grads():
    """An expert no row selected is gathered over zero rows: its W and b get
    exact-zero gradients."""
    xs, experts, _, mask = _mixture_case(36, term_counts=(1, 2, 1), idle=1)
    assert not mask[:, 1].any() and mask.any(axis=1).all()
    pi = RNG(37).uniform(0.05, 1, size=mask.shape)
    out, grads = _mixture_grads(xs, experts, pi, mask, RNG(38).normal(size=4))
    np.testing.assert_array_equal(out, _mixture_oracle(experts, pi, mask))
    for name in ("e1.w0", "e1.w1", "e1.b"):
        assert not grads[name].any(), name
    assert grads["e0.w0"].any() and grads["e2.b"].any()


def test_mix_experts_fd():
    """Finite differences for the raw scores and every x, W and b of 1- and
    2-term experts sharing their inputs, under a mask with one-selected,
    nearly all-selected and partial rows and an expert no row selects."""
    xs, experts, raw, mask = _mixture_case(29, n=5, d=2, c=3, term_counts=(1, 2, 1, 2),
                                           idle=2)
    w = RNG(30).normal(size=3)
    leaves = {"raw": raw, **_named(xs, experts)}

    def build():
        t = Tape()
        rv = t.leaf(raw)
        out, xv, ev = _mixture_on_tape(t, xs, experts, t.softmax_rows(rv), mask)
        return t, weighted_colsum(t, out, w), {"raw": rv, **_named(xv, ev)}

    report = run_check(build, leaves)
    assert set(report.per_leaf) == set(leaves)


@pytest.mark.parametrize("term_counts, idle", [
    ((1, 1, 1), None), ((2, 2), None), ((1, 2, 1, 2), 2), ((2, 1, 2), 1)])
def test_mix_experts_score_gradient_matches_oracle(term_counts, idle):
    """The score gradient against plain numpy with every z_i formed
    explicitly: gp = g·z_i, then (m/s) * (gp - sum(gp * p̃)). One selected
    score is exactly 0.0, so its p̃ is 0 but its gradient is not."""
    xs, experts, _, mask = _mixture_case(39, n=7, term_counts=term_counts, idle=idle)
    pi = RNG(40).uniform(0.05, 1, size=mask.shape)
    assert mask[1, 0] and mask[1].sum() > 1  # row 1 selects every busy expert
    pi[1, 0] = 0.0
    w = RNG(41).normal(size=4)
    t = Tape()
    pv = t.leaf(pi)
    out, _, _ = _mixture_on_tape(t, xs, experts, pv, mask)
    t.backward(weighted_colsum(t, out, w))

    g = np.tile(w, (mask.shape[0], 1))
    m = mask.astype(float)
    s = (pi * m).sum(axis=1, keepdims=True)
    p = pi * m / s
    gp = np.zeros_like(pi)
    for i, (terms, b) in enumerate(experts):
        z = sum(x @ w for x, w in terms) + b
        gp[:, i] = (g * z).sum(axis=1)
    want = (m / s) * (gp - (gp * p).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(pv.grad, want, rtol=1e-12, atol=0)
    assert pv.grad[1, 0] != 0.0
    if idle is not None:
        assert not pv.grad[:, idle].any()


def test_mix_experts_backward_replay_bit_identical():
    """Two mixture layers of 1- and 2-term experts (the second layer's
    experts read h and an aggregate of h, as a SAGE layer does): a second
    backward gives every leaf the same gradient bytes."""
    xs, experts, raw1, mask1 = _mixture_case(43, n=8, term_counts=(2, 1, 2), idle=1)
    rng = RNG(44)
    adj, adj_t, _ = _random_csr(8, 45)
    layer2 = [([(0, rng.uniform(-1, 1, size=(4, 3)))]
               + ([(1, rng.uniform(-1, 1, size=(4, 3)))] if t == 2 else []),
               rng.uniform(-1, 1, size=(1, 3))) for t in (1, 2, 2, 1)]
    raw2 = rng.uniform(-1, 1, size=(8, 4))
    mask2 = rng.random((8, 4)) < 0.5
    mask2[np.arange(8), rng.integers(0, 4, size=8)] = True

    t = Tape()
    r1, r2 = t.leaf(raw1), t.leaf(raw2)
    h, xv, ev1 = _mixture_on_tape(t, xs, experts, t.softmax_rows(r1), mask1)
    ins = (h, t.spmm(adj, adj_t, h))
    ev2 = [([(ins[j], t.leaf(w)) for j, w in terms], t.leaf(b)) for terms, b in layer2]
    out = t.mix_experts(ev2, t.softmax_rows(r2), mask2, Const(np.zeros((8, 3))))
    loss = t.masked_nll(t.softmax_rows(out), np.arange(8) % 3, np.arange(8))
    leaves = [r1, r2, *_named(xv, ev1).values(), *_named([], ev2).values()]
    t.backward(loss)
    first = [v.grad.copy() for v in leaves]
    t.backward(loss)
    assert all(v.grad is not None for v in leaves)
    for before, v in zip(first, leaves):
        assert before.tobytes() == v.grad.tobytes()


# ---- batch norm ----------------------------------------------------------


def test_batchnorm_train_normalizes_columns():
    x = RNG(31).normal(3.0, 2.0, size=(50, 4))
    t = Tape()
    rm, rv = np.zeros(4, np.float32), np.ones(4, np.float32)
    out = t.batchnorm_train(t.leaf(x), t.leaf(np.ones((1, 4))), t.leaf(np.zeros((1, 4))),
                            rm, rv)
    np.testing.assert_allclose(out.value.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.value.var(axis=0), 1.0, atol=1e-4)


def test_batchnorm_running_stats_update():
    x = RNG(32).normal(1.0, 1.5, size=(100, 3))
    rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
    t = Tape()
    t.batchnorm_train(t.leaf(x), t.leaf(np.ones((1, 3))), t.leaf(np.zeros((1, 3))),
                      rm, rv)
    np.testing.assert_allclose(rm, 0.1 * x.mean(axis=0), rtol=1e-5)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=0), rtol=1e-5)


def test_batchnorm_train_fd():
    x = RNG(33).uniform(-2, 2, size=(6, 3))
    gamma = RNG(34).uniform(0.5, 1.5, size=(1, 3))
    beta = RNG(35).uniform(-0.5, 0.5, size=(1, 3))
    w = RNG(36).normal(size=3)

    def build():
        t = Tape()
        vx, vg, vb = t.leaf(x), t.leaf(gamma), t.leaf(beta)
        out = t.batchnorm_train(vx, vg, vb, np.zeros(3, np.float32), np.ones(3, np.float32))
        return t, weighted_colsum(t, out, w), {"x": vx, "gamma": vg, "beta": vb}

    run_check(build, {"x": x, "gamma": gamma, "beta": beta})


def test_batchnorm_eval_fd_and_values():
    """Values on an eval (non-recording) tape; a recording tape raises, as
    the op has no backward through the running statistics."""
    x = RNG(37).uniform(-2, 2, size=(5, 3))
    gamma = np.full((1, 3), 2.0)
    beta = np.full((1, 3), 0.5)
    rm = np.array([0.1, -0.2, 0.3], np.float32)
    rv = np.array([1.5, 0.8, 1.1], np.float32)
    t = Tape(record=False)
    out = t.batchnorm_eval(t.leaf(x), t.leaf(gamma), t.leaf(beta), rm, rv)
    expect = 2.0 * (x - rm.astype(np.float64)) / np.sqrt(rv.astype(np.float64) + 1e-5) + 0.5
    np.testing.assert_allclose(out.value, expect, atol=1e-12)

    t = Tape()
    with pytest.raises(ValueError, match="record=False"):
        t.batchnorm_eval(t.leaf(x), t.leaf(gamma), t.leaf(beta), rm, rv)


# ---- scalar objective terms ----------------------------------------------


def test_routing_penalty_values():
    """H is the mean entropy over nodes and layers and B is
    K/n * sum_i colsum_i * f_i summed over layers; the value weighs them by
    lam1 and lam2."""
    t = Tape()
    half, onehot = t.leaf([[0.5, 0.5]]), t.leaf([[1.0, 0.0]])
    out, ent, lb = t.routing_penalty(no_task(), [half, onehot], [np.array([1.0, 0.0])] * 2,
                                     3.0, 5.0)
    assert ent == pytest.approx(np.log(2.0) / 2.0, abs=1e-15)
    assert lb == 3.0  # 2 * 0.5 + 2 * 1.0
    assert out.item() == pytest.approx(3.0 * ent + 5.0 * lb, abs=1e-14)


def test_plogp_sum_exact_zero_contributes_zero():
    """The entropy term's log is floored, so an exact zero score adds zero."""
    t = Tape()
    pi = t.leaf(np.array([[1.0, 0.0]]))
    out, ent, _ = t.routing_penalty(no_task(), [pi], [np.zeros(2)], 1.0, 1.0)
    assert ent == 0.0
    assert out.item() == 0.0


def test_weighted_colsum():
    """The balance term is K/n times the frequency-weighted column sums, and
    its gradient is the frequencies tiled over rows."""
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.array([10.0, 1.0])
    t = Tape()
    vm = t.leaf(m)
    out, _, lb = t.routing_penalty(no_task(), [vm], [w], 0.0, 1.0)
    assert lb == pytest.approx(46.0)
    assert out.item() == pytest.approx(46.0)
    t.backward(out)
    np.testing.assert_array_equal(vm.grad, np.tile(w, (2, 1)))


def test_routing_penalty_fd():
    pis = {f"pi{l}": RNG(39 + l).uniform(0.05, 1.0, size=(3, 4)) for l in range(2)}
    freqs = [np.array([0.5, 0.0, 1.0, 0.25]), np.array([1.0, 1.0, 0.0, 0.5])]

    def build():
        tape = Tape()
        vs = {name: tape.leaf(p) for name, p in pis.items()}
        return tape, tape.routing_penalty(no_task(), list(vs.values()), freqs, 0.7, 1.3)[0], vs

    run_check(build, pis)


def test_routing_penalty_rejects_mismatched_frequencies():
    t = Tape()
    pis = [t.leaf(np.full((3, 2), 0.5)), t.leaf(np.full((3, 2), 0.5))]
    for freqs in ([np.ones(2)], [np.ones(2), np.ones(3)]):
        with pytest.raises(ShapeError, match="routing_penalty"):
            t.routing_penalty(no_task(), pis, freqs, 1.0, 1.0)
    with pytest.raises(ShapeError, match="routing_penalty"):
        t.routing_penalty(no_task(), [pis[0], t.leaf(np.full((2, 2), 0.5))], [np.ones(2)] * 2,
                          1.0, 1.0)
    for shape in ((1, 2), (2, 1)):
        with pytest.raises(ShapeError, match=rf"routing_penalty: task \({shape[0]}, {shape[1]}\)"):
            t.routing_penalty(Const(np.zeros(shape)), pis, [np.ones(2)] * 2, 1.0, 1.0)


def _composed_penalty(pis, freqs, lam1, lam2):
    """Value, H, B and score gradients of the penalty composed term by term
    in plain numpy: the per-layer sums of p*log(p) added up and scaled by
    -1/(n*L); the per-layer weighted column sums each scaled by K/n and added
    up; then the lam1 and lam2 scalings and their sum. Each gradient is the
    tiled balance field first, then the entropy field."""
    n, n_layers = pis[0].shape[0], len(pis)
    logs = [np.log(np.maximum(p, LOG_EPS)) for p in pis]
    ent = (pis[0] * logs[0]).sum()
    for p, logc in zip(pis[1:], logs[1:]):
        ent = ent + (p * logc).sum()
    ent = ent * (-1.0 / (n * n_layers))
    lb = (pis[0].sum(axis=0) * freqs[0]).sum() * (pis[0].shape[1] / n)
    for p, f in zip(pis[1:], freqs[1:]):
        lb = lb + (p.sum(axis=0) * f).sum() * (p.shape[1] / n)
    grads = []
    for p, f, logc in zip(pis, freqs, logs):
        grad = np.tile(((1.0 * lam2) * (p.shape[1] / n)) * f, (n, 1))
        g_ent = (1.0 * lam1) * (-1.0 / (n * n_layers))
        grad += g_ent * (logc + np.where(p >= LOG_EPS, 1.0, 0.0))
        grads.append(grad)
    return ent * lam1 + lb * lam2, ent, lb, grads


@pytest.mark.parametrize("lam1", [0.0, 0.3])
def test_routing_penalty_matches_composed_terms(lam1):
    """The one-step penalty equals the term-by-term composition bit for bit,
    with an exact-zero score and a frequency of zero."""
    raw = [RNG(49 + l).uniform(0.05, 1.0, size=(7, 3)) for l in range(3)]
    raw[0][2, 1] = 0.0
    pis = [r / r.sum(axis=1, keepdims=True) for r in raw]
    freqs = [np.array([0.5, 0.0, 1.0]), np.array([1.0, 2 / 7, 0.75]), np.array([3 / 7, 1.0, 1.0])]
    t = Tape()
    vs = [t.leaf(p) for p in pis]
    out, ent, lb = t.routing_penalty(no_task(), vs, freqs, lam1, 0.02)
    t.backward(out)
    value, want_ent, want_lb, want_grads = _composed_penalty(pis, freqs, lam1, 0.02)
    np.testing.assert_array_equal(out.value, [[value]])
    np.testing.assert_array_equal([ent, lb], [want_ent, want_lb])
    for v, want in zip(vs, want_grads):
        np.testing.assert_array_equal(v.grad, want)


def test_routing_penalty_adds_penalty_to_task():
    """The objective is task + (lam1*H + lam2*B), the penalty summed first;
    the task takes the output gradient, and the scores take the same
    gradients as under a zero task."""
    raw = RNG(51).uniform(0.05, 1.0, size=(5, 3))
    pis = raw / raw.sum(axis=1, keepdims=True)
    freqs = [np.array([0.6, 0.2, 0.4])]
    t = Tape()
    task, pi = t.leaf([[0.7]]), t.leaf(pis)
    out, ent, lb = t.routing_penalty(task, [pi], freqs, 0.3, 0.02)
    assert out.item() == 0.7 + (ent * 0.3 + lb * 0.02)
    t.backward(out)
    np.testing.assert_array_equal(task.grad, [[1.0]])
    assert not np.shares_memory(task.grad, pi.grad)
    alone = Tape()
    pi_alone = alone.leaf(pis)
    alone.backward(alone.routing_penalty(no_task(), [pi_alone], freqs, 0.3, 0.02)[0])
    assert pi.grad.tobytes() == pi_alone.grad.tobytes()


def test_masked_nll_hand_case():
    # two scored rows with true-class probabilities 0.5 and 0.25
    probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
    labels = np.array([0, 0, 1])
    idx = np.array([0, 1])
    t = Tape()
    out = t.masked_nll(t.leaf(probs), labels, idx)
    assert out.item() == pytest.approx((np.log(2.0) + np.log(4.0)) / 2.0, abs=1e-12)


def test_masked_nll_empty_mask():
    t = Tape()
    with pytest.raises(ValueError):
        t.masked_nll(t.leaf(np.array([[1.0]])), np.array([0]), np.array([], dtype=int))


def test_masked_nll_through_softmax_fd():
    logits = RNG(40).uniform(-2, 2, size=(6, 4))
    labels = RNG(41).integers(0, 4, size=6)
    idx = np.array([0, 2, 3, 5])

    def build():
        t = Tape()
        v = t.leaf(logits)
        return t, t.masked_nll(t.softmax_rows(v), labels, idx), {"logits": v}

    run_check(build, {"logits": logits})


# ---- tape semantics ------------------------------------------------------


def test_backward_replay_bit_identical():
    t = Tape()
    x = t.leaf(RNG(5).normal(size=(5, 3)))
    w = t.leaf(RNG(6).normal(size=(3, 4)))
    h = t.relu(t.matmul(x, w))
    p = t.softmax_rows(t.relu(h))
    q = t.softmax_rows(h)            # h takes a second contribution through q
    task = t.masked_nll(p, np.array([0, 1, 2, 3, 0]), np.arange(5))
    out, _, _ = t.routing_penalty(task, [p, q], [np.full(4, 0.5)] * 2, 0.1, 1.0)
    t.backward(out)
    first = [v.grad.copy() for v in (x, w)]
    t.backward(out)
    for before, v in zip(first, (x, w)):
        assert before.tobytes() == v.grad.tobytes()
    assert h.grad is None and p.grad is None  # only leaves keep a gradient


def test_backward_releases_values_no_backward_reads():
    """Backward first releases every step output that no recorded step reads,
    except the seed: it reads as NaN of the same shape and cannot be written,
    while the values a backward reads stay, so a replay is bit-identical."""
    t = Tape()
    x = t.leaf(RNG(8).normal(size=(5, 3)))
    w1, w2 = t.leaf(RNG(9).normal(size=(3, 4))), t.leaf(RNG(10).normal(size=(4, 3)))
    pre = t.matmul(x, w1)            # relu keeps a mask: released
    h = t.relu(pre)                  # read by the next matmul: kept
    logits = t.matmul(h, w2)         # softmax keeps its output: released
    p = t.softmax_rows(logits)       # read by masked_nll: kept
    loss = t.masked_nll(p, np.array([0, 1, 2, 0, 1]), np.arange(5))
    kept = [v.value for v in (h, p, loss)]
    t.backward(loss)
    for v, shape in ((pre, (5, 4)), (logits, (5, 3))):
        assert v.shape == shape and np.isnan(v.value).all()
        with pytest.raises(ValueError, match="read-only"):
            v.value[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            v.value += 1.0
    assert all(v.value is value for v, value in zip((h, p, loss), kept))
    first = [v.grad.copy() for v in (x, w1, w2)]
    t.backward(loss)
    for before, v in zip(first, (x, w1, w2)):
        assert np.isfinite(before).all() and before.tobytes() == v.grad.tobytes()


def test_untouched_leaf_gets_exact_zero_grad():
    t = Tape()
    used = t.leaf(RNG(1).normal(size=(4, 3)))
    unused = t.leaf(np.ones((3, 3)))
    side_w = t.leaf(np.ones((3, 5)))
    side = t.relu(t.matmul(used, side_w))  # recorded, never reaches the seed
    out = weighted_colsum(t, used, np.array([1.0, -2.0, 0.5]))
    t.backward(out)
    assert np.all(unused.grad == 0.0)
    assert side_w.grad.shape == (3, 5)
    assert side_w.grad.dtype == np.float64
    assert np.all(side_w.grad == 0.0)
    assert side.grad is None
    np.testing.assert_array_equal(used.grad, np.tile([1.0, -2.0, 0.5], (4, 1)))


def test_pass_through_gradients_do_not_alias():
    """The two steps that hand an output gradient on: the objective gives it
    to the task uncopied, and ``mix_experts`` copies it for the residual,
    here a SAGE-style layer whose input h is both the residual and an expert
    input, so the experts' share accumulates into a buffer of its own."""
    t = Tape()
    a = t.leaf(RNG(2).normal(size=(3, 2)))
    b = t.leaf(RNG(3).normal(size=(3, 2)))
    eye = t.leaf(np.eye(2))
    three = t.leaf(3.0 * np.eye(2))
    bias = t.leaf(RNG(4).normal(size=(1, 2)))
    pi = t.leaf(np.ones((3, 1)))
    mixed = t.mix_experts([([(a, three), (b, eye)], bias)], pi, np.ones((3, 1), bool), a)
    task = weighted_colsum(t, mixed, np.array([1.0, 2.0]))
    out, _, _ = t.routing_penalty(task, [pi], [np.ones(1)], 0.0, 0.0)
    t.backward(out)
    grads = [a.grad, b.grad, eye.grad, three.grad, bias.grad, pi.grad]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    assert mixed.grad is None and task.grad is None
    np.testing.assert_array_equal(b.grad, np.tile([1.0, 2.0], (3, 1)))
    np.testing.assert_array_equal(a.grad, np.tile([4.0, 8.0], (3, 1)))
    np.testing.assert_array_equal(bias.grad, [[3.0, 6.0]])

    # Two experts read c, which is also the residual: had the residual kept
    # the output gradient itself, the first expert's write into c.grad would
    # change what the second reads.
    t = Tape()
    c = t.leaf(np.ones((2, 2)))
    experts = [([(c, t.leaf(np.eye(2)))], t.leaf(np.zeros((1, 2)))) for _ in range(2)]
    pi = t.leaf(np.full((2, 2), 0.5))
    mixed = t.mix_experts(experts, pi, np.ones((2, 2), bool), c)
    t.backward(weighted_colsum(t, mixed, np.array([1.0, 3.0])))
    grads = [c.grad, pi.grad] + [v.grad for terms, bias in experts for v in (terms[0][1], bias)]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    assert mixed.grad is None
    np.testing.assert_array_equal(c.grad, np.tile([2.0, 6.0], (2, 1)))


def test_seed_recorded_before_later_steps():
    t = Tape()
    x = t.leaf(RNG(7).normal(size=(4, 2)))
    first = weighted_colsum(t, x, np.array([1.0, 1.0]))
    later = weighted_colsum(t, t.matmul(x, Const(2.0 * np.eye(2))), np.array([3.0, 0.0]))
    t.backward(first)
    np.testing.assert_array_equal(x.grad, np.ones((4, 2)))
    assert later.grad is None
    t.backward(later)
    np.testing.assert_array_equal(x.grad, np.tile([6.0, 0.0], (4, 1)))
    assert first.grad is None


def test_backward_requires_scalar_seed():
    t = Tape()
    v = t.leaf(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        t.backward(v)


# ---- grad_check harness --------------------------------------------------


def _sum_of_squares(t, v):
    """w² of a (1,1) Var: a one-expert, all-selected mixture whose input and
    weight are both ``v``."""
    return t.mix_experts([([(v, v)], t.leaf(np.zeros((1, 1))))], t.leaf(np.ones((1, 1))),
                         np.ones((1, 1), dtype=bool), Const(np.zeros((1, 1))))


def test_grad_check_quadratic():
    w = np.array([[2.0]])

    def build():
        t = Tape()
        v = t.leaf(w)
        return t, _sum_of_squares(t, v), {"w": v}

    report = grad_check(build, {"w": w})
    assert report.max_rel_err < 1e-8
    # analytic gradient of w² is 2w
    t, out, lv = build()
    t.backward(out)
    np.testing.assert_allclose(lv["w"].grad, [[4.0]], atol=1e-12)


def test_grad_check_flags_nondeterminism():
    x = np.ones((3, 3))
    seeds = iter(range(10**6))

    def build():
        t = Tape()
        v = t.leaf(x)
        out = t.dropout(v, keep=0.5, rng=RNG(next(seeds)))  # re-seeded on every call
        return t, weighted_colsum(t, out, np.ones(3)), {"x": v}

    with pytest.raises(GradCheckError):
        grad_check(build, {"x": x})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_check_flags_non_finite():
    x = np.array([[1e308]])

    def build():
        t = Tape()
        v = t.leaf(x)
        return t, _sum_of_squares(t, v), {"x": v}  # overflows to inf

    with pytest.raises(GradCheckError):
        grad_check(build, {"x": x})


def test_grad_check_rejects_float32_leaves():
    x = np.ones((2, 2), dtype=np.float32)

    def build():
        t = Tape()
        v = t.leaf(x)
        return t, weighted_colsum(t, v, np.ones(2)), {"x": v}

    with pytest.raises(GradCheckError):
        grad_check(build, {"x": x})
