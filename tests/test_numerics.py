"""Tape primitives vs hand values and central finite differences."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from d2moe.numerics import (
    GradCheckError,
    ShapeError,
    Tape,
    grad_check,
    relu,
    sigmoid,
)

RNG = np.random.default_rng


def scalarize(tape, m, w):
    """Reduce a matrix Var to a scalar with fixed random weights so the
    finite-difference probe exercises the whole Jacobian, not just sums."""
    return tape.weighted_colsum(m, w) if m.shape[1] == w.shape[0] else None


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
    out = t.weighted_colsum(t.matmul(va, vb), np.ones(4))
    t.backward(out)
    np.testing.assert_allclose(va.grad, np.tile(b.sum(axis=1), (5, 1)), rtol=1e-12)


def test_matmul_fd():
    a = RNG(3).uniform(-2, 2, size=(5, 3))
    b = RNG(4).uniform(-2, 2, size=(3, 4))
    w = RNG(5).normal(size=4)

    def build():
        t = Tape()
        va, vb = t.leaf(a), t.leaf(b)
        return t, t.weighted_colsum(t.matmul(va, vb), w), {"a": va, "b": vb}

    run_check(build, {"a": a, "b": b})


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
    adj, adj_t, dense = _random_csr(10, seed=7)
    x = RNG(8).uniform(-2, 2, size=(10, 3))
    t = Tape()
    out = t.spmm(adj, adj_t, t.leaf(x))
    np.testing.assert_allclose(out.value, dense @ x, atol=1e-6)


def test_spmm_fd():
    adj, adj_t, _ = _random_csr(8, seed=9)
    x = RNG(10).uniform(-2, 2, size=(8, 3))
    w = RNG(11).normal(size=3)

    def build():
        t = Tape()
        vx = t.leaf(x)
        return t, t.weighted_colsum(t.spmm(adj, adj_t, vx), w), {"x": vx}

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
        return t, t.weighted_colsum(t.softmax_rows(vm), w), {"m": vm}

    run_check(build, {"m": m})


# ---- elementwise ---------------------------------------------------------


def test_pointwise_trivia():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    np.testing.assert_array_equal(relu(np.array([-3.0, 3.0])), [0.0, 3.0])


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
        return t, t.weighted_colsum(t.sigmoid(t.relu(vm)), w), {"m": vm}

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
        return t, t.weighted_colsum(out, w), {"x": vx}

    run_check(build, {"x": x})


def test_row_norm_unit_rows_and_fd():
    m = RNG(22).uniform(-2, 2, size=(4, 3)) + 0.1
    t = Tape()
    out = t.row_norm(t.leaf(m))
    np.testing.assert_allclose(np.linalg.norm(out.value, axis=1), 1.0, atol=1e-12)

    w = RNG(23).normal(size=3)

    def build():
        tape = Tape()
        vm = tape.leaf(m)
        return tape, tape.weighted_colsum(tape.row_norm(vm), w), {"m": vm}

    run_check(build, {"m": m})


def test_row_norm_zero_row_safe():
    t = Tape()
    out = t.row_norm(t.leaf(np.zeros((1, 3))))
    assert np.all(np.isfinite(out.value))


# ---- renorm_masked / mix -------------------------------------------------


def test_renorm_masked_values():
    pi = np.array([[0.5, 0.3, 0.2]])
    mask = np.array([[True, True, False]])
    t = Tape()
    out = t.renorm_masked(t.leaf(pi), mask)
    np.testing.assert_allclose(out.value, [[0.625, 0.375, 0.0]], atol=1e-12)


def test_renorm_masked_zero_mass_guarded():
    t = Tape()
    v = t.leaf(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        t.renorm_masked(v, np.array([[True, False]]))


def test_renorm_masked_fd():
    raw = RNG(24).uniform(0.05, 2, size=(5, 4))
    mask = RNG(25).random((5, 4)) < 0.6
    mask[:, 0] = True  # at least one selected per row
    w = RNG(26).normal(size=4)

    def build():
        t = Tape()
        v = t.leaf(raw)
        return t, t.weighted_colsum(t.renorm_masked(t.softmax_rows(v), mask), w), {"raw": v}

    run_check(build, {"raw": raw})


def test_mix_value_and_fd():
    parts = [RNG(s).uniform(-2, 2, size=(4, 3)) for s in (27, 28)]
    weights = RNG(29).uniform(0.1, 1, size=(4, 2))
    t = Tape()
    vs = [t.leaf(p) for p in parts]
    vw = t.leaf(weights)
    out = t.mix(vs, vw)
    manual = weights[:, :1] * parts[0] + weights[:, 1:] * parts[1]
    np.testing.assert_allclose(out.value, manual, atol=1e-14)

    w = RNG(30).normal(size=3)

    def build():
        tape = Tape()
        lvs = [tape.leaf(p) for p in parts]
        lw = tape.leaf(weights)
        return tape, tape.weighted_colsum(tape.mix(lvs, lw), w), {
            "p0": lvs[0], "p1": lvs[1], "w": lw,
        }

    run_check(build, {"p0": parts[0], "p1": parts[1], "w": weights})


# ---- batch norm ----------------------------------------------------------


def test_batchnorm_train_normalizes_columns():
    x = RNG(31).normal(3.0, 2.0, size=(50, 4))
    t = Tape()
    rm, rv = np.zeros(4, np.float32), np.ones(4, np.float32)
    out = t.batchnorm_train(t.leaf(x), t.leaf(np.ones((1, 4))), t.leaf(np.zeros((1, 4))),
                            rm, rv, update_running=False)
    np.testing.assert_allclose(out.value.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.value.var(axis=0), 1.0, atol=1e-4)


def test_batchnorm_running_stats_update():
    x = RNG(32).normal(1.0, 1.5, size=(100, 3))
    rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
    t = Tape()
    t.batchnorm_train(t.leaf(x), t.leaf(np.ones((1, 3))), t.leaf(np.zeros((1, 3))),
                      rm, rv, momentum=0.9, update_running=True)
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
        out = t.batchnorm_train(vx, vg, vb, np.zeros(3, np.float32), np.ones(3, np.float32),
                                update_running=False)
        return t, t.weighted_colsum(out, w), {"x": vx, "gamma": vg, "beta": vb}

    run_check(build, {"x": x, "gamma": gamma, "beta": beta})


def test_batchnorm_eval_fd_and_values():
    x = RNG(37).uniform(-2, 2, size=(5, 3))
    gamma = np.full((1, 3), 2.0)
    beta = np.full((1, 3), 0.5)
    rm = np.array([0.1, -0.2, 0.3], np.float32)
    rv = np.array([1.5, 0.8, 1.1], np.float32)
    t = Tape()
    out = t.batchnorm_eval(t.leaf(x), t.leaf(gamma), t.leaf(beta), rm, rv)
    expect = 2.0 * (x - rm.astype(np.float64)) / np.sqrt(rv.astype(np.float64) + 1e-5) + 0.5
    np.testing.assert_allclose(out.value, expect, atol=1e-12)

    w = RNG(38).normal(size=3)

    def build():
        tape = Tape()
        vx, vg, vb = tape.leaf(x), tape.leaf(gamma), tape.leaf(beta)
        o = tape.batchnorm_eval(vx, vg, vb, rm, rv)
        return tape, tape.weighted_colsum(o, w), {"x": vx, "gamma": vg, "beta": vb}

    run_check(build, {"x": x, "gamma": gamma, "beta": beta})


# ---- scalar reductions ---------------------------------------------------


def test_plogp_sum_value_and_fd():
    p = np.array([[0.5, 0.5]])
    t = Tape()
    out = t.plogp_sum(t.leaf(p))
    assert out.item() == pytest.approx(-np.log(2.0), abs=1e-15)

    m = RNG(39).uniform(0.05, 1.0, size=(3, 4))

    def build():
        tape = Tape()
        vm = tape.leaf(m)
        return tape, tape.plogp_sum(vm), {"m": vm}

    run_check(build, {"m": m})


def test_plogp_sum_exact_zero_contributes_zero():
    t = Tape()
    out = t.plogp_sum(t.leaf(np.array([[1.0, 0.0]])))
    assert out.item() == 0.0


def test_weighted_colsum():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.array([10.0, 1.0])
    t = Tape()
    vm = t.leaf(m)
    out = t.weighted_colsum(vm, w)
    assert out.item() == pytest.approx(46.0)
    t.backward(out)
    np.testing.assert_array_equal(vm.grad, np.tile(w, (2, 1)))


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
    p = t.softmax_rows(t.add(h, t.scale(h, 0.5)))
    out = t.add(t.masked_nll(p, np.array([0, 1, 2, 3, 0]), np.arange(5)), t.plogp_sum(p))
    t.backward(out)
    first = [v.grad.copy() for v in (x, w, h, p)]
    t.backward(out)
    for before, v in zip(first, (x, w, h, p)):
        assert before.tobytes() == v.grad.tobytes()


def test_untouched_leaf_gets_exact_zero_grad():
    t = Tape()
    used = t.leaf(RNG(1).normal(size=(4, 3)))
    unused = t.leaf(np.ones((3, 3)))
    side = t.relu(t.matmul(used, t.leaf(np.ones((3, 5)))))  # recorded, never reaches the seed
    out = t.weighted_colsum(used, np.array([1.0, -2.0, 0.5]))
    t.backward(out)
    assert np.all(unused.grad == 0.0)
    assert side.grad.shape == (4, 5)
    assert side.grad.dtype == np.float64
    assert np.all(side.grad == 0.0)
    np.testing.assert_array_equal(used.grad, np.tile([1.0, -2.0, 0.5], (4, 1)))


def test_pass_through_gradients_do_not_alias():
    t = Tape()
    a = t.leaf(RNG(2).normal(size=(3, 2)))
    b = t.leaf(RNG(3).normal(size=(3, 2)))
    bias = t.leaf(RNG(4).normal(size=(1, 2)))
    s = t.add(a, b)
    out = t.weighted_colsum(t.add(t.add_bias(s, bias), t.scale(a, 3.0)), np.array([1.0, 2.0]))
    t.backward(out)
    grads = [a.grad, b.grad, s.grad]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    np.testing.assert_array_equal(b.grad, np.tile([1.0, 2.0], (3, 1)))
    np.testing.assert_array_equal(a.grad, np.tile([4.0, 8.0], (3, 1)))

    t = Tape()
    c = t.leaf(np.ones((2, 2)))
    doubled = t.add(c, c)
    t.backward(t.weighted_colsum(doubled, np.array([1.0, 3.0])))
    np.testing.assert_array_equal(doubled.grad, np.tile([1.0, 3.0], (2, 1)))
    np.testing.assert_array_equal(c.grad, np.tile([2.0, 6.0], (2, 1)))


def test_seed_recorded_before_later_steps():
    t = Tape()
    x = t.leaf(RNG(7).normal(size=(4, 2)))
    first = t.weighted_colsum(x, np.array([1.0, 1.0]))
    later = t.weighted_colsum(t.scale(x, 2.0), np.array([3.0, 0.0]))
    t.backward(first)
    np.testing.assert_array_equal(x.grad, np.ones((4, 2)))
    assert later.grad.shape == (1, 1) and later.grad[0, 0] == 0.0
    t.backward(later)
    np.testing.assert_array_equal(x.grad, np.tile([6.0, 0.0], (4, 1)))
    assert first.grad[0, 0] == 0.0


def test_backward_requires_scalar_seed():
    t = Tape()
    v = t.leaf(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        t.backward(v)


# ---- grad_check harness --------------------------------------------------


def test_grad_check_quadratic():
    w = np.array([[1.0, 2.0]])

    def build():
        t = Tape()
        v = t.leaf(w)
        return t, t.matmul(v, t.transpose(v)), {"w": v}

    report = grad_check(build, {"w": w})
    assert report.max_rel_err < 1e-8
    # analytic gradient of w.w is 2w
    t, out, lv = build()
    t.backward(out)
    np.testing.assert_allclose(lv["w"].grad, [[2.0, 4.0]], atol=1e-12)


def test_grad_check_flags_nondeterminism():
    x = np.ones((3, 3))
    seeds = iter(range(10**6))

    def build():
        t = Tape()
        v = t.leaf(x)
        out = t.dropout(v, keep=0.5, rng=RNG(next(seeds)))  # re-seeded on every call
        return t, t.weighted_colsum(out, np.ones(3)), {"x": v}

    with pytest.raises(GradCheckError):
        grad_check(build, {"x": x})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_check_flags_non_finite():
    x = np.array([[1e308]])

    def build():
        t = Tape()
        v = t.leaf(x)
        return t, t.matmul(v, t.transpose(v)), {"x": v}  # overflows to inf

    with pytest.raises(GradCheckError):
        grad_check(build, {"x": x})


def test_grad_check_rejects_float32_leaves():
    x = np.ones((2, 2), dtype=np.float32)

    def build():
        t = Tape()
        v = t.leaf(x)
        return t, t.weighted_colsum(v, np.ones(2)), {"x": v}

    with pytest.raises(GradCheckError):
        grad_check(build, {"x": x})
