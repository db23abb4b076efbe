import itertools
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evadapt import autodiff
from evadapt.autodiff import (_GELU_C, NonFiniteError, Tensor, _gelu, affine,
                              attention, grad_check, layernorm, matmul, mlp,
                              weighted_l1, where_rows)
from test_oracles import dot


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def stack_qkv(q, k, v):
    """(heads, tokens, dh) query, key and value blocks as the (tokens, 3c)
    rows attention() reads: column j*c + h*dh + d is part j, head h."""
    merge = lambda a: a.transpose(1, 0, 2).reshape(a.shape[1], -1)
    return np.concatenate([merge(q), merge(k), merge(v)], axis=1)


def old_attention_chain(qkv, nh, g=None):
    """The separate-node attention this package used before the fused
    node, in plain numpy: reshape/transpose/index nodes, matmul, a scale
    node, softmax_rows, matmul, transpose/reshape. Returns the output,
    the head-averaged map and the qkv gradient for upstream g (None
    without g)."""
    k, c = qkv.shape[0], qkv.shape[1] // 3
    dh = c // nh
    scale = 1.0 / np.sqrt(dh)
    qkv4 = qkv.reshape(k, 3, nh, dh).transpose((1, 2, 0, 3))
    q, kk, v = qkv4[0], qkv4[1], qkv4[2]
    kt = kk.transpose((0, 2, 1))
    logits = (q @ kt) * scale
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = (p @ v).transpose((1, 0, 2)).reshape(k, c)
    if g is None:
        return out, p.mean(axis=0), None
    go = g.reshape(k, nh, dh).transpose((1, 0, 2))
    gp = go @ np.swapaxes(v, -1, -2)
    gv = np.swapaxes(p, -1, -2) @ go
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gl = gs * scale
    gq = gl @ np.swapaxes(kt, -1, -2)
    gk = (np.swapaxes(q, -1, -2) @ gl).transpose((0, 2, 1))
    parts = []
    for i, gi in enumerate((gq, gk, gv)):
        full = np.zeros_like(qkv4)
        full[i] = gi
        parts.append(full)
    total = parts[0] + parts[1] + parts[2]
    return out, p.mean(axis=0), total.transpose((2, 0, 1, 3)).reshape(k, 3 * c)


def gelu_chain(x, g):
    """GELU's value and its gradient for upstream g, out of place."""
    x2 = x * x
    th = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
    du = _GELU_C * (1.0 + 3 * 0.044715 * x2)
    d = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th ** 2) * du
    return 0.5 * x * (1.0 + th), g * d


def gelu_node(x):
    """The separate GELU node the fused mlp node replaced, out of place."""
    return Tensor._from_op(gelu_chain(x.data, 1.0)[0], (x,),
                           lambda g: (gelu_chain(x.data, g)[1],))


def mlp_chain(x, w1, b1, w2, b2):
    """affine -> GELU -> affine as three nodes."""
    return affine(gelu_node(affine(x, w1, b1)), w2, b2)


def gelu_of(x):
    """(GELU of x, its derivative) from the tiled helper, on a copy."""
    out, d = np.array(x, order="C"), np.empty(x.shape)
    _gelu(out, d)
    return out, d


def traced_peak(f):
    """Peak bytes numpy and Python allocate while f() runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAffine:
    def test_bitwise_equal_to_matmul_plus_bias(self):
        rng = np.random.default_rng(12)
        x, w, b, g = (rng.standard_normal(s)
                      for s in ((5, 7), (7, 3), (3,), (5, 3)))
        ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = affine(*ts)
        assert out.data.tobytes() == (x @ w + b).tobytes()
        dot(out, g).backward()
        want = (g @ np.swapaxes(w, -1, -2), np.swapaxes(x, -1, -2) @ g,
                g.sum(axis=0))
        for t, wg in zip(ts, want):
            assert t.grad.tobytes() == wg.tobytes()

    @pytest.mark.parametrize("trained", ["x", "w", "b", "xw", "xb", "wb",
                                         "xwb"])
    def test_gradient(self, trained):
        rng = np.random.default_rng(13)
        ts = {n: Tensor(rng.standard_normal(s), requires_grad=n in trained)
              for n, s in (("x", (4, 3)), ("w", (3, 5)), ("b", (5,)))}
        u = rng.standard_normal((4, 5))
        f = lambda: dot(affine(ts["x"], ts["w"], ts["b"]), u)
        assert grad_check(f, [t for n, t in ts.items() if n in trained]) <= 1e-6
        for n, t in ts.items():
            assert (t.grad is None) == (n not in trained)

    def test_frozen_operands_get_no_gradient_work(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        out = affine(x, Tensor(np.ones((3, 4))), Tensor(np.zeros(4)))
        gx, gw, gb = out._backward(np.ones((2, 4)))
        assert gx is not None and gw is None and gb is None

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 5), (5,)),
                                        ((2, 3), (3, 5), (4,)),
                                        ((3,), (3, 5), (5,))])
    def test_shape_mismatch(self, shapes):
        with pytest.raises(ValueError, match="affine shape mismatch"):
            affine(*(Tensor(np.ones(s)) for s in shapes))


class TestWeightedL1:
    def case(self, rng, trained=(True, True)):
        targets = [rng.standard_normal((4, 3)), rng.standard_normal((5, 2))]
        xs = [Tensor(rng.standard_normal(t.shape), requires_grad=r)
              for t, r in zip(targets, trained)]
        return targets, xs, [None, rng.random(5) + 0.5], [0.7, 1.3]

    def test_gradient(self):
        rng = np.random.default_rng(30)
        targets, xs, weights, gammas = self.case(rng)
        f = lambda: weighted_l1(targets, xs, weights, gammas)[0]
        assert grad_check(f, xs) <= 1e-6

    def test_value_and_terms(self):
        rng = np.random.default_rng(31)
        targets, xs, weights, gammas = self.case(rng)
        total, terms = weighted_l1(targets, xs, weights, gammas)
        want = [np.abs(targets[0] - xs[0].data).mean(),
                (np.abs(targets[1] - xs[1].data) * weights[1][:, None]).mean()]
        assert terms == pytest.approx(want, rel=1e-14)
        assert total.item() == pytest.approx(
            gammas[0] * want[0] + gammas[1] * want[1], rel=1e-14)

    def test_stacked_samples_sum_their_means(self):
        rng = np.random.default_rng(34)
        targets = [rng.standard_normal((6, 2))]
        x = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        w = rng.random(6) + 0.5
        total, terms = weighted_l1(targets, [x], [w], [0.7], samples=3)
        want = sum((np.abs(targets[0] - x.data) * w[:, None])[r:r + 2].mean()
                   for r in (0, 2, 4))
        assert terms == pytest.approx([want], rel=1e-14)
        assert total.item() == pytest.approx(0.7 * want, rel=1e-14)
        f = lambda: weighted_l1(targets, [x], [w], [0.7], samples=3)[0]
        assert grad_check(f, [x]) <= 1e-6
        with pytest.raises(ValueError, match="cannot split 6 rows"):
            weighted_l1(targets, [x], [w], [0.7], samples=4)

    def test_frozen_input_gets_no_gradient_work(self):
        rng = np.random.default_rng(32)
        targets, xs, weights, gammas = self.case(rng, trained=(False, True))
        total, _ = weighted_l1(targets, xs, weights, gammas)
        g0, g1 = total._backward(np.ones(()))
        assert g0 is None and g1.shape == (5, 2)

    @pytest.mark.parametrize("bad, match", [
        (lambda t, x, w, g: ([t[0]], x, w, g), "one target"),
        (lambda t, x, w, g: ([], [], [], []), "needs inputs"),
        (lambda t, x, w, g: (t[::-1], x, w, g), "shape mismatch"),
        (lambda t, x, w, g: (t, x, [None, np.ones(4)], g), "weight length")])
    def test_bad_inputs_rejected(self, bad, match):
        rng = np.random.default_rng(33)
        with pytest.raises(ValueError, match=match):
            weighted_l1(*bad(*self.case(rng)))


class TestWhereRows:
    def case(self, rng, trained=(True, True)):
        mask = rng.random(6) < 0.5
        a, b = (Tensor(rng.standard_normal((6, 3)), requires_grad=r)
                for r in trained)
        return mask, a, b

    def test_bitwise_equal_to_np_where(self):
        mask, a, b = self.case(np.random.default_rng(40))
        out = where_rows(mask, a, b)
        assert out.data.tobytes() == \
            np.where(mask[:, None], a.data, b.data).tobytes()

    def test_each_row_gradient_goes_to_its_source_only(self):
        rng = np.random.default_rng(41)
        mask, a, b = self.case(rng)
        g = rng.standard_normal((6, 3))
        dot(where_rows(mask, a, b), g).backward()
        assert np.array_equal(a.grad[mask], g[mask])
        assert np.array_equal(b.grad[~mask], g[~mask])
        assert not a.grad[~mask].any() and not b.grad[mask].any()

    @pytest.mark.parametrize("trained", [(True, False), (False, True)])
    def test_frozen_operand_gets_no_gradient_work(self, trained):
        mask, a, b = self.case(np.random.default_rng(42), trained)
        grads = where_rows(mask, a, b)._backward(np.ones((6, 3)))
        assert [g is None for g in grads] == [not r for r in trained]


class TestAttention:
    # dh = 3: the 1/sqrt(dh) scale is not a power of two
    K, NH, DH = 5, 2, 3

    def test_bitwise_equal_to_old_chain(self):
        rng = np.random.default_rng(15)
        qkv = rng.standard_normal((self.K, 3 * self.NH * self.DH))
        g = rng.standard_normal((self.K, self.NH * self.DH))
        t = Tensor(qkv, requires_grad=True)
        out, head_avg = attention(t, self.NH)
        want_out, want_avg, want_grad = old_attention_chain(qkv, self.NH, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert head_avg.tobytes() == want_avg.tobytes()
        dot(out, g).backward()
        assert t.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("trained", ["x", "w", "b", "xwb"])
    def test_gradient(self, trained):
        # qkv comes out of an affine map, so each of its operands is
        # checked trained and frozen, as in a block
        rng = np.random.default_rng(16)
        c = self.NH * self.DH
        ts = {n: Tensor(rng.standard_normal(s) * 0.5,
                        requires_grad=n in trained)
              for n, s in (("x", (self.K, 4)), ("w", (4, 3 * c)),
                           ("b", (3 * c,)))}
        u = rng.standard_normal((self.K, c))

        def f():
            out, _ = attention(affine(ts["x"], ts["w"], ts["b"]), self.NH)
            return dot(out, u)

        assert grad_check(f, [t for n, t in ts.items() if n in trained]) <= 1e-6

    def test_gradient_with_sample_axis(self):
        rng = np.random.default_rng(26)
        c = self.NH * self.DH
        qkv = Tensor(rng.standard_normal((3 * self.K, 3 * c)) * 0.5,
                     requires_grad=True)
        u = rng.standard_normal((3 * self.K, c))

        def f():
            out, _ = attention(qkv, self.NH, samples=3)
            return dot(out, u)

        assert grad_check(f, [qkv]) <= 1e-6

    def test_rows_must_split_into_samples(self):
        with pytest.raises(ValueError, match="cannot split"):
            attention(Tensor(np.ones((10, 6))), 1, samples=3)

    def test_frozen_qkv_builds_no_node(self):
        out, _ = attention(Tensor(np.ones((3, 6))), 1)
        assert not out.requires_grad and out._backward is None

    def test_qkv_gradient_layout(self):
        # q, k and v each send their gradient back to their own columns
        rng = np.random.default_rng(17)
        c = self.NH * self.DH
        qkv = Tensor(rng.standard_normal((self.K, 3 * c)), requires_grad=True)
        out, _ = attention(qkv, self.NH)
        dot(out, 1.0).backward()
        g = qkv.grad
        # the output is linear in v with row-stochastic weights, so the
        # gradient of its sum is each token's column sum of P, per head
        q, k, _ = qkv.data.reshape(self.K, 3, self.NH, self.DH) \
            .transpose(1, 2, 0, 3)
        s = q @ k.transpose(0, 2, 1) / np.sqrt(self.DH)
        p = np.exp(s - s.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        want_v = np.repeat(p.sum(axis=1).T, self.DH, axis=1)
        assert np.allclose(g[:, 2 * c:], want_v, rtol=1e-12, atol=1e-12)
        # sum(O) does not depend on q or k when every v row is constant
        v_const = qkv.data.copy()
        v_const[:, 2 * c:] = 1.0
        flat = Tensor(v_const, requires_grad=True)
        dot(attention(flat, self.NH)[0], 1.0).backward()
        assert np.allclose(flat.grad[:, :2 * c], 0.0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_logits_rejected(self):
        qkv = stack_qkv(np.full((1, 2, 1), 1e200), np.full((1, 2, 1), 1e200),
                        np.ones((1, 2, 1)))
        with pytest.raises(NonFiniteError, match="softmax input"):
            attention(Tensor(qkv), 1)

    @pytest.mark.parametrize("shape, heads", [((4, 8), 1), ((4, 6), 4),
                                              ((12,), 1)])
    def test_bad_split_rejected(self, shape, heads):
        with pytest.raises(ValueError, match="cannot split"):
            attention(Tensor(np.ones(shape)), heads)


class TestMatmul:
    def test_identity(self):
        m = np.array([[2.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(matmul(Tensor(np.eye(2)), Tensor(m)).data, m)

    def test_hand_example(self):
        m = Tensor([[1.0, 1.0], [0.0, 0.0]])
        out = matmul(m, m).data
        assert np.array_equal(out, naive_matmul(m.data, m.data))
        assert np.array_equal(out, [[1.0, 1.0], [0.0, 0.0]])

    def test_gradient_of_sum_is_ones_bt(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.random((3, 4)), requires_grad=True)
        b = Tensor(rng.random((4, 2)), requires_grad=True)
        dot(matmul(a, b), 1.0).backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("a, b", [((2, 3), (3,)), ((3,), (3, 2)),
                                      ((), (2, 2))])
    def test_one_dimensional_operand_rejected(self, a, b):
        # a 1-d right operand used to end in an IndexError from this check
        with pytest.raises(ValueError, match=re.escape(f"{a} x {b}")):
            matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            got = matmul(Tensor(a), Tensor(b)).data
            want = naive_matmul(a, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1, np.abs(want).max())


    @pytest.mark.parametrize("frozen", ["left", "right"])
    def test_frozen_operand_gets_no_gradient(self, frozen):
        rng = np.random.default_rng(5)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=frozen == "right")
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=frozen == "left")
        w = rng.standard_normal((3, 2))
        out = matmul(a, b)
        # the frozen side's gradient GEMM is skipped, not computed and dropped
        grads = out._backward(w)
        assert (grads[0] is None) == (frozen == "left")
        assert (grads[1] is None) == (frozen == "right")
        dot(out, w).backward()
        trained, fixed = (b, a) if frozen == "left" else (a, b)
        assert fixed.grad is None
        assert grad_check(lambda: dot(matmul(a, b), w), [trained]) <= 1e-8

    def test_batched_operand_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))))


class TestGelu:
    """The tiled GELU pass of the mlp node, on its own."""

    def test_close_to_pow_formula(self):
        x = np.concatenate([np.random.default_rng(6).uniform(-10, 10, 20000),
                            [0.0, -0.0, 1e-300, -3.0, 1e3, -1e3]])
        got = gelu_of(x)[0]
        want = 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x ** 3)))
        err = np.abs(got - want)
        # in the negative tail 1 + tanh cancels, so the output's own ulp is
        # meaningless there; |x| bounds the output and sets the scale
        assert np.all(err <= 4 * np.spacing(np.abs(x)))
        pos = x >= 0
        assert np.all(err[pos] <= 4 * np.spacing(np.abs(want[pos])))

    def test_bitwise_equal_to_out_of_place_chain(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.uniform(-10, 10, 500), [0.0, -0.0, -3.0]])
        g = rng.standard_normal(x.shape)
        want, want_grad = gelu_chain(x, g)
        out, d = gelu_of(x)
        assert out.tobytes() == want.tobytes()
        assert (g * d).tobytes() == want_grad.tobytes()
        _gelu(x)                        # without the derivative
        assert x.tobytes() == want.tobytes()

    def test_gradient(self):
        # the derivative against central differences of the value
        x = np.random.default_rng(7).uniform(-4, 4, (3, 5))
        step = 1e-6
        num = (gelu_of(x + step)[0] - gelu_of(x - step)[0]) / (2 * step)
        assert np.abs(gelu_of(x)[1] - num).max() <= 1e-8


def mlp_inputs(rng, n, c_in, hidden, c_out):
    return [rng.uniform(-2, 2, s) for s in
            ((n, c_in), (c_in, hidden), (hidden,), (hidden, c_out), (c_out,))]


class TestMlp:
    NAMES = ("x", "w1", "b1", "w2", "b2")

    @staticmethod
    def run(node, arrays, trained, g):
        """node's output and each trained input's gradient for upstream g."""
        ts = [Tensor(a, requires_grad=t) for a, t in zip(arrays, trained)]
        out = node(*ts)
        assert out.requires_grad == any(trained)
        if any(trained):
            dot(out, g).backward()
        return out.data, [t.grad for t in ts]

    def assert_bitwise_chain(self, arrays, trained, seed):
        g = np.random.default_rng(seed).standard_normal(
            (arrays[0].shape[0], arrays[3].shape[1]))
        got, got_grads = self.run(mlp, arrays, trained, g)
        want, want_grads = self.run(mlp_chain, arrays, trained, g)
        assert got.tobytes() == want.tobytes()
        for name, t, a, b in zip(self.NAMES, trained, got_grads, want_grads):
            assert (a is None) == (b is None) == (not t), name
            assert a is None or a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("trained", list(itertools.product(
        (False, True), repeat=5)), ids=lambda t: "".join(
            "T" if x else "f" for x in t))
    def test_bitwise_equal_to_three_nodes(self, monkeypatch, trained):
        # TILE 7 splits the (5, 11) hidden layer into 8 tiles
        monkeypatch.setattr(autodiff, "TILE", 7)
        arrays = mlp_inputs(np.random.default_rng(30), 5, 3, 11, 4)
        self.assert_bitwise_chain(arrays, trained, 31)

    @pytest.mark.parametrize("trained", [(True,) * 5, (True, False, False,
                                                       False, False),
                                         (False,) * 5])
    def test_bitwise_equal_across_real_tiles(self, trained):
        # a (70, 1000) hidden layer is 70 000 elements: two TILE tiles
        arrays = mlp_inputs(np.random.default_rng(32), 70, 6, 1000, 5)
        assert arrays[0].shape[0] * arrays[1].shape[1] > autodiff.TILE
        self.assert_bitwise_chain(arrays, trained, 33)

    def test_non_leaf_weights_bitwise_equal_to_three_nodes(self):
        # LoRA-style maps: a frozen base plus (B A)ᵀ, so w1 and w2 are
        # nodes whose gradients reach the factors
        rng = np.random.default_rng(34)
        x, w1, b1, w2, b2 = mlp_inputs(rng, 6, 4, 9, 3)
        factors = [rng.standard_normal(s) for s in ((9, 2), (2, 4),
                                                    (3, 2), (2, 9))]
        g = rng.standard_normal((6, 3))
        results = []
        for node in (mlp, mlp_chain):
            fs = [Tensor(f, requires_grad=True) for f in factors]
            xt = Tensor(x, requires_grad=True)
            out = node(xt, Tensor(w1) + matmul(fs[0], fs[1]).T, Tensor(b1),
                       Tensor(w2) + matmul(fs[2], fs[3]).T, Tensor(b2))
            dot(out, g).backward()
            results.append([out.data, xt.grad] + [f.grad for f in fs])
        for a, b in zip(*results):
            assert a.tobytes() == b.tobytes()

    def test_gradient(self):
        rng = np.random.default_rng(35)
        ts = [Tensor(a, requires_grad=True)
              for a in mlp_inputs(rng, 4, 3, 6, 2)]
        u = rng.standard_normal((4, 2))
        assert grad_check(lambda: dot(mlp(*ts), u), ts) <= 1e-8

    @pytest.mark.parametrize("shapes", [
        ((4, 3), (2, 6), (6,), (6, 2), (2,)),     # x against w1
        ((4, 3), (3, 6), (5,), (6, 2), (2,)),     # b1
        ((4, 3), (3, 6), (6,), (5, 2), (2,)),     # w2 against w1
        ((4, 3), (3, 6), (6,), (6, 2), (3,)),     # b2
        ((4, 3), (3, 6), (1, 6), (6, 2), (2,)),   # a 2-d b1
        ((2, 4, 3), (3, 6), (6,), (6, 2), (2,)),  # a batched x
        ((4, 3), (3, 6), (6,), (6,), ()),         # a 1-d w2
    ], ids=["x-w1", "b1", "w2-w1", "b2", "b1-2d", "x-3d", "w2-1d"])
    def test_shape_mismatch_rejected(self, shapes):
        with pytest.raises(ValueError, match="mlp shape mismatch"):
            mlp(*(Tensor(np.ones(s)) for s in shapes))


class TestTiling:
    """attention and mlp's GELU run their forward on tiles of autodiff.TILE
    elements. A small TILE makes tiny inputs span several head groups and
    row tiles; the results must be those of the untiled chains, bit for
    bit."""

    # k = 5, 5 heads: TILE 60 gives groups of 2, 2 and 1 heads, one tile
    # each; TILE 12 gives one head per group in row tiles of 2, 2 and 1
    K, NH, DH = 5, 5, 3

    @staticmethod
    def count_tiles(monkeypatch):
        calls = []

        def counted(a, what="value"):
            if what == "softmax input":
                calls.append(a.shape)
            check_finite(a, what)

        check_finite = autodiff.check_finite
        monkeypatch.setattr(autodiff, "check_finite", counted)
        return calls

    @pytest.mark.parametrize("tile, tiles", [(1, 25), (12, 15), (60, 3),
                                             (1 << 16, 1)])
    @pytest.mark.parametrize("trained", [True, False])
    def test_attention_bitwise_equal_to_untiled(self, monkeypatch, tile,
                                                tiles, trained):
        monkeypatch.setattr(autodiff, "TILE", tile)
        calls = self.count_tiles(monkeypatch)
        rng = np.random.default_rng(19)
        qkv = rng.standard_normal((self.K, 3 * self.NH * self.DH))
        g = rng.standard_normal((self.K, self.NH * self.DH))
        t = Tensor(qkv, requires_grad=trained)
        out, head_avg = attention(t, self.NH)
        assert len(calls) == tiles
        want_out, want_avg, want_grad = old_attention_chain(qkv, self.NH, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert head_avg.tobytes() == want_avg.tobytes()
        if trained:
            dot(out, g).backward()
            assert t.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("tile", [12, 60, 1 << 16])
    @pytest.mark.parametrize("trained", [True, False])
    def test_sample_axis_bitwise_equal_to_per_sample_calls(
            self, monkeypatch, tile, trained):
        monkeypatch.setattr(autodiff, "TILE", tile)
        rng = np.random.default_rng(27)
        m, c = 3, self.NH * self.DH
        qkv = rng.standard_normal((m * self.K, 3 * c))
        g = rng.standard_normal((m * self.K, c))
        t = Tensor(qkv, requires_grad=trained)
        out, maps = attention(t, self.NH, samples=m)
        assert maps.shape == (m, self.K, self.K)
        grads = []
        for s in range(m):
            rows = slice(s * self.K, (s + 1) * self.K)
            one = Tensor(qkv[rows], requires_grad=trained)
            o, a = attention(one, self.NH)
            assert out.data[rows].tobytes() == o.data.tobytes()
            assert maps[s].tobytes() == a.tobytes()
            if trained:
                dot(o, g[rows]).backward()
                grads.append(one.grad)
        if trained:
            dot(out, g).backward()
            assert t.grad.tobytes() == np.concatenate(grads).tobytes()

    @pytest.mark.parametrize("shape", [(23,), (4, 9), (2, 3, 5)])
    @pytest.mark.parametrize("tile", [1, 7, 1 << 16])
    def test_gelu_bitwise_equal_to_untiled(self, monkeypatch, shape, tile):
        monkeypatch.setattr(autodiff, "TILE", tile)
        rng = np.random.default_rng(20)
        x = rng.uniform(-6, 6, shape)
        g = rng.standard_normal(shape)
        want, want_grad = gelu_chain(x, g)
        out, d = gelu_of(x)
        assert out.tobytes() == want.tobytes()
        assert (g * d).tobytes() == want_grad.tobytes()
        _gelu(x)                        # without the derivative
        assert x.tobytes() == want.tobytes()

    def test_gelu_of_a_strided_view(self, monkeypatch):
        # an mlp node over transposed rows: GELU runs in place on the
        # node's own C-contiguous hidden layer, never on a strided view
        monkeypatch.setattr(autodiff, "TILE", 7)
        arrays = mlp_inputs(np.random.default_rng(21), 6, 4, 5, 3)
        arrays[0] = np.ascontiguousarray(arrays[0].T).T
        assert not arrays[0].flags.c_contiguous
        TestMlp().assert_bitwise_chain(arrays, (True,) * 5, 21)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_logit_in_last_tile_rejected(self, monkeypatch):
        monkeypatch.setattr(autodiff, "TILE", 12)
        calls = self.count_tiles(monkeypatch)
        rng = np.random.default_rng(22)
        q, kk, v = rng.standard_normal((3, self.NH, self.K, self.DH))
        q[-1, -1], kk[-1, -1] = 1e200, 1e200   # last head, last query row
        qkv = Tensor(stack_qkv(q, kk, v))
        with pytest.raises(NonFiniteError, match="softmax input"):
            attention(qkv, self.NH)
        assert len(calls) == 15              # every tile before it passed


class TestTilingMemory:
    def test_frozen_attention_never_holds_every_heads_logits(self):
        k, nh, dh = 512, 8, 8
        qkv = Tensor(np.random.default_rng(23).standard_normal(
            (k, 3 * nh * dh)))
        peak = traced_peak(lambda: attention(qkv, nh))
        assert peak < nh * k * k * 8

    def test_trained_attention_keeps_every_heads_probabilities(self):
        k, nh, dh = 512, 8, 8
        qkv = Tensor(np.random.default_rng(23).standard_normal(
            (k, 3 * nh * dh)), requires_grad=True)
        assert traced_peak(lambda: attention(qkv, nh)) >= nh * k * k * 8

    # (512, 1024) hidden layers, 4 MiB each, against (512, 32) ends
    N, C, HIDDEN = 512, 32, 1024

    def held_hidden_arrays(self, trained):
        """The (n, hidden) arrays an mlp node holds once it has returned,
        counted from the bytes still allocated beside its output."""
        arrays = mlp_inputs(np.random.default_rng(24), self.N, self.C,
                            self.HIDDEN, self.C)
        ts = [Tensor(a, requires_grad=t) for a, t in zip(arrays, trained)]
        out = []
        tracemalloc.start()
        try:
            out.append(mlp(*ts))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        hidden = self.N * self.HIDDEN * 8
        held -= out[0].data.nbytes
        count = round(held / hidden)
        assert abs(held - count * hidden) < hidden // 8
        return count, peak / hidden

    def test_frozen_gelu_keeps_no_full_size_temporaries(self):
        # the hidden layer is GELU's input and output, and its x² and th
        # are tiles: at the peak one hidden layer and its scratch exist
        count, peak = self.held_hidden_arrays((False,) * 5)
        assert count == 0
        assert peak < 1.75

    @pytest.mark.parametrize("trained, kept", [
        ("x", 1), ("w1", 1), ("b1", 1), ("w2", 1), ("b2", 0),
        ("x w2", 2), ("x b2", 1), ("x w1 b1 w2 b2", 2)])
    def test_trained_mlp_keeps_only_what_backward_reads(self, trained, kept):
        # GELU's derivative when the gradient passes through it, GELU's
        # output when w2 trains
        count, _ = self.held_hidden_arrays(
            [n in trained.split() for n in TestMlp.NAMES])
        assert count == kept


def test_vitb_block_shape_bitwise_equal_to_untiled():
    # the frozen teacher's shape: 1024 tokens, width 768, 12 heads, and
    # the real TILE, so each head runs alone in 16 row tiles of 64 rows
    qkv = np.random.default_rng(25).standard_normal((1024, 3 * 768)) * 0.5
    want_out, want_avg, _ = old_attention_chain(qkv, 12)
    out, head_avg = attention(Tensor(qkv), 12)
    assert out.data.tobytes() == want_out.tobytes()
    assert head_avg.tobytes() == want_avg.tobytes()


def attention_map(logits_q, logits_k):
    """The head-averaged map of one-head, dh = 1 attention (scale 1), so
    row i is softmax(q_i * k)."""
    q = np.asarray(logits_q, dtype=float).reshape(1, -1, 1)
    k = np.asarray(logits_k, dtype=float).reshape(1, -1, 1)
    return attention(Tensor(stack_qkv(q, k, np.ones_like(k))), 1)[1]


class TestSoftmax:
    """The row softmax inside attention()."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_out_of_place(self, seed):
        rng = np.random.default_rng(seed)
        k, nh, dh = (int(n) for n in rng.integers(1, 4, 3))
        qkv = rng.standard_normal((k, 3 * nh * dh))
        q, kk, _ = qkv.reshape(k, 3, nh, dh).transpose(1, 2, 0, 3)
        x = (q @ kk.transpose(0, 2, 1)) * (1.0 / np.sqrt(dh))
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        want = (e / e.sum(axis=-1, keepdims=True)).mean(axis=0)
        assert attention(Tensor(qkv), nh)[1].tobytes() == want.tobytes()

    def test_symmetric_row(self):
        out = attention_map([1.0, 1.0], [0.0, 0.0])
        assert np.allclose(out, [[0.5, 0.5]] * 2, atol=1e-15)

    def test_large_equal_entries_no_overflow(self):
        out = attention_map([1.0, 1.0], [700.0, 700.0])
        assert np.allclose(out, [[0.5, 0.5]] * 2, atol=1e-15)

    def test_closed_form(self):
        out = attention_map([1.0, 1.0], [np.log(1.0), np.log(3.0)])
        assert np.allclose(out, [[0.25, 0.75]] * 2, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        k, nh = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        qkv = rng.standard_normal((k, 3 * nh * 2)) * 10
        s = attention(Tensor(qkv), nh)[1]
        assert np.all(s >= 0)
        assert np.max(np.abs(s.sum(axis=-1) - 1.0)) <= 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.inf, 1.0])


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor([3.0], requires_grad=True)
        m = lambda: x.reshape(1, 1)
        assert grad_check(lambda: dot(matmul(m(), m()), 1.0), [x]) <= 1e-8

    def test_constant(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        err = grad_check(lambda: dot(c, c.data) + dot(x, 0.0), [x])
        assert err == 0.0

    def test_step_validation(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: dot(x, 1.0), [x], step=1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_probing(self):
        # finite at x = 1, overflows one step above it
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(NonFiniteError, match="probing"):
            grad_check(lambda: dot(x, np.finfo(np.float64).max), [x])


class TestDeterminism:
    def test_bitwise_identical_gradients(self):
        def run():
            rng = np.random.default_rng(11)
            a = Tensor(rng.random((5, 5)), requires_grad=True)
            b = Tensor(rng.random((5, 6)), requires_grad=True)
            out = attention(matmul(a, b), 2)[0]
            dot(out, rng.standard_normal(out.shape)).backward()
            return a.grad.copy(), b.grad.copy()

        g1, g2 = run(), run()
        assert g1[0].tobytes() == g2[0].tobytes()
        assert g1[1].tobytes() == g2[1].tobytes()


class TestBackwardFrees:
    def test_interior_nodes_dropped_leaves_keep_grad(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 12)), requires_grad=True)
        b = Tensor(np.zeros(12))
        ln_g, ln_b = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4))
        h = affine(x, w, b)
        out, _ = attention(h, 2)
        y = layernorm(mlp(out, np.ones((4, 8)), np.zeros(8),
                          np.ones((8, 4)), np.zeros(4)), ln_g, ln_b)
        loss = dot(y, rng.standard_normal(y.shape))
        refs = [weakref.ref(t) for t in (h, out, y)]
        del h, out, y
        assert all(r() is not None for r in refs)
        loss.backward()
        # freed by reference counting alone, during backward
        assert [r() for r in refs] == [None] * 3
        assert loss.grad is None and loss._parents == () \
            and loss._backward is None
        for leaf in (x, w, ln_g):
            assert leaf.grad is not None
        assert b.grad is None and ln_b.grad is None

    def test_shared_input_accumulates_before_it_is_freed(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x.reshape(2, 1)
        (dot(y, [[2.0], [3.0]]) + dot(y, [[5.0], [7.0]])).backward()
        assert np.array_equal(x.grad, [7.0, 10.0])
