import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evadapt import autodiff
from evadapt.autodiff import (_GELU_C, NonFiniteError, Tensor, affine,
                              attention, gelu, grad_check, layernorm, matmul)


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
        (out * Tensor(g)).sum().backward()
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
        u = Tensor(rng.standard_normal((4, 5)))
        f = lambda: (affine(ts["x"], ts["w"], ts["b"]) * u).sum()
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
        (out * Tensor(g)).sum().backward()
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
        u = Tensor(rng.standard_normal((self.K, c)))

        def f():
            out, _ = attention(affine(ts["x"], ts["w"], ts["b"]), self.NH)
            return (out * u).sum()

        assert grad_check(f, [t for n, t in ts.items() if n in trained]) <= 1e-6

    def test_frozen_qkv_builds_no_node(self):
        out, _ = attention(Tensor(np.ones((3, 6))), 1)
        assert not out.requires_grad and out._backward is None

    def test_qkv_gradient_layout(self):
        # q, k and v each send their gradient back to their own columns
        rng = np.random.default_rng(17)
        c = self.NH * self.DH
        qkv = Tensor(rng.standard_normal((self.K, 3 * c)), requires_grad=True)
        out, _ = attention(qkv, self.NH)
        out.sum().backward()
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
        attention(flat, self.NH)[0].sum().backward()
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
        matmul(a, b).sum().backward()
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
    @pytest.mark.parametrize("batched", [False, True])
    def test_frozen_operand_gets_no_gradient(self, frozen, batched):
        rng = np.random.default_rng(5)
        a = Tensor(rng.standard_normal((2, 3, 4) if batched else (3, 4)),
                   requires_grad=frozen == "right")
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=frozen == "left")
        w = Tensor(rng.standard_normal((2, 3, 2) if batched else (3, 2)))
        out = matmul(a, b)
        # the frozen side's gradient GEMM is skipped, not computed and dropped
        grads = out._backward(w.data)
        assert (grads[0] is None) == (frozen == "left")
        assert (grads[1] is None) == (frozen == "right")
        (out * w).sum().backward()
        trained, fixed = (b, a) if frozen == "left" else (a, b)
        assert fixed.grad is None
        assert grad_check(lambda: (matmul(a, b) * w).sum(), [trained]) <= 1e-8


class TestGelu:
    def test_close_to_pow_formula(self):
        x = np.concatenate([np.random.default_rng(6).uniform(-10, 10, 20000),
                            [0.0, -0.0, 1e-300, -3.0, 1e3, -1e3]])
        got = gelu(Tensor(x)).data
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
        t = Tensor(x, requires_grad=True)
        out = gelu(t)
        assert out.data.tobytes() == want.tobytes()
        (out * Tensor(g)).sum().backward()
        assert t.grad.tobytes() == want_grad.tobytes()

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-4, 4, (3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)))
        assert grad_check(lambda: (gelu(x) * w).sum(), [x]) <= 1e-8


class TestTiling:
    """attention and gelu run their forward on tiles of autodiff.TILE
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
            (out * Tensor(g)).sum().backward()
            assert t.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("shape", [(23,), (4, 9), (2, 3, 5)])
    @pytest.mark.parametrize("tile", [1, 7, 1 << 16])
    def test_gelu_bitwise_equal_to_untiled(self, monkeypatch, shape, tile):
        monkeypatch.setattr(autodiff, "TILE", tile)
        rng = np.random.default_rng(20)
        x = rng.uniform(-6, 6, shape)
        g = rng.standard_normal(shape)
        want, want_grad = gelu_chain(x, g)
        assert gelu(Tensor(x)).data.tobytes() == want.tobytes()
        t = Tensor(x, requires_grad=True)
        out = gelu(t)
        assert out.data.tobytes() == want.tobytes()
        (out * Tensor(g)).sum().backward()
        assert t.grad.tobytes() == want_grad.tobytes()

    def test_gelu_of_a_strided_view(self, monkeypatch):
        monkeypatch.setattr(autodiff, "TILE", 7)
        x = np.random.default_rng(21).uniform(-6, 6, (6, 4)).T
        assert gelu(Tensor(x)).data.tobytes() == \
            gelu_chain(x, x)[0].tobytes()

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

    def test_frozen_gelu_keeps_no_full_size_temporaries(self):
        # x² and th are each as large as x: keeping either one whole would
        # take the peak past twice x's size
        x = Tensor(np.random.default_rng(24).uniform(-6, 6, (512, 1024)))
        out = []
        peak = traced_peak(lambda: out.append(gelu(x)))
        assert peak < 2 * x.data.nbytes
        assert out[0]._backward is None

    def test_trained_gelu_keeps_its_temporaries(self):
        x = Tensor(np.random.default_rng(24).uniform(-6, 6, (512, 1024)),
                   requires_grad=True)
        assert traced_peak(lambda: gelu(x)) >= 3 * x.data.nbytes


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
        assert grad_check(lambda: (x * x).sum(), [x]) <= 1e-8

    def test_constant(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        err = grad_check(lambda: (c * c).sum() + x.sum() * 0.0, [x])
        assert err == 0.0

    def test_step_validation(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: x.sum(), [x], step=1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_probing(self):
        x = Tensor([0.0], requires_grad=True)
        with pytest.raises(NonFiniteError):
            grad_check(lambda: (x ** -1.0).sum(), [x])


class TestDeterminism:
    def test_bitwise_identical_gradients(self):
        def run():
            rng = np.random.default_rng(11)
            a = Tensor(rng.random((5, 5)), requires_grad=True)
            b = Tensor(rng.random((5, 6)), requires_grad=True)
            (attention(matmul(a, b), 2)[0] ** 2.0).mean().backward()
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
        y = layernorm(gelu(out), ln_g, ln_b)
        loss = (y * y).mean()
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
        y = x * 3.0
        ((y * y) + y).sum().backward()
        assert np.array_equal(x.grad, 2 * 9.0 * x.data + 3.0)
