import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evadapt.autodiff import (_GELU_C, NonFiniteError, Tensor, gelu,
                              grad_check, matmul, softmax_rows)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestIndexing:
    def test_repeated_index_accumulates(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        x[[0, 2, 0]].sum().backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_basic_index_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (x[1, 1:] * 2.0).sum().backward()
        assert np.array_equal(x.grad, [[0, 0, 0], [0, 2, 2]])


    @pytest.mark.parametrize("key", [
        1, -2, slice(1, 3), (1, slice(None, None, 2)), (0, 2),
        ([0, 2, 0],), (slice(None), [1, 1, 3]),
    ], ids=["int", "negative-int", "slice", "tuple", "int-tuple",
            "repeated-array", "slice-and-repeated-array"])
    def test_key_gradient(self, key):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal(np.shape(x.data[key])))
        (x[key] * w).sum().backward()
        want = np.zeros((3, 4))
        np.add.at(want, key, w.data)
        assert np.array_equal(x.grad, want)
        assert grad_check(lambda: (x[key] * w).sum(), [x]) <= 1e-8

    def test_int_key_on_transposed_view(self):
        # the attention block indexes q, k, v out of a transposed view
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        y = x.transpose((1, 0, 2))
        (y[0] * 2.0 + y[2]).sum().backward()
        want = np.zeros((2, 3, 4))
        want[:, 0] = 2.0
        want[:, 2] = 1.0
        assert np.array_equal(x.grad, want)


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

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-4, 4, (3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)))
        assert grad_check(lambda: (gelu(x) * w).sum(), [x]) <= 1e-8


class TestSoftmax:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_out_of_place(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(tuple(rng.integers(1, 6, rng.integers(1, 4))))
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        want = e / e.sum(axis=-1, keepdims=True)
        assert softmax_rows(Tensor(x)).data.tobytes() == want.tobytes()

    def test_symmetric_row(self):
        out = softmax_rows(Tensor([[0.0, 0.0]])).data
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_large_equal_entries_no_overflow(self):
        out = softmax_rows(Tensor([[700.0, 700.0]])).data
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(Tensor([[np.log(1.0), np.log(3.0)]])).data
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6))) * 10
        s = softmax_rows(Tensor(x)).data
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
            b = Tensor(rng.random((5, 5)), requires_grad=True)
            (softmax_rows(matmul(a, b)) ** 2.0).mean().backward()
            return a.grad.copy(), b.grad.copy()

        g1, g2 = run(), run()
        assert g1[0].tobytes() == g2[0].tobytes()
        assert g1[1].tobytes() == g2[1].tobytes()
