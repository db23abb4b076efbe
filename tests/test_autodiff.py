import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evadapt.autodiff import (NonFiniteError, Tensor, grad_check, matmul,
                              softmax_rows)


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


class TestSoftmax:
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
