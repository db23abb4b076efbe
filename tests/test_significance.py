import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evadapt.significance import (convergence_diagnostic,
                                  token_significance, transition_exact,
                                  transition_stack)
from test_oracles import transition_approx


def random_attention_stack(rng, k, depth):
    """Row-stochastic attention matrices, transposed into transitions."""
    attns = []
    for _ in range(depth):
        a = rng.random((k, k)) + 1e-3
        attns.append(a / a.sum(axis=1, keepdims=True))
    return attns


A_PIVOT = np.array([[1.0, 0.0], [1.0, 0.0]])  # both queries attend token 0


class TestTransitionExact:
    def test_alpha_zero_is_identity(self):
        stack = transition_stack(random_attention_stack(
            np.random.default_rng(0), 3, 4))
        h = transition_exact(stack, 1, [0.0] * 4)
        assert np.array_equal(h, np.eye(3))

    def test_alpha_one_is_pure_product(self):
        stack = transition_stack(random_attention_stack(
            np.random.default_rng(1), 3, 4))
        h = transition_exact(stack, 1, [1.0] * 4)
        want = stack[0] @ stack[1] @ stack[2] @ stack[3]
        assert np.allclose(h, want, atol=1e-15)

    def test_hand_example(self):
        stack = transition_stack([A_PIVOT])
        h = transition_exact(stack, 1, [0.5])
        assert np.allclose(h, [[1.0, 0.5], [0.0, 0.5]], atol=1e-15)

    def test_alpha_out_of_range(self):
        stack = transition_stack([A_PIVOT])
        with pytest.raises(ValueError, match="alpha"):
            transition_exact(stack, 1, [1.5])

    def test_alpha_count_checked(self):
        stack = transition_stack([A_PIVOT, A_PIVOT])
        with pytest.raises(ValueError, match="alphas"):
            transition_exact(stack, 1, [0.5])


class TestTransitionApprox:
    def test_beta_endpoints(self):
        stack = transition_stack(random_attention_stack(
            np.random.default_rng(2), 4, 3))
        assert np.array_equal(transition_approx(stack, 1, 0.0), np.eye(4))
        prod = stack[0] @ stack[1] @ stack[2]
        assert np.allclose(transition_approx(stack, 1, 1.0), prod, atol=1e-15)

    def test_two_layer_hand_example(self):
        stack = transition_stack([A_PIVOT, A_PIVOT])
        h = transition_approx(stack, 1, 0.5)
        assert np.allclose(h, [[1.0, 0.5], [0.0, 0.5]], atol=1e-15)

    def test_single_layer_coincides_with_exact(self):
        rng = np.random.default_rng(3)
        for bp in (0.1, 0.5, 0.9):
            stack = transition_stack(random_attention_stack(rng, 3, 1))
            assert np.allclose(transition_exact(stack, 1, [bp]),
                               transition_approx(stack, 1, bp), atol=1e-15)

    def test_beta_out_of_range(self):
        stack = transition_stack([A_PIVOT])
        with pytest.raises(ValueError, match="beta"):
            transition_approx(stack, 1, 1.5)

    def test_column_stochastic(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            stack = transition_stack(random_attention_stack(rng, 5, 6))
            h = transition_approx(stack, rng.integers(1, 7), rng.random())
            assert np.all(h >= -1e-15)
            assert np.max(np.abs(h.sum(axis=0) - 1.0)) <= 1e-9


class TestTokenSignificance:
    def test_identity_attention_uniform(self):
        stack = transition_stack([np.eye(3)] * 4)
        sig = token_significance(stack, 1, 0.7)
        assert np.allclose(sig.values, 1.0, atol=1e-15)

    def test_pivot_example(self):
        stack = transition_stack([A_PIVOT])
        sig = token_significance(stack, 1, 0.5)
        assert np.allclose(sig.values, [1.5, 0.5], atol=1e-15)

    def test_uniform_attention_uniform(self):
        stack = transition_stack([np.full((4, 4), 0.25)] * 3)
        sig = token_significance(stack, 1, 0.5)
        assert np.allclose(sig.values, 1.0, atol=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k = int(rng.integers(2, 8))
            depth = int(rng.integers(1, 7))
            stack = transition_stack(random_attention_stack(rng, k, depth))
            s = int(rng.integers(1, depth + 1))
            sig = token_significance(stack, s, float(rng.random()))
            assert np.all(sig.values >= 0)
            assert abs(sig.values.sum() - k) <= 1e-6

    def test_row_stochastic_degeneracy(self):
        # without the transpose, the ones-projection is uniform: this is
        # why the transition matrices must be column-stochastic
        rng = np.random.default_rng(6)
        for _ in range(25):
            attns = random_attention_stack(rng, 4, 3)
            prod = np.eye(4)
            for a in attns:
                prod = prod @ a  # row-stochastic, no transpose
            h = 0.5 * prod + 0.5 * np.eye(4)
            values = h @ np.ones(4)
            assert np.max(np.abs(values - 1.0)) < 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        attns = random_attention_stack(rng, 5, 3)
        perm = rng.permutation(5)
        permuted = [a[np.ix_(perm, perm)] for a in attns]
        base = token_significance(transition_stack(attns), 1, 0.5).values
        got = token_significance(transition_stack(permuted), 1, 0.5).values
        assert np.allclose(got, base[perm], atol=1e-12)

    def test_rollout_horizon_truncates(self):
        rng = np.random.default_rng(8)
        attns = random_attention_stack(rng, 3, 6)
        stack = transition_stack(attns)
        full = token_significance(stack, 1, 1.0).values
        trunc = token_significance(stack, 1, 1.0, horizon=3).values
        want = (stack[0] @ stack[1] @ stack[2]) @ np.ones(3)
        assert np.allclose(trunc, want, atol=1e-14)
        assert not np.allclose(trunc, full, atol=1e-6)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_rollout_horizon_below_one_rejected(self, horizon):
        # 0 rolled out an empty product, -1 dropped the last transition
        stack = transition_stack(random_attention_stack(
            np.random.default_rng(9), 3, 4))
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            token_significance(stack, 1, 0.5, horizon=horizon)


    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 6),
           st.floats(0.0, 1.0, allow_subnormal=False),
           st.sampled_from([None, 1, "past top"]))
    def test_matvec_matches_matrix_form(self, seed, k, depth, beta, horizon):
        rng = np.random.default_rng(seed)
        stack = transition_stack(random_attention_stack(rng, k, depth))
        for s in range(1, depth + 1):
            h = depth + 3 if horizon == "past top" else horizon
            got = token_significance(stack, s, beta, horizon=h).values
            want = transition_approx(stack, s, beta, h) @ np.ones(k)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_stack_is_views_of_the_attention(self):
        attn = [np.array([[0.25, 0.75], [0.5, 0.5]])]
        stack = transition_stack(attn)
        assert np.shares_memory(stack[0], attn[0])
        assert np.array_equal(stack[0], attn[0].T)

    @pytest.mark.parametrize("horizon", [None, 2])
    def test_stack_rolls_out_as_its_samples_bitwise(self, horizon):
        rng = np.random.default_rng(10)
        samples = [random_attention_stack(rng, 5, 4) for _ in range(3)]
        attns = [np.stack(maps) for maps in zip(*samples)]   # (3, 5, 5)
        stack = transition_stack(attns)
        assert all(np.shares_memory(p, a) for p, a in zip(stack, attns))
        for s in range(1, 5):
            got = token_significance(stack, s, 0.5, horizon=horizon).values
            want = np.stack([token_significance(transition_stack(a), s, 0.5,
                                                horizon=horizon).values
                             for a in samples])
            assert got.shape == (3, 5)
            assert got.tobytes() == want.tobytes()
            alphas = [0.7] * (5 - s)
            assert transition_exact(stack, s, alphas).tobytes() == np.stack(
                [transition_exact(transition_stack(a), s, alphas)
                 for a in samples]).tobytes()
        assert convergence_diagnostic(stack).tobytes() == np.stack(
            [convergence_diagnostic(transition_stack(a)) for a in samples],
            axis=1).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 3, 3), (2, 3, 4)])
    def test_non_square_maps_rejected(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            transition_stack([np.ones(shape)])


class TestSingleLayer:
    """One-matrix stacks: what distill's teacher_single_layer source uses."""

    def test_identity_uniform(self):
        sig = token_significance(transition_stack([np.eye(3)]), 1, 0.5)
        assert np.allclose(sig.values, 1.0)

    def test_pivot(self):
        sig = token_significance(transition_stack([A_PIVOT]), 1, 0.5)
        assert np.allclose(sig.values, [1.5, 0.5], atol=1e-15)

    def test_beta_zero_uniform(self):
        sig = token_significance(transition_stack([A_PIVOT]), 1, 0.0)
        assert np.allclose(sig.values, 1.0)


class TestConvergenceDiagnostic:
    def test_identity_stack_all_zero(self):
        assert np.array_equal(convergence_diagnostic([np.eye(3)] * 5),
                              np.zeros(5))

    def test_idempotent_uniform_stack_all_zero(self):
        p = np.full((4, 4), 0.25)
        d = convergence_diagnostic([p] * 5)
        assert np.max(np.abs(d)) <= 1e-12

    def test_matches_prefix_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            depth = int(rng.integers(2, 13))
            stack = transition_stack(random_attention_stack(rng, 5, depth))
            got = convergence_diagnostic(stack)
            full = np.eye(5)
            for p in stack:
                full = full @ p
            prefix = np.eye(5)
            for i, p in enumerate(stack):
                prefix = prefix @ p
                want = np.linalg.norm(prefix - full)
                assert abs(got[i] - want) <= 1e-10
            assert got[-1] == 0.0

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            convergence_diagnostic([])
