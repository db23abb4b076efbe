"""Token-significance weighting from rolled-out attention transitions.

The per-layer transition matrix is the TRANSPOSE of the head-averaged
attention: rows index source tokens at layer i, columns index destination
tokens at layer i+1, so each column sums to 1. Rolling the transitions
forward (optionally mixed with the identity residual path) and projecting
onto the all-ones final-layer importance vector yields one nonnegative
weight per source token. With raw row-stochastic attention the same
projection collapses to the uniform vector, which is why the transpose
orientation is load-bearing; the test suite asserts that degeneracy
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SignificanceVector:
    values: np.ndarray


def transition_stack(attentions: list[np.ndarray]) -> list[np.ndarray]:
    """Transpose head-averaged attention matrices into transition matrices.

    Each map is one sample's (k, k) or m samples' stacked (m, k, k). The
    transitions are transposed views of the attention arrays, not copies.
    """
    stack = []
    for a in attentions:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
            raise ValueError(f"attention matrix must be square, got {a.shape}")
        stack.append(np.swapaxes(a, -1, -2))
    return stack


def _check_range(name, v):
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")


def _layers(stack: list[np.ndarray], s: int,
            horizon: int | None = None) -> list[np.ndarray]:
    """P^(s) .. P^(n), truncated to `horizon` layers when it is set."""
    n = len(stack)
    if not 1 <= s <= n:
        raise ValueError(f"source layer {s} out of range 1..{n}")
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    mats = stack[s - 1:]
    return mats if horizon is None else mats[:horizon]


def transition_exact(stack: list[np.ndarray], s: int,
                     alphas: list[float]) -> np.ndarray:
    """Exact residual-mixed transition product from layer s to the last layer.

    Returns the left-to-right product over i = s..n of
    (alpha_i * P^(i) + (1 - alpha_i) * I).
    """
    mats = _layers(stack, s)
    if len(alphas) != len(mats):
        raise ValueError(f"need {len(mats)} alphas, got {len(alphas)}")
    k = stack[0].shape[-1]
    out = np.eye(k)
    for p, a in zip(mats, alphas):
        _check_range("alpha", a)
        out = out @ (a * p + (1.0 - a) * np.eye(k))
    return out


def token_significance(stack: list[np.ndarray], s: int, beta: float,
                       horizon: int | None = None) -> SignificanceVector:
    """Per-token weight of layer-s tokens on the final layer's output.

    Equals (beta * (P^(s) ... P^(n)) + (1 - beta) * I) @ ones, with the
    product truncated to `horizon` layers past s when it is set, evaluated
    right to left as one matrix-vector product per layer: O(n k^2), not
    O(n k^3). A stack of m samples' (m, k, k) transitions gives their
    (m, k) weights, each row the same as that sample's own rollout.
    """
    mats = _layers(stack, s, horizon)
    _check_range("beta", beta)
    v = np.ones(stack[0].shape[:-1])
    for p in reversed(mats):
        v = (p @ v[..., None])[..., 0]
    return SignificanceVector(values=beta * v + (1.0 - beta))


def convergence_diagnostic(stack: list[np.ndarray]) -> np.ndarray:
    """Frobenius gap between each prefix product and the full product.

    Element i is ||P^(1) ... P^(i+1)  -  P^(1) ... P^(n)||_F, one per
    sample of a stacked stack; the last element is exactly 0.
    """
    if not stack:
        raise ValueError("stack must be nonempty")
    prefixes = [np.eye(stack[0].shape[-1])]
    for p in stack:
        prefixes.append(prefixes[-1] @ p)
    return np.array([np.linalg.norm(q - prefixes[-1], axis=(-2, -1))
                     for q in prefixes[1:]])
