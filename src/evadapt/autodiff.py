"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward()
walks the graph in reverse topological order and accumulates gradients in
a fixed order, so identical inputs give bitwise-identical gradients.
Tensor itself has only `+`, `reshape` and `.T`; every other operation,
the distillation loss included, is one fused node below.
float64 is the reference precision; float32 exists only as a storage
option in the dump format (see io module).
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ValueError):
    """A public operation produced or received NaN/Inf."""


def check_finite(a: np.ndarray, what: str = "value"):
    if not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite {what} encountered")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out axes that numpy broadcasting introduced."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        check_finite(self.data, "tensor data")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents, backward) -> "Tensor":
        t = cls.__new__(cls)
        t.data = data
        t.grad = None
        t.requires_grad = any(p.requires_grad for p in parents)
        if t.requires_grad:
            t._parents = tuple(parents)
            t._backward = backward
        else:
            t._parents = ()
            t._backward = None
        return t

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        out_data = self.data + other.data

        def bw(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.shape) if other.requires_grad else None)

        return Tensor._from_op(out_data, (self, other), bw)

    # -- shaping -----------------------------------------------------------

    @property
    def T(self):
        return Tensor._from_op(self.data.T, (self,), lambda g: (g.T,))

    def reshape(self, *shape):
        return Tensor._from_op(self.data.reshape(*shape), (self,),
                               lambda g: (g.reshape(self.shape),))

    # -- backward ----------------------------------------------------------

    def backward(self):
        """Backpropagate from this scalar, once.

        Leaves (tensors no op produced) keep their accumulated `.grad`.
        Every other node drops its `.grad`, parents and backward function
        as soon as it has passed its gradient on, so the graph's arrays are
        freed while backward runs and the graph cannot be walked again.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        check_finite(self.data, "loss")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                # a constant parent has no parents and takes no gradient
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                grads = node._backward(node.grad)
                for p, g in zip(node._parents, grads):
                    if p.requires_grad:
                        p.grad = g if p.grad is None else p.grad + g
                grads = g = None    # hold no gradient past its use
            node.grad = None
            node._parents = ()
            node._backward = None

    def zero_grad(self):
        self.grad = None


# -- free-function ops ------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for 2-d operands."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.shape} x {b.shape}"
        )
    out_data = a.data @ b.data

    def bw(g):
        # a frozen operand gets no gradient: backward() skips it anyway
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return Tensor._from_op(out_data, (a, b), bw)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: (n, in) rows, an (in, out) map, an (out,) bias."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise ValueError(
            f"affine shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    out_data = x.data @ w.data
    out_data += b.data

    def bw(g):
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return Tensor._from_op(out_data, (x, w, b), bw)


# Elements in one cache-resident tile: 2**16 float64 values, 512 KiB.
# attention and mlp's GELU run their elementwise passes tile by tile, so
# each pass reads and writes cache instead of memory.
TILE = 1 << 16


def attention(qkv: Tensor, num_heads: int, samples: int = 1):
    """Multi-head self-attention over (m·k, 3c) rows that hold q | k | v.

    The rows stack m = `samples` samples of k tokens; each sample attends
    within its own rows. One node for q·kᵀ, the 1/sqrt(dh) scale, the row
    softmax, ·v and the merge of the heads. Returns the (m·k, c) output
    and the head-averaged attention maps, a constant: (k, k) for one
    sample, (m, k, k) for several. The forward runs in head groups of one
    sample and row tiles of about TILE elements, bitwise equal to
    whole-array passes and to one call per sample. Backward keeps only
    qkv and the probabilities; a frozen qkv keeps nothing and never holds
    every head's (k, k) logits at once. See docs/EQUATIONS.md for the
    tiling and the backward formulas.
    """
    if qkv.ndim != 2 or num_heads < 1 or qkv.shape[1] % (3 * num_heads) \
            or samples < 1 or qkv.shape[0] % samples:
        raise ValueError(f"attention: cannot split {qkv.shape} into q, k, v "
                         f"of {num_heads} heads and {samples} samples")
    m, nh = samples, num_heads
    k = qkv.shape[0] // m
    c = qkv.shape[1] // 3
    dh = c // nh
    scale = 1.0 / np.sqrt(dh)
    q, kk, v = qkv.data.reshape(m, k, 3, nh, dh).transpose(2, 0, 3, 1, 4)
    kt = kk.transpose(0, 1, 3, 2)
    group = max(1, TILE // (k * k))        # heads whose logits fill a tile
    rows = max(1, TILE // (group * k))     # a group's rows per tile
    # every head's probabilities when backward needs them, else one
    # group's, reused by the next group
    keep = qkv.requires_grad
    p = np.empty((m, nh, k, k) if keep else (1, min(group, nh), k, k))
    o = np.empty((m, nh, k, dh))
    head_sum = np.zeros((m, k, k))
    for s in range(m):
        for h in range(0, nh, group):
            hs = slice(h, h + group)
            pg = p[s, hs] if keep else p[0, :len(q[s, hs])]
            np.matmul(q[s, hs], kt[s, hs], out=pg)
            for r in range(0, k, rows):
                t = pg[:, r:r + rows]
                t *= scale
                check_finite(t, "softmax input")
                t -= t.max(axis=-1, keepdims=True)  # stable row softmax
                np.exp(t, out=t)
                t /= t.sum(axis=-1, keepdims=True)
                tile_sum = head_sum[s, r:r + rows]
                for head in t:                      # the mean's head order
                    tile_sum += head
            np.matmul(pg, v[s, hs], out=o[s, hs])
    out_data = o.transpose(0, 2, 1, 3).reshape(m * k, c)
    head_sum /= nh

    def bw(g):
        go = g.reshape(m, k, nh, dh).transpose(0, 2, 1, 3)   # (m, nh, k, dh)
        grad = np.empty((m, k, 3, nh, dh))
        gq, gk, gv = grad.transpose(2, 0, 3, 1, 4)
        gv[...] = np.swapaxes(p, -1, -2) @ go
        gs = go @ np.swapaxes(v, -1, -2)                # dL/dP
        gs -= (gs * p).sum(axis=-1, keepdims=True)      # softmax Jacobian
        gs *= p
        gs *= scale
        gq[...] = gs @ kk
        gk[...] = np.swapaxes(np.swapaxes(q, -1, -2) @ gs, -1, -2)
        return (grad.reshape(m * k, 3 * c),)

    return (Tensor._from_op(out_data, (qkv,), bw),
            head_sum if m > 1 else head_sum[0])


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis with learned gain and bias;
    the variance takes an epsilon of 1e-6."""
    n = x.data.shape[-1]
    # the reduce and in-place divide ndarray.mean makes, without its
    # Python wrapper (dividing into new arrays raised teacher-vitb peak
    # RSS by 8 MB)
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= n
    xc = x.data - mu
    var = np.add.reduce(xc ** 2, axis=-1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bw(g):
        gx = ggain = gbias = None
        if x.requires_grad:
            gxhat = g * gain.data
            gx = inv / n * (
                n * gxhat
                - gxhat.sum(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True)
            )
        if gain.requires_grad:
            ggain = _unbroadcast(g * xhat, gain.shape)
        if bias.requires_grad:
            gbias = _unbroadcast(g, bias.shape)
        return (gx, ggain, gbias)

    return Tensor._from_op(out_data, (x, gain, bias), bw)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(x: np.ndarray, d: np.ndarray | None = None):
    """Overwrite the C-contiguous x with its tanh-approximation GELU, and
    write its derivative into d if given, on tiles of TILE elements.

    Both evaluate 0.5 x (1 + th), th = tanh(c (x + 0.044715 x³)), and
    d = 0.5 (1 + th) + 0.5 x (1 - th²) du, du = c (1 + 3 · 0.044715 x²),
    in the textbook operation order; d is computed while the tile is in
    cache. d is a C-contiguous array of x's shape.
    """
    tile = min(TILE, x.size)
    x2, th, th1, half = (np.empty(tile) for _ in range(4))
    xf = x.reshape(-1)
    df = None if d is None else d.reshape(-1)
    for i in range(0, xf.size, TILE):
        xt = xf[i:i + TILE]
        n = xt.size
        a, t, t1, hx = x2[:n], th[:n], th1[:n], half[:n]
        np.multiply(xt, xt, out=a)  # cube as x2 * x: numpy's pow is slow
        np.multiply(a, xt, out=t)
        t *= 0.044715
        t += xt
        t *= _GELU_C
        np.tanh(t, out=t)
        np.add(t, 1.0, out=t1)
        np.multiply(xt, 0.5, out=hx)
        np.multiply(hx, t1, out=xt)  # xt is read for the last time above
        if df is None:
            continue
        a *= 3 * 0.044715           # du
        a += 1.0
        a *= _GELU_C
        np.square(t, out=t)         # 1 - th²
        np.subtract(1.0, t, out=t)
        hx *= t
        hx *= a
        dt = df[i:i + n]
        np.multiply(t1, 0.5, out=dt)
        dt += hx


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 as one node: (n, in) rows, an (in,
    hidden) and a (hidden, out) map with their biases.

    The numpy operations of affine, GELU (see _gelu) and affine, in
    their order, so forward and gradients are bitwise those of the three
    nodes. GELU overwrites the hidden layer in place. Backward keeps
    GELU's derivative when x, w1 or b1 trains and GELU's output when w2
    trains; a frozen node keeps neither. See docs/EQUATIONS.md.
    """
    if x.ndim != 2 or w1.ndim != 2 or w2.ndim != 2 \
            or x.shape[1] != w1.shape[0] or b1.shape != w1.shape[1:] \
            or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]:
        raise ValueError(
            f"mlp shape mismatch: {x.shape} x {w1.shape} + {b1.shape} "
            f"x {w2.shape} + {b2.shape}")
    # the output outlives the scratch; allocated first, it does not pin
    # the heap above the freed scratch (eval-pipeline's peak RSS read
    # 3.5 MB higher the other way round)
    out_data = np.empty((x.shape[0], w2.shape[1]))
    u = x.data @ w1.data
    u += b1.data
    # backward reads GELU's derivative when a gradient passes through
    # GELU, and its output when w2 trains
    d = np.empty(u.shape) if (x.requires_grad or w1.requires_grad
                              or b1.requires_grad) else None
    _gelu(u, d)
    np.matmul(u, w2.data, out=out_data)
    out_data += b2.data
    act = u if w2.requires_grad else None

    def bw(g):
        gu = None
        if d is not None:
            gu = g @ w2.data.T
            gu *= d
        return (gu @ w1.data.T if x.requires_grad else None,
                x.data.T @ gu if w1.requires_grad else None,
                gu.sum(axis=0) if b1.requires_grad else None,
                act.T @ g if w2.requires_grad else None,
                g.sum(axis=0) if b2.requires_grad else None)

    return Tensor._from_op(out_data, (x, w1, b1, w2, b2), bw)


def weighted_l1(targets: list[np.ndarray], xs: list[Tensor],
                weights: list[np.ndarray | None],
                gammas: list[float],
                samples: int = 1) -> tuple[Tensor, list[float]]:
    """sum_s gamma_s * mean(w_s[:, None] * |target_s - x_s|) as one node.

    targets are constant (k, c) arrays, xs the (k, c) tensors compared
    with them, weights per-row (k,) vectors or None for uniform rows.
    When the rows stack `samples` samples, each term is the sum of the
    samples' means: the weighted sum over (k / samples)·c. Returns the
    total and each unscaled term. Forward and backward apply, in order,
    the numpy operations of the reference chain in tests/test_oracles.py
    (ref_distill_loss: |target - x|, * w, mean, * gamma, summed left to
    right), so for one sample both are bitwise equal to it
    (docs/EQUATIONS.md).
    """
    if not xs or not len(targets) == len(xs) == len(weights) == len(gammas):
        raise ValueError("weighted_l1 needs inputs, each with one target, "
                         "weight and gamma")
    total = None
    terms = []
    saved = []      # (gamma, size, w column or None, sign or None) per input
    for m, x, w, gamma in zip(targets, xs, weights, gammas):
        if m.shape != x.shape:
            raise ValueError(f"shape mismatch: {m.shape} vs {x.shape}")
        if samples < 1 or x.shape[0] % samples:
            raise ValueError(f"cannot split {x.shape[0]} rows into "
                             f"{samples} samples")
        diff = m - x.data
        a = np.abs(diff)
        if w is not None:
            if w.shape != (x.shape[0],):
                raise ValueError("weight length must equal token count")
            w = w.reshape(-1, 1)
            a = a * w
        n = float(a.size // samples)
        term = a.sum() / n
        terms.append(float(term))
        term = term * gamma
        total = term if total is None else total + term
        saved.append((gamma, n, w,
                      np.sign(diff) if x.requires_grad else None))

    def bw(g):
        grads = []
        for gamma, n, w, sign in saved:
            if sign is None:
                grads.append(None)
                continue
            d = (g * gamma) / n
            if w is not None:
                d = d * w
            grads.append(-(d * sign))
        return grads

    return Tensor._from_op(np.asarray(total), xs, bw), terms


def where_rows(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select rows of `a` where mask is set, rows of `b` elsewhere.

    mask is a constant boolean vector over rows; gradients route to the
    selected source only, and an operand that requires none gets None.
    """
    m = np.asarray(mask, dtype=bool).reshape(-1, 1)
    out_data = np.where(m, a.data, b.data)

    def bw(g):
        return (np.where(m, g, 0.0) if a.requires_grad else None,
                np.where(m, 0.0, g) if b.requires_grad else None)

    return Tensor._from_op(out_data, (a, b), bw)


# -- gradient checking -------------------------------------------------------

def grad_check(f, params: list[Tensor]) -> float:
    """Max relative error between analytic and central-difference gradients.

    f is a scalar-valued function of no arguments that reads `params`;
    each value is probed at ±1e-5, and the error is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    step = 1e-5
    for p in params:
        p.zero_grad()
    loss = f()
    check_finite(loss.data, "loss")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = f().item()
            flat[i] = orig - step
            lm = f().item()
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NonFiniteError("non-finite loss while probing gradients")
            num = (lp - lm) / (2 * step)
            err = abs(gflat[i] - num) / max(1.0, abs(gflat[i]), abs(num))
            if err > worst:
                worst = err
    return worst
