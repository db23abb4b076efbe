"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward()
walks the graph in reverse topological order and accumulates gradients in
a fixed order, so identical inputs give bitwise-identical gradients.
float64 is the reference precision; float32 exists only as a storage
option in the dump format (see io module).
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ValueError):
    """A public operation produced or received NaN/Inf."""


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return a


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
        self.data = _as_array(data)
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
        other = _wrap(other)
        out_data = self.data + other.data

        def bw(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.shape) if other.requires_grad else None)

        return Tensor._from_op(out_data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        return Tensor._from_op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __rsub__(self, other):
        return _wrap(other) + (-self)

    def __mul__(self, other):
        other = _wrap(other)
        out_data = self.data * other.data

        def bw(g):
            return (
                _unbroadcast(g * other.data, self.shape)
                if self.requires_grad else None,
                _unbroadcast(g * self.data, other.shape)
                if other.requires_grad else None,
            )

        return Tensor._from_op(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        out_data = self.data / other.data

        def bw(g):
            return (
                _unbroadcast(g / other.data, self.shape),
                _unbroadcast(-g * self.data / (other.data ** 2), other.shape),
            )

        return Tensor._from_op(out_data, (self, other), bw)

    def __pow__(self, p: float):
        out_data = self.data ** p

        def bw(g):
            return (g * p * self.data ** (p - 1),)

        return Tensor._from_op(out_data, (self,), bw)

    # -- shaping -----------------------------------------------------------

    @property
    def T(self):
        return Tensor._from_op(self.data.T, (self,), lambda g: (g.T,))

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._from_op(out_data, (self,), bw)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    def abs(self):
        out_data = np.abs(self.data)

        def bw(g):
            return (g * np.sign(self.data),)

        return Tensor._from_op(out_data, (self,), bw)

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
                if id(p) not in seen:
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


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- free-function ops ------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"matmul dimension mismatch: {a.shape} x {b.shape}"
        )
    out_data = a.data @ b.data

    def bw(g):
        # a frozen operand gets no gradient: backward() skips it anyway
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return (ga, gb)

    return Tensor._from_op(out_data, (a, b), bw)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: (n, in) rows, an (in, out) map, an (out,) bias."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
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
# attention and gelu run their elementwise passes tile by tile, so each
# pass reads and writes cache instead of memory.
TILE = 1 << 16


def attention(qkv: Tensor, num_heads: int):
    """Multi-head self-attention over (k, 3c) rows that hold q | k | v.

    One node for q·kᵀ, the 1/sqrt(dh) scale, the row softmax, ·v and the
    merge of the heads. Returns the (k, c) output and the head-averaged
    (k, k) attention map, a constant. The forward runs in head groups and
    row tiles of about TILE elements, bitwise equal to whole-array passes.
    Backward keeps only qkv and the probabilities; a frozen qkv keeps
    nothing and never holds every head's (k, k) logits at once. See
    docs/EQUATIONS.md for the tiling and the backward formulas.
    """
    qkv = _wrap(qkv)
    if qkv.ndim != 2 or num_heads < 1 or qkv.shape[1] % (3 * num_heads):
        raise ValueError(f"attention: cannot split {qkv.shape} into q, k, v "
                         f"of {num_heads} heads")
    k, nh = qkv.shape[0], num_heads
    c = qkv.shape[1] // 3
    dh = c // nh
    scale = 1.0 / np.sqrt(dh)
    q, kk, v = qkv.data.reshape(k, 3, nh, dh).transpose(1, 2, 0, 3)
    kt = kk.transpose(0, 2, 1)
    group = max(1, TILE // (k * k))        # heads whose logits fill a tile
    rows = max(1, TILE // (group * k))     # a group's rows per tile
    # every head's probabilities when backward needs them, else one
    # group's, reused by the next group
    keep = qkv.requires_grad
    p = np.empty((nh if keep else min(group, nh), k, k))
    o = np.empty((nh, k, dh))
    head_sum = np.zeros((k, k))
    for h in range(0, nh, group):
        hs = slice(h, h + group)
        pg = p[hs] if keep else p[:len(q[hs])]
        np.matmul(q[hs], kt[hs], out=pg)
        for r in range(0, k, rows):
            t = pg[:, r:r + rows]
            t *= scale
            check_finite(t, "softmax input")
            t -= t.max(axis=-1, keepdims=True)  # stable row softmax
            np.exp(t, out=t)
            t /= t.sum(axis=-1, keepdims=True)
            tile_sum = head_sum[r:r + rows]
            for head in t:                      # the mean's head order
                tile_sum += head
        np.matmul(pg, v[hs], out=o[hs])
    out_data = o.transpose(1, 0, 2).reshape(k, c)
    head_sum /= nh

    def bw(g):
        go = g.reshape(k, nh, dh).transpose(1, 0, 2)    # (nh, k, dh)
        grad = np.empty((k, 3, nh, dh))
        gq, gk, gv = grad.transpose(1, 2, 0, 3)
        gv[...] = np.swapaxes(p, -1, -2) @ go
        gs = go @ np.swapaxes(v, -1, -2)                # dL/dP
        gs -= (gs * p).sum(axis=-1, keepdims=True)      # softmax Jacobian
        gs *= p
        gs *= scale
        gq[...] = gs @ kk
        gk[...] = (np.swapaxes(q, -1, -2) @ gs).transpose(0, 2, 1)
        return (grad.reshape(k, 3 * c),)

    return Tensor._from_op(out_data, (qkv,), bw), head_sum


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis with learned gain and bias."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bw(g):
        gx = ggain = gbias = None
        if x.requires_grad:
            n = x.data.shape[-1]
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


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU; the backward differentiates the approximation.

    Both directions evaluate 0.5 x (1 + th), th = tanh(c (x + 0.044715 x³)),
    and its derivative in the textbook operation order, through in-place
    temporaries. The forward runs on tiles of TILE elements. Backward
    keeps x² and th whole; a frozen input keeps nothing.
    """
    x = _wrap(x)
    xd = x.data
    # the output outlives the scratch; allocated first, it does not pin
    # the heap above the freed scratch (eval-pipeline's peak RSS read
    # 3.5 MB higher the other way round)
    out_data = np.empty(xd.shape)
    keep = x.requires_grad          # backward reads x² and th whole
    tile = min(TILE, xd.size)
    x2 = np.empty(xd.shape if keep else tile)
    th = np.empty(xd.shape if keep else tile)
    th1 = np.empty(tile)
    xf, of = xd.reshape(-1), out_data.reshape(-1)
    x2f, thf = x2.reshape(-1), th.reshape(-1)
    for i in range(0, xf.size, TILE):
        xt, ot = xf[i:i + TILE], of[i:i + TILE]
        j, n = (i if keep else 0), xt.size
        a, t = x2f[j:j + n], thf[j:j + n]
        np.multiply(xt, xt, out=a)  # cube as x2 * x: numpy's pow is slow
        np.multiply(a, xt, out=t)
        t *= 0.044715
        t += xt
        t *= _GELU_C
        np.tanh(t, out=t)
        np.multiply(xt, 0.5, out=ot)
        ot *= np.add(t, 1.0, out=th1[:n])

    def bw(g):
        # d = 0.5 (1 + th) + 0.5 x (1 - th²) du,  du = c (1 + 3 · 0.044715 x²)
        du = x2 * (3 * 0.044715)
        du += 1.0
        du *= _GELU_C
        right = xd * 0.5
        sech2 = np.square(th)
        np.subtract(1.0, sech2, out=sech2)
        right *= sech2
        right *= du
        d = th + 1.0
        d *= 0.5
        d += right
        d *= g
        return (d,)

    return Tensor._from_op(out_data, (x,), bw)


def where_rows(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select rows of `a` where mask is set, rows of `b` elsewhere.

    mask is a constant boolean vector over rows; gradients route to the
    selected source only.
    """
    a, b = _wrap(a), _wrap(b)
    m = np.asarray(mask, dtype=bool).reshape(-1, 1)
    out_data = np.where(m, a.data, b.data)

    def bw(g):
        return (np.where(m, g, 0.0), np.where(m, 0.0, g))

    return Tensor._from_op(out_data, (a, b), bw)


# -- gradient checking -------------------------------------------------------

def grad_check(f, params: list[Tensor], step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f is a scalar-valued function of no arguments that reads `params`;
    error is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (0.0 < step <= 1e-3):
        raise ValueError("step must be in (0, 1e-3]")
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
