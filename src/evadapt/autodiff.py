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
    if not np.all(np.isfinite(a)):
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))

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
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
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

    def reshape(self, *shape):
        old = self.shape
        out_data = self.data.reshape(*shape)
        return Tensor._from_op(out_data, (self,), lambda g: (g.reshape(old),))

    @property
    def T(self):
        return Tensor._from_op(self.data.T, (self,), lambda g: (g.T,))

    def transpose(self, axes):
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)
        return Tensor._from_op(out_data, (self,),
                               lambda g: (g.transpose(inv),))

    def __getitem__(self, key):
        out_data = self.data[key]
        basic = all(isinstance(k, (int, np.integer, slice))
                    for k in (key if isinstance(key, tuple) else (key,)))

        def bw(g):
            full = np.zeros_like(self.data)
            if basic:
                full[key] = g
            else:
                np.add.at(full, key, g)  # an index array may repeat an element
            return (full,)

        return Tensor._from_op(out_data, (self,), bw)

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
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            for p, g in zip(node._parents, grads):
                if not p.requires_grad:
                    continue
                p.grad = g if p.grad is None else p.grad + g

    def zero_grad(self):
        self.grad = None


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- free-function ops ------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.shape[-1] != b.shape[0 if b.ndim == 2 else -2]:
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


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by row-max subtraction."""
    x = _wrap(x)
    check_finite(x.data, "softmax input")
    s = x.data - x.data.max(axis=-1, keepdims=True)   # fresh buffer
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return Tensor._from_op(s, (x,), bw)


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
        n = x.data.shape[-1]
        gxhat = g * gain.data
        gx = inv / n * (
            n * gxhat
            - gxhat.sum(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True)
        )
        ggain = _unbroadcast(g * xhat, gain.shape)
        gbias = _unbroadcast(g, bias.shape)
        return (gx, ggain, gbias)

    return Tensor._from_op(out_data, (x, gain, bias), bw)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU; the backward differentiates the approximation."""
    x = _wrap(x)
    x2 = x.data * x.data     # cube as x2 * x: numpy's pow is generic and slow
    th = np.tanh(_GELU_C * (x.data + 0.044715 * (x2 * x.data)))
    out_data = 0.5 * x.data * (1.0 + th)

    def bw(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        d = 0.5 * (1.0 + th) + 0.5 * x.data * (1.0 - th ** 2) * du
        return (g * d,)

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
