"""Dense float64 tensor with reverse-mode automatic differentiation.

The graph is closure-based: every op stores its parents and a vjp
(vector-Jacobian product) function. ``backward()`` walks the graph once in
reverse topological order and accumulates gradients into the ``.grad`` of
requires_grad leaves. Graphs are meant to be rebuilt per forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction inside the block."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """n-d float64 array plus optional gradient and graph bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zeros(*shape, requires_grad=False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad=False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @classmethod
    def _make(cls, data, parents, vjp) -> "Tensor":
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        return out

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ----------------------------------------------

    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data + other.data
        a_shape, b_shape = self.shape, other.shape

        def vjp(g):
            return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

        return Tensor._make(out_data, (self, other), vjp)

    __radd__ = __add__

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other):
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        a, b = self.data, other.data

        def vjp(g):
            return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)

        return Tensor._make(a * b, (self, other), vjp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        a, b = self.data, other.data

        def vjp(g):
            return (
                _unbroadcast(g / b, a.shape),
                _unbroadcast(-g * a / (b * b), b.shape),
            )

        return Tensor._make(a / b, (self, other), vjp)

    def __rtruediv__(self, other):
        return Tensor._coerce(other) / self

    def __pow__(self, exponent):
        if isinstance(exponent, Tensor):
            raise ShapeError("power supports scalar exponents only")
        p = float(exponent)
        a = self.data

        def vjp(g):
            return (g * p * a ** (p - 1.0),)

        return Tensor._make(a**p, (self,), vjp)

    def abs(self) -> "Tensor":
        a = self.data
        return Tensor._make(np.abs(a), (self,), lambda g: (g * np.sign(a),))

    # -- matrix product ------------------------------------------------------

    def __matmul__(self, other):
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        try:
            out_data = np.matmul(a, b)
        except ValueError as exc:
            raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}") from exc

        def vjp(g):
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape)
            gb = _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape)
            return ga, gb

        return Tensor._make(out_data, (self, other), vjp)

    def matmul(self, other) -> "Tensor":
        return self @ other

    # -- reductions ----------------------------------------------------------

    @staticmethod
    def _norm_axes(axis, ndim):
        if axis is None:
            return tuple(range(ndim))
        if isinstance(axis, int):
            axis = (axis,)
        return tuple(a % ndim for a in axis)

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        axes = Tensor._norm_axes(axis, self.ndim)
        shape = self.shape
        out_data = self.data.sum(axis=axes, keepdims=keepdims)

        def vjp(g):
            if not keepdims:
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(out_data, (self,), vjp)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        axes = Tensor._norm_axes(axis, self.ndim)
        count = math.prod(self.shape[a] for a in axes)
        return self.sum(axis=axes, keepdims=keepdims) * (1.0 / count)

    # -- shape manipulation --------------------------------------------------

    def reshape(self, *new_shape) -> "Tensor":
        if len(new_shape) == 1 and isinstance(new_shape[0], (tuple, list)):
            new_shape = tuple(new_shape[0])
        if math.prod(new_shape) != self.size:
            raise ShapeError(
                f"cannot reshape {self.shape} ({self.size} elements) to {new_shape}"
            )
        old_shape = self.shape

        def vjp(g):
            return (g.reshape(old_shape),)

        return Tensor._make(self.data.reshape(new_shape), (self,), vjp)

    def permute(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if sorted(axes) != list(range(self.ndim)):
            raise ShapeError(f"invalid permutation {axes} for shape {self.shape}")
        inverse = np.argsort(axes)

        def vjp(g):
            return (g.transpose(inverse),)

        return Tensor._make(self.data.transpose(axes), (self,), vjp)

    # -- nonlinearities ------------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        if not (-self.ndim <= axis < self.ndim):
            raise ShapeError(f"softmax axis {axis} invalid for shape {self.shape}")
        ax = axis % self.ndim
        if not np.isfinite(self.data).all():
            raise NumericError("softmax input contains NaN or inf")
        # one output buffer: shift, exponentiate and normalize in place
        s = self.data - self.data.max(axis=ax, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=ax, keepdims=True)

        def vjp(g):
            gs = g - (g * s).sum(axis=ax, keepdims=True)
            gs *= s
            return (gs,)

        return Tensor._make(s, (self,), vjp)

    def gelu(self) -> "Tensor":
        # tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))
        k = math.sqrt(2.0 / math.pi)
        c = 0.044715
        x = self.data
        t = np.tanh(k * (x + c * (x * x * x)))  # x**3 takes numpy's slow generic pow
        out_data = 0.5 * x * (1.0 + t)

        def vjp(g):
            dt = (1.0 - t * t) * k * (1.0 + 3.0 * c * x * x)
            return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

        return Tensor._make(out_data, (self,), vjp)

    # -- backward pass -------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        Gradients flow through a per-call accumulator, so calling backward
        twice on the same graph adds exactly twice the gradient.
        """
        if self.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")

        ordered: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                ordered.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad:
                    stack.append((parent, False))

        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(ordered):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + pg
                else:
                    flowing[key] = pg


# -- layers built from the primitives ---------------------------------------


@dataclass
class BatchNormState:
    """Running statistics for one batch-norm instance (inference mode)."""

    momentum: float = 0.1
    running_mean: np.ndarray | None = field(default=None)
    running_var: np.ndarray | None = field(default=None)

    def update(self, mean: np.ndarray, var: np.ndarray) -> None:
        if self.running_mean is None:
            self.running_mean = np.zeros_like(mean)
            self.running_var = np.ones_like(var)
        m = self.momentum
        self.running_mean = (1.0 - m) * self.running_mean + m * mean
        self.running_var = (1.0 - m) * self.running_var + m * var


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    training: bool,
    axes: tuple | None = None,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize over `axes` (default: all but the last, the feature axis).

    Training mode uses biased batch statistics and folds them into `state`;
    inference mode uses the running statistics. Fully differentiable in x,
    gamma and beta, including through the batch statistics. In training mode
    the normalization is one graph node whose backward is the closed form
    inv_std * (g - mean(g) - x_hat * mean(g * x_hat)) over `axes`
    (Ioffe & Szegedy, arXiv 1502.03167); the affine map stays ordinary ops.
    """
    if axes is None:
        axes = tuple(range(x.ndim - 1))
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(
            f"batch_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"feature extent {x.shape[-1]}"
        )
    if training:
        inv_n = 1.0 / math.prod(x.shape[a] for a in axes)
        mu = x.data.sum(axis=axes, keepdims=True) * inv_n
        centered = x.data - mu
        var = (centered * centered).sum(axis=axes, keepdims=True) * inv_n
        inv_std = (var + eps) ** -0.5
        x_hat_data = centered * inv_std
        state.update(mu, var)

        def vjp(g):
            gx = g - g.sum(axis=axes, keepdims=True) * inv_n
            gx -= x_hat_data * ((g * x_hat_data).sum(axis=axes, keepdims=True) * inv_n)
            gx *= inv_std
            return (gx,)

        x_hat = Tensor._make(x_hat_data, (x,), vjp)
    else:
        if state.running_mean is None:
            mean_shape = tuple(
                1 if a in axes else n for a, n in enumerate(x.shape)
            )
            rm = np.zeros(mean_shape)
            rv = np.ones(mean_shape)
        else:
            rm, rv = state.running_mean, state.running_var
        x_hat = (x - Tensor(rm)) * Tensor(1.0 / np.sqrt(rv + eps))
    return x_hat * gamma + beta


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate {rate} outside [0, 1)")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


def grad_check(f, inputs: list[Tensor], eps: float = 1e-4) -> float:
    """Max over coordinates of |analytic - numeric| / max(1, |numeric|).

    `f` maps the given tensors to a scalar Tensor; numeric gradients use
    central differences with step `eps` on each coordinate in turn.
    """
    for t in inputs:
        t.data = np.ascontiguousarray(t.data)
        t.requires_grad = True
        t.zero_grad()
    f(inputs).backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(inputs).item()
            flat[i] = orig - eps
            f_minus = f(inputs).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ana_flat[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
