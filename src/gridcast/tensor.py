"""Dense float64 tensor with reverse-mode automatic differentiation.

The graph is closure-based and lives in small nodes, not in the tensors:
every op output that needs a gradient owns a node holding its vjp
(vector-Jacobian product) function and the nodes of its parents, None for a
parent that needs no gradient. ``backward()`` walks the nodes once in reverse
topological order and accumulates gradients into the ``.grad`` of
requires_grad leaves. Graphs are meant to be rebuilt per forward pass.

What a graph keeps alive is what its vjps captured and nothing else, and a
vjp captures an array only for the gradient of a parent that needs one: it
returns None, which ``backward()`` skips, for a parent that needs none, and
forms no product for it. So ``h * 0.5`` keeps nothing of ``h``, and
``Tensor(patches) @ W`` keeps the patches for W's gradient but not W. A node
does not refer to its output tensor, so an intermediate tensor that no caller
holds, such as a residual sum fed to batch_norm, is freed as soon as its
forward use ends. A leaf's node refers to its tensor weakly: the tensor owns
the node, never the reverse, and a leaf nobody holds any more simply receives
no gradient. Dropping the root of a graph (the loss and every tensor computed
on the way to it) frees the whole graph by reference counting.

A vjp may also recompute what it needs rather than keep it: it can rebuild a
small graph from the arrays it kept and pull its gradient back with
``backward(grad)``, which seeds a non-scalar root; ``backward`` runs every vjp
with graph building on, even inside ``no_grad``. ``attention.attention_heads``
keeps its layer input this way, and ``checkpoint`` makes any pure function one
such node.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction inside the block.
    ``Tensor.backward`` turns it back on while it runs the vjps."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev, _GRAD_ENABLED = _GRAD_ENABLED, False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _sum_over(axes: tuple | range, *arrays: np.ndarray) -> np.ndarray:
    """Sum over ``axes`` of the elementwise product of ``arrays`` (of one
    array: its plain sum), the summed axes dropped.

    One ``np.einsum`` over all the axes at once, in any memory layout and
    with no product temporary. numpy's multi-axis ``sum`` pays a fixed cost
    per axis and per output row that outweighs the adds at this model's
    feature widths (D = 16 at the reference config). Over leading axes both
    accumulate row after row in memory order, so the result is the same bit
    for bit.
    """
    index = list(range(arrays[0].ndim))
    operands = [item for a in arrays for item in (a, index)]
    return np.einsum(*operands, [i for i in index if i not in axes])


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = _sum_over(range(extra), grad)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _gelu_slope(x: np.ndarray, t: np.ndarray, k: float, c: float) -> np.ndarray:
    """d gelu / dx = 0.5 (1 + t) + 0.5 x (1 - t^2) k (1 + 3c x^2) for t =
    tanh(k (x + c x^3)), in two buffers; the result is the first."""
    dt = x * (3.0 * c)
    dt *= x
    dt += 1.0
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    slope *= k
    slope *= dt
    slope *= x
    slope *= 0.5
    np.add(t, 1.0, out=dt)
    dt *= 0.5
    dt += slope
    return dt


class _Node:
    """One vertex of the backward graph.

    ``vjp`` maps the output gradient to one gradient per parent; it is None
    for a leaf, whose ``leaf`` is a weak reference to its Tensor. ``parents``
    holds the parents' nodes, None where a parent needs no gradient.
    """

    __slots__ = ("vjp", "parents", "leaf")

    def __init__(self, vjp, parents: tuple, leaf=None):
        self.vjp = vjp
        self.parents = parents
        self.leaf = leaf


class Tensor:
    """n-d float64 array plus optional gradient and graph node."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    @property
    def _vjp(self):
        """The vjp of the op that made this tensor; None without a graph."""
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp) -> None:
        self._node.vjp = vjp

    def _grad_node(self) -> _Node:
        """This tensor's node, created on first use for a requires_grad leaf,
        so each leaf has exactly one node however often it is used."""
        if self._node is None:
            self._node = _Node(None, (), weakref.ref(self))
        return self._node

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _make(cls, data, parents, vjp) -> "Tensor":
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._node = _Node(
                vjp, tuple(p._grad_node() if p.requires_grad else None for p in parents)
            )
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
        need_a, need_b = self.requires_grad, other.requires_grad

        def vjp(g):
            return (
                _unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(g, b_shape) if need_b else None,
            )

        return Tensor._make(out_data, (self, other), vjp)

    __radd__ = __add__

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-Tensor._coerce(other))

    def __mul__(self, other):
        other = Tensor._coerce(other)
        a_shape, b_shape = self.shape, other.shape
        # each operand is read only for the other's gradient
        a = self.data if other.requires_grad else None
        b = other.data if self.requires_grad else None

        def vjp(g):
            return (
                None if b is None else _unbroadcast(g * b, a_shape),
                None if a is None else _unbroadcast(g * a, b_shape),
            )

        return Tensor._make(self.data * other.data, (self, other), vjp)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if isinstance(exponent, Tensor):
            raise ShapeError("power supports scalar exponents only")
        p = float(exponent)
        a = self.data

        def vjp(g):
            return (g * p * a ** (p - 1.0),)

        return Tensor._make(a**p, (self,), vjp)

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

        a_shape, b_shape = a.shape, b.shape
        # each operand is read only for the other's gradient
        a_kept = a if other.requires_grad else None
        b_kept = b if self.requires_grad else None

        def vjp(g):
            ga = gb = None
            if b_kept is not None:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(b_kept, -1, -2)), a_shape)
            if a_kept is not None:
                gb = _unbroadcast(np.matmul(np.swapaxes(a_kept, -1, -2), g), b_shape)
            return ga, gb

        return Tensor._make(out_data, (self, other), vjp)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        if axis is None:
            axis = range(self.ndim)
        elif isinstance(axis, int):
            axis = (axis,)
        axes = tuple(a % self.ndim for a in axis)
        shape = self.shape
        out_data = self.data.sum(axis=axes, keepdims=keepdims)

        def vjp(g):
            if not keepdims:
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(out_data, (self,), vjp)

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
        """Softmax along ``axis``, computed on the [rows, L] matrix of its rows.

        The rows are short at this model's sizes (L = 12 patches or 21
        variates at the reference config), where numpy's fixed cost per row
        of a ``max`` or ``sum`` along an axis outweighs the arithmetic. So the
        row max is one ``np.maximum.reduceat`` over the flat rows, exact as
        any max is, and the row sums and the backward's row dot products are
        ``np.einsum`` row reductions. Each row's result depends on that row
        alone, not on its position or on its buffer's alignment: cutting the
        rows into blocks changes no bit. The vjp keeps only the output.
        """
        if not (-self.ndim <= axis < self.ndim):
            raise ShapeError(f"softmax axis {axis} invalid for shape {self.shape}")
        ax = axis % self.ndim
        if not np.isfinite(self.data).all():
            raise NumericError("softmax input contains NaN or inf")
        moved = self.data.swapaxes(ax, -1)  # its own inverse; a no-op for the last axis
        L = moved.shape[-1]
        rows = moved.reshape(-1, L)
        # one output buffer: shift, exponentiate and normalize in place
        s = rows - np.maximum.reduceat(rows.reshape(-1), np.arange(0, rows.size, L))[:, None]
        np.exp(s, out=s)
        s /= np.einsum("ij->i", s)[:, None]
        shape = moved.shape

        def vjp(g):
            g_rows = g.swapaxes(ax, -1).reshape(-1, L)
            gs = g_rows - np.einsum("ij,ij->i", g_rows, s)[:, None]
            gs *= s
            return (gs.reshape(shape).swapaxes(ax, -1),)

        return Tensor._make(s.reshape(shape).swapaxes(ax, -1), (self,), vjp)

    def gelu(self) -> "Tensor":
        """tanh-approximate GELU: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).

        Each pass writes into one of two buffers instead of a fresh
        temporary per operator. The operations and their order are those of
        the formula, so the values are the same bit for bit; the factors of
        0.5 are exact in either order. When a graph is being built, forward
        also forms the derivative (``_gelu_slope``), and the node keeps that
        one array, not x and tanh; backward multiplies it by g.
        """
        k = math.sqrt(2.0 / math.pi)
        c = 0.044715
        x = self.data
        t = x * x  # x**3 takes numpy's slow generic pow
        t *= x
        t *= c
        t += x
        t *= k
        np.tanh(t, out=t)
        # formed before the output, so its temporary is freed by then
        slope = _gelu_slope(x, t, k, c) if _GRAD_ENABLED and self.requires_grad else None
        out_data = t + 1.0
        out_data *= x
        out_data *= 0.5
        return Tensor._make(out_data, (self,), lambda g: (g * slope,))

    # -- backward pass -------------------------------------------------------

    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(leaf), seeded with ``grad``, into every
        requires_grad leaf.

        Without ``grad`` the tensor must be a scalar and the seed is 1;
        ``grad`` of this tensor's shape backpropagates a vector-Jacobian
        product, as ``(self * Tensor(grad)).sum().backward()`` would, bit for
        bit. Gradients flow through a per-call accumulator, so calling
        backward twice on the same graph adds exactly twice the gradient.
        The vjps run with graph building on, so that one may build and walk a
        graph of its own, as ``attention_heads`` and ``checkpoint`` do.
        """
        global _GRAD_ENABLED
        if grad is None:
            if self.size != 1:
                raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.shape:
                raise ShapeError(f"seed gradient shape {grad.shape} != tensor shape {self.shape}")
        if not self.requires_grad:
            return
        root = self._grad_node()
        ordered: list[_Node] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                ordered.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if parent is not None:
                    stack.append((parent, False))

        flowing: dict[int, np.ndarray] = {id(root): grad}
        enabled, _GRAD_ENABLED = _GRAD_ENABLED, True
        try:
            for node in reversed(ordered):
                g = flowing.pop(id(node), None)
                if g is None:
                    continue
                if node.vjp is None:
                    leaf = node.leaf()
                    if leaf is not None and leaf.requires_grad:
                        leaf.grad = g if leaf.grad is None else leaf.grad + g
                    continue
                for parent, pg in zip(node.parents, node.vjp(g)):
                    if parent is not None:
                        held = flowing.get(id(parent))
                        flowing[id(parent)] = pg if held is None else held + pg
        finally:
            _GRAD_ENABLED = enabled


def checkpoint(f, *inputs: Tensor) -> Tensor:
    """``f(*inputs)`` as one graph node that keeps only the inputs' arrays:
    the activation checkpointing of Chen et al. (arXiv 1604.06174).

    Forward runs ``f`` under ``no_grad``, so its ops build no nodes and keep
    nothing. The vjp runs ``f`` again, with a graph, on fresh leaves holding
    the same arrays, each needing a gradient only where its input does, and
    pulls the output gradient back through that graph with ``backward(grad)``;
    an input that needs no gradient gets None and no product. The recompute runs
    the same ops on the same arrays, so every value and gradient repeats bit
    for bit. ``f`` must therefore draw no random numbers and update no state:
    dropout and ``batch_norm`` stay outside it.
    """
    with no_grad():
        out = f(*inputs)
    arrays = [(t.data, t.requires_grad) for t in inputs]

    def vjp(g):
        leaves = [Tensor(a, requires_grad=need) for a, need in arrays]
        f(*leaves).backward(g)
        return tuple(leaf.grad for leaf in leaves)

    return Tensor._make(out.data, inputs, vjp)


# -- layers built from the primitives ---------------------------------------


BN_MOMENTUM = 0.1  # weight of each training batch in the running statistics


@dataclass
class BatchNormState:
    """Running statistics for one batch-norm instance (inference mode)."""

    running_mean: np.ndarray | None = field(default=None)
    running_var: np.ndarray | None = field(default=None)

    def update(self, mean: np.ndarray, var: np.ndarray) -> None:
        if self.running_mean is None:
            self.running_mean = np.zeros_like(mean)
            self.running_var = np.ones_like(var)
        m = BN_MOMENTUM
        self.running_mean = (1.0 - m) * self.running_mean + m * mean
        self.running_var = (1.0 - m) * self.running_var + m * var


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    training: bool,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize each feature (the last axis) over all the other axes.

    Training mode uses biased batch statistics and folds them into `state`;
    inference mode uses the running statistics. Either mode normalizes in one
    graph node, in training mode differentiable through the batch statistics
    by the closed form inv_std * (g - mean(g) - x_hat * mean(g * x_hat))
    (Ioffe & Szegedy, arXiv 1502.03167); the affine map stays ordinary ops.
    """
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(
            f"batch_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"feature extent {x.shape[-1]}"
        )
    axes = range(x.ndim - 1)
    kept = (1,) * (x.ndim - 1) + (x.shape[-1],)
    if training:
        inv_n = 1.0 / math.prod(x.shape[:-1])
        mu = _sum_over(axes, x.data).reshape(kept) * inv_n
        centered = x.data - mu
        var = _sum_over(axes, centered, centered).reshape(kept) * inv_n
        inv_std = (var + eps) ** -0.5
        x_hat_data = centered * inv_std
        state.update(mu, var)

        def vjp(g):
            gx = g - _sum_over(axes, g).reshape(kept) * inv_n
            gx -= x_hat_data * (_sum_over(axes, g, x_hat_data).reshape(kept) * inv_n)
            gx *= inv_std
            return (gx,)

    else:
        if state.running_mean is None:
            rm, rv = np.zeros(kept), np.ones(kept)
        else:
            rm, rv = state.running_mean, state.running_var
        inv_std = 1.0 / np.sqrt(rv + eps)
        x_hat_data = (x.data - rm) * inv_std

        def vjp(g):
            return (g * inv_std,)

    return Tensor._make(x_hat_data, (x,), vjp) * gamma + beta


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0.

    One graph node that keeps only its boolean keep-mask, an eighth of the
    bytes of a float64 mask, and rebuilds the scaled mask
    ``keep * (1 / (1 - rate))`` in backward: the same bits as
    ``keep / (1 - rate)``, since both round 1 / (1 - rate) once.
    """
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate {rate} outside [0, 1)")
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)

    def vjp(g):
        mask = keep * scale
        mask *= g
        return (mask,)

    out = keep * scale
    out *= x.data
    return Tensor._make(out, (x,), vjp)


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
