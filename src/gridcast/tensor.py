"""Dense float64 tensor with reverse-mode automatic differentiation.

The graph is closure-based and lives in small nodes, not in the tensors:
every op output that needs a gradient owns a node holding its vjp
(vector-Jacobian product) function and the nodes of its parents, None for a
parent that needs no gradient. ``backward()`` walks the nodes once in reverse
topological order and accumulates gradients into the ``.grad`` of
requires_grad leaves. Graphs are meant to be rebuilt per forward pass.

What a graph keeps alive is what its vjps captured and nothing else. A node
does not refer to its output tensor, so an intermediate tensor that no caller
holds, such as the raw attention scores that softmax consumes or a residual
sum fed to batch_norm, is freed as soon as its forward use ends. A leaf's node
refers to its tensor weakly: the tensor owns the node, never the reverse, and
a leaf nobody holds any more simply receives no gradient. Dropping the root
of a graph (the loss and every tensor computed on the way to it) frees the
whole graph by reference counting.
"""

from __future__ import annotations

import math
import weakref
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


class _RowGrad:
    """What a row slice's vjp sends its parent: ``g`` for rows [start, stop)
    of a parent of ``shape``, zero elsewhere. ``backward()`` scatters it into
    one buffer per parent, so slicing a tensor into k blocks costs one
    parent-sized buffer rather than k zero-padded ones."""

    __slots__ = ("start", "stop", "shape", "g")

    def __init__(self, start: int, stop: int, shape: tuple, g: np.ndarray):
        self.start, self.stop, self.shape, self.g = start, stop, shape, g


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

    @property
    def _parents(self) -> tuple:
        """Nodes of the parents of the op that made this tensor; empty for a
        leaf and for a tensor built without a graph."""
        return () if self._node is None else self._node.parents

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

    def rows(self, start: int, stop: int) -> "Tensor":
        """Rows [start, stop) of axis 0, as a view of this tensor's data.

        All rows are this tensor itself, so slicing it whole adds no node.
        """
        if self.ndim == 0 or not 0 <= start < stop <= self.shape[0]:
            raise ShapeError(f"row slice [{start}:{stop}] invalid for shape {self.shape}")
        shape = self.shape
        if stop - start == shape[0]:
            return self

        def vjp(g):
            return (_RowGrad(start, stop, shape, g),)

        return Tensor._make(self.data[start:stop], (self,), vjp)

    @staticmethod
    def concat_rows(parts) -> "Tensor":
        """Concatenate along axis 0; the vjp hands each part a view of g.

        A single part is returned as it is, with no node and no copy.
        """
        parts = tuple(parts)
        if len(parts) == 1:
            return parts[0]
        try:
            data = np.concatenate([p.data for p in parts], axis=0)
        except ValueError as exc:
            shapes = [p.shape for p in parts]
            raise ShapeError(f"cannot concatenate rows of shapes {shapes}") from exc
        bounds = np.cumsum([0] + [p.shape[0] for p in parts]).tolist()

        def vjp(g):
            return tuple(g[a:b] for a, b in zip(bounds, bounds[1:]))

        return Tensor._make(data, parts, vjp)

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
        0.5 are exact in either order.
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
        out_data = t + 1.0
        out_data *= x
        out_data *= 0.5

        def vjp(g):
            # dt = (1 - t^2) k (1 + 3c x^2); grad = g (0.5 (1 + t) + 0.5 x dt)
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
            dt *= g
            return (dt,)

        return Tensor._make(out_data, (self,), vjp)

    # -- backward pass -------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        Gradients flow through a per-call accumulator, so calling backward
        twice on the same graph adds exactly twice the gradient. A row
        slice's gradient is added into its parent's buffer in place; a buffer
        that a vjp returned is copied first, since it may be another
        parent's gradient too.
        """
        if self.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
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

        flowing: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        owned: set[int] = set()  # keys whose buffer backward allocated itself
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
                if parent is None:
                    continue
                key = id(parent)
                held = flowing.get(key)
                if type(pg) is _RowGrad:
                    if held is None:
                        held = np.zeros(pg.shape)
                    elif key not in owned:
                        # a vjp may have handed this same array to another parent
                        held = held.copy()
                    held[pg.start:pg.stop] += pg.g
                    owned.add(key)
                elif held is not None:
                    held = held + pg
                    owned.add(key)
                else:
                    held = pg
                flowing[key] = held


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
    axes = tuple(range(x.ndim - 1)) if axes is None else Tensor._norm_axes(axes, x.ndim)
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(
            f"batch_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"feature extent {x.shape[-1]}"
        )
    kept = tuple(1 if a in axes else n for a, n in enumerate(x.shape))
    if training:
        inv_n = 1.0 / math.prod(x.shape[a] for a in axes)
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

        x_hat = Tensor._make(x_hat_data, (x,), vjp)
    else:
        if state.running_mean is None:
            rm = np.zeros(kept)
            rv = np.ones(kept)
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
