"""
Reverse-mode autodiff in a few dozen lines of numpy
===================================================

Every trainable quantity in gridcast is a Tensor: a float64 numpy array plus
a closure that knows how to push gradients back to its inputs. This walk
shows the whole lifecycle on toy expressions.
"""

import numpy as np

from gridcast.tensor import Tensor, grad_check, no_grad

# A leaf tensor opts into gradient tracking explicitly.
x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)

# Arithmetic builds a graph; nothing is computed twice.
loss = ((x * w).gelu().softmax(axis=0) * x).sum()
print("loss value:", loss.item())

# backward() walks the graph once and deposits gradients on the leaves.
loss.backward()
print("dloss/dx:", x.grad)
print("dloss/dw:", w.grad)

# Calling backward again accumulates, exactly like repeated += on .grad.
loss2 = (x * w).sum()
loss2.backward()
print("after second backward, dloss/dx grew by w:", x.grad)

x.zero_grad()
w.zero_grad()

# Matrix work looks the same. Shapes are checked eagerly and loudly.
A = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
B = Tensor(np.ones((3, 2)), requires_grad=True)
(A @ B).sum().backward()
print("d(sum AB)/dA is row sums of B^T:\n", A.grad)

# Central finite differences validate any scalar-valued composition.
err = grad_check(lambda ts: ((ts[0] @ ts[1]).softmax(axis=-1) ** 2).sum(), [A, B])
print(f"finite-difference max relative error: {err:.2e}")

# no_grad() turns the machinery off for cheap inference passes.
with no_grad():
    silent = (A @ B).sum()
print("built under no_grad, has no graph:", not silent.requires_grad)
