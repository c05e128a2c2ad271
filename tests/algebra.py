"""The composed oracle: a broadcasting operator algebra over graph nodes.

Each function makes one graph node from Values or arrays (an array becomes a
constant leaf) and gives it the textbook rule for its operation; broadcasting
is undone by summing the gradient over the broadcast axes. The library's
layers and losses are one node each, and their rules must give bit for bit
what these compositions give. The ``composed_*`` functions spell out each of
those layers and losses in this algebra.

The compositions are graphs, not chains (``c * c`` names one parent twice,
and the composed norm reaches ``x`` along two paths), so their nodes are this
module's ``Value``, whose ``backward`` is a general graph walk:
``graph_backward``. It walks the library's nodes too, so a layer's one node
and its composition are differentiated by the same engine.
"""

import numpy as np

import meshforms
from meshforms import GraphError
from meshforms._kernels import INSTANCE_NORM_EPS


def _topo_order(root):
    """Every node of the graph, each after its parents."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node.parents is None:
            raise GraphError("backward over a graph that an earlier backward consumed")
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _accumulate(node, grad):
    """Add ``grad`` to ``node``'s gradient.

    A leaf keeps a copy, so the gradients an optimizer reads are owned,
    writable arrays. An intermediate node keeps its first gradient as given:
    no backward rule writes to the gradient it is handed, and a second
    gradient is added into a new array.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if node.grad is None:
        node.grad = grad.copy() if node.backward_rule is None else grad
    else:
        node.grad = node.grad + grad


def _consume(node):
    """Push ``node``'s gradient to its parents; drop its rule, parents and grad."""
    rule, parents, grad = node.backward_rule, node.parents, node.grad
    if rule is None:
        return
    node.backward_rule = node.parents = node.grad = None
    if grad is None:
        return
    parent_grads = rule(grad)
    del rule, grad
    for parent, pg in zip(parents, parent_grads):
        if pg is not None and parent.requires_grad:
            _accumulate(parent, pg)


def graph_backward(root):
    """Accumulate gradients of the scalar ``root`` into its graph's leaves.

    The graph is walked once in reverse topological order, so a node reached
    along several paths pushes the sum of their gradients once. Only leaves
    keep their gradient; every rule node is consumed as in the library.
    """
    order = _topo_order(root)
    if root.data is None or root.data.size != 1:
        raise GraphError("backward requires a scalar value")
    root.grad = np.ones_like(root.data)
    while order:
        _consume(order.pop())


class Value(meshforms.Value):
    """A node of the composed algebra; ``backward`` walks its whole graph."""

    __slots__ = ()

    def backward(self):
        graph_backward(self)


def lift(x):
    return x if isinstance(x, meshforms.Value) else Value.constant(x)


def _unbroadcast(grad, shape):
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ----------------------------------------------------------------


def add(a, b):
    a, b = lift(a), lift(b)
    return Value(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a, b):
    a, b = lift(a), lift(b)
    return Value(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a, b):
    a, b = lift(a), lift(b)
    return Value(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a, b):
    a, b = lift(a), lift(b)
    return Value(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def matmul(a, b):
    a, b = lift(a), lift(b)

    def rule(g):
        if a.data.ndim == 1:
            return g @ b.data.T, np.outer(a.data, g)
        return g @ b.data.T, a.data.T @ g

    return Value(a.data @ b.data, (a, b), rule)


# -- elementwise functions -----------------------------------------------------


def relu(a):
    a = lift(a)
    mask = a.data > 0.0
    return Value(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def exp(a):
    a = lift(a)
    out_data = np.exp(a.data)
    return Value(out_data, (a,), lambda g: (g * out_data,))


def log(a):
    a = lift(a)
    return Value(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    a = lift(a)
    out_data = np.sqrt(a.data)
    return Value(out_data, (a,), lambda g: (g / (2.0 * out_data),))


# -- reductions ----------------------------------------------------------------


def total(a, axis=None, keepdims=False):
    """The sum over ``axis`` (every axis when None)."""
    a = lift(a)

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape),)

    return Value(a.data.sum(axis=axis, keepdims=keepdims), (a,), rule)


def mean(a, axis=None, keepdims=False):
    a = lift(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(total(a, axis=axis, keepdims=keepdims), 1.0 / count)


# -- the library's layers and losses, composed ---------------------------------


def composed_instance_norm(x, gamma, beta):
    mu = mean(x, axis=0, keepdims=True)
    centered = sub(x, mu)
    var = mean(mul(centered, centered), axis=0, keepdims=True)
    normed = div(centered, sqrt(add(var, INSTANCE_NORM_EPS)))
    return add(mul(normed, gamma), beta)


def composed_global_average_pool(x):
    return mean(x, axis=0, keepdims=True)


def composed_dense(x, weights, bias):
    return add(matmul(x, weights), bias)


def composed_cross_entropy(logits, labels):
    n, k = logits.data.shape
    z = sub(logits, logits.data.max(axis=1, keepdims=True))
    log_norm = log(total(exp(z), axis=1, keepdims=True))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    return mean(sub(log_norm, total(mul(z, onehot), axis=1, keepdims=True)))


def composed_mse(pred, target):
    diff = sub(pred, target)
    return mean(mul(diff, diff))


def weighted_sum(out, weights):
    """sum(out * weights): a scalar whose gradient at ``out`` is ``weights``."""
    return total(mul(out, weights))
