"""Minimal reverse-mode differentiation over dense numpy arrays.

A Value wraps an ndarray plus its gradient accumulator and the rule for
pushing an upstream gradient to its parents. ``backward`` walks the graph
once in reverse topological order. Only leaves (values without a rule, such
as parameters) keep their gradient afterwards, and a constant leaf (such as
a model input) gets none: an intermediate node's gradient is dropped once its
rule has pushed it on, and is never copied. A rule must not write to the
gradient it is handed. Broadcasting in the arithmetic ops is undone by
summing the gradient over the broadcast axes.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError


def _unbroadcast(grad, shape):
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


class Value:
    """Array node of the computation graph."""

    __slots__ = ("data", "grad", "parents", "backward_rule", "requires_grad")

    def __init__(self, data, parents=(), backward_rule=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.backward_rule = backward_rule
        self.requires_grad = True

    @staticmethod
    def constant(data):
        """A leaf that takes no gradient, such as a model input.

        A backward rule may return None for it and skip computing its
        gradient; ``backward`` gives it none either way.
        """
        value = Value(data)
        value.requires_grad = False
        return value

    @property
    def shape(self):
        return self.data.shape

    @staticmethod
    def ensure(x):
        return x if isinstance(x, Value) else Value.constant(x)

    def accumulate(self, grad):
        """Add ``grad`` to this node's gradient.

        A leaf keeps a copy, so the gradients an optimizer reads are owned,
        writable arrays. An intermediate node keeps its first gradient as
        given: no backward rule writes to the gradient it is handed, and a
        second gradient is added into a new array.
        """
        grad = np.asarray(grad, dtype=np.float64).reshape(self.data.shape)
        if self.grad is None:
            self.grad = grad.copy() if self.backward_rule is None else grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self):
        self.grad = None

    # -- graph traversal -----------------------------------------------------

    def _topo_order(self):
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return order

    def backward(self):
        """Accumulate gradients of this (scalar) value into the graph's leaves.

        An intermediate node's ``grad`` is set back to None once its rule has
        run, so a backward pass holds at most the gradients still in flight.
        """
        if self.data.size != 1:
            raise GraphError("backward requires a scalar value")
        order = self._topo_order()
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node.backward_rule is None or node.grad is None:
                continue
            parent_grads = node.backward_rule(node.grad)
            node.grad = None
            for parent, pg in zip(node.parents, parent_grads):
                if pg is not None and parent.requires_grad:
                    parent.accumulate(pg)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = Value.ensure(other)
        out_data = self.data + other.data
        return Value(
            out_data,
            (self, other),
            lambda g: (
                _unbroadcast(g, self.data.shape),
                _unbroadcast(g, other.data.shape),
            ),
        )

    __radd__ = __add__

    def __neg__(self):
        return Value(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = Value.ensure(other)
        out_data = self.data - other.data
        return Value(
            out_data,
            (self, other),
            lambda g: (
                _unbroadcast(g, self.data.shape),
                _unbroadcast(-g, other.data.shape),
            ),
        )

    def __rsub__(self, other):
        return Value.ensure(other) - self

    def __mul__(self, other):
        other = Value.ensure(other)
        out_data = self.data * other.data
        return Value(
            out_data,
            (self, other),
            lambda g: (
                _unbroadcast(g * other.data, self.data.shape),
                _unbroadcast(g * self.data, other.data.shape),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Value.ensure(other)
        out_data = self.data / other.data
        return Value(
            out_data,
            (self, other),
            lambda g: (
                _unbroadcast(g / other.data, self.data.shape),
                _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape),
            ),
        )

    def __matmul__(self, other):
        other = Value.ensure(other)
        a, b = self.data, other.data
        out_data = a @ b

        def rule(g):
            if a.ndim == 1:
                ga = g @ b.T
                gb = np.outer(a, g)
            else:
                ga = g @ b.T
                gb = a.T @ g
            return ga, gb

        return Value(out_data, (self, other), rule)

    # -- elementwise functions -------------------------------------------------

    def relu(self):
        mask = self.data > 0.0
        return Value(np.where(mask, self.data, 0.0), (self,), lambda g: (g * mask,))

    def exp(self):
        out_data = np.exp(self.data)
        return Value(out_data, (self,), lambda g: (g * out_data,))

    def log(self):
        return Value(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return Value(out_data, (self,), lambda g: (g / (2.0 * out_data),))

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def rule(g):
            if axis is None:
                return (np.broadcast_to(g, self.data.shape),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.data.shape),)

        return Value(out_data, (self,), rule)

    def mean(self, axis=None, keepdims=False):
        count = (
            self.data.size
            if axis is None
            else self.data.shape[axis]
        )
        summed = self.sum(axis=axis, keepdims=keepdims)
        return summed * (1.0 / count)

    def __repr__(self):
        return f"Value(shape={self.data.shape})"
