"""Minimal reverse-mode differentiation over dense numpy arrays.

A Value wraps an ndarray plus its gradient accumulator and the rule for
pushing an upstream gradient to its parents. The engine has no arithmetic of
its own: every node with a rule is made by a layer or a loss, whose rule
returns one gradient per parent, shaped like that parent. ``backward`` walks
the graph once in reverse topological order. Only leaves (values without a
rule, such as parameters) keep their gradient afterwards, and a constant leaf
(such as a model input) gets none: an intermediate node's gradient is dropped
once its rule has pushed it on, and is never copied. A rule must not write to
the gradient it is handed.

``backward`` consumes the graph: once a node's rule has run, the node drops
its rule and its parents, so an array that rules captured is freed as soon
as the last rule reading it has run. A consumed node is no leaf, and a
second ``backward`` that reaches one raises ``GraphError``.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError


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

    def accumulate(self, grad):
        """Add ``grad`` to this node's gradient.

        A leaf keeps a copy, so the gradients an optimizer reads are owned,
        writable arrays. An intermediate node keeps its first gradient as
        given: no backward rule writes to the gradient it is handed, and a
        second gradient is added into a new array. It reads only the
        gradient, since a model drops an intermediate node's ``data`` (see
        ``layers.ModelGraph.forward``).
        """
        grad = np.asarray(grad, dtype=np.float64)
        if self.grad is None:
            self.grad = grad.copy() if self.backward_rule is None else grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self):
        self.grad = None

    # -- graph traversal -----------------------------------------------------

    def _topo_order(self):
        """Every node of the graph, each after its parents."""
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
            if node.parents is None:
                raise GraphError("backward over a graph that an earlier backward consumed")
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return order

    def backward(self):
        """Accumulate gradients of this (scalar) value into the graph's leaves.

        Nodes leave the topological order as their rules run, and each drops
        its rule, parents and ``grad`` then, so a backward pass holds at most
        the gradients still in flight and the arrays that pending rules read.
        """
        order = self._topo_order()
        if self.data is None or self.data.size != 1:
            raise GraphError("backward requires a scalar value")
        self.grad = np.ones_like(self.data)
        while order:
            order.pop()._consume()

    def _consume(self):
        """Push this node's gradient to its parents; drop its rule, parents and grad."""
        rule, parents, grad = self.backward_rule, self.parents, self.grad
        if rule is None:
            return
        self.backward_rule = self.parents = self.grad = None
        if grad is None:
            return
        parent_grads = rule(grad)
        del rule, grad  # the arrays only this rule read are freed here
        for parent, pg in zip(parents, parent_grads):
            if pg is not None and parent.requires_grad:
                parent.accumulate(pg)

    def __repr__(self):
        return f"Value(shape={None if self.data is None else self.data.shape})"
