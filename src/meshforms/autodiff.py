"""Reverse-mode differentiation down a chain of dense numpy arrays.

A Value wraps an ndarray, its gradient and the rule that pushes an upstream
gradient to its parents. The engine has no arithmetic of its own: each rule
node is made by a layer or a loss, whose rule returns one gradient per
parent, shaped like that parent. A model is a sequence of layers, so a
training step's graph is a chain: a rule node's first parent is its input,
and any later parent is a leaf (a parameter). ``backward`` walks the chain
once from the loss down, handing each input the gradient its consumer's rule
returned, and consumes it: each node drops its rule and parents as the rule
runs, which frees the arrays the rule captured. Only leaves keep a gradient,
a copy; a constant leaf (a model input) gets none. A rule must not write to
the gradient it is handed. A consumed node, or a rule node after a node's
first parent (a branch the walk would drop), raises ``GraphError``; the tests
keep a general graph walk for their composed oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError


class Value:
    """Array node of the chain."""

    __slots__ = ("data", "grad", "parents", "backward_rule", "requires_grad")

    def __init__(self, data, parents=(), backward_rule=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.backward_rule = backward_rule
        self.requires_grad = True

    @staticmethod
    def constant(data):
        """A leaf that takes no gradient, such as a model input: a backward
        rule may return None for it and skip computing its gradient."""
        value = Value(data)
        value.requires_grad = False
        return value

    def accumulate(self, grad):
        """Add ``grad`` to this leaf's gradient. The first is copied, so the
        gradients an optimizer reads are owned, writable arrays."""
        if self.requires_grad and grad is not None:
            grad = np.asarray(grad, dtype=np.float64)
            self.grad = grad.copy() if self.grad is None else self.grad + grad

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate gradients of this (scalar) value into the chain's leaves."""
        if self.data is None or self.data.size != 1:
            raise GraphError("backward requires a scalar value")
        node, grad = self, np.ones_like(self.data)
        while grad is not None:  # None: the rule skipped a constant input
            rule, parents = node.backward_rule, node.parents
            if parents is None:
                raise GraphError("backward over a graph that an earlier backward consumed")
            if rule is None:
                node.accumulate(grad)
                return
            if any(p.backward_rule is not None for p in parents[1:]):
                raise GraphError("backward over a graph that is not a chain")
            node.backward_rule = node.parents = None
            grad, *param_grads = rule(grad)
            del rule  # the arrays only this rule read are freed here
            node, *params = parents
            for param, param_grad in zip(params, param_grads):
                param.accumulate(param_grad)
