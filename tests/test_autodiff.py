"""Reverse-mode engine: graph traversal, and finite-difference checks of the
operator algebra the tests keep as the composed oracle."""

import numpy as np
import pytest

from meshforms import GraphError, Value

from algebra import add, div, exp, log, matmul, mean, mul, relu, sqrt, sub, total
from conftest import finite_difference


def check_grad(build, *arrays, h=1e-5, tol=1e-6):
    values = [Value(a) for a in arrays]
    out = build(*values)
    out.backward()
    for value, array in zip(values, arrays):
        fd = finite_difference(lambda: float(build(*(Value(a) for a in arrays)).data), array, h)
        denom = max(np.max(np.abs(fd)), np.max(np.abs(value.grad)), 1e-8)
        assert np.max(np.abs(value.grad - fd)) / denom < tol


class TestOps:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add_sub_mul_div(self):
        a = self.rng.normal(size=(4, 3))
        b = self.rng.normal(size=(4, 3)) + 3.0
        check_grad(lambda x, y: total(div(mul(add(x, y), sub(x, y)), y)), a, b)

    def test_broadcasting(self):
        a = self.rng.normal(size=(5, 3))
        b = self.rng.normal(size=(1, 3))
        check_grad(lambda x, y: total(add(mul(x, y), y)), a, b)
        c = self.rng.normal(size=3)
        check_grad(lambda x, y: total(add(x, y)), a, c)

    def test_matmul_2d(self):
        a = self.rng.normal(size=(4, 3))
        b = self.rng.normal(size=(3, 2))
        check_grad(lambda x, y: total(matmul(x, y)), a, b)

    def test_matmul_vector(self):
        a = self.rng.normal(size=3)
        b = self.rng.normal(size=(3, 2))
        check_grad(lambda x, y: total(matmul(x, y)), a, b)

    def test_relu(self):
        a = self.rng.normal(size=(6, 2)) + 0.05  # keep away from the kink
        check_grad(lambda x: total(mul(relu(x), x)), a)

    def test_exp_log_sqrt(self):
        a = np.abs(self.rng.normal(size=(3, 3))) + 0.5
        check_grad(lambda x: total(add(add(exp(x), log(x)), sqrt(x))), a)

    def test_reductions(self):
        a = self.rng.normal(size=(4, 3))
        check_grad(lambda x: total(x), a)
        check_grad(lambda x: mean(x), a)
        check_grad(lambda x: total(mul(mean(x, axis=0), mean(x, axis=0))), a)
        check_grad(lambda x: total(mul(total(x, axis=1, keepdims=True), x)), a)


class TestGraph:
    def test_diamond_visits_node_once(self):
        x = Value(np.array(2.0))
        y = mul(x, x)
        z = add(y, y)
        z.backward()
        assert np.allclose(x.grad, 8.0)

    def test_grad_accumulates_across_backwards(self):
        x = Value(np.array(3.0))
        mul(x, x).backward()
        first = x.grad.copy()
        mul(x, x).backward()
        assert np.allclose(x.grad, 2 * first)

    def test_only_leaves_keep_gradients(self):
        x = Value(np.array([1.0, -2.0]))
        w = Value(np.array([3.0, 0.5]))
        hidden = relu(mul(x, w))
        loss = total(hidden)
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        assert np.array_equal(x.grad, [3.0, 0.0])
        assert np.array_equal(w.grad, [1.0, 0.0])

    def test_only_leaf_gradients_are_copied(self):
        x = Value(np.array([1.0, 2.0]))
        handed, returned = [], []

        def rule(g):
            handed.append(g)
            returned.append(g * 2.0)
            return (returned[-1],)

        hidden = Value(x.data * 2.0, (x,), rule)
        upstream = np.array([3.0, 4.0])
        Value(np.array(0.0), (hidden,), lambda g: (upstream,)).backward()
        assert np.shares_memory(handed[0], upstream)
        assert not np.shares_memory(x.grad, returned[0])
        assert x.grad.flags.owndata and x.grad.flags.writeable

    def test_zero_grad(self):
        x = Value(np.array(3.0))
        mul(x, x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Value(np.zeros(3))
        with pytest.raises(GraphError):
            x.backward()

    def test_constant_loss_has_zero_gradients(self):
        x = Value(np.ones((2, 2)))
        loss = total(mul(x, 0.0))
        loss.backward()
        assert not x.grad.any()

    def test_loss_scale_doubles_gradients(self):
        a = np.random.default_rng(1).normal(size=(3, 2))
        x1 = Value(a)
        total(mul(x1, x1)).backward()
        x2 = Value(a)
        mul(total(mul(x2, x2)), 2.0).backward()
        assert np.allclose(x2.grad, 2.0 * x1.grad)

    def test_deep_chain_is_iterative(self):
        x = Value(np.array(1.0))
        y = x
        for _ in range(5000):
            y = add(y, 0.0)
        y.backward()
        assert np.allclose(x.grad, 1.0)
