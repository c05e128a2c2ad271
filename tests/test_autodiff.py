"""Reverse-mode engines: the library's chain walk, the oracle's graph walk
(``algebra.graph_backward``) it is checked against, and finite-difference
checks of the operator algebra the tests keep as the composed oracle.

``TestOps`` and most of ``TestGraph`` differentiate compositions of the
algebra, whose nodes run the oracle's graph walk; a case whose root is a
library ``Value`` runs the chain walk. ``TestChain`` holds the library's own
cases."""

import sys

import numpy as np
import pytest

from meshforms import (
    Dense,
    GlobalAveragePool,
    GraphError,
    InstanceNorm,
    MeshConv,
    ModelGraph,
    Pool,
    ReLU,
    Unpool,
    Value,
    build_edge_topology,
    cross_entropy,
    mse,
)
from meshforms.layers import _LAYER_TYPES, MeshContext

from algebra import add, div, exp, graph_backward, log, matmul, mean, mul, relu, sqrt, sub, total
from conftest import finite_difference, fuzz_corpus


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


@pytest.fixture(scope="module")
def mesh_topology():
    return build_edge_topology(fuzz_corpus(1, seed=23, edge_range=(150, 260))[0])


def layer_output(kind, x, topology):
    """The output node of one layer of type ``kind`` on the input node ``x``."""
    ctx = MeshContext(topology)
    channels = x.data.shape[1]
    rng = np.random.default_rng(5)
    if kind == "unpool":
        x = Pool(topology.edge_count - 20)(x, ctx)
    layer = {
        "mesh_conv": lambda: MeshConv(channels, 4, rng),
        "instance_norm": lambda: InstanceNorm(channels),
        "pool": lambda: Pool(topology.edge_count - 20),
        "dense": lambda: Dense(channels, 4, rng),
    }.get(kind, _LAYER_TYPES[kind][1])()
    return layer(x, ctx)


def two_step_gradients(engine, model, steps):
    """Bytes of every parameter gradient after one backward per (features,
    topology, loss) step, under ``engine``, with no ``zero_grad`` between."""
    for features, topology, loss_of in steps:
        out, _ = model.forward(features, topology)
        engine(loss_of(out))
    return {name: value.grad.tobytes() for name, value in model.parameters().items()}


class TestChain:
    """The library's walk down the layer chain."""

    @pytest.mark.parametrize("decoder", [False, True], ids=["classifier", "encoder_decoder"])
    def test_two_backwards_accumulate_the_oracle_bits(self, decoder):
        """Two backwards into one set of parameters, as ``train`` sums a batch,
        give bit for bit what the oracle's graph walk gives."""
        meshes = fuzz_corpus(2, seed=31, edge_range=(150, 260))
        rng = np.random.default_rng(7)
        steps = []
        for mesh in meshes:
            topology = build_edge_topology(mesh)
            features = rng.normal(size=(topology.edge_count, 3))
            if decoder:
                target = rng.normal(size=(topology.edge_count, 2))
                steps.append((features, topology, lambda out, t=target: mse(out, t)))
            else:
                steps.append((features, topology, lambda out: cross_entropy(out, 1)))

        def model():
            rng = np.random.default_rng(11)
            encoder = [MeshConv(3, 5, rng), InstanceNorm(5), ReLU(), Pool(120), MeshConv(5, 4, rng)]
            head = Unpool() if decoder else GlobalAveragePool()
            return ModelGraph(encoder + [head, Dense(4, 2, rng)])

        library = two_step_gradients(lambda loss: loss.backward(), model(), steps)
        oracle = two_step_gradients(graph_backward, model(), steps)
        assert library == oracle

    def test_deep_chain_is_iterative(self):
        x = Value(np.array(1.0))
        y = x
        nodes = []
        for _ in range(5000):
            y = Value(y.data * 1.0, (y,), lambda g: (g,))
            nodes.append(y)
        assert len(nodes) > sys.getrecursionlimit()
        y.backward()
        assert x.grad == 1.0
        assert all(node.parents is None and node.backward_rule is None for node in nodes)

    def test_consumed_chain_raises(self):
        """A walk that reaches a consumed node refuses it before any gradient
        reaches the leaves below."""
        x = Value(np.array([1.0, -2.0]))
        hidden = Value(x.data * 3.0, (x,), lambda g: (g * 3.0,))
        loss = Value(hidden.data.sum(), (hidden,), lambda g: (np.full(2, g),))
        loss.backward()
        assert x.grad.tolist() == [3.0, 3.0]
        with pytest.raises(GraphError, match="consumed"):
            loss.backward()
        with pytest.raises(GraphError, match="consumed"):
            Value(hidden.data.sum(), (hidden,), lambda g: (np.full(2, g),)).backward()
        assert x.grad.tolist() == [3.0, 3.0]

    def test_a_rule_node_after_the_first_parent_is_refused(self):
        """A node whose later parent has a rule is no chain: the walk would
        drop that branch, so it refuses the graph; the oracle's walk follows it."""
        def branching():
            x = Value(np.array(2.0))
            doubled = Value(x.data * 2.0, (x,), lambda g: (g * 2.0,))
            return x, Value(x.data + doubled.data, (x, doubled), lambda g: (g, g))

        _, root = branching()
        with pytest.raises(GraphError, match="not a chain"):
            root.backward()
        x, root = branching()
        graph_backward(root)
        assert x.grad == 3.0

    @pytest.mark.parametrize("kind", list(_LAYER_TYPES) + ["cross_entropy", "mse"])
    def test_every_node_a_layer_or_loss_makes_is_a_chain_link(self, kind, mesh_topology):
        """After its first parent, the input, a layer's or loss's node has
        only leaves: its parameters, or nothing."""
        edges = mesh_topology.edge_count
        rng = np.random.default_rng(3)
        x = add(Value(rng.normal(size=(edges, 3))), 0.0)  # an input with a rule
        if kind == "cross_entropy":
            out = cross_entropy(GlobalAveragePool()(x, None), 2)
        elif kind == "mse":
            out = mse(x, np.zeros((edges, 3)))
        else:
            out = layer_output(kind, x, mesh_topology)
        first, *rest = out.parents
        assert first.backward_rule is not None
        assert all(p.backward_rule is None and p.parents == () for p in rest)
