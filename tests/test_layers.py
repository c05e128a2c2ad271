"""Layer semantics, per-layer gradient oracle, optimizers, checkpoints."""

import ctypes
import gc
import json
import math
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshforms import (
    FF,
    Checkpoint,
    CheckpointError,
    ChannelStats,
    DatasetSpec,
    Dense,
    ExperimentConfig,
    GlobalAveragePool,
    GraphError,
    InstanceNorm,
    MeshConv,
    ModelGraph,
    NonFiniteError,
    Optimizer,
    Pool,
    ReLU,
    Unpool,
    Value,
    build_edge_topology,
    cross_entropy,
    extract,
    generate,
    mse,
)
from meshforms.layers import MeshContext, _NormOutput
from meshforms.pipelines import build_model

from algebra import (
    add,
    composed_cross_entropy,
    composed_dense,
    composed_global_average_pool,
    composed_instance_norm,
    composed_mse,
    relu,
    weighted_sum,
)
from conftest import (
    edit_json,
    encode_json,
    finite_difference,
    fuzz_corpus,
    mutate_bytes,
    with_specials,
)


@pytest.fixture(scope="module")
def instance():
    mesh = fuzz_corpus(1, seed=17, edge_range=(150, 260))[0]
    topology = build_edge_topology(mesh)
    rng = np.random.default_rng(0)
    features = rng.normal(size=(topology.edge_count, 3))
    # spread feature norms so pooling selection is stable under h=1e-5 probes
    features *= (1.0 + np.arange(topology.edge_count)[:, None] * 0.01)
    return mesh, topology, features


def assert_close_to_fd(grad, fd, tol=1e-6):
    denom = max(np.max(np.abs(fd)), np.max(np.abs(grad)), 1e-8)
    assert np.max(np.abs(grad - fd)) / denom < tol


def layer_gradcheck(layer, features, topology):
    """Probe-weighted output; checks input + parameter gradients against FD."""
    probe = {}
    probe_rng = np.random.default_rng(99)

    def objective():
        out = layer(Value(features), MeshContext(topology))
        if out.data.shape not in probe:
            probe[out.data.shape] = probe_rng.normal(size=out.data.shape)
        return float(np.sum(out.data * probe[out.data.shape]))

    objective()  # fix the probe weights
    inputs = Value(features)
    out = layer(inputs, MeshContext(topology))
    weighted_sum(out, probe[out.data.shape]).backward()

    assert_close_to_fd(inputs.grad, finite_difference(objective, features))
    for value in layer.parameters().values():
        assert_close_to_fd(value.grad, finite_difference(objective, value.data))


class TestForwardExamples:
    def test_gap_of_constant_rows(self, instance):
        _, topology, _ = instance
        v = np.array([1.5, -2.0, 0.25])
        features = np.tile(v, (topology.edge_count, 1))
        model = ModelGraph([GlobalAveragePool()])
        out, _ = model.forward(features, topology)
        assert np.allclose(out.data, v)

    def test_relu_clamps(self, instance):
        _, topology, _ = instance
        features = np.tile([-1.0, 2.0], (topology.edge_count, 1))
        model = ModelGraph([ReLU()])
        out, _ = model.forward(features, topology)
        assert np.allclose(out.data, np.tile([0.0, 2.0], (topology.edge_count, 1)))

    def test_encoder_decoder_restores_rows(self, instance):
        _, topology, features = instance
        model = ModelGraph([Pool(topology.edge_count - 30), Unpool()])
        out, ctx = model.forward(features, topology)
        assert out.data.shape[0] == topology.edge_count
        assert ctx.topology.edge_count == topology.edge_count

    def test_shape_mismatch_names_layer(self, instance):
        _, topology, features = instance
        rng = np.random.default_rng(0)
        model = ModelGraph([MeshConv(5, 4, rng)])
        with pytest.raises(GraphError, match="layer 0"):
            model.forward(features, topology)

    def test_unpool_without_pool_rejected(self):
        with pytest.raises(GraphError, match="unpool"):
            ModelGraph([Unpool()])


class TestReLUBuffers:
    """ReLU zeroes an InstanceNorm output in its own buffer and allocates for
    anything else."""

    def test_after_norm_shares_the_norm_buffer_with_where_bits(self, instance):
        from meshforms._kernels import instance_norm_forward

        _, topology, features = instance
        features = features.copy()
        features[:, 2] = 5.0  # a constant column normalizes to exact zeros
        norm = InstanceNorm(3)
        norm.gamma.data = np.array([1.0, 1.0, -1.0])
        norm.beta.data = np.array([0.0, 0.0, -0.0])  # so those zeros are -0.0
        before = features.copy()
        out, _ = ModelGraph([norm, ReLU()]).forward(features, topology)
        normed = instance_norm_forward(features, norm.gamma.data, norm.beta.data)[0]
        assert np.signbit(normed[:, 2]).all()
        assert out.data.tobytes() == np.where(normed > 0.0, normed, 0.0).tobytes()
        assert before.tobytes() == features.tobytes()
        normed_value = norm(Value.constant(features), MeshContext(topology))
        assert ReLU()(normed_value, None).data is normed_value.data
        # The layer refuses a NaN column, so the kernel makes that norm output.
        features[3, 1] = np.nan  # one NaN makes its whole column NaN
        with np.errstate(invalid="ignore"):
            normed = instance_norm_forward(features, norm.gamma.data, norm.beta.data)[0]
        assert np.isnan(normed[:, 1]).all() and np.signbit(normed[:, 2]).all()
        expected = np.where(normed > 0.0, normed, 0.0)
        assert ReLU()(_NormOutput(normed), None).data is normed
        assert normed.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_non_finite_scale_names_the_norm_layer(self, instance, value):
        """A non-finite input, or one whose squares overflow, is refused
        before ReLU can turn the NaN output into zeros."""
        _, topology, features = instance
        features = features.copy()
        features[3, 1] = value
        model = ModelGraph([InstanceNorm(3), ReLU()])
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError, match=r"layer 0 \(instance_norm\)"):
                model.forward(features, topology)

    def test_other_inputs_are_left_unchanged(self, instance):
        _, topology, features = instance
        ctx = MeshContext(topology)
        before = features.copy()
        out, _ = ModelGraph([ReLU()]).forward(features, topology)  # the caller's array
        assert features.tobytes() == before.tobytes()
        assert not np.shares_memory(out.data, features)
        leaf = Value(features)
        assert not np.shares_memory(ReLU()(leaf, ctx).data, features)
        assert leaf.data.tobytes() == before.tobytes()
        summed = add(leaf, 0.0)
        kept = summed.data.copy()
        assert not np.shares_memory(ReLU()(summed, ctx).data, summed.data)
        assert summed.data.tobytes() == kept.tobytes()


class TestGradientOracle:
    def test_mesh_conv(self, instance):
        _, topology, features = instance
        layer = MeshConv(3, 4, np.random.default_rng(1))
        layer_gradcheck(layer, features, topology)

    def test_instance_norm(self, instance):
        _, topology, features = instance
        layer = InstanceNorm(3)
        rng = np.random.default_rng(2)
        layer.gamma.data = rng.normal(size=3)
        layer.beta.data = rng.normal(size=3)
        layer_gradcheck(layer, features, topology)

    def test_relu(self, instance):
        _, topology, features = instance
        safe = features + np.sign(features) * 0.01  # stay off the kink
        layer_gradcheck(ReLU(), safe, topology)

    def test_pool_averaging_path(self, instance):
        _, topology, features = instance
        layer = Pool(topology.edge_count - 30)
        layer_gradcheck(layer, features, topology)

    def test_unpool(self, instance):
        _, topology, features = instance

        class PoolUnpool:
            def __init__(self):
                self.pool = Pool(topology.edge_count - 30)
                self.unpool = Unpool()

            def parameters(self):
                return {}

            def __call__(self, x, ctx):
                return self.unpool(self.pool(x, ctx), ctx)

        layer_gradcheck(PoolUnpool(), features, topology)

    def test_global_average_pool(self, instance):
        _, topology, features = instance
        layer_gradcheck(GlobalAveragePool(), features, topology)

    def test_dense(self, instance):
        _, topology, features = instance
        layer_gradcheck(Dense(3, 5, np.random.default_rng(3)), features, topology)

    def test_cross_entropy_vector(self):
        """One mesh's class logits: a single row with a single label."""
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(1, 5))
        v = Value(logits)
        cross_entropy(v, 2).backward()

        def objective():
            return float(cross_entropy(Value(logits), 2).data)

        assert_close_to_fd(v.grad, finite_difference(objective, logits))

    def test_cross_entropy_rows(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(7, 4))
        labels = rng.integers(0, 4, size=7)
        v = Value(logits)
        cross_entropy(v, labels).backward()

        def objective():
            return float(cross_entropy(Value(logits), labels).data)

        assert_close_to_fd(v.grad, finite_difference(objective, logits))

    def test_mse(self):
        rng = np.random.default_rng(6)
        pred = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 3))
        v = Value(pred)
        mse(v, target).backward()

        def objective():
            return float(mse(Value(pred), target).data)

        assert_close_to_fd(v.grad, finite_difference(objective, pred))


def one_node_and_composed_bits(one_node, composed, arrays, g):
    """Bytes of the forward and of every input's gradient under upstream ``g``,
    for the library's one-node build and for the composed oracle."""
    got = []
    for build in (one_node, composed):
        inputs = [Value(a) for a in arrays]
        with np.errstate(all="ignore"):
            out = build(*inputs)
            weighted_sum(out, g).backward()
        got.append([a.tobytes() for a in [out.data] + [v.grad for v in inputs]])
    return got


def scaled(rng, shape):
    """Normal entries times one scale from 1e-3 to 1e3."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0)


def upstream(draw, rng, shape):
    """A gradient of ``shape``: normal, all +0, all -0, or NaN or zero rows."""
    g = np.array(scaled(rng, shape))
    kind = draw(st.sampled_from(["normal", "zero", "negative zero", "nan rows", "zero rows"]))
    rows = rng.random(shape[:1]) < 0.5 if g.ndim else True
    if kind == "zero":
        g[...] = 0.0
    elif kind == "negative zero":
        g[...] = -0.0
    elif kind == "nan rows":
        g[rows] = np.nan
    elif kind == "zero rows":
        g[rows] = 0.0
    return g


@st.composite
def norm_cases(draw):
    """(x, gamma, beta, upstream) with 1-300 rows, constant channels, zero
    upstream gradients and channel scales from 1e-3 to 1e3."""
    rows = draw(st.integers(1, 300))
    channels = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=channels)
    x = rng.normal(size=(rows, channels)) * scales
    for c in draw(st.lists(st.integers(0, channels - 1), max_size=3)):
        x[:, c] = draw(st.sampled_from([0.0, -0.0, rng.normal() * scales[c]]))
    gamma = rng.normal(size=channels) * 10.0 ** rng.uniform(-3.0, 3.0, size=channels)
    beta = rng.normal(size=channels) * scales
    upstream = draw(st.sampled_from(["normal", "zero", "negative zero", "some zero rows"]))
    g = rng.normal(size=(rows, channels)) * 10.0 ** rng.uniform(-3.0, 3.0)
    if upstream == "zero":
        g[:] = 0.0
    elif upstream == "negative zero":
        g[:] = -0.0
    elif upstream == "some zero rows":
        g[rng.random(rows) < 0.5] = 0.0
    return x, gamma, beta, g


@given(norm_cases())
@settings(max_examples=200, deadline=None)
def test_instance_norm_is_the_composed_algebra_bitwise(case):
    x, gamma, beta, g = case

    def layer(inputs, scale, shift):
        norm = InstanceNorm(x.shape[1])
        norm.gamma, norm.beta = scale, shift
        return norm(inputs, None)

    got = one_node_and_composed_bits(layer, composed_instance_norm, (x, gamma, beta), g)
    assert got[0] == got[1]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_global_average_pool_is_the_composed_algebra_bitwise(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (data.draw(st.integers(1, 300)), data.draw(st.integers(1, 40)))
    x = with_specials(data.draw, scaled(rng, shape))
    g = upstream(data.draw, rng, (1, shape[1]))
    got = one_node_and_composed_bits(
        lambda v: GlobalAveragePool()(v, None), composed_global_average_pool, (x,), g
    )
    assert got[0] == got[1]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dense_is_the_composed_algebra_bitwise(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows, cin, cout = (data.draw(st.integers(1, n)) for n in (50, 20, 20))
    x = with_specials(data.draw, scaled(rng, (rows, cin)))
    w = with_specials(data.draw, scaled(rng, (cin, cout)))
    b = with_specials(data.draw, scaled(rng, cout))
    g = upstream(data.draw, rng, (rows, cout))

    def layer(inputs, weights, bias):
        dense = Dense(cin, cout)
        dense.weights, dense.bias = weights, bias
        return dense(inputs, None)

    got = one_node_and_composed_bits(layer, composed_dense, (x, w, b), g)
    assert got[0] == got[1]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_cross_entropy_is_the_composed_algebra_bitwise(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows, classes = data.draw(st.integers(1, 40)), data.draw(st.integers(2, 8))
    logits = with_specials(data.draw, scaled(rng, (rows, classes)))
    labels = rng.integers(0, classes, size=rows)
    g = upstream(data.draw, rng, ())
    got = one_node_and_composed_bits(
        lambda v: cross_entropy(v, labels),
        lambda v: composed_cross_entropy(v, labels),
        (logits,),
        g,
    )
    assert got[0] == got[1]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_mse_is_the_composed_algebra_bitwise(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (data.draw(st.integers(1, 50)), data.draw(st.integers(1, 8)))
    pred = with_specials(data.draw, scaled(rng, shape))
    target = with_specials(data.draw, scaled(rng, shape))
    g = upstream(data.draw, rng, ())
    got = one_node_and_composed_bits(
        lambda v: mse(v, target), lambda v: composed_mse(v, target), (pred,), g
    )
    assert got[0] == got[1]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_relu_is_the_composed_algebra_bitwise(data):
    """On an InstanceNorm output (its own buffer) and on any other input."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (data.draw(st.integers(1, 300)), data.draw(st.integers(1, 40)))
    x = with_specials(data.draw, scaled(rng, shape))
    g = upstream(data.draw, rng, shape)
    after_norm = data.draw(st.booleans())

    def layer(inputs):
        if after_norm:
            inputs = _NormOutput(inputs.data.copy(), (inputs,), lambda up: (up,))
        return ReLU()(inputs, None)

    got = one_node_and_composed_bits(layer, relu, (x,), g)
    assert got[0] == got[1]


def test_instance_norm_is_one_node_holding_no_edge_sized_array(instance):
    """Its rule holds the input's and gamma's own arrays, and of its own only
    the (1, C) mean and scale."""
    _, topology, features = instance
    x = Value(features)
    layer = InstanceNorm(3)
    out = layer(x, MeshContext(topology))
    assert out.parents[0] is x and all(not p.parents for p in out.parents)
    held = [c.cell_contents for c in out.backward_rule.__closure__]
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    own = [a for a in arrays if a is not x.data and a is not layer.gamma.data]
    assert len(arrays) == 4 and len(own) == 2 and all(a.shape == (1, 3) for a in own)


def encoder_decoder(edges, seed):
    """A two-stage encoder-decoder on 3 input channels with a 3-class head,
    its Glorot weights drawn in layer order from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def block(cin, cout):
        return [MeshConv(cin, cout, rng), InstanceNorm(cout), ReLU()]

    return ModelGraph(
        block(3, 4)
        + [Pool(edges - 24)]
        + block(4, 6)
        + [Pool(edges - 48), Unpool()]
        + block(6, 4)
        + [Unpool()]
        + block(4, 4)
        + [Dense(4, 3, rng)]
    )


@pytest.fixture
def graph_step(instance, made_arrays):
    """(model, features, topology, labels, made): ``made`` gets a weak reference
    to each new node's array as the node is made, one per layer call."""
    _, topology, features = instance
    model = encoder_decoder(topology.edge_count, seed=3)
    labels = np.arange(topology.edge_count) % 3
    gc.disable()
    yield model, features, topology, labels, made_arrays
    gc.enable()


class TestGraphLifetime:
    """What a training step's graph holds, seen through weak references with
    the cycle collector off."""

    def test_forward_drops_the_inputs_no_rule_reads(self, graph_step):
        model, features, topology, _, made = graph_step
        out, _ = model.forward(features, topology)
        kinds = [spec["type"] for spec in model.spec()]
        # Layer i's input is layer i - 1's output. A ReLU's input is an
        # InstanceNorm buffer that the ReLU's output shares, so it lives as
        # long as the layer after the ReLU needs it.
        for kind, ref in zip(kinds[1:], made):
            if kind != "relu":
                assert (ref() is not None) == (kind in ("mesh_conv", "instance_norm", "dense")), kind
        assert out.data is not None and made[-1]() is out.data

    def test_decoder_is_freed_before_the_first_conv_rule_runs(self, graph_step, monkeypatch):
        model, features, topology, labels, made = graph_step
        first_unpool = [spec["type"] for spec in model.spec()].index("unpool")
        call = MeshConv.__call__
        alive = []

        def watched_call(layer, x, ctx):
            out = call(layer, x, ctx)
            if layer is model.layers[0]:
                rule = out.backward_rule

                def watched_rule(g):
                    alive.append(sum(ref() is not None for ref in decoder))
                    return rule(g)

                out.backward_rule = watched_rule
            return out

        monkeypatch.setattr(MeshConv, "__call__", watched_call)
        out, _ = model.forward(features, topology)
        loss = cross_entropy(out, labels)
        del out
        layer_outputs = made[: len(model.layers)]
        decoder = [ref for ref in layer_outputs[first_unpool:] if ref() is not None]
        assert len(decoder) >= 5
        model.backward(loss)
        assert alive == [0]
        assert loss.data is not None

    def test_backward_consumes_every_non_leaf(self, graph_step):
        model, features, topology, labels, _ = graph_step
        out, _ = model.forward(features, topology)
        loss = cross_entropy(out, labels)
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.parents)
        inner = [v for v in nodes.values() if v.parents]
        leaves = [v for v in nodes.values() if not v.parents]
        assert len(inner) == len(model.layers) + 1
        grads = model.backward(loss)
        assert all(v.backward_rule is None and v.parents is None for v in inner)
        assert all(v.parents == () for v in leaves)
        assert all(np.isfinite(g).all() for g in grads.values())
        assert out.data is not None and loss.data is not None

    def test_second_backward_over_a_consumed_graph_raises(self, graph_step):
        model, features, topology, labels, _ = graph_step
        out, _ = model.forward(features, topology)
        loss = cross_entropy(out, labels)
        model.backward(loss)
        with pytest.raises(GraphError, match="consumed"):
            loss.backward()
        with pytest.raises(GraphError, match="consumed"):
            cross_entropy(out, labels).backward()

    def test_backward_from_a_dropped_node_raises(self, graph_step):
        model, features, topology, _, _ = graph_step
        out, _ = model.forward(features, topology)
        with pytest.raises(GraphError, match="scalar"):
            out.parents[0].backward()


# One warm-up training step, then the minor page faults of six more, over two
# limbs meshes of 1.5-1.7k edges taken in turn, the larger first, through a
# 64/128-channel encoder-decoder. With "default" the allocator policy is
# marked as already applied, so the child keeps glibc's own thresholds, as
# before the policy existed.
_STEP_FAULTS = """
import resource, sys
import numpy as np
from meshforms import layers
from meshforms.config import ExperimentConfig
from meshforms.datasets import ARTICULATED_LIMBS, DatasetSpec, generate
from meshforms.pipelines import build_model
from meshforms.topology import build_edge_topology

if sys.argv[1] == "default":
    layers._ALLOCATOR_SET = True
samples = generate(DatasetSpec(ARTICULATED_LIMBS, 2, 1, (1500, 1700), seed=3))
topologies = sorted((build_edge_topology(s.mesh) for s in samples), key=lambda t: -t.edge_count)
rng = np.random.default_rng(0)
steps = []
for topology in topologies:
    edges = topology.edge_count
    assert edges >= 1500, edges
    steps.append((rng.normal(size=(edges, 5)), topology, rng.integers(0, 4, edges)))
config = ExperimentConfig(task="segmentation", pooling="legacy", conv_channels=(64, 128),
                          pool_targets=(1400, 1200))
model = build_model(config, 5, 4)
for step in range(7):
    if step == 1:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    features, topology, labels = steps[step % 2]
    out, _ = model.forward(features, topology)
    model.backward(layers.cross_entropy(out, labels))
    del out
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_later_training_steps_reuse_freed_memory():
    """Under the allocator policy, steps after the first take under a tenth
    of the minor page faults that glibc's default thresholds give."""
    here = pathlib.Path(__file__).resolve().parent
    path = [str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    faults = {}
    for mode in ("default", "policy"):
        child = subprocess.run([sys.executable, "-c", _STEP_FAULTS, mode], env=env,
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        faults[mode] = int(child.stdout)
    assert faults["policy"] * 10 < faults["default"], faults


class TestLayerContracts:
    def test_instance_norm_standardizes(self, instance):
        _, topology, features = instance
        layer = InstanceNorm(3)
        out = layer(Value(features), MeshContext(topology))
        assert np.max(np.abs(out.data.mean(axis=0))) < 1e-9
        assert np.max(np.abs(out.data.var(axis=0) - 1.0)) < 1e-9

    def test_gap_is_permutation_invariant(self, instance):
        _, topology, features = instance
        perm = np.random.default_rng(7).permutation(features.shape[0])
        a = GlobalAveragePool()(Value(features), MeshContext(topology)).data
        b = GlobalAveragePool()(Value(features[perm]), MeshContext(topology)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_cross_entropy_uniform_logits(self):
        for k in (2, 5, 9):
            loss = cross_entropy(Value(np.zeros((1, k))), 0)
            assert np.isclose(float(loss.data), np.log(k))

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(GraphError):
            cross_entropy(Value(np.zeros((1, 3))), 3)

    def test_cross_entropy_rejects_vector_logits(self):
        with pytest.raises(GraphError, match=r"logits must be \(rows, classes\), got shape \(3,\)"):
            cross_entropy(Value(np.zeros(3)), 0)

    def test_gap_keeps_the_row_axis(self, instance):
        _, topology, features = instance
        out = GlobalAveragePool()(Value(features), MeshContext(topology))
        assert out.data.shape == (1, features.shape[1])

    def test_mse_examples(self):
        assert float(mse(Value(np.ones((4, 2))), np.ones((4, 2))).data) == 0.0
        pred = Value(np.full((5, 3), 0.1))
        assert np.isclose(float(mse(pred, np.zeros((5, 3))).data), 0.01)

    def test_backward_without_forward_rejected(self, instance):
        _, topology, features = instance
        model = ModelGraph([ReLU()])
        out, _ = model.forward(features, topology)
        loss = mse(out, np.zeros(out.data.shape))
        model.backward(loss)
        with pytest.raises(GraphError, match="without"):
            model.backward(loss)

    def test_backward_on_a_fresh_model_rejected(self, instance):
        x = Value(instance[2])
        loss = mse(x, np.zeros(x.data.shape))
        with pytest.raises(GraphError, match="backward called without a forward pass"):
            ModelGraph([ReLU()]).backward(loss)


class TestOptimizer:
    def test_sgd_basic_step(self):
        p = Value(np.zeros(1))
        opt = Optimizer({"p": p}, method="sgd", learning_rate=0.1, momentum=0.0)
        opt.step({"p": np.ones(1)})
        assert np.allclose(p.data, -0.1)

    def test_zero_grads_leave_params_unchanged(self):
        for method in ("sgd", "adam"):
            p = Value(np.array([1.0, -2.0]))
            opt = Optimizer({"p": p}, method=method, learning_rate=0.1)
            opt.step({"p": np.zeros(2)})
            assert np.array_equal(p.data, [1.0, -2.0])

    def test_non_finite_gradient_rejected(self):
        p = Value(np.zeros(2))
        opt = Optimizer({"p": p})
        with pytest.raises(GraphError, match="non-finite"):
            opt.step({"p": np.array([1.0, np.nan])})

    def test_ten_steps_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(42)
            p = Value(rng.normal(size=(3, 2)))
            opt = Optimizer({"p": p}, method="adam", learning_rate=1e-3)
            for _ in range(10):
                opt.step({"p": rng.normal(size=(3, 2))})
            return p.data.tobytes()

        assert run() == run()

    def test_adam_moves_against_gradient(self):
        p = Value(np.zeros(3))
        opt = Optimizer({"p": p}, method="adam", learning_rate=0.01)
        opt.step({"p": np.array([1.0, -1.0, 2.0])})
        assert (p.data[:2] != 0).all()
        assert p.data[0] < 0 < p.data[1]


# Empty channel statistics, which an empty model's checkpoint still carries.
_NO_CHANNELS = {"channel_stats.mean": [0], "channel_stats.std": [0]}


def _header(**changes):
    """A checkpoint header that decodes to an empty model, with ``changes``."""
    header = {
        "blob_order": list(_NO_CHANNELS),
        "blob_shapes": _NO_CHANNELS,
        "has_channel_stats": True,
        "layers": [],
        "meta": {},
        "pooling_policy": "enhanced",
    }
    return json.dumps({**header, **changes}, separators=(",", ":")).encode()


class TestCheckpoint:
    def _model(self):
        rng = np.random.default_rng(np.random.SeedSequence(9))
        layers = [MeshConv(2, 4, rng), InstanceNorm(4), ReLU(), GlobalAveragePool(), Dense(4, 3, rng)]
        return ModelGraph(layers)

    def test_round_trip_bitwise(self):
        model = self._model()
        stats = ChannelStats(np.array([0.5, -1.0]), np.array([2.0, 0.25]))
        ck = Checkpoint(model, stats, {"task": "classification", "config_hash": "ab"})
        data = ck.to_bytes()
        again = Checkpoint.from_bytes(data)
        assert again.to_bytes() == data
        for name, value in model.parameters().items():
            assert np.array_equal(again.model.parameters()[name].data, value.data)
        assert np.array_equal(again.channel_stats.mean, stats.mean)
        assert again.meta["task"] == "classification"

    def test_rejects_garbage(self):
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            Checkpoint.from_bytes(b"XXXX" + b"\0" * 32)

    def test_every_truncation_rejected(self):
        stats = ChannelStats(np.array([0.5, -1.0]), np.array([2.0, 0.25]))
        data = Checkpoint(self._model(), stats, {"task": "classification"}).to_bytes()
        for end in range(len(data)):
            with pytest.raises(CheckpointError, match="truncated"):
                Checkpoint.from_bytes(data[:end])

    @pytest.mark.parametrize(
        "header",
        [
            b"{}",
            b"not json",
            b'{"blob_order": ["w"], "blob_shapes": {}}',
            b"[1,2]",
            _header(layers=[{"type": "dense", "out": 2}]),
            _header(layers=5),
            _header(blob_order=["w"], blob_shapes={"w": [-2]}),
            _header(blob_shapes={"channel_stats.mean": [False], "channel_stats.std": [0]}),
            _header(blob_order=[]),
            _header(pooling_policy="bogus"),
            _header(has_channel_stats=False, blob_order=[], blob_shapes={}),
            _header(has_channel_stats=False),
        ],
    )
    def test_corrupt_header_rejected(self, header):
        prefix = struct.pack("<4sIQ", b"MFCK", 1, len(header))
        with pytest.raises(CheckpointError, match="header corrupt"):
            Checkpoint.from_bytes(prefix + header)

    def test_minimal_header_loads(self):
        header = _header()
        prefix = struct.pack("<4sIQ", b"MFCK", 1, len(header))
        assert Checkpoint.from_bytes(prefix + header).model.layers == []

    @pytest.mark.parametrize(
        "change",
        [{"out": 10**9}, {"in": 2**40}],  # 74 GiB and 160 TiB of weights
        ids=["out", "in"],
    )
    def test_oversized_layer_rejected_before_building(self, change):
        stats = ChannelStats(np.array([0.5, -1.0]), np.array([2.0, 0.25]))
        data = Checkpoint(self._model(), stats, {"task": "classification"}).to_bytes()
        size = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16 : 16 + size])
        header["layers"][0].update(change)
        encoded = json.dumps(header).encode()
        prefix = struct.pack("<4sIQ", b"MFCK", 1, len(encoded))
        with pytest.raises(CheckpointError, match="shape mismatch for layer0.weights"):
            Checkpoint.from_bytes(prefix + encoded + data[16 + size :])

    def test_blob_size_beyond_int64_is_truncation(self):
        header = _header(
            blob_order=["w", *_NO_CHANNELS], blob_shapes={"w": [2**62, 4], **_NO_CHANNELS}
        )
        prefix = struct.pack("<4sIQ", b"MFCK", 1, len(header))
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.from_bytes(prefix + header)

    def _edited(self, edit):
        """A valid checkpoint's bytes after ``edit(header, blobs)``, which may
        change the decoded header and the list of float64 blob bytes in place."""
        stats = ChannelStats(np.array([0.5, -1.0]), np.array([2.0, 0.25]))
        data = Checkpoint(self._model(), stats, {"task": "classification"}).to_bytes()
        end = 16 + struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16:end])
        blobs = [data[i : i + 8] for i in range(end, len(data), 8)]
        edit(header, blobs)
        encoded = json.dumps(header).encode()
        return struct.pack("<4sIQ", b"MFCK", 1, len(encoded)) + encoded + b"".join(blobs)

    def test_blob_names_must_match_layer_spec(self):
        def rename(header, blobs):
            header["blob_order"][0] = "layer0.w"
            header["blob_shapes"]["layer0.w"] = header["blob_shapes"].pop("layer0.weights")

        with pytest.raises(CheckpointError, match="parameters do not match layer spec"):
            Checkpoint.from_bytes(self._edited(rename))

    def test_rejected_channel_stats_are_a_checkpoint_error(self):
        """Statistics that ChannelStats refuses make a corrupt checkpoint, not a
        MeshError: a std below the floor, or a std shorter than the mean."""

        def zero_std(header, blobs):
            blobs[-2:] = [struct.pack("<d", 0.0)] * 2

        def short_std(header, blobs):
            header["blob_shapes"]["channel_stats.std"] = [1]
            del blobs[-1]

        with pytest.raises(CheckpointError, match="statistics corrupt: std below floor"):
            Checkpoint.from_bytes(self._edited(zero_std))
        with pytest.raises(CheckpointError, match="statistics corrupt: mean/std shape mismatch"):
            Checkpoint.from_bytes(self._edited(short_std))

    @pytest.mark.parametrize(
        "task, pooling",
        [("classification", "enhanced"), ("segmentation", "legacy"), ("denoising", "enhanced")],
    )
    def test_parameter_shapes_are_the_built_shapes(self, task, pooling):
        """The shapes the loader checks a header against are those ``build_model``
        allocates, and the loaded model is the saved one: the same spec and
        policy, the same parameter shapes, and the same output bytes."""
        mesh = generate(DatasetSpec("primitive-zoo", 1, 1, edge_range=(150, 260), seed=4))[0].mesh
        topology = build_edge_topology(mesh)
        features = extract(topology, mesh, FF).values
        config = ExperimentConfig(
            task=task, pooling=pooling, conv_channels=(4, 6), pool_targets=(120, 90), seed=5
        )
        model = build_model(config, 2, 3)
        stats = ChannelStats(np.zeros(2), np.ones(2))
        loaded = Checkpoint.from_bytes(Checkpoint(model, stats, {"task": task}).to_bytes()).model
        assert (loaded.spec(), loaded.pooling_policy) == (model.spec(), pooling)

        def shapes(graph):
            return {name: value.data.shape for name, value in graph.parameters().items()}

        assert shapes(loaded) == shapes(model)
        out = model.forward(features, topology)[0].data
        assert loaded.forward(features, topology)[0].data.tobytes() == out.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint_loads_or_raises_typed(self, data):
        stats = ChannelStats(np.array([0.5, -1.0]), np.array([2.0, 0.25]))
        valid = Checkpoint(self._model(), stats, {"task": "classification"}).to_bytes()
        end = 16 + struct.unpack_from("<Q", valid, 8)[0]
        if data.draw(st.booleans()):
            mutated = mutate_bytes(valid[:end], data.draw, max_edits=6) + valid[end:]
        else:
            mutated = mutate_bytes(valid, data.draw, max_edits=6)
        try:
            loaded = Checkpoint.from_bytes(mutated)
        except CheckpointError:
            return
        assert loaded.to_bytes() == mutated
        for name, value in loaded.model.parameters().items():
            assert value.data.dtype == np.float64, name
            assert np.isfinite(value.data).all(), name

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_structurally_edited_checkpoint_resaves_or_raises_typed(self, data):
        """Header edits at any depth, blobs named twice or reordered with their
        data, and the header re-spaced: the checkpoint is a CheckpointError, or
        it loads and re-saves to exactly its own bytes."""
        stats = ChannelStats(np.array([0.5, -1.0]), np.array([2.0, 0.25]))
        valid = Checkpoint(self._model(), stats, {"task": "classification"}).to_bytes()
        end = 16 + struct.unpack_from("<Q", valid, 8)[0]
        header = json.loads(valid[16:end])
        blobs, offset = [], end
        for name in header["blob_order"]:
            size = 8 * math.prod(header["blob_shapes"][name])
            blobs.append((name, valid[offset : offset + size]))
            offset += size
        for kind in data.draw(st.lists(st.sampled_from(["json", "twice", "reorder"]), max_size=3)):
            if kind == "json":
                edit_json(header, data.draw)
                continue
            if kind == "twice":
                blobs.append(data.draw(st.sampled_from(blobs)))
            else:
                blobs = data.draw(st.permutations(blobs))
            header["blob_order"] = [name for name, _ in blobs]
        encoded = encode_json(header, data.draw).encode()
        edited = struct.pack("<4sIQ", b"MFCK", 1, len(encoded)) + encoded
        edited += b"".join(blob for _, blob in blobs)
        try:
            loaded = Checkpoint.from_bytes(edited)
        except CheckpointError:
            return
        assert loaded.to_bytes() == edited

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_spec_value_of_another_type_is_rejected_or_kept(self, data):
        """A layer's integer spec value swapped for a float, string, bool or an
        integer below 1 either loads to a checkpoint that re-saves to the same
        bytes or is a CheckpointError; it never loads as some other integer,
        and every loaded spec value is a positive integer."""
        rng = np.random.default_rng(np.random.SeedSequence(9))
        layers = [MeshConv(2, 4, rng), InstanceNorm(4), ReLU(), Pool(90), GlobalAveragePool(),
                  Dense(4, 3, rng)]
        stats = ChannelStats(np.array([0.5, -1.0]), np.array([2.0, 0.25]))
        valid = Checkpoint(ModelGraph(layers), stats, {"task": "classification"}).to_bytes()
        end = 16 + struct.unpack_from("<Q", valid, 8)[0]
        header = json.loads(valid[16:end])
        spec = data.draw(st.sampled_from([s for s in header["layers"] if len(s) > 1]))
        key = data.draw(st.sampled_from(sorted(set(spec) - {"type"})))
        n = spec[key]
        spec[key] = data.draw(
            st.sampled_from([float(n), n + 0.5, str(n), True, False])
            | st.integers(max_value=0)
            | st.floats()
            | st.text(max_size=4)
            | st.booleans()
        )
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        edited = struct.pack("<4sIQ", b"MFCK", 1, len(encoded)) + encoded + valid[end:]
        try:
            loaded = Checkpoint.from_bytes(edited)
        except CheckpointError:
            return
        assert loaded.to_bytes() == edited
        values = [v for spec in loaded.model.spec() for k, v in spec.items() if k != "type"]
        assert all(type(v) is int and v >= 1 for v in values)

    def test_init_seeded_and_bounded(self):
        m1 = self._model()
        m2 = self._model()
        for (n1, v1), (n2, v2) in zip(
            sorted(m1.parameters().items()), sorted(m2.parameters().items())
        ):
            assert n1 == n2
            assert np.array_equal(v1.data, v2.data)
        conv = m1.layers[0]
        limit = np.sqrt(6.0 / (2 + 4))
        assert np.max(np.abs(conv.weights.data)) <= limit
