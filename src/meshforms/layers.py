"""Network layers and the sequential model graph for mesh tasks.

A ModelGraph threads (per-edge features, edge topology) through its layers.
Pool layers shrink the topology and push their collapse history onto a stack;
Unpool layers pop it and restore the pre-pool topology, so encoder-decoder
configurations end on the original edge set. Classification heads use
GlobalAveragePool + Dense, so a mesh's class logits are one row.

Every layer call and every loss makes one graph node. Its rule gives, bit for
bit, the gradients of the same computation composed from elementwise,
broadcasting and reduction steps (the tests keep that algebra as the oracle),
and computes none for a loss's target or labels, which are not parents. No
layer's backward rule reads the layer's own output: each reads its input,
its parameters and what it kept from the forward (a mask, a mean and scale,
a pool journal). In a ModelGraph each output has one consumer, the next
layer, so that layer may overwrite the output's buffer once it has read what
its own rule needs. ReLU does so after InstanceNorm: the pair holds one
array per pass instead of two.

A rule captures the arrays it reads when its layer runs and reads no node's
``data`` later. ``ModelGraph.forward`` drops each layer's input from its node
once the layer returns, so the graph keeps only what some rule captured:
the inputs of MeshConv, InstanceNorm and Dense, the ReLU masks, the norm
statistics and the pool journals, plus the model output. The rules of Pool,
Unpool and GlobalAveragePool read no feature array, so their inputs are
freed as soon as the layer returns. Backward then frees each captured array
once the last rule reading it has run (see ``autodiff``).
"""

from __future__ import annotations

import ctypes

import numpy as np

from . import pooling as _pooling
from ._kernels import conv_backward as _kconv_backward
from ._kernels import conv_forward as _kconv_forward
from ._kernels import instance_norm_backward as _knorm_backward
from ._kernels import instance_norm_forward as _knorm_forward
from .autodiff import Value
from .errors import GraphError, NonFiniteError
from .pooling import ENHANCED, POLICIES
from .topology import EdgeTopology


class MeshContext:
    """Mutable forward-pass state: current topology plus the pool stack."""

    def __init__(self, topology: EdgeTopology, pooling_policy=ENHANCED):
        self.topology = topology
        self.pooling_policy = pooling_policy
        self.stack = []  # (topology before pool, PoolHistory)
        self.histories = []

    def push(self, topology, history):
        self.stack.append((topology, history))
        self.histories.append(history)

    def pop(self):
        if not self.stack:
            raise GraphError("unpool without a matching pool")
        return self.stack.pop()


def _glorot(rng, shape):
    """Uniform Glorot weights over the last two axes (fan in, fan out); zeros without an rng."""
    if rng is None:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    def parameters(self):
        return {}

    def __call__(self, x: Value, ctx: MeshContext) -> Value:
        raise NotImplementedError

    def spec(self):
        raise NotImplementedError


class MeshConv(Layer):
    """Learned edge convolution over the 4-neighbor ring."""

    def __init__(self, in_channels, out_channels, rng=None):
        self.in_channels = in_channels
        self.out_ch = out_channels
        self.weights = Value(_glorot(rng, (5, in_channels, out_channels)))
        self.bias = Value(np.zeros(out_channels))

    def parameters(self):
        return {"weights": self.weights, "bias": self.bias}

    def __call__(self, x, ctx):
        if x.data.shape[1] != self.in_channels:
            raise GraphError(
                f"mesh_conv expects {self.in_channels} channels, "
                f"got {x.data.shape[1]}"
            )
        neighbors = ctx.topology.neighbors
        if x.data.shape[0] != len(neighbors):
            raise GraphError("mesh_conv feature rows do not match topology")
        w, b = self.weights, self.bias
        features, weights, input_grad = x.data, w.data, x.requires_grad
        out_data = _kconv_forward(features, neighbors, weights, b.data)

        def rule(g):
            return _kconv_backward(g, features, neighbors, weights, input_grad)

        return Value(out_data, (x, w, b), rule)

    def spec(self):
        return {"type": "mesh_conv", "in": self.in_channels, "out": self.out_ch}


class _NormOutput(Value):
    """An InstanceNorm output: a new array that no backward rule reads."""

    __slots__ = ()


class InstanceNorm(Layer):
    """Per-mesh, per-channel standardization with a learned affine.

    One graph node whose rule keeps only the per-channel mean and scale and
    recomputes the centred features; its gradients are bit for bit those of
    the composed mean, variance and affine algebra (see the kernels). A
    non-finite scale, from a non-finite input or an overflow, raises
    NonFiniteError: the NaN output would otherwise pass ReLU as 0.
    """

    def __init__(self, channels):
        self.channels = channels
        self.gamma = Value(np.ones(channels))
        self.beta = Value(np.zeros(channels))

    def parameters(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def __call__(self, x, ctx):
        if x.data.shape[1] != self.channels:
            raise GraphError(
                f"instance_norm expects {self.channels} channels, "
                f"got {x.data.shape[1]}"
            )
        features, gamma = x.data, self.gamma.data
        out_data, mu, sd = _knorm_forward(features, gamma, self.beta.data)
        if not np.isfinite(sd).all():
            raise NonFiniteError("non-finite channel scale: the input is not finite or overflows")
        return _NormOutput(
            out_data,
            (x, self.gamma, self.beta),
            lambda g: _knorm_backward(g, features, mu, sd, gamma),
        )

    def spec(self):
        return {"type": "instance_norm", "channels": self.channels}


class ReLU(Layer):
    """max(x, 0), with the subgradient 0 at 0.

    The select ANDs each value's bits with all ones where x > 0 and with zero
    elsewhere, which gives the bits of ``np.where(x > 0, x, 0.0)``, NaN and
    -0.0 included. It writes into an InstanceNorm output's own buffer, which
    the returned Value then shares (see the module docstring). Any other
    input, such as a leaf, a constant or the caller's array, is left as it
    was, and the select writes over the new array of AND masks. The backward
    stays ``g * mask``: an AND there would turn a -0.0 gradient into +0.0.
    """

    def __call__(self, x, ctx):
        mask = x.data > 0.0
        keep = np.negative(mask, dtype=np.uint64)  # all ones where x > 0, else 0
        out = x.data if type(x) is _NormOutput else keep.view(np.float64)
        np.bitwise_and(x.data.view(np.uint64), keep, out=out.view(np.uint64))
        return Value(out, (x,), lambda g: (g * mask,))

    def spec(self):
        return {"type": "relu"}


class Pool(Layer):
    """Collapse edges down to a fixed target count."""

    def __init__(self, target_edges):
        self.target_edges = int(target_edges)

    def __call__(self, x, ctx):
        result = _pooling.pool(
            x.data, ctx.topology, self.target_edges, policy=ctx.pooling_policy
        )
        history = result.history
        ctx.push(ctx.topology, history)
        ctx.topology = result.topology
        return Value(
            result.features,
            (x,),
            lambda g: (_pooling.pool_backward(g, history),),
        )

    def spec(self):
        return {"type": "pool", "target": self.target_edges}


class Unpool(Layer):
    """Broadcast features back onto the matching pre-pool edge set."""

    def __call__(self, x, ctx):
        topology_before, history = ctx.pop()
        if x.data.shape[0] != history.final_edge_count:
            raise GraphError("unpool input rows do not match pool history")
        out_data = _pooling.unpool(x.data, history)
        ctx.topology = topology_before
        return Value(
            out_data,
            (x,),
            lambda g: (_pooling.unpool_backward(g, history),),
        )

    def spec(self):
        return {"type": "unpool"}


class GlobalAveragePool(Layer):
    """Mean over edges: per-edge rows -> one row, the column sums times 1/E."""

    def __call__(self, x, ctx):
        shape = x.data.shape
        inv_rows = 1.0 / shape[0]
        out_data = x.data.sum(axis=0, keepdims=True) * inv_rows
        return Value(out_data, (x,), lambda g: (np.broadcast_to(g * inv_rows, shape),))

    def spec(self):
        return {"type": "global_average_pool"}


class Dense(Layer):
    """Affine map on the channel axis of every row."""

    def __init__(self, in_channels, out_channels, rng=None):
        self.in_channels = in_channels
        self.out_ch = out_channels
        self.weights = Value(_glorot(rng, (in_channels, out_channels)))
        self.bias = Value(np.zeros(out_channels))

    def parameters(self):
        return {"weights": self.weights, "bias": self.bias}

    def __call__(self, x, ctx):
        if x.data.ndim != 2 or x.data.shape[1] != self.in_channels:
            raise GraphError(
                f"dense expects (rows, {self.in_channels}) features, got shape {x.data.shape}"
            )
        features, weights = x.data, self.weights.data

        def rule(g):
            return g @ weights.T, features.T @ g, g.sum(axis=0)

        return Value(features @ weights + self.bias.data, (x, self.weights, self.bias), rule)

    def spec(self):
        return {"type": "dense", "in": self.in_channels, "out": self.out_ch}


# The parameter shapes each layer type's constructor allocates, by spec, so a
# loader can check a spec against its stored blobs before building it.
_PARAMETER_SHAPES = {
    "mesh_conv": lambda spec: {"weights": (5, spec["in"], spec["out"]), "bias": (spec["out"],)},
    "instance_norm": lambda spec: {"gamma": (spec["channels"],), "beta": (spec["channels"],)},
    "dense": lambda spec: {"weights": (spec["in"], spec["out"]), "bias": (spec["out"],)},
}

_LAYER_BUILDERS = {
    "mesh_conv": lambda spec: MeshConv(spec["in"], spec["out"]),
    "instance_norm": lambda spec: InstanceNorm(spec["channels"]),
    "relu": lambda spec: ReLU(),
    "pool": lambda spec: Pool(spec["target"]),
    "unpool": lambda spec: Unpool(),
    "global_average_pool": lambda spec: GlobalAveragePool(),
    "dense": lambda spec: Dense(spec["in"], spec["out"]),
}


_ALLOCATOR_SET = False


def _keep_freed_memory_mapped():
    """Let glibc keep up to 64 MiB of freed heap mapped; elsewhere do nothing.

    By default glibc returns the heap top to the OS after each backward pass,
    and the next step faults the same pages in again: 3-5 thousand minor
    faults a segmentation step on 2k-edge meshes. Both thresholds are set,
    because fixing either one alone turns off glibc's dynamic mmap threshold
    and faults more. E x C arrays up to 32 MiB come from the heap and go back
    to it. The arithmetic and its bits do not change.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD; 0 where the value is refused
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


class ModelGraph:
    """Ordered layer list with a parameter registry."""

    def __init__(self, layers, pooling_policy=ENHANCED):
        if pooling_policy not in POLICIES:
            raise GraphError(f"unknown pooling policy {pooling_policy!r}")
        self.layers = list(layers)
        self.pooling_policy = pooling_policy
        self._params = {}
        for i, layer in enumerate(self.layers):
            for pname, value in layer.parameters().items():
                self._params[f"layer{i}.{pname}"] = value
        self._validate()
        self._forwarded = False  # a flag, not the output: holding it would keep the graph alive

    def _validate(self):
        depth = 0
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Pool):
                depth += 1
            elif isinstance(layer, Unpool):
                depth -= 1
                if depth < 0:
                    raise GraphError(f"layer {i}: unpool without a matching pool")

    @staticmethod
    def from_spec(spec_list, pooling_policy=ENHANCED):
        """The model a checkpoint header's ``spec_list`` describes, with zero weights."""
        layers = []
        for spec in spec_list:
            kind = spec["type"]
            if kind not in _LAYER_BUILDERS:
                raise GraphError(f"unknown layer type {kind!r}")
            layers.append(_LAYER_BUILDERS[kind](spec))
        return ModelGraph(layers, pooling_policy=pooling_policy)

    @staticmethod
    def parameter_shapes(spec_list):
        """{parameter name: shape} of the model ``spec_list`` describes, unbuilt."""
        shapes = {}
        for i, spec in enumerate(spec_list):
            if spec["type"] in _PARAMETER_SHAPES:
                for pname, shape in _PARAMETER_SHAPES[spec["type"]](spec).items():
                    shapes[f"layer{i}.{pname}"] = shape
        return shapes

    def spec(self):
        return [layer.spec() for layer in self.layers]

    def parameters(self):
        return dict(self._params)

    def zero_grad(self):
        for value in self._params.values():
            value.zero_grad()

    def forward(self, features, topology: EdgeTopology):
        """Run all layers; returns (output Value, MeshContext)."""
        arr = np.asarray(features, dtype=np.float64)
        if arr.shape[0] != topology.edge_count:
            raise GraphError(
                f"feature rows {arr.shape[0]} do not match edge count "
                f"{topology.edge_count}"
            )
        global _ALLOCATOR_SET
        if not _ALLOCATOR_SET:
            _ALLOCATOR_SET = True
            _keep_freed_memory_mapped()
        ctx = MeshContext(topology, self.pooling_policy)
        x = Value.constant(arr)
        for i, layer in enumerate(self.layers):
            try:
                out = layer(x, ctx)
            except GraphError as exc:
                raise type(exc)(f"layer {i} ({layer.spec()['type']}): {exc}") from exc
            x.data, x = None, out  # the layer's rule captured what it reads of x
        self._forwarded = True
        return x, ctx

    def backward(self, loss: Value):
        """Backprop the scalar loss; returns {param name: gradient array}."""
        if not self._forwarded:
            raise GraphError("backward called without a forward pass")
        self._forwarded = False
        loss.backward()
        return {
            name: (
                value.grad if value.grad is not None else np.zeros_like(value.data)
            )
            for name, value in self._params.items()
        }


def cross_entropy(logits: Value, labels) -> Value:
    """Mean over the (rows, classes) logits of each row's negative log softmax
    at its label; a single label stands for one row.

    With z = logits - rowmax and s = rowsum(exp(z)), the loss is
    sum(log(s) - rowsum(z * onehot)) * (1/rows). Its gradient at z is
    (g/rows) / s * exp(z) plus -(g/rows) * onehot, added in that order.
    """
    if logits.data.ndim != 2:
        raise GraphError(f"logits must be (rows, classes), got shape {logits.data.shape}")
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise GraphError("label vector length must match logit rows")
    if labels.min() < 0 or labels.max() >= k:
        raise GraphError(f"label out of range for {k} classes")
    inv_rows = 1.0 / n
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    exp_z = np.exp(z)
    sums = exp_z.sum(axis=1, keepdims=True)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    picked = (z * onehot).sum(axis=1, keepdims=True)
    loss = (np.log(sums) - picked).sum() * inv_rows

    def rule(g):
        g_row = g * inv_rows
        g_z = g_row / sums * exp_z
        g_z += -g_row * onehot
        return (g_z,)

    return Value(loss, (logits,), rule)


def mse(pred: Value, target) -> Value:
    """Mean squared difference over all edges and channels.

    With d = pred - target, the loss is sum(d * d) * (1/size) and its
    gradient at pred is a + a for a = (g/size) * d, one term per factor.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise GraphError(
            f"prediction shape {pred.data.shape} does not match target "
            f"{target.shape}"
        )
    inv_size = 1.0 / target.size
    diff = pred.data - target

    def rule(g):
        a = g * inv_size * diff
        return (a + a,)

    return Value((diff * diff).sum() * inv_size, (pred,), rule)
