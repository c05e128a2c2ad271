"""Step clock, output checks and per-layer spans, all installed from outside.

Nothing here edits meshforms. Every hook replaces an attribute of a public
meshforms module or class for as long as a ``Patches`` context is open, and
puts the original back when it closes.

* ``Recorder`` is installed for the whole run. It takes bare timestamps at
  ``ModelGraph.forward`` entry, ``ModelGraph.backward`` exit and
  ``Optimizer.step`` exit, times ``host_probe`` at every forward entry, and
  checks the output of every forward pass.
* ``Tracer`` is installed only around traced rounds. It records a span
  (name, start, end, parent) around each layer entry point and counts what
  pooling did.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from meshforms import checkpoint, datasets, layers, optim, pipelines, pooling
from meshforms.autodiff import Value

# Layers named after the meshforms modules they live in; see README.md for
# which end-to-end metric each should move.
LAYERS = (
    "datasets.load",
    "topology.build",
    "features.extract",
    "conv.fwd",
    "conv.bwd",
    "norm.fwd",
    "pooling.fwd",
    "pooling.bwd",
    "pooling.compact",
    "unpool.fwd",
    "unpool.bwd",
    "autodiff.backward",
    "optim.step",
    "checkpoint.load",
)


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def euler_characteristic(topology):
    """V - E + F of an edge topology (every listed vertex is in use)."""
    return len(topology.vertex_edges) - topology.edge_count + len(topology.face_edges)


def pool_targets(model):
    return [layer.target_edges for layer in model.layers if isinstance(layer, layers.Pool)]


def pooled_stages(model, inputs, topology):
    """Run ``model`` one layer at a time and keep every Pool's topologies.

    Returns one (topology before, history, topology after) per Pool layer.
    A decoder's Unpool layers restore the topology, so after
    ``ModelGraph.forward`` only this layer-by-layer pass still sees the
    pooled ones.
    """
    ctx = layers.MeshContext(topology, model.pooling_policy)
    x = Value(inputs)
    stages = []
    for layer in model.layers:
        before = ctx.topology
        x = layer(x, ctx)
        if isinstance(layer, layers.Pool):
            stages.append((before, ctx.stack[-1][1], ctx.topology))
    return stages


def step_timeline(events):
    """First forward entry and the end time of each training step.

    A step ends at its backward exit, or at the exit of the optimizer step
    it triggers, so the next step starts where the last one ended and
    includes any feature re-extraction for augmentation.
    """
    first = next(t for kind, t in events if kind == "F")
    ends = []
    for kind, t in events:
        if kind == "B":
            ends.append(t)
        elif kind == "O":
            ends[-1] = t
    return first, ends


def host_probe():
    """Milliseconds a fixed pure-Python loop takes: the host's speed right now.

    It runs no meshforms code, so only the host moves it. On a shared host
    it slows down with the program, by nearly the same factor.
    """
    start = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


class Recorder:
    """Step-boundary timestamps plus the output checks behind error_rate.

    ``now`` is ``perf_counter`` minus the time spent in checks and probes,
    so checking and probing at every forward pass add nothing to any
    measured interval.
    """

    def __init__(self):
        self._excluded = 0.0
        self.events = []  # ("F" | "B" | "O", now())
        self.tallies = {}  # name -> [passed, failed]
        self.failures = []
        self.model = None  # model of the forward pass in progress
        self.digest = hashlib.sha256()  # over every forward pass's output
        self.probes = []  # host_probe() ms, one per forward pass

    def now(self):
        return time.perf_counter() - self._excluded

    @contextmanager
    def unmeasured(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - start

    def tally(self, name, ok, detail=""):
        entry = self.tallies.setdefault(name, [0, 0])
        entry[0 if ok else 1] += 1
        if not ok and len(self.failures) < 20:
            self.failures.append(f"{name}: {detail}")

    def attempted(self):
        return sum(p + f for p, f in self.tallies.values())

    def failed(self):
        return sum(f for _, f in self.tallies.values())

    def install(self, patches):
        forward = layers.ModelGraph.forward
        backward = layers.ModelGraph.backward
        step = optim.Optimizer.step

        def timed_forward(model, features, topology):
            self.model = model
            with self.unmeasured():
                self.probes.append(host_probe())
            self.events.append(("F", self.now()))
            out, ctx = forward(model, features, topology)
            with self.unmeasured():
                self.check_forward(model, topology, out, ctx)
            return out, ctx

        def timed_backward(model, loss):
            finite = bool(np.all(np.isfinite(loss.data)))
            grads = backward(model, loss)
            self.events.append(("B", self.now()))
            self.tally("step", finite, "non-finite loss")
            return grads

        def timed_step(optimizer, grads):
            step(optimizer, grads)
            self.events.append(("O", self.now()))

        patches.set(layers.ModelGraph, "forward", timed_forward)
        patches.set(layers.ModelGraph, "backward", timed_backward)
        patches.set(optim.Optimizer, "step", timed_step)

    def check_forward(self, model, topology, out, ctx):
        self.digest.update(np.ascontiguousarray(out.data).tobytes())
        self.tally("logits_finite", bool(np.all(np.isfinite(out.data))))
        if ctx.stack:
            # No decoder: every stage's input topology is still on the stack.
            befores = [t for t, _ in ctx.stack]
            afters = befores[1:] + [ctx.topology]
            stages = list(zip(befores, ctx.histories, afters))
        else:
            stages = [(None, h, None) for h in ctx.histories]
        self.check_stages(topology, stages, pool_targets(model))

    def check_stages(self, topology, stages, targets):
        """Edge counts, Euler characteristic and unpool size of pool stages.

        A collapse removes exactly three edges, so a stage ends within two
        edges below its target; ``before``/``after`` may be None when the
        pass no longer holds those topologies.
        """
        self.tally(
            "pool_stage_count",
            len(stages) == len(targets),
            f"{len(stages)} pool stages for {len(targets)} targets",
        )
        chi = euler_characteristic(topology)
        for (before, history, after), target in zip(stages, targets):
            n = history.final_edge_count
            self.tally(
                "pool_edge_count",
                target - 2 <= n <= target,
                f"{n} edges after pooling to {target}",
            )
            if after is not None:
                self.tally(
                    "euler_characteristic",
                    euler_characteristic(after) == chi and after.edge_count == n,
                    f"V-E+F {euler_characteristic(after)} after pooling, {chi} before",
                )
        if stages:
            before, history, _ = stages[-1]
            restored = pooling.unpool(np.zeros((history.final_edge_count, 1)), history)
            expected = history.initial_edge_count if before is None else before.edge_count
            self.tally(
                "unpool_edge_count",
                restored.shape[0] == expected == history.initial_edge_count,
                f"unpool gave {restored.shape[0]} edges, expected {expected}",
            )


class Tracer:
    """Spans and pooling counters of one traced round."""

    def __init__(self, recorder):
        self.rec = recorder
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self.counts = Counter()
        self.valences = Counter()  # vertex valence after a model's last Pool

    def timed(self, name, fn):
        spans, stack, now = self.spans, self._open, self.rec.now

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, now(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = now()

        return traced

    def counted(self, name, fn, when=None):
        """Count calls of ``fn``, or only those whose result passes ``when``."""
        counts = self.counts

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            if when is None or when(result):
                counts[name] += 1
            return result

        return counting

    def _layer_call(self, cls, fwd_name, bwd_name, after):
        """Span the layer call, and the backward rule of the Value it returns."""
        call = self.timed(fwd_name, cls.__call__)

        def traced_call(layer, x, ctx):
            out = call(layer, x, ctx)
            out.backward_rule = self.timed(bwd_name, out.backward_rule)
            if after is not None:
                after(layer, ctx)
            return out

        return traced_call

    def _after_pool(self, layer, ctx):
        self.counts["pooling.collapses"] += len(ctx.stack[-1][1].records)
        self.counts["pool_calls"] += 1
        pools = [p for p in self.rec.model.layers if isinstance(p, layers.Pool)]
        if layer is pools[-1]:
            self.valences.update(len(v) for v in ctx.topology.vertex_edges)

    def install(self, patches):
        # pipelines imports build_edge_topology and extract by name, so they
        # are patched where pipelines looks them up.
        for owner, attr, name in (
            (datasets, "load_dataset", "datasets.load"),
            (pipelines, "build_edge_topology", "topology.build"),
            (pipelines, "extract", "features.extract"),
            (layers.InstanceNorm, "__call__", "norm.fwd"),
            (pooling.PoolingState, "compact", "pooling.compact"),
            (optim.Optimizer, "step", "optim.step"),
            (Value, "backward", "autodiff.backward"),
        ):
            patches.set(owner, attr, self.timed(name, getattr(owner, attr)))
        load = checkpoint.Checkpoint.from_bytes
        patches.set(
            checkpoint.Checkpoint, "from_bytes", staticmethod(self.timed("checkpoint.load", load))
        )
        for cls, fwd, bwd, after in (
            (layers.MeshConv, "conv.fwd", "conv.bwd", None),
            (layers.Pool, "pooling.fwd", "pooling.bwd", self._after_pool),
            (layers.Unpool, "unpool.fwd", "unpool.bwd", None),
        ):
            patches.set(cls, "__call__", self._layer_call(cls, fwd, bwd, after))
        for owner, attr, name, when in (
            (
                pooling.PoolingState,
                "collapse_illegality",
                "pooling.illegal_pops",
                lambda reason: reason is not None,
            ),
            (pooling.ScoreQueue, "__init__", "queues", None),
            (Value, "__init__", "values", None),
            (layers.ModelGraph, "forward", "forwards", None),
        ):
            patches.set(owner, attr, self.counted(name, getattr(owner, attr), when))

    def self_times(self):
        """{layer: (calls, self seconds)}: span minus its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start - inner))
        return out

    def round_counts(self):
        """Per-round counts that must repeat exactly across traced rounds."""
        calls = {name: n for name, (n, _) in self.self_times().items()}
        return {**calls, **self.counts, "valences": dict(self.valences)}
