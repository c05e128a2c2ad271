"""Training and evaluation for classification, segmentation and de-noising.

Every labelled mesh, in training and in ``evaluate``, the one evaluation loop
of all three tasks, goes through ``_prepare_samples``: unit-box mesh, its
topology, the raw model input and the target, and then through ``_forward``,
which standardizes that input and runs the model. ``_prepare_samples`` scans
and extracts consecutive small meshes together, as one disjoint union of at
most ``_GROUP_FACES`` faces, and splits the result back; each mesh gets the
bits, errors and error order it gets alone. Normalization statistics
are fitted on the training split only and ride in the checkpoint. De-noising
inputs come from a noisy copy of the mesh, targets are the clean mesh's raw
feature channels of the configured output kind, and the reported MSEs (model
and identity) are computed on those raw channels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import row_norms
from .checkpoint import Checkpoint
from .config import (
    CLASSIFICATION,
    DENOISING,
    SEGMENTATION,
    ExperimentConfig,
    config_hash,
)
from .datasets import TEST, TRAIN, add_vertex_noise, augment, check_edge_labels, in_test_split
from .errors import ConfigError, DataError, GraphError, MeshFormsError, NonFiniteError
from .features import extract, fit_channel_stats
from .layers import (Dense, GlobalAveragePool, InstanceNorm, MeshConv, ModelGraph, Pool, ReLU,
                     Unpool, cross_entropy, mse)
from .mesh import normalize_unit_box
from .optim import Optimizer
from .pooling import BATCH_LEGACY, ENHANCED
from .topology import build_edge_topology, disjoint_union, split_topology

# The test metrics each task reports, in the order ``evaluate`` computes them;
# an ablation row shows the first.
TEST_METRICS = {
    CLASSIFICATION: ("test_accuracy",),
    SEGMENTATION: ("soft_edge_accuracy",),
    DENOISING: ("test_mse", "identity_mse"),
}


@dataclass
class MetricsReport:
    """Task metrics plus reproducibility context."""

    task: str
    config_hash: str
    seed: int
    metrics: dict = field(default_factory=dict)
    train_curve: list = field(default_factory=list)  # per-epoch mean loss
    wall_clock_s: float = 0.0
    dataset_hash: str = ""

    def to_records(self, include_timing=False):
        """Line-delimited records; timing is excluded by default so reports
        are byte-stable across reruns."""
        base = {
            "task": self.task,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "dataset_hash": self.dataset_hash,
        }
        records = []
        for name, value in sorted(self.metrics.items()):
            records.append({**base, "metric": name, "value": value})
        for epoch, loss in enumerate(self.train_curve):
            records.append({**base, "metric": "train_loss", "epoch": epoch, "value": loss})
        if include_timing:
            records.append({**base, "metric": "wall_clock_s", "value": self.wall_clock_s})
        return records

    def human_table(self):
        rows = [("metric", "value")]
        for name, value in sorted(self.metrics.items()):
            rows.append((name, f"{value:.6g}" if isinstance(value, float) else str(value)))
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def _inputs(config: ExperimentConfig, mesh, topology):
    """Raw model input: the configured feature kind, channel-masked."""
    values = extract(topology, mesh, config.feature_kind).values
    if not config.channel_mask:
        return values
    return values[:, np.array(config.channel_mask, dtype=bool)]


@dataclass
class _Prepared:
    sample: object
    mesh: object  # unit-box normalized (clean) mesh
    topology: object
    inputs_raw: np.ndarray
    target: object  # class label, edge-label vector, or target features
    source: object  # the mesh the inputs come from: noisy when de-noising, rotated when probed


# The faces of one prepared group. ``_prepare_samples`` scans and extracts a
# group of small meshes as one disjoint union: at a few hundred faces a mesh
# costs more interpreter calls than arithmetic. Measured on 2 cores, one BLAS
# thread, best of 30: the 64 classify-zoo training meshes (250-400 edges)
# prepare in 12.4 ms at this budget against 20.0 ms one at a time. Larger
# budgets gain little more (12.7 ms at 2**12, 11.8 ms at 2**13) while each
# union's temporaries grow with it; this budget costs classify-zoo 0.9% of its
# peak memory. Large meshes gain nothing: unions of 2 infer-15k meshes (8-11k
# faces) ran 1.01x as long as one mesh at a time, and one union of all 12 1.33x.
_GROUP_FACES = 2**11


def _groups(samples):
    """Consecutive (index, sample) runs of at most ``_GROUP_FACES`` faces; a
    larger mesh is a group of its own."""
    group, faces = [], 0
    for i, s in enumerate(samples):
        if group and faces + s.mesh.face_count > _GROUP_FACES:
            yield group
            group, faces = [], 0
        group.append((i, s))
        faces += s.mesh.face_count
    if group:
        yield group


def _prepare_samples(config: ExperimentConfig, samples, rotation_seed):
    """Yield each sample as the model reads it, one at a time.

    The one path from a labelled mesh to its unit-box mesh, topology, raw
    input and target, for training and evaluation alike. A class label is the
    target of the mesh's one logit row. The input comes from ``source``: for
    de-noising a noisy copy drawn with the config's seed, and, when
    ``rotation_seed`` is set, a random rotation of the mesh (robustness
    probes). ``mesh`` and the topology stay those of the clean, unrotated mesh.

    Samples are prepared a group (``_groups``) at a time, each group's
    topology and features in one pass over its disjoint union, which gives
    each sample the bits it gets alone. A group that raises is prepared again
    one sample at a time, so an error, its message and its place in the
    sequence are those of a sample prepared alone.
    """
    for group in _groups(samples):
        try:
            prepared = _prepare_group(config, group, rotation_seed)
        except MeshFormsError:
            if len(group) == 1:
                raise
            for one in group:
                yield from _prepare_group(config, [one], rotation_seed)
        else:
            yield from prepared


def _prepare_group(config, group, rotation_seed):
    """The ``_Prepared`` samples of one group of (index, sample) pairs; one
    topology build and one input extraction for the group's union."""
    meshes, sources = [], []
    for i, s in group:
        mesh = source = normalize_unit_box(s.mesh)
        if config.task == DENOISING:
            source = add_vertex_noise(
                mesh, config.noise_variance, seed=config.seed * 100003 + 7 * i
            )
        if rotation_seed is not None:
            source = augment(source, random_rotation=True, seed=rotation_seed + i)
        meshes.append(mesh)
        sources.append(source)
    union = disjoint_union(meshes)
    topology = build_edge_topology(union)
    topologies = split_topology(topology, meshes)
    moved = config.task == DENOISING or rotation_seed is not None
    inputs = _inputs(config, disjoint_union(sources) if moved else union, topology)
    inputs = _rows(inputs, topologies)
    if config.task == DENOISING:
        targets = _rows(extract(topology, union, config.output_kind).values, topologies)
    prepared = []
    for k, ((_, s), mesh, source, part) in enumerate(zip(group, meshes, sources, topologies)):
        if config.task == DENOISING:
            target = targets[k]
        elif config.task == CLASSIFICATION:
            if s.class_label is None:
                raise DataError(f"sample {s.sample_id} has no class label")
            target = s.class_label
        else:
            if s.edge_labels is None:
                raise DataError(f"sample {s.sample_id} has no edge labels")
            check_edge_labels(s, part.edges)
            target = np.asarray(s.edge_labels, dtype=np.int64)
        prepared.append(_Prepared(s, mesh, part, inputs[k], target, source))
    return prepared


def _rows(values, topologies):
    """Each topology's rows of per-edge ``values`` of their union, in order."""
    if len(topologies) == 1:
        return [values]
    stops = np.cumsum([t.edge_count for t in topologies]).tolist()
    return [values[start:stop] for start, stop in zip([0] + stops, stops)]


def _class_count(config, samples, prepared):
    """1 + the largest label, from labels that must lie in 0..(n - 1): class
    labels over the n labelled samples, edge labels over the n train edges."""
    if config.task == CLASSIFICATION:
        kind, unit = "class", "samples"
        labelled = [
            (s.sample_id, np.asarray([s.class_label])) for s in samples if s.class_label is not None
        ]
    else:
        kind, unit = "edge", "edges"
        labelled = [(p.sample.sample_id, p.target) for p in prepared]
    n = sum(len(labels) for _, labels in labelled)
    for sample_id, labels in labelled:
        bad = labels[(labels < 0) | (labels >= n)]
        if len(bad):
            raise DataError(
                f"sample {sample_id}: {kind} label {bad[0]} is not in "
                f"0..{n - 1} ({n} labelled {unit})"
            )
    return 1 + max(int(labels.max()) for _, labels in labelled)


def build_model(config: ExperimentConfig, in_channels, out_dim):
    """Encoder (+decoder for per-edge outputs) per the config's stage lists,
    with Glorot weights drawn in layer order from the config's seed."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    layers = []
    prev = in_channels
    for width, target in zip(config.conv_channels, config.pool_targets):
        layers += [MeshConv(prev, width, rng), InstanceNorm(width), ReLU(), Pool(target)]
        prev = width
    if config.task == CLASSIFICATION:
        layers.append(GlobalAveragePool())
    else:
        for width in [*reversed(config.conv_channels[:-1]), config.conv_channels[0]]:
            layers += [Unpool(), MeshConv(prev, width, rng), InstanceNorm(width), ReLU()]
            prev = width
    layers.append(Dense(prev, out_dim, rng))
    return ModelGraph(layers, pooling_policy=config.pooling)


def _forward(model, stats, inputs_raw, topology):
    """The model's output Value for one mesh's raw inputs, standardized with
    the training split's channel statistics: the one way training and
    evaluation run a mesh through a model."""
    out, _ = model.forward((inputs_raw - stats.mean) / stats.std, topology)
    return out


def _augmented_inputs(config, prepared: _Prepared, epoch, index):
    """Raw inputs, re-extracted from an augmented copy when augmentation is on."""
    if not (config.augment_rotation or config.augment_jitter > 0.0):
        return prepared.inputs_raw
    moved = augment(
        prepared.source,
        random_rotation=config.augment_rotation,
        vertex_jitter_sigma=config.augment_jitter,
        seed=(config.seed * 1000003 + epoch * 1009 + index),
    )
    return _inputs(config, moved, prepared.topology)


def train(config: ExperimentConfig, samples, dataset_hash=""):
    """Train per the config on the dataset's train split.

    Returns (Checkpoint, MetricsReport). Deterministic for a fixed config.
    """
    started = time.perf_counter()
    train_samples = [s for s in samples if s.split == TRAIN]
    test_samples = [s for s in samples if s.split == TEST]
    if not train_samples:
        raise DataError("dataset has no training split")
    prepared = list(_prepare_samples(config, train_samples, rotation_seed=None))
    if config.task == DENOISING:
        out_dim = prepared[0].target.shape[1]
    else:
        out_dim = _class_count(config, samples, prepared)

    stats = fit_channel_stats([p.inputs_raw for p in prepared])
    model = build_model(config, config.input_channels(), out_dim)
    optimizer = Optimizer(
        model.parameters(),
        method=config.optimizer,
        learning_rate=config.learning_rate,
        momentum=config.momentum,
    )
    decay_epoch = int(0.75 * config.epochs)
    loss_of = mse if config.task == DENOISING else cross_entropy

    curve = []
    for epoch in range(config.epochs):
        if epoch == decay_epoch and epoch > 0:
            optimizer.learning_rate *= 0.1
        order = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(11, epoch))
        ).permutation(len(prepared))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            model.zero_grad()
            grads = None
            for index in batch:
                p = prepared[index]
                inputs_raw = _augmented_inputs(config, p, epoch, int(index))
                loss = loss_of(_forward(model, stats, inputs_raw, p.topology), p.target)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise GraphError(
                        f"training diverged: non-finite loss at epoch {epoch}, "
                        f"sample {p.sample.sample_id}"
                    )
                epoch_losses.append(value)
                grads = model.backward(loss)
                del loss  # free this step's graph before the next forward builds one
            optimizer.step({k: g / len(batch) for k, g in grads.items()})
        curve.append(float(np.mean(epoch_losses)))

    meta = {
        "task": config.task,
        "features": config.features,
        "channel_mask": list(config.channel_mask),
        "output_features": config.output_features,
        "noise_variance": config.noise_variance,
        "classes": out_dim if config.task != DENOISING else 0,
        "config_hash": config_hash(config),
        "seed": config.seed,
    }
    checkpoint = Checkpoint(model, stats, meta)

    report = MetricsReport(
        task=config.task,
        config_hash=config_hash(config),
        seed=config.seed,
        train_curve=curve,
        dataset_hash=dataset_hash,
    )
    report.metrics["final_train_loss"] = curve[-1]
    if test_samples:
        report.metrics.update(
            evaluate(checkpoint, config.task, test_samples, seed=config.seed + 555)
        )
    report.wall_clock_s = time.perf_counter() - started
    return checkpoint, report


def _checkpoint_config(checkpoint: Checkpoint, task) -> ExperimentConfig:
    """The input settings of a checkpoint trained for ``task``; its config hash is a string."""
    trained = checkpoint.meta_value("task")
    if trained != task:
        raise ConfigError(f"checkpoint task is {trained}, not {task}")
    meta = checkpoint.meta
    if not isinstance(meta.get("config_hash", ""), str):
        raise ConfigError(f"bad value {meta['config_hash']!r} for key 'config_hash'")
    return ExperimentConfig(
        task=trained,
        features=checkpoint.meta_value("features"),
        channel_mask=meta.get("channel_mask", ()),
        output_features=(
            checkpoint.meta_value("output_features")
            if trained == DENOISING
            else meta.get("output_features", "ff")
        ),
        noise_variance=meta.get("noise_variance", 0.1),
        seed=meta.get("seed", 0),
    )


def _test_split(samples):
    """The test split, or the samples when none is split off."""
    test = [s for s in samples if in_test_split(s.split)]
    if not test:
        raise DataError("no test meshes to evaluate")
    return test


def evaluate(checkpoint: Checkpoint, task, samples, rotation_seed=None, seed=0, variance=None):
    """``{metric: value}`` over the test split (or the unsplit samples) for a
    checkpoint trained for ``task``, with the names of ``TEST_METRICS[task]``.

    Each metric is a mean over meshes. A label task scores the weighted share
    of logit rows whose argmax is the label: an edge weighs its length, a
    mesh's one row 1. De-noising scores two mean squared differences from the
    clean mesh's raw output features: of the model's prediction from a noisy
    copy drawn with ``seed`` at ``variance`` (the checkpoint's noise variance
    when None), and of the noisy copy's own features (returning the input
    unchanged). ``rotation_seed`` rotates every mesh's input source first
    (robustness probes); its inputs are extracted on the topology of the
    unrotated mesh, whose faces a rotation keeps, and edge labels stay.
    Finite weights that overflow, in a norm layer's scale, in the model output
    or in a metric, give a DataError, as does an output whose shape does not
    fit the task: one row for a class label, one per edge otherwise, and the
    target's shape for de-noising. Every other model error keeps its type.
    """
    config = _checkpoint_config(checkpoint, task)
    if variance is None:
        variance = config.noise_variance
    config = replace(config, noise_variance=variance, seed=seed)
    model, stats = checkpoint.model, checkpoint.channel_stats
    scores = []
    for p in _prepare_samples(config, _test_split(samples), rotation_seed):
        try:  # only the array outlives the line: one mesh's graph at a time
            out = _forward(model, stats, p.inputs_raw, p.topology).data
        except NonFiniteError as exc:  # finite weights can still overflow
            raise DataError(f"evaluation overflows: {exc}") from exc
        rows = 1 if task == CLASSIFICATION else p.topology.edge_count
        if len(out) != rows or (task == DENOISING and out.shape != p.target.shape):
            raise DataError(f"model output of shape {out.shape} does not fit a {task} target")
        if task == DENOISING:
            noisy = extract(p.topology, p.source, config.output_kind).values
            scores.append((np.mean((out - p.target) ** 2), np.mean((p.target - noisy) ** 2)))
            continue
        # an argmax scores even logits that overflowed after the last norm; a
        # non-finite prediction already makes a de-noising metric non-finite
        if not np.isfinite(out).all():
            raise DataError("evaluation overflows: the model output is not finite")
        weights = 1.0
        if task == SEGMENTATION:
            ends = p.mesh.vertices[p.topology.edges]
            weights = row_norms(ends[:, 0] - ends[:, 1])
        scores.append((soft_edge_accuracy(weights, np.argmax(out, axis=1), p.target),))
    # a mean per metric over its own column: an axis-0 mean sums in another order
    columns = (float(np.mean(column)) for column in zip(*scores))
    metrics = dict(zip(TEST_METRICS[task], columns))
    for name, value in metrics.items():
        if not np.isfinite(value):  # a de-noising prediction that overflowed
            raise DataError(f"evaluation gives a non-finite {name}")
    return metrics


def soft_edge_accuracy(lengths, predicted, labels):
    """Length-weighted share of correctly labelled edges."""
    lengths = np.asarray(lengths, dtype=np.float64)
    correct = np.asarray(predicted) == np.asarray(labels)
    return float((lengths * correct).sum() / lengths.sum())


def evaluate_classification(checkpoint: Checkpoint, samples, rotation_seed=None):
    """``evaluate``'s test accuracy; the benchmark's workloads call this name."""
    return evaluate(checkpoint, CLASSIFICATION, samples, rotation_seed)["test_accuracy"]


def run_ablation(base_config: ExperimentConfig, samples, dataset_hash=""):
    """The 2x2 grid {legacy, enhanced} x {meshcnn5, ff} on one dataset.

    Returns (rows, table text) where rows are (pooling, features, report).
    """
    rows = []
    for pooling in (BATCH_LEGACY, ENHANCED):
        for features in ("meshcnn5", "ff"):
            config = replace(base_config, pooling=pooling, features=features, channel_mask=())
            _, report = train(config, samples, dataset_hash=dataset_hash)
            rows.append((pooling, features, report))
    metric = TEST_METRICS[base_config.task][0]
    lines = [f"{'pooling':<10} {'features':<10} {metric:>14}"]
    for pooling, features, report in rows:
        value = report.metrics.get(metric, float("nan"))
        lines.append(f"{pooling:<10} {features:<10} {value:>14.6g}")
    return rows, "\n".join(lines)
