"""The three benchmark workloads, each driven through the public meshforms API.

A workload writes its generated dataset to disk once, before any timing.
One *round* then repeats the whole user-visible job from that directory:
load, set up, train or infer, as ``meshforms train`` and ``meshforms eval``
would. Rounds of one run do identical work, so their losses and outputs must
repeat bit for bit. README.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from meshforms import datasets, pipelines, pooling
from meshforms.checkpoint import Checkpoint
from meshforms.config import CLASSIFICATION, KIND_TOKENS, ExperimentConfig, config_hash
from meshforms.datasets import TEST, TRAIN, DatasetSpec
from meshforms.features import extract, fit_channel_stats
from meshforms.mesh import normalize_unit_box
from meshforms.topology import build_edge_topology

from tracing import pool_targets, pooled_stages, step_timeline

SWEEP_MESHES = 3  # meshes pooled once more under each policy in traced runs
SWEEP_KEEP = 0.6  # the sweep pools to this share of the edges


@dataclass
class RoundResult:
    wall_s: float = 0.0
    setup_s: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    epoch_s: list = field(default_factory=list)
    infer_ms: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    loss_digest: str = ""
    output_digest: str = ""
    checkpoint: object = None
    samples: list = None


def model_inputs(checkpoint, mesh):
    """Normalized input features of one mesh, as the model sees them."""
    mesh = normalize_unit_box(mesh)
    topology = build_edge_topology(mesh)
    kind = KIND_TOKENS[checkpoint.meta["features"]]
    stats = checkpoint.channel_stats
    return (extract(topology, mesh, kind).values - stats.mean) / stats.std, topology


class Workload:
    name = ""
    primary = ""  # the per-mesh timing reported as mesh_ms

    def verify(self, rec, result):
        """Output checks that need work outside the timed round."""


class TrainingWorkload(Workload):
    """Dataset -> ``pipelines.train``; one round is one full training run."""

    primary = "step_ms"
    spec = None  # DatasetSpec fields except the seed
    split = (0, 0)  # train and test meshes per class
    settings = {}  # ExperimentConfig fields except the seed

    def __init__(self, seed, workdir):
        self.data_dir = workdir / "data"
        samples = datasets.split(
            datasets.generate(DatasetSpec(**self.spec, seed=seed)), *self.split, seed=seed
        )
        datasets.save_dataset(self.data_dir, samples)
        self.config = ExperimentConfig(**self.settings, seed=seed)
        self.train_count = sum(s.split == TRAIN for s in samples)

    def round(self, rec):
        rec.events.clear()
        start = rec.now()
        samples = datasets.load_dataset(self.data_dir)
        trained, report = pipelines.train(self.config, samples)
        first, ends = step_timeline(rec.events)
        starts = [first] + ends[:-1]
        n = self.train_count
        epoch_starts = [first] + ends[n - 1 : -1 : n]
        result = RoundResult(
            setup_s=[first - start],
            step_ms=[(b - a) * 1e3 for a, b in zip(starts, ends)],
            epoch_s=[b - a for a, b in zip(epoch_starts, ends[n - 1 :: n])],
            quality=dict(report.metrics),
            loss_digest=hashlib.sha256(
                np.asarray(report.train_curve, dtype="<f8").tobytes()
            ).hexdigest(),
            checkpoint=trained,
            samples=samples,
        )
        rec.tally(
            "epoch_count",
            len(result.epoch_s) == self.config.epochs,
            f"{len(result.epoch_s)} epochs timed of {self.config.epochs}",
        )
        self.after_training(rec, result)
        result.wall_s = rec.now() - start
        return result

    def after_training(self, rec, result):
        """Timed work that follows training within the round."""


class ClassifyZoo(TrainingWorkload):
    name = "classify-zoo"
    spec = dict(generator=datasets.PRIMITIVE_ZOO, classes=4, per_class=20, edge_range=(250, 400))
    split = (16, 4)
    settings = dict(
        features="ff",
        pooling="enhanced",
        conv_channels=(16, 32),
        pool_targets=(160, 100),
        batch_size=8,
        optimizer="adam",
        learning_rate=1e-2,
        epochs=2,
    )
    infer_passes = 4  # passes over the test split per round, for >= 100 samples a run

    def after_training(self, rec, result):
        """Reload the checkpoint from bytes and classify each test mesh alone."""
        loaded = Checkpoint.from_bytes(result.checkpoint.to_bytes())
        test = [s for s in result.samples if s.split == TEST]
        hits = 0
        for _ in range(self.infer_passes):
            for sample in test:
                start = rec.now()
                hits += pipelines.evaluate_classification(loaded, [sample])
                result.infer_ms.append((rec.now() - start) * 1e3)
                rec.tally("inference", True)
        expected = result.quality["test_accuracy"] * len(test) * self.infer_passes
        rec.tally(
            "accuracy_after_reload",
            abs(hits - expected) < 1e-9,
            f"{hits} hits after reload, {expected} before",
        )


class SegmentLimbs(TrainingWorkload):
    name = "segment-limbs"
    spec = dict(
        generator=datasets.ARTICULATED_LIMBS, classes=3, per_class=4, edge_range=(2000, 2200)
    )
    split = (3, 1)
    settings = dict(
        task="segmentation",
        features="meshcnn5",
        pooling="legacy",
        conv_channels=(64, 128),
        pool_targets=(1900, 1700),
        augment_rotation=True,
        epochs=2,
    )

    def verify(self, rec, result):
        """Euler characteristic of the pooled stages, which the decoder hides."""
        model = result.checkpoint.model
        for sample in result.samples:
            if sample.split == TEST:
                inputs, topology = model_inputs(result.checkpoint, sample.mesh)
                stages = pooled_stages(model, inputs, topology)
                rec.check_stages(topology, stages, pool_targets(model))


class Infer15k(Workload):
    """Forward-only classification of 12-16k-edge meshes, one call per mesh."""

    name = "infer-15k"
    primary = "infer_ms"
    families = 6  # every primitive-zoo family
    # One mesh per family in each half of 12-16k edges, so a seed cannot pick
    # only small or only large meshes and move the median by its draw.
    strata = ((12000, 14000), (14000, 16000))
    setups = 3  # a run holds only a few of these long rounds; more setups steady setup_s
    settings = dict(
        features="ff", pooling="enhanced", conv_channels=(16, 32), pool_targets=(9000, 6000)
    )

    def __init__(self, seed, workdir):
        self.data_dir = workdir / "data"
        samples = []
        for k, edge_range in enumerate(self.strata):
            spec = DatasetSpec(
                datasets.PRIMITIVE_ZOO, self.families, 1, edge_range, seed=2 * seed + k
            )
            for sample in datasets.generate(spec):
                sample.sample_id += f"_r{k}"
                sample.split = TEST
                samples.append(sample)
        datasets.save_dataset(self.data_dir, samples)
        config = ExperimentConfig(**self.settings, seed=seed)
        raw = []
        for sample in samples:
            mesh = normalize_unit_box(sample.mesh)
            raw.append(extract(build_edge_topology(mesh), mesh, config.feature_kind))
        model = pipelines.build_model(config, config.input_channels(), self.families)
        meta = {
            "task": CLASSIFICATION,
            "features": config.features,
            "channel_mask": [],
            "output_features": config.output_features,
            "noise_variance": config.noise_variance,
            "classes": self.families,
            "config_hash": config_hash(config),
            "seed": seed,
        }
        self.blob = Checkpoint(model, fit_channel_stats(raw), meta).to_bytes()

    def round(self, rec):
        start = rec.now()
        result = RoundResult()
        for _ in range(self.setups):
            begin = rec.now()
            samples = datasets.load_dataset(self.data_dir)
            loaded = Checkpoint.from_bytes(self.blob)
            result.setup_s.append(rec.now() - begin)
        result.checkpoint, result.samples = loaded, samples
        for sample in samples:
            begin = rec.now()
            pipelines.evaluate_classification(loaded, [sample])
            result.infer_ms.append((rec.now() - begin) * 1e3)
            rec.tally("inference", True)
        result.wall_s = rec.now() - start
        return result


WORKLOADS = {w.name: w for w in (ClassifyZoo, SegmentLimbs, Infer15k)}


def policy_sweep(rec, result):
    """Pool the first meshes once more under each policy, outside any model.

    Returns {metric: value} for µs per collapse and the largest vertex
    valence after pooling to SWEEP_KEEP of the edges.
    """
    inputs = [model_inputs(result.checkpoint, s.mesh) for s in result.samples[:SWEEP_MESHES]]
    metrics = {}
    for policy, pool in (("enhanced", pooling.pool), ("legacy", pooling.pool_batch_legacy)):
        seconds, collapses, valence = 0.0, 0, 0
        for features, topology in inputs:
            target = int(SWEEP_KEEP * topology.edge_count)
            start = time.perf_counter()
            pooled = pool(features, topology, target)
            seconds += time.perf_counter() - start
            collapses += len(pooled.history.records)
            valence = max(valence, max(len(v) for v in pooled.topology.vertex_edges))
            n = pooled.topology.edge_count
            rec.tally(
                "sweep_edge_count", target - 2 <= n <= target, f"{policy}: {n} edges, {target}"
            )
        metrics[f"pooling.{policy}.us_per_collapse"] = seconds * 1e6 / max(collapses, 1)
        metrics[f"pooling.{policy}.max_valence"] = valence
    return metrics
