"""Config format, metric definitions, training smoke + determinism."""

import gc
import importlib
import pathlib
import types
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshforms import (
    Checkpoint,
    ConfigError,
    MeshFormsError,
    PoolTargetError,
    DataError,
    DatasetSpec,
    ExperimentConfig,
    config_hash,
    evaluate,
    format_config,
    generate,
    parse_config,
    soft_edge_accuracy,
    split,
    train,
)
from meshforms import pipelines
from meshforms.autodiff import Value
from meshforms.layers import MeshConv, ModelGraph, Pool, Unpool
from meshforms.config import MAX_WIDTH
from meshforms.features import extract
from meshforms.pipelines import build_model
from meshforms.topology import build_edge_topology

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def tiny_dataset(task_classes=3, per_class=4, seed=1, generator="primitive-zoo"):
    samples = generate(
        DatasetSpec(generator, task_classes, per_class, edge_range=(150, 320), seed=seed)
    )
    return split(samples, per_class - 1, 1, seed=seed)


def tiny_config(**overrides):
    base = dict(
        task="classification",
        features="ff",
        conv_channels=(6, 8),
        pool_targets=(100, 70),
        epochs=1,
        batch_size=4,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_parse_round_trip(self):
        cfg = tiny_config(epochs=7, learning_rate=1e-3, augment_rotation=True)
        again = parse_config(format_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_overrides_win(self):
        text = "task = classification\nepochs = 50\n"
        cfg = parse_config(text, {"epochs": "3"})
        assert cfg.epochs == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("bogus = 1\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("epochs = soon\n")
        with pytest.raises(ConfigError):
            ExperimentConfig(pool_targets=(100, 200), conv_channels=(4, 4))
        with pytest.raises(ConfigError):
            ExperimentConfig(task="alchemy")
        with pytest.raises(ConfigError):
            ExperimentConfig(features="ff", channel_mask=(1, 0, 1))
        with pytest.raises(ConfigError):
            ExperimentConfig(features="ff", channel_mask=(0, 0))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("conv_channels", (-4, 32)),
            ("conv_channels", (0, 32)),
            ("channel_mask", (2, 0)),
            ("seed", -1),
            ("learning_rate", float("nan")),
            ("learning_rate", 0.0),
            ("momentum", float("nan")),
            ("momentum", 1.0),
            ("augment_jitter", -1.0),
            ("augment_jitter", float("nan")),
            ("noise_variance", float("inf")),
        ],
    )
    def test_out_of_range_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            tiny_config(**{key: value})
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        with pytest.raises(ConfigError, match=key):
            parse_config("", {key: text, "pool_targets": "100,70"})

    def test_hash_ignores_formatting(self):
        a = parse_config("epochs = 5\ntask = classification\n")
        b = parse_config("# comment\ntask = classification\nepochs=5\n")
        assert config_hash(a) == config_hash(b)

    def test_hash_is_stable(self):
        text = (
            "task = segmentation\nfeatures = meshcnn5\nchannel_mask = 1,0,1,1,0\n"
            "output_features = xyz\npooling = legacy\nconv_channels = 8,24,40\n"
            "pool_targets = 300,200,120\nepochs = 7\nbatch_size = 3\noptimizer = sgd\n"
            "learning_rate = 0.015\nmomentum = 0.75\nnoise_variance = 0.25\n"
            "augment_rotation = TRUE\naugment_jitter = 5e-3\nseed = 42\n"
        )
        every_key = parse_config(text)
        assert {f.name for f in fields(ExperimentConfig)} == {
            line.split(" = ")[0] for line in text.splitlines()
        }
        assert config_hash(ExperimentConfig()) == "62e44e5bcf0d"
        assert config_hash(every_key) == "fb471cdd9a93"

    def test_channel_mask_counts(self):
        cfg = tiny_config(features="meshcnn5", channel_mask=(1, 0, 0, 1, 1))
        assert cfg.input_channels() == 3

    def test_width_upper_bound(self):
        """A width past MAX_WIDTH is a ConfigError, not a MemoryError at build."""
        assert tiny_config(conv_channels=(MAX_WIDTH, 8)).conv_channels == (MAX_WIDTH, 8)
        for widths in ((MAX_WIDTH + 1, 8), (8, 100_000_000_000)):
            with pytest.raises(ConfigError, match=f"conv_channels must be in 1..{MAX_WIDTH}"):
                tiny_config(conv_channels=widths)


# Per config key: values that pass validation, their range boundaries among
# them, then mutations. MAX_WIDTH itself is left to test_width_upper_bound:
# a segmentation decoder would hold 5 x 4096 x 4096 weights.
_VALID_VALUES = {
    "task": ["classification", "segmentation", "denoising"],
    "features": ["ff", "meshcnn5", "xyz", "xyz-inv", "laplacian"],
    "channel_mask": ["", "1,0", "0,1"],
    "output_features": ["ff", "xyz"],
    "pooling": ["enhanced", "legacy"],
    "batch_size": ["1", "2", "99999999999999999999"],
    "optimizer": ["adam", "sgd"],
    "learning_rate": ["2e-4", "1e-2", "5e-324"],
    "momentum": ["0", "0.9", "0.9999999999999999"],
    "noise_variance": ["0", "0.05"],
    "augment_rotation": ["true", "FALSE"],
    "augment_jitter": ["0", "0.01"],
    "seed": ["0", "7", "99999999999999999999"],
    "epochs": ["1", "100000"],
}
_MUTATED_VALUES = {
    "task": ["", "Classification", "alchemy"],
    "features": ["", "ff5", "FF"],
    "channel_mask": ["0,0", "1", "1,1,1,1,1,1", "2,0", "x"],
    "output_features": ["meshcnn5", ""],
    "pooling": ["batch", ""],
    "batch_size": ["0", "-3", "1.5"],
    "optimizer": ["rmsprop"],
    "learning_rate": ["0", "-1e-3", "nan", "inf", "1e999", "x"],
    "momentum": ["1", "-0.1", "nan", "-inf"],
    "noise_variance": ["-0.1", "inf", "nan"],
    "augment_rotation": ["yes", "1", ""],
    "augment_jitter": ["-0.01", "nan"],
    "seed": ["-1", "1.0", ""],
    "epochs": ["0", "-1", "1.5", "x"],
}
# (conv_channels, pool_targets) pairs that fit the dataset's 204-378 edges,
# then mismatched, out-of-range and malformed ones.
_VALID_STAGES = [("4", "180"), ("1,3", "190,120"), ("3,2", "200,1")]
_MUTATED_STAGES = [
    ("4097", "180"), ("100000000000,4", "190,120"), ("0,4", "190,120"), ("-1", "180"),
    ("4", "190,120"), ("", ""), ("4.5", "180"), ("4", "180,180"), ("4,4", "120,190"),
    ("4", "0"), ("4", "-5"), ("4,", "180,"), ("4", "99999"),
]


@st.composite
def config_draws(draw):
    """(config text, --set overrides) over a few keys, each value valid, at a
    boundary or mutated; lines carry comments, odd spacing and junk."""
    stages = draw(st.sampled_from(_VALID_STAGES) | st.sampled_from(_MUTATED_STAGES))
    pairs = [("conv_channels", stages[0]), ("pool_targets", stages[1])]
    for key in draw(st.lists(st.sampled_from(sorted(_MUTATED_VALUES)), unique=True, max_size=5)):
        bad = draw(st.integers(0, 3)) == 0
        pairs.append((key, draw(st.sampled_from((_MUTATED_VALUES if bad else _VALID_VALUES)[key]))))
    lines, overrides = [], {}
    for key, value in pairs:
        if draw(st.booleans()):
            overrides[key] = value
        else:
            line = draw(st.sampled_from(["{} = {}", "{}={}  # note", "  {}  =  {}"]))
            lines.append(line.format(key, value))
    harmless, broken = ["", "# comment"], ["epochs", "bogus = 1", "= 3"]
    junk = draw(st.sampled_from(broken if draw(st.integers(0, 3)) == 0 else harmless))
    lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n", overrides


@pytest.fixture(scope="module")
def property_dataset():
    """Two train and two test limbs (204-378 edges), class and edge labelled."""
    spec = DatasetSpec("articulated-limbs", 2, 2, edge_range=(250, 500), seed=1)
    return split(generate(spec), 1, 1, seed=1)


@settings(max_examples=200, deadline=None)
@given(draw=config_draws())
def test_config_draw_is_rejected_or_trains(property_dataset, draw):
    """A config either fails as a ConfigError or trains one epoch; the one
    typed failure a valid config may meet there is a pool target that these
    meshes cannot reach."""
    text, overrides = draw
    try:
        config = parse_config(text, overrides)
    except ConfigError:
        return
    try:
        train(replace(config, epochs=1), property_dataset)
    except MeshFormsError as err:
        assert isinstance(err, PoolTargetError) or "pool target" in str(err), err


class TestMetricDefinitions:
    def test_soft_accuracy_all_correct(self):
        assert soft_edge_accuracy([1.0, 2.0], [0, 1], [0, 1]) == 1.0

    def test_soft_accuracy_shorter_half(self):
        # correct edges hold exactly half the total length
        lengths = [1.0, 1.0, 2.0]
        predicted = [0, 0, 1]
        labels = [0, 0, 0]
        assert soft_edge_accuracy(lengths, predicted, labels) == 0.5

    def test_soft_accuracy_uniform_lengths_is_plain_accuracy(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=50)
        predicted = rng.integers(0, 3, size=50)
        soft = soft_edge_accuracy(np.ones(50), predicted, labels)
        assert np.isclose(soft, np.mean(predicted == labels))


    def test_timing_record_is_opt_in_and_last(self):
        """Reports stay byte-stable by default; the wall clock is an opt-in
        last record after the metrics and the loss curve."""
        report = pipelines.MetricsReport(
            "classification", "ab", 3, {"test_accuracy": 0.5}, [1.25, 0.75], 2.5, "cd"
        )
        base = {"task": "classification", "config_hash": "ab", "seed": 3, "dataset_hash": "cd"}
        records = report.to_records()
        assert [r["metric"] for r in records] == ["test_accuracy", "train_loss", "train_loss"]
        assert report.to_records(include_timing=True) == [
            *records, {**base, "metric": "wall_clock_s", "value": 2.5}
        ]


class TestTraining:
    def test_one_epoch_on_eight_meshes(self):
        samples = tiny_dataset(task_classes=4, per_class=3)  # 8 train, 4 test
        assert sum(s.split == "train" for s in samples) == 8
        ckpt, report = train(tiny_config(), samples)
        assert np.isfinite(report.metrics["final_train_loss"])
        assert len(report.train_curve) == 1
        assert 0.0 <= report.metrics["test_accuracy"] <= 1.0

    def test_same_seed_identical_results(self):
        samples = tiny_dataset()
        c1, r1 = train(tiny_config(epochs=2), samples)
        c2, r2 = train(tiny_config(epochs=2), samples)
        assert r1.metrics["test_accuracy"] == r2.metrics["test_accuracy"]
        assert c1.to_bytes() == c2.to_bytes()
        assert r1.train_curve == r2.train_curve

    def test_missing_train_split_rejected(self):
        samples = [s for s in tiny_dataset() if s.split == "test"]
        with pytest.raises(DataError):
            train(tiny_config(), samples)

    def test_checkpoint_carries_stats_and_meta(self):
        samples = tiny_dataset()
        cfg = tiny_config()
        ckpt, _ = train(cfg, samples)
        assert ckpt.channel_stats is not None
        assert ckpt.meta["config_hash"] == config_hash(cfg)
        again = Checkpoint.from_bytes(ckpt.to_bytes())
        assert again.meta == ckpt.meta

    def test_segmentation_smoke(self):
        samples = tiny_dataset(2, 3, generator="articulated-limbs")
        cfg = tiny_config(task="segmentation")
        ckpt, report = train(cfg, samples)
        assert 0.0 <= report.metrics["soft_edge_accuracy"] <= 1.0

    def test_denoising_smoke(self):
        samples = tiny_dataset(2, 3)
        cfg = tiny_config(task="denoising", noise_variance=0.05)
        ckpt, report = train(cfg, samples)
        assert report.metrics["test_mse"] >= 0.0
        assert report.metrics["identity_mse"] > 0.0


@pytest.mark.parametrize(
    "task, generator",
    [("classification", "primitive-zoo"), ("segmentation", "articulated-limbs")],
)
def test_benchmark_tracer_sees_every_backward(task, generator, monkeypatch):
    """One epoch under perfbench's Recorder and Tracer: each training step
    opens one ``autodiff.backward`` span, the conv, pool and unpool rules run
    inside it once per such layer, and the step makes ``len(layers) + 2``
    Values (the input, one per layer, the loss). An engine that bypassed
    ``Value.backward``, or read a rule before the tracer wrapped it, would
    only show in a traced benchmark run otherwise."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    samples = [s for s in tiny_dataset(2, 3, generator=generator) if s.split == "train"]
    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder)
    at_backward = []  # (Values made so far, autodiff.backward spans so far)

    with tracing.Patches() as patches:
        recorder.install(patches)
        tracer.install(patches)
        backward = ModelGraph.backward

        def counted_backward(model, loss):
            grads = backward(model, loss)
            spans = sum(span[0] == "autodiff.backward" for span in tracer.spans)
            at_backward.append((tracer.counts["values"], spans))
            return grads

        patches.set(ModelGraph, "backward", counted_backward)
        train(tiny_config(task=task, batch_size=2), samples)
    model = recorder.model

    assert len(at_backward) == len(samples)  # one epoch, no evaluation
    values, spans = np.diff([(len(model.parameters()), 0)] + at_backward, axis=0).T
    assert set(values) == {len(model.layers) + 2}
    assert set(spans) == {1}
    steps = [i for i, span in enumerate(tracer.spans) if span[0] == "autodiff.backward"]
    assert all(tracer.spans[i][3] == -1 for i in steps)
    for name, cls in (("conv.bwd", MeshConv), ("pooling.bwd", Pool), ("unpool.bwd", Unpool)):
        per_layer = sum(isinstance(layer, cls) for layer in model.layers)
        parents = Counter(span[3] for span in tracer.spans if span[0] == name)
        assert parents == (Counter({i: per_layer for i in steps}) if per_layer else {}), name
    assert any(isinstance(layer, Unpool) for layer in model.layers) == (task != "classification")


@pytest.fixture
def frozen_gradients(monkeypatch):
    """Hand every backward rule a read-only view of its gradient; counts the calls."""
    calls = []
    init = Value.__init__

    def frozen_init(self, data, parents=(), backward_rule=None):
        if backward_rule is not None:
            rule = backward_rule

            def backward_rule(g):
                g = g.view()
                g.flags.writeable = False
                calls.append(g.shape)
                return rule(g)

        init(self, data, parents, backward_rule)

    monkeypatch.setattr(Value, "__init__", frozen_init)
    return calls


@pytest.mark.parametrize(
    "task, generator",
    [
        ("classification", "primitive-zoo"),
        ("segmentation", "articulated-limbs"),
        ("denoising", "primitive-zoo"),
    ],
)
def test_no_rule_writes_to_its_gradient(task, generator, request):
    """One optimizer step with frozen gradients gives the unfrozen bytes."""
    samples = tiny_dataset(2, 3, generator=generator)
    cfg = tiny_config(task=task, batch_size=8, noise_variance=0.05)
    runs = []
    for frozen in (False, True):
        if frozen:
            calls = request.getfixturevalue("frozen_gradients")
        ckpt, report = train(cfg, samples)
        runs.append((ckpt.to_bytes(), np.asarray(report.train_curve).tobytes(), report.metrics))
    assert len(calls) > 40  # every rule of every step ran under a read-only gradient
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "task, generator",
    [("classification", "primitive-zoo"), ("segmentation", "articulated-limbs")],
)
def test_model_input_takes_no_gradient(task, generator, monkeypatch):
    """Training leaves every input leaf without a gradient, and gives the
    checkpoint and loss curve of a run that computes the input's gradient."""
    samples = tiny_dataset(2, 3, generator=generator)
    cfg = tiny_config(task=task, batch_size=8)
    constant = Value.constant
    inputs = []

    def recorded(data):
        value = constant(data)
        inputs.append(value)
        return value

    runs = []
    for leaf in (Value, recorded):
        with monkeypatch.context() as patch:
            patch.setattr(Value, "constant", staticmethod(leaf))
            ckpt, report = train(cfg, samples)
        runs.append((ckpt.to_bytes(), np.asarray(report.train_curve).tobytes()))
    assert runs[0] == runs[1]
    # One constant per training step and per evaluated test mesh: the losses
    # make none, since their targets and labels are not graph nodes.
    tests = sum(s.split == "test" for s in samples)
    assert len(inputs) == cfg.epochs * (len(samples) - tests) + tests
    assert all(value.grad is None for value in inputs)


class TestEvaluation:
    def test_untrained_model_near_chance(self):
        # statistical oracle: balanced set, prediction independent of label
        classes = 4
        samples = generate(
            DatasetSpec("primitive-zoo", classes, 10, edge_range=(150, 320), seed=3)
        )
        for s in samples:
            s.split = "test"
        ckpt = untrained_checkpoint(tiny_config(epochs=1), classes)
        accuracy = evaluate(ckpt, "classification", samples)["test_accuracy"]
        n = len(samples)
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(accuracy - 1.0 / classes) <= 3 * sigma + 1e-9

    def test_no_graph_node_reachable_after_evaluation(self):
        samples = tiny_dataset()
        ckpt, _ = train(tiny_config(), samples)  # train ends with an evaluation
        evaluate(ckpt, "classification", samples)
        values = reachable_values(ckpt.model)
        assert [v for v in values if v.parents] == []
        assert sorted(map(id, values)) == sorted(map(id, ckpt.model.parameters().values()))

    def test_empty_test_set_rejected(self):
        samples = tiny_dataset()
        ckpt, _ = train(tiny_config(), samples)
        with pytest.raises(DataError):
            evaluate(ckpt, "classification", [s for s in samples if s.split == "train"][:0])

    def test_task_mismatch_rejected(self):
        samples = tiny_dataset()
        ckpt, _ = train(tiny_config(), samples)
        with pytest.raises(ConfigError):
            evaluate(ckpt, "segmentation", samples)
        with pytest.raises(ConfigError):
            evaluate(ckpt, "denoising", [], seed=0)


@pytest.mark.parametrize(
    "task, generator",
    [
        ("classification", "primitive-zoo"),
        ("segmentation", "articulated-limbs"),
        ("denoising", "primitive-zoo"),
    ],
)
def test_evaluation_frees_each_graph_before_the_next_forward(
    task, generator, monkeypatch, made_arrays
):
    """When an evaluator starts a mesh's forward, no activation of the previous
    mesh's graph is alive, without the cycle collector's help."""
    samples = tiny_dataset(2, 3, generator=generator)
    ckpt, _ = train(tiny_config(task=task, noise_variance=0.05), samples)
    forward = ModelGraph.forward
    previous = []  # weak references to the last forward's hidden activations
    alive_at_entry = []

    def watched(model, features, topology):
        alive_at_entry.append(sum(ref() is not None for ref in previous))
        previous.clear()
        made_arrays.clear()
        out, ctx = forward(model, features, topology)
        previous.extend(ref for ref in made_arrays if ref() is not out.data)
        return out, ctx

    monkeypatch.setattr(ModelGraph, "forward", watched)
    gc.disable()
    try:
        evaluate(ckpt, task, samples, seed=1, variance=0.05)
    finally:
        gc.enable()
    assert len(alive_at_entry) >= 2 and len(previous) > 5
    assert alive_at_entry == [0] * len(alive_at_entry)


@pytest.mark.parametrize(
    "task, generator",
    [
        ("classification", "primitive-zoo"),
        ("segmentation", "articulated-limbs"),
        ("denoising", "primitive-zoo"),
    ],
)
def test_training_and_evaluation_feed_the_model_the_same_bytes(task, generator, monkeypatch):
    """One epoch without augmentation gives ``ModelGraph.forward`` the same
    standardized array for each mesh as evaluating the trained checkpoint."""
    train_only = [s for s in tiny_dataset(2, 3, generator=generator) if s.split == "train"]
    forward = ModelGraph.forward
    fed = []

    def captured(model, features, topology):
        fed.append(np.asarray(features).tobytes())
        return forward(model, features, topology)

    monkeypatch.setattr(ModelGraph, "forward", captured)
    config = tiny_config(task=task, noise_variance=0.05)
    ckpt, _ = train(config, train_only)  # no test split, so no evaluation
    trained = sorted(fed)
    fed.clear()
    evaluate(ckpt, task, unsplit(train_only), seed=config.seed)
    assert len(trained) == len(train_only) == len(set(trained))
    assert sorted(fed) == trained


def reachable_values(root):
    """Every ``Value`` reachable from ``root`` through object references.

    Types and modules are not entered, and functions only through their
    closure cells, so the walk stays inside the object's own state.
    """
    seen, stack, values = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Value):
            values.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return values


def _unit_stats(channels):
    from meshforms import ChannelStats

    return ChannelStats(np.zeros(channels), np.ones(channels))


def untrained_checkpoint(config, out_dim):
    """An untrained ``build_model`` checkpoint of ``config`` on ff inputs, with
    unit statistics."""
    meta = {
        "task": config.task,
        "features": "ff",
        "channel_mask": [],
        "output_features": config.output_features,
        "noise_variance": config.noise_variance,
        "config_hash": "x",
        "seed": config.seed,
    }
    return Checkpoint(build_model(config, 2, out_dim), _unit_stats(2), meta)


def unsplit(samples):
    """The samples with no split, so an evaluator reads every one."""
    return [replace(s, split="") for s in samples]


@pytest.mark.parametrize(
    "task, generator",
    [
        ("classification", "primitive-zoo"),
        ("segmentation", "articulated-limbs"),
        ("denoising", "primitive-zoo"),
    ],
)
def test_evaluation_builds_one_topology_per_test_mesh(task, generator, monkeypatch):
    """Each test mesh is scanned once, within its group's union: the scanned
    faces sum to the test meshes' own."""
    samples = tiny_dataset(2, 3, generator=generator)
    ckpt = untrained_checkpoint(tiny_config(task=task, noise_variance=0.05), 2)
    built = []

    def counted(mesh):
        built.append(mesh.face_count)
        return build_edge_topology(mesh)

    monkeypatch.setattr(pipelines, "build_edge_topology", counted)
    evaluate(ckpt, task, samples, seed=1)
    assert sum(built) == sum(s.mesh.face_count for s in samples if s.split == "test")


class TestDenoising:
    @pytest.mark.parametrize(
        "kind, golden",
        [
            ("ff", (0.6730151969796866, 1.4204437981328475)),
            ("xyz", (0.4924243263535805, 0.02464148738073776)),
        ],
    )
    def test_untrained_mse_golden(self, kind, golden):
        """Model and identity MSEs of an untrained model, bit for bit."""
        cfg = tiny_config(task="denoising", output_features=kind, noise_variance=0.05)
        ckpt = untrained_checkpoint(cfg, {"ff": 2, "xyz": 3}[kind])
        metrics = evaluate(ckpt, "denoising", tiny_dataset(), seed=4)
        assert (metrics["test_mse"], metrics["identity_mse"]) == golden

    def test_identity_baseline_zero_noise(self):
        ckpt = untrained_checkpoint(tiny_config(task="denoising"), 2)
        metrics = evaluate(ckpt, "denoising", unsplit(tiny_dataset(2, 2)), seed=1, variance=0.0)
        assert metrics["identity_mse"] == 0.0

    def test_identity_baseline_positive_with_noise(self):
        samples = unsplit(tiny_dataset(2, 2))
        for kind, channels in (("ff", 2), ("xyz", 3)):
            cfg = tiny_config(task="denoising", output_features=kind)
            metrics = evaluate(
                untrained_checkpoint(cfg, channels), "denoising", samples, seed=1, variance=0.1
            )
            assert metrics["identity_mse"] > 0.0

    def test_xyz_identity_scales_with_noise_variance(self):
        # midpoint of two noisy endpoints has variance sigma^2/2 per channel
        ckpt = untrained_checkpoint(tiny_config(task="denoising", output_features="xyz"), 3)
        var = 0.02
        metrics = evaluate(ckpt, "denoising", unsplit(tiny_dataset(1, 2)), seed=2, variance=var)
        assert abs(metrics["identity_mse"] - var / 2) < var * 0.25


class TestRotationProbe:
    def test_rotation_seed_changes_xyz_inputs_only(self):
        samples = tiny_dataset(2, 3)
        cfg = tiny_config(features="ff", epochs=1)
        ckpt, _ = train(cfg, samples)
        base = evaluate(ckpt, "classification", samples)
        rotated = evaluate(ckpt, "classification", samples, rotation_seed=5)
        assert base == rotated  # invariant features: identical decisions

    def test_rotation_probe_extracts_once_per_test_mesh(self, monkeypatch):
        """The extracted edges sum to the test meshes' own: each mesh's input
        is extracted once, within its group's union."""
        samples = tiny_dataset(2, 3)
        ckpt = untrained_checkpoint(tiny_config(), 2)
        extracted = []

        def counted(topology, mesh, kind):
            extracted.append(topology.edge_count)
            return extract(topology, mesh, kind)

        monkeypatch.setattr(pipelines, "extract", counted)
        evaluate(ckpt, "classification", samples, rotation_seed=5)
        test = [s.mesh for s in samples if s.split == "test"]
        assert sum(extracted) == sum(build_edge_topology(m).edge_count for m in test)
