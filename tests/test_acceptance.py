"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see
them live). Criteria that share training runs reuse session fixtures, so the
whole module stays well inside the individual runtime budgets.
"""

import time

import numpy as np
import pytest

from meshforms import (
    Checkpoint,
    DatasetSpec,
    ExperimentConfig,
    RigidMotion,
    ScoreQueue,
    apply_motion,
    build_edge_topology,
    evaluate_classification,
    evaluate_denoising,
    generate,
    pool,
    split,
    train,
    validate_manifold,
)
from meshforms.datasets import _random_rotation
from meshforms.features import MESHCNN5, XYZ, coordinate_features, extract, fundamental_forms, meshcnn5
from meshforms.layers import (
    Dense,
    GlobalAveragePool,
    InstanceNorm,
    MeshConv,
    MeshContext,
    Pool,
    ReLU,
    Unpool,
    Value,
    cross_entropy,
    mse,
)
from meshforms.pipelines import run_ablation
from meshforms.pooling import BATCH_LEGACY, PoolingState
from meshforms.topology import EdgeTopology

from algebra import weighted_sum
from conftest import finite_difference, fuzz_corpus
from test_pooling import build_divergence_fixture


def _check(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {description} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {description} {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale artifacts


@pytest.fixture(scope="module")
def zoo_dataset():
    spec = DatasetSpec(
        "primitive-zoo", classes=4, per_class=20, edge_range=(250, 400), seed=42
    )
    return split(generate(spec), 16, 4, seed=42)


def _classification_config(**overrides):
    base = dict(
        task="classification",
        features="ff",
        pooling="enhanced",
        conv_channels=(16, 32),
        pool_targets=(160, 100),
        epochs=20,
        batch_size=8,
        learning_rate=1e-2,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def ff_checkpoint(zoo_dataset):
    started = time.perf_counter()
    checkpoint, report = train(_classification_config(), zoo_dataset)
    return checkpoint, report, time.perf_counter() - started


@pytest.fixture(scope="module")
def xyz_checkpoint(zoo_dataset):
    checkpoint, report = train(_classification_config(features="xyz"), zoo_dataset)
    return checkpoint, report


# ---------------------------------------------------------------------------
# 1. rigid-motion invariance


def test_criterion_1_rigid_motion_invariance():
    started = time.perf_counter()
    meshes = fuzz_corpus(20, seed=101, edge_range=(150, 350))
    rng = np.random.default_rng(7)
    worst_ff = 0.0
    worst_m5 = 0.0
    xyz_change = 0.0
    for mesh in meshes:
        topology = build_edge_topology(mesh)
        base_ff = fundamental_forms(topology, mesh).values
        base_m5 = meshcnn5(topology, mesh).values
        base_xyz = coordinate_features(topology, mesh, XYZ).values
        for _ in range(100):
            motion = RigidMotion(
                _random_rotation(rng), translation=rng.uniform(-1.0, 1.0, 3)
            )
            moved = apply_motion(mesh, motion)
            worst_ff = max(
                worst_ff,
                float(np.max(np.abs(fundamental_forms(topology, moved).values - base_ff))),
            )
            worst_m5 = max(
                worst_m5,
                float(np.max(np.abs(meshcnn5(topology, moved).values - base_m5))),
            )
        moved = apply_motion(mesh, RigidMotion(_random_rotation(rng)))
        xyz_change = max(
            xyz_change,
            float(np.max(np.abs(coordinate_features(topology, moved, XYZ).values - base_xyz))),
        )
    elapsed = time.perf_counter() - started
    ok = worst_ff < 1e-9 and worst_m5 < 1e-9 and xyz_change > 1e-3 and elapsed < 60
    _check(
        1,
        "rigid-motion invariance of FF and MESHCNN5 (< 1e-9), XYZ contrast",
        ok,
        f"(max FF err {worst_ff:.2e}, max M5 err {worst_m5:.2e}, "
        f"XYZ change {xyz_change:.2e}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 2. convolution order invariance


def test_criterion_2_conv_order_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    checked = 0
    all_equal = True
    for mesh in fuzz_corpus(10, seed=103, edge_range=(150, 350)):
        topology = build_edge_topology(mesh)
        features = rng.normal(size=(topology.edge_count, 6))
        conv = MeshConv(6, 5, rng)
        swapped = EdgeTopology(
            topology.edges, topology.edge_faces[:, ::-1].copy(), topology.face_edges
        )
        assert np.array_equal(swapped.neighbors, topology.neighbors[:, [2, 3, 0, 1]])
        base = conv(Value(features), MeshContext(topology)).data
        flipped = conv(Value(features), MeshContext(swapped)).data
        sample = rng.choice(topology.edge_count, size=100, replace=False)
        for e in sample:
            checked += 1
            if not np.array_equal(base[e], flipped[e]):
                all_equal = False
    elapsed = time.perf_counter() - started
    ok = all_equal and checked >= 1000 and elapsed < 60
    _check(
        2,
        "swapping (a,b) with (c,d) leaves conv output bitwise identical",
        ok,
        f"({checked} edges, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 3. gradient oracle for every layer


def _layer_max_rel_error(layer, features, topology):
    probe = {}
    probe_rng = np.random.default_rng(3)

    def objective():
        ctx = MeshContext(topology)
        out = layer(Value(features), ctx)
        if out.data.shape not in probe:
            probe[out.data.shape] = probe_rng.normal(size=out.data.shape)
        return float(np.sum(out.data * probe[out.data.shape]))

    objective()
    inputs = Value(features)
    ctx = MeshContext(topology)
    out = layer(inputs, ctx)
    weighted_sum(out, probe[out.data.shape]).backward()
    worst = 0.0

    def rel(grad, fd):
        denom = max(np.max(np.abs(fd)), np.max(np.abs(grad)), 1e-8)
        return float(np.max(np.abs(grad - fd)) / denom)

    worst = max(worst, rel(inputs.grad, finite_difference(objective, features)))
    for value in layer.parameters().values():
        worst = max(worst, rel(value.grad, finite_difference(objective, value.data)))
    return worst


def test_criterion_3_gradient_oracle():
    started = time.perf_counter()
    mesh = fuzz_corpus(1, seed=107, edge_range=(150, 260))[0]
    topology = build_edge_topology(mesh)
    rng = np.random.default_rng(5)
    features = rng.normal(size=(topology.edge_count, 3))
    features *= 1.0 + np.arange(topology.edge_count)[:, None] * 0.01
    features += np.sign(features) * 0.01  # keep ReLU probes off the kink

    class PoolThenUnpool:
        def __init__(self):
            self.pool = Pool(topology.edge_count - 24)
            self.unpool = Unpool()

        def parameters(self):
            return {}

        def __call__(self, x, ctx):
            return self.unpool(self.pool(x, ctx), ctx)

    norm = InstanceNorm(3)
    norm.gamma.data = rng.normal(size=3)
    norm.beta.data = rng.normal(size=3)
    layers = {
        "mesh_conv": MeshConv(3, 4, rng),
        "instance_norm": norm,
        "relu": ReLU(),
        "pool": Pool(topology.edge_count - 24),
        "unpool": PoolThenUnpool(),
        "global_average_pool": GlobalAveragePool(),
        "dense": Dense(3, 5, rng),
    }
    errors = {
        name: _layer_max_rel_error(layer, features, topology)
        for name, layer in layers.items()
    }

    logits = rng.normal(size=(1, 6))  # one mesh's class logits
    v = Value(logits)
    cross_entropy(v, 2).backward()
    fd = finite_difference(lambda: float(cross_entropy(Value(logits), 2).data), logits)
    errors["cross_entropy"] = float(
        np.max(np.abs(v.grad - fd)) / max(np.max(np.abs(fd)), 1e-8)
    )
    pred = rng.normal(size=(8, 3))
    target = rng.normal(size=(8, 3))
    v = Value(pred)
    mse(v, target).backward()
    fd = finite_difference(lambda: float(mse(Value(pred), target).data), pred)
    errors["mse"] = float(np.max(np.abs(v.grad - fd)) / max(np.max(np.abs(fd)), 1e-8))

    elapsed = time.perf_counter() - started
    worst = max(errors.values())
    ok = worst < 1e-6 and elapsed < 300
    _check(
        3,
        "central finite differences match every layer (< 1e-6 relative)",
        ok,
        f"(worst {worst:.2e} in {max(errors, key=errors.get)}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 4. pooling soundness on a 100-mesh fuzz corpus


def test_criterion_4_pooling_soundness():
    started = time.perf_counter()
    meshes = fuzz_corpus(100, seed=109, edge_range=(120, 260))
    assert len(meshes) == 100
    collapses = 0
    for i, mesh in enumerate(meshes):
        topology = build_edge_topology(mesh)
        rng = np.random.default_rng(i)
        features = rng.normal(size=(topology.edge_count, 3))
        state = PoolingState(topology, features, positions=mesh.vertices)
        target = topology.edge_count // 2
        queue = ScoreQueue(state.scores)
        while state.live_edge_count > target:
            edge = queue.pop_live(state.edge_alive)
            assert edge is not None, f"mesh {i}: queue exhausted at {state.live_edge_count}"
            if state.collapse_illegality(edge) is not None:
                continue
            before = state.live_edge_count
            record = state.collapse(edge)
            collapses += 1
            assert state.live_edge_count == before - 3, "edge count miscount"
            report = validate_manifold(state.export_mesh())
            assert report.is_clean, f"mesh {i}: {report.summary()}"
            for survivor in record.surviving_edges:
                expected = np.linalg.norm(state.features[survivor])
                assert abs(state.scores[survivor] - expected) < 1e-12
                queue.push(survivor, state.scores[survivor])
        assert state.live_edge_count <= target
    elapsed = time.perf_counter() - started
    ok = elapsed < 120
    _check(
        4,
        "pooling to 50% stays manifold, counts -3 per collapse, scores = norms",
        ok,
        f"({collapses} collapses over 100 meshes, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 5. policy-divergence fixture


def test_criterion_5_policy_divergence_fixture():
    mesh, topology, features, e, a, f = build_divergence_fixture()
    target = topology.edge_count - 6
    enhanced = pool(features, topology, target, mesh=mesh)
    legacy = pool(features, topology, target, mesh=mesh, policy=BATCH_LEGACY)
    first_e = enhanced.history.records[0].collapsed_edge == e
    first_l = legacy.history.records[0].collapsed_edge == e
    second_enhanced = enhanced.history.records[1].collapsed_edge
    second_legacy = legacy.history.records[1].collapsed_edge
    ok = (
        first_e
        and first_l
        and second_enhanced == f
        and second_legacy == a
        and second_enhanced != second_legacy
    )
    _check(
        5,
        "incremental rescoring picks the far edge; batch policy picks a",
        ok,
        f"(enhanced -> {second_enhanced}, legacy -> {second_legacy}, a={a}, f={f})",
    )


# ---------------------------------------------------------------------------
# 6. desk-scale classification + ablation grid


def test_criterion_6_classification_and_ablation(zoo_dataset, ff_checkpoint):
    checkpoint, report, elapsed = ff_checkpoint
    accuracy = report.metrics["test_accuracy"]
    ok_main = accuracy >= 0.95 and elapsed < 600
    grid_config = _classification_config(epochs=12)
    rows, table = run_ablation(grid_config, zoo_dataset)
    cells = {(p, f): r.metrics["test_accuracy"] for p, f, r in rows}
    ok_grid = (
        len(rows) == 4
        and cells[("enhanced", "ff")] >= cells[("legacy", "meshcnn5")]
    )
    _check(
        6,
        "FF + incremental pooling reaches >= 95% and tops the legacy cell",
        ok_main and ok_grid,
        f"(accuracy {accuracy:.3f} in {elapsed:.0f}s; grid "
        + ", ".join(f"{k}={v:.2f}" for k, v in sorted(cells.items())),
    )


# ---------------------------------------------------------------------------
# 7. desk-scale de-noising


def test_criterion_7_denoising():
    started = time.perf_counter()
    spec = DatasetSpec(
        "primitive-zoo", classes=4, per_class=8, edge_range=(250, 400), seed=21
    )
    samples = split(generate(spec), 6, 2, seed=21)
    test = [s for s in samples if s.split == "test"]

    results = {}
    for out_kind in ("ff", "xyz"):
        config = ExperimentConfig(
            task="denoising",
            features="ff",
            output_features=out_kind,
            pooling="enhanced",
            conv_channels=(16, 32),
            pool_targets=(160, 100),
            epochs=12,
            batch_size=8,
            learning_rate=1e-2,
            noise_variance=0.1,
            seed=0,
        )
        checkpoint, _ = train(config, samples)
        results[out_kind] = evaluate_denoising(checkpoint, test, seed=555, variance=0.1)
    elapsed = time.perf_counter() - started
    ff_model, ff_ident = results["ff"]
    xyz_model, xyz_ident = results["xyz"]
    ok = (
        ff_model <= 0.5 * ff_ident
        and xyz_model > 0.5 * xyz_ident
        and elapsed < 900
    )
    _check(
        7,
        "FF targets beat half the identity baseline; XYZ targets do not",
        ok,
        f"(ff {ff_model:.4f} vs ident {ff_ident:.4f}; "
        f"xyz {xyz_model:.4f} vs ident {xyz_ident:.4f}; {elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 8. rotation-robustness gap


def test_criterion_8_rotation_gap(zoo_dataset, ff_checkpoint, xyz_checkpoint):
    ff_ckpt, ff_report, _ = ff_checkpoint
    xyz_ckpt, xyz_report = xyz_checkpoint
    ff_base = ff_report.metrics["test_accuracy"]
    xyz_base = xyz_report.metrics["test_accuracy"]
    ff_rot = evaluate_classification(ff_ckpt, zoo_dataset, rotation_seed=777)
    xyz_rot = evaluate_classification(xyz_ckpt, zoo_dataset, rotation_seed=777)
    ff_drop = (ff_base - ff_rot) * 100
    xyz_drop = (xyz_base - xyz_rot) * 100
    ok = abs(ff_drop) < 1.0 and xyz_drop >= 10.0
    _check(
        8,
        "test-time rotations: FF accuracy moves < 1 point, XYZ drops >= 10",
        ok,
        f"(FF {ff_base:.3f}->{ff_rot:.3f}, XYZ {xyz_base:.3f}->{xyz_rot:.3f})",
    )


# ---------------------------------------------------------------------------
# 9. determinism of command outputs


def test_criterion_9_determinism(tmp_path):
    from meshforms.cli import main
    from meshforms.mesh import write_obj

    mesh = fuzz_corpus(1, seed=113, edge_range=(150, 250))[0]
    mesh_path = tmp_path / "mesh.obj"
    mesh_path.write_bytes(write_obj(mesh))

    outputs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        root.mkdir()
        feat = root / "features.bin"
        assert (
            main(["features", "--mesh", str(mesh_path), "--kind", "ff", "--out", str(feat)])
            == 0
        )
        data_dir = root / "data"
        assert (
            main(
                [
                    "gen-data", "--spec", "primitive-zoo", "--classes", "3",
                    "--per-class", "3", "--train-per-class", "2",
                    "--test-per-class", "1", "--edge-range", "150,300",
                    "--seed", "9", "--out", str(data_dir),
                ]
            )
            == 0
        )
        ckpt = root / "model.ckpt"
        report = root / "report.jsonl"
        assert (
            main(
                [
                    "train", "--data", str(data_dir), "--out", str(ckpt),
                    "--report", str(report), "--seed", "4",
                    "--set", "epochs=2", "--set", "conv_channels=6,8",
                    "--set", "pool_targets=100,70",
                ]
            )
            == 0
        )
        tree = {}
        for p in sorted(root.rglob("*")):
            if p.is_file():
                tree[str(p.relative_to(root))] = p.read_bytes()
        outputs.append(tree)
    ok = outputs[0] == outputs[1]
    _check(
        9,
        "feature files, datasets, checkpoints and reports are byte-identical",
        ok,
        f"({len(outputs[0])} files compared)",
    )
