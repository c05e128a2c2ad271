"""Grouped preparation: a group of small meshes is scanned and extracted as one
disjoint union, and every sample still gets the bits, the errors and the error
order of a sample prepared alone (``_GROUP_FACES = 0``: every group one mesh)."""

import numpy as np
import pytest

from meshforms import DatasetSpec, ExperimentConfig, Mesh, generate, pipelines
from meshforms.cli import main
from meshforms.datasets import LabeledMesh, save_dataset
from meshforms.errors import (DataError, DegenerateFaceError, MeshError, MeshFormsError,
                              TopologyError)
from meshforms.topology import SENTINEL, build_edge_topology

KINDS = ("ff", "meshcnn5", "xyz", "xyz-inv", "laplacian")
GENERATORS = {
    "classification": "primitive-zoo",
    "segmentation": "articulated-limbs",
    "denoising": "primitive-zoo",
}
TETRA_VERTICES = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
TETRA_FACES = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]


def open_grid(n=4):
    """An (n x n)-cell height field: an open mesh whose rim edges have one face."""
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    vertices = np.column_stack([i.ravel(), j.ravel(), np.sin(i.ravel() + 2.0 * j.ravel())])
    faces = []
    for a in range(n):
        for b in range(n):
            p, q, r, s = (a * (n + 1) + b, (a + 1) * (n + 1) + b,
                          a * (n + 1) + b + 1, (a + 1) * (n + 1) + b + 1)
            faces += [(p, q, s), (p, s, r)]
    return Mesh(vertices, faces)


def labelled(mesh, sample_id, class_label=0, edge_labels="auto"):
    if edge_labels == "auto":
        edge_labels = np.arange(build_edge_topology(mesh).edge_count) % 2
    return LabeledMesh(mesh, class_label, edge_labels, "train", sample_id)


def dataset(task, per_class=4):
    """Generated meshes of a few hundred faces, an open grid in the middle."""
    spec = DatasetSpec(GENERATORS[task], 2, per_class, edge_range=(150, 320), seed=4)
    samples = generate(spec)
    for s in samples:
        s.split = "train"
    middle = len(samples) // 2
    return samples[:middle] + [labelled(open_grid(), "grid")] + samples[middle:]


def config(task, features="ff", **overrides):
    return ExperimentConfig(
        task=task, features=features, conv_channels=(4,), pool_targets=(60,), seed=3,
        noise_variance=0.05, **overrides
    )


def prepared(cfg, samples, rotation_seed, monkeypatch, budget):
    monkeypatch.setattr(pipelines, "_GROUP_FACES", budget)
    return list(pipelines._prepare_samples(cfg, samples, rotation_seed))


def group_sizes(samples, monkeypatch, budget):
    monkeypatch.setattr(pipelines, "_GROUP_FACES", budget)
    return [len(group) for group in pipelines._groups(samples)]


def assert_alone_bits(cfg, samples, rotation_seed, monkeypatch, budget=pipelines._GROUP_FACES):
    """Grouped preparation at ``budget`` gives each sample its bits alone."""
    grouped = prepared(cfg, samples, rotation_seed, monkeypatch, budget)
    alone = prepared(cfg, samples, rotation_seed, monkeypatch, 0)
    assert len(grouped) == len(alone) == len(samples)
    for p, q in zip(grouped, alone):
        assert p.sample is q.sample
        for name in ("edges", "edge_faces", "face_edges", "neighbors"):
            a, b = getattr(p.topology, name), getattr(q.topology, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        for a, b in ((p.inputs_raw, q.inputs_raw), (p.target, q.target)):
            a, b = np.asarray(a), np.asarray(b)
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
        for a, b in ((p.mesh, q.mesh), (p.source, q.source)):
            assert a.vertices.tobytes() == b.vertices.tobytes()
            assert a.faces.tobytes() == b.faces.tobytes()


@pytest.mark.parametrize("rotation_seed", [None, 7], ids=["unrotated", "probe"])
@pytest.mark.parametrize("features", KINDS)
@pytest.mark.parametrize("task", sorted(GENERATORS))
def test_grouping_changes_no_bit(task, features, rotation_seed, monkeypatch):
    samples = dataset(task)
    assert max(group_sizes(samples, monkeypatch, pipelines._GROUP_FACES)) > 2
    assert_alone_bits(config(task, features), samples, rotation_seed, monkeypatch)


@pytest.mark.parametrize("task", sorted(GENERATORS))
def test_grouping_with_a_channel_mask_changes_no_bit(task, monkeypatch):
    cfg = config(task, "meshcnn5", channel_mask=(1, 0, 1, 1, 0))
    assert_alone_bits(cfg, dataset(task), None, monkeypatch)


def test_a_group_may_fill_the_budget_exactly(monkeypatch):
    samples = dataset("classification")
    budget = sum(s.mesh.face_count for s in samples[:3])
    assert group_sizes(samples, monkeypatch, budget)[0] == 3
    assert group_sizes(samples, monkeypatch, budget - 1)[0] == 2
    assert_alone_bits(config("classification", "meshcnn5"), samples, None, monkeypatch, budget)


def test_a_mesh_larger_than_the_budget_is_a_group_of_its_own(monkeypatch):
    samples = dataset("segmentation")
    faces = [s.mesh.face_count for s in samples]
    largest = int(np.argmax(faces))
    budget = faces[largest] - 1
    monkeypatch.setattr(pipelines, "_GROUP_FACES", budget)
    groups = [[i for i, _ in group] for group in pipelines._groups(samples)]
    assert [largest] in groups
    assert max(map(len, groups)) > 1
    assert_alone_bits(config("segmentation", "meshcnn5"), samples, None, monkeypatch, budget)


def test_the_split_keeps_boundary_sentinels(monkeypatch):
    """The open grid, inside a group, gets its own rim edges' -1 second face."""
    samples = dataset("classification")
    grid = next(p for p in prepared(config("classification"), samples, None, monkeypatch,
                                    pipelines._GROUP_FACES) if p.sample.sample_id == "grid")
    rim = grid.topology.edge_faces[:, 1] == SENTINEL
    assert rim.sum() == 16  # 4 x 4 cells: 4 rim edges a side
    assert (grid.topology.edge_faces[~rim] >= 0).all()
    assert (grid.topology.neighbors == SENTINEL).sum() == 2 * 16
    alone = build_edge_topology(grid.mesh)
    assert grid.topology.edge_faces.tobytes() == alone.edge_faces.tobytes()


# ---------------------------------------------------------------------------
# errors: one bad sample in the middle of a group


def coincident():
    return labelled(Mesh(np.zeros((4, 3)), TETRA_FACES), "coincident", edge_labels=None)


def non_manifold():
    # three faces on edge (0, 1)
    vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)]
    mesh = Mesh(vertices, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])
    return labelled(mesh, "non_manifold", edge_labels=None)


def zero_area():
    # vertex 3 on edge (0, 1): face 1 reads (0, 1, 3) and has no area
    vertices = TETRA_VERTICES[:3] + [(0.5, 0.0, 0.0)]
    return labelled(Mesh(vertices, TETRA_FACES), "zero_area", edge_labels=None)


def unlabelled():
    return labelled(open_grid(), "unlabelled", class_label=None)


def short_labels():
    return labelled(open_grid(), "short_labels", edge_labels=[0, 1, 0])


# (bad sample, task, error type, message)
BAD = {
    "coincident": (coincident, "classification", MeshError,
                   "degenerate mesh: all vertices coincide"),
    "non_manifold": (non_manifold, "classification", TopologyError,
                     "mesh is not a valid manifold:\nedge (0, 1) has 3 incident faces\n"
                     "edge (0, 1) is traversed twice in the same direction"),
    "zero_area": (zero_area, "classification", DegenerateFaceError, "face 1 has zero area"),
    "unlabelled": (unlabelled, "classification", DataError,
                   "sample unlabelled has no class label"),
    "short_labels": (short_labels, "segmentation", DataError,
                     "sample short_labels: 3 edge labels for 56 edges"),
}


def with_bad(task, *bad):
    """Generated samples with ``bad`` in the middle of the first group."""
    samples = dataset(task)
    return samples[:2] + list(bad) + samples[2:]


def prepare_until_error(cfg, samples, monkeypatch, budget):
    """(ids yielded before the error, the error)."""
    monkeypatch.setattr(pipelines, "_GROUP_FACES", budget)
    seen = []
    with pytest.raises(MeshFormsError) as caught:
        for p in pipelines._prepare_samples(cfg, samples, None):
            seen.append(p.sample.sample_id)
    return seen, caught.value


@pytest.mark.parametrize("case", sorted(BAD))
def test_an_error_in_a_group_is_the_error_alone(case, monkeypatch):
    make, task, error, message = BAD[case]
    samples = with_bad(task, make())
    assert group_sizes(samples, monkeypatch, pipelines._GROUP_FACES)[0] > 3
    cfg = config(task)
    seen, grouped = prepare_until_error(cfg, samples, monkeypatch, pipelines._GROUP_FACES)
    seen_alone, alone = prepare_until_error(cfg, samples, monkeypatch, 0)
    assert type(grouped) is type(alone) is error
    assert str(grouped) == str(alone) == message
    assert seen == seen_alone == [s.sample_id for s in samples[:2]]


@pytest.mark.parametrize(
    "order, error", [(("unlabelled", "zero_area"), DataError),
                     (("zero_area", "unlabelled"), DegenerateFaceError)]
)
def test_the_earlier_error_in_a_group_wins(order, error, monkeypatch):
    samples = with_bad("classification", *(BAD[case][0]() for case in order))
    _, grouped = prepare_until_error(config("classification"), samples, monkeypatch,
                                     pipelines._GROUP_FACES)
    _, alone = prepare_until_error(config("classification"), samples, monkeypatch, 0)
    assert type(grouped) is type(alone) is error
    assert str(grouped) == str(alone)


@pytest.mark.parametrize("case", sorted(BAD))
def test_train_cli_exits_as_alone(case, tmp_path, monkeypatch, capsys):
    make, task, _, message = BAD[case]
    data = tmp_path / "data"
    if case == "short_labels":  # save_dataset refuses 3 labels for 56 edges: cut them after
        save_dataset(data, with_bad(task, labelled(open_grid(), case)))
        sidecar = data / "meshes" / f"{case}.edgelabels"
        sidecar.write_text("".join(sidecar.read_text().splitlines(keepends=True)[:3]))
    else:
        save_dataset(data, with_bad(task, make()))
    args = ["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
            "--set", f"task={task}", "--set", "epochs=1",
            "--set", "conv_channels=4", "--set", "pool_targets=60"]
    outcomes = []
    for budget in (pipelines._GROUP_FACES, 0):
        monkeypatch.setattr(pipelines, "_GROUP_FACES", budget)
        code = main(args)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    code, stdout, err = outcomes[0]
    assert (code, stdout) == (2, "")
    assert err.endswith(f"\nerror: {message}\n")
    assert not (tmp_path / "m.ckpt").exists()
