"""Per-edge feature extraction, invariances, normalization, serialization."""

import hashlib
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshforms import (
    FF,
    LAPLACIAN,
    MESHCNN5,
    XYZ,
    XYZ_INV,
    ChannelStats,
    DatasetSpec,
    DegenerateFaceError,
    FeatureTensor,
    Mesh,
    MeshError,
    RigidMotion,
    apply_motion,
    build_edge_topology,
    coordinate_features,
    extract,
    feature_norms,
    fit_channel_stats,
    fundamental_forms,
    generate,
    meshcnn5,
    normalize,
    read_features,
    write_features,
)
from meshforms import _kernels
from meshforms.datasets import _random_rotation
from meshforms.features import KIND_CHANNELS

from conftest import fuzz_corpus, mutate_bytes


def shared_edge(topology):
    return int(np.flatnonzero(topology.interior_mask)[0])


def dihedral_angle(topology, mesh, edge):
    """The dihedral channel of the fundamental forms at one edge."""
    return fundamental_forms(topology, mesh).values[edge, 1]


def face_normal(mesh, face_index):
    tri = mesh.vertices[mesh.faces[face_index]]
    n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    return n / np.linalg.norm(n)


class TestDihedral:
    def test_flat_pair_is_zero(self, flat_pair):
        topo = build_edge_topology(flat_pair)
        assert dihedral_angle(topo, flat_pair, shared_edge(topo)) == 0.0

    def test_perpendicular_fold(self, perpendicular_pair):
        topo = build_edge_topology(perpendicular_pair)
        angle = dihedral_angle(topo, perpendicular_pair, shared_edge(topo))
        assert abs(angle - np.pi / 2) < 1e-12

    def test_tetrahedron_matches_normal_oracle(self, tetrahedron):
        # oracle: direct normal computation on the explicit coordinates
        topo = build_edge_topology(tetrahedron)
        expected = np.pi - np.arccos(1.0 / 3.0)
        for e in range(topo.edge_count):
            f1, f2 = topo.edge_faces[e]
            n1, n2 = face_normal(tetrahedron, f1), face_normal(tetrahedron, f2)
            oracle = np.arccos(np.clip(n1 @ n2, -1.0, 1.0))
            angle = dihedral_angle(topo, tetrahedron, e)
            assert abs(angle - oracle) < 1e-12
            assert abs(angle - expected) < 1e-12
        assert abs(expected - 1.9106) < 5e-5

    def test_boundary_edge_is_zero(self, flat_pair):
        topo = build_edge_topology(flat_pair)
        boundary = int(np.flatnonzero(~topo.interior_mask)[0])
        assert dihedral_angle(topo, flat_pair, boundary) == 0.0

    @staticmethod
    def degenerate_pair():
        verts = np.array(
            [(0.0, 0, 0), (1.0, 0, 0), (2.0, 0, 0), (0.5, 1.0, 0)]
        )
        return Mesh(verts, np.array([(0, 1, 2), (1, 0, 3)]))

    def test_degenerate_face_names_face(self):
        mesh = self.degenerate_pair()
        topo = build_edge_topology(mesh)
        with pytest.raises(DegenerateFaceError) as err:
            dihedral_angle(topo, mesh, shared_edge(topo))
        assert err.value.face_index == 0

    @pytest.mark.parametrize("kind", [FF, MESHCNN5])
    def test_degenerate_face_names_face_for_each_kind(self, kind):
        mesh = self.degenerate_pair()
        topo = build_edge_topology(mesh)
        with pytest.raises(DegenerateFaceError) as err:
            extract(topo, mesh, kind)
        assert err.value.face_index == 0

    def test_unsigned_angle_ignores_fold_direction(self, perpendicular_pair):
        topo = build_edge_topology(perpendicular_pair)
        e = shared_edge(topo)
        # same winding, second apex folded to the other side of the first face
        folded_up = perpendicular_pair.with_vertices(
            perpendicular_pair.vertices * np.array([1.0, 1.0, -1.0])
        )
        topo_u = build_edge_topology(folded_up)
        angle = dihedral_angle(topo, perpendicular_pair, e)
        assert abs(angle - np.pi / 2) < 1e-12
        assert abs(angle - dihedral_angle(topo_u, folded_up, shared_edge(topo_u))) < 1e-12


class TestFundamentalForms:
    def test_flat_pair_unit_edge(self, flat_pair):
        topo = build_edge_topology(flat_pair)
        ff = fundamental_forms(topo, flat_pair)
        assert np.allclose(ff.values[shared_edge(topo)], [1.0, 0.0])

    def test_tetrahedron_uniform(self, tetrahedron):
        topo = build_edge_topology(tetrahedron)
        ff = fundamental_forms(topo, tetrahedron)
        expected_angle = np.pi - np.arccos(1.0 / 3.0)
        assert np.allclose(ff.values[:, 0], np.sqrt(8.0))
        assert np.allclose(ff.values[:, 1], expected_angle)

    def test_scaling_behavior(self, tetrahedron):
        topo = build_edge_topology(tetrahedron)
        base = fundamental_forms(topo, tetrahedron).values
        scaled_mesh = apply_motion(tetrahedron, RigidMotion(np.eye(3), uniform_scale=2.0))
        scaled = fundamental_forms(topo, scaled_mesh).values
        assert np.allclose(scaled[:, 0], 2.0 * base[:, 0])
        assert np.allclose(scaled[:, 1], base[:, 1])


class TestMeshcnn5:
    def test_equilateral_flat_pair(self, equilateral_flat_pair):
        # closed form for two folded-flat unit equilateral triangles
        topo = build_edge_topology(equilateral_flat_pair)
        row = meshcnn5(topo, equilateral_flat_pair).values[shared_edge(topo)]
        expected = np.array(
            [0.0, np.pi / 3, np.pi / 3, 2.0 / np.sqrt(3.0), 2.0 / np.sqrt(3.0)]
        )
        assert np.allclose(row, expected, atol=1e-12)

    def test_right_isosceles_opposite_angles(self, square_diagonal_pair):
        topo = build_edge_topology(square_diagonal_pair)
        diag = int(
            np.flatnonzero((topo.edges == [0, 2]).all(axis=1))[0]
        )
        row = meshcnn5(topo, square_diagonal_pair).values[diag]
        assert np.allclose(row[1:3], np.pi / 2, atol=1e-12)

    def test_rigid_motion_invariance(self, icosahedron):
        topo = build_edge_topology(icosahedron)
        base = meshcnn5(topo, icosahedron).values
        rng = np.random.default_rng(3)
        motion = RigidMotion(_random_rotation(rng), translation=rng.normal(size=3))
        moved = apply_motion(icosahedron, motion)
        again = meshcnn5(topo, moved).values
        assert np.max(np.abs(again - base)) < 1e-9

    def test_face_order_canonicalization(self, perpendicular_pair):
        # listing the two faces in the opposite order must not change features
        swapped = Mesh(
            perpendicular_pair.vertices, perpendicular_pair.faces[::-1].copy()
        )
        t1 = build_edge_topology(perpendicular_pair)
        t2 = build_edge_topology(swapped)
        e1 = shared_edge(t1)
        e2 = int(
            np.flatnonzero((t2.edges == t1.edges[e1]).all(axis=1))[0]
        )
        v1 = meshcnn5(t1, perpendicular_pair).values[e1]
        v2 = meshcnn5(t2, swapped).values[e2]
        assert np.array_equal(v1, v2)

    def test_scale_invariance(self, icosahedron):
        topo = build_edge_topology(icosahedron)
        base = meshcnn5(topo, icosahedron).values
        scaled = apply_motion(icosahedron, RigidMotion(np.eye(3), uniform_scale=3.0))
        assert np.allclose(meshcnn5(topo, scaled).values, base, atol=1e-12)


def pinned_meshes():
    """Generated zoo, limbs and engraved-cube meshes, then four fuzz meshes with
    a few faces cut away, so that boundary edges and their empty slots occur.
    The cut leaves each vertex one fan, so every mesh is valid input."""
    meshes = []
    for generator, classes, edge_range in (
        ("primitive-zoo", 6, (250, 400)),
        ("articulated-limbs", 3, (300, 600)),
        ("engraved-cube", 3, (800, 1200)),
    ):
        meshes += [s.mesh for s in generate(DatasetSpec(generator, classes, 1, edge_range, seed=5))]
    cut = [0, 1, 19, 20]
    return meshes + [Mesh(m.vertices, np.delete(m.faces, cut, axis=0)) for m in fuzz_corpus(4, seed=3)]


# sha256 over write_features(extract(...)) of every kind, in kind table order,
# for each of pinned_meshes() in order.
GOLDEN_FEATURES = "f26fdedfc3f0bf36788ed521370bd9c7b3407f0a7bb15fbae1937d53764dd813"


def test_feature_bytes_are_stable():
    h = hashlib.sha256()
    for mesh in pinned_meshes():
        topology = build_edge_topology(mesh)
        for kind in KIND_CHANNELS:
            h.update(write_features(extract(topology, mesh, kind)))
    assert h.hexdigest() == GOLDEN_FEATURES


def test_meshcnn5_on_a_rim_far_from_face_0():
    """A boundary edge's missing slot reads zero wherever the edge lies. The
    corner pass once read the apex of face 0 there, vertex (face 0's vertex
    sum - the edge's), which falls below -V on a rim far from face 0 and
    raised an IndexError."""
    n = 4  # an n x n-cell height field
    i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
    vertices = np.column_stack([i, j, np.sin(i + 2.0 * j)])
    cells = [a * (n + 1) + b for a in range(n) for b in range(n)]
    faces = [f for p in cells for f in ((p, p + n + 1, p + n + 2), (p, p + n + 2, p + 1))]
    mesh = Mesh(vertices, faces)
    topology = build_edge_topology(mesh)
    rim = ~topology.interior_mask
    assert rim.sum() == 4 * n
    values = meshcnn5(topology, mesh).values
    # the sorted pairs put the missing slot's zero first
    assert (values[rim][:, [1, 3]] == 0.0).all()
    assert (values[~rim][:, 1:] > 0.0).all()


class TestGeometryPasses:
    """FF runs only the shared length and dihedral pass; MESHCNN5 adds the
    corner pass, once."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = Counter()
        for name in ("edge_geometry", "corner_geometry"):
            def counted(*args, _name=name, _original=getattr(_kernels, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(_kernels, name, counted)
        return calls

    def test_ff_skips_the_corner_pass(self, icosahedron, passes):
        extract(build_edge_topology(icosahedron), icosahedron, FF)
        assert passes == {"edge_geometry": 1}

    def test_meshcnn5_runs_each_pass_once(self, icosahedron, passes):
        extract(build_edge_topology(icosahedron), icosahedron, MESHCNN5)
        assert passes == {"edge_geometry": 1, "corner_geometry": 1}


class TestCoordinateFeatures:
    def test_xyz_midpoint(self):
        verts = np.array([(0.0, 0, 0), (2.0, 0, 0), (0, 1.0, 0)])
        mesh = Mesh(verts, np.array([[0, 1, 2]]))
        topo = build_edge_topology(mesh)
        xyz = coordinate_features(topo, mesh, XYZ).values
        e01 = int(np.flatnonzero((topo.edges == [0, 1]).all(axis=1))[0])
        assert np.allclose(xyz[e01], [1.0, 0.0, 0.0])

    def test_xyz_inv_dot_and_norms(self):
        verts = np.array([(0.0, 0, 0), (2.0, 0, 0), (0, 1.0, 0)])
        mesh = Mesh(verts, np.array([[0, 1, 2]]))
        topo = build_edge_topology(mesh)
        vals = coordinate_features(topo, mesh, XYZ_INV).values
        e01 = int(np.flatnonzero((topo.edges == [0, 1]).all(axis=1))[0])
        assert np.allclose(vals[e01], [0.0, 1.0])

    def test_laplacian_zero_on_flat_grid_interior(self):
        # regular planar grid: interior vertex equals its neighbor average
        n = 5
        verts = []
        for j in range(n):
            for i in range(n):
                verts.append((i, j, 0.0))
        faces = []
        for j in range(n - 1):
            for i in range(n - 1):
                a = j * n + i
                b = a + 1
                c = a + n + 1
                d = a + n
                faces.append((a, b, c))
                faces.append((a, c, d))
        mesh = Mesh(np.array(verts, dtype=float), np.array(faces))
        topo = build_edge_topology(mesh)
        lap = coordinate_features(topo, mesh, LAPLACIAN).values
        center = 2 * n + 2
        center_edges = [
            e
            for e in range(topo.edge_count)
            if center in topo.edges[e]
            and all(
                v // n in (1, 2, 3) and v % n in (1, 2, 3) for v in topo.edges[e]
            )
        ]
        assert center_edges
        for e in center_edges:
            assert np.allclose(lap[e], 0.0, atol=1e-12)

    def test_xyz_changes_under_rotation(self, icosahedron):
        topo = build_edge_topology(icosahedron)
        base = coordinate_features(topo, icosahedron, XYZ).values
        rot = _random_rotation(np.random.default_rng(5))
        moved = apply_motion(icosahedron, RigidMotion(rot))
        rotated = coordinate_features(topo, moved, XYZ).values
        assert np.max(np.abs(rotated - base)) > 1e-3

    def test_laplacian_changes_under_rotation(self, icosahedron):
        jittered = icosahedron.with_vertices(
            icosahedron.vertices
            + np.random.default_rng(0).normal(0, 0.05, icosahedron.vertices.shape)
        )
        topo = build_edge_topology(jittered)
        base = coordinate_features(topo, jittered, LAPLACIAN).values
        rot = _random_rotation(np.random.default_rng(6))
        moved = apply_motion(jittered, RigidMotion(rot))
        rotated = coordinate_features(topo, moved, LAPLACIAN).values
        assert np.max(np.abs(rotated - base)) > 1e-4

    def test_xyz_inv_rotation_invariance(self, icosahedron):
        topo = build_edge_topology(icosahedron)
        base = coordinate_features(topo, icosahedron, XYZ_INV).values
        rot = _random_rotation(np.random.default_rng(7))
        moved = apply_motion(icosahedron, RigidMotion(rot))
        rotated = coordinate_features(topo, moved, XYZ_INV).values
        assert np.max(np.abs(rotated - base)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rigid_motion_invariance_property(seed):
    mesh = fuzz_corpus(1, seed=seed % 17)[0]
    topo = build_edge_topology(mesh)
    rng = np.random.default_rng(seed)
    motion = RigidMotion(_random_rotation(rng), translation=rng.uniform(-1, 1, 3))
    moved = apply_motion(mesh, motion)
    for extractor in (fundamental_forms, meshcnn5):
        base = extractor(topo, mesh).values
        after = extractor(topo, moved).values
        assert np.max(np.abs(after - base)) < 1e-9


class TestChannelStats:
    def test_two_point_population_std(self):
        ft = FeatureTensor(np.array([[0.0, 5.0], [2.0, 5.0]]), FF)
        stats = fit_channel_stats([ft])
        assert np.allclose(stats.mean, [1.0, 5.0])
        assert np.isclose(stats.std[0], 1.0)

    def test_all_equal_channel_floored(self):
        ft = FeatureTensor(np.full((4, 2), 3.0), FF)
        stats = fit_channel_stats([ft])
        assert np.allclose(stats.mean, 3.0)
        assert np.allclose(stats.std, 1e-8)

    def test_pooled_across_meshes(self):
        a = FeatureTensor(np.array([[1.0, 0.0]]), FF)
        b = FeatureTensor(np.array([[3.0, 0.0]]), FF)
        stats = fit_channel_stats([a, b])
        assert np.isclose(stats.mean[0], 2.0)

    def test_normalize_examples(self):
        stats = ChannelStats(np.array([2.0]), np.array([4.0]))
        ft = FeatureTensor(np.array([[2.0], [6.0]])[:, :1] * np.ones((1, 2)), FF)
        normed = normalize(FeatureTensor(np.array([[2.0, 2.0], [6.0, 6.0]]), FF),
                           ChannelStats(np.array([2.0, 2.0]), np.array([4.0, 4.0])))
        assert np.allclose(normed.values[0], 0.0)
        assert np.allclose(normed.values[1], 1.0)

    def test_channel_mismatch_rejected(self):
        stats = ChannelStats(np.zeros(3), np.ones(3))
        ft = FeatureTensor(np.zeros((2, 2)), FF)
        with pytest.raises(MeshError):
            normalize(ft, stats)


class TestSerialization:
    def test_round_trip(self, icosahedron):
        topo = build_edge_topology(icosahedron)
        ft = meshcnn5(topo, icosahedron)
        again = read_features(write_features(ft))
        assert again.kind == MESHCNN5
        assert np.array_equal(again.values, ft.values)

    def test_deterministic_bytes(self, icosahedron):
        topo = build_edge_topology(icosahedron)
        ft = fundamental_forms(topo, icosahedron)
        assert write_features(ft) == write_features(ft)

    def test_rejects_corrupt(self):
        with pytest.raises(MeshError):
            read_features(b"not a container")

    def test_code_byte_of_each_kind(self, icosahedron):
        """A kind's position in the kind table is its container code, so the
        table cannot be reordered without changing these bytes."""
        topo = build_edge_topology(icosahedron)
        codes = {
            kind: write_features(extract(topo, icosahedron, kind))[8]
            for kind in (FF, MESHCNN5, XYZ, XYZ_INV, LAPLACIAN)
        }
        assert codes == {FF: 0, MESHCNN5: 1, XYZ: 2, XYZ_INV: 3, LAPLACIAN: 4}

    @pytest.mark.parametrize("edge_count", [2**62, 2**40, 0])
    def test_channel_count_checked_before_sizing(self, edge_count):
        """A bare header whose channel count is wrong for its kind is a
        MeshError, whatever edge count it claims."""
        header = struct.pack("<4sIBxxxQI", b"MFFT", 1, 0, edge_count, 0)
        with pytest.raises(MeshError, match="FF features must have 2 channels, got 0"):
            read_features(header)

    def test_nonzero_pad_byte_rejected(self, icosahedron):
        valid = write_features(fundamental_forms(build_edge_topology(icosahedron), icosahedron))
        assert valid[9:12] == b"\0\0\0"
        with pytest.raises(MeshError, match="not in the form write_features writes"):
            read_features(valid[:9] + b"\x01" + valid[10:])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_container_reads_or_raises_typed(self, icosahedron, data):
        topo = build_edge_topology(icosahedron)
        kind = data.draw(st.sampled_from([fundamental_forms, meshcnn5]))
        valid = write_features(kind(topo, icosahedron))
        if data.draw(st.booleans()):  # the 24-byte header only
            mutated = mutate_bytes(valid[:24], data.draw, max_edits=6) + valid[24:]
        else:
            mutated = mutate_bytes(valid, data.draw, max_edits=6)
        try:
            again = read_features(mutated)
        except MeshError:
            return
        assert write_features(again) == mutated

    def test_norms_deterministic(self, icosahedron):
        topo = build_edge_topology(icosahedron)
        ft = fundamental_forms(topo, icosahedron)
        stats = fit_channel_stats([ft])
        n1 = feature_norms(normalize(ft, stats))
        n2 = feature_norms(normalize(ft, stats))
        assert np.array_equal(n1, n2)
        assert n1.shape == (topo.edge_count,)


class TestFeatureTensorInvariants:
    def test_channel_count_enforced(self):
        with pytest.raises(MeshError):
            FeatureTensor(np.zeros((3, 3)), FF)

    def test_finite_enforced(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(MeshError):
            FeatureTensor(bad, FF)
