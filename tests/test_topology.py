"""Edge-topology construction and manifold validation."""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from meshforms import (
    DatasetSpec,
    Mesh,
    MeshConv,
    TopologyError,
    Value,
    build_edge_topology,
    generate,
    parse_obj,
    pool,
    validate_manifold,
    write_obj,
)
from meshforms import topology as topology_module
from meshforms.layers import MeshContext
from meshforms.topology import SENTINEL, EdgeTopology, ValidationReport, _scan, incident_edges

from conftest import closed_tetrahedron, flat_pair_mesh, fuzz_corpus, glued, with_holes


def brute_force_neighbors(mesh):
    """Independent adjacency oracle: edges sharing a face with e, as sets."""
    edge_ids = {}
    edges_of_face = []
    for face in mesh.faces:
        ids = []
        for k in range(3):
            key = tuple(sorted((int(face[k]), int(face[(k + 1) % 3]))))
            if key not in edge_ids:
                edge_ids[key] = len(edge_ids)
            ids.append(edge_ids[key])
        edges_of_face.append(ids)
    neighbor_sets = {e: set() for e in edge_ids.values()}
    for ids in edges_of_face:
        for e in ids:
            neighbor_sets[e].update(x for x in ids if x != e)
    return edge_ids, neighbor_sets


def walk_scan(mesh):
    """Reference for ``_scan``: one Python walk over the half-edges, in face order."""
    faces = mesh.faces.tolist()
    report = ValidationReport()
    edge_ids = {}
    edges = []
    edge_faces = []  # incident face ids per edge, in face order
    face_edges = []
    directed = set()
    face_of_vertex_set = {}
    for fi, face in enumerate(faces):
        vertex_set = tuple(sorted(face))
        if vertex_set in face_of_vertex_set:
            report.duplicate_faces.append((face_of_vertex_set[vertex_set], fi))
        else:
            face_of_vertex_set[vertex_set] = fi
        row = []
        for k in range(3):
            u, v = face[k], face[k - 2]  # face[k - 2] is face[(k + 1) % 3]
            if (u, v) in directed:
                if (u, v) not in report.orientation_conflicts:
                    report.orientation_conflicts.append((u, v))
            else:
                directed.add((u, v))
            key = (u, v) if u < v else (v, u)
            eid = edge_ids.setdefault(key, len(edges))
            if eid == len(edges):
                edges.append(key)
                edge_faces.append([fi])
            else:
                edge_faces[eid].append(fi)
            row.append(eid)
        face_edges.append(row)
    for (u, v), incident in zip(edges, edge_faces):
        if len(incident) > 2:
            report.non_manifold_edges.append((u, v, len(incident)))
    used = {v for edge in edges for v in edge}
    report.isolated_vertices = [v for v in range(mesh.vertex_count) if v not in used]
    if report.is_clean:
        report.pinched_vertices = walk_fans(faces)
    if not report.is_clean:
        return report, None

    vertex_edges = [[] for _ in range(mesh.vertex_count)]
    for eid, (u, v) in enumerate(edges):
        vertex_edges[u].append(eid)
        vertex_edges[v].append(eid)
    neighbors = [[SENTINEL] * 4 for _ in edges]
    for fi, row in enumerate(face_edges):
        for k in range(3):
            eid = row[k]
            base = 0 if edge_faces[eid][0] == fi else 2
            neighbors[eid][base] = row[k - 2]
            neighbors[eid][base + 1] = row[k - 1]
    for incident in edge_faces:
        if len(incident) == 1:
            incident.append(SENTINEL)
    topology = EdgeTopology(
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        np.array(edge_faces, dtype=np.int64).reshape(-1, 2),
        np.array(face_edges, dtype=np.int64).reshape(-1, 3),
    )
    # the walk's own rings and incidence, so the oracle never derives them
    topology.neighbors = np.array(neighbors, dtype=np.int64).reshape(-1, 4)
    topology.vertex_edges = vertex_edges
    return report, topology


def walk_fans(faces):
    """Reference for the fan count of a mesh whose other findings are clean:
    per vertex, a walk over its corners' successors, ascending vertex ids of
    those with more than one fan."""
    corner_of = {}  # half-edge (u, w) -> corner 3f + k of u in its face f
    for fi, face in enumerate(faces):
        for k in range(3):
            corner_of[face[k], face[k - 2]] = 3 * fi + k
    corners_at = {}
    for (u, _), c in corner_of.items():
        corners_at.setdefault(u, []).append(c)

    def successor(c):
        """The corner of the same vertex across the edge entering ``c``, or None."""
        face, k = faces[c // 3], c % 3
        return corner_of.get((face[k], face[k - 1]))

    pinched = []
    for v, corners in sorted(corners_at.items()):
        # an open fan starts where the corner's own edge has no second face
        starts = [c for c in corners if (faces[c // 3][c % 3 - 2], v) not in corner_of]
        todo, fans = set(corners), 0
        for c in starts + sorted(corners):
            if c not in todo:
                continue
            fans += 1
            while c in todo:
                todo.remove(c)
                c = successor(c)
        if fans > 1:
            pinched.append(v)
    return pinched


def assert_scan_matches_walk(mesh):
    report, topology = _scan(mesh)
    expected_report, expected = walk_scan(mesh)
    # repr tells a Python int from a numpy integer, so this pins the types too
    assert repr(report) == repr(expected_report)
    assert (topology is None) == (expected is None)
    if expected is not None:
        for name in ("edges", "edge_faces", "neighbors", "face_edges"):
            got, want = getattr(topology, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name
        assert topology.vertex_edges == expected.vertex_edges


class TestBuildTopology:
    def test_single_triangle(self):
        mesh = Mesh(np.eye(3), np.array([[0, 1, 2]]))
        topo = build_edge_topology(mesh)
        assert topo.edge_count == 3
        for e in range(3):
            assert topo.edge_faces[e, 0] == 0
            assert topo.edge_faces[e, 1] == SENTINEL
            valid = topo.neighbors[e] != SENTINEL
            assert valid.sum() == 2
            assert (topo.neighbors[e, 2:] == SENTINEL).all()

    def test_two_triangles_shared_edge(self, flat_pair):
        topo = build_edge_topology(flat_pair)
        assert topo.edge_count == 5
        shared = [e for e in range(5) if topo.edge_faces[e, 1] != SENTINEL]
        assert len(shared) == 1
        assert (topo.neighbors[shared[0]] != SENTINEL).all()
        outer = [e for e in range(5) if e != shared[0]]
        for e in outer:
            assert (topo.neighbors[e] != SENTINEL).sum() == 2

    def test_tetrahedron_against_brute_force(self, tetrahedron):
        topo = build_edge_topology(tetrahedron)
        assert topo.edge_count == 6
        edge_ids, neighbor_sets = brute_force_neighbors(tetrahedron)
        remap = {
            edge_ids[tuple(sorted(e))]: i for i, e in enumerate(topo.edges.tolist())
        }
        for key, oracle_id in edge_ids.items():
            e = remap[oracle_id]
            assert tuple(sorted(topo.edges[e].tolist())) == key
            got = {int(x) for x in topo.neighbors[e]}
            expected = {remap[x] for x in neighbor_sets[oracle_id]}
            assert got == expected
            assert len(got) == 4

    def test_neighbor_pairs_lie_in_incident_faces(self, tetrahedron):
        topo = build_edge_topology(tetrahedron)
        for e in range(topo.edge_count):
            for slot in range(2):
                face = topo.edge_faces[e, slot]
                pair = topo.neighbors[e, 2 * slot : 2 * slot + 2]
                face_edge_set = set(topo.face_edges[face].tolist())
                assert int(pair[0]) in face_edge_set
                assert int(pair[1]) in face_edge_set

    def test_ccw_order_within_face(self, flat_pair):
        # in face (0,1,2): edge (0,1) is followed by (1,2) then (2,0)
        topo = build_edge_topology(flat_pair)
        e01 = int(np.flatnonzero((topo.edges == [0, 1]).all(axis=1))[0])
        e12 = int(np.flatnonzero((topo.edges == [1, 2]).all(axis=1))[0])
        e02 = int(np.flatnonzero((topo.edges == [0, 2]).all(axis=1))[0])
        assert topo.neighbors[e01, 0] == e12
        assert topo.neighbors[e01, 1] == e02

    def test_deterministic_edge_order(self, icosahedron):
        t1 = build_edge_topology(icosahedron)
        t2 = build_edge_topology(parse_obj(write_obj(icosahedron)))
        assert np.array_equal(t1.edges, t2.edges)
        assert np.array_equal(t1.neighbors, t2.neighbors)

    def test_neighbor_symmetry_on_corpus(self, small_corpus):
        for mesh in small_corpus[:8]:
            topo = build_edge_topology(mesh)
            for e in range(topo.edge_count):
                for nb in topo.neighbors[e]:
                    if nb != SENTINEL:
                        assert e in topo.neighbors[nb]

    def test_euler_characteristic_integer_genus(self, small_corpus):
        for mesh in small_corpus:
            topo = build_edge_topology(mesh)
            chi = mesh.vertex_count - topo.edge_count + mesh.face_count
            genus = (2 - chi) / 2  # V - E + F = 2 - 2g on a closed mesh
            assert genus == int(genus) and genus >= 0


class TestDerivedFields:
    """``neighbors`` and ``vertex_edges`` are derived from the three stored
    arrays on first read, at most once per topology, and only if read."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = Counter()
        for name in ("rings", "incident_edges"):
            def counted(*args, _name=name, _original=getattr(topology_module, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(topology_module, name, counted)
        return calls

    def test_scan_derives_nothing(self, icosahedron, derivations):
        assert validate_manifold(icosahedron).is_clean
        topology = build_edge_topology(icosahedron)
        assert not derivations
        for _ in range(2):
            assert topology.neighbors is topology.neighbors
            assert topology.incidence is topology.incidence
            assert topology.vertex_edges is topology.vertex_edges
        assert derivations == {"rings": 1, "incident_edges": 1}

    def test_pool_derives_nothing_for_its_output(self, derivations):
        mesh = fuzz_corpus(1, seed=5)[0]
        topology = build_edge_topology(mesh)
        features = np.random.default_rng(0).normal(size=(topology.edge_count, 3))
        topology.vertex_edges  # the pooling state builds its links from these
        derivations.clear()
        result = pool(features, topology, topology.edge_count - 30, mesh=mesh)
        assert not derivations
        assert result.topology.neighbors.shape == (result.topology.edge_count, 4)
        assert derivations == {"rings": 1}

    def test_conv_derives_the_ring_once(self, icosahedron, derivations):
        topology = build_edge_topology(icosahedron)
        rng = np.random.default_rng(1)
        conv = MeshConv(3, 4, rng)
        x = rng.normal(size=(topology.edge_count, 3))
        first = conv(Value(x), MeshContext(topology)).data
        second = conv(Value(x), MeshContext(topology)).data
        assert np.array_equal(first, second)
        assert derivations == {"rings": 1}


def test_incident_edges_of_no_edges():
    no_edges = np.empty((0, 2), dtype=np.int64)
    assert incident_edges(no_edges) == ([], [0])
    assert EdgeTopology(no_edges, no_edges, np.empty((0, 3), dtype=np.int64)).vertex_edges == []


def three_triangle_fan_edge():
    verts = np.array(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0)], dtype=float
    )
    faces = np.array([(0, 1, 2), (1, 0, 3), (0, 1, 4)])
    return Mesh(verts, faces)


# one finding for each field of ValidationReport
FINDINGS = {
    "non_manifold_edges": (0, 1, 3),
    "orientation_conflicts": (0, 1),
    "isolated_vertices": 4,
    "duplicate_faces": (0, 1),
    "pinched_vertices": 2,
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ValidationReport)])
def test_one_finding_in_any_field_is_not_clean(name):
    report = ValidationReport(**{name: [FINDINGS[name]]})
    assert not report.is_clean
    assert len(report.summary().splitlines()) == 1
    assert report.summary() != ValidationReport().summary()


class TestValidation:
    def test_tetrahedron_clean(self, tetrahedron):
        assert validate_manifold(tetrahedron).is_clean

    def test_three_faces_on_one_edge(self):
        mesh = three_triangle_fan_edge()
        report = validate_manifold(mesh)
        assert not report.is_clean
        assert (0, 1, 3) in report.non_manifold_edges
        assert "(0, 1)" in report.summary()
        with pytest.raises(TopologyError):
            build_edge_topology(mesh)

    def test_orientation_defect(self):
        # second face traverses the shared edge (0,1) in the same direction
        verts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], dtype=float)
        mesh = Mesh(verts, np.array([(0, 1, 2), (0, 1, 3)]))
        report = validate_manifold(mesh)
        assert report.orientation_conflicts == [(0, 1)]
        with pytest.raises(TopologyError):
            build_edge_topology(mesh)

    def test_isolated_vertex(self):
        verts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (9, 9, 9)], dtype=float)
        mesh = Mesh(verts, np.array([(0, 1, 2)]))
        report = validate_manifold(mesh)
        assert report.isolated_vertices == [3]
        with pytest.raises(TopologyError):
            build_edge_topology(mesh)

    def test_duplicate_faces(self):
        verts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], dtype=float)
        mesh = Mesh(verts, np.array([(0, 1, 2), (0, 2, 1)]))
        report = validate_manifold(mesh)
        assert report.duplicate_faces == [(0, 1)]
        with pytest.raises(TopologyError):
            build_edge_topology(mesh)

    def test_report_iff_build_accepts(self, small_corpus):
        for mesh in small_corpus[:6]:
            assert validate_manifold(mesh).is_clean
            build_edge_topology(mesh)  # must not raise

    def test_boundary_strip_is_clean(self, flat_pair):
        assert validate_manifold(flat_pair).is_clean


def golden_meshes(small_corpus):
    larger = [
        s.mesh
        for generator in ("primitive-zoo", "articulated-limbs")
        for s in generate(
            DatasetSpec(generator, classes=2, per_class=1, edge_range=(1500, 2500), seed=5)
        )
    ]
    return list(small_corpus) + larger


def defective_variants(mesh):
    """One mesh per defect kind, each breaking a clean mesh in one place."""
    faces = mesh.faces.tolist()
    v = mesh.vertex_count
    a, b, c = faces[0]
    spare = np.vstack([mesh.vertices, mesh.vertices[:1] + 0.5])  # one more vertex, v
    return [
        Mesh(mesh.vertices, [[a, c, b]] + faces[1:]),  # one flipped face
        Mesh(mesh.vertices, faces + [faces[3]]),  # duplicate face
        Mesh(spare, faces),  # isolated vertex
        Mesh(spare, faces + [[a, b, v]]),  # third face on an edge
        Mesh(spare, faces + [[b, a, v], [a, b, v]]),  # fin both ways round
    ]


# sha256 over build_edge_topology's five fields (dtype, shape and bytes of the
# four arrays, repr of vertex_edges) for the fuzz corpus plus two 1.5-2.5k-edge
# primitive-zoo and articulated-limbs meshes each.
GOLDEN_TOPOLOGY = "50e953f7c5cd09c5c8bc3a6c0cfa6a4d011e6d8993282493dc52f9388b884bca"

# sha256 over repr(validate_manifold(...)) for five defective variants of
# each of the first six fuzz meshes. None is pinched: every repr ends in an
# empty pinched_vertices field.
GOLDEN_REPORTS = "01165ee8de163faf77fc98cf94752244525f1ef14b983f828c64921b3709619c"


def test_topology_is_byte_stable(small_corpus):
    h = hashlib.sha256()
    for mesh in golden_meshes(small_corpus):
        topo = build_edge_topology(mesh)
        for arr in (topo.edges, topo.edge_faces, topo.neighbors, topo.face_edges):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(topo.vertex_edges).encode())
    assert h.hexdigest() == GOLDEN_TOPOLOGY


def test_reports_are_stable(small_corpus):
    h = hashlib.sha256()
    for mesh in small_corpus[:6]:
        for broken in defective_variants(mesh):
            report = validate_manifold(broken)
            assert not report.is_clean
            h.update(repr(report).encode())
    assert h.hexdigest() == GOLDEN_REPORTS


@st.composite
def small_face_lists(draw):
    faces = draw(
        st.lists(
            st.lists(st.integers(0, 5), min_size=3, max_size=3, unique=True), max_size=8
        )
    )
    used = 1 + max((i for f in faces for i in f), default=-1)
    vertex_count = used + draw(st.integers(0, 1 if faces else 3))
    vertices = np.arange(3 * vertex_count, dtype=float).reshape(-1, 3) ** 1.5
    return Mesh(vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))


def mutated(mesh, draw):
    """``mesh`` with a few drawn defects: duplicated, flipped, dropped or extra faces."""
    faces = mesh.faces.tolist()
    vertices = mesh.vertices
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)):
        if kind == "isolated vertex":
            vertices = np.vstack([vertices, vertices[:1] + 1.0])
            continue
        if kind == "no faces":
            faces = []
            continue
        if not faces:
            continue
        i = draw(st.integers(0, len(faces) - 1))
        a, b, c = faces[i]
        if kind == "duplicate":
            faces.append(draw(st.permutations([a, b, c])))
        elif kind == "flip":
            faces[i] = [a, c, b]
        elif kind == "drop":
            del faces[i]
        else:  # a third face on edge (a, b), through a new vertex, either way round
            w = len(vertices)
            vertices = np.vstack([vertices, vertices[:1] + 2.0])
            faces.append(draw(st.sampled_from([[a, b, w], [b, a, w]])))
        if draw(st.booleans()):
            j = draw(st.integers(0, len(faces)))
            faces.insert(j, faces.pop())
    return Mesh(vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))


MUTATIONS = ("duplicate", "flip", "drop", "extra face on an edge", "isolated vertex", "no faces")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scan_matches_walk_on_mutated_corpus(small_corpus, data):
    mesh = data.draw(st.sampled_from(small_corpus[:8]))
    assert_scan_matches_walk(mutated(mesh, data.draw))


@settings(max_examples=300, deadline=None)
@given(small_face_lists())
def test_scan_matches_walk_on_face_soups(mesh):
    assert_scan_matches_walk(mesh)


@pytest.mark.parametrize("vertex_count", [0, 4])
def test_scan_matches_walk_without_faces(vertex_count):
    assert_scan_matches_walk(Mesh(np.zeros((vertex_count, 3)), np.zeros((0, 3))))


# Each example has 2**21 isolated vertices, so shrinking one would take minutes.
@settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(small_face_lists())
@example(Mesh(np.zeros((4, 3)), [[0, 2, 3], [1, 3, 2]]))  # equal if packed at 21 bits
def test_scan_matches_walk_on_vertex_ids_above_2_21(mesh):
    # three such ids no longer fit one int64 at 21 bits each
    offset = 2**21
    assert_scan_matches_walk(
        Mesh(np.zeros((offset + mesh.vertex_count, 3)), mesh.faces + offset)
    )


@settings(max_examples=300, deadline=None)
@given(small_face_lists())
def test_clean_report_iff_build_succeeds(mesh):
    try:
        build_edge_topology(mesh)
        built = True
    except TopologyError:
        built = False
    assert validate_manifold(mesh).is_clean == built


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fan_count_matches_walk_on_glued_meshes(small_corpus, data):
    """Two or three corpus meshes, each closed or with holes, glued at drawn
    hubs: the scan's fan count is the walk's, and it names exactly the hubs."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(data.draw(st.integers(2, 3))):
        mesh = data.draw(st.sampled_from(small_corpus[:8]))
        holes = data.draw(st.integers(0, 3))
        parts.append(with_holes(mesh, rng, holes) if holes else mesh)
    hubs, joints, before = [], [], parts[0].vertex_count
    for part in parts[1:]:
        hubs.append(data.draw(st.integers(0, before - 1)))
        joints.append(data.draw(st.integers(0, part.vertex_count - 1)))
        before += part.vertex_count - 1
    mesh = glued(parts, hubs, joints)
    assert_scan_matches_walk(mesh)
    assert validate_manifold(mesh).pinched_vertices == sorted(set(hubs))


def bowtie():
    """Two open fans at vertex 0, one of faces 0 and 2, one of face 1 alone.

    Closing one of them (end to start) joins the other to it, and the first
    corner lies on the closed one, so a cycle count alone would find one fan.
    """
    vertices = np.array(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 0, 0), (-1, -1, 0)], dtype=float
    )
    return Mesh(vertices, np.array([(0, 2, 3), (0, 4, 5), (0, 1, 2)]))


@pytest.mark.parametrize(
    "mesh",
    [bowtie(), glued([flat_pair_mesh(), closed_tetrahedron()], hubs=(0,), joints=(0,))],
    ids=["two open fans", "an open and a closed fan"],
)
def test_fan_count_at_a_boundary_vertex(mesh):
    assert_scan_matches_walk(mesh)
    assert validate_manifold(mesh).pinched_vertices == [0]
    with pytest.raises(TopologyError, match="vertex 0 is pinched"):
        build_edge_topology(mesh)
