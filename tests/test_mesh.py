"""OBJ parsing/serialization, transforms, and normalization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshforms import (
    EmptyMeshError,
    Mesh,
    MeshError,
    MeshFormsError,
    ObjParseError,
    RigidMotion,
    apply_motion,
    normalize_unit_box,
    parse_obj,
    write_edge_field,
    write_obj,
)

from conftest import mutate_bytes


class TestParseObj:
    def test_single_triangle(self):
        mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3")
        assert mesh.vertex_count == 3
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_quad_fan_triangulation(self):
        mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4")
        assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_slash_references_discarded(self):
        mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/5/2 2/6/2 3/7/2")
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_comments_and_unknown_directives_skipped(self):
        text = "# header\nvn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\ns off\nf 1 2 3\n"
        mesh = parse_obj(text)
        assert mesh.face_count == 1

    def test_bytes_input(self):
        mesh = parse_obj(b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3")
        assert mesh.vertex_count == 3

    def test_malformed_coordinate_reports_line(self):
        with pytest.raises(ObjParseError) as err:
            parse_obj("v 0 0 0\nv 1 oops 0\nv 0 1 0\nf 1 2 3")
        assert err.value.line_number == 2

    def test_face_index_out_of_range(self):
        with pytest.raises(ObjParseError):
            parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4")
        with pytest.raises(ObjParseError):
            parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2")

    def test_empty_inputs(self):
        with pytest.raises(EmptyMeshError):
            parse_obj("f 1 2 3")
        with pytest.raises(EmptyMeshError):
            parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\n")

    def test_reference_beyond_int64_is_out_of_range(self):
        with pytest.raises(ObjParseError) as err:
            parse_obj(TRIANGLE + "f 1 2 99999999999999999999\n")
        assert str(err.value) == (
            "line 4: face vertex reference 99999999999999999999 out of range 1..3"
        )

    @pytest.mark.parametrize(
        "face, message",
        [
            ("f 1 4 x", "face vertex reference 4 out of range 1..3"),
            ("f 1 x 4", "bad face vertex reference 'x'"),
            ("f 1/2 /3 0", "bad face vertex reference '/3'"),
        ],
    )
    def test_first_bad_reference_in_token_order_wins(self, face, message):
        with pytest.raises(ObjParseError) as err:
            parse_obj(TRIANGLE + "f 1 2 3\n" + face + "\n")
        assert err.value.line_number == 5
        assert str(err.value) == f"line 5: {message}"

    def test_line_errors_come_before_reference_errors(self):
        with pytest.raises(ObjParseError) as err:
            parse_obj("f 1 2 9\n" + TRIANGLE + "f 1 2\nv 0 x 0\n")
        assert str(err.value) == "line 5: face line needs at least 3 vertices"

    def test_int_spellings_accepted(self):
        mesh = parse_obj(TRIANGLE + "v 1 1 0\nf +1 0_2 \u0663 4\n")
        assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


def walk_parse_obj(data):
    """Reference for ``parse_obj``: the per-line, per-token walk it replaced."""
    if isinstance(data, (bytes, bytearray)):
        text = bytes(data).decode("utf-8", errors="replace")
    else:
        text = data
    vertices = []
    face_lines = []  # (line_number, tokens), resolved after all vertices known
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise ObjParseError("vertex line needs 3 coordinates", line_number)
            try:
                vertices.append([float(p) for p in parts[1:4]])
            except ValueError:
                raise ObjParseError(
                    f"malformed vertex coordinate in {line!r}", line_number
                )
        elif tag == "f":
            if len(parts) < 4:
                raise ObjParseError("face line needs at least 3 vertices", line_number)
            face_lines.append((line_number, parts[1:]))
    if not vertices:
        raise EmptyMeshError("OBJ input contains no vertices")
    if not face_lines:
        raise EmptyMeshError("OBJ input contains no faces")
    faces = []
    for line_number, tokens in face_lines:
        refs = []
        for token in tokens:
            head = token.split("/", 1)[0]
            try:
                idx = int(head)
            except ValueError:
                raise ObjParseError(f"bad face vertex reference {token!r}", line_number)
            if idx < 1 or idx > len(vertices):
                raise ObjParseError(
                    f"face vertex reference {idx} out of range 1..{len(vertices)}",
                    line_number,
                )
            refs.append(idx - 1)
        for i in range(1, len(refs) - 1):
            faces.append((refs[0], refs[i], refs[i + 1]))
    try:
        return Mesh(np.array(vertices), np.array(faces))
    except MeshError as exc:
        raise ObjParseError(str(exc)) from exc


def parse_outcome(parse, data):
    """The mesh's array bytes, or the type, text and line number of its error."""
    try:
        mesh = parse(data)
    except MeshFormsError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return (
        mesh.vertices.dtype, mesh.vertices.shape, mesh.vertices.tobytes(),
        mesh.faces.dtype, mesh.faces.shape, mesh.faces.tobytes(),
    )


# Pieces of OBJ text that exercise the parse's corner cases: Unicode whitespace
# and line breaks, comments and foreign tags, int() and float() spellings,
# a/b/c references, polygons, and values beyond int64. A drawn text uses the
# odd pieces at a low rate, so that most texts parse or fail only late.
ODD_SEPARATORS = ["  ", "\t", "\x0b", "\x0c", "\x1f", "\xa0", "\u3000"]
ODD_LINE_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
ODD_TAGS = ["vt", "vn", "#", "#v", "# f 1 2 3", "o", "s", "V", "f#"]
PLAIN_COORDS = ["0", "1", "-2.5", "1e-3", "0.25", "7"]
ODD_COORDS = ["1_0.5", "+.5", "-0", "nan", "inf", "1e400", "oops", "0x1", "\u0663"]
PLAIN_REFS = ["1", "2", "3", "4", "5"]
ODD_REFS = [
    "+3", "1_0", "\u0663", "0", "-1", "-0", "1/2/3", "2//1", "/3", "3/", "1.5", "x",
    "99999999999999999999", "9223372036854775807", "-9223372036854775809", "1_",
    "\u0663/1",
]
PREFIX = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nv 0 0 1\n"


def pick(rnd, plain, odd, rate):
    return rnd.choice(odd if rnd.random() < rate else plain)


def obj_line(rnd):
    if rnd.random() < 0.05:
        return rnd.choice(["", " ", "\t", "\xa0 "])  # blank
    tag = pick(rnd, ["v", "f", "f"], ODD_TAGS, 0.1)
    plain, odd = (PLAIN_COORDS, ODD_COORDS) if tag == "v" else (PLAIN_REFS, ODD_REFS)
    count = pick(rnd, [3], [4, 5, 4, 2, 0], 0.1)
    drawn = rnd.sample(plain * 2, count) if tag == "v" else rnd.sample(plain, count)
    tokens = [tag] + [pick(rnd, [t], odd, 0.03) for t in drawn]
    pad = pick(rnd, [""], [" ", "\t", "\xa0"], 0.2)
    return pad + pick(rnd, [" "], ODD_SEPARATORS, 0.05).join(tokens) + pad


@st.composite
def obj_texts(draw):
    """A hand-built text, often led by five vertices so that face refs resolve."""
    rnd = draw(st.randoms(use_true_random=True))
    lines = PREFIX.splitlines() if rnd.random() < 0.75 else []
    lines += [obj_line(rnd) for _ in range(rnd.randint(1, 10))]
    return "".join(line + pick(rnd, ["\n"], ODD_LINE_BREAKS, 0.1) for line in lines)


def mutate_lines(text, draw):
    lines = text.splitlines(keepends=True)
    for kind in draw(st.lists(st.sampled_from(["delete", "duplicate", "swap", "insert"]), max_size=3)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, obj_line(draw(st.randoms(use_true_random=True))) + "\n")
    return "".join(lines)


def test_parse_matches_walk_on_written_corpus(small_corpus):
    for mesh in small_corpus[:4]:
        text = write_obj(mesh)
        assert parse_outcome(parse_obj, text) == parse_outcome(walk_parse_obj, text)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_matches_walk_on_mutations(small_corpus, data):
    # parse_outcome catches only MeshFormsError, so this also checks that
    # mutated OBJ bytes either parse or raise a typed error
    if data.draw(st.booleans()):
        text = write_obj(data.draw(st.sampled_from(small_corpus[:4]))).decode()
    else:
        text = data.draw(obj_texts())
    text = mutate_lines(text, data.draw)
    if data.draw(st.booleans()):
        text = mutate_bytes(text.encode(), data.draw, max_edits=8)
    assert parse_outcome(parse_obj, text) == parse_outcome(walk_parse_obj, text)


@settings(max_examples=300, deadline=None)
@given(obj_texts())
@example(" \n\tv 1 x 0 \n")
def test_parse_matches_walk_on_hand_built_texts(text):
    assert parse_outcome(parse_obj, text) == parse_outcome(walk_parse_obj, text)


class TestWriteObj:
    def test_round_trip_single_triangle(self):
        mesh = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3")
        again = parse_obj(write_obj(mesh))
        assert np.array_equal(again.faces, mesh.faces)
        assert np.allclose(again.vertices, mesh.vertices, rtol=1e-9, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, width=64),
            min_size=9,
            max_size=9,
        )
    )
    def test_round_trip_nine_significant_digits(self, coords):
        mesh = Mesh(np.array(coords).reshape(3, 3), np.array([[0, 1, 2]]))
        again = parse_obj(write_obj(mesh))
        assert np.array_equal(again.faces, mesh.faces)
        assert np.allclose(again.vertices, mesh.vertices, rtol=1e-8, atol=1e-300)

    def test_write_is_deterministic(self):
        mesh = parse_obj("v 0.1 0.2 0.3\nv 1 0 0\nv 0 1 0\nf 1 2 3")
        assert write_obj(mesh) == write_obj(mesh)

    def test_edge_field_one_line_per_edge(self):
        edges = np.array([[0, 1], [1, 2], [2, 0], [1, 3]])
        body = write_edge_field(edges, [0.1, 0.2, 0.3, 0.4]).decode()
        lines = [l for l in body.splitlines() if l]
        assert len(lines) == 4
        assert lines[0] == "0 1 0.1"

    def test_edge_field_length_mismatch(self):
        with pytest.raises(MeshError):
            write_edge_field(np.array([[0, 1]]), [0.1, 0.2])

    def test_save_obj_without_field_emits_no_sidecar(self, tmp_path, tetrahedron):
        from meshforms.mesh import edge_field_path, save_obj

        path = tmp_path / "t.obj"
        save_obj(path, tetrahedron)
        assert path.exists()
        assert not edge_field_path(path).exists()

    def test_save_obj_with_field_emits_sidecar(self, tmp_path, tetrahedron):
        from meshforms import build_edge_topology
        from meshforms.mesh import edge_field_path, save_obj

        topo = build_edge_topology(tetrahedron)
        path = tmp_path / "t.obj"
        save_obj(path, tetrahedron, edges=topo.edges, edge_field=np.arange(6.0))
        lines = [l for l in edge_field_path(path).read_text().splitlines() if l]
        assert len(lines) == 6


class TestMotion:
    def test_identity(self, tetrahedron):
        moved = apply_motion(tetrahedron, RigidMotion.identity())
        assert np.array_equal(moved.vertices, tetrahedron.vertices)

    def test_translation(self):
        mesh = Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
        moved = apply_motion(
            mesh, RigidMotion(np.eye(3), translation=np.array([1.0, 2.0, 3.0]))
        )
        assert np.allclose(moved.vertices[0], [1, 2, 3])

    def test_z_rotation_quarter_turn(self):
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        mesh = Mesh(np.array([(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)]), np.array([[0, 1, 2]]))
        moved = apply_motion(mesh, RigidMotion(rot))
        assert np.allclose(moved.vertices[0], [0, 1, 0], atol=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(MeshError):
            RigidMotion(np.eye(3) * 1.1)

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(MeshError):
            RigidMotion(refl)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(MeshError):
            RigidMotion(np.eye(3), uniform_scale=0.0)


class TestNormalizeUnitBox:
    def _cube(self, side, center=(0, 0, 0)):
        corners = np.array(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
        )
        verts = corners * side + np.asarray(center) - side / 2.0
        return Mesh(verts, np.array([[0, 1, 2]]))

    def test_unit_cube_recentered_only(self):
        mesh = self._cube(1.0, center=(5, 5, 5))
        out = normalize_unit_box(mesh)
        assert np.allclose(out.vertices.min(0), -0.5)
        assert np.allclose(out.vertices.max(0), 0.5)

    def test_side_ten_cube_scaled_to_one(self):
        out = normalize_unit_box(self._cube(10.0))
        extent = out.vertices.max(0) - out.vertices.min(0)
        assert np.allclose(extent, 1.0)

    def test_longest_side_becomes_one(self):
        verts = np.array([(0.0, 0, 0), (4.0, 0, 0), (2.0, 1.0, 0)])
        out = normalize_unit_box(Mesh(verts, np.array([[0, 1, 2]])))
        extent = out.vertices.max(0) - out.vertices.min(0)
        assert np.isclose(extent.max(), 1.0)
        assert np.allclose(out.vertices.mean(0)[2], 0.0)

    def test_degenerate_mesh_rejected(self):
        mesh = Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
        with pytest.raises(MeshError):
            normalize_unit_box(mesh)


class TestMeshInvariants:
    def test_face_index_out_of_range(self):
        with pytest.raises(MeshError):
            Mesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))

    def test_repeated_vertex_in_face(self):
        with pytest.raises(MeshError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))

    def test_vertices_are_read_only(self, tetrahedron):
        with pytest.raises(ValueError):
            tetrahedron.vertices[0, 0] = 9.0
