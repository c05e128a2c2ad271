"""Triangle-mesh container, Wavefront OBJ I/O, and rigid transforms.

Supported OBJ subset: ``v``, ``f`` and ``#`` comment lines. Polygon faces are
fan-triangulated, ``vt``/``vn``/material references are discarded. Vertex
coordinates are written with 9 significant digits so a write/parse round trip
reproduces them to that precision and face lists exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EmptyMeshError, MeshError, ObjParseError

_COORD_FMT = "%.9g"


class Mesh:
    """Immutable vertex/face arrays with consistent counter-clockwise winding.

    vertices: (V, 3) float64, model units.
    faces: (F, 3) int64 vertex indices, CCW seen from outside.
    """

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces):
        vertices = np.ascontiguousarray(np.asarray(vertices, dtype=np.float64))
        faces = np.ascontiguousarray(np.asarray(faces, dtype=np.int64))
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError(f"vertices must be (V, 3), got {vertices.shape}")
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError(f"faces must be (F, 3), got {faces.shape}")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("non-finite vertex coordinate")
        if faces.size:
            if faces.min() < 0 or faces.max() >= len(vertices):
                raise MeshError("face references a vertex index out of range")
            degenerate = (
                (faces[:, 0] == faces[:, 1])
                | (faces[:, 1] == faces[:, 2])
                | (faces[:, 0] == faces[:, 2])
            )
            if degenerate.any():
                bad = int(np.flatnonzero(degenerate)[0])
                raise MeshError(f"face {bad} repeats a vertex index")
        vertices.setflags(write=False)
        faces.setflags(write=False)
        self.vertices = vertices
        self.faces = faces

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def face_count(self):
        return len(self.faces)

    def with_vertices(self, vertices):
        """Same connectivity, new vertex positions."""
        return Mesh(vertices, self.faces)

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices) and np.array_equal(
            self.faces, other.faces
        )

    def __repr__(self):
        return f"Mesh({self.vertex_count} vertices, {self.face_count} faces)"


@dataclass(frozen=True)
class RigidMotion:
    """Rotation + translation + uniform scale applied as ``s * R @ v + t``."""

    rotation: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    uniform_scale: float = 1.0

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise MeshError("rotation must be a 3x3 matrix")
        if trans.shape != (3,):
            raise MeshError("translation must be a 3-vector")
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-12:
            raise MeshError("rotation columns are not orthonormal within 1e-12")
        if np.linalg.det(rot) < 0.0:
            raise MeshError("rotation must have determinant +1")
        if not self.uniform_scale > 0.0:
            raise MeshError("uniform_scale must be positive")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @staticmethod
    def identity():
        return RigidMotion(np.eye(3))


def apply_motion(mesh: Mesh, motion: RigidMotion) -> Mesh:
    """Transform every vertex by ``scale * R @ v + t``; connectivity unchanged."""
    moved = (
        motion.uniform_scale * (mesh.vertices @ motion.rotation.T)
        + motion.translation
    )
    return mesh.with_vertices(moved)


def normalize_unit_box(mesh: Mesh) -> Mesh:
    """Center at the origin and scale so the longest bounding-box side is 1."""
    if mesh.vertex_count == 0:
        raise EmptyMeshError("cannot normalize a mesh without vertices")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    extent = float((hi - lo).max())
    if extent == 0.0:
        raise MeshError("degenerate mesh: all vertices coincide")
    center = (hi + lo) / 2.0
    return mesh.with_vertices((mesh.vertices - center) / extent)


def parse_obj(data) -> Mesh:
    """Parse OBJ text (bytes or str) into a Mesh.

    Polygon faces are fan-triangulated around their first vertex; texture and
    normal references after ``/`` are discarded. Each line is split once, and
    all coordinates and all face references are each converted in one numpy
    call (``float()`` and ``int()`` of every token). Only when a conversion or
    a check fails does a scan find the first error in line order: malformed
    ``v`` and short ``f`` lines, then a missing vertex or face section, then
    the first bad or out-of-range face reference.
    """
    if isinstance(data, (bytes, bytearray)):
        text = bytes(data).decode("utf-8", errors="replace")
    else:
        text = data
    lines = text.splitlines()
    rows = list(filter(None, map(str.split, lines)))  # the non-blank lines
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    tokens = np.fromiter(chain.from_iterable(rows), object, lengths.sum())
    starts = np.cumsum(lengths) - lengths
    tags = tokens[starts]
    is_v, is_f = tags == "v", tags == "f"
    coords = None
    if not ((is_v | is_f) & (lengths < 4)).any():
        try:
            coords = tokens[starts[is_v, None] + _XYZ].astype(np.float64)
        except ValueError:
            pass
    if coords is None:
        raise _line_error(lines, tokens, starts, lengths, is_v, is_f)
    if not len(coords):
        raise EmptyMeshError("OBJ input contains no vertices")
    if not is_f.any():
        raise EmptyMeshError("OBJ input contains no faces")

    refs_per_face = lengths[is_f] - 1
    first_ref = np.cumsum(refs_per_face) - refs_per_face
    refs = tokens[
        np.arange(refs_per_face.sum())
        + np.repeat(starts[is_f] + 1 - first_ref, refs_per_face)
    ]
    heads = refs
    if "/" in text:
        # tokens hold no whitespace, so a space join and split keeps them apart
        heads = _REF_TAIL.sub("", " ".join(refs)).split(" ")
    try:
        index = np.array(heads, dtype=np.int64)
    except (ValueError, OverflowError):
        index = None
    if index is None or ((index < 1) | (index > len(coords))).any():
        raise _reference_error(lines, refs, heads, is_f, refs_per_face, len(coords))

    # fan k of a face whose refs start at s is (s, s + k, s + k + 1), k >= 1
    fans = refs_per_face - 2
    first = np.repeat(first_ref, fans)
    step = np.arange(1, len(first) + 1) - np.repeat(np.cumsum(fans) - fans, fans)
    corners = np.stack([first, first + step, first + step + 1], axis=1)
    try:
        return Mesh(coords, index[corners] - 1)
    except MeshError as exc:
        raise ObjParseError(str(exc)) from exc


_XYZ = np.arange(1, 4)
_REF_TAIL = re.compile(r"/[^ ]*")


def _line_error(lines, tokens, starts, lengths, is_v, is_f):
    """The first malformed ``v`` line or short ``f`` line, in line order."""
    short = (is_v | is_f) & (lengths < 4)
    full_v = np.flatnonzero(is_v & ~short)
    xyz = tokens[starts[full_v, None] + _XYZ].ravel()
    bad = short.copy()
    bad[full_v] = ~np.fromiter(map(_is_float, xyz), bool, len(xyz)).reshape(-1, 3).all(axis=1)
    row = int(np.flatnonzero(bad)[0])
    n = _line_numbers(lines)[row]
    if is_f[row]:
        return ObjParseError("face line needs at least 3 vertices", n)
    if short[row]:
        return ObjParseError("vertex line needs 3 coordinates", n)
    return ObjParseError(f"malformed vertex coordinate in {lines[n - 1].strip()!r}", n)


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _reference_error(lines, refs, heads, is_f, refs_per_face, vertex_count):
    """The first face reference that is not an integer in ``1..vertex_count``."""
    for position, head in enumerate(heads):
        try:
            value = int(head)
        except ValueError:
            message = f"bad face vertex reference {refs[position]!r}"
            break
        if not 1 <= value <= vertex_count:
            message = f"face vertex reference {value} out of range 1..{vertex_count}"
            break
    face = np.searchsorted(np.cumsum(refs_per_face), position, side="right")
    row = np.flatnonzero(is_f)[face]
    return ObjParseError(message, _line_numbers(lines)[row])


def _line_numbers(lines):
    """1-based numbers of the non-blank lines, one per split row."""
    return [n for n, line in enumerate(lines, 1) if line.strip()]


def write_obj(mesh: Mesh) -> bytes:
    """Serialize a mesh to deterministic OBJ text."""
    out = []
    for v in mesh.vertices:
        out.append("v %s %s %s" % tuple(_COORD_FMT % c for c in v))
    for f in mesh.faces:
        out.append("f %d %d %d" % (f[0] + 1, f[1] + 1, f[2] + 1))
    out.append("")
    return "\n".join(out).encode("ascii")


def write_edge_field(edges, values) -> bytes:
    """Per-edge scalar sidecar: one ``i j value`` line, 0-based vertex indices."""
    edges = np.asarray(edges, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if len(edges) != len(values):
        raise MeshError(
            f"edge field has {len(values)} values for {len(edges)} edges"
        )
    lines = [
        "%d %d %s" % (e[0], e[1], _COORD_FMT % v) for e, v in zip(edges, values)
    ]
    lines.append("")
    return "\n".join(lines).encode("ascii")


def edge_field_path(obj_path):
    """Sidecar path convention: ``<mesh>.obj`` -> ``<mesh>.edges.txt``."""
    import pathlib

    p = pathlib.Path(obj_path)
    return p.with_suffix(".edges.txt")


def save_obj(path, mesh: Mesh, edges=None, edge_field=None):
    """Write an OBJ file, plus the edge-scalar sidecar when a field is given."""
    import pathlib

    p = pathlib.Path(path)
    p.write_bytes(write_obj(mesh))
    if edge_field is not None:
        if edges is None:
            raise MeshError("edge_field requires the edge list")
        edge_field_path(p).write_bytes(write_edge_field(edges, edge_field))
