"""Edge connectivity: per-edge incident faces and the ordered 4-neighbor ring.

Edges are enumerated in first-appearance order over the face list and stored
with the smaller vertex index first, which keeps edge ids deterministic for a
given byte-identical input. For an interior edge ``e`` whose first incident
face reads ``e -> a -> b`` counter-clockwise and whose second reads
``e -> c -> d``, the neighbor tuple is ``(a, b, c, d)``; missing slots on
boundary edges hold the sentinel ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyError
from .mesh import Mesh

SENTINEL = -1


class EdgeTopology:
    """Connectivity arrays for the edges of a validated mesh.

    edges: (E, 2) int64, smaller vertex first.
    edge_faces: (E, 2) int64 face ids, second slot -1 on boundary edges.
    neighbors: (E, 4) int64 edge ids (a, b, c, d), -1 sentinels on boundaries.
    face_edges: (F, 3) int64, edge id at position i spans face[i], face[i+1].
    vertex_edges: per-vertex list of incident edge ids (ascending).
    """

    __slots__ = ("edges", "edge_faces", "neighbors", "face_edges", "vertex_edges")

    def __init__(self, edges, edge_faces, neighbors, face_edges, vertex_edges):
        self.edges = edges
        self.edge_faces = edge_faces
        self.neighbors = neighbors
        self.face_edges = face_edges
        self.vertex_edges = vertex_edges

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def interior_mask(self):
        return self.edge_faces[:, 1] != SENTINEL


@dataclass
class ValidationReport:
    """Findings from :func:`validate_manifold`; empty means accepted."""

    non_manifold_edges: list = field(default_factory=list)  # (u, v, face count)
    orientation_conflicts: list = field(default_factory=list)  # (u, v)
    isolated_vertices: list = field(default_factory=list)
    duplicate_faces: list = field(default_factory=list)  # (face i, face j)

    @property
    def is_clean(self):
        return not (
            self.non_manifold_edges
            or self.orientation_conflicts
            or self.isolated_vertices
            or self.duplicate_faces
        )

    def summary(self):
        if self.is_clean:
            return "mesh is a consistently oriented 2-manifold"
        lines = []
        for u, v, n in self.non_manifold_edges:
            lines.append(f"edge ({u}, {v}) has {n} incident faces")
        for u, v in self.orientation_conflicts:
            lines.append(f"edge ({u}, {v}) is traversed twice in the same direction")
        for v in self.isolated_vertices:
            lines.append(f"vertex {v} belongs to no face")
        for i, j in self.duplicate_faces:
            lines.append(f"faces {i} and {j} share the same vertex set")
        return "\n".join(lines)


def rings(edge_faces, face_edges):
    """(E, 4) neighbor rings by the rule in the module docstring, for all edges."""
    out = np.full((len(edge_faces), 4), SENTINEL, dtype=np.int64)
    edge = face_edges.ravel()
    face = np.arange(edge.size) // 3
    slot = np.where(edge_faces[edge, 0] == face, 0, 2)
    out[edge, slot] = face_edges[:, [1, 2, 0]].ravel()
    out[edge, slot + 1] = face_edges[:, [2, 0, 1]].ravel()
    return out


def incident_edges(edges, vertex_count):
    """Per-vertex list of incident edge ids, ascending, from an (E, 2) array."""
    ends = edges.ravel()
    ids = (np.argsort(ends, kind="stable") // 2).tolist()
    stops = np.cumsum(np.bincount(ends, minlength=vertex_count)).tolist()
    return [ids[start:stop] for start, stop in zip([0] + stops, stops)]


def _scan(mesh: Mesh):
    """One walk over the faces: every manifold finding, then the rings if clean.

    Returns ``(report, topology)``; ``topology`` is None unless the report is
    clean.
    """
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
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    vertex_edges = incident_edges(edges, mesh.vertex_count)
    report.isolated_vertices = [v for v, incident in enumerate(vertex_edges) if not incident]
    if not report.is_clean:
        return report, None

    for incident in edge_faces:
        if len(incident) == 1:
            incident.append(SENTINEL)
    edge_faces = np.array(edge_faces, dtype=np.int64).reshape(-1, 2)
    face_edges = np.array(face_edges, dtype=np.int64).reshape(-1, 3)
    topology = EdgeTopology(
        edges, edge_faces, rings(edge_faces, face_edges), face_edges, vertex_edges
    )
    return report, topology


def validate_manifold(mesh: Mesh) -> ValidationReport:
    """Check edge degrees, orientation consistency, stray vertices, duplicates.

    An empty report is exactly the condition under which
    :func:`build_edge_topology` succeeds. Face self-intersection is not
    examined.
    """
    return _scan(mesh)[0]


def build_edge_topology(mesh: Mesh) -> EdgeTopology:
    """Construct edge connectivity, rejecting non-manifold or misoriented input."""
    report, topology = _scan(mesh)
    if topology is None:
        raise TopologyError(f"mesh is not a valid manifold:\n{report.summary()}")
    return topology


def euler_genus(mesh: Mesh, topology: EdgeTopology):
    """Genus from V - E + F = 2 - 2g; meaningful for closed meshes."""
    chi = mesh.vertex_count - topology.edge_count + mesh.face_count
    return (2 - chi) / 2
