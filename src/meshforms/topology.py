"""Edge connectivity: per-edge incident faces and the ordered 4-neighbor ring.

Edges are enumerated in first-appearance order over the face list and stored
with the smaller vertex index first, which keeps edge ids deterministic for a
given byte-identical input. For an interior edge ``e`` whose first incident
face reads ``e -> a -> b`` counter-clockwise and whose second reads
``e -> c -> d``, the neighbor tuple is ``(a, b, c, d)``; missing slots on
boundary edges hold the sentinel ``-1``.

Only a consistently oriented 2-manifold, possibly with boundary, gets a
topology: every edge has one or two faces, and each vertex's faces form one
fan, a closed cycle around it or, on the boundary, one open path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import TopologyError
from .mesh import Mesh

SENTINEL = -1


class EdgeTopology:
    """Connectivity of the edges of a validated mesh: three stored arrays, and
    fields derived from them on first read and then kept.

    edges: (E, 2) int64, smaller vertex first.
    edge_faces: (E, 2) int64 face ids, second slot -1 on boundary edges.
    face_edges: (F, 3) int64, edge id at position i spans face[i], face[i+1].
    neighbors (derived, :func:`rings`): (E, 4) int64 edge ids (a, b, c, d),
    -1 sentinels on boundaries.
    incidence (derived, :func:`incident_edges`): ``(ids, starts)``, two int
    lists; vertex ``w``'s incident edge ids, ascending, are
    ``ids[starts[w]:starts[w + 1]]``.
    vertex_edges (derived from ``incidence``): per-vertex list of incident
    edge ids (ascending).
    """

    def __init__(self, edges, edge_faces, face_edges):
        self.edges = edges
        self.edge_faces = edge_faces
        self.face_edges = face_edges

    @cached_property
    def neighbors(self):
        return rings(self.edge_faces, self.face_edges)

    @cached_property
    def incidence(self):
        return incident_edges(self.edges)

    @cached_property
    def vertex_edges(self):
        ids, starts = self.incidence
        return [ids[start:stop] for start, stop in zip(starts, starts[1:])]

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
    pinched_vertices: list = field(default_factory=list)  # sought once the rest is clean

    @property
    def is_clean(self):
        return not any(getattr(self, f.name) for f in fields(self))

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
        for v in self.pinched_vertices:
            lines.append(f"vertex {v} is pinched: its faces form more than one fan")
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


def incident_edges(edges):
    """Incident edge ids sorted by vertex, then ascending, and each vertex's
    start among them (one start more, at the end), as two int lists, from an
    (E, 2) array with no isolated vertex, so that the largest vertex id + 1
    counts the vertices."""
    ends = edges.ravel()
    ids = (np.argsort(ends, kind="stable") // 2).tolist()
    return ids, [0] + np.cumsum(np.bincount(ends)).tolist()


def _runs(ordered):
    """Start and length of each run of equal rows in a sorted array."""
    change = ordered[1:] != ordered[:-1]
    if change.ndim > 1:
        change = change.any(axis=1)
    starts = np.flatnonzero(np.concatenate(([len(ordered) > 0], change)))
    return starts, np.diff(np.append(starts, len(ordered)))


def _sorted_runs(keys):
    """Stable argsort of integer ``keys``, then the runs of equal keys in it."""
    order = np.argsort(keys, kind="stable")
    return (order, *_runs(keys[order]))


def _scan(mesh: Mesh):
    """One scan of the faces: every manifold finding, then the topology if clean.

    Half-edge ``i = 3f + k`` runs from ``faces[f, k]`` to
    ``faces[f, (k + 1) % 3]``. Ids and report entries come out in the order
    of a walk over the half-edges: a stable sort keeps each run of equal keys
    in half-edge order, so the first of a run is the key's first appearance.
    Vertex pairs are packed into one int64 key (exact below 3e9 vertices);
    face vertex sets are compared by row, since three packed ids would
    overflow above 2**21 vertices.

    Returns ``(report, topology)``; ``topology`` is None unless the report is
    clean.
    """
    faces = mesh.faces
    n = mesh.vertex_count
    tails = faces.ravel()
    heads = faces[:, [1, 2, 0]].ravel()
    ends = np.stack((np.minimum(tails, heads), np.maximum(tails, heads)), axis=1)
    report = ValidationReport()

    # edge ids number the runs of undirected keys by first appearance
    order, starts, counts = _sorted_runs(ends[:, 0] * n + ends[:, 1])
    by_id = np.argsort(order[starts])  # the run of each edge id
    run_ids = np.empty_like(by_id)
    run_ids[by_id] = np.arange(len(by_id))
    half_edge_ids = np.empty_like(order)
    half_edge_ids[order] = np.repeat(run_ids, counts)
    starts, counts = starts[by_id], counts[by_id]  # from here on in edge-id order
    first = order[starts]
    edges = ends[first]
    crowded = np.flatnonzero(counts > 2)
    report.non_manifold_edges = [
        tuple(row) for row in np.column_stack((edges[crowded], counts[crowded])).tolist()
    ]

    # a directed half-edge seen before is reported once, at its second appearance
    d_order, d_starts, d_counts = _sorted_runs(tails * n + heads)
    again = np.sort(d_order[d_starts[d_counts > 1] + 1])
    report.orientation_conflicts = list(zip(tails[again].tolist(), heads[again].tolist()))

    # a face whose vertex set appeared before is paired with the first such face
    vertex_sets = np.sort(faces, axis=1)
    f_order = np.lexsort(vertex_sets.T[::-1])
    f_starts, f_counts = _runs(vertex_sets[f_order])
    repeated = np.ones(len(f_order), dtype=bool)
    repeated[f_starts] = False
    firsts = np.repeat(f_order[f_starts], f_counts)[repeated]
    later = f_order[repeated]
    by_face = np.argsort(later)
    report.duplicate_faces = list(zip(firsts[by_face].tolist(), later[by_face].tolist()))

    corners = np.bincount(tails, minlength=n)
    report.isolated_vertices = np.flatnonzero(corners == 0).tolist()
    shared = counts == 2
    one, two = first[shared], order[starts[shared] + 1]
    if report.is_clean:  # so every edge has one or two faces, two of them a twin pair
        twins = np.full(len(tails), SENTINEL, dtype=np.int64)
        twins[one], twins[two] = two, one
        report.pinched_vertices = _pinched(tails, twins, corners)
    if not report.is_clean:
        return report, None

    edge_faces = np.full((len(edges), 2), SENTINEL, dtype=np.int64)
    edge_faces[:, 0] = first // 3
    edge_faces[shared, 1] = two // 3
    return report, EdgeTopology(edges, edge_faces, half_edge_ids.reshape(-1, 3))


def _pinched(tails, twins, corners):
    """Vertices whose corners form more than one fan, ascending, from each
    corner's vertex and twin half-edge (-1 on the boundary) and each vertex's
    corner count. A corner's successor is the twin of the half-edge entering
    it; an open fan starts at a corner whose own half-edge has no twin, and
    is closed (end to start) when it is its vertex's only one. Pointer
    doubling then labels each cycle of successors by its smallest corner."""
    corner = np.arange(len(tails))
    successor = twins.reshape(-1, 3)[:, [2, 0, 1]].ravel()
    opens = twins == SENTINEL
    path_start = np.zeros_like(corners)
    path_start[tails[opens]] = corner[opens]
    ends = successor == SENTINEL
    successor[ends] = path_start[tails[ends]]
    label = corner
    for _ in range(int(corners.max(initial=1) - 1).bit_length()):
        label, successor = np.minimum(label, label[successor]), successor[successor]
    fans = np.bincount(tails[label == corner], minlength=len(corners))
    paths = np.bincount(tails[opens], minlength=len(corners))
    return np.flatnonzero((fans > 1) | (paths > 1)).tolist()


def disjoint_union(meshes):
    """The meshes as one mesh: vertices and faces in part order, each part's
    faces shifted past the vertices before it. One mesh is its own union.

    ``_scan`` numbers ids by first appearance over the face list, so each
    part's edges, faces and vertices are one contiguous run of the union's
    ids, and :func:`split_topology` recovers each part's own topology.
    """
    if len(meshes) == 1:
        return meshes[0]
    starts = np.cumsum([0] + [m.vertex_count for m in meshes[:-1]])
    faces = np.concatenate([m.faces + start for m, start in zip(meshes, starts)])
    return Mesh(np.concatenate([m.vertices for m in meshes]), faces)


def split_topology(topology: EdgeTopology, meshes):
    """Each mesh's own topology, bit for bit, from the topology of their
    :func:`disjoint_union`: every id less its part's offset, sentinels kept."""
    if len(meshes) == 1:
        return [topology]
    face_counts = [m.face_count for m in meshes]
    vertex_starts = np.cumsum([0] + [m.vertex_count for m in meshes])
    face_starts = np.cumsum([0] + face_counts)
    # a part's first edge is the first half-edge of its first face
    edge_starts = np.append(topology.face_edges[face_starts[:-1], 0], topology.edge_count)
    part = np.repeat(np.arange(len(meshes)), np.diff(edge_starts))
    edges = topology.edges - vertex_starts[part, None]
    edge_faces = topology.edge_faces - face_starts[part, None]
    edge_faces[topology.edge_faces == SENTINEL] = SENTINEL
    face_edges = topology.face_edges - np.repeat(edge_starts[:-1], face_counts)[:, None]
    edge_starts, face_starts = edge_starts.tolist(), face_starts.tolist()
    return [
        EdgeTopology(edges[e0:e1], edge_faces[e0:e1], face_edges[f0:f1])
        for e0, e1, f0, f1 in zip(edge_starts, edge_starts[1:], face_starts, face_starts[1:])
    ]


def validate_manifold(mesh: Mesh) -> ValidationReport:
    """Check edge degrees, orientation consistency, stray vertices, duplicates,
    and, when those are clean, that each vertex's faces form one fan.

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

