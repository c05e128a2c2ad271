"""Edge-collapse pooling with per-collapse score updates, and unpooling.

Collapsing an interior edge ``e`` with ring ``(a, b, c, d)`` removes the two
incident triangles: edges ``e``, ``b``, ``d`` disappear, ``a`` absorbs the
averaged features of ``{a, b, e}``, ``c`` those of ``{c, d, e}``, and the far
endpoint of ``e`` merges into the near one (placed at the edge midpoint).

Two selection policies exist. The incremental one recomputes the two
survivors' scores (L2 feature norms) immediately after every collapse, so a
region that just absorbed information stops being the weakest; the batch
policy ranks all edges once up front and walks that frozen order. Only the
two survivors are rescored; other edges of the wider ring are left alone even
though the collapse also affects them geometrically.

Collapse legality: the edge is interior, every edge touching its endpoints is
interior, the endpoints share exactly two neighbor vertices (link condition),
those two shared vertices have valence at least 4, and the merged vertex
keeps valence at least 3. Together these keep every intermediate mesh a
consistently oriented 2-manifold with no duplicate faces.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import IllegalCollapseError, MeshError, PoolTargetError
from .mesh import Mesh
from .topology import SENTINEL, EdgeTopology

ENHANCED = "enhanced"
BATCH_LEGACY = "legacy"


@dataclass(frozen=True)
class CollapseRecord:
    """One collapse: who died, who survived, and what was averaged into whom."""

    collapsed_edge: int
    surviving_edges: tuple  # (a, c)
    removed_edges: tuple  # (e, b, d)
    source_sets: tuple  # ((a, b, e), (c, d, e))

    def to_dict(self):
        return {
            "collapsed_edge": self.collapsed_edge,
            "surviving_edges": list(self.surviving_edges),
            "removed_edges": list(self.removed_edges),
            "source_sets": [list(s) for s in self.source_sets],
        }

    @staticmethod
    def from_dict(d):
        return CollapseRecord(
            d["collapsed_edge"],
            tuple(d["surviving_edges"]),
            tuple(d["removed_edges"]),
            tuple(tuple(s) for s in d["source_sets"]),
        )


@dataclass
class PoolHistory:
    """Ordered collapse journal; enough to invert the pooling fan-in."""

    records: list = field(default_factory=list)
    initial_edge_count: int = 0
    final_edge_count: int = 0

    def surviving_ids(self):
        """Old edge ids still alive at the end, ascending (= compact order)."""
        alive = np.ones(self.initial_edge_count, dtype=bool)
        for rec in self.records:
            alive[list(rec.removed_edges)] = False
        return np.flatnonzero(alive)

    def to_json(self) -> str:
        return json.dumps(
            {
                "initial_edge_count": self.initial_edge_count,
                "final_edge_count": self.final_edge_count,
                "records": [r.to_dict() for r in self.records],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "PoolHistory":
        d = json.loads(text)
        return PoolHistory(
            [CollapseRecord.from_dict(r) for r in d["records"]],
            d["initial_edge_count"],
            d["final_edge_count"],
        )


class ScoreQueue:
    """Min-heap of (score, edge, version) with lazy invalidation.

    Pushing an edge bumps its version; popped entries with stale versions are
    discarded, so updates never need an in-place decrease-key. Ties resolve
    to the smaller edge index.
    """

    def __init__(self, scores):
        self.version = np.zeros(len(scores), dtype=np.int64)
        self._heap = [(float(s), e, 0) for e, s in enumerate(scores)]
        heapq.heapify(self._heap)

    def push(self, edge, score):
        self.version[edge] += 1
        heapq.heappush(self._heap, (float(score), int(edge), int(self.version[edge])))

    def pop_live(self, alive):
        """Smallest-score live entry, or None when exhausted."""
        while self._heap:
            score, edge, version = heapq.heappop(self._heap)
            if version == self.version[edge] and alive[edge]:
                return edge
        return None


class PoolingState:
    """Mutable working copy of features + connectivity during pooling."""

    def __init__(self, topology: EdgeTopology, features, positions=None, faces=None):
        feats = np.array(getattr(features, "values", features), dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != topology.edge_count:
            raise MeshError(
                f"features shape {feats.shape} does not match "
                f"{topology.edge_count} edges"
            )
        self.features = feats
        self.edges = topology.edges.copy()
        self.edge_faces = topology.edge_faces.copy()
        self.neighbors = topology.neighbors.copy()
        self.face_edges = topology.face_edges.copy()
        if faces is None:
            faces = np.full((len(self.face_edges), 3), -1, dtype=np.int64)
        self.faces = np.array(faces, dtype=np.int64)
        self.positions = None if positions is None else np.array(positions, dtype=np.float64)
        self.edge_alive = np.ones(topology.edge_count, dtype=bool)
        self.face_alive = np.ones(len(self.face_edges), dtype=bool)
        self.vertex_edges = [set(v) for v in topology.vertex_edges]
        self.live_edge_count = topology.edge_count
        self.scores = np.linalg.norm(self.features, axis=1)

    @classmethod
    def from_mesh(cls, mesh: Mesh, topology: EdgeTopology, features):
        return cls(topology, features, positions=mesh.vertices, faces=mesh.faces)

    # -- queries ------------------------------------------------------------

    def vertex_neighbors(self, v):
        out = set()
        for e in self.vertex_edges[v]:
            a, b = self.edges[e]
            out.add(int(b) if a == v else int(a))
        return out

    def _is_boundary(self, edge):
        return self.edge_faces[edge, 1] == SENTINEL

    def collapse_illegality(self, edge):
        """Reason string if the collapse is illegal, else None."""
        if not self.edge_alive[edge]:
            return "edge already removed"
        if self._is_boundary(edge):
            return "boundary edge"
        u, v = (int(x) for x in self.edges[edge])
        for w in (u, v):
            for e in self.vertex_edges[w]:
                if self._is_boundary(e):
                    return "incident boundary edge"
        common = self.vertex_neighbors(u) & self.vertex_neighbors(v)
        if len(common) != 2:
            return f"link condition violated ({len(common)} shared neighbors)"
        for w in common:
            if len(self.vertex_edges[w]) < 4:
                return f"shared neighbor vertex {w} has valence < 4"
        if len(self.vertex_edges[u]) + len(self.vertex_edges[v]) < 7:
            return "merged vertex would have valence < 3"
        return None

    # -- mutation -----------------------------------------------------------

    def _other_face(self, edge, face):
        f0, f1 = self.edge_faces[edge]
        return int(f1) if f0 == face else int(f0)

    def _face_pair_after(self, face, edge):
        """The face's other two edges, counter-clockwise after ``edge``."""
        fe = self.face_edges[face]
        for k in range(3):
            if fe[k] == edge:
                return int(fe[(k + 1) % 3]), int(fe[(k + 2) % 3])
        raise MeshError(f"edge {edge} not in face {face}")

    def collapse(self, edge) -> CollapseRecord:
        reason = self.collapse_illegality(edge)
        if reason is not None:
            raise IllegalCollapseError(f"cannot collapse edge {edge}: {reason}")

        e = int(edge)
        u, v = (int(x) for x in self.edges[e])
        f1, f2 = (int(x) for x in self.edge_faces[e])
        a, b = (int(x) for x in self.neighbors[e, 0:2])
        c, d = (int(x) for x in self.neighbors[e, 2:4])

        fb = self._other_face(b, f1)
        fd = self._other_face(d, f2)

        # feature averaging and survivor rescoring
        new_a = (self.features[a] + self.features[b] + self.features[e]) / 3.0
        new_c = (self.features[c] + self.features[d] + self.features[e]) / 3.0
        self.features[a] = new_a
        self.features[c] = new_c
        self.scores[a] = np.linalg.norm(new_a)
        self.scores[c] = np.linalg.norm(new_c)

        # faces: drop the collapsed pair, a and c take over b's and d's slots
        self.face_alive[f1] = False
        self.face_alive[f2] = False
        fe = self.face_edges[fb]
        fe[fe == b] = a
        fe = self.face_edges[fd]
        fe[fe == d] = c
        ef = self.edge_faces[a]
        ef[ef == f1] = fb
        ef = self.edge_faces[c]
        ef[ef == f2] = fd

        # retire e, b, d
        for dead in (e, b, d):
            x, y = (int(t) for t in self.edges[dead])
            self.vertex_edges[x].discard(dead)
            self.vertex_edges[y].discard(dead)
            self.edge_alive[dead] = False
        self.live_edge_count -= 3

        # merge v into u
        for moved in list(self.vertex_edges[v]):
            x, y = (int(t) for t in self.edges[moved])
            nx, ny = (u, y) if x == v else (x, u)
            if nx > ny:
                nx, ny = ny, nx
            self.edges[moved, 0] = nx
            self.edges[moved, 1] = ny
            self.vertex_edges[u].add(moved)
        self.vertex_edges[v].clear()
        faces_of_u = set()
        for inc in self.vertex_edges[u]:
            for fi in self.edge_faces[inc]:
                if fi != SENTINEL and self.face_alive[fi]:
                    faces_of_u.add(int(fi))
        for fi in faces_of_u:
            fv = self.faces[fi]
            fv[fv == v] = u
        if self.positions is not None:
            self.positions[u] = (self.positions[u] + self.positions[v]) / 2.0

        # rebuild the 4-neighbor tuples around the two absorbed triangles
        affected = {a, c}
        affected.update(int(t) for t in self.face_edges[fb])
        affected.update(int(t) for t in self.face_edges[fd])
        for x in affected:
            for slot in range(2):
                g = self.edge_faces[x, slot]
                if g == SENTINEL:
                    self.neighbors[x, 2 * slot : 2 * slot + 2] = SENTINEL
                else:
                    self.neighbors[x, 2 * slot : 2 * slot + 2] = (
                        self._face_pair_after(int(g), x)
                    )

        return CollapseRecord(e, (a, c), (e, b, d), ((a, b, e), (c, d, e)))

    # -- extraction ----------------------------------------------------------

    def _used_vertices(self):
        used = np.zeros(len(self.vertex_edges), dtype=bool)
        used[self.edges[self.edge_alive].reshape(-1)] = True
        return used

    def compact(self):
        """Renumber live edges/faces/vertices ascending.

        Returns (features, topology); the vertex numbering matches
        :meth:`export_mesh` so staged pooling stays consistent.
        """
        live = np.flatnonzero(self.edge_alive)
        live_faces = np.flatnonzero(self.face_alive)
        edge_map = np.full(len(self.edge_alive), SENTINEL, dtype=np.int64)
        edge_map[live] = np.arange(len(live))
        face_map = np.full(len(self.face_alive), SENTINEL, dtype=np.int64)
        face_map[live_faces] = np.arange(len(live_faces))
        used = self._used_vertices()
        vertex_map = np.cumsum(used) - 1

        edges = vertex_map[self.edges[live]]
        edge_faces = self.edge_faces[live].copy()
        mask = edge_faces != SENTINEL
        edge_faces[mask] = face_map[edge_faces[mask]]
        neighbors = self.neighbors[live].copy()
        mask = neighbors != SENTINEL
        neighbors[mask] = edge_map[neighbors[mask]]
        face_edges = edge_map[self.face_edges[live_faces]]
        vertex_edges = [
            sorted(int(edge_map[e]) for e in incident)
            for v, incident in enumerate(self.vertex_edges)
            if used[v]
        ]
        topology = EdgeTopology(edges, edge_faces, neighbors, face_edges, vertex_edges)
        return self.features[live].copy(), topology

    def export_mesh(self) -> Mesh:
        """Live faces on live vertices, numbered as in :meth:`compact`."""
        if self.positions is None:
            raise MeshError("pooling state has no vertex positions to export")
        used = self._used_vertices()
        vertex_map = np.cumsum(used) - 1
        return Mesh(self.positions[used], vertex_map[self.faces[self.face_alive]])


@dataclass
class PoolResult:
    features: np.ndarray
    topology: EdgeTopology
    history: PoolHistory
    state: PoolingState

    @property
    def surviving_old_ids(self):
        return self.history.surviving_ids()


def _pool(state: PoolingState, target_edges: int, incremental: bool) -> PoolHistory:
    if target_edges >= state.live_edge_count:
        raise MeshError(
            f"pool target {target_edges} is not below the current edge count "
            f"{state.live_edge_count}"
        )
    history = PoolHistory(
        initial_edge_count=state.live_edge_count, final_edge_count=state.live_edge_count
    )
    frozen = None if incremental else state.scores.copy()
    queue = ScoreQueue(state.scores if incremental else frozen)
    progressed = True
    while state.live_edge_count > target_edges:
        edge = queue.pop_live(state.edge_alive)
        if edge is None:
            if not progressed:
                raise PoolTargetError(target_edges, state.live_edge_count)
            # every remaining entry was consumed or stale; rank the survivors again
            scores = state.scores if incremental else frozen
            queue = ScoreQueue(
                np.where(state.edge_alive, scores, np.inf)
            )
            progressed = False
            continue
        try:
            record = state.collapse(edge)
        except IllegalCollapseError:
            continue
        history.records.append(record)
        progressed = True
        if incremental:
            for survivor in record.surviving_edges:
                queue.push(survivor, state.scores[survivor])
    history.final_edge_count = state.live_edge_count
    return history


def pool(
    features,
    topology: EdgeTopology,
    target_edges: int,
    *,
    mesh: Mesh = None,
    policy: str = ENHANCED,
):
    """Pool down to ``target_edges`` (or the first count below it).

    ``ENHANCED`` rescores the two survivors after every collapse;
    ``BATCH_LEGACY`` walks the selection order frozen at entry.
    """
    state = (
        PoolingState.from_mesh(mesh, topology, features)
        if mesh is not None
        else PoolingState(topology, features)
    )
    history = _pool(state, target_edges, incremental=policy == ENHANCED)
    out_features, out_topology = state.compact()
    return PoolResult(out_features, out_topology, history, state)


def pool_batch_legacy(features, topology: EdgeTopology, target_edges: int, *, mesh=None):
    """``pool`` under the ``BATCH_LEGACY`` policy."""
    return pool(features, topology, target_edges, mesh=mesh, policy=BATCH_LEGACY)


def unpool(features, history: PoolHistory) -> np.ndarray:
    """Broadcast pooled features back onto the pre-pool edge set.

    Removed edges receive the feature of the survivor that absorbed them; the
    collapsed edge itself, which fed both survivors, receives their mean.
    """
    feats = np.asarray(getattr(features, "values", features), dtype=np.float64)
    if feats.shape[0] != history.final_edge_count:
        raise MeshError(
            f"feature rows {feats.shape[0]} do not match pooled edge count "
            f"{history.final_edge_count}"
        )
    out = np.zeros((history.initial_edge_count, feats.shape[1]))
    out[history.surviving_ids()] = feats
    for rec in reversed(history.records):
        a, c = rec.surviving_edges
        e, b, d = rec.removed_edges
        out[b] = out[a]
        out[d] = out[c]
        out[e] = (out[a] + out[c]) / 2.0
    return out


def unpool_backward(grad_initial, history: PoolHistory) -> np.ndarray:
    """Transpose of unpool: sum gradients along the broadcast fan-out."""
    g = np.array(grad_initial, dtype=np.float64)
    if g.shape[0] != history.initial_edge_count:
        raise MeshError("gradient rows do not match pre-pool edge count")
    for rec in history.records:
        a, c = rec.surviving_edges
        e, b, d = rec.removed_edges
        g[a] += g[b] + g[e] / 2.0
        g[c] += g[d] + g[e] / 2.0
        g[b] = 0.0
        g[d] = 0.0
        g[e] = 0.0
    return g[history.surviving_ids()].copy()


def pool_backward(grad_pooled, history: PoolHistory) -> np.ndarray:
    """Transpose of the pooling averages: 1/3 to each of a survivor's sources.

    Selection is a discrete routing decision and contributes no gradient.
    """
    g = np.asarray(grad_pooled, dtype=np.float64)
    if g.shape[0] != history.final_edge_count:
        raise MeshError("gradient rows do not match pooled edge count")
    out = np.zeros((history.initial_edge_count, g.shape[1]))
    out[history.surviving_ids()] = g
    for rec in reversed(history.records):
        a, c = rec.surviving_edges
        e, b, d = rec.removed_edges
        ga = out[a].copy()
        gc = out[c].copy()
        out[a] = ga / 3.0
        out[b] = ga / 3.0
        out[c] = gc / 3.0
        out[d] = gc / 3.0
        out[e] = (ga + gc) / 3.0
    return out
