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

Collapse legality, checked in this order; each rule is named by the reason
of :data:`ILLEGAL_REASONS` that :meth:`PoolingState.collapse_illegality`
returns when it fails first. The edge is alive (``EDGE_REMOVED``) and interior
(``BOUNDARY_EDGE``), every edge touching its endpoints is interior
(``INCIDENT_BOUNDARY``), the endpoints share exactly two neighbor vertices,
the link condition of Dey et al. 1999 (``LINK_CONDITION``), those two have
valence at least 4 (``SHARED_VALENCE``), and the merged vertex keeps valence
at least 3 (``MERGED_VALENCE``). Together these keep every intermediate mesh
a consistently oriented 2-manifold with no duplicate faces. The last rule
refuses only on pinched meshes: two valence-3 endpoints whose shared
neighbours each join a second fan.

A collapse updates only primary connectivity (edge endpoints, edge-face and
face-edge incidence) and the vertex links it touches. Rings (the rule of
:func:`topology.rings`) and face corners are derived from it when needed.
A vertex's link, ``{neighbor vertex: edge id}``, is built the first time the
vertex is looked at, so a pool call costs per collapse and per pop, not per
vertex. A collapse never touches a vertex that has a boundary edge, so which
vertices lie on the boundary is fixed when pooling starts.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._kernels import row_norms
from .errors import (
    DataError,
    GraphError,
    IllegalCollapseError,
    MeshError,
    NonFiniteError,
    PoolTargetError,
)
from .mesh import Mesh
from .topology import SENTINEL, EdgeTopology

ENHANCED = "enhanced"
BATCH_LEGACY = "legacy"
POLICIES = (ENHANCED, BATCH_LEGACY)

# A collapse removes three edges, so pooling stops 0-2 edges below its target,
# and a next stage's target is below the count reached on every mesh only when
# it is at least this many edges lower.
MIN_TARGET_GAP = 3

EDGE_REMOVED = "edge already removed"
BOUNDARY_EDGE = "boundary edge"
INCIDENT_BOUNDARY = "incident boundary edge"
LINK_CONDITION = "link condition violated (not two shared neighbors)"
SHARED_VALENCE = "shared neighbor vertex has valence < 4"
MERGED_VALENCE = "merged vertex would have valence < 3"
ILLEGAL_REASONS = (EDGE_REMOVED, BOUNDARY_EDGE, INCIDENT_BOUNDARY, LINK_CONDITION,
                   SHARED_VALENCE, MERGED_VALENCE)

# The divisor of the survivor averages and of their backward. A 0-d array
# divides exactly as the float 3.0 does, and spares each row-sized ufunc call
# the conversion of a Python float, which costs about as much as the division.
_THREE = np.array(3.0)

# the slots after slot k of a face, in ring order: (k + 1) % 3 and (k + 2) % 3
_NEXT = (1, 2, 0)
_AFTER_NEXT = (2, 0, 1)


class CollapseRecord(NamedTuple):
    """One collapse: who died, who survived, and what was averaged into whom.

    A named tuple rather than a frozen dataclass: every collapse makes one,
    and a frozen dataclass sets each field through ``object.__setattr__``.
    """

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
        """Inverse of ``to_dict``; DataError for a field of the wrong type or length."""
        return CollapseRecord(
            _int(d["collapsed_edge"]),
            _ints(d["surviving_edges"], 2),
            _ints(d["removed_edges"], 3),
            tuple(_ints(s, 3) for s in _items(d["source_sets"], 2)),
        )


def _int(value):
    if type(value) is not int:  # bool and float are not edge ids or counts
        raise DataError(f"pool journal: expected an integer, got {type(value).__name__}")
    return value


def _items(values, count=None):
    if type(values) is not list or count not in (None, len(values)):
        raise DataError(f"pool journal: expected a list of {count or 'records'}")
    return values


def _ints(values, count):
    return tuple(map(_int, _items(values, count)))


@dataclass
class PoolHistory:
    """Ordered collapse journal; enough to invert the pooling fan-in."""

    records: list = field(default_factory=list)
    initial_edge_count: int = 0
    final_edge_count: int = 0

    def surviving_ids(self):
        """Old edge ids still alive at the end, ascending (= compact order)."""
        alive = np.ones(self.initial_edge_count, dtype=bool)
        removed = itertools.chain.from_iterable(rec.removed_edges for rec in self.records)
        alive[np.fromiter(removed, dtype=np.intp)] = False
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
    def from_json(text) -> "PoolHistory":
        """Inverse of ``to_json``, bare or newline-ended (str or UTF-8 bytes); else DataError."""
        try:
            d = json.loads(text)
        except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deep
            raise DataError("pool journal is not JSON") from None
        try:
            history = PoolHistory(
                [CollapseRecord.from_dict(r) for r in _items(d["records"])],
                _int(d["initial_edge_count"]),
                _int(d["final_edge_count"]),
            )
        except KeyError as err:
            raise DataError(f"pool journal has no key {err}") from None
        except TypeError:  # indexing something that is not a JSON object
            raise DataError("pool journal: a journal or record is not a JSON object") from None
        history._check()
        written = history.to_json() + "\n"
        if text not in (written, written[:-1], written.encode(), written[:-1].encode()):
            raise DataError("pool journal is not in the form to_json writes")
        return history

    def _check(self):
        """DataError unless every record could come from pooling: fields that
        agree as :meth:`PoolingState.collapse` writes them, ids in
        ``0 .. initial_edge_count - 1``, no edge removed twice or surviving a
        record after its removal, and three edges fewer per record."""
        n = self.initial_edge_count
        if n < 0 or self.final_edge_count != n - 3 * len(self.records):
            raise DataError(
                f"pool journal: final_edge_count {self.final_edge_count} is not "
                f"initial_edge_count {n} minus 3 per record"
            )
        removed = set()
        for rec in self.records:
            (a, c), (e, b, d) = rec.surviving_edges, rec.removed_edges
            if rec.collapsed_edge != e or rec.source_sets != ((a, b, e), (c, d, e)):
                raise DataError("pool journal: a record's fields disagree")
            if not all(0 <= i < n for i in (a, c, e, b, d)):
                raise DataError(f"pool journal: an edge id lies outside 0..{n - 1}")
            count = len(removed)
            removed.update(rec.removed_edges)
            if len(removed) != count + 3:
                raise DataError("pool journal: an edge is removed twice")
            if not removed.isdisjoint(rec.surviving_edges):
                raise DataError("pool journal: a surviving edge is already removed")


class ScoreQueue:
    """Min-heap of (score, edge, version) with lazy invalidation.

    Pushing an edge bumps its version; popped entries with stale versions are
    discarded, so updates never need an in-place decrease-key. Ties resolve
    to the smaller edge index.
    """

    def __init__(self, scores):
        scores = np.asarray(scores, dtype=np.float64).tolist()
        self.version = [0] * len(scores)
        self._heap = list(zip(scores, range(len(scores)), itertools.repeat(0)))
        heapq.heapify(self._heap)

    def push(self, edge, score):
        """Queue ``edge`` at ``score``. An int and a float, or numpy scalars of
        them: ``np.float64`` is a float and compares as one."""
        version = self.version
        version[edge] += 1
        heapq.heappush(self._heap, (score, edge, version[edge]))

    def pop_live(self, alive):
        """Smallest-score live entry, or None when exhausted."""
        while self._heap:
            score, edge, version = heapq.heappop(self._heap)
            if version == self.version[edge] and alive[edge]:
                return edge
        return None


class PoolingState:
    """Mutable working copy of features + connectivity during pooling.

    Only primary connectivity is stored, as flat Python int lists, which a
    collapse reads and writes far faster than numpy scalars: edge ``e``'s
    endpoints and faces sit at ``2e`` and ``2e + 1`` of ``edges`` and
    ``edge_faces``, face ``g``'s edges at ``3g .. 3g + 2`` of ``face_edges``.
    ``edge_alive`` and ``face_alive`` flag what is left. ``links[w]`` is vertex
    ``w``'s ``{neighbor vertex: edge id}`` map over live edges, or None until
    :meth:`link` first builds it from the topology's incidence; a vertex
    merged away keeps an empty link. ``boundary_vertices`` holds the vertices
    with a boundary edge; no collapse changes it. Neighbor rings and face
    corners are derived (:meth:`ring`, :meth:`compact`, :meth:`export_mesh`).
    ``features``, ``scores`` and ``positions`` stay numpy arrays.
    """

    def __init__(self, topology: EdgeTopology, features, positions=None):
        feats = np.array(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != topology.edge_count:
            raise MeshError(
                f"features shape {feats.shape} does not match "
                f"{topology.edge_count} edges"
            )
        self.features = feats
        self.edges = topology.edges.ravel().tolist()
        self.edge_faces = topology.edge_faces.ravel().tolist()
        self.face_edges = topology.face_edges.ravel().tolist()
        self.positions = None if positions is None else np.array(positions, dtype=np.float64)
        self.edge_alive = [True] * topology.edge_count
        self.face_alive = [True] * len(topology.face_edges)
        self.live_edge_count = topology.edge_count
        self.scores = row_norms(self.features)
        # read only, to build links: vertex w's edges are ids[starts[w]:starts[w + 1]]
        self._incident, self._starts = topology.incidence
        self.links = [None] * (len(self._starts) - 1)
        boundary = topology.edges[~topology.interior_mask]
        self.boundary_vertices = frozenset(boundary.ravel().tolist())

    # -- queries ------------------------------------------------------------

    def ring(self, edge):
        """The ring ``(a, b, c, d)`` of ``edge``: :func:`topology.rings` for one edge.

        In each face the ring takes the edges at slots ``k + 1`` and ``k + 2``
        (mod 3) after the slot ``k`` that holds ``edge``.
        """
        ring = []
        face_edges = self.face_edges
        for g in self.edge_faces[2 * edge : 2 * edge + 2]:
            if g == SENTINEL:
                ring += (SENTINEL, SENTINEL)
            else:
                first = 3 * g
                k = face_edges.index(edge, first, first + 3) - first
                ring += (face_edges[first + _NEXT[k]], face_edges[first + _AFTER_NEXT[k]])
        return tuple(ring)

    def link(self, w):
        """``{neighbor vertex: edge id}`` of vertex ``w`` over live edges.

        Built on first use from the topology's incident edges of ``w``. That
        is right for any vertex no collapse has had as an endpoint: a
        collapse only retires edges and moves the merged-away endpoint's
        edges, and it builds both endpoints' links before it moves any.
        """
        link = self.links[w]
        if link is None:
            edges, alive = self.edges, self.edge_alive
            link = {}
            for e in self._incident[self._starts[w] : self._starts[w + 1]]:
                if alive[e]:
                    x = edges[2 * e]
                    link[edges[2 * e + 1] if x == w else x] = e
            self.links[w] = link
        return link

    def collapse_illegality(self, edge):
        """The reason of :data:`ILLEGAL_REASONS` the collapse is illegal for, else None."""
        if not self.edge_alive[edge]:
            return EDGE_REMOVED
        if self.edge_faces[2 * edge + 1] == SENTINEL:
            return BOUNDARY_EDGE
        u, v = self.edges[2 * edge], self.edges[2 * edge + 1]
        if u in self.boundary_vertices or v in self.boundary_vertices:
            return INCIDENT_BOUNDARY
        # a built link is read in place; link() builds a missing one and
        # returns an empty built one as it is
        links = self.links
        link_u, link_v = links[u] or self.link(u), links[v] or self.link(v)
        common = link_u.keys() & link_v.keys()
        if len(common) != 2:
            return LINK_CONDITION
        for w in common:
            if len(links[w] or self.link(w)) < 4:
                return SHARED_VALENCE
        if len(link_u) + len(link_v) < 7:
            return MERGED_VALENCE
        return None

    # -- mutation -----------------------------------------------------------

    def collapse(self, edge) -> CollapseRecord:
        reason = self.collapse_illegality(edge)
        if reason is not None:
            raise IllegalCollapseError(f"cannot collapse edge {edge}: {reason}")
        return self._collapse(int(edge))

    def _collapse(self, e, rescored=None) -> CollapseRecord:
        """Collapse edge ``e``, which :meth:`collapse_illegality` found legal.

        ``rescored(edge, score)``, when given, receives each survivor and its
        new score, the Python float also stored in ``scores``.
        """
        edges, edge_faces, face_edges, links = self.edges, self.edge_faces, self.face_edges, self.links
        u, v = edges[2 * e], edges[2 * e + 1]
        f1, f2 = edge_faces[2 * e], edge_faces[2 * e + 1]
        # the ring (a, b, c, d) of the interior edge e, as ring() reads it
        first = 3 * f1
        k = face_edges.index(e, first, first + 3) - first
        a, b = face_edges[first + _NEXT[k]], face_edges[first + _AFTER_NEXT[k]]
        first = 3 * f2
        k = face_edges.index(e, first, first + 3) - first
        c, d = face_edges[first + _NEXT[k]], face_edges[first + _AFTER_NEXT[k]]

        # b and d are interior, so each one's other face is its face sum minus f1/f2
        fb = edge_faces[2 * b] + edge_faces[2 * b + 1] - f1
        fd = edge_faces[2 * d] + edge_faces[2 * d + 1] - f2

        # feature averaging in place, (a + b + e) / 3 and (c + d + e) / 3, and
        # survivor rescoring; sqrt(x.dot(x)) is what np.linalg.norm computes
        # for a 1-D float64 vector
        feats = self.features
        row_e = feats[e]
        new_a = feats[a]
        np.add(new_a, feats[b], new_a)
        np.add(new_a, row_e, new_a)
        np.divide(new_a, _THREE, new_a)
        new_c = feats[c]
        np.add(new_c, feats[d], new_c)
        np.add(new_c, row_e, new_c)
        np.divide(new_c, _THREE, new_c)
        score_a = self.scores[a] = math.sqrt(new_a.dot(new_a))
        score_c = self.scores[c] = math.sqrt(new_c.dot(new_c))

        # faces: drop the collapsed pair, a and c take over b's and d's slots
        self.face_alive[f1] = False
        self.face_alive[f2] = False
        face_edges[face_edges.index(b, 3 * fb, 3 * fb + 3)] = a
        face_edges[face_edges.index(d, 3 * fd, 3 * fd + 3)] = c
        edge_faces[edge_faces.index(f1, 2 * a, 2 * a + 2)] = fb
        edge_faces[edge_faces.index(f2, 2 * c, 2 * c + 2)] = fd

        # retire e, b, d; collapse_illegality built both endpoints' links
        link_u, link_v = links[u], links[v]
        for dead in (e, b, d):
            x, y = edges[2 * dead], edges[2 * dead + 1]
            if links[x] is not None:
                del links[x][y]
            if links[y] is not None:
                del links[y][x]
            self.edge_alive[dead] = False
        self.live_edge_count -= 3

        # merge v into u; a neighbor's link not built yet reads the new ends later
        for other, moved in link_v.items():
            if u < other:
                edges[2 * moved] = u
                edges[2 * moved + 1] = other
            else:
                edges[2 * moved] = other
                edges[2 * moved + 1] = u
            link_u[other] = moved
            link = links[other]
            if link is not None:
                del link[v]
                link[u] = moved
        link_v.clear()
        if self.positions is not None:
            self.positions[u] = (self.positions[u] + self.positions[v]) / 2.0

        if rescored is not None:
            rescored(a, score_a)
            rescored(c, score_c)
        # tuple.__new__ skips the named tuple's generated __new__ and its arguments
        return tuple.__new__(CollapseRecord, (e, (a, c), (e, b, d), ((a, b, e), (c, d, e))))

    # -- extraction ----------------------------------------------------------

    def _vertex_map(self, live_edges):
        """Used-vertex mask and old -> new vertex ids, from the live edges."""
        used = np.zeros(len(self.links), dtype=bool)
        used[live_edges] = True
        return used, np.cumsum(used) - 1

    def _arrays(self):
        """The (E, 2) int64 edge array, and the live edge and face ids, ascending."""
        return (
            _int64(self.edges).reshape(-1, 2),
            np.flatnonzero(_flags(self.edge_alive)),
            np.flatnonzero(_flags(self.face_alive)),
        )

    def compact(self):
        """Renumber live edges/faces/vertices ascending, as int64 arrays.

        Returns (features, topology); the vertex numbering matches
        :meth:`export_mesh` so staged pooling stays consistent.
        """
        edges, live, live_faces = self._arrays()
        edge_map = np.full(len(self.edge_alive), SENTINEL, dtype=np.int64)
        edge_map[live] = np.arange(len(live))
        # one entry more, at index SENTINEL (-1), so a boundary slot maps to itself
        face_map = np.full(len(self.face_alive) + 1, SENTINEL, dtype=np.int64)
        face_map[live_faces] = np.arange(len(live_faces))
        edges = edges[live]
        edges = self._vertex_map(edges)[1][edges]
        edge_faces = face_map[_int64(self.edge_faces).reshape(-1, 2)[live]]
        face_edges = edge_map[_int64(self.face_edges).reshape(-1, 3)[live_faces]]
        return self.features[live], EdgeTopology(edges, edge_faces, face_edges)

    def export_mesh(self) -> Mesh:
        """Live faces on live vertices, numbered as in :meth:`compact`."""
        if self.positions is None:
            raise MeshError("pooling state has no vertex positions to export")
        edges, live, live_faces = self._arrays()
        used, vertex_map = self._vertex_map(edges[live])
        # corner k of a face is the vertex its edge slots k - 1 and k share
        ends = edges[_int64(self.face_edges).reshape(-1, 3)[live_faces]]
        prev = ends[:, [2, 0, 1]]
        first = prev[..., :1]
        corners = np.where((first == ends).any(axis=-1), prev[..., 0], prev[..., 1])
        return Mesh(self.positions[used], vertex_map[corners])


def _int64(values):
    """A flat int list as an int64 array."""
    return np.fromiter(values, np.int64, len(values))


def _flags(values):
    """A list of bools as a read-only bool array over its bytes."""
    return np.frombuffer(bytes(values), bool)


@dataclass
class PoolStats:
    """What one pool call did; not part of the journal.

    ``illegal_pops`` counts the popped edges that could not collapse, keyed
    by the reason of :data:`ILLEGAL_REASONS` ``collapse_illegality`` gave.
    ``queue_rebuilds`` counts the times the queue ran dry and was filled
    again from the live edges.
    """

    collapses: int = 0
    illegal_pops: dict = field(default_factory=dict)
    queue_rebuilds: int = 0

    def summary(self):
        """One line: the three counts, then the illegal pops by reason."""
        return (
            f"collapses={self.collapses} "
            f"illegal_pops={sum(self.illegal_pops.values())} "
            f"queue_rebuilds={self.queue_rebuilds} "
            f"by_reason={dict(sorted(self.illegal_pops.items()))}"
        )


@dataclass
class PoolResult:
    features: np.ndarray
    topology: EdgeTopology
    history: PoolHistory
    state: PoolingState
    stats: PoolStats


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
    ``BATCH_LEGACY`` walks the selection order frozen at entry. Each pop asks
    :meth:`PoolingState.collapse_illegality` once; a legal collapse runs unchecked.
    Features whose entry score is NaN raise NonFiniteError; an infinite score
    ranks last.
    """
    if policy not in POLICIES:
        raise GraphError(f"unknown pooling policy {policy!r}")
    state = PoolingState(topology, features, positions=None if mesh is None else mesh.vertices)
    if target_edges >= state.live_edge_count:
        raise GraphError(
            f"pool target {target_edges} is not below the current edge count "
            f"{state.live_edge_count}"
        )
    # a NaN score has no place in the heap's order; scores are not negative,
    # so their sum is NaN exactly when one of them is
    if math.isnan(state.scores.sum()):
        raise NonFiniteError("pooling features hold a NaN")
    history = PoolHistory(
        initial_edge_count=state.live_edge_count, final_edge_count=state.live_edge_count
    )
    illegal = Counter()
    rebuilds = 0
    # the one array the queue ranks by: the live scores, or a copy frozen at entry
    rescore = policy == ENHANCED
    ranks = state.scores if rescore else state.scores.copy()
    queue = ScoreQueue(ranks)
    push = queue.push if rescore else None
    # looked up once per call; a wrapper installed on the class before the call sees every pop
    illegality, collapse, append = state.collapse_illegality, state._collapse, history.records.append
    alive = state.edge_alive
    progressed = True
    while state.live_edge_count > target_edges:
        edge = queue.pop_live(alive)
        if edge is None:
            if not progressed:
                raise PoolTargetError(target_edges, state.live_edge_count)
            # every remaining entry was consumed or stale; rank the survivors again
            queue = ScoreQueue(np.where(alive, ranks, np.inf))
            push = queue.push if rescore else None
            rebuilds += 1
            progressed = False
            continue
        reason = illegality(edge)
        if reason is not None:
            illegal[reason] += 1
            continue
        append(collapse(edge, push))
        progressed = True
    history.final_edge_count = state.live_edge_count
    out_features, out_topology = state.compact()
    stats = PoolStats(len(history.records), dict(illegal), rebuilds)
    return PoolResult(out_features, out_topology, history, state, stats)


def pool_batch_legacy(features, topology: EdgeTopology, target_edges: int, *, mesh=None):
    """``pool`` under the ``BATCH_LEGACY`` policy."""
    return pool(features, topology, target_edges, mesh=mesh, policy=BATCH_LEGACY)


def unpool(features, history: PoolHistory) -> np.ndarray:
    """Broadcast pooled features back onto the pre-pool edge set.

    Removed edges receive the feature of the survivor that absorbed them; the
    collapsed edge itself, which fed both survivors, receives their mean.
    """
    feats = np.asarray(features, dtype=np.float64)
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
    return g[history.surviving_ids()]


def pool_backward(grad_pooled, history: PoolHistory) -> np.ndarray:
    """Transpose of the pooling averages: 1/3 to each of a survivor's sources.

    Selection is a discrete routing decision and contributes no gradient.
    """
    g = np.asarray(grad_pooled, dtype=np.float64)
    if g.shape[0] != history.final_edge_count:
        raise MeshError("gradient rows do not match pooled edge count")
    out = np.zeros((history.initial_edge_count, g.shape[1]))
    out[history.surviving_ids()] = g
    for _, (a, c), (e, b, d), _ in reversed(history.records):
        ga, gc, ge = out[a], out[c], out[e]  # row views
        np.add(ga, gc, ge)
        np.divide(ge, _THREE, ge)
        np.divide(ga, _THREE, ga)
        np.divide(gc, _THREE, gc)
        out[b] = ga
        out[d] = gc
    return out
