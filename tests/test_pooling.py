"""Edge-collapse pooling: soundness fuzz, policy divergence, unpooling."""

import hashlib
import heapq
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshforms import (
    ILLEGAL_REASONS,
    DatasetSpec,
    DataError,
    Mesh,
    GraphError,
    IllegalCollapseError,
    MeshFormsError,
    NonFiniteError,
    PoolHistory,
    PoolingState,
    PoolTargetError,
    ScoreQueue,
    TopologyError,
    build_edge_topology,
    generate,
    pool,
    unpool,
    validate_manifold,
    write_obj,
)
from meshforms.cli import main
from meshforms.pooling import (
    BATCH_LEGACY,
    ENHANCED,
    POLICIES,
    CollapseRecord,
    pool_backward,
    unpool_backward,
)
from meshforms.topology import SENTINEL

from conftest import (
    closed_tetrahedron,
    edit_json,
    encode_json,
    fuzz_corpus,
    glued,
    mutate_bytes,
    pinched_tetrahedra,
    with_holes,
)


def ring(state, edge):
    """The ring ``(a, b, c, d)`` of ``edge`` in a pooling state's flat lists:
    :func:`topology.rings` for one edge. In each face the ring takes the edges
    at slots ``k + 1`` and ``k + 2`` (mod 3) after the slot ``k`` that holds
    ``edge``; a boundary edge has two sentinels for its missing face."""
    out = []
    for g in state.edge_faces[2 * edge : 2 * edge + 2]:
        if g == SENTINEL:
            out += (SENTINEL, SENTINEL)
        else:
            fe = state.face_edges[3 * g : 3 * g + 3]
            k = fe.index(edge)
            out += (fe[(k + 1) % 3], fe[(k + 2) % 3])
    return tuple(out)


def consistency_check(state, euler_characteristic):
    """Structural invariants of a pooling state after any collapse.

    ``euler_characteristic`` is V - E + F of the mesh before pooling, which a
    legal collapse keeps. A boundary edge has no second face, and its ring
    holds two sentinels there.
    """
    mesh = state.export_mesh()
    report = validate_manifold(mesh)
    assert report.is_clean, report.summary()
    alive = np.flatnonzero(state.edge_alive)
    assert mesh.vertex_count - len(alive) + mesh.face_count == euler_characteristic
    for e in alive:
        for slot in range(2):
            face = state.edge_faces[2 * e + slot]
            pair = ring(state, e)[2 * slot : 2 * slot + 2]
            if face == SENTINEL:
                assert slot == 1 and pair == (SENTINEL, SENTINEL)
                continue
            assert state.face_alive[face]
            assert set(int(p) for p in pair) <= set(
                int(x) for x in state.face_edges[3 * face : 3 * face + 3]
            )
        for nb in ring(state, e):
            if nb != SENTINEL:
                assert state.edge_alive[nb]
                assert e in ring(state, nb)
    # the vectorised ring rule in compact() agrees with the scalar ring(); the
    # appended entry keeps each sentinel
    edge_map = np.append(np.cumsum(state.edge_alive) - 1, SENTINEL)
    _, compacted = state.compact()
    assert np.array_equal(compacted.neighbors, edge_map[[ring(state, e) for e in alive]])
    # compact numbers the exported mesh's vertices, which the derived incidence
    # counts as the largest vertex id + 1
    incidence = [[] for _ in range(mesh.vertex_count)]
    for e, (u, v) in enumerate(compacted.edges.tolist()):
        incidence[u].append(e)
        incidence[v].append(e)
    assert compacted.vertex_edges == incidence
    norms = np.linalg.norm(state.features[alive], axis=1)
    assert np.max(np.abs(norms - state.scores[alive])) < 1e-12


def make_state(mesh, features=None, seed=0):
    topology = build_edge_topology(mesh)
    if features is None:
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(topology.edge_count, 3))
    return PoolingState(topology, features, positions=mesh.vertices), topology


def first_legal_edge(state):
    for e in range(len(state.edge_alive)):
        if state.collapse_illegality(e) is None:
            return e
    raise AssertionError("no legal edge")


class TestCollapse:
    def test_survivor_feature_is_mean(self, icosahedron):
        state, topo = make_state(icosahedron)
        e = first_legal_edge(state)
        a, b = (int(x) for x in ring(state, e)[:2])
        c, d = (int(x) for x in ring(state, e)[2:])
        state.features[[e, a, b]] = np.array([[3.0], [1.0], [2.0]]) * np.ones(3)
        expected_a = state.features[[a, b, e]].mean(axis=0)
        expected_c = state.features[[c, d, e]].mean(axis=0)
        record = state.collapse(e)
        assert record == (e, a, b, c, d)
        assert record.to_dict() == {
            "collapsed_edge": e,
            "surviving_edges": [a, c],
            "removed_edges": [e, b, d],
            "source_sets": [[a, b, e], [c, d, e]],
        }
        assert np.allclose(state.features[a], expected_a)
        assert np.allclose(state.features[c], expected_c)
        assert np.allclose(state.features[a], 2.0)

    def test_edge_count_drops_by_three(self, icosahedron):
        state, _ = make_state(icosahedron)
        before = state.live_edge_count
        state.collapse(first_legal_edge(state))
        assert state.live_edge_count == before - 3
        assert sum(state.edge_alive) == before - 3

    def test_illegal_collapse_names_condition(self, flat_pair, tetrahedron):
        state, topo = make_state(flat_pair)
        boundary = int(np.flatnonzero(~topo.interior_mask)[0])
        with pytest.raises(IllegalCollapseError, match="boundary"):
            state.collapse(boundary)
        interior = int(np.flatnonzero(topo.interior_mask)[0])
        with pytest.raises(IllegalCollapseError, match="boundary"):
            state.collapse(interior)
        state, _ = make_state(tetrahedron)
        with pytest.raises(IllegalCollapseError, match="valence"):
            state.collapse(0)

    @pytest.mark.parametrize(
        "edge", [-1, -30, 30, 10**6, True, False, 1.0, "1", None, np.int64(-1), np.bool_(True)]
    )
    def test_what_is_no_edge_id_is_refused_before_any_read(self, icosahedron, edge):
        """Only an int or numpy integer in 0..E-1 names an edge; a negative id
        would wrap in the flat lists, and a bool would collapse edge 0 or 1.
        ``collapse_illegality`` takes only an int: there a negative id or a
        bool would read as legal, and an id past the end raise IndexError."""
        state, _ = make_state(icosahedron)
        before = (list(state.edges), list(state.edge_alive), state.features.tobytes())
        with pytest.raises(IllegalCollapseError, match="no such edge"):
            state.collapse(edge)
        no_edge = f"^cannot collapse edge {edge}: no such edge$"
        with pytest.raises(IllegalCollapseError, match=no_edge):
            state.collapse_illegality(edge)
        assert (list(state.edges), list(state.edge_alive), state.features.tobytes()) == before
        legal = first_legal_edge(state)
        assert state.collapse(np.int64(legal)).edge == legal

    def test_fuzz_state_stays_consistent(self):
        for i, mesh in enumerate(fuzz_corpus(6, seed=23)):
            state, topo = make_state(mesh, seed=i)
            chi = mesh.vertex_count - topo.edge_count + mesh.face_count
            target = topo.edge_count // 2
            queue = ScoreQueue(state.scores)
            while state.live_edge_count > target:
                e = queue.pop_live(state.edge_alive)
                assert e is not None, "queue exhausted in fuzz"
                if state.collapse_illegality(e) is not None:
                    continue
                record = state.collapse(e)
                consistency_check(state, chi)
                for survivor in (record.a, record.c):
                    queue.push(survivor, state.scores[survivor])


class SetOracle(PoolingState):
    """The pooling state before vertex links: per-vertex incident-edge sets,
    over nested per-edge and per-face lists.

    ``collapse_illegality`` rebuilds both endpoints' neighbor sets on every
    call, and ``_collapse`` averages survivors into fresh arrays; both are the
    replaced code, kept as the reference the link-based state must match.
    The two rules pooling dropped, a boundary-edge rule before the incident
    one and a merged-valence rule last, stay as assertions: on valid input
    neither can refuse. ``flat(name)`` gives a connectivity list in the
    state's flat layout.
    """

    def __init__(self, topology, features):
        super().__init__(topology, features)
        self.edges = topology.edges.tolist()
        self.edge_faces = topology.edge_faces.tolist()
        self.face_edges = topology.face_edges.tolist()
        self.vertex_edges = [set(v) for v in topology.vertex_edges]

    def flat(self, name):
        return [i for row in getattr(self, name) for i in row]

    def ring(self, edge):
        ring = []
        for g in self.edge_faces[edge]:
            if g == SENTINEL:
                ring += (SENTINEL, SENTINEL)
            else:
                fe = self.face_edges[g]
                k = fe.index(edge)
                ring += (fe[k - 2], fe[k - 1])
        return tuple(ring)

    def vertex_neighbors(self, v):
        pairs = map(self.edges.__getitem__, self.vertex_edges[v])
        return {y if x == v else x for x, y in pairs}

    def collapse_illegality(self, edge):
        if not self.edge_alive[edge]:
            return "edge already removed"
        edge_faces = self.edge_faces
        u, v = self.edges[edge]
        for w in (u, v):
            for e in self.vertex_edges[w]:
                if edge_faces[e][1] == SENTINEL:
                    return "incident boundary edge"
        assert edge_faces[edge][1] != SENTINEL, "boundary edge"
        common = self.vertex_neighbors(u) & self.vertex_neighbors(v)
        if len(common) != 2:
            return "link condition violated (not two shared neighbors)"
        for w in common:
            if len(self.vertex_edges[w]) < 4:
                return "shared neighbor vertex has valence < 4"
        assert len(self.vertex_edges[u]) + len(self.vertex_edges[v]) >= 7, "merged valence < 3"
        return None

    def _collapse(self, e):
        edges, edge_faces, face_edges = self.edges, self.edge_faces, self.face_edges
        vertex_edges = self.vertex_edges
        u, v = edges[e]
        f1, f2 = edge_faces[e]
        a, b, c, d = self.ring(e)
        fb = sum(edge_faces[b]) - f1
        fd = sum(edge_faces[d]) - f2
        feats = self.features
        new_a = (feats[a] + feats[b] + feats[e]) / 3.0
        new_c = (feats[c] + feats[d] + feats[e]) / 3.0
        feats[a] = new_a
        feats[c] = new_c
        self.scores[a] = math.sqrt(new_a.dot(new_a))
        self.scores[c] = math.sqrt(new_c.dot(new_c))
        self.face_alive[f1] = False
        self.face_alive[f2] = False
        fe = face_edges[fb]
        fe[fe.index(b)] = a
        fe = face_edges[fd]
        fe[fe.index(d)] = c
        ef = edge_faces[a]
        ef[ef.index(f1)] = fb
        ef = edge_faces[c]
        ef[ef.index(f2)] = fd
        for dead in (e, b, d):
            x, y = edges[dead]
            vertex_edges[x].discard(dead)
            vertex_edges[y].discard(dead)
            self.edge_alive[dead] = False
        self.live_edge_count -= 3
        into_u = vertex_edges[u]
        for moved in vertex_edges[v]:
            x, y = edges[moved]
            other = y if x == v else x
            edges[moved] = [u, other] if u < other else [other, u]
            into_u.add(moved)
        vertex_edges[v].clear()
        return CollapseRecord(e, a, b, c, d)


def live_links(state):
    """{vertex: {neighbor: edge}} over the live edges, derived from scratch."""
    links = {}
    for e, alive in enumerate(state.edge_alive):
        if alive:
            x, y = state.edges[2 * e : 2 * e + 2]
            links.setdefault(x, {})[y] = e
            links.setdefault(y, {})[x] = e
    return links


class TestScoreQueue:
    def test_min_first_with_index_tiebreak(self):
        q = ScoreQueue([2.0, 1.0, 1.0])
        alive = np.ones(3, dtype=bool)
        assert q.pop_live(alive) == 1
        assert q.pop_live(alive) == 2
        assert q.pop_live(alive) == 0
        assert q.pop_live(alive) is None

    def test_stale_versions_discarded(self):
        q = ScoreQueue([1.0, 2.0])
        alive = np.ones(2, dtype=bool)
        q.push(0, 5.0)  # stale (1.0, 0, v0) remains in the heap
        assert q.pop_live(alive) == 1
        assert q.pop_live(alive) == 0

    def test_dead_edges_skipped(self):
        q = ScoreQueue([1.0, 2.0])
        alive = np.array([False, True])
        assert q.pop_live(alive) == 1


# few distinct values, so ties are common; inf is what a rebuild gives the dead
TIED_SCORES = st.sampled_from([0.0, 0.5, 1.0, 2.5, math.inf])


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(TIED_SCORES, min_size=1, max_size=12),
    operations=st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.integers(0, 11), TIED_SCORES, st.booleans()),
            st.tuples(st.just("kill"), st.integers(0, 11)),
            st.just(("pop",)),
            st.just(("rebuild",)),
        ),
        max_size=60,
    ),
)
def test_queue_pops_as_a_heap_of_tuples(scores, operations):
    """``ScoreQueue`` pops in the order of a plain ``heapq`` of (score, edge,
    version) tuples: ties go to the smaller edge, stale versions and dead
    edges are skipped, a push of a numpy float ranks as the Python float, and
    a rebuild ranks the live edges' last scores and the dead ones at inf."""
    n = len(scores)
    alive, last = [True] * n, list(scores)
    queue = ScoreQueue(np.array(scores))
    heap, version = [(s, e, 0) for e, s in enumerate(scores)], [0] * n
    heapq.heapify(heap)

    def reference_pop():
        while heap:
            _, edge, stamp = heapq.heappop(heap)
            if stamp == version[edge] and alive[edge]:
                return edge
        return None

    for op, *args in operations:
        if op == "push":
            edge, score, as_numpy = args[0] % n, args[1], args[2]
            last[edge] = score
            queue.push(edge, np.float64(score) if as_numpy else score)
            version[edge] += 1
            heapq.heappush(heap, (score, edge, version[edge]))
        elif op == "kill":
            alive[args[0] % n] = False
        elif op == "pop":
            assert queue.pop_live(alive) == reference_pop()
        else:
            ranks = np.where(alive, last, np.inf)
            queue = ScoreQueue(ranks)
            heap, version = [(s, e, 0) for e, s in enumerate(ranks.tolist())], [0] * n
            heapq.heapify(heap)
    while (edge := reference_pop()) is not None:
        assert queue.pop_live(alive) == edge
    assert queue.pop_live(alive) is None


@pytest.fixture(scope="module")
def oracle_meshes():
    """Closed fuzz meshes, the same with holes, and one with a tetrahedron beside it."""
    rng = np.random.default_rng(5)
    closed = fuzz_corpus(6, seed=71, edge_range=(120, 220))
    holed = [with_holes(mesh, rng, int(rng.integers(1, 4))) for mesh in closed]
    tetra = closed_tetrahedron()
    sphere = closed[0]
    n = sphere.vertex_count
    # the tetrahedron's vertex ids lie among the sphere's
    ids = np.concatenate([np.delete(np.arange(n + 4), [56, 66, 35, 2]), [56, 66, 35, 2]])
    vertices = np.zeros((n + 4, 3))
    vertices[ids[:n]] = sphere.vertices
    vertices[ids[n:]] = tetra.vertices + 10.0
    faces = np.vstack([ids[:n][sphere.faces], ids[n:][tetra.faces]])
    return closed + holed + [tetra, Mesh(vertices, faces)]


def pool_backward_oracle(grad_pooled, history):
    """The replaced ``pool_backward``: copies of both survivor rows per record."""
    g = np.asarray(grad_pooled, dtype=np.float64)
    out = np.zeros((history.initial_edge_count, g.shape[1]))
    out[history.surviving_ids()] = g
    for e, a, b, c, d in reversed(history.records):
        ga = out[a].copy()
        gc = out[c].copy()
        out[a] = ga / 3.0
        out[b] = ga / 3.0
        out[c] = gc / 3.0
        out[d] = gc / 3.0
        out[e] = (ga + gc) / 3.0
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_vertex_links_match_the_set_oracle(oracle_meshes, data):
    """Random pops: same reasons, records, rows and bytes as the set-based state."""
    mesh = data.draw(st.sampled_from(oracle_meshes))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    topology = build_edge_topology(mesh)
    E = topology.edge_count
    features = rng.normal(size=(E, data.draw(st.integers(1, 6))))
    state, oracle = PoolingState(topology, features), SetOracle(topology, features)
    records = []
    for edge in rng.integers(E, size=E).tolist():
        reason = state.collapse_illegality(edge)
        assert reason == oracle.collapse_illegality(edge)
        if reason is not None:
            continue
        records.append(state.collapse(edge))
        assert oracle._collapse(edge) == records[-1]
        assert state.features.tobytes() == oracle.features.tobytes()
        assert state.scores.tobytes() == oracle.scores.tobytes()
        for name in ("edges", "edge_faces", "face_edges"):
            assert getattr(state, name) == oracle.flat(name), name
        for name in ("edge_alive", "face_alive"):
            assert getattr(state, name) == getattr(oracle, name), name
        derived = live_links(state)
        for v, link in enumerate(state.links):
            assert link is None or link == derived.get(v, {})
    derived = live_links(state)
    assert {v: state.link(v) for v in derived} == derived
    history = PoolHistory(records, E)
    assert history.final_edge_count == state.live_edge_count
    grad = rng.normal(size=(history.final_edge_count, features.shape[1]))
    assert pool_backward(grad, history).tobytes() == pool_backward_oracle(grad, history).tobytes()


def build_divergence_fixture():
    """An instance where incremental rescoring changes the second pick.

    Edge ``e`` has the weakest features and ``a`` (in e's ring) the second
    weakest; ``b`` is strong enough that after the collapse the survivor
    absorbing {a, b, e} stops being weakest, so a far-away edge ``f`` is
    selected next instead. The batch policy, frozen on entry scores, still
    picks ``a``.
    """
    mesh = fuzz_corpus(1, seed=31, edge_range=(150, 260))[0]
    topology = build_edge_topology(mesh)
    E = topology.edge_count
    for e in range(E):
        probe = PoolingState(topology, np.ones((E, 1)), positions=mesh.vertices)
        if probe.collapse_illegality(e) is not None:
            continue
        a, b = (int(x) for x in ring(probe, e)[:2])
        c, d = (int(x) for x in ring(probe, e)[2:])
        record = probe.collapse(e)
        if probe.collapse_illegality(a) is not None:
            continue
        ring_vertices = set()
        for x in (e, a, b, c, d):
            ring_vertices.update(int(v) for v in topology.edges[x])
        for f in range(E):
            if f in (e, a, b, c, d):
                continue
            if probe.collapse_illegality(f) is not None:
                continue
            if ring_vertices & {int(v) for v in topology.edges[f]}:
                continue
            features = np.full((E, 1), 2.0)
            features[e] = 0.1
            features[a] = 0.2
            features[b] = 10.0
            features[c] = 1.0
            features[d] = 1.0
            features[f] = 0.5
            return mesh, topology, features, e, a, f
    raise AssertionError("no suitable fixture instance found")


class TestPolicyDivergence:
    def test_enhanced_skips_a_legacy_takes_it(self):
        mesh, topology, features, e, a, f = build_divergence_fixture()
        target = topology.edge_count - 6
        enhanced = pool(features, topology, target, mesh=mesh)
        legacy = pool(features, topology, target, mesh=mesh, policy=BATCH_LEGACY)
        assert enhanced.history.records[0].edge == e
        assert legacy.history.records[0].edge == e
        assert enhanced.history.records[1].edge == f
        assert legacy.history.records[1].edge == a

    def test_policies_agree_on_disjoint_rings(self):
        mesh = fuzz_corpus(1, seed=41, edge_range=(200, 320))[0]
        topology = build_edge_topology(mesh)
        E = topology.edge_count
        probe = PoolingState(topology, np.ones((E, 1)), positions=mesh.vertices)
        chosen = []
        used_vertices = set()
        for e in range(E):
            if len(chosen) == 2:
                break
            if probe.collapse_illegality(e) is not None:
                continue
            ends = {int(v) for x in [e, *ring(probe, e)] for v in topology.edges[x]}
            if used_vertices & ends:
                continue
            chosen.append(e)
            used_vertices |= ends
        assert len(chosen) == 2
        features = np.full((E, 1), 1.0)
        features[chosen[0]] = 0.1
        features[chosen[1]] = 0.2
        target = E - 6
        enhanced = pool(features, topology, target, mesh=mesh)
        legacy = pool(features, topology, target, mesh=mesh, policy=BATCH_LEGACY)
        assert enhanced.history.records == legacy.history.records
        assert np.array_equal(enhanced.features, legacy.features)
        assert np.array_equal(enhanced.topology.edges, legacy.topology.edges)
        assert np.array_equal(enhanced.topology.neighbors, legacy.topology.neighbors)

    def test_single_collapse_identical(self, icosahedron):
        topology = build_edge_topology(icosahedron)
        rng = np.random.default_rng(4)
        features = rng.normal(size=(topology.edge_count, 2))
        a = pool(features, topology, topology.edge_count - 3)
        b = pool(features, topology, topology.edge_count - 3, policy=BATCH_LEGACY)
        assert a.history.records == b.history.records
        assert np.array_equal(a.features, b.features)


class TestPool:
    def test_uniform_features_tie_break_lowest_index(self, icosahedron):
        topology = build_edge_topology(icosahedron)
        features = np.ones((topology.edge_count, 2))
        state = PoolingState(topology, features)
        expected = first_legal_edge(state)
        result = pool(features, topology, topology.edge_count - 3)
        assert result.history.records[0].edge == expected

    def test_exact_target_when_congruent_mod_three(self):
        mesh = fuzz_corpus(1, seed=3)[0]
        topology = build_edge_topology(mesh)
        features = np.random.default_rng(0).normal(size=(topology.edge_count, 2))
        target = topology.edge_count - 9
        result = pool(features, topology, target)
        assert result.topology.edge_count == target
        assert result.history.final_edge_count == target
        # non-congruent target: first count at or below it
        target2 = topology.edge_count - 7
        result2 = pool(features, topology, target2)
        assert result2.topology.edge_count == topology.edge_count - 9

    def test_unreachable_target_reports_achieved(self, tetrahedron):
        topology = build_edge_topology(tetrahedron)
        features = np.ones((6, 1))
        with pytest.raises(PoolTargetError) as err:
            pool(features, topology, 3)
        assert err.value.achieved == 6

    def test_unknown_policy_rejected(self, icosahedron):
        topology = build_edge_topology(icosahedron)
        features = np.ones((topology.edge_count, 1))
        with pytest.raises(GraphError, match="bogus"):
            pool(features, topology, topology.edge_count - 3, policy="bogus")

    def test_pooled_output_is_compact_and_valid(self):
        mesh = fuzz_corpus(1, seed=8)[0]
        topology = build_edge_topology(mesh)
        rng = np.random.default_rng(1)
        features = rng.normal(size=(topology.edge_count, 4))
        result = pool(features, topology, topology.edge_count // 2, mesh=mesh)
        out = result.topology
        assert np.array_equal(
            result.features,
            result.state.features[result.state.edge_alive],
        )
        for e in range(out.edge_count):
            for nb in out.neighbors[e]:
                assert 0 <= nb < out.edge_count
                assert e in out.neighbors[nb]
        assert validate_manifold(result.state.export_mesh()).is_clean

    @pytest.mark.parametrize("policy", POLICIES)
    def test_nan_feature_refused(self, policy):
        """A NaN score has no place in the queue's order."""
        topology = build_edge_topology(fuzz_corpus(1, seed=3)[0])
        features = np.random.default_rng(0).normal(size=(topology.edge_count, 3))
        features[7, 1] = np.nan
        with pytest.raises(NonFiniteError, match="NaN"):
            pool(features, topology, topology.edge_count - 9, policy=policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_infinite_feature_ranks_last(self, policy):
        topology = build_edge_topology(fuzz_corpus(1, seed=3)[0])
        features = np.random.default_rng(0).normal(size=(topology.edge_count, 3))
        target = topology.edge_count - 9
        first = pool(features, topology, target, policy=policy).history.records[0].edge
        features[first, 0] = np.inf
        records = pool(features, topology, target, policy=policy).history.records
        assert len(records) == 3
        assert first not in [record.edge for record in records]

    def test_does_not_mutate_inputs(self, icosahedron):
        topology = build_edge_topology(icosahedron)
        features = np.ones((topology.edge_count, 2))
        snapshot = features.copy()
        neighbors = topology.neighbors.copy()
        pool(features, topology, topology.edge_count - 3)
        assert np.array_equal(features, snapshot)
        assert np.array_equal(topology.neighbors, neighbors)


def pooling_replay_oracle(history, x):
    """Re-apply the recorded averaging to arbitrary features."""
    out = np.array(x, dtype=float)
    for e, a, b, c, d in history.records:
        new_a = (out[a] + out[b] + out[e]) / 3.0
        new_c = (out[c] + out[d] + out[e]) / 3.0
        out[a] = new_a
        out[c] = new_c
    return out[history.surviving_ids()]


class TestUnpool:
    def _pooled(self, seed=0, channels=3):
        mesh = fuzz_corpus(1, seed=13)[0]
        topology = build_edge_topology(mesh)
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(topology.edge_count, channels))
        result = pool(features, topology, topology.edge_count - 30)
        return features, result

    def test_row_count_restored(self):
        features, result = self._pooled()
        up = unpool(result.features, result.history)
        assert up.shape == features.shape

    def test_single_collapse_routing(self, icosahedron):
        topology = build_edge_topology(icosahedron)
        rng = np.random.default_rng(7)
        features = rng.normal(size=(topology.edge_count, 2))
        result = pool(features, topology, topology.edge_count - 3)
        e, a, b, c, d = result.history.records[0]
        up = unpool(result.features, result.history)
        assert np.allclose(up[b], up[a])
        assert np.allclose(up[d], up[c])
        assert np.allclose(up[e], (up[a] + up[c]) / 2.0)

    def test_untouched_edges_restored_exactly(self):
        features, result = self._pooled(seed=5)
        touched = set()
        for rec in result.history.records:
            touched.update(rec)
        up = unpool(result.features, result.history)
        untouched = [e for e in range(features.shape[0]) if e not in touched]
        assert untouched
        assert np.array_equal(up[untouched], features[untouched])

    def test_row_mismatch_rejected(self):
        features, result = self._pooled()
        from meshforms import MeshError

        with pytest.raises(MeshError):
            unpool(result.features[:-1], result.history)

    @staticmethod
    def _histories(corpus, policy, fraction):
        """(rng, journal) per corpus mesh pooled to ``fraction`` of its edges."""
        for i, mesh in enumerate(corpus):
            topology = build_edge_topology(mesh)
            rng = np.random.default_rng(i)
            features = rng.normal(size=(topology.edge_count, 3))
            target = int(fraction * topology.edge_count)
            yield rng, pool(features, topology, target, policy=policy).history

    @pytest.mark.parametrize("fraction", [0.9, 0.6])
    @pytest.mark.parametrize("policy", [ENHANCED, BATCH_LEGACY])
    def test_pool_backward_is_adjoint_of_replay(self, small_corpus, policy, fraction):
        for rng, history in self._histories(small_corpus, policy, fraction):
            x = rng.normal(size=(history.initial_edge_count, 3))
            g = rng.normal(size=(history.final_edge_count, 3))
            lhs = float(np.sum(g * pooling_replay_oracle(history, x)))
            rhs = float(np.sum(pool_backward(g, history) * x))
            assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("fraction", [0.9, 0.6])
    @pytest.mark.parametrize("policy", [ENHANCED, BATCH_LEGACY])
    def test_unpool_backward_is_adjoint(self, small_corpus, policy, fraction):
        for rng, history in self._histories(small_corpus, policy, fraction):
            x = rng.normal(size=(history.final_edge_count, 3))
            g = rng.normal(size=(history.initial_edge_count, 3))
            lhs = float(np.sum(g * unpool(x, history)))
            rhs = float(np.sum(unpool_backward(g, history) * x))
            assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("policy", [ENHANCED, BATCH_LEGACY])
    def test_surviving_ids_equal_the_per_record_loop(self, small_corpus, policy):
        for _, history in self._histories(small_corpus, policy, 0.6):
            alive = np.ones(history.initial_edge_count, dtype=bool)
            for e, _, b, _, d in history.records:
                alive[[e, b, d]] = False
            got = history.surviving_ids()
            assert got.dtype == np.flatnonzero(alive).dtype
            assert np.array_equal(got, np.flatnonzero(alive))
            assert len(got) == history.final_edge_count


def one_record_journal(removed=(0, 5, 6), survivors=(1, 2), final=7):
    """A journal of one collapse on 10 edges, with the given fields."""
    e, b, d = removed
    a, c = survivors
    record = {"collapsed_edge": e, "surviving_edges": [a, c], "removed_edges": [e, b, d],
              "source_sets": [[a, b, e], [c, d, e]]}
    journal = {"records": [record], "initial_edge_count": 10, "final_edge_count": final}
    return json.dumps(journal, sort_keys=True)


class TestHistorySerialization:
    def test_json_round_trip(self, icosahedron):
        topology = build_edge_topology(icosahedron)
        features = np.random.default_rng(0).normal(size=(topology.edge_count, 2))
        result = pool(features, topology, topology.edge_count - 6)
        again = PoolHistory.from_json(result.history.to_json())
        assert again.records == result.history.records
        assert again.initial_edge_count == result.history.initial_edge_count
        assert again.final_edge_count == result.history.final_edge_count

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x", "is not JSON"),
            (b"\xff{}", "is not JSON"),
            ("{}", "has no key 'records'"),
            ("[]", "not a JSON object"),
            ('{"records": [3], "initial_edge_count": 1, "final_edge_count": 1}', "not a JSON object"),
            ('{"records": {}, "initial_edge_count": 1, "final_edge_count": 1}', "list of records"),
            ('{"records": [], "initial_edge_count": 1.0, "final_edge_count": 1}', "an integer"),
            ('{"records": [], "initial_edge_count": 1, "final_edge_count": true}',
             "not in the form to_json writes"),
            (one_record_journal(removed=[0, 5, 99]), "outside 0..9"),
            (one_record_journal(removed=[0, -1, 5]), "outside 0..9"),
            (one_record_journal(final=9), "not in the form to_json writes"),
            (one_record_journal(removed=[0, 5, 5]), "removed twice"),
            (one_record_journal(survivors=[1, 5]), "surviving edge is already removed"),
            (one_record_journal().replace('"collapsed_edge": 0', '"collapsed_edge": 1'),
             "not in the form to_json writes"),
            (one_record_journal().replace("[[1, 5, 0]", "[[1, 0, 5]"),
             "not in the form to_json writes"),
            ('{"records": [], "initial_edge_count": -1, "final_edge_count": -1}',
             "initial_edge_count -1 is negative"),
        ],
    )
    def test_malformed_journal_rejected(self, text, message):
        with pytest.raises(DataError, match=message):
            PoolHistory.from_json(text)
        assert PoolHistory.from_json(one_record_journal()).final_edge_count == 7

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_journal_loads_or_raises_typed(self, icosahedron, data):
        topology = build_edge_topology(icosahedron)
        features = np.random.default_rng(0).normal(size=(topology.edge_count, 2))
        journal = pool(features, topology, topology.edge_count - 6).history.to_json()
        mutated = mutate_bytes(journal.encode(), data.draw, max_edits=6)
        try:
            history = PoolHistory.from_json(mutated)
        except MeshFormsError:
            return
        assert mutated in (history.to_json().encode(), history.to_json().encode() + b"\n")
        for record in history.records:
            assert all(type(i) is int for i in record)
        # a journal that loads replays without a raw error, and ends on its final edge count
        pooled = np.ones((history.final_edge_count, 2))
        restored = unpool(pooled, history)
        assert restored.shape == (history.initial_edge_count, 2) and np.all(restored == 1.0)
        assert pool_backward(pooled, history).shape == restored.shape
        assert unpool_backward(restored, history).shape == pooled.shape

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_structurally_edited_journal_resaves_or_raises_typed(self, icosahedron, data):
        """Key edits at any depth and any layout: a journal is a DataError, or it
        is exactly the bytes ``to_json`` writes, bare or with one newline."""
        topology = build_edge_topology(icosahedron)
        features = np.random.default_rng(0).normal(size=(topology.edge_count, 2))
        journal = json.loads(pool(features, topology, topology.edge_count - 6).history.to_json())
        for _ in range(data.draw(st.integers(0, 3))):
            edit_json(journal, data.draw)
        text = encode_json(journal, data.draw) + data.draw(st.sampled_from(["", "\n"]))
        try:
            history = PoolHistory.from_json(text)
        except DataError:
            return
        assert text in (history.to_json(), history.to_json() + "\n")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda j: j.replace('{"final_edge_count"', '{"extra": 1, "final_edge_count"'),
            lambda j: j.replace('{"collapsed_edge"', '{"age": 0, "collapsed_edge"'),
            lambda j: json.dumps(json.loads(j), sort_keys=True, separators=(",", ":")),
        ],
        ids=["top-level key", "record key", "compact separators"],
    )
    def test_journal_the_writer_never_writes_rejected(self, edit):
        journal = one_record_journal()
        assert PoolHistory.from_json(journal).to_json() == journal
        with pytest.raises(DataError, match="not in the form to_json writes"):
            PoolHistory.from_json(edit(journal))


# sha256 over the journal JSON, the pooled features, the compacted neighbor
# rings and the exported mesh for each (policy, target fraction), pooling six
# fuzz meshes with seeded random features. Computed with numpy 2.4 on
# x86-64/OpenBLAS; another numpy may draw different random features.
GOLDEN_POOLING = {
    (ENHANCED, 0.9): "608db098e11ac535346f7d960047fed4f2d339040941477cc9fff68aaa6bbd1c",
    (ENHANCED, 0.75): "1cf15194002e62ff9b2de8dea2ac5768dca0cd0554c58feeae7128d2382d4fc2",
    (ENHANCED, 0.6): "74d6a7f1f78218fecb7e6af068a43482532feb020a33049f44891a2f79416214",
    (BATCH_LEGACY, 0.9): "effa05fc14eb3417e69531064a11ef438954b136107f4dc4262dbf28713aa8d3",
    (BATCH_LEGACY, 0.75): "7ccf249863e2e3b9b7896482a227fe325be1a96e08bf4999e69e0fdd70b951bf",
    (BATCH_LEGACY, 0.6): "406f63dfa8eba6b0352d10789d54efdee34edec47ca4187bb2ac3ad7a8c9722a",
}


@pytest.mark.parametrize("policy, fraction", sorted(GOLDEN_POOLING))
def test_pooling_output_is_byte_stable(policy, fraction):
    h = hashlib.sha256()
    for i, mesh in enumerate(fuzz_corpus(6, seed=57)):
        topology = build_edge_topology(mesh)
        features = np.random.default_rng(i).normal(size=(topology.edge_count, 4))
        target = int(fraction * topology.edge_count)
        result = pool(features, topology, target, mesh=mesh, policy=policy)
        pooled = result.state.export_mesh()
        h.update(result.history.to_json().encode())
        for arr in (result.features, result.topology.neighbors, pooled.vertices, pooled.faces):
            h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == GOLDEN_POOLING[(policy, fraction)]


# sha256 over both stages' journal JSON, pooled features, compacted neighbor
# rings and vertex_edges, pooling primitive-zoo meshes of 250-400 edges with
# seeded 16-channel features to 160 and then 100 edges, as the classification
# model does; the second stage starts from the first stage's compacted topology.
GOLDEN_TWO_STAGE = "5dd7b0b5ae1999219d42d56258391ab0d81e84d7b846ddc0ebddacf7e668fe3d"


def test_two_stage_pooling_is_byte_stable():
    h = hashlib.sha256()
    for i, mesh in enumerate(fuzz_corpus(8, seed=67, edge_range=(250, 400))):
        topology = build_edge_topology(mesh)
        features = np.random.default_rng(100 + i).normal(size=(topology.edge_count, 16))
        for target in (160, 100):
            result = pool(features, topology, target, policy=ENHANCED)
            features, topology = result.features, result.topology
            h.update(result.history.to_json().encode())
            for arr in (features, topology.neighbors):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr(topology.vertex_edges).encode())
    assert h.hexdigest() == GOLDEN_TWO_STAGE


# Illegal pops by reason when pooling the fuzz corpus to 60% of its edges
# with seeded random features.
GOLDEN_ILLEGAL_REASONS = {
    ENHANCED: {"link condition violated (not two shared neighbors)": 26},
    BATCH_LEGACY: {"link condition violated (not two shared neighbors)": 19},
}


def hooked_counts(monkeypatch):
    """Illegal pops by reason and queue builds, counted by wrapping
    ``collapse_illegality`` and ``ScoreQueue.__init__`` as perfbench does."""
    reasons, queues = Counter(), Counter()
    check, build = PoolingState.collapse_illegality, ScoreQueue.__init__

    def counting(state, edge):
        reason = check(state, edge)
        if reason is not None:
            reasons[reason] += 1
        return reason

    def building(queue, scores):
        queues["built"] += 1
        build(queue, scores)

    monkeypatch.setattr(PoolingState, "collapse_illegality", counting)
    monkeypatch.setattr(ScoreQueue, "__init__", building)
    return reasons, queues


@pytest.mark.parametrize("policy", sorted(GOLDEN_ILLEGAL_REASONS))
def test_illegal_pop_reasons_are_stable(policy, small_corpus, monkeypatch):
    reasons, _ = hooked_counts(monkeypatch)
    for i, mesh in enumerate(small_corpus):
        topology = build_edge_topology(mesh)
        features = np.random.default_rng(i).normal(size=(topology.edge_count, 4))
        pool(features, topology, int(0.6 * topology.edge_count), policy=policy)
    assert dict(reasons) == GOLDEN_ILLEGAL_REASONS[policy]


def test_pool_stats_equal_the_hooked_counts(small_corpus, monkeypatch):
    """Per call, as deep as each mesh pools; the deepest calls rebuild the queue."""
    reasons, queues = hooked_counts(monkeypatch)
    rebuilds = 0
    for policy in (ENHANCED, BATCH_LEGACY):
        for i, mesh in enumerate(small_corpus):
            topology = build_edge_topology(mesh)
            features = np.random.default_rng(i).normal(size=(topology.edge_count, 4))
            for target in (int(0.6 * topology.edge_count), 6):
                reasons.clear()
                queues.clear()
                try:
                    result = pool(features, topology, target, policy=policy)
                except PoolTargetError:
                    continue
                stats = result.stats
                assert stats.collapses == len(result.history.records)
                assert stats.illegal_pops == dict(reasons)
                assert stats.queue_rebuilds == queues["built"] - 1
                rebuilds += stats.queue_rebuilds
    assert rebuilds > 0


@pytest.mark.parametrize("policy", [ENHANCED, BATCH_LEGACY])
def test_every_refusal_is_one_of_the_four_reasons(oracle_meshes, policy, monkeypatch):
    """Pooling the oracle meshes, holed ones and a tetrahedron among them, as
    deep as each goes: every refusal the check returns and every key of
    ``PoolStats.illegal_pops`` is one of ILLEGAL_REASONS, and every reason
    occurs. No pop returns a dead edge, so one is asked about directly."""
    returned, keys = Counter(), set()
    check = PoolingState.collapse_illegality

    def recording(state, edge):
        reason = check(state, edge)
        returned[reason] += 1
        return reason

    monkeypatch.setattr(PoolingState, "collapse_illegality", recording)
    for i, mesh in enumerate(oracle_meshes):
        topology = build_edge_topology(mesh)
        features = np.random.default_rng(i).normal(size=(topology.edge_count, 4))
        for target in (int(0.6 * topology.edge_count), 3):
            try:
                result = pool(features, topology, target, policy=policy)
            except PoolTargetError:
                continue
            keys |= result.stats.illegal_pops.keys()
            result.state.collapse_illegality(result.history.records[0].edge)
    del returned[None]
    assert len(set(ILLEGAL_REASONS)) == 4
    assert keys <= set(ILLEGAL_REASONS)
    assert set(returned) == set(ILLEGAL_REASONS)


def test_pinched_tetrahedra_are_refused_at_input(tmp_path, capsys):
    """Vertices 2 and 3 each join two tetrahedra: the scan finds both, no
    topology is built, and ``meshforms validate`` names them and exits 2."""
    mesh = pinched_tetrahedra()
    report = validate_manifold(mesh)
    assert report.pinched_vertices == [2, 3]
    lines = [f"vertex {v} is pinched: its faces form more than one fan" for v in (2, 3)]
    assert report.summary() == "\n".join(lines)
    with pytest.raises(TopologyError, match="vertex 2 is pinched"):
        build_edge_topology(mesh)
    path = tmp_path / "pinched.obj"
    path.write_bytes(write_obj(mesh))
    assert main(["validate", "--mesh", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == lines


def test_glued_chains_are_refused_at_input():
    """Three zoo meshes glued in a chain at two hubs: the scan names exactly
    the hubs, and no topology is built."""
    rng = np.random.default_rng(29)
    corpus = fuzz_corpus(12, seed=83, edge_range=(60, 150))
    for _ in range(30):
        parts = [corpus[i] for i in rng.choice(len(corpus), 3, replace=False)]
        first, middle = (m.vertex_count for m in parts[:2])
        hubs = [int(rng.integers(first)), first + int(rng.integers(middle - 1))]
        mesh = glued(parts, hubs, [int(rng.integers(m.vertex_count)) for m in parts[1:]])
        assert validate_manifold(mesh).pinched_vertices == hubs
        with pytest.raises(TopologyError, match=f"vertex {hubs[0]} is pinched"):
            build_edge_topology(mesh)


@pytest.fixture(scope="module")
def valid_meshes(oracle_meshes):
    """The oracle meshes, and small zoo, limbs and engraved-cube meshes."""
    generated = [
        s.mesh
        for generator, edge_range in [
            ("primitive-zoo", (250, 400)), ("articulated-limbs", (300, 600)),
            ("engraved-cube", (800, 1300)),
        ]
        for s in generate(DatasetSpec(generator, classes=2, per_class=2, edge_range=edge_range,
                                      seed=7))
    ]
    return oracle_meshes + generated


@pytest.mark.parametrize("policy", POLICIES)
def test_valid_meshes_stay_manifold_to_exhaustion(valid_meshes, policy, monkeypatch):
    """Every valid mesh pools in stages of a fifth of its edges until no
    collapse is legal. Every stage passes the consistency check, and every
    pop, replayed on the set oracle, gets the same reason without tripping
    its assertions of the two dropped rules."""
    pops, replayed = [], Counter()
    check = PoolingState.collapse_illegality

    def recording(state, edge):
        pops.append((edge, check(state, edge)))
        return pops[-1][1]

    def replay(topology, features):
        oracle = SetOracle(topology, features)
        for edge, reason in pops:
            assert oracle.collapse_illegality(edge) == reason
            replayed["boundary edge"] += oracle.edge_faces[edge][1] == SENTINEL
            if reason is None:
                oracle._collapse(edge)
                replayed["collapse"] += 1
        pops.clear()

    monkeypatch.setattr(PoolingState, "collapse_illegality", recording)
    for i, mesh in enumerate(valid_meshes):
        topology = build_edge_topology(mesh)
        chi = mesh.vertex_count - topology.edge_count + mesh.face_count
        features = np.random.default_rng(i).normal(size=(topology.edge_count, 4))
        while True:
            target = int(0.8 * topology.edge_count)
            try:
                result = pool(features, topology, target, mesh=mesh, policy=policy)
            except PoolTargetError as exc:
                replay(topology, features)
                if exc.achieved == topology.edge_count:
                    break
                result = pool(features, topology, exc.achieved, mesh=mesh, policy=policy)
            replay(topology, features)
            consistency_check(result.state, chi)
            features, topology, mesh = result.features, result.topology, result.state.export_mesh()
    assert replayed["boundary edge"] > 0 and replayed["collapse"] > 0
