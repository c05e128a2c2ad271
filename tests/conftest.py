"""Shared geometry fixtures and fuzz-corpus helpers."""

import collections
import hashlib
import json
import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import strategies as st

from meshforms import DatasetSpec, Mesh, Value, build_edge_topology, generate


def oriented_closed_mesh(vertices, face_sets):
    """Orient each face triple outward from the centroid (for convex shells)."""
    vertices = np.asarray(vertices, dtype=float)
    center = vertices.mean(axis=0)
    faces = []
    for i, j, k in face_sets:
        p, q, r = vertices[[i, j, k]]
        normal = np.cross(q - p, r - p)
        if normal @ (p - center) < 0:
            faces.append((i, k, j))
        else:
            faces.append((i, j, k))
    return Mesh(vertices, np.array(faces))


@pytest.fixture
def tetrahedron():
    verts = np.array(
        [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]
    )
    return oriented_closed_mesh(verts, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def flat_pair_mesh():
    """Two coplanar triangles sharing the unit edge (0)-(1), same winding."""
    verts = np.array(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.5, -1.0, 0.0)]
    )
    return Mesh(verts, np.array([(0, 1, 2), (1, 0, 3)]))


@pytest.fixture
def flat_pair():
    return flat_pair_mesh()


@pytest.fixture
def equilateral_flat_pair():
    s = np.sqrt(3.0) / 2.0
    verts = np.array(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, s, 0.0), (0.5, -s, 0.0)]
    )
    return Mesh(verts, np.array([(0, 1, 2), (1, 0, 3)]))


@pytest.fixture
def perpendicular_pair():
    verts = np.array(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.5, 0.0, -1.0)]
    )
    return Mesh(verts, np.array([(0, 1, 2), (1, 0, 3)]))


@pytest.fixture
def square_diagonal_pair():
    """Unit square split along its diagonal; both opposite angles are right."""
    verts = np.array(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)]
    )
    return Mesh(verts, np.array([(0, 1, 2), (0, 2, 3)]))


@pytest.fixture(scope="session")
def icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a, b in [(1, phi), (-1, phi), (1, -phi), (-1, -phi)]:
        verts.extend([(a, b, 0.0), (0.0, a, b), (b, 0.0, a)])
    verts = np.array(verts)
    from itertools import combinations

    face_sets = []
    for i, j, k in combinations(range(12), 3):
        p, q, r = verts[[i, j, k]]
        n = np.cross(q - p, r - p)
        d = verts @ n - p @ n
        if (d <= 1e-9).all() or (d >= -1e-9).all():
            face_sets.append((i, j, k))
    return oriented_closed_mesh(verts, face_sets)


def finite_difference(fun, x, h=1e-5):
    """Central differences of the scalar ``fun()`` over every entry of ``x``, which
    it perturbs in place and restores."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fun()
        flat[i] = orig - h
        lo = fun()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def fuzz_corpus(count, seed=0, edge_range=(150, 400)):
    """Random closed manifold meshes of mixed families."""
    per_class = -(-count // 6)
    spec = DatasetSpec(
        "primitive-zoo", classes=6, per_class=per_class, edge_range=edge_range, seed=seed
    )
    return [s.mesh for s in generate(spec)][:count]


SMALL_CORPUS_SEED = 11


@pytest.fixture(scope="session")
def small_corpus():
    return fuzz_corpus(20, seed=SMALL_CORPUS_SEED)


def random_interior_edge(topology, rng):
    interior = np.flatnonzero(topology.interior_mask)
    return int(interior[rng.integers(len(interior))])


def dataset_files_and_hash(root):
    """The files a dataset's index names, in hashing order, and their content hash.

    The hash is sha256 over the index bytes, then each row's mesh and
    edge-label bytes, cut to 16 hex digits: the ``dataset_hash`` contract.
    """
    index = pathlib.Path(root) / "index.tsv"
    files = [index]
    for row in index.read_text().splitlines()[1:]:
        parts = row.split("\t")
        files += [index.parent / rel for rel in (parts[1], parts[4]) if rel]
    h = hashlib.sha256()
    for path in files:
        h.update(path.read_bytes())
    return files, h.hexdigest()[:16]


@pytest.fixture
def read_counts(monkeypatch):
    """Counter of ``Path.read_bytes`` calls per path while the test runs."""
    counts = collections.Counter()
    read_bytes = pathlib.Path.read_bytes

    def counted(path):
        counts[path] += 1
        return read_bytes(path)

    monkeypatch.setattr(pathlib.Path, "read_bytes", counted)
    return counts


@pytest.fixture
def made_arrays(monkeypatch):
    """Weak references to the array of every graph node made with parents, in order.

    A model's forward drops each layer's input from its node, so a test sees
    the activations of a pass through this record, not through the graph.
    """
    made = []
    init = Value.__init__

    def recording_init(self, data, parents=(), backward_rule=None):
        init(self, data, parents, backward_rule)
        if parents:
            made.append(weakref.ref(self.data))

    monkeypatch.setattr(Value, "__init__", recording_init)
    return made


def with_specials(draw, x):
    """``x`` with up to three entries set to NaN, +-0 or +-inf."""
    flat = x.reshape(-1)
    for i in draw(st.lists(st.integers(0, flat.size - 1), max_size=3)):
        flat[i] = draw(st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf]))
    return x


def mutate_bytes(data, draw, max_edits=4):
    """``data`` with a few drawn byte replacements, insertions and deletions."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, max_edits))):
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if not data and kind != "insert":
            continue
        i = draw(st.integers(0, len(data) - (kind != "insert")))
        if kind == "replace":
            data[i] = draw(st.integers(0, 255))
        elif kind == "insert":
            data.insert(i, draw(st.sampled_from(b"0123456789/-+. \t\n\r\x0bvf#xe")))
        else:
            del data[i]
    return bytes(data)


# A JSON value nested a few levels deep, as a structural edit puts it in.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _slots(value):
    """(container, key) of every value nested in the decoded JSON ``value``."""
    if isinstance(value, (dict, list)):
        for key in list(value) if isinstance(value, dict) else range(len(value)):
            yield value, key
            yield from _slots(value[key])


def edit_json(value, draw):
    """Make one drawn structural edit, at any depth, to the decoded JSON object
    ``value`` in place: add a key to an object, drop a member of an object or
    an array, or swap a value for one of another type."""
    slots = list(_slots(value))
    kind = draw(st.sampled_from(["add", "drop", "retype"]))
    if kind == "add":
        objects = [value] + [c[k] for c, k in slots if isinstance(c[k], dict)]
        draw(st.sampled_from(objects))[draw(st.text(max_size=4))] = draw(JSON_VALUES)
        return
    container, key = draw(st.sampled_from(slots))
    if kind == "drop":
        del container[key]
    else:
        old = type(container[key])
        container[key] = draw(JSON_VALUES.filter(lambda v: type(v) is not old))


def encode_json(value, draw):
    """``value`` as JSON text in a drawn layout: sorted or not, compact, re-spaced or indented."""
    separators = draw(st.sampled_from([(",", ":"), (", ", ": "), (",", ": ")]))
    indent = draw(st.sampled_from([None, 1]))
    return json.dumps(value, sort_keys=draw(st.booleans()), separators=separators, indent=indent)
