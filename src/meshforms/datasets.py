"""Desk-scale synthetic datasets: generation, augmentation, noise, splits.

Three generator families:

* ``primitive-zoo``: closed solids of distinguishable families (sphere, box,
  torus, cone, cylinder, capsule) with randomized tessellation density and
  mild vertex jitter. Classification labels are the family index.
* ``engraved-cube``: a voxelized cube with a class-specific blocky glyph
  carved one layer deep into a randomly chosen face.
* ``articulated-limbs``: a capped tube swept along a randomly bent skeleton;
  every edge carries the index of the skeleton segment it sits on, giving a
  per-edge segmentation target.

Every generated mesh is a consistently oriented closed 2-manifold within the
requested edge-count range, and generation is bitwise deterministic in the
dataset seed.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import row_norms
from .errors import DataError
from .mesh import Mesh, RigidMotion, apply_motion, parse_obj, save_obj
from .topology import build_edge_topology, validate_manifold

PRIMITIVE_ZOO = "primitive-zoo"
ENGRAVED_CUBE = "engraved-cube"
ARTICULATED_LIMBS = "articulated-limbs"

TRAIN = "train"
TEST = "test"


@dataclass
class LabeledMesh:
    mesh: Mesh
    class_label: int = None
    edge_labels: np.ndarray = None  # aligned with build_edge_topology order
    split: str = ""
    sample_id: str = ""
    edge_pairs: np.ndarray = None  # a loaded sidecar's u v columns; see check_edge_labels

    def __post_init__(self):
        if self.edge_labels is not None:
            self.edge_labels = np.ascontiguousarray(self.edge_labels, dtype=np.int64)


def check_edge_labels(sample, edges):
    """DataError unless ``sample`` has one edge label per row of ``edges``, its
    mesh's canonical edges, and its sidecar, if it was loaded, listed them in order."""
    labels, pairs = sample.edge_labels, sample.edge_pairs
    if len(labels) != len(edges):
        raise DataError(f"sample {sample.sample_id}: {len(labels)} edge labels for {len(edges)} edges")
    if pairs is not None and not np.array_equal(pairs, edges):
        k = int(np.argmax((pairs != edges).any(axis=1)))
        raise DataError(
            f"sample {sample.sample_id}: edge-label row {k + 1} is edge {pairs[k, 0]} "
            f"{pairs[k, 1]}, not {edges[k, 0]} {edges[k, 1]}"
        )


@dataclass(frozen=True)
class DatasetSpec:
    generator: str
    classes: int
    per_class: int
    edge_range: tuple = (400, 700)
    seed: int = 0

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise DataError(f"unknown generator {self.generator!r}")
        if self.classes < 1 or self.per_class < 1:
            raise DataError("classes and per_class must be positive")
        lo, hi = self.edge_range
        if not (0 < lo <= hi):
            raise DataError(f"bad edge range {self.edge_range}")


def _rng_for(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _random_rotation(rng):
    """Haar-uniform rotation from a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---------------------------------------------------------------------------
# closed primitive constructions


def _tube_faces(rings, segments):
    """Faces of a capped tube whose vertex 0 and last vertex are the poles.

    Between them lie ``rings`` rings of ``segments`` vertices: a bottom fan,
    two triangles per quad between consecutive rings, and a top fan.
    """

    def ring_vertex(i, j):
        return 1 + i * segments + (j % segments)

    top = 1 + rings * segments
    faces = [(0, ring_vertex(0, j + 1), ring_vertex(0, j)) for j in range(segments)]
    for i in range(rings - 1):
        for j in range(segments):
            a, b = ring_vertex(i, j), ring_vertex(i, j + 1)
            c, d = ring_vertex(i + 1, j + 1), ring_vertex(i + 1, j)
            faces += [(a, b, c), (a, c, d)]
    faces += [(top, ring_vertex(rings - 1, j), ring_vertex(rings - 1, j + 1)) for j in range(segments)]
    return np.array(faces)


def _revolve(radii, heights, bottom, top, segments):
    """Closed surface of revolution: a ring of ``segments`` vertices per
    interior (radius, height), between poles at heights ``bottom`` and ``top``."""
    theta = 2.0 * np.pi * np.arange(segments) / segments
    verts = [np.array([0.0, 0.0, bottom])]
    for r, z in zip(radii, heights):
        verts.extend(np.column_stack([r * np.cos(theta), r * np.sin(theta), np.full(segments, z)]))
    verts.append(np.array([0.0, 0.0, top]))
    return Mesh(np.array(verts), _tube_faces(len(radii), segments))


def _sphere(segments, rings, radius=0.5):
    lat = np.pi * np.arange(1, rings + 1) / (rings + 1)
    return _revolve(radius * np.sin(lat), -radius * np.cos(lat), -radius, radius, segments)


def _cone(segments, rings, radius=0.45, height=1.0):
    t = np.arange(1, rings + 1) / (rings + 1)
    return _revolve(radius * (1.0 - t), height * t, 0.0, height, segments)


def _cylinder(segments, rings, radius=0.35, height=1.0):
    t = np.arange(1, rings + 1) / (rings + 1)
    return _revolve(np.full(rings, radius), height * t, 0.0, height, segments)


def _capsule(segments, rings, radius=0.3, height=1.0):
    t = np.arange(1, rings + 1) / (rings + 1)
    cap = 0.35
    profile = np.where(
        t < cap,
        radius * np.sin(np.pi / 2 * t / cap),
        np.where(t > 1 - cap, radius * np.sin(np.pi / 2 * (1 - t) / cap), radius),
    )
    return _revolve(profile, height * t, 0.0, height, segments)


def _torus(segments_major, segments_minor, major=0.35, minor=0.15):
    faces = []
    verts = np.empty((segments_major * segments_minor, 3))
    for i in range(segments_major):
        phi = 2 * np.pi * i / segments_major
        for j in range(segments_minor):
            psi = 2 * np.pi * j / segments_minor
            r = major + minor * np.cos(psi)
            verts[i * segments_minor + j] = (
                r * np.cos(phi),
                r * np.sin(phi),
                minor * np.sin(psi),
            )

    def vid(i, j):
        return (i % segments_major) * segments_minor + (j % segments_minor)

    for i in range(segments_major):
        for j in range(segments_minor):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            faces.append((a, b, c))
            faces.append((a, c, d))
    return Mesh(verts, np.array(faces))


def _box(resolution, side=1.0):
    """Cube with each face split into resolution^2 quads (two triangles each)."""
    r = resolution
    ids = {}
    verts = []

    def vid(i, j, k):
        key = (i, j, k)
        if key not in ids:
            ids[key] = len(verts)
            verts.append(
                (side * (i / r - 0.5), side * (j / r - 0.5), side * (k / r - 0.5))
            )
        return ids[key]

    faces = []
    # (fixed axis, fixed value, u axis, v axis, flip orientation)
    sides = [
        (2, r, 0, 1, False),  # +z
        (2, 0, 0, 1, True),  # -z
        (0, r, 1, 2, False),  # +x
        (0, 0, 1, 2, True),  # -x
        (1, r, 2, 0, False),  # +y
        (1, 0, 2, 0, True),  # -y
    ]
    for axis, value, ua, va, flip in sides:
        for u in range(r):
            for v in range(r):
                corners = []
                for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                    coord = [0, 0, 0]
                    coord[axis] = value
                    coord[ua] = u + du
                    coord[va] = v + dv
                    corners.append(vid(*coord))
                a, b, c, d = corners
                if flip:
                    faces.append((a, d, c))
                    faces.append((a, c, b))
                else:
                    faces.append((a, b, c))
                    faces.append((a, c, d))
    return Mesh(np.array(verts, dtype=float), np.array(faces))


def _jitter(mesh, rng, fraction):
    if fraction <= 0.0:
        return mesh
    topo = build_edge_topology(mesh)
    lengths = row_norms(mesh.vertices[topo.edges[:, 0]] - mesh.vertices[topo.edges[:, 1]])
    sigma = fraction * lengths.mean()
    return mesh.with_vertices(
        mesh.vertices + rng.normal(0.0, sigma, size=mesh.vertices.shape)
    )


# family -> builder of its mesh from the two tessellation parameters
_ZOO_BUILDERS = {
    "sphere": _sphere,
    "box": lambda p, q: _box(p),
    "torus": _torus,
    "cone": _cone,
    "cylinder": _cylinder,
    "capsule": _capsule,
}
_ZOO_FAMILIES = tuple(_ZOO_BUILDERS)


def _tessellation_options(edge_range, family):
    """(family, p, q) parameter choices whose edge count lands in range.

    Revolve solids with ``n`` segments and ``r`` interior rings have exactly
    ``3 n r`` edges; an ``n x m`` torus grid has ``3 n m``; a cube with
    ``r``-fold subdivided faces has ``18 r^2``.
    """
    lo, hi = edge_range
    options = []
    if family == "box":
        r = 2
        while 18 * r * r <= hi:
            if 18 * r * r >= lo:
                options.append(("box", r, 0))
            r += 1
    elif family == "torus":
        n = 6
        while 3 * n * max(6, n // 3) <= hi and len(options) < 400:
            for m in range(max(6, -(-lo // (3 * n))), hi // (3 * n) + 1):
                if lo <= 3 * n * m <= hi and 1 / 3 <= n / m <= 3.0:
                    options.append(("torus", n, m))
            n += 1
    else:
        n = 8
        while 3 * n * max(4, n // 3) <= hi and len(options) < 400:
            for r in range(max(4, n // 3, -(-lo // (3 * n))), hi // (3 * n) + 1):
                if lo <= 3 * n * r <= hi:
                    options.append((family, n, r))
            n += 1
    return options


def _make_zoo_sample(class_index, rng, edge_range):
    family = _ZOO_FAMILIES[class_index]
    options = _tessellation_options(edge_range, family)
    if not options:
        raise DataError(
            f"edge range {edge_range} unreachable for family {family!r}"
        )
    _, p, q = options[rng.integers(len(options))]
    mesh = _ZOO_BUILDERS[family](p, q)
    return _jitter(mesh, rng, float(rng.uniform(0.0, 0.08))), None


# ---------------------------------------------------------------------------
# engraved cubes

# 5x5 carve stencils; none contains a 2x2 block with only a diagonal pair set,
# which would pinch the extracted voxel surface into a non-manifold edge
# (generate refuses such a mesh).
GLYPHS = {
    0: ["00100", "00100", "00100", "00100", "00100"],  # I
    1: ["10001", "10001", "11111", "10001", "10001"],  # H
    2: ["11111", "00100", "00100", "00100", "00100"],  # T
    3: ["10000", "10000", "10000", "10000", "11111"],  # L
    4: ["10001", "10001", "10001", "10001", "11111"],  # U
    5: ["11111", "10001", "10001", "10001", "11111"],  # O
    6: ["00100", "00100", "11111", "00100", "00100"],  # +
    7: ["00000", "01110", "01110", "01110", "00000"],  # square
    8: ["00000", "00000", "11111", "00000", "00000"],  # bar
    9: ["11111", "10000", "11100", "10000", "10000"],  # F
    10: ["11111", "10000", "10000", "10000", "11111"],  # C
    11: ["11111", "10000", "11111", "10000", "11111"],  # E
}


def _glyph_array(rows):
    return np.array([[ch == "1" for ch in row] for row in rows], dtype=bool)


_QUAD_CORNERS = {
    # outward direction -> lattice corner offsets in CCW order seen from outside
    (1, 0, 0): ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),
    (-1, 0, 0): ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)),
    (0, 1, 0): ((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)),
    (0, -1, 0): ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),
    (0, 0, 1): ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),
    (0, 0, -1): ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)),
}


def _voxel_surface(solid):
    """Boundary triangles of a voxel solid, oriented outward."""
    nx, ny, nz = solid.shape
    ids = {}
    verts = []

    def vid(p):
        if p not in ids:
            ids[p] = len(verts)
            verts.append(p)
        return ids[p]

    faces = []
    filled = np.argwhere(solid)
    for x, y, z in filled:
        for direction, corners in _QUAD_CORNERS.items():
            mx, my, mz = x + direction[0], y + direction[1], z + direction[2]
            if 0 <= mx < nx and 0 <= my < ny and 0 <= mz < nz and solid[mx, my, mz]:
                continue
            quad = [vid((x + c[0], y + c[1], z + c[2])) for c in corners]
            faces.append((quad[0], quad[1], quad[2]))
            faces.append((quad[0], quad[2], quad[3]))
    scale = 1.0 / max(solid.shape)
    vertices = np.array(verts, dtype=float) * scale
    vertices -= vertices.mean(axis=0)
    return Mesh(vertices, np.array(faces))


def _glyph_wall_edges(bitmap):
    """Edges added by a 1-deep carve: 3 per exposed unit side of the stencil."""
    padded = np.pad(bitmap, 1)
    sides = 0
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        shifted = np.roll(np.roll(padded, dx, axis=0), dy, axis=1)
        sides += int((padded & ~shifted).sum())
    return 3 * sides


def _make_engraved_cube(class_index, rng, edge_range):
    bitmap = _glyph_array(GLYPHS[class_index])
    lo, hi = edge_range
    extra = _glyph_wall_edges(bitmap)
    size = None
    for n in range(7, 24):
        count = 18 * n * n + extra
        if count < lo:
            continue
        if count > hi:
            break
        size = n
    if size is None:
        raise DataError(f"edge range {edge_range} unreachable for engraved cubes")
    solid = np.ones((size, size, size), dtype=bool)
    gh, gw = bitmap.shape
    ox = int(rng.integers(1, size - gh))
    oy = int(rng.integers(1, size - gw))
    face = int(rng.integers(6))
    carve = np.zeros((size, size), dtype=bool)
    carve[ox : ox + gh, oy : oy + gw] = bitmap
    # faces 0-5: the far then the near side of axis 2, then 1, then 0
    np.moveaxis(solid, 2 - face // 2, 0)[0 if face % 2 else -1][carve] = False
    return _voxel_surface(solid), None


# ---------------------------------------------------------------------------
# articulated limbs (tube along a bent skeleton, per-edge part labels)


def _make_limbs(class_index, rng, edge_range):
    parts = 2 + class_index
    lo, hi = edge_range
    options = []
    for n in range(8, 26):
        for r in range(max(4, 2 * parts), 80):
            if lo <= 3 * n * (r + 1) <= hi:
                options.append((n, r))
    if not options:
        raise DataError(f"edge range {edge_range} unreachable for limb tubes")
    segments, rings = options[rng.integers(len(options))]

    # skeleton: unit-length parts with random bends
    points = [np.zeros(3)]
    direction = np.array([0.0, 0.0, 1.0])
    part_length = 1.0
    for k in range(parts):
        if k > 0:
            bend = rng.uniform(0.4, 1.1)
            azimuth = rng.uniform(0, 2 * np.pi)
            axis = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
            axis -= axis.dot(direction) * direction
            axis /= np.linalg.norm(axis)
            direction = (
                np.cos(bend) * direction + np.sin(bend) * np.cross(axis, direction)
            )
            direction /= np.linalg.norm(direction)
        points.append(points[-1] + part_length * direction)
    points = np.array(points)

    total = parts * part_length
    t = np.arange(1, rings + 1) / (rings + 1)  # arclength fractions of rings
    radius = 0.16 * part_length

    centers = np.empty((rings, 3))
    tangents = np.empty((rings, 3))
    for i, ti in enumerate(t):
        s = ti * total
        k = min(int(s // part_length), parts - 1)
        local = s - k * part_length
        seg = points[k + 1] - points[k]
        tangents[i] = seg / np.linalg.norm(seg)
        centers[i] = points[k] + local * tangents[i]

    # parallel-transported frames to avoid tube twist
    verts = [points[0]]
    e1 = np.array([1.0, 0.0, 0.0])
    e1 -= e1.dot(tangents[0]) * tangents[0]
    e1 /= np.linalg.norm(e1)
    prev_t = tangents[0]
    theta = 2 * np.pi * np.arange(segments) / segments
    for i in range(rings):
        tcur = tangents[i]
        cross = np.cross(prev_t, tcur)
        sin_a = np.linalg.norm(cross)
        cos_a = float(prev_t.dot(tcur))
        if sin_a > 1e-12:
            axis = cross / sin_a
            e1 = (
                e1 * cos_a
                + np.cross(axis, e1) * sin_a
                + axis * axis.dot(e1) * (1 - cos_a)
            )
        prev_t = tcur
        e1 -= e1.dot(tcur) * tcur
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(tcur, e1)
        ring = (
            centers[i]
            + radius * np.outer(np.cos(theta), e1)
            + radius * np.outer(np.sin(theta), e2)
        )
        verts.extend(ring)
    verts.append(points[-1])
    mesh = Mesh(np.array(verts), _tube_faces(rings, segments))

    # per-vertex arclength fraction -> per-edge part labels
    vertex_t = np.concatenate([[0.0], np.repeat(t, segments), [1.0]])
    topo = build_edge_topology(mesh)
    edge_t = (vertex_t[topo.edges[:, 0]] + vertex_t[topo.edges[:, 1]]) / 2.0
    labels = np.minimum((edge_t * parts).astype(np.int64), parts - 1)
    return mesh, labels


# generator -> (builder of (mesh, edge labels or None) from class index, rng and
# edge range; most classes it supports, or None for no limit)
GENERATORS = {
    PRIMITIVE_ZOO: (_make_zoo_sample, len(_ZOO_FAMILIES)),
    ENGRAVED_CUBE: (_make_engraved_cube, len(GLYPHS)),
    ARTICULATED_LIMBS: (_make_limbs, None),
}


# ---------------------------------------------------------------------------
# public operations


def generate(spec: DatasetSpec):
    """All samples for a dataset spec, deterministic in the seed."""
    build, limit = GENERATORS[spec.generator]
    if limit is not None and spec.classes > limit:
        raise DataError(f"{spec.generator} supports at most {limit} classes, got {spec.classes}")
    samples = []
    for ci in range(spec.classes):
        for si in range(spec.per_class):
            mesh, edge_labels = build(ci, _rng_for(spec.seed, ci, si), spec.edge_range)
            report = validate_manifold(mesh)
            if not report.is_clean:
                raise DataError(
                    f"generator produced an invalid mesh for class {ci} "
                    f"sample {si}: {report.summary()}"
                )
            samples.append(
                LabeledMesh(
                    mesh,
                    class_label=ci,
                    edge_labels=edge_labels,
                    sample_id=f"c{ci:02d}_s{si:03d}",
                )
            )
    return samples


def augment(mesh: Mesh, random_rotation=False, vertex_jitter_sigma=0.0, seed=0):
    """Optional Haar-uniform rotation followed by Gaussian vertex jitter."""
    rng = _rng_for(seed)
    out = mesh
    if random_rotation:
        out = apply_motion(out, RigidMotion(_random_rotation(rng)))
    if vertex_jitter_sigma > 0.0:
        out = out.with_vertices(
            out.vertices + rng.normal(0.0, vertex_jitter_sigma, out.vertices.shape)
        )
    return out


def add_vertex_noise(mesh: Mesh, variance, seed=0):
    """i.i.d. Gaussian perturbation of every coordinate; topology unchanged.

    Meant to run on unit-box-normalized meshes so the variance is comparable
    across samples.
    """
    if variance < 0.0:
        raise DataError(f"noise variance must be non-negative, got {variance}")
    if variance == 0.0:
        return mesh
    rng = _rng_for(seed)
    noise = rng.normal(0.0, np.sqrt(variance), mesh.vertices.shape)
    return mesh.with_vertices(mesh.vertices + noise)


def split(samples, per_class_train, per_class_test, seed=0):
    """Stratified deterministic train/test assignment; returns new list."""
    if per_class_train < 0 or per_class_test < 0:
        raise DataError(
            f"per-class train and test counts must be non-negative, "
            f"got {per_class_train} and {per_class_test}"
        )
    by_class = {}
    for s in samples:
        by_class.setdefault(s.class_label, []).append(s)
    out = []
    for ci in sorted(by_class):
        group = by_class[ci]
        if len(group) < per_class_train + per_class_test:
            raise DataError(
                f"class {ci} has {len(group)} samples, need "
                f"{per_class_train + per_class_test}"
            )
        order = _rng_for(seed, 997, ci).permutation(len(group))
        for rank, gi in enumerate(order):
            s = group[gi]
            if rank < per_class_train:
                tag = TRAIN
            elif rank < per_class_train + per_class_test:
                tag = TEST
            else:
                continue
            out.append(replace(s, split=tag))
    out.sort(key=lambda s: s.sample_id)
    return out


# ---------------------------------------------------------------------------
# manifest I/O: a directory of OBJ files plus one index file

_INDEX_NAME = "index.tsv"


def save_dataset(directory, samples):
    root = pathlib.Path(directory)
    mesh_dir = root / "meshes"
    mesh_dir.mkdir(parents=True, exist_ok=True)
    lines = ["sample_id\tpath\tclass_label\tsplit\tedge_labels_path"]
    for s in samples:
        rel = f"meshes/{s.sample_id}.obj"
        save_obj(root / rel, s.mesh)
        label_rel = ""
        if s.edge_labels is not None:
            label_rel = f"meshes/{s.sample_id}.edgelabels"
            topo = build_edge_topology(s.mesh)
            check_edge_labels(s, topo.edges)
            rows = [
                "%d %d %d" % (u, v, lab)
                for (u, v), lab in zip(topo.edges, s.edge_labels)
            ]
            (root / label_rel).write_text("\n".join(rows) + "\n")
        cls = "" if s.class_label is None else str(s.class_label)
        lines.append(f"{s.sample_id}\t{rel}\t{cls}\t{s.split}\t{label_rel}")
    (root / _INDEX_NAME).write_text("\n".join(lines) + "\n")


def read_text(path):
    """The UTF-8 text of a file, or DataError when its bytes do not decode."""
    return _decode(pathlib.Path(path).read_bytes(), path)


def _decode(data, path):
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text (byte {err.start})") from None


def _label(row, fields, column, source):
    """``int(fields[column])`` of a row split into ``fields``, or DataError."""
    try:
        return int(fields[column])
    except (ValueError, IndexError):
        raise DataError(f"{source}: no integer label in column {column + 1} of {row!r}") from None


def _edge_table(text, source):
    """The ``u v label`` triples of an edge-label file's fields, read in one
    numpy call, as an (N, 3) int64 array; ``check_edge_labels`` compares each
    label's two vertex ids with the mesh's edges. On failure, the error names
    the first non-blank row that is not three int64 fields. One exists: every
    line boundary is whitespace to ``str.split``, so the rows' fields are the
    text's."""
    try:
        return np.array(text.split(), dtype=np.int64).reshape(-1, 3)
    except (ValueError, OverflowError):
        for row in text.splitlines():
            try:
                if len(np.array(row.split(), dtype=np.int64)) not in (0, 3):
                    break
            except (ValueError, OverflowError):
                break
    raise DataError(f"{source}: {row!r} is not three int64 fields 'u v label'")


def in_test_split(split_tag):
    """Whether evaluators read a mesh so tagged: a test mesh, or one no split claims."""
    return split_tag == TEST or not split_tag


def load_dataset(directory, keep=None):
    """The samples that ``directory``'s index.tsv lists; with ``keep``, only the
    rows whose split tag ``keep`` accepts, and no other row's files are read."""
    return load_dataset_with_hash(directory, keep)[0]


def load_dataset_with_hash(directory, keep=None):
    """``(samples, hash)`` from one read of each file a kept row names (see
    :func:`load_dataset`); with every row kept, the hash is :func:`dataset_hash`."""
    root = pathlib.Path(directory)
    index = root / _INDEX_NAME
    if not index.exists():
        raise DataError(f"no {_INDEX_NAME} in {root}")
    h = hashlib.sha256()

    def read(path):
        try:
            data = path.read_bytes()
        except (OSError, ValueError) as err:  # missing, a directory, a NUL in the name
            raise DataError(f"cannot read {path}: {getattr(err, 'strerror', None) or err}") from None
        h.update(data)
        return data

    samples = []
    rows = _decode(read(index), index).splitlines()
    for line in rows[1:]:
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise DataError(f"malformed index row: {line!r}")
        sample_id, rel, cls, split_tag, label_rel = parts
        if keep is not None and not keep(split_tag):
            continue
        mesh = parse_obj(read(root / rel))
        edge_labels = edge_pairs = None
        if label_rel:
            label_path = root / label_rel
            table = _edge_table(_decode(read(label_path), label_path), label_rel)
            edge_labels, edge_pairs = table[:, 2], table[:, :2]
        samples.append(
            LabeledMesh(
                mesh,
                class_label=_label(line, parts, 2, _INDEX_NAME) if cls else None,
                edge_labels=edge_labels,
                split=split_tag,
                sample_id=sample_id,
                edge_pairs=edge_pairs,
            )
        )
    return samples, h.hexdigest()[:16]


def dataset_hash(directory) -> str:
    """Content hash over the index, then each row's mesh and edge-label files."""
    return load_dataset_with_hash(directory)[1]
