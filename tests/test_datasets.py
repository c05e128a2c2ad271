"""Generator contracts, augmentation, noise injection, splits, manifests."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshforms import (
    DataError,
    DatasetSpec,
    MeshFormsError,
    add_vertex_noise,
    augment,
    build_edge_topology,
    dataset_hash,
    fundamental_forms,
    generate,
    load_dataset,
    normalize_unit_box,
    save_dataset,
    split,
    validate_manifold,
)
from meshforms.datasets import (
    GENERATORS,
    GLYPHS,
    _edge_table,
    _glyph_array,
    _random_rotation,
    load_dataset_with_hash,
)

from conftest import dataset_files_and_hash, mutate_bytes
from meshforms.features import XYZ, coordinate_features


class TestGenerate:
    def test_primitive_zoo_contract(self):
        spec = DatasetSpec("primitive-zoo", 4, 3, edge_range=(280, 520), seed=7)
        samples = generate(spec)
        assert len(samples) == 12
        for s in samples:
            assert validate_manifold(s.mesh).is_clean
            count = build_edge_topology(s.mesh).edge_count
            assert 280 <= count <= 520

    def test_four_by_twenty_is_eighty_manifolds(self):
        spec = DatasetSpec("primitive-zoo", 4, 20, edge_range=(250, 400), seed=42)
        samples = generate(spec)
        assert len(samples) == 80
        assert all(validate_manifold(s.mesh).is_clean for s in samples)

    def test_same_seed_bitwise_identical(self):
        a = generate(DatasetSpec("primitive-zoo", 3, 2, seed=5))
        b = generate(DatasetSpec("primitive-zoo", 3, 2, seed=5))
        for x, y in zip(a, b):
            assert np.array_equal(x.mesh.vertices, y.mesh.vertices)
            assert np.array_equal(x.mesh.faces, y.mesh.faces)

    def test_different_seeds_differ(self):
        a = generate(DatasetSpec("primitive-zoo", 1, 1, seed=1))
        b = generate(DatasetSpec("primitive-zoo", 1, 1, seed=2))
        assert not np.array_equal(a[0].mesh.vertices, b[0].mesh.vertices)

    def test_engraved_cube_contract(self):
        spec = DatasetSpec("engraved-cube", 6, 2, edge_range=(800, 1200), seed=3)
        samples = generate(spec)
        assert len(samples) == 12
        for s in samples:
            assert validate_manifold(s.mesh).is_clean
            count = build_edge_topology(s.mesh).edge_count
            assert 800 <= count <= 1200

    def test_limbs_every_edge_labeled(self):
        spec = DatasetSpec("articulated-limbs", 2, 2, edge_range=(300, 600), seed=9)
        for s in generate(spec):
            topo = build_edge_topology(s.mesh)
            assert s.edge_labels is not None
            assert len(s.edge_labels) == topo.edge_count
            assert len(np.unique(s.edge_labels)) >= 2

    def test_unreachable_edge_range(self):
        with pytest.raises(DataError):
            generate(DatasetSpec("primitive-zoo", 2, 1, edge_range=(1, 5), seed=0))

    def test_class_count_limit(self):
        for generator, limit in (("primitive-zoo", 6), ("engraved-cube", 12)):
            with pytest.raises(DataError, match=f"^{generator} supports at most {limit} classes"):
                generate(DatasetSpec(generator, 40, 1, seed=0))

    def test_unknown_generator(self):
        assert list(GENERATORS) == ["primitive-zoo", "engraved-cube", "articulated-limbs"]
        with pytest.raises(DataError, match="unknown generator 'cube-zoo'"):
            DatasetSpec("cube-zoo", 1, 1)


# (generator, classes, per_class, edge_range, seed): every generator, every
# zoo family and glyph, two edge ranges and two seeds each.
GOLDEN_SPECS = [
    (generator, classes, per_class, edge_range, seed)
    for generator, classes, per_class, ranges in (
        ("primitive-zoo", 6, 2, ((250, 400), (600, 900))),
        ("engraved-cube", 12, 1, ((800, 1200), (1300, 1800))),
        ("articulated-limbs", 3, 2, ((300, 600), (1500, 2500))),
    )
    for edge_range in ranges
    for seed in (0, 7)
]

# sha256 over each generated sample's id, then dtype, shape and bytes of its
# vertices, faces and edge labels (when it has them), for GOLDEN_SPECS in order.
GOLDEN_DATASETS = "3eb1ab6bce3b3d34c2281f86ed546b24b63078021954001a1725ec915e9e15ed"


def test_generated_datasets_are_byte_stable():
    h = hashlib.sha256()
    for generator, classes, per_class, edge_range, seed in GOLDEN_SPECS:
        for s in generate(DatasetSpec(generator, classes, per_class, edge_range, seed)):
            h.update(s.sample_id.encode())
            for arr in (s.mesh.vertices, s.mesh.faces, s.edge_labels):
                if arr is not None:
                    h.update(f"{arr.dtype.str}{arr.shape}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == GOLDEN_DATASETS


def glyph_is_safe(bitmap):
    """No 2x2 window of the zero-padded bitmap is exactly a diagonal pair."""
    padded = np.pad(bitmap, 1)
    for i in range(padded.shape[0] - 1):
        for j in range(padded.shape[1] - 1):
            w = padded[i : i + 2, j : j + 2]
            if w[0, 0] == w[1, 1] and w[0, 1] == w[1, 0] and w[0, 0] != w[0, 1]:
                return False
    return True


class TestGlyphs:
    def test_all_glyphs_manifold_safe(self):
        for key, rows in GLYPHS.items():
            assert glyph_is_safe(_glyph_array(rows)), f"glyph {key}"

    def test_safety_check_catches_diagonal(self):
        assert not glyph_is_safe(np.array([[True, False], [False, True]]))
        assert not glyph_is_safe(np.array([[False, True], [True, False]]))

    def test_unsafe_glyph_is_refused_by_generate(self, monkeypatch):
        """A diagonal pair pinches the carved surface, and generate's own
        manifold check refuses the mesh."""
        rows = ["11000", "10100", "00000", "00000", "00000"]
        assert not glyph_is_safe(_glyph_array(rows))
        monkeypatch.setitem(GLYPHS, 0, rows)
        invalid = "generator produced an invalid mesh for class 0 sample 0: .* incident faces"
        with pytest.raises(DataError, match=invalid):
            generate(DatasetSpec("engraved-cube", 1, 1, edge_range=(800, 1200), seed=3))


class TestAugment:
    def test_noop_options_identity(self, icosahedron):
        out = augment(icosahedron, random_rotation=False, vertex_jitter_sigma=0.0)
        assert np.array_equal(out.vertices, icosahedron.vertices)

    def test_rotation_preserves_ff_changes_xyz(self, icosahedron):
        topo = build_edge_topology(icosahedron)
        base_ff = fundamental_forms(topo, icosahedron).values
        base_xyz = coordinate_features(topo, icosahedron, XYZ).values
        rotated = augment(icosahedron, random_rotation=True, seed=4)
        assert np.max(np.abs(fundamental_forms(topo, rotated).values - base_ff)) < 1e-9
        assert np.max(np.abs(coordinate_features(topo, rotated, XYZ).values - base_xyz)) > 1e-3

    def test_fixed_seed_reproducible(self, icosahedron):
        a = augment(icosahedron, random_rotation=True, vertex_jitter_sigma=0.01, seed=8)
        b = augment(icosahedron, random_rotation=True, vertex_jitter_sigma=0.01, seed=8)
        assert np.array_equal(a.vertices, b.vertices)

    def test_random_rotation_is_special_orthogonal(self):
        for seed in range(5):
            rot = _random_rotation(np.random.default_rng(seed))
            assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-12
            assert np.isclose(np.linalg.det(rot), 1.0)


class TestVertexNoise:
    def test_zero_variance_identity(self, icosahedron):
        out = add_vertex_noise(icosahedron, 0.0, seed=1)
        assert np.array_equal(out.vertices, icosahedron.vertices)

    def test_sample_variance_matches_on_large_mesh(self):
        # statistical check against the generator itself: ~30k coordinates
        spec = DatasetSpec("primitive-zoo", 1, 1, edge_range=(29_000, 31_000), seed=2)
        mesh = normalize_unit_box(generate(spec)[0].mesh)
        assert mesh.vertex_count >= 9_000
        noisy = add_vertex_noise(mesh, 0.1, seed=3)
        delta = noisy.vertices - mesh.vertices
        assert abs(delta.var() - 0.1) < 0.01
        assert np.array_equal(noisy.faces, mesh.faces)

    def test_two_seeds_differ(self, icosahedron):
        a = add_vertex_noise(icosahedron, 0.05, seed=1)
        b = add_vertex_noise(icosahedron, 0.05, seed=2)
        assert not np.array_equal(a.vertices, b.vertices)

    def test_negative_variance_rejected(self, icosahedron):
        with pytest.raises(DataError):
            add_vertex_noise(icosahedron, -0.1)


class TestSplit:
    def _samples(self, per_class=20, classes=3):
        return generate(
            DatasetSpec("primitive-zoo", classes, per_class, edge_range=(150, 400), seed=1)
        )

    def test_sixteen_four(self):
        out = split(self._samples(), 16, 4, seed=0)
        for ci in range(3):
            group = [s for s in out if s.class_label == ci]
            assert sum(s.split == "train" for s in group) == 16
            assert sum(s.split == "test" for s in group) == 4

    def test_ten_ten(self):
        out = split(self._samples(), 10, 10, seed=0)
        for ci in range(3):
            group = [s for s in out if s.class_label == ci]
            assert sum(s.split == "train" for s in group) == 10
            assert sum(s.split == "test" for s in group) == 10

    def test_partition_disjoint(self):
        out = split(self._samples(per_class=6), 4, 2, seed=3)
        train = {s.sample_id for s in out if s.split == "train"}
        test = {s.sample_id for s in out if s.split == "test"}
        assert not (train & test)

    def test_insufficient_samples(self):
        with pytest.raises(DataError):
            split(self._samples(per_class=4), 4, 2, seed=0)

    @pytest.mark.parametrize("train, test", [(-1, 2), (2, -2)])
    def test_negative_count_rejected(self, train, test):
        with pytest.raises(DataError, match="must be non-negative"):
            split(self._samples(per_class=4), train, test, seed=0)

    def test_deterministic(self):
        samples = self._samples(per_class=6)
        a = split(samples, 4, 2, seed=5)
        b = split(samples, 4, 2, seed=5)
        assert [(s.sample_id, s.split) for s in a] == [(s.sample_id, s.split) for s in b]


class TestManifest:
    def test_round_trip(self, tmp_path):
        samples = split(
            generate(DatasetSpec("articulated-limbs", 2, 3, edge_range=(250, 500), seed=4)),
            2,
            1,
            seed=4,
        )
        save_dataset(tmp_path, samples)
        again = load_dataset(tmp_path)
        assert len(again) == len(samples)
        for x, y in zip(samples, again):
            assert x.sample_id == y.sample_id
            assert x.split == y.split
            assert x.class_label == y.class_label
            assert np.array_equal(x.mesh.faces, y.mesh.faces)
            assert np.allclose(x.mesh.vertices, y.mesh.vertices, rtol=1e-8)
            assert np.array_equal(x.edge_labels, y.edge_labels)
            assert np.array_equal(y.edge_pairs, build_edge_topology(y.mesh).edges)
        resplit = split(again, 2, 1, seed=4)
        assert all(s.edge_pairs is not None for s in resplit)

    def test_save_refuses_a_label_count_other_than_the_edge_count(self, tmp_path):
        """Saving writes one sidecar row per edge, so extra labels would be cut
        off silently; the sample is refused before its sidecar is written."""
        (sample,) = generate(DatasetSpec("articulated-limbs", 1, 1, (250, 500), seed=4))
        edges = build_edge_topology(sample.mesh).edge_count
        sample.edge_labels = np.concatenate([sample.edge_labels, [0] * 5])
        message = f"sample {sample.sample_id}: {edges + 5} edge labels for {edges} edges"
        with pytest.raises(DataError, match=message):
            save_dataset(tmp_path, [sample])
        assert not list(tmp_path.glob("meshes/*.edgelabels"))

    def test_hash_stable_and_sensitive(self, tmp_path):
        samples = split(
            generate(DatasetSpec("primitive-zoo", 2, 2, edge_range=(150, 300), seed=6)),
            1,
            1,
            seed=6,
        )
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        save_dataset(d1, samples)
        save_dataset(d2, samples)
        assert dataset_hash(d1) == dataset_hash(d2)
        obj = next((d2 / "meshes").glob("*.obj"))
        obj.write_bytes(obj.read_bytes() + b"# tweak\n")
        assert dataset_hash(d1) != dataset_hash(d2)

    def test_one_read_per_file_gives_the_hash(self, tmp_path, read_counts):
        samples = generate(DatasetSpec("articulated-limbs", 1, 2, (250, 500), seed=4))
        save_dataset(tmp_path, split(samples, 1, 1, seed=4))
        files, expected = dataset_files_and_hash(tmp_path)
        read_counts.clear()
        loaded, digest = load_dataset_with_hash(tmp_path)
        assert read_counts == {path: 1 for path in files}
        assert len(files) == 5 and all(s.edge_labels is not None for s in loaded)
        assert digest == expected == dataset_hash(tmp_path)

    def test_blank_index_rows_are_skipped(self, tmp_path):
        samples = generate(DatasetSpec("primitive-zoo", 2, 1, (150, 300), seed=6))
        save_dataset(tmp_path, samples)
        index = tmp_path / "index.tsv"
        header, *rows = index.read_text().splitlines()
        index.write_text("\n".join([header, "", rows[0], " \t ", *rows[1:]]) + "\n")
        assert [s.sample_id for s in load_dataset(tmp_path)] == [s.sample_id for s in samples]

    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path)

    def test_non_integer_class_label_rejected(self, tmp_path):
        save_dataset(tmp_path, generate(DatasetSpec("primitive-zoo", 1, 1, (150, 300), seed=6)))
        index = tmp_path / "index.tsv"
        header, row = index.read_text().splitlines()
        fields = row.split("\t")
        fields[2] = "cube"
        index.write_text(header + "\n" + "\t".join(fields) + "\n")
        with pytest.raises(DataError, match="index.tsv: no integer label"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("bad_row", ["0 1 left", "0 1"])
    def test_malformed_edge_label_row_rejected(self, tmp_path, bad_row):
        save_dataset(tmp_path, generate(DatasetSpec("articulated-limbs", 1, 1, (250, 500), seed=4)))
        labels = next((tmp_path / "meshes").glob("*.edgelabels"))
        rows = labels.read_text().splitlines()
        labels.write_text("\n".join([bad_row] + rows[1:]) + "\n")
        with pytest.raises(DataError, match=f"{bad_row!r} is not three int64 fields 'u v label'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["index.tsv", "meshes/*.edgelabels"])
    def test_non_utf8_file_rejected(self, tmp_path, name):
        save_dataset(tmp_path, generate(DatasetSpec("articulated-limbs", 1, 1, (250, 500), seed=4)))
        target = next(tmp_path.glob(name))
        target.write_bytes(target.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_dataset(tmp_path)

    def test_edge_label_beyond_int64_rejected(self, tmp_path):
        save_dataset(tmp_path, generate(DatasetSpec("articulated-limbs", 1, 1, (250, 500), seed=4)))
        labels = next((tmp_path / "meshes").glob("*.edgelabels"))
        rows = labels.read_text().splitlines()
        rows[3] = "0 1 99999999999999999999"
        labels.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(tmp_path)
        assert str(err.value) == (
            f"meshes/{labels.name}: '0 1 99999999999999999999' is not three int64 fields "
            "'u v label'"
        )


LABEL_TOKENS = ["0", "1", "7", "12", "-3", "+3", "1_0", "\u0663", "x", "1.5", "", "9223372036854775807",
                "9223372036854775808", "-9223372036854775809", "99999999999999999999"]


@st.composite
def edge_label_texts(draw):
    """Rows of zero to four tokens, with blank rows and odd whitespace between."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        tokens = draw(st.lists(st.sampled_from(LABEL_TOKENS), max_size=4))
        sep = draw(st.sampled_from([" ", "\t", "  ", "\xa0", "\x1f"]))
        rows.append(sep.join(tokens))
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])
    return "".join(row + draw(breaks) for row in rows)


@settings(max_examples=400, deadline=None)
@given(edge_label_texts())
def test_edge_table_reads_triples_and_names_labels_as_edge_labels(text):
    """The loader's parse is the text's fields, three to a row, as int64; when
    they are not, it is a DataError that names the first non-blank row that is
    not three int64 fields."""
    try:
        expected = np.array([int(t) for t in text.split()], dtype=np.int64).reshape(-1, 3)
    except (ValueError, OverflowError):
        expected = None
    if expected is not None:
        table = _edge_table(text, "labels")
        assert table.dtype == expected.dtype and np.array_equal(table, expected)
        return
    with pytest.raises(DataError) as got:
        _edge_table(text, "labels")
    row = next(row for row in text.splitlines() if row.strip() and not is_int64_triple(row))
    assert str(got.value) == f"labels: {row!r} is not three int64 fields 'u v label'"


def is_int64_triple(row):
    """Whether ``row``'s fields are three Python ints that fit in int64."""
    try:
        return len(row.split()) == 3 and all(-(2**63) <= int(t) < 2**63 for t in row.split())
    except ValueError:
        return False


@pytest.fixture(scope="module")
def limbs_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("limbs")
    save_dataset(root, generate(DatasetSpec("articulated-limbs", 1, 1, (250, 500), seed=4)))
    return root


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_dataset_files_load_or_raise_typed(limbs_dataset, data):
    name = data.draw(st.sampled_from(["index.tsv", "meshes/*.obj", "meshes/*.edgelabels"]))
    target = next(limbs_dataset.glob(name))
    original = target.read_bytes()
    target.write_bytes(mutate_bytes(original, data.draw, max_edits=6))
    try:
        load_dataset(limbs_dataset)
    except MeshFormsError:
        pass
    finally:
        target.write_bytes(original)
