"""Kernel edge cases: sentinel neighbor slots, degenerate faces, the scatter plan,
the buffered convolution against its plain algebra."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshforms import DatasetSpec, DegenerateFaceError, Mesh, _kernels, build_edge_topology, generate

from conftest import fuzz_corpus


class TestNumpyPathAlone:
    def test_sentinel_slots_read_as_zero(self):
        f = np.array([[1.0], [2.0]])
        neighbors = np.array([[1, 1, -1, -1], [0, 0, -1, -1]])
        w = np.zeros((5, 1, 1))
        w[1] = 1.0  # |a - c| with c = 0
        out = _kernels.conv_forward(f, neighbors, w, np.zeros(1))
        assert out[0, 0] == 2.0
        assert out[1, 0] == 1.0

    def test_degenerate_face_flagged(self):
        verts = np.array([(0.0, 0, 0), (1.0, 0, 0), (2.0, 0, 0)])
        edges = np.array([[0, 1], [1, 2], [0, 2]])
        edge_faces = np.array([[0, -1], [0, -1], [0, -1]])
        faces = np.array([[0, 1, 2]])
        with pytest.raises(DegenerateFaceError) as err:
            _kernels.edge_geometry(verts, edges, edge_faces, faces)
        assert err.value.face_index == 0


@st.composite
def scatter_cases(draw):
    """(rows, 4) targets in [0, rows], where rows is the sentinel, with one hot
    target drawn often enough to exceed the four of a manifold ring, and the
    four slot terms, signed zeros among them."""
    rows = draw(st.integers(1, 12))
    channels = draw(st.integers(1, 3))
    hot = draw(st.integers(0, rows))
    target = st.one_of(st.just(hot), st.integers(0, rows))
    targets = draw(st.lists(target, min_size=4 * rows, max_size=4 * rows))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    values = draw(st.lists(value, min_size=4 * rows * channels, max_size=4 * rows * channels))
    return np.array(targets).reshape(rows, 4), np.array(values).reshape(4, rows, channels)


@given(scatter_cases())
@settings(max_examples=200, deadline=None)
def test_scatter_sum_replays_add_at_bitwise(case):
    idx, slot_terms = case
    rows, channels = slot_terms.shape[1:]
    expected = np.zeros((rows + 1, channels))
    for slot, term in zip((0, 2, 1, 3), slot_terms):
        np.add.at(expected, idx[:, slot], term)
    terms = np.vstack([slot_terms.reshape(4 * rows, channels), np.zeros((1, channels))])
    got = np.zeros((rows, channels))
    _kernels._scatter_sum(terms, idx[:, [0, 2, 1, 3]].T.ravel(), got, np.empty_like(got))
    assert got.tobytes() == expected[:rows].tobytes()


@st.composite
def vector_pairs(draw):
    """Two (N, 3) float64 arrays whose rows include zero, parallel, signed-zero
    and non-finite vectors."""
    n = draw(st.integers(0, 8))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e6, 1e6),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    a = np.array(draw(st.lists(value, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    b = np.array(draw(st.lists(value, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    if n and draw(st.booleans()):
        b[0] = a[0]  # a parallel, degenerate pair
    if n and draw(st.booleans()):
        a[-1] = 0.0
    return a, b


@given(vector_pairs())
@settings(max_examples=300, deadline=None)
def test_cross_is_numpy_cross_bitwise(pair):
    a, b = pair
    with np.errstate(invalid="ignore", over="ignore"):
        assert _kernels._cross(a, b).tobytes() == np.cross(a, b).tobytes()


@st.composite
def real_rows(draw):
    """An (N, k) float64 array among whose values are signed zeros, subnormals,
    numbers whose squares overflow, infinities and NaN."""
    n, k = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e308, -1e308]),
        st.sampled_from([np.inf, -np.inf, np.nan]),
        st.floats(-1e6, 1e6),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
    return np.array(draw(st.lists(value, min_size=n * k, max_size=n * k))).reshape(n, k)


@given(real_rows())
@settings(max_examples=300, deadline=None)
def test_row_norms_are_numpy_norm_bitwise(x):
    with np.errstate(over="ignore", invalid="ignore"):
        assert _kernels.row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()


def unbuffered_conv(features, neighbors, weights, bias, grad_out):
    """The convolution written plainly: padded gathers, a fresh array for
    every temporary, and four ``np.add.at`` scatters (slots 0, 2, 1, 3)."""
    E, C = features.shape
    padded = np.vstack([features, np.zeros((1, C))])
    idx = np.where(neighbors < 0, E, neighbors)
    fa, fb, fc, fd = (padded[idx[:, k]] for k in range(4))
    d1, d2 = fa - fc, fb - fd
    out = features @ weights[0]
    out += np.abs(d1) @ weights[1]
    out += (fa + fc) @ weights[2]
    out += np.abs(d2) @ weights[3]
    out += (fb + fd) @ weights[4]
    out += bias
    grad_w = np.stack(
        [x.T @ grad_out for x in (features, np.abs(d1), fa + fc, np.abs(d2), fb + fd)]
    )
    grad_f = np.zeros((E + 1, C))
    for k, diff in enumerate((d1, d2)):
        signed = np.sign(diff) * (grad_out @ weights[2 * k + 1].T)
        summed = grad_out @ weights[2 * k + 2].T
        np.add.at(grad_f, idx[:, k], signed + summed)
        np.add.at(grad_f, idx[:, k + 2], summed - signed)
    grad_f = grad_f[:E]
    grad_f += grad_out @ weights[0].T
    return out, grad_f, grad_w, grad_out.sum(axis=0)


@st.composite
def conv_cases(draw):
    """Rings with sentinels and repeated neighbours; features with ties and zeros."""
    rows = draw(st.integers(1, 40))
    c_in, c_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    neighbors = rng.integers(-1, rows, size=(rows, 4))
    if draw(st.booleans()):
        features = rng.integers(-1, 2, size=(rows, c_in)).astype(np.float64)
    else:
        features = rng.normal(size=(rows, c_in))
    weights = rng.normal(size=(5, c_in, c_out))
    return features, neighbors, weights, rng.normal(size=c_out), rng.normal(size=(rows, c_out))


@given(conv_cases())
@settings(max_examples=200, deadline=None)
def test_conv_kernels_match_the_unbuffered_algebra_bitwise(case):
    features, neighbors, weights, bias, grad_out = case
    got = (
        _kernels.conv_forward(features, neighbors, weights, bias),
        *_kernels.conv_backward(grad_out, features, neighbors, weights),
    )
    expected = unbuffered_conv(features, neighbors, weights, bias, grad_out)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
    # without the input gradient: none returned, the parameter gradients unchanged
    grad_f, *params = _kernels.conv_backward(grad_out, features, neighbors, weights, False)
    assert grad_f is None
    assert [a.tobytes() for a in params] == [a.tobytes() for a in expected[2:]]


def open_meshes():
    """Closed corpus meshes with a few faces cut away: rings with sentinel slots."""
    cut = [0, 1, 7, 20]
    return [Mesh(m.vertices, np.delete(m.faces, cut, axis=0)) for m in fuzz_corpus(4, seed=3)]


@pytest.mark.parametrize("mesh", open_meshes())
def test_conv_on_open_meshes_matches_the_add_at_algebra(mesh):
    neighbors = build_edge_topology(mesh).neighbors
    assert (neighbors < 0).any()
    rng = np.random.default_rng(len(neighbors))
    rows = len(neighbors)
    for c_in, c_out in ((3, 4), (16, 8)):
        weights = rng.normal(size=(5, c_in, c_out))
        bias, grad_out = rng.normal(size=c_out), rng.normal(size=(rows, c_out))
        for features in (
            rng.normal(size=(rows, c_in)),
            rng.integers(-1, 2, size=(rows, c_in)).astype(np.float64),
        ):
            got = (
                _kernels.conv_forward(features, neighbors, weights, bias),
                *_kernels.conv_backward(grad_out, features, neighbors, weights),
            )
            expected = unbuffered_conv(features, neighbors, weights, bias, grad_out)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def test_conv_backward_transient_peak_is_about_five_arrays():
    """At 2000+ edges and 128 -> 64 channels, conv_backward allocates at most
    5.5 arrays of E x C_in floats, outputs included (the gathers, the pair's
    terms and grad_f; the four-slot stack took about 8)."""
    mesh = generate(DatasetSpec("articulated-limbs", 1, 1, edge_range=(2000, 2200), seed=5))[0].mesh
    neighbors = build_edge_topology(mesh).neighbors
    rows, c_in, c_out = len(neighbors), 128, 64
    rng = np.random.default_rng(0)
    features, grad_out = rng.normal(size=(rows, c_in)), rng.normal(size=(rows, c_out))
    weights = rng.normal(size=(5, c_in, c_out))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = _kernels.conv_backward(grad_out, features, neighbors, weights)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert grads[0].shape == (rows, c_in)
    assert peak <= 5.5 * rows * c_in * 8


def test_ring_index_out_of_range_rejected():
    features = np.ones((3, 2))
    neighbors = np.array([[1, 2, -1, -1], [0, 3, -1, -1], [0, 1, -1, -1]])
    with pytest.raises(IndexError, match="ring index 3"):
        _kernels.conv_forward(features, neighbors, np.ones((5, 2, 2)), np.zeros(2))
    with pytest.raises(IndexError, match="ring index 3"):
        _kernels.conv_backward(np.ones((3, 2)), features, neighbors, np.ones((5, 2, 2)))
