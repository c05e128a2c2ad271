"""Kernel edge cases: sentinel neighbor slots, degenerate faces, the scatter plan."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from meshforms import _kernels


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
        out = _kernels.edge_geometry(verts, edges, edge_faces, faces)
        assert out[4] == 0


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
    got = _kernels._scatter_sum(terms, idx[:, [0, 2, 1, 3]].T.ravel(), rows)
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
