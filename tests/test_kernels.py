"""Kernel edge cases: sentinel neighbor slots and degenerate faces."""

import numpy as np

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
