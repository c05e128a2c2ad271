"""Hot numeric kernels: the per-edge convolution and the raw edge geometry.

Kernels here are the per-edge convolution (forward and backward) and the raw
edge geometry pass (lengths, dihedral angles, opposite angles, length/height
ratios). Angles use atan2 of cross/dot, which is the numerically stable
equivalent of arccos of the clamped dot product.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# convolution over the ordered 4-neighbor ring


def conv_forward(features, neighbors, weights, bias):
    """out(e) = bias + w0 f(e) + w1 |f(a)-f(c)| + w2 (f(a)+f(c))
                       + w3 |f(b)-f(d)| + w4 (f(b)+f(d))

    Sentinel (-1) neighbor slots contribute zero vectors.
    """
    E, C = features.shape
    padded = np.vstack([features, np.zeros((1, C))])
    idx = np.where(neighbors < 0, E, neighbors)
    fa = padded[idx[:, 0]]
    fb = padded[idx[:, 1]]
    fc = padded[idx[:, 2]]
    fd = padded[idx[:, 3]]
    d1 = fa - fc
    d2 = fb - fd
    out = features @ weights[0]
    out += np.abs(d1) @ weights[1]
    out += (fa + fc) @ weights[2]
    out += np.abs(d2) @ weights[3]
    out += (fb + fd) @ weights[4]
    out += bias
    return out


def conv_backward(grad_out, features, neighbors, weights):
    """Reverse-mode gradients; |x| has subgradient 0 at x = 0."""
    E, C = features.shape
    padded = np.vstack([features, np.zeros((1, C))])
    idx = np.where(neighbors < 0, E, neighbors)
    fa = padded[idx[:, 0]]
    fb = padded[idx[:, 1]]
    fc = padded[idx[:, 2]]
    fd = padded[idx[:, 3]]
    s1 = np.sign(fa - fc)
    s2 = np.sign(fb - fd)

    grad_w = np.empty_like(weights)
    grad_w[0] = features.T @ grad_out
    grad_w[1] = np.abs(fa - fc).T @ grad_out
    grad_w[2] = (fa + fc).T @ grad_out
    grad_w[3] = np.abs(fb - fd).T @ grad_out
    grad_w[4] = (fb + fd).T @ grad_out
    grad_bias = grad_out.sum(axis=0)

    t1 = grad_out @ weights[1].T
    t2 = grad_out @ weights[2].T
    t3 = grad_out @ weights[3].T
    t4 = grad_out @ weights[4].T

    grad_f = np.zeros((E + 1, C))
    np.add.at(grad_f, idx[:, 0], s1 * t1 + t2)
    np.add.at(grad_f, idx[:, 2], -s1 * t1 + t2)
    np.add.at(grad_f, idx[:, 1], s2 * t3 + t4)
    np.add.at(grad_f, idx[:, 3], -s2 * t3 + t4)
    grad_f = grad_f[:E]
    grad_f += grad_out @ weights[0].T
    return grad_f, grad_w, grad_bias


# ---------------------------------------------------------------------------
# raw edge geometry


def edge_geometry(vertices, edges, edge_faces, faces):
    """Per-edge length, dihedral angle, opposite angles, length/height ratios.

    Returns (lengths, dihedrals, opposite_angle_pairs, ratio_pairs, bad_face)
    where pairs are unsorted per incident-face slot and missing boundary slots
    are zero. ``bad_face`` is the first zero-area face index, or -1.
    """
    tri = vertices[faces]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    cross_norm = np.linalg.norm(normal, axis=1)
    bad = np.flatnonzero(cross_norm == 0.0)
    bad_face = int(bad[0]) if len(bad) else -1
    safe = np.where(cross_norm == 0.0, 1.0, cross_norm)
    unit = normal / safe[:, None]

    u = vertices[edges[:, 0]]
    v = vertices[edges[:, 1]]
    lengths = np.linalg.norm(u - v, axis=1)

    interior = edge_faces[:, 1] >= 0
    f1 = edge_faces[:, 0]
    f2 = np.where(interior, edge_faces[:, 1], f1)
    n1 = unit[f1]
    n2 = unit[f2]
    cr = np.cross(n1, n2)
    dihedral = np.arctan2(np.linalg.norm(cr, axis=1), (n1 * n2).sum(axis=1))
    dihedral = np.where(interior, dihedral, 0.0)

    face_vertex_sum = faces.sum(axis=1)
    edge_vertex_sum = edges.sum(axis=1)
    opp_angles = np.zeros((len(edges), 2))
    ratios = np.zeros((len(edges), 2))
    for slot in range(2):
        fk = edge_faces[:, slot]
        present = fk >= 0
        fk_safe = np.where(present, fk, 0)
        apex = face_vertex_sum[fk_safe] - edge_vertex_sum
        w = vertices[apex]
        wu = u - w
        wv = v - w
        cw = np.cross(wu, wv)
        ang = np.arctan2(np.linalg.norm(cw, axis=1), (wu * wv).sum(axis=1))
        opp_angles[:, slot] = np.where(present, ang, 0.0)
        ratios[:, slot] = np.where(
            present, lengths * lengths / safe[fk_safe], 0.0
        )
    return lengths, dihedral, opp_angles, ratios, bad_face
