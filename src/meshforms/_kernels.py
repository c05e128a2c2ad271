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
    """Reverse-mode gradients; |x| has subgradient 0 at x = 0.

    grad_f is a gather, not a scatter, and is bit for bit what four
    ``np.add.at`` calls (slots 0, 2, 1, 3) would give. The four slot terms are
    stacked in that call order over one zero row, and ``_scatter_sum`` lists,
    for each edge, the rows that target it in the order ``add.at`` would apply
    them. Each edge's sum then sees the same addends in the same order,
    starting from +0.0. Such a sum is never -0.0, so adding the zero row as
    padding leaves every bit as it is.
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

    grad_w = np.empty_like(weights)
    grad_w[0] = features.T @ grad_out
    grad_w[1] = np.abs(d1).T @ grad_out
    grad_w[2] = (fa + fc).T @ grad_out
    grad_w[3] = np.abs(d2).T @ grad_out
    grad_w[4] = (fb + fd).T @ grad_out
    grad_bias = grad_out.sum(axis=0)
    del fa, fb, fc, fd  # freed before the 4·E·C terms exist, to bound peak memory

    # Slot terms in add.at's call order: a, c (from d1), then b, d (from d2).
    terms = np.empty((4 * E + 1, C))
    terms[4 * E] = 0.0
    for k, diff in enumerate((d1, d2)):
        signed = np.sign(diff)
        signed *= grad_out @ weights[2 * k + 1].T
        summed = grad_out @ weights[2 * k + 2].T
        np.add(signed, summed, out=terms[2 * k * E : (2 * k + 1) * E])
        np.subtract(summed, signed, out=terms[(2 * k + 1) * E : (2 * k + 2) * E])

    grad_f = _scatter_sum(terms, idx[:, [0, 2, 1, 3]].T.ravel(), E)
    grad_f += grad_out @ weights[0].T
    return grad_f, grad_w, grad_bias


def _scatter_sum(terms, targets, rows):
    """``np.add.at(zeros((rows + 1, C)), targets, terms[:-1])[:rows]``, gathered.

    ``terms`` ends in one zero row. The plan's row r lists the positions i with
    ``targets[i] == r`` in ascending order, which is the order ``np.add.at``
    applies them, padded with the zero row up to the largest count K. Targets
    equal to ``rows`` are sentinels and are dropped.
    """
    order = np.argsort(targets, kind="stable")
    counts = np.bincount(targets, minlength=rows + 1)[:rows]
    kept = int(counts.sum())
    plan = np.full((rows, int(counts.max(initial=0))), len(targets), dtype=np.intp)
    rank = np.arange(kept) - np.repeat(np.cumsum(counts) - counts, counts)
    plan[targets[order[:kept]], rank] = order[:kept]
    out = np.zeros((rows, terms.shape[1]))
    for column in plan.T:
        out += terms[column]
    return out


# ---------------------------------------------------------------------------
# raw edge geometry


def _cross(a, b):
    """Row-wise ``np.cross`` of two (N, 3) arrays, bit for bit.

    Each component is one product minus another, in the order ``np.cross``
    computes them, so every bit (signed zeros included) is the same; this
    skips its axis handling, which costs more than the arithmetic at mesh
    sizes.
    """
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    out = np.empty(a.shape)
    np.subtract(a1 * b2, a2 * b1, out=out[:, 0])
    np.subtract(a2 * b0, a0 * b2, out=out[:, 1])
    np.subtract(a0 * b1, a1 * b0, out=out[:, 2])
    return out


def edge_geometry(vertices, edges, edge_faces, faces):
    """Per-edge length, dihedral angle, opposite angles, length/height ratios.

    Returns (lengths, dihedrals, opposite_angle_pairs, ratio_pairs, bad_face)
    where pairs are unsorted per incident-face slot and missing boundary slots
    are zero. ``bad_face`` is the first zero-area face index, or -1.
    """
    tri = vertices[faces]
    normal = _cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
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
    cr = _cross(n1, n2)
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
        cw = _cross(wu, wv)
        ang = np.arctan2(np.linalg.norm(cw, axis=1), (wu * wv).sum(axis=1))
        opp_angles[:, slot] = np.where(present, ang, 0.0)
        ratios[:, slot] = np.where(
            present, lengths * lengths / safe[fk_safe], 0.0
        )
    return lengths, dihedral, opp_angles, ratios, bad_face
