"""Hot numeric kernels: the per-edge convolution, instance norm, edge geometry.

Kernels here are the per-edge convolution and the per-channel instance
normalization (each forward and backward) and the raw edge geometry in two
passes: the lengths and dihedral angles that every geometric feature kind
reads, and the opposite angles and length/height ratios that only the
classic MeshCNN set adds. Angles use atan2 of cross/dot, which is the
numerically stable equivalent of arccos of the clamped dot product.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFaceError


# ---------------------------------------------------------------------------
# convolution over the ordered 4-neighbor ring
#
# Both kernels walk the ring one slot pair at a time, (a, c) and then (b, d),
# gathering each pair once into buffers that every temporary of the pass
# reuses. Each value is still the result of the same numpy operation on the
# same operands as the unbuffered algebra in the docstrings, so every output
# bit is that algebra's; ``tests/conv_oracle.py`` keeps the whole-array
# kernels as the oracle.
#
# Buffers. The forward runs in row blocks: each output row reads only its own
# ring, so it holds ``out`` plus four block-sized buffers (two gathers, their
# difference or sum, one product) of about ``_BLOCK_BYTES``, which stay in
# cache, and no E x C temporary. The backward holds four E x C_in buffers
# (one gather buffer, two rows of slot terms, grad_f) and its GEMMs stay
# whole.
#
# Why blocks are cut where they are, and why the backward is not blocked, as
# measured with numpy's OpenBLAS on x86-64. A row block of ``x @ w`` gave the
# bytes of the same rows of the whole product in every case tried, with two
# exceptions that the block bounds avoid: numpy computes a one-row product
# with GEMV, not GEMM, and with one or two output columns a block that
# starts off a multiple of 64 rows changed bits. Blocks therefore start at
# multiples of 64 rows, and a remainder of fewer than 64 rows joins the last
# block. (Where two NaNs meet in a sum, which one the GEMM returns may still
# differ; no other bit does.) A row block of ``g @ w.T``, the grad_f half of
# the backward, is not bitwise: 39 of 96 split cases differed, always in a
# tail block of a few rows or at 5-16 columns, and even
# ``g @ np.ascontiguousarray(w.T)`` differed from ``g @ w.T`` in 12 of 60
# whole-size cases. The weight gradients sum over all E rows.

# Bytes of one forward row block's temporaries: three C_in-wide rows and one
# C_out-wide row.
_BLOCK_BYTES = 2**20


def _block_rows(in_channels, out_channels):
    """Rows of one forward block at these channel counts, a positive multiple of 64."""
    return max(1, _BLOCK_BYTES // (8 * 64 * (3 * in_channels + out_channels))) * 64


def _block_bounds(rows, block):
    """[0, block, 2 block, ..., rows]; fewer than 64 rows left join the last block."""
    bounds = list(range(0, rows, block)) or [0]
    if len(bounds) > 1 and rows - bounds[-1] < 64:
        bounds.pop()
    bounds.append(rows)
    return bounds


def _ring_index(neighbors, rows):
    """(ring with every sentinel as ``rows``, sentinel mask); checks the range once.

    The gathers take with ``mode="clip"`` and then zero the sentinel rows, so
    an index at or beyond ``rows`` must be rejected here.
    """
    if neighbors.size and neighbors.max() >= rows:
        raise IndexError(f"ring index {int(neighbors.max())} out of range for {rows} edges")
    missing = neighbors < 0
    return np.where(missing, rows, neighbors), missing


def _gather_pair(features, idx, missing, k, first, second):
    """Rows of ring slots k and k + 2 into ``first`` and ``second``; sentinels read 0."""
    for slot, buf in ((k, first), (k + 2, second)):
        np.take(features, idx[:, slot], axis=0, out=buf, mode="clip")
        buf[missing[:, slot]] = 0.0


def conv_forward(features, neighbors, weights, bias):
    """out(e) = bias + w0 f(e) + w1 |f(a)-f(c)| + w2 (f(a)+f(c))
                       + w3 |f(b)-f(d)| + w4 (f(b)+f(d))

    Sentinel (-1) neighbor slots contribute zero vectors. The terms are added
    to ``out`` in the order written, one row block at a time.
    """
    E, C = features.shape
    out_channels = weights.shape[2]
    idx, missing = _ring_index(neighbors, E)
    bounds = _block_bounds(E, _block_rows(C, out_channels))
    size = max(bounds[1], bounds[-1] - bounds[-2])  # the first or the last block
    first, second, work = np.empty((size, C)), np.empty((size, C)), np.empty((size, C))
    product = np.empty((size, out_channels))
    out = np.empty((E, out_channels))
    for start, stop in zip(bounds, bounds[1:]):
        n = stop - start
        block_out, f, s, w, p = out[start:stop], first[:n], second[:n], work[:n], product[:n]
        ring, gaps = idx[start:stop], missing[start:stop]
        np.matmul(features[start:stop], weights[0], out=block_out)
        for k in (0, 1):
            _gather_pair(features, ring, gaps, k, f, s)
            np.subtract(f, s, out=w)
            block_out += np.matmul(np.abs(w, out=w), weights[2 * k + 1], out=p)
            block_out += np.matmul(np.add(f, s, out=w), weights[2 * k + 2], out=p)
        block_out += bias
    return out


def conv_backward(grad_out, features, neighbors, weights, input_grad=True):
    """Reverse-mode gradients; |x| has subgradient 0 at x = 0.

    Returns (grad_f, grad_w, grad_bias); grad_f is None, and none of its
    terms are computed, unless ``input_grad``.

    For each slot pair (a, c), with d = f(a) - f(c), s = sign(d),
    p = grad_out w1^T and q = grad_out w2^T (w3 and w4 for (b, d)):
    grad_w1 = |d|^T grad_out, grad_w2 = (f(a) + f(c))^T grad_out, and the
    terms s*p + q to edge a and q - s*p to edge c.

    grad_f is a gather, not a scatter, and is bit for bit what four
    ``np.add.at`` calls (slots 0, 2, 1, 3) would give. Each pair's two slot
    terms are stacked in that call order over one zero row and gathered into
    one running grad_f that starts at +0.0, pair (a, c) and then (b, d):
    ``_scatter_sum`` lists, for each edge, the rows that target it in the
    order ``add.at`` would apply them. Each edge's sum then sees the same
    addends in the same order. A running sum from +0.0 is never -0.0, so
    adding the zero row as padding, at the end of either pair, leaves every
    bit as it is.

    Buffers, in E x C units at C input channels: one gather buffer, the
    pair's terms (two, plus the zero row) and grad_f, so at most four are
    live. The gather buffer holds f(a), then f(a) + f(c), then s*p, then the
    rows the scatter gathers. The first terms rows hold f(c), then |d|, then
    p, then slot k's term s*p + q; the second hold d, then q, then slot
    k + 2's term q - s*p. Without ``input_grad`` three buffers are live.
    """
    E, C = features.shape
    idx, missing = _ring_index(neighbors, E)
    grad_w = np.empty_like(weights)
    np.matmul(features.T, grad_out, out=grad_w[0])
    grad_bias = grad_out.sum(axis=0)

    first = np.empty((E, C))
    terms = np.empty((2 * E + 1 if input_grad else 2 * E, C))
    second, diff = terms[:E], terms[E : 2 * E]
    grad_f = np.zeros((E, C)) if input_grad else None
    for k in (0, 1):
        _gather_pair(features, idx, missing, k, first, second)
        np.subtract(first, second, out=diff)
        np.add(first, second, out=first)
        np.matmul(np.abs(diff, out=second).T, grad_out, out=grad_w[2 * k + 1])
        np.matmul(first.T, grad_out, out=grad_w[2 * k + 2])
        if grad_f is None:
            continue
        # The terms in add.at's call order, slot k's and then slot k + 2's,
        # formed in place: q is written over d and becomes q - s*p there.
        signed = np.sign(diff, out=first)
        signed *= np.matmul(grad_out, weights[2 * k + 1].T, out=second)
        np.matmul(grad_out, weights[2 * k + 2].T, out=diff)
        np.add(signed, diff, out=second)
        np.subtract(diff, signed, out=diff)
        terms[2 * E] = 0.0
        _scatter_sum(terms, idx[:, [k, k + 2]].T.ravel(), grad_f, first)
    if grad_f is None:
        return None, grad_w, grad_bias
    grad_f += np.matmul(grad_out, weights[0].T, out=first)
    return grad_f, grad_w, grad_bias


def _scatter_sum(terms, targets, out, gathered):
    """Add each ``terms[i]`` to ``out[targets[i]]`` as ``np.add.at`` would, by gathers.

    ``out`` and the work buffer ``gathered`` are (rows, C), and ``terms``
    ends in one zero row. The plan's row r lists the positions i with ``targets[i] == r`` in
    ascending order, which is the order ``np.add.at`` applies them, padded
    with the zero row up to the largest count K. Targets equal to ``rows``
    are sentinels and are dropped. Every plan entry indexes ``terms`` by
    construction, so the gathers skip the range check.
    """
    rows = len(out)
    order = np.argsort(targets, kind="stable")
    counts = np.bincount(targets, minlength=rows + 1)[:rows]
    kept = int(counts.sum())
    plan = np.full((int(counts.max(initial=0)), rows), len(targets), dtype=np.intp)
    rank = np.arange(kept) - np.repeat(np.cumsum(counts) - counts, counts)
    plan[rank, targets[order[:kept]]] = order[:kept]
    for column in plan:
        out += np.take(terms, column, axis=0, out=gathered, mode="clip")


# ---------------------------------------------------------------------------
# instance normalization over the edge axis

INSTANCE_NORM_EPS = 1e-12


def instance_norm_forward(x, gamma, beta):
    """(out, mu, sd) with out = (x - mu) / sd * gamma + beta, per channel.

    mu = sum(x) * (1/E) and sd = sqrt(sum((x - mu)^2) * (1/E) + eps), each
    reduced over the E rows with the row axis kept.
    """
    inv_rows = 1.0 / x.shape[0]
    mu = x.sum(axis=0, keepdims=True) * inv_rows
    out = x - mu
    sd = np.sqrt((out * out).sum(axis=0, keepdims=True) * inv_rows + INSTANCE_NORM_EPS)
    out /= sd
    out *= gamma
    out += beta
    return out, mu, sd


def instance_norm_backward(g, x, mu, sd, gamma):
    """(g_x, g_gamma, g_beta) for ``instance_norm_forward``, from its mu and sd.

    Exact: this is bit for bit what the broadcasting operator algebra that
    the tests keep as the oracle (``tests/algebra.py``) computes through
    mu = x.mean(0), c = x - mu, var = (c * c).mean(0),
    n = c / (var + eps).sqrt(), out = n * gamma + beta. Every value below is
    the same numpy operation on the same operands (each product or sum only
    swapped or written in place, which changes no bit), and the gradients
    that meet at one node are added in the order ``algebra.graph_backward``
    adds them. ``c`` receives g_n / sd first and then the variance term twice,
    because ``c * c`` names one parent twice; ``x`` receives the direct term
    and then the mean's broadcast. The means multiply by 1/E. With one row
    the algebra skips the sums onto (1, C) operands, which can differ from
    a one-row sum only in the sign of a zero; such a zero reaches g_x only
    as g_c + (-g_c) = +0.0, so summing anyway changes no output bit. Only mu
    and sd are kept from the forward; c and n are recomputed.
    """
    inv_rows = 1.0 / x.shape[0]
    g_beta = g.sum(axis=0)
    centered = x - mu
    work = centered / sd
    work *= g
    g_gamma = work.sum(axis=0)
    g_centered = g * gamma  # the gradient at n, then at c
    np.negative(g_centered, out=work)
    work *= centered
    work /= sd * sd
    g_sum_sq = work.sum(axis=0, keepdims=True) / (2.0 * sd) * inv_rows  # at sum((x - mu)^2)
    g_centered /= sd
    centered *= g_sum_sq
    g_centered += centered
    g_centered += centered
    np.negative(g_centered, out=work)
    g_centered += work.sum(axis=0, keepdims=True) * inv_rows
    return g_centered, g_gamma, g_beta


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


def row_norms(x):
    """Euclidean norm of each row of a real (N, k) array, bit for bit
    ``np.linalg.norm(x, axis=1)``.

    For a real array numpy computes that norm as ``sqrt(add.reduce(x * x,
    axis=1))``; this is the same sum without its argument dispatch, which
    costs more than the arithmetic at mesh sizes.
    """
    return np.sqrt(np.add.reduce(x * x, axis=1))


def edge_geometry(vertices, edges, edge_faces, faces):
    """Per-edge length and dihedral angle: what every geometric kind reads.

    Returns (lengths, dihedrals, cross_norms, u, v): the per-face cross
    product norms (twice the face areas) and the edges' endpoint positions
    ride along for ``corner_geometry``. Boundary edges have dihedral zero.
    Raises DegenerateFaceError naming the first zero-area face.
    """
    tri = vertices[faces]
    normal = _cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    cross_norms = row_norms(normal)
    bad = np.flatnonzero(cross_norms == 0.0)
    if len(bad):
        raise DegenerateFaceError(int(bad[0]))
    unit = normal / cross_norms[:, None]

    u = vertices[edges[:, 0]]
    v = vertices[edges[:, 1]]
    lengths = row_norms(u - v)

    interior = edge_faces[:, 1] >= 0
    f1 = edge_faces[:, 0]
    f2 = np.where(interior, edge_faces[:, 1], f1)
    n1 = unit[f1]
    n2 = unit[f2]
    dihedral = np.arctan2(row_norms(_cross(n1, n2)), (n1 * n2).sum(axis=1))
    dihedral = np.where(interior, dihedral, 0.0)
    return lengths, dihedral, cross_norms, u, v


def corner_geometry(vertices, edges, edge_faces, faces, lengths, cross_norms, u, v):
    """Per-edge opposite angles and length/height ratios of the classic MeshCNN set.

    Takes ``edge_geometry``'s lengths, cross norms and endpoints. Returns
    (opposite_angle_pairs, ratio_pairs), unsorted per incident-face slot, with
    missing boundary slots zero.
    """
    face_vertex_sum = faces.sum(axis=1)
    edge_vertex_sum = edges.sum(axis=1)
    squared = lengths * lengths
    opp_angles = np.zeros((len(edges), 2))
    ratios = np.zeros((len(edges), 2))
    for slot in range(2):
        fk = edge_faces[:, slot]
        present = fk >= 0
        # a missing face reads the edge's first face, whose apex is a vertex;
        # ``np.where`` drops what it gives. Any other face's vertex sum less
        # the edge's can fall below -V and index out of range.
        fk_safe = np.where(present, fk, edge_faces[:, 0])
        apex = face_vertex_sum[fk_safe] - edge_vertex_sum
        w = vertices[apex]
        wu = u - w
        wv = v - w
        ang = np.arctan2(row_norms(_cross(wu, wv)), (wu * wv).sum(axis=1))
        opp_angles[:, slot] = np.where(present, ang, 0.0)
        ratios[:, slot] = np.where(present, squared / cross_norms[fk_safe], 0.0)
    return opp_angles, ratios
