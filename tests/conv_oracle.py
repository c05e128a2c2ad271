"""The whole-array convolution kernels, the oracle of ``meshforms._kernels``.

The forward here computes every term over whole E x C temporaries, with no
row blocks, and the backward keeps five E x C buffers. The library's kernels
must give bit for bit what these give (``tests/test_conv.py``).
"""

import numpy as np


# Both kernels walk the ring one slot pair at a time, (a, c) and then (b, d),
# gathering each pair once into buffers that every E x C temporary of the pass
# reuses.


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
    to ``out`` in the order written.
    """
    E, C = features.shape
    idx, missing = _ring_index(neighbors, E)
    first, second, work = np.empty((E, C)), np.empty((E, C)), np.empty((E, C))
    out = features @ weights[0]
    product = np.empty_like(out)
    for k in (0, 1):
        _gather_pair(features, idx, missing, k, first, second)
        np.subtract(first, second, out=work)
        out += np.matmul(np.abs(work, out=work), weights[2 * k + 1], out=product)
        out += np.matmul(np.add(first, second, out=work), weights[2 * k + 2], out=product)
    out += bias
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

    Buffers, in E x C units at C input channels: two gather buffers, the
    pair's terms (two, plus the zero row) and grad_f, so at most five are
    live. The first gather buffer holds f(a), then f(a) + f(c), then s*p;
    the second f(c), then |d|, then p, then the rows the scatter gathers.
    The terms rows hold d until s*p is formed.
    """
    E, C = features.shape
    idx, missing = _ring_index(neighbors, E)
    grad_w = np.empty_like(weights)
    np.matmul(features.T, grad_out, out=grad_w[0])
    grad_bias = grad_out.sum(axis=0)

    first, second = np.empty((E, C)), np.empty((E, C))
    terms = np.empty((2 * E + 1 if input_grad else E, C))
    diff = terms[:E]
    grad_f = np.zeros((E, C)) if input_grad else None
    for k in (0, 1):
        _gather_pair(features, idx, missing, k, first, second)
        np.subtract(first, second, out=diff)
        np.add(first, second, out=first)
        np.matmul(np.abs(diff, out=second).T, grad_out, out=grad_w[2 * k + 1])
        np.matmul(first.T, grad_out, out=grad_w[2 * k + 2])
        if grad_f is None:
            continue
        # The terms in add.at's call order: slot k's, then slot k + 2's. q is
        # written where the second slot's term goes and becomes q - s*p there.
        signed = np.sign(diff, out=first)
        signed *= np.matmul(grad_out, weights[2 * k + 1].T, out=second)
        summed = terms[E : 2 * E]
        np.matmul(grad_out, weights[2 * k + 2].T, out=summed)
        np.add(signed, summed, out=terms[:E])
        np.subtract(summed, signed, out=summed)
        terms[2 * E] = 0.0
        _scatter_sum(terms, idx[:, [k, k + 2]].T.ravel(), grad_f, second)
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
