"""Edge convolution: examples, order invariance, gradient oracle, goldens."""

import functools
import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshforms import DatasetSpec, GraphError, MeshConv, Value, build_edge_topology, generate
from meshforms._kernels import _block_rows, conv_backward, conv_forward
from meshforms.layers import MeshContext

import conv_oracle
from conftest import (
    SMALL_CORPUS_SEED,
    finite_difference,
    flat_pair_mesh,
    fuzz_corpus,
    with_specials,
)


def swapped_pairs(neighbors):
    """Every edge's ring with its two face slots exchanged."""
    return neighbors[:, [2, 3, 0, 1]].copy()


@pytest.fixture(scope="module")
def ring_instance():
    mesh = fuzz_corpus(1, seed=2)[0]
    topology = build_edge_topology(mesh)
    rng = np.random.default_rng(0)
    features = rng.normal(size=(topology.edge_count, 3))
    limit = np.sqrt(6.0 / 7.0)
    weights = rng.uniform(-limit, limit, size=(5, 3, 4))
    return topology, features, weights, np.zeros(4)


def identity_weights(channels):
    weights = np.zeros((5, channels, channels))
    weights[0] = np.eye(channels)
    return weights


class TestForward:
    def test_identity_kernel(self, ring_instance):
        topology, features, _, _ = ring_instance
        out = conv_forward(features, topology.neighbors, identity_weights(3), np.zeros(3))
        assert np.array_equal(out, features)

    def test_direct_arithmetic(self):
        # scalar features f(e)=0, f(a)=1, f(b)=2, f(c)=3, f(d)=4, all weights 1:
        # 0 + |1-3| + (1+3) + |2-4| + (2+4) = 14
        features = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        neighbors = np.array([[1, 2, 3, 4]] + [[-1] * 4] * 4, dtype=np.int64)
        out = conv_forward(features, neighbors, np.ones((5, 1, 1)), np.zeros(1))
        assert out[0, 0] == 14.0

    def test_pair_swap_is_bitwise_invariant(self, ring_instance):
        topology, features, weights, bias = ring_instance
        base = conv_forward(features, topology.neighbors, weights, bias)
        swapped = conv_forward(features, swapped_pairs(topology.neighbors), weights, bias)
        assert np.array_equal(base, swapped)

    def test_channel_mismatch(self, ring_instance):
        topology, features, _, _ = ring_instance
        layer = MeshConv(3, 4, np.random.default_rng(0))
        with pytest.raises(GraphError, match="mesh_conv expects 3 channels"):
            layer(Value(features[:, :2]), MeshContext(topology))


def relative_error(got, expected):
    denom = max(np.max(np.abs(got)), np.max(np.abs(expected)), 1e-8)
    return np.max(np.abs(got - expected)) / denom


class TestBackward:
    def test_gradients_match_finite_differences(self, ring_instance):
        topology, features, weights, bias = ring_instance
        features, weights, bias = features.copy(), weights.copy(), bias.copy()
        neighbors = topology.neighbors
        rng = np.random.default_rng(1)
        probe = rng.normal(size=(topology.edge_count, 4))

        def objective():
            return float(np.sum(conv_forward(features, neighbors, weights, bias) * probe))

        grad_f, grad_w, grad_b = conv_backward(probe, features, neighbors, weights)
        fd_f = finite_difference(objective, features)
        assert relative_error(grad_f, fd_f) < 1e-6
        fd_w = finite_difference(objective, weights)
        assert relative_error(grad_w, fd_w) < 1e-6
        fd_b = finite_difference(objective, bias)
        assert relative_error(grad_b, fd_b) < 1e-6

    def test_zero_upstream_zero_grads(self, ring_instance):
        topology, features, weights, _ = ring_instance
        zeros = np.zeros((topology.edge_count, 4))
        grad_f, grad_w, grad_b = conv_backward(zeros, features, topology.neighbors, weights)
        assert not grad_f.any()
        assert not grad_w.any()
        assert not grad_b.any()

    def test_identity_kernel_passes_gradient_through(self, ring_instance):
        topology, features, _, _ = ring_instance
        rng = np.random.default_rng(2)
        upstream = rng.normal(size=features.shape)
        grad_f, _, _ = conv_backward(
            upstream, features, topology.neighbors, identity_weights(3)
        )
        assert np.array_equal(grad_f, upstream)


CONV_CHANNELS = (1, 2, 5, 16, 32, 64, 128)


@functools.cache
def mesh_rings():
    """Rings of a boundary pair (sentinel slots) and of two closed fuzz meshes."""
    meshes = [flat_pair_mesh()] + fuzz_corpus(2, seed=3)
    return [build_edge_topology(mesh).neighbors for mesh in meshes]


@st.composite
def conv_cases(draw):
    """(features, neighbors, weights, bias, grad_out, input_grad).

    The ring is a mesh's or a random one with sentinel slots. A random ring
    has up to 300 edges, or one or two forward blocks plus a tail of 1-3
    rows. Features are Gaussian at a drawn scale or drawn from {-1, 0, 1},
    whose tied ring rows make sign zero, and features, weights and the
    upstream gradient may hold NaN, +-0 or +-inf.
    """
    cin, cout = draw(st.sampled_from(CONV_CHANNELS)), draw(st.sampled_from(CONV_CHANNELS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ring = draw(st.sampled_from(["mesh", "small", "tail"]))
    if ring == "mesh":
        neighbors = draw(st.sampled_from(mesh_rings()))
    else:
        if ring == "small":
            edges = draw(st.integers(1, 300))
        else:
            edges = draw(st.integers(1, 2)) * _block_rows(cin, cout) + draw(st.integers(1, 3))
        neighbors = rng.integers(-1, edges, size=(edges, 4))
        neighbors[rng.random((edges, 4)) < 0.1] = -1
    edges = len(neighbors)
    if draw(st.booleans()):
        features = rng.normal(size=(edges, cin)) * 10.0 ** rng.uniform(-3.0, 3.0)
    else:
        features = rng.integers(-1, 2, size=(edges, cin)).astype(float)
    limit = np.sqrt(6.0 / (cin + cout))
    weights = rng.uniform(-limit, limit, size=(5, cin, cout))
    grad_out = rng.normal(size=(edges, cout))
    for array in (features, weights, grad_out):
        with_specials(draw, array)
    bias = rng.normal(size=cout)
    return features, neighbors, weights, bias, grad_out, draw(st.booleans())


def nan_canonical_bytes(array):
    """Bytes of ``array`` with every NaN as numpy's ``nan``."""
    return np.where(np.isnan(array), np.nan, array).tobytes()


@given(conv_cases())
@settings(max_examples=200, deadline=None)
def test_kernels_are_the_whole_array_oracle_bitwise(case):
    """The blocked forward and the four-buffer backward give the bytes of the
    whole-array, five-buffer kernels ``conv_oracle`` keeps.

    The forward's NaNs are compared as NaNs: where two NaNs meet in a sum,
    which one OpenBLAS's GEMM returns depends on the rows it is given, so a
    row block may return the other NaN. Every other forward bit, and every
    backward bit, NaNs included, must match.
    """
    features, neighbors, weights, bias, grad_out, input_grad = case
    with np.errstate(all="ignore"):
        got, expected = [
            [
                forward(features, neighbors, weights, bias),
                *backward(grad_out, features, neighbors, weights, input_grad),
            ]
            for forward, backward in (
                (conv_forward, conv_backward),
                (conv_oracle.conv_forward, conv_oracle.conv_backward),
            )
        ]
    assert got[0].shape == expected[0].shape
    assert nan_canonical_bytes(got[0]) == nan_canonical_bytes(expected[0])
    assert (got[1] is None) == (expected[1] is None) == (not input_grad)
    for mine, theirs in zip(got[1:], expected[1:]):
        if mine is not None:
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


GOLDEN_CHANNELS = ((5, 16), (16, 32), (64, 128), (128, 64))


def golden_conv_meshes():
    """The fuzz corpus, a boundary pair with sentinel slots, one ~2k-edge zoo
    mesh and one ~2k-edge limbs mesh."""
    larger = [
        generate(DatasetSpec(generator, 1, 1, edge_range=(2000, 2200), seed=5))[0].mesh
        for generator in ("primitive-zoo", "articulated-limbs")
    ]
    return fuzz_corpus(20, seed=SMALL_CORPUS_SEED) + [flat_pair_mesh()] + larger


def conv_backward_digest():
    """sha256 over conv_backward's (grad_f, grad_w, grad_bias) bytes for every
    golden mesh and channel pair, once on Gaussian features and once on
    features drawn from {-1, 0, 1}, whose tied ring rows make sign zero."""
    h = hashlib.sha256()
    rng = np.random.default_rng(6)
    for mesh in golden_conv_meshes():
        neighbors = build_edge_topology(mesh).neighbors
        edges = len(neighbors)
        for cin, cout in GOLDEN_CHANNELS:
            limit = np.sqrt(6.0 / (cin + cout))
            weights = rng.uniform(-limit, limit, size=(5, cin, cout))
            grad_out = rng.normal(size=(edges, cout))
            for features in (
                rng.normal(size=(edges, cin)),
                rng.integers(-1, 2, size=(edges, cin)).astype(float),
            ):
                for arr in conv_backward(grad_out, features, neighbors, weights):
                    h.update(f"{arr.dtype.str}{arr.shape}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


GOLDEN_CONV_BACKWARD = "b1bdccab884cee6d383c1af26c72b5eba4b5887b73efb5197d466ae5a688d9c8"


def test_conv_backward_is_byte_stable():
    # OpenBLAS splits grad_w's E-long reduction by its thread count, so the
    # digest is taken in a child process pinned to one BLAS thread.
    here = pathlib.Path(__file__).resolve().parent
    path = [str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == GOLDEN_CONV_BACKWARD


if __name__ == "__main__":
    print(conv_backward_digest())
