"""Per-edge input representations and channel normalization.

Five kinds are supported:

==========  ========  =====================================================
kind        channels  contents
==========  ========  =====================================================
FF          2         edge length, dihedral angle
MESHCNN5    5         dihedral, sorted opposite angles, sorted edge
                      length / triangle height ratios
XYZ         3         Cartesian midpoint of the edge
XYZ_INV     2         endpoint dot product, mean endpoint norm
LAPLACIAN   3         midpoint of the endpoints' uniform-weight Laplacian
                      vectors (vertex minus 1-ring average)
==========  ========  =====================================================

FF and MESHCNN5 are invariant under rotation and translation; XYZ_INV under
rotation about the origin; XYZ and LAPLACIAN are equivariant. Angles are
computed as atan2 of the cross/dot of the relevant vectors, the numerically
stable form of arccos of the clamped dot product.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import MeshError
from .mesh import Mesh
from .topology import EdgeTopology

FF = "FF"
MESHCNN5 = "MESHCNN5"
XYZ = "XYZ"
XYZ_INV = "XYZ_INV"
LAPLACIAN = "LAPLACIAN"

# Every kind once: (kind, config/CLI token, channels). A kind's position is its
# code in the feature container, so a new kind goes at the end.
_KINDS = (
    (FF, "ff", 2),
    (MESHCNN5, "meshcnn5", 5),
    (XYZ, "xyz", 3),
    (XYZ_INV, "xyz-inv", 2),
    (LAPLACIAN, "laplacian", 3),
)
KIND_TOKENS = {token: kind for kind, token, _ in _KINDS}
KIND_CHANNELS = {kind: channels for kind, _, channels in _KINDS}
_CODE_KINDS = tuple(KIND_CHANNELS)
# The kinds a de-noising model may output, by token, in table order.
OUTPUT_TOKENS = tuple(token for kind, token, _ in _KINDS if kind in (FF, XYZ))

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class FeatureTensor:
    """Edge-count x channel array of one feature kind."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.kind not in KIND_CHANNELS:
            raise MeshError(f"unknown feature kind {self.kind!r}")
        if values.ndim != 2 or values.shape[1] != KIND_CHANNELS[self.kind]:
            raise MeshError(
                f"{self.kind} features must have {KIND_CHANNELS[self.kind]} "
                f"channels, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise MeshError("non-finite feature value")
        object.__setattr__(self, "values", values)

    @property
    def edge_count(self):
        return self.values.shape[0]

    @property
    def channels(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and (floored) standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        std = np.asarray(self.std, dtype=np.float64).reshape(-1)
        if mean.shape != std.shape:
            raise MeshError("mean/std shape mismatch")
        if np.any(std < STD_FLOOR):
            raise MeshError(f"std below floor {STD_FLOOR}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def fundamental_forms(topology: EdgeTopology, mesh: Mesh) -> FeatureTensor:
    """Channel 0: edge length; channel 1: dihedral angle."""
    lengths, dihedrals, _, _, _ = _kernels.edge_geometry(
        mesh.vertices, topology.edges, topology.edge_faces, mesh.faces
    )
    return FeatureTensor(np.column_stack([lengths, dihedrals]), FF)


def meshcnn5(topology: EdgeTopology, mesh: Mesh) -> FeatureTensor:
    """Dihedral angle plus the two sorted pair channels of the classic set.

    The two incident faces have no canonical order, so each pair (opposite
    angles, length/height ratios) is sorted ascending. Boundary edges fill
    the missing face's slot with zero before sorting.
    """
    args = mesh.vertices, topology.edges, topology.edge_faces, mesh.faces
    lengths, dihedrals, cross_norms, u, v = _kernels.edge_geometry(*args)
    opp, ratios = _kernels.corner_geometry(*args, lengths, cross_norms, u, v)
    opp = np.sort(opp, axis=1)
    ratios = np.sort(ratios, axis=1)
    return FeatureTensor(np.column_stack([dihedrals, opp, ratios]), MESHCNN5)


def _laplacian_coordinates(mesh: Mesh, topology: EdgeTopology):
    V = mesh.vertex_count
    acc = np.zeros((V, 3))
    deg = np.zeros(V)
    e0 = topology.edges[:, 0]
    e1 = topology.edges[:, 1]
    np.add.at(acc, e0, mesh.vertices[e1])
    np.add.at(acc, e1, mesh.vertices[e0])
    np.add.at(deg, e0, 1.0)
    np.add.at(deg, e1, 1.0)
    if np.any(deg == 0.0):
        v = int(np.flatnonzero(deg == 0.0)[0])
        raise MeshError(f"isolated vertex {v} has no Laplacian coordinate")
    return mesh.vertices - acc / deg[:, None]


def coordinate_features(
    topology: EdgeTopology, mesh: Mesh, variant: str
) -> FeatureTensor:
    """Coordinate-based representations: XYZ, XYZ_INV or LAPLACIAN."""
    u = mesh.vertices[topology.edges[:, 0]]
    v = mesh.vertices[topology.edges[:, 1]]
    if variant == XYZ:
        return FeatureTensor((u + v) / 2.0, XYZ)
    if variant == XYZ_INV:
        dots = (u * v).sum(axis=1)
        norms = (_kernels.row_norms(u) + _kernels.row_norms(v)) / 2.0
        return FeatureTensor(np.column_stack([dots, norms]), XYZ_INV)
    if variant == LAPLACIAN:
        delta = _laplacian_coordinates(mesh, topology)
        mid = (delta[topology.edges[:, 0]] + delta[topology.edges[:, 1]]) / 2.0
        return FeatureTensor(mid, LAPLACIAN)
    raise MeshError(f"unknown coordinate feature variant {variant!r}")


def extract(topology: EdgeTopology, mesh: Mesh, kind: str) -> FeatureTensor:
    """Dispatch on feature kind."""
    if kind == FF:
        return fundamental_forms(topology, mesh)
    if kind == MESHCNN5:
        return meshcnn5(topology, mesh)
    return coordinate_features(topology, mesh, kind)


def fit_channel_stats(feature_tensors) -> ChannelStats:
    """Pool edges of every tensor; per-channel mean and population std."""
    arrays = [
        f.values if isinstance(f, FeatureTensor) else np.asarray(f, dtype=np.float64)
        for f in feature_tensors
    ]
    if not arrays:
        raise MeshError("no feature tensors to fit statistics on")
    stacked = np.concatenate(arrays, axis=0)
    if stacked.shape[0] == 0:
        raise MeshError("no edges to fit statistics on")
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    return ChannelStats(mean, std)


def normalize(features: FeatureTensor, stats: ChannelStats) -> FeatureTensor:
    """(x - mean) / std per channel."""
    if features.channels != stats.mean.shape[0]:
        raise MeshError(
            f"stats have {stats.mean.shape[0]} channels, features "
            f"{features.channels}"
        )
    return FeatureTensor((features.values - stats.mean) / stats.std, features.kind)


def feature_norms(features: FeatureTensor) -> np.ndarray:
    """Per-edge L2 norm across channels (heat-map scalar)."""
    return _kernels.row_norms(features.values)


# ---------------------------------------------------------------------------
# flat binary container

_MAGIC = b"MFFT"
_HEADER = struct.Struct("<4sIBxxxQI")


def write_features(features: FeatureTensor) -> bytes:
    header = _HEADER.pack(
        _MAGIC,
        1,
        _CODE_KINDS.index(features.kind),
        features.edge_count,
        features.channels,
    )
    body = np.ascontiguousarray(features.values, dtype="<f8").tobytes()
    return header + body


def read_features(data: bytes) -> FeatureTensor:
    if len(data) < _HEADER.size:
        raise MeshError("feature container truncated")
    magic, version, code, edge_count, channels = _HEADER.unpack_from(data)
    if magic != _MAGIC or version != 1:
        raise MeshError("not a feature container")
    if code >= len(_CODE_KINDS):
        raise MeshError(f"unknown feature kind code {code}")
    kind = _CODE_KINDS[code]
    if channels != KIND_CHANNELS[kind]:
        raise MeshError(f"{kind} features must have {KIND_CHANNELS[kind]} channels, got {channels}")
    expected = _HEADER.size + edge_count * channels * 8
    if len(data) != expected:
        raise MeshError("feature container size mismatch")
    values = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(
        edge_count, channels
    )
    features = FeatureTensor(values.astype(np.float64), kind)
    if write_features(features) != data:  # a nonzero pad byte
        raise MeshError("feature container is not in the form write_features writes")
    return features
