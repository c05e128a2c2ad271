"""Self-describing binary model checkpoints.

Layout: magic ``MFCK``, u32 format version, u64 header length, then a JSON
header (sorted keys), then raw little-endian float64 blobs in the order the
header's ``blob_order`` lists. The header stores the layer spec list, the
pooling policy, task metadata, the config hash, and the shapes of every blob;
the channel statistics every evaluator needs ride along as two extra blobs,
and a header without them is corrupt, as is a NaN or an infinity in any blob.
The loader accepts only the bytes ``to_bytes`` writes, and refuses any other.
"""

from __future__ import annotations

import json
import math
import pathlib
import struct

import numpy as np

from .errors import CheckpointError, GraphError, MeshError
from .features import ChannelStats
from .layers import ModelGraph, decode_spec

_MAGIC = b"MFCK"
_PREFIX = struct.Struct("<4sIQ")
FORMAT_VERSION = 1
_STATS = ("channel_stats.mean", "channel_stats.std")  # blob names, after the parameters


class Checkpoint:
    """A trained model plus the normalization statistics it expects."""

    def __init__(self, model: ModelGraph, channel_stats, meta):
        self.model = model
        self.channel_stats = channel_stats
        self.meta = dict(meta)

    def meta_value(self, key):
        """``meta[key]``; a header without it raises GraphError naming the key."""
        try:
            return self.meta[key]
        except KeyError:
            raise GraphError(f"checkpoint meta has no {key!r}") from None

    def to_bytes(self) -> bytes:
        arrays = {name: value.data for name, value in self.model.parameters().items()}
        arrays.update(zip(_STATS, (self.channel_stats.mean, self.channel_stats.std)))
        blobs = {name: np.ascontiguousarray(arr, dtype="<f8") for name, arr in arrays.items()}
        header = {
            "layers": self.model.spec(),
            "pooling_policy": self.model.pooling_policy,
            "has_channel_stats": True,
            "blob_order": list(blobs),
            "blob_shapes": {name: list(blob.shape) for name, blob in blobs.items()},
            "meta": self.meta,
        }
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        prefix = _PREFIX.pack(_MAGIC, FORMAT_VERSION, len(header_bytes))
        return b"".join([prefix, header_bytes, *(blob.tobytes() for blob in blobs.values())])

    @staticmethod
    def from_bytes(data: bytes) -> "Checkpoint":
        if len(data) < _PREFIX.size:
            raise CheckpointError("checkpoint truncated")
        magic, version, header_len = _PREFIX.unpack_from(data)
        if magic != _MAGIC:
            raise CheckpointError("not a checkpoint file")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        offset = _PREFIX.size + header_len
        if len(data) < offset:
            raise CheckpointError("checkpoint truncated")
        try:
            header = json.loads(data[_PREFIX.size : offset])
            shapes = [
                (name, tuple(header["blob_shapes"][name])) for name in header["blob_order"]
            ]
            if not all(type(n) is int and n >= 0 for _, shape in shapes for n in shape):
                raise ValueError("blob dimensions must be non-negative integers")
            layers = [decode_spec(spec) for spec in header["layers"]]
            policy = header["pooling_policy"]
            meta = dict(header["meta"])
            if not set(_STATS) <= set(header["blob_order"]):
                raise ValueError("no channel statistics")
        except (ValueError, KeyError, TypeError, GraphError) as err:
            raise CheckpointError("checkpoint header corrupt") from err
        # Every size is checked before the model is built, so a corrupt header
        # cannot make the loader allocate more than the file holds.
        end = offset + 8 * sum(math.prod(shape) for _, shape in shapes)
        if len(data) < end:
            raise CheckpointError("checkpoint truncated")
        stored = {name: shape for name, shape in shapes if name not in _STATS}
        expected = {
            f"layer{i}.{pname}": shape
            for i, (_, _, layer_shapes) in enumerate(layers)
            for pname, shape in layer_shapes.items()
        }
        if set(expected) != set(stored):
            raise CheckpointError("checkpoint parameters do not match layer spec")
        for name, shape in expected.items():
            if shape != stored[name]:
                raise CheckpointError(f"checkpoint blob shape mismatch for {name}")
        try:
            model = ModelGraph([cls(*args) for cls, args, _ in layers], policy)
        except GraphError as err:  # an unknown policy, or an unpool without its pool
            raise CheckpointError("checkpoint header corrupt") from err
        blobs = {}
        for name, shape in shapes:
            count = math.prod(shape)
            arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
            offset += count * 8
            if not np.isfinite(arr).all():
                raise CheckpointError(f"checkpoint blob {name} holds a non-finite number")
            blobs[name] = arr.reshape(shape).astype(np.float64)
        try:
            stats = ChannelStats(*(blobs[tag] for tag in _STATS))
        except MeshError as err:
            raise CheckpointError(f"checkpoint channel statistics corrupt: {err}") from err
        for name, value in model.parameters().items():
            value.data = blobs[name]
        checkpoint = Checkpoint(model, stats, meta)
        if checkpoint.to_bytes() != data:  # trailing bytes, or a header to_bytes never writes
            raise CheckpointError("checkpoint header corrupt")
        return checkpoint

    def save(self, path):
        pathlib.Path(path).write_bytes(self.to_bytes())

    @staticmethod
    def load(path) -> "Checkpoint":
        return Checkpoint.from_bytes(pathlib.Path(path).read_bytes())
