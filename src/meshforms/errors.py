"""Exception types shared across the package."""


class MeshFormsError(Exception):
    """Base class for all package errors."""


class MeshError(MeshFormsError):
    """Structurally invalid mesh data."""


class EmptyMeshError(MeshError):
    """Mesh with no vertices or no faces where content is required."""


class ObjParseError(MeshError):
    """Malformed OBJ input; carries the offending 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class TopologyError(MeshError):
    """Mesh connectivity violates the 2-manifold requirements."""


class DegenerateFaceError(MeshError):
    """Zero-area face encountered where geometry is needed."""

    def __init__(self, face_index):
        super().__init__(f"face {face_index} has zero area")
        self.face_index = face_index


class IllegalCollapseError(MeshFormsError):
    """Edge collapse rejected; message names the violated condition."""


class PoolTargetError(MeshFormsError):
    """Pooling ran out of legal collapses before reaching the target."""

    def __init__(self, target, achieved):
        super().__init__(
            f"no legal collapse left at {achieved} edges (target {target})"
        )
        self.target = target
        self.achieved = achieved


class GraphError(MeshFormsError):
    """Model graph misconfiguration or shape mismatch."""


class NonFiniteError(GraphError):
    """A layer's input was not finite or overflowed inside the layer."""


class ConfigError(MeshFormsError):
    """Invalid experiment configuration."""


class DataError(MeshFormsError):
    """Dataset or manifest problem."""


class CheckpointError(DataError):
    """Checkpoint bytes that do not decode into a model."""
