"""Static checks, in place of a linter: no program module imports a name it never
uses, no module-level private name goes unreferenced in the package, every
public name is read by the program or exported from ``__init__.py``, and every
meshforms name the benchmark reads exists."""

import ast
import importlib
import inspect
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meshforms"


def unused_imports(source):
    """Names bound by an import anywhere in ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def module_definitions(source, private):
    """Module-level names that ``source`` defines: those with one leading
    underscore when ``private``, else those without one."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if not name.startswith("__") and name.startswith("_") == private:
                defined.setdefault(name, node.lineno)
    return defined


def references(source):
    """Every name ``source`` reads, reaches as an attribute, or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_detects_an_unreferenced_private_name():
    source = "_KEPT = 1\n_DROPPED = 2\n\ndef _helper():\n    return _KEPT\n"
    unused = set(module_definitions(source, private=True)) - references(source)
    assert unused == {"_DROPPED", "_helper"}


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*(references(text) for text in sources.values()))
    unused = [
        (name, line, private)
        for name, text in sources.items()
        for private, line in module_definitions(text, private=True).items()
        if private not in referenced
    ]
    assert unused == []


def test_detects_an_unreferenced_public_name():
    module = "KEPT = 1\nEXPORTED = 2\nDROPPED = 3\n_PRIVATE = 4\n\ndef helper():\n    return KEPT\n"
    readers = references(module) | references("from .module import EXPORTED\n")
    assert set(module_definitions(module, private=False)) - readers == {"DROPPED", "helper"}


def test_every_public_name_is_read_or_exported():
    """A public module-level name is read by a package module, perfbench or
    tools, or imported by ``__init__.py``, which is the allow-list of the API."""
    readers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    readers += sorted((ROOT / "tools").glob("*.py"))
    referenced = set().union(*(references(p.read_text()) for p in readers))
    unused = [
        (path.name, line, public)
        for path in sorted(PACKAGE.glob("*.py"))
        for public, line in module_definitions(path.read_text(), private=False).items()
        if public not in referenced
    ]
    assert unused == []


def test_the_engine_has_no_operator_algebra():
    """Every graph node comes from a layer or a loss: ``Value`` defines no
    arithmetic or reduction, and the broadcasting helpers live only in the
    tests' composed oracle."""
    autodiff = importlib.import_module("meshforms.autodiff")
    removed = {
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__matmul__", "__rmatmul__", "__neg__",
        "exp", "log", "sqrt", "relu", "sum", "mean", "ensure",
    }
    assert sorted(removed & set(vars(autodiff.Value))) == []
    assert not hasattr(autodiff, "_unbroadcast")


def test_every_benchmark_hook_exists(monkeypatch):
    """Each (owner, attribute) perfbench's tracer replaces is defined on that owner.

    ``Patches.set`` reads the attribute from the owner's own namespace, so a
    rename in the library would break every traced run; installing the hooks
    here fails first.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    with tracing.Patches() as patches:
        recorder = tracing.Recorder()
        recorder.install(patches)
        tracing.Tracer(recorder).install(patches)
        hooked = [(owner, name) for owner, name, _ in patches._saved]
    assert hooked
    for owner, name in hooked:
        assert name in vars(owner), f"{owner.__name__}.{name}"


def meshforms_references(source):
    """``(dotted name, resolves)`` for each meshforms name ``source`` imports
    and each attribute chain it reads from one, as far as the chain stays on
    module, class or function objects of meshforms."""
    tree = ast.parse(source)
    bound, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "meshforms":
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "meshforms":
            module = importlib.import_module(node.module)
            for alias in node.names:
                found.append((f"{node.module}.{alias.name}", hasattr(module, alias.name)))
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)

    def resolve(node):
        """The object ``node`` names, or None where the chain leaves meshforms."""
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if not isinstance(node, ast.Attribute):
            return None
        owner = resolve(node.value)
        if owner is None:
            return None
        found.append((f"{ast.unparse(node.value)}.{node.attr}", hasattr(owner, node.attr)))
        value = getattr(owner, node.attr, None)
        return value if callable(value) or inspect.ismodule(value) else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            resolve(node)
    return sorted(set(found))


def test_detects_a_missing_meshforms_name():
    source = (
        "from meshforms import pipelines\nfrom meshforms.layers import Pool, Gone\n"
        "pipelines.evaluate(1)\npipelines.gone()\nPool.__call__\nlocal.anything\n"
    )
    missing = [name for name, resolves in meshforms_references(source) if not resolves]
    assert missing == ["meshforms.layers.Gone", "pipelines.gone"]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "perfbench").glob("*.py")), ids=lambda p: p.name
)
def test_every_meshforms_name_perfbench_reads_exists(path):
    """The benchmark calls library names directly (``pipelines.evaluate_classification``,
    ``pooling.pool_batch_legacy``, ``pipelines.build_model``); removing one would
    break the gated run while every other test passes."""
    assert [name for name, resolves in meshforms_references(path.read_text()) if not resolves] == []


def test_model_state_perfbench_reads_exists():
    """Instance attributes the benchmark's tracer and checks read."""
    from meshforms import build_edge_topology, layers
    from meshforms.mesh import Mesh

    mesh = Mesh(np.eye(3), np.array([[0, 1, 2]]))
    ctx = layers.MeshContext(build_edge_topology(mesh), "legacy")
    assert (ctx.stack, ctx.histories) == ([], [])
    model = layers.ModelGraph([layers.Pool(2)], pooling_policy="legacy")
    assert [p.target_edges for p in model.layers] == [2] and model.pooling_policy == "legacy"


def spelled_strings(source, words):
    """``(line, string)`` for each string constant of ``source`` that is one of ``words``."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in words
    )


def test_detects_a_spelled_layer_type():
    source = '"""pool the relu"""\nspec = {"type": "relu", "target": 3}\n'
    assert spelled_strings(source, {"relu", "pool"}) == [(2, "relu")]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "layers.py"],
    ids=lambda p: p.name,
)
def test_only_layers_spells_a_layer_type(path):
    """Checkpoint headers name layer types, a vocabulary ``layers.py`` declares
    once; every other module builds layers from their classes."""
    layer_types = set(importlib.import_module("meshforms.layers")._LAYER_TYPES)
    assert spelled_strings(path.read_text(), layer_types) == []


def test_each_layer_type_is_declared_once():
    """``_LAYER_TYPES`` alone writes a layer type's checkpoint name, spec keys and
    parameter shapes: each ``Layer`` subclass names only its ``kind``, whose
    entry names that class, and inherits ``spec`` and ``parameters``."""
    layers = importlib.import_module("meshforms.layers")
    classes = [
        c for c in vars(layers).values()
        if inspect.isclass(c) and issubclass(c, layers.Layer) and c is not layers.Layer
    ]
    assert {cls for _, cls, _ in layers._LAYER_TYPES.values()} == set(classes)
    for cls in classes:
        assert layers._LAYER_TYPES[cls.kind][1] is cls
        assert {"spec", "parameters"}.isdisjoint(vars(cls)), cls.__name__


def row_norm_calls(source):
    """Lines of ``source`` that call ``np.linalg.norm`` along axis 1."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.norm"):
            axis = [k.value for k in node.keywords if k.arg == "axis"] + node.args[2:3]
            if any(isinstance(a, ast.Constant) and a.value in (1, -1) for a in axis):
                lines.append(node.lineno)
    return lines


def test_detects_a_row_norm_call():
    source = "n = linalg.norm(x)\nr = np.linalg.norm(x, axis=1)\ns = np.linalg.norm(x, None, 1)\n"
    assert row_norm_calls(source) == [2, 3]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "_kernels.py"],
    ids=lambda p: p.name,
)
def test_row_norms_have_one_implementation(path):
    """``_kernels.row_norms`` is the one per-row Euclidean norm; it gives the
    bits of ``np.linalg.norm(x, axis=1)``."""
    assert row_norm_calls(path.read_text()) == []
