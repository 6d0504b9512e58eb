"""Layering: Mux talks to file systems, not device drivers — in the import
graph and in the attribute accesses, not just in the docstrings.

``core/``, ``cluster/``, ``vfs/`` and ``sim/`` (and the crash explorer,
which assembles its stack through ``repro.stack.build_stack``) may know a
tier only as a :class:`repro.vfs.interface.FileSystem`.  Every import is
found by walking the AST, so lazy function-level imports count too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: what the layered modules may not import: concrete file systems, their
#: shared skeleton, the Strata baseline and concrete devices
FORBIDDEN = (
    "repro.fs",
    "repro.fscommon",
    "repro.strata",
    "repro.devices",
)

#: importable by any layered module: the paper's device profiles
#: (``DeviceKind`` ranks tiers, ``DeviceProfile`` describes them) — data,
#: not drivers
ALLOWED_EVERYWHERE = ("repro.devices.profile",)

#: the complete per-module allow-list: (module path under src/repro, import)
ALLOWED = {
    # the BLT reuses the extent tree, a pure data structure
    ("core/blt.py", "repro.fscommon.extents"),
    # the cluster's wire *is* a NetworkFileSystem per shard (paper §4)
    ("cluster/cluster.py", "repro.fs.nfs"),
}

#: attributes that reach through a file system into its implementation
FORBIDDEN_ATTRS = {
    "device", "pm", "inodes", "blockmap", "page_cache", "journal", "allocator",
}


def _layered_modules():
    paths = []
    for package in ("core", "cluster", "vfs", "sim"):
        paths.extend(sorted((SRC / package).glob("*.py")))
    paths.append(SRC / "tools" / "crashexplore.py")
    return paths


def _imports(tree):
    """Every module name an ``import``/``from`` statement anywhere in the
    tree pulls in (``from a.b import c`` yields ``a.b`` and ``a.b.c``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _under(name, prefix):
    return name == prefix or name.startswith(prefix + ".")


@pytest.mark.parametrize(
    "path", _layered_modules(), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_concrete_fs_or_device_imports(path):
    rel = path.relative_to(SRC).as_posix()
    tree = ast.parse(path.read_text())
    bad = sorted(
        {
            name
            for name in _imports(tree)
            if any(_under(name, f) for f in FORBIDDEN)
            and not any(_under(name, a) for a in ALLOWED_EVERYWHERE)
            and not any(rel == mod and _under(name, a) for mod, a in ALLOWED)
        }
    )
    assert not bad, f"{rel} imports {bad}"


def test_allow_list_has_no_dead_entries():
    for mod, name in ALLOWED:
        tree = ast.parse((SRC / mod).read_text())
        assert any(_under(i, name) for i in _imports(tree)), (mod, name)


@pytest.mark.parametrize(
    "path",
    sorted((SRC / "core").glob("*.py")) + sorted((SRC / "cluster").glob("*.py")),
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_reaching_through_a_file_system(path):
    tree = ast.parse(path.read_text())
    bad = sorted(
        {
            f"{node.attr} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRS
        }
    )
    assert not bad, f"{path.relative_to(SRC)} touches {bad}"


def test_core_has_no_type_checks_on_tiers():
    """The grep from the issue, as a test: no ``isinstance(..FileSystem)``
    and no ``getattr(fs, ...)`` digging under ``core/``."""
    for path in sorted((SRC / "core").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            if node.func.id == "isinstance" and len(node.args) == 2:
                assert "FileSystem" not in ast.unparse(node.args[1]), (
                    path.name, node.lineno,
                )
            if node.func.id == "getattr" and node.args:
                assert ast.unparse(node.args[0]) != "fs", (path.name, node.lineno)


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_private_names_cross_a_module_boundary(path):
    """A ``_name`` is its module's own: another module that needs it is
    the signal to make it public (or move it), not to reach in."""
    bad = sorted(
        f"{alias.name} from {node.module} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )
    assert not bad, f"{path.relative_to(SRC)} imports {bad}"


#: the known reaches into another module's private state, outside ``core/``:
#: (module path under src/repro, attribute).  Checked for dead entries.
PRIVATE_REACHES = {
    # fsck audits a native file system from the inside
    ("tools/fsck.py", "_delalloc"),
    ("tools/fsck.py", "_root"),
    ("tools/fsck.py", "_resolve"),
    # the crash explorer lands the torn prefix of a media write
    ("tools/crashexplore.py", "_write_span_raw"),
}


def _is_own_base(node):
    if isinstance(node, ast.Name):
        return node.id in ("self", "cls")
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def _foreign_private_attrs(tree):
    """``_names`` read off an object other than self/cls/super() that the
    module itself never defines (as a def, a class, a variable or an
    attribute it sets on self)."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and _is_own_base(node.value)
        ):
            own.add(node.attr)
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not _is_own_base(node.value)
        and node.attr not in own
    }


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_private_attribute_of_another_modules_object(path):
    """What another module needs of an object is that object's public
    surface: ``mux._destage_file`` from fsck was the signal to publish it
    (``mux.cachectl.destage_file``), not to reach in."""
    rel = path.relative_to(SRC).as_posix()
    bad = sorted(
        attr
        for attr in _foreign_private_attrs(ast.parse(path.read_text()))
        if (rel, attr) not in PRIVATE_REACHES
    )
    assert not bad, f"{rel} reaches into {bad}"


def test_private_reach_list_has_no_dead_entries():
    for mod, attr in PRIVATE_REACHES:
        tree = ast.parse((SRC / mod).read_text())
        assert attr in _foreign_private_attrs(tree), (mod, attr)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted((SRC / "core").glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_core_collaborators_do_not_import_the_facade(path):
    """``MuxFileSystem`` composes its collaborators; none of them may
    import it back (the package ``__init__`` re-exports it, nothing else)."""
    tree = ast.parse(path.read_text())
    assert not any(_under(name, "repro.core.mux") for name in _imports(tree)), path.name
