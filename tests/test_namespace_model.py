"""Property test: namespace operations match a reference tree model.

Random sequences of create/mkdir/unlink/rmdir/rename run in lockstep
against a plain dict-of-dicts model; the file system (every native FS and
Mux) must agree on success/failure and on the resulting tree.  On Mux
every created file is pinned to a drawn tier and gets one block written,
and afterwards no tier may hold a backing file nobody owns.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.devices.pm import PersistentMemoryDevice
from repro.errors import FsError
from repro.fs.nova import NovaFileSystem
from repro.sim.clock import SimClock
from repro.stack import MOUNTS, build_stack

MIB = 1024 * 1024
TIERS = ["pm", "ssd", "hdd"]

NAMES = ["a", "b", "c", "d"]
# small path universe so operations collide interestingly
PATHS = (
    [f"/{n}" for n in NAMES]
    + [f"/{p}/{n}" for p in NAMES[:2] for n in NAMES]
)

op_strategy = st.tuples(
    st.sampled_from(["create", "mkdir", "unlink", "rmdir", "rename"]),
    st.sampled_from(PATHS),
    st.sampled_from(PATHS),
    st.sampled_from(TIERS),  # where a created file's block goes (Mux only)
)


class TreeModel:
    """Reference namespace: nested dicts; leaves are the string 'file'."""

    def __init__(self) -> None:
        self.root: dict = {}

    def _walk_parent(self, path: str):
        parts = [p for p in path.split("/") if p]
        node = self.root
        for part in parts[:-1]:
            child = node.get(part)
            if not isinstance(child, dict):
                raise KeyError("bad parent")
            node = child
        return node, parts[-1]

    def lookup(self, path: str):
        parts = [p for p in path.split("/") if p]
        node = self.root
        for part in parts:
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        return node

    def create(self, path: str) -> None:
        parent, name = self._walk_parent(path)
        if name in parent:
            raise KeyError("exists")
        parent[name] = "file"

    def mkdir(self, path: str) -> None:
        parent, name = self._walk_parent(path)
        if name in parent:
            raise KeyError("exists")
        parent[name] = {}

    def unlink(self, path: str) -> None:
        parent, name = self._walk_parent(path)
        if parent.get(name) != "file":
            raise KeyError("not a file")
        del parent[name]

    def rmdir(self, path: str) -> None:
        parent, name = self._walk_parent(path)
        node = parent.get(name)
        if not isinstance(node, dict) or node:
            raise KeyError("not an empty dir")
        del parent[name]

    def rename(self, old: str, new: str) -> None:
        old_parent, old_name = self._walk_parent(old)
        if old_name not in old_parent:
            raise KeyError("missing source")
        if old == new:
            return  # successful no-op
        if new.startswith(old + "/"):
            raise KeyError("into itself")
        new_parent, new_name = self._walk_parent(new)
        moving = old_parent[old_name]
        existing = new_parent.get(new_name)
        if existing is not None:
            if isinstance(existing, dict):
                if not isinstance(moving, dict) or existing:
                    raise KeyError("bad overwrite")
            elif isinstance(moving, dict):
                raise KeyError("file over dir")
        del old_parent[old_name]
        new_parent[new_name] = moving

    def listing(self, node=None, prefix="/"):
        node = self.root if node is None else node
        out = {}
        for name, child in node.items():
            path = prefix.rstrip("/") + "/" + name
            if isinstance(child, dict):
                out[path] = sorted(child)
                out.update(self.listing(child, path))
            else:
                out[path] = "file"
        return out


def plain_create(fs, path, tier):
    fs.close(fs.create(path))


def run_ops(fs, ops, create=plain_create):
    model = TreeModel()
    for op, path1, path2, tier in ops:
        try:
            if op == "create":
                model.create(path1)
            elif op == "mkdir":
                model.mkdir(path1)
            elif op == "unlink":
                model.unlink(path1)
            elif op == "rmdir":
                model.rmdir(path1)
            else:
                model.rename(path1, path2)
            model_ok = True
        except KeyError:
            model_ok = False
        try:
            if op == "create":
                create(fs, path1, tier)
            elif op == "mkdir":
                fs.mkdir(path1)
            elif op == "unlink":
                fs.unlink(path1)
            elif op == "rmdir":
                fs.rmdir(path1)
            else:
                fs.rename(path1, path2)
            fs_ok = True
        except FsError:
            fs_ok = False
        assert fs_ok == model_ok, (op, path1, path2)
    # final trees agree
    for path, expect in model.listing().items():
        if expect == "file":
            assert not fs.getattr(path).is_dir, path
        else:
            assert fs.readdir(path) == expect, path


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, max_size=30))
def test_native_fs_namespace_matches_model(ops):
    clock = SimClock()
    fs = NovaFileSystem("nova", PersistentMemoryDevice("pm", 16 * MIB, clock), clock)
    run_ops(fs, ops)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, max_size=25))
@example(
    # rename over a file whose block lives on a tier the moving file never
    # touched: the replaced file's backing file must go with it
    ops=[
        ("create", "/a", "/a", "ssd"),
        ("create", "/b", "/b", "hdd"),
        ("rename", "/a", "/b", "pm"),
    ]
)
def test_mux_namespace_matches_model(ops):
    stack = build_stack(
        capacities={"pm": 8 * MIB, "ssd": 16 * MIB, "hdd": 16 * MIB},
        enable_cache=False,
    )
    mux = stack.mux

    def create_on_tier(fs, path, tier):
        handle = fs.create(path)
        fs.set_placement(path, stack.tier_ids[tier])
        fs.write(handle, 0, b"\xa5" * fs.block_size)
        fs.close(handle)

    run_ops(mux, ops, create_on_tier)
    # no orphans: every regular file under a tier mount backs a live file
    # that lists the tier (Mux's own .mux_* files aside)
    owners = {
        (tier_id, inode.rel_path)
        for inode in mux.ns.files()
        for tier_id in inode.tiers_present
    }
    for tier in TIERS:
        for rel in backing_files(stack.vfs, MOUNTS[tier]):
            assert (stack.tier_ids[tier], rel) in owners, (tier, rel)


def backing_files(vfs, mount, rel=""):
    """Paths (relative to ``mount``) of the regular files under it."""
    for name in vfs.readdir(mount + rel):
        if name.startswith(".mux_"):
            continue
        path = f"{rel}/{name}"
        if vfs.getattr(mount + path).is_dir:
            yield from backing_files(vfs, mount, path)
        else:
            yield path
