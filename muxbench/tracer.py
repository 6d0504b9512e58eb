"""Span tracing from the benchmark's side of every layer boundary.

The tracer replaces, *on the instance*, the public methods of the layer
objects reachable from ``Stack`` with timing wrappers; nothing under
``src/`` changes and ``uninstall`` removes every wrapper again.  A name in
the tables below that an object no longer has is skipped and reported in
``Tracer.missing`` — never an error — so a refactor that renames a method
loses one span, not the benchmark.

Each span records (id, parent id, layer, label, host start, host end, op
id).  *Self time* is a span's duration minus what its child spans cover:

* host clock — children nest strictly (one thread, synchronous calls), so
  coverage is the sum of the children's durations;
* simulated clock — ``clock.now_ns`` is read at entry and exit.  Children
  may run in parallel clock frames, so coverage is the union of their
  ``[entry, exit]`` intervals clipped to the parent's own.  Spans entered
  on a background frame are left out of the simulated account altogether
  (their cost shows up in the devices' ``bg_ops``/``busy_ns`` instead).

Reading ``clock.now_ns`` and ``clock.in_background`` has no side effect,
which is why the traced pass reproduces the untraced fingerprint exactly.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

from muxbench.metrics import LAYERS

FS_OPS = (
    "create", "open", "close", "unlink", "rename", "link", "mkdir", "rmdir",
    "readdir", "read", "read_into", "write", "truncate", "fsync",
    "punch_hole", "getattr", "setattr", "statfs", "sync",
)
VFS_OPS = tuple(op for op in FS_OPS if op != "sync") + ("exists", "read_file", "write_file")
RING_OPS = ("submit_read", "submit_write", "submit_fsync", "wait", "poll", "drain")
CLUSTER_RING_OPS = ("submit_read", "submit_write", "submit_fsync", "poll", "drain")
CLUSTER_OPS = FS_OPS + ("set_placement", "rebalance", "migrate_subtree")
CACHE_OPS = (
    "get", "get_many", "put", "put_many", "write_hit", "span_cached",
    "invalidate", "invalidate_range", "invalidate_file", "load_for_destage",
    "mark_clean",
)
POLICY_OPS = ("maintain", "maintain_async")
MIGRATION_OPS = ("tick", "drain", "submit", "migrate_now")
MIRROR_OPS = ("tick", "drain", "add_mirror", "drop_mirror", "sync_file")
PAGECACHE_OPS = (
    "get", "get_span", "put", "put_span", "span_cached", "contains",
    "flush_inode", "flush_all", "dirty_items", "mark_clean",
    "invalidate_inode", "invalidate_range", "invalidate_from", "drop_clean",
)
#: ``_write_txn`` is where a transaction commit reaches the journal region
JOURNAL_OPS = ("_write_txn", "checkpoint")
DEVICE_OPS = ("read_blocks", "write_blocks", "flush")
PM_OPS = DEVICE_OPS + ("load", "store", "load_run", "store_run", "flush_range", "drain")


class LayerTotals:
    __slots__ = ("calls", "host_self_ns", "sim_self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.host_self_ns = 0
        self.sim_self_ns = 0


class Tracer:
    def __init__(self, clock=None, now_ns=time.perf_counter_ns) -> None:
        self._clock = clock
        self._now_ns = now_ns
        self._totals: Dict[str, LayerTotals] = {layer: LayerTotals() for layer in LAYERS}
        #: open spans, innermost last: [span id, child host ns, child sim
        #: coverage ns, coverage high-water ns]
        self._stack: List[list] = []
        self._labels: Dict[Tuple[str, str], int] = {}
        self._next_id = 0
        self._op = -1
        self._wrapped: List[Tuple[object, str]] = []
        self.spans: List[tuple] = []
        self.phases: List[Tuple[str, int]] = []
        #: ``layer:attribute`` names the tables list but an object lacks
        self.missing: List[str] = []
        #: spans whose simulated self time had to be clamped to zero
        self.sim_clamped = 0

    # -- driver hooks ------------------------------------------------------

    def set_op(self, index: int) -> None:
        self._op = index

    def begin_phase(self, name: str) -> None:
        self.phases.append((name, self._next_id))

    def layer_totals(self) -> Dict[str, LayerTotals]:
        return self._totals

    # -- wrapping ----------------------------------------------------------

    def wrap(self, obj, attrs, layer: str) -> None:
        """Time ``obj.<attr>`` for every attr, on this instance only."""
        for attr in attrs:
            fn = getattr(obj, attr, None)
            if fn is None:
                self.missing.append(f"{layer}:{attr}")
                continue
            setattr(obj, attr, self._traced(fn, layer, attr.lstrip("_")))
            self._wrapped.append((obj, attr))

    def _traced(self, fn, layer: str, label: str):
        totals = self._totals[layer]
        stack = self._stack
        spans = self.spans
        clock = self._clock
        now_ns = self._now_ns
        layer_id = LAYERS.index(layer)
        label_id = self._labels.setdefault((layer, label), len(self._labels))

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            background = clock.in_background
            sim0 = clock.now_ns
            rec = [span_id, 0, 0, sim0]
            parent = stack[-1] if stack else None
            stack.append(rec)
            t0 = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now_ns()
                stack.pop()
                duration = t1 - t0
                totals.calls += 1
                totals.host_self_ns += duration - rec[1]
                if parent is not None:
                    parent[1] += duration
                if not background:
                    sim1 = clock.now_ns
                    covered = rec[2]
                    if rec[3] > sim1:
                        # the last child ran on another frame past our exit
                        covered -= rec[3] - sim1
                    own = sim1 - sim0 - covered
                    if own < 0:
                        own = 0
                        self.sim_clamped += 1
                    totals.sim_self_ns += own
                    if parent is not None:
                        start = sim0 if sim0 > parent[3] else parent[3]
                        if sim1 > start:
                            parent[2] += sim1 - start
                            parent[3] = sim1
                spans.append(
                    (span_id, parent[0] if parent is not None else -1,
                     layer_id, label_id, t0, t1, self._op)
                )

        return traced

    def install(self, rig) -> None:
        """Wrap every layer object reachable from the rig's stacks."""
        self._clock = rig.clock
        cluster = getattr(rig, "cluster", None)
        for stack in rig.stacks:
            mux = stack.mux
            self.wrap(stack.vfs, VFS_OPS, "vfs")
            self.wrap(mux, FS_OPS, "core.mux")
            self.wrap(mux, POLICY_OPS, "core.policy")
            self.wrap(mux.engine, MIGRATION_OPS, "core.migration")
            self.wrap(mux.mirrors, MIRROR_OPS, "core.mirror")
            if mux.cache is not None:
                self.wrap(mux.cache, CACHE_OPS, "core.cache")
            self._wrap_new_rings(mux)
            for tier, fs in stack.filesystems.items():
                self.wrap(fs, FS_OPS, f"fs.{fs.fs_name}")
                if getattr(fs, "page_cache", None) is not None:
                    self.wrap(fs.page_cache, PAGECACHE_OPS, "fscommon.pagecache")
                if getattr(fs, "journal", None) is not None:
                    self.wrap(fs.journal, JOURNAL_OPS, "fscommon.journal")
            for tier, device in stack.devices.items():
                self.wrap(device, PM_OPS if tier == "pm" else DEVICE_OPS, f"devices.{tier}")
        if cluster is not None:
            self.wrap(cluster, CLUSTER_OPS, "cluster")
            for shard in cluster.shards:
                self.wrap(shard.wire, FS_OPS, "fs.nfs")
        for ring in rig.rings if hasattr(rig, "rings") else ():
            if cluster is not None:
                self.wrap(ring, CLUSTER_RING_OPS, "cluster")
            else:
                self.wrap(ring, RING_OPS, "core.ring")

    def _wrap_new_rings(self, mux) -> None:
        """A cluster ring opens its per-shard rings lazily: wrap them as
        they appear."""
        open_ring = mux.open_ring

        def traced_open_ring(*args, **kwargs):
            ring = open_ring(*args, **kwargs)
            self.wrap(ring, RING_OPS, "core.ring")
            return ring

        mux.open_ring = traced_open_ring
        self._wrapped.append((mux, "open_ring"))

    def uninstall(self) -> None:
        for obj, attr in self._wrapped:
            try:
                delattr(obj, attr)
            except AttributeError:
                pass
        self._wrapped.clear()

    # -- output ------------------------------------------------------------

    def write(self, path, header: Dict[str, object]) -> None:
        labels = [None] * len(self._labels)
        for (layer, label), index in self._labels.items():
            labels[index] = f"{layer}:{label}"
        doc = dict(header)
        doc.update(
            layers=list(LAYERS),
            labels=labels,
            phases=[list(p) for p in self.phases],
            missing=self.missing,
            span_fields=["id", "parent", "layer", "label", "host_start_ns",
                         "host_end_ns", "op"],
            spans=self.spans,
        )
        with open(path, "w") as out:
            json.dump(doc, out, separators=(",", ":"))
