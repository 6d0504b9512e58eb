"""Block Lookup Table: which tier stores the current version of each block.

§2.2: "Block-level data distribution requires Mux to maintain the mapping
from a block to the underlying file systems (a file system's internal index
is invisible to Mux). ... Since the table maps file offsets to devices,
that are small in size, we use an extent tree as a high-performance data
structure."

Two interchangeable implementations are provided:

* :class:`ExtentBlt` — the paper's choice, an extent tree (coalesced runs);
* :class:`ByteArrayBlt` — the flat one-byte-per-block table §2.3 sizes
  ("one byte per 4 KB of user data"), kept as the ablation baseline.

Both expose the same interface; Mux charges their (different) lookup costs
from :mod:`repro.core.calibration`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core import calibration as cal
from repro.core.intervals import BlockIntervalSet, Run, intersect_runs, normalize_runs
from repro.fscommon.extents import ExtentTree

#: (first_block, count, tier_id or None-for-hole)
BltRun = Tuple[int, int, Optional[int]]

#: (first_block, count, authoritative_tier, clean-mirror tiers)
ReplicaRun = Tuple[int, int, Optional[int], Tuple[int, ...]]


class BlockLookupTable(ABC):
    """Per-file map from file block index to owning tier.

    ``version`` counts the :meth:`map_range`/:meth:`unmap_range` calls
    made on this table: anything derived from its contents (a planning
    :class:`~repro.core.policy.FileView`) stays valid while it is
    unchanged.
    """

    version: int = 0

    @abstractmethod
    def lookup(self, block: int) -> Optional[int]:
        """Tier id storing ``block``, or None for a hole."""

    @abstractmethod
    def map_range(self, start: int, count: int, tier_id: int) -> None:
        """Assign [start, start+count) to ``tier_id``."""

    @abstractmethod
    def unmap_range(self, start: int, count: int) -> None:
        """Mark [start, start+count) as holes."""

    @abstractmethod
    def runs(self, start: int, count: int) -> Iterator[BltRun]:
        """Decompose a range into per-tier runs (holes -> tier None)."""

    @abstractmethod
    def lookup_cost_ns(self, runs_touched: int, blocks_touched: int) -> int:
        """CPU cost of a lookup spanning the given runs/blocks."""

    @abstractmethod
    def tiers_used(self) -> List[int]:
        """Sorted tier ids that own at least one block."""

    @abstractmethod
    def blocks_on(self, tier_id: int) -> int:
        """Number of blocks currently owned by ``tier_id``."""

    @abstractmethod
    def mapped_blocks(self) -> int:
        """Total mapped (non-hole) blocks."""

    @abstractmethod
    def end_block(self) -> int:
        """One past the highest mapped block."""

    def memory_bytes(self) -> int:
        """Approximate metadata footprint (space-overhead accounting)."""
        return 0


class ExtentBlt(BlockLookupTable):
    """Extent-tree BLT (the paper's design)."""

    def __init__(self) -> None:
        self._tree = ExtentTree(value_is_offset=False)
        self._per_tier: Dict[int, int] = {}

    def lookup(self, block: int) -> Optional[int]:
        return self._tree.lookup(block)

    def map_range(self, start: int, count: int, tier_id: int) -> None:
        self.version += 1
        for run_start, run_len, old in list(self._tree.runs(start, count)):
            if old is not None:
                self._per_tier[old] -= run_len
        self._tree.map_range(start, count, tier_id)
        self._per_tier[tier_id] = self._per_tier.get(tier_id, 0) + count

    def unmap_range(self, start: int, count: int) -> None:
        self.version += 1
        for run_start, run_len, old in list(self._tree.runs(start, count)):
            if old is not None:
                self._per_tier[old] -= run_len
        self._tree.unmap_range(start, count)

    def runs(self, start: int, count: int) -> Iterator[BltRun]:
        return self._tree.runs(start, count)

    def lookup_cost_ns(self, runs_touched: int, blocks_touched: int) -> int:
        return cal.MUX_BLT_LOOKUP_NS + cal.MUX_BLT_RUN_NS * max(0, runs_touched - 1)

    def tiers_used(self) -> List[int]:
        return sorted(t for t, n in self._per_tier.items() if n > 0)

    def blocks_on(self, tier_id: int) -> int:
        return max(0, self._per_tier.get(tier_id, 0))

    def mapped_blocks(self) -> int:
        return self._tree.mapped_blocks

    def end_block(self) -> int:
        return self._tree.end_block()

    def memory_bytes(self) -> int:
        # one extent record: start + count + value + node overhead
        return len(self._tree) * 32

    def check_invariants(self) -> None:
        self._tree.check_invariants()
        recount: Dict[int, int] = {}
        for ext in self._tree:
            recount[ext.value] = recount.get(ext.value, 0) + ext.count
        for tier, n in recount.items():
            assert self._per_tier.get(tier, 0) == n, (tier, n, self._per_tier)


class ByteArrayBlt(BlockLookupTable):
    """Flat one-byte-per-block BLT (§2.3's space estimate; ablation)."""

    HOLE = 0xFF

    def __init__(self) -> None:
        self._table = bytearray()

    def _grow_to(self, blocks: int) -> None:
        if len(self._table) < blocks:
            self._table.extend(bytes([self.HOLE]) * (blocks - len(self._table)))

    def lookup(self, block: int) -> Optional[int]:
        if block >= len(self._table):
            return None
        value = self._table[block]
        return None if value == self.HOLE else value

    def map_range(self, start: int, count: int, tier_id: int) -> None:
        if not 0 <= tier_id < self.HOLE:
            raise ValueError(f"tier id {tier_id} does not fit in one byte")
        self.version += 1
        self._grow_to(start + count)
        self._table[start : start + count] = bytes([tier_id]) * count

    def unmap_range(self, start: int, count: int) -> None:
        self.version += 1
        end = min(start + count, len(self._table))
        if end > start:
            self._table[start:end] = bytes([self.HOLE]) * (end - start)

    def runs(self, start: int, count: int) -> Iterator[BltRun]:
        pos = start
        end = start + count
        while pos < end:
            tier = self.lookup(pos)
            run = 1
            while pos + run < end and self.lookup(pos + run) == tier:
                run += 1
            yield pos, run, tier
            pos += run

    def lookup_cost_ns(self, runs_touched: int, blocks_touched: int) -> int:
        return cal.MUX_BLT_BYTEARRAY_PER_BLOCK_NS * max(1, blocks_touched)

    def tiers_used(self) -> List[int]:
        return sorted({b for b in self._table if b != self.HOLE})

    def blocks_on(self, tier_id: int) -> int:
        return sum(1 for b in self._table if b == tier_id)

    def mapped_blocks(self) -> int:
        return sum(1 for b in self._table if b != self.HOLE)

    def end_block(self) -> int:
        for i in range(len(self._table) - 1, -1, -1):
            if self._table[i] != self.HOLE:
                return i + 1
        return 0

    def memory_bytes(self) -> int:
        return len(self._table)


# ---------------------------------------------------------------------------
# Replica sets: one authoritative copy plus mirrors with per-interval state
# ---------------------------------------------------------------------------


class ReplicaSet:
    """Per-file mirror map layered over the authoritative BLT mapping.

    The BLT stays the single source of truth for *authority*: every mapped
    block has exactly one owning tier, and writes/migrations only ever
    update that mapping.  A ``ReplicaSet`` additionally tracks, per mirror
    tier, which block intervals hold an in-sync (*clean*) copy of the
    authoritative bytes and which are *stale* (the authoritative copy was
    rewritten after the mirror was synced).  Clean intervals may serve
    reads; stale intervals must not, and the mirror-sync engine
    (:mod:`repro.core.mirror`) re-converges them in the background.

    All state is host-side interval algebra — no simulated-clock charges —
    and per-tier ``clean`` / ``stale`` sets are disjoint by construction.
    ``_clean`` is kept in ascending tier order (:meth:`add_tier` re-sorts
    it, removals keep it), so the read path walks the mirrors in the
    order :meth:`tiers` reports without sorting per read.
    """

    __slots__ = ("_clean", "_stale", "_stale_since")

    def __init__(self) -> None:
        self._clean: Dict[int, BlockIntervalSet] = {}
        self._stale: Dict[int, BlockIntervalSet] = {}
        #: simulated ns when each tier's stale set last became non-empty;
        #: the mirror-sync engine's deadline promotion keys off this
        self._stale_since: Dict[int, int] = {}

    # -- membership --------------------------------------------------------

    def tiers(self) -> List[int]:
        """Mirror tier ids, ascending."""
        return list(self._clean)

    def has_tier(self, tier_id: int) -> bool:
        return tier_id in self._clean

    def add_tier(self, tier_id: int) -> None:
        """Register ``tier_id`` as a mirror (initially tracking nothing)."""
        if tier_id not in self._clean:
            self._clean[tier_id] = BlockIntervalSet()
            self._stale[tier_id] = BlockIntervalSet()
            if tier_id < max(self._clean):
                self._clean = {t: self._clean[t] for t in sorted(self._clean)}

    def retire_tier(self, tier_id: int) -> List[Run]:
        """Drop a mirror tier; returns the runs it was tracking."""
        clean = self._clean.pop(tier_id, None)
        stale = self._stale.pop(tier_id, None)
        self._stale_since.pop(tier_id, None)
        runs: List[Run] = []
        if clean is not None:
            runs.extend(clean.runs())
        if stale is not None:
            runs.extend(stale.runs())
        return normalize_runs(runs)

    # -- per-tier views ----------------------------------------------------

    def clean_runs(self, tier_id: int) -> List[Run]:
        ivals = self._clean.get(tier_id)
        return ivals.runs() if ivals is not None else []

    def stale_runs(self, tier_id: int) -> List[Run]:
        ivals = self._stale.get(tier_id)
        return ivals.runs() if ivals is not None else []

    def tracked_runs(self, tier_id: int) -> List[Run]:
        """Clean plus stale runs — everything the mirror tier holds bytes for."""
        return normalize_runs(self.clean_runs(tier_id) + self.stale_runs(tier_id))

    def covers_clean(self, tier_id: int, start: int, count: int) -> bool:
        """True if the tier holds a clean copy of all of ``[start, +count)``."""
        if count <= 0:
            return count == 0
        ivals = self._clean.get(tier_id)
        return ivals is not None and ivals.covers(start, count)

    # -- state transitions -------------------------------------------------

    def mark_stale(
        self, tier_id: int, start: int, count: int, now_ns: int
    ) -> None:
        """The authoritative bytes in the range changed; the tier must resync."""
        if count <= 0 or tier_id not in self._clean:
            return
        self._clean[tier_id].remove_range(start, count)
        self._stale[tier_id].add_range(start, count)
        self._stale_since.setdefault(tier_id, now_ns)

    def note_write(
        self, start: int, count: int, dst_tier: int, now_ns: int
    ) -> None:
        """A write landed authoritatively on ``dst_tier``.

        Every *other* mirror's overlapping intervals go stale; the
        receiving tier stops mirroring the range entirely — a tier cannot
        mirror blocks it now owns authoritatively.
        """
        for tier_id in self._clean:
            if tier_id == dst_tier:
                self._clean[tier_id].remove_range(start, count)
                self._stale[tier_id].remove_range(start, count)
            else:
                self.mark_stale(tier_id, start, count, now_ns)
        self._refresh_stale_since()

    def mark_synced(self, tier_id: int, start: int, count: int) -> None:
        """The mirror-sync engine made the range durable on ``tier_id``."""
        if count <= 0 or tier_id not in self._clean:
            return
        self._stale[tier_id].remove_range(start, count)
        self._clean[tier_id].add_range(start, count)
        if not self._stale[tier_id]:
            self._stale_since.pop(tier_id, None)

    def clear_stale(self, tier_id: int, start: int, count: int) -> None:
        """Forget stale marks without promoting to clean (hole / no source)."""
        if tier_id in self._stale:
            self._stale[tier_id].remove_range(start, count)
            if not self._stale[tier_id]:
                self._stale_since.pop(tier_id, None)

    def drop_range(self, start: int, count: int) -> None:
        """The range was unmapped (truncate / punch); nothing mirrors it."""
        for tier_id in self._clean:
            self._clean[tier_id].remove_range(start, count)
            self._stale[tier_id].remove_range(start, count)
        self._refresh_stale_since()

    def on_moved(
        self, runs: List[Run], src_tier: int, dst_tier: int
    ) -> None:
        """Authority moved ``src_tier`` -> ``dst_tier`` for ``runs`` (OCC commit).

        The destination's mirror intervals are consumed (it is now the
        authority there) and the source's copies are punched by the OCC
        commit, so neither end may keep mirror state for the moved runs.
        Mirrors on *other* tiers stay valid: data movement does not change
        the content of the data (§2.4).
        """
        for start, count in runs:
            for tier_id in (src_tier, dst_tier):
                if tier_id in self._clean:
                    self._clean[tier_id].remove_range(start, count)
                    self._stale[tier_id].remove_range(start, count)
        self._refresh_stale_since()

    def mark_all_stale(self, now_ns: int) -> None:
        """Crash path: every mirror interval must re-prove itself.

        The sync-state map is DRAM metadata; after a crash a mirror may
        hold torn or missing bytes, so recovery must never serve a mirror
        interval as clean until the sync engine recopied it.
        """
        for tier_id, clean in self._clean.items():
            for start, length in clean.runs():
                self._stale[tier_id].add_range(start, length)
            clean.clear()
            if self._stale[tier_id]:
                self._stale_since.setdefault(tier_id, now_ns)

    def _refresh_stale_since(self) -> None:
        for tier_id in list(self._stale_since):
            stale = self._stale.get(tier_id)
            if stale is None or not stale:
                self._stale_since.pop(tier_id, None)

    # -- queries -----------------------------------------------------------

    def has_stale(self) -> bool:
        return any(self._stale.values())

    def stale_blocks(self) -> int:
        return sum(len(s) for s in self._stale.values())

    def clean_blocks(self, tier_id: int) -> int:
        ivals = self._clean.get(tier_id)
        return len(ivals) if ivals is not None else 0

    def stale_since_ns(self, tier_id: int) -> Optional[int]:
        """When the tier's stale set became non-empty (None if in sync)."""
        return self._stale_since.get(tier_id)

    def check_invariants(self) -> None:
        assert set(self._clean) == set(self._stale)
        assert list(self._clean) == sorted(self._clean)
        for tier_id, clean in self._clean.items():
            overlap = intersect_runs(clean.runs(), self._stale[tier_id].runs())
            assert not overlap, (tier_id, overlap)
            if self._stale[tier_id]:
                assert tier_id in self._stale_since, tier_id
            else:
                assert tier_id not in self._stale_since, tier_id


def replica_runs(
    runs: Iterable[BltRun], replicas: Optional[ReplicaSet]
) -> Iterator[ReplicaRun]:
    """Split BLT ``runs`` (``blt.runs(start, count)``) into runs annotated
    with their clean mirror tiers.

    Each yielded ``(first_block, count, tier, mirrors)`` run has a uniform
    replica set: ``tier`` is the authoritative owner from the BLT (None for
    holes) and ``mirrors`` the tiers whose *clean* intervals fully cover
    the run.  This is the read path's routing substrate: any tier in
    ``{tier} | mirrors`` can serve the run's bytes.  Taking the runs, not
    the BLT, lets the read path walk the BLT once for its lookup cost and
    its routing.  A run every mirror either covers cleanly or misses
    entirely — the common case — is yielded whole without cutting it.
    """
    if replicas is None:
        for run_start, run_len, tier in runs:
            yield run_start, run_len, tier, ()
        return
    clean = replicas._clean  # ascending tier order
    for run_start, run_len, tier in runs:
        if tier is None:
            yield run_start, run_len, tier, ()
            continue
        full: List[int] = []
        for mirror, ivals in clean.items():
            if mirror == tier:
                continue
            if ivals.covers(run_start, run_len):
                full.append(mirror)
            elif ivals.overlap(run_start, run_len):
                break
        else:
            yield run_start, run_len, tier, tuple(full)
            continue
        # a partial cover: cut the run at every edge of a clean interval
        # into runs with a uniform mirror set
        cover: List[Tuple[int, int, int]] = []  # (start, end, mirror tier)
        cuts = {run_start, run_start + run_len}
        for mirror, ivals in clean.items():
            if mirror == tier:
                continue
            for s, n in ivals.overlap(run_start, run_len):
                cover.append((s, s + n, mirror))
                cuts.add(s)
                cuts.add(s + n)
        pts = sorted(cuts)
        pending: Optional[Tuple[int, int, Tuple[int, ...]]] = None
        for a, b in zip(pts, pts[1:]):
            mirrors = tuple(m for s, e, m in cover if s <= a and b <= e)
            if pending is not None and pending[2] == mirrors and pending[1] == a:
                pending = (pending[0], b, mirrors)
            else:
                if pending is not None:
                    yield pending[0], pending[1] - pending[0], tier, pending[2]
                pending = (a, b, mirrors)
        if pending is not None:
            yield pending[0], pending[1] - pending[0], tier, pending[2]
