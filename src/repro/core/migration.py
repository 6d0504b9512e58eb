"""Policy Runner / data movement engine (Figure 1c).

Executes :class:`~repro.core.policy.MigrationOrder`s produced by the
tiering policy, asynchronously (as cooperative tasks interleavable with
user operations) or synchronously (for benchmarks that measure steady-state
migration throughput).

Per the paper's extensibility claim (Figure 3a), Mux supports migration
between *every* pair of registered tiers: "supporting a migration path
takes a single line of code to invoke the migration function", because the
VFS abstracts device details away.  There is deliberately no per-pair
wiring here — contrast with :mod:`repro.strata`, which models Strata's
static routing and reports N/S for unwired pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import calibration as cal
from repro.core.metadata import CollectiveInode
from repro.core.occ import MigrationResult, OccSynchronizer
from repro.core.policy import MigrationOrder
from repro.errors import MigrationError
from repro.sim.stats import CounterSet
from repro.sim.tasks import Task, TaskRunner


@dataclass
class PairStats:
    """Accumulated migration traffic for one (src, dst) tier pair."""

    bytes_moved: int = 0
    busy_ns: int = 0
    migrations: int = 0

    def throughput_mb_s(self) -> float:
        """Steady-state MB/s over the simulated time spent migrating."""
        if self.busy_ns == 0:
            return 0.0
        return (self.bytes_moved / 1e6) / (self.busy_ns / 1e9)


class MigrationEngine:
    """Runs migrations through the OCC synchronizer."""

    def __init__(self, mux) -> None:  # mux: MuxFileSystem (circular type)
        self._mux = mux
        self.occ = OccSynchronizer(mux)
        self.runner = TaskRunner(clock=mux.clock)
        self.stats = CounterSet()
        self.pair_stats: Dict[Tuple[int, int], PairStats] = {}
        #: bytes en route to each destination tier from in-flight
        #: migrations — counted against the capacity gate so concurrent
        #: copies can't collectively overcommit a nearly-full tier (each
        #: one alone fits, together they starve the metadata journal)
        self._inflight_bytes: Dict[int, int] = {}
        #: in-flight async block ranges per inode — an order overlapping
        #: one is dropped instead of stacking OCC conflicts on the same
        #: blocks (the policy replans and resubmits next round); disjoint
        #: ranges of one file still migrate in parallel
        self._inflight_ranges: Dict[int, List[Tuple[int, int]]] = {}
        #: paced (defer_while_hot) copies currently running
        self._paced_live = 0

    # -- capability -------------------------------------------------------

    def supports(self, src_tier: int, dst_tier: int) -> bool:
        """Mux supports every pair of registered tiers (Figure 3a)."""
        tiers = self._mux.tier_ids()
        return src_tier in tiers and dst_tier in tiers and src_tier != dst_tier

    # -- async execution ------------------------------------------------------

    #: how many stalls at or above ``cal.DEFER_LOAD`` a paced migration
    #: tolerates before giving up entirely (ticks arrive roughly once per
    #: user op, so the budget spans a realistic burst, not just its head)
    MAX_DEFER_TICKS = 256
    #: how far past the global clock a tick-driven copy may book device
    #: time.  A background task runs on its own cursor; left unchecked it
    #: books an entire multi-millisecond copy into the device's future
    #: and every foreground op issued meanwhile counts that phantom
    #: backlog toward the saturation knee.  Real copiers issue a chunk,
    #: then wait for wall-clock to catch up.  Enforced by :meth:`tick`
    #: (the open-loop drivers), not inside the task: a caller stepping a
    #: task directly, or draining, *is* the synchronization point and
    #: gets the copy at full speed.
    MAX_BOOKAHEAD_NS = 200_000
    #: consecutive gated ticks tolerated before a task is stepped anyway
    #: (the clock is static in some drivers, so waiting must be finite)
    MAX_BOOKAHEAD_STALLS = 64
    #: paced copies allowed to run at once — each one books up to
    #: MAX_BOOKAHEAD_NS of device future, and that phantom backlog adds
    #: up linearly across tasks; a real mover has a small thread pool
    MAX_PACED_CONCURRENCY = 2

    def submit(self, order: MigrationOrder, defer_while_hot: bool = False) -> Task:
        """Start an asynchronous migration; returns its cooperative task.

        Submitted migrations run on *background time*: each copy chunk
        executes in a background clock frame against the device timelines,
        so user ops issued between steps only pay for the copy traffic
        when they contend for the same device channels.

        With ``defer_while_hot`` the copy is *paced*: before every chunk
        the task re-samples the destination's channel load and idles (up
        to :data:`MAX_DEFER_TICKS` stalls total) while it is at or above
        ``cal.DEFER_LOAD``.  Checking only once at submit is not enough —
        planning and execution are decoupled, so a target that was cool
        at plan time may be mid-burst by the time a later chunk lands,
        and one chunk dropped into a saturated queue is exactly what the
        knee model punishes quadratically.
        """
        self._validate(order)
        inode = self._mux.inode_by_ino(order.ino)
        gen = self._run_tracked(inode, order)
        if defer_while_hot:
            gen = self._paced(order, gen)
        return self.runner.spawn(
            self._exclusive(order, gen), background=self._mux.scheduler.parallel
        )

    def _exclusive(self, order: MigrationOrder, inner):
        """Drop async orders that overlap an in-flight copy of the file.

        Concurrent copies of the same blocks all conflict on the same
        collective inode, so stacking them just multiplies OCC aborts
        and lock fallbacks (which quiesce the rings).  An overlapping
        order gives up immediately; whatever still needs moving is
        rediscovered by the next planning round.  Disjoint ranges of one
        file are independent and still run in parallel.
        """
        ranges = self._inflight_ranges.setdefault(order.ino, [])
        span = (order.block_start, order.block_start + order.count)
        if any(start < span[1] and span[0] < end for start, end in ranges):
            self.stats.add("skipped_busy")
            inner.close()
            return MigrationResult(gave_up=True)
            yield  # pragma: no cover - makes this function a generator
        ranges.append(span)
        try:
            result = yield from inner
        finally:
            ranges.remove(span)
            if not ranges:
                self._inflight_ranges.pop(order.ino, None)
        return result

    def _paced(self, order: MigrationOrder, inner):
        """Interleave chunk copies with destination-load checks.

        Each stall is one cooperative yield; the budget is shared across
        the whole copy.  When it runs out the migration *gives up* rather
        than barging into the saturated queue — a copy forced through a
        burst pays the knee's quadratic penalty and makes the overload it
        was waiting out permanent; blocks it already moved simply stay
        uncommitted and the next planning round reissues the order once
        the device cools.
        """
        if self._paced_live >= self.MAX_PACED_CONCURRENCY:
            self.stats.add("skipped_throttled")
            inner.close()
            return MigrationResult(gave_up=True)
            yield  # pragma: no cover - makes this function a generator
        monitor = self._mux.pressure
        clock = self._mux.clock
        stalls = 0

        def hot() -> float:
            # a copy loads BOTH ends: reads hammer the source's channels
            # just as surely as writes hammer the destination's
            now = clock.global_now_ns
            return max(
                monitor.instant_load_of(order.src_tier, now),
                monitor.instant_load_of(order.dst_tier, now),
            )

        self._paced_live += 1
        try:
            while True:
                while hot() >= cal.DEFER_LOAD:
                    if stalls >= self.MAX_DEFER_TICKS:
                        self.stats.add("defer_aborts")
                        inner.close()
                        return MigrationResult(gave_up=True)
                    self.stats.add("defer_ticks")
                    stalls += 1
                    yield
                try:
                    next(inner)
                except StopIteration as stop:
                    return stop.value
                yield
        finally:
            self._paced_live -= 1

    def tick(self) -> int:
        """Advance every in-flight migration one step.

        Tasks whose time cursor has raced more than
        :data:`MAX_BOOKAHEAD_NS` past the global clock are held back
        (counted in ``bookahead_stalls``) instead of stepped, so the
        foreground ops interleaved between ticks don't knee-inflate
        against phantom future backlog.  A held task is stepped anyway
        after :data:`MAX_BOOKAHEAD_STALLS` consecutive gated ticks, so
        ticking under a static clock still makes progress.
        """
        if self.runner.idle:
            return 0
        horizon = self._mux.clock.global_now_ns + self.MAX_BOOKAHEAD_NS

        def gate(task) -> bool:
            cursor = task.cursor_ns
            streak = getattr(task, "bookahead_streak", 0)
            if cursor is None or cursor <= horizon or streak >= self.MAX_BOOKAHEAD_STALLS:
                task.bookahead_streak = 0
                return True
            task.bookahead_streak = streak + 1
            self.stats.add("bookahead_stalls")
            return False

        return self.runner.tick(gate)

    def drain(self) -> None:
        """Run all in-flight migrations to completion."""
        self.runner.drain()

    # -- sync execution -----------------------------------------------------------

    def migrate_now(self, order: MigrationOrder) -> MigrationResult:
        """Run one migration to completion immediately (benchmark helper)."""
        self._validate(order)
        inode = self._mux.inode_by_ino(order.ino)
        task = Task(self._run_tracked(inode, order))
        return task.join()

    # -- internals ---------------------------------------------------------------

    def _validate(self, order: MigrationOrder) -> None:
        if not self.supports(order.src_tier, order.dst_tier):
            raise MigrationError(
                f"bad migration pair {order.src_tier}->{order.dst_tier}"
            )
        if order.count <= 0 or order.block_start < 0:
            raise MigrationError(f"bad block range in {order}")

    def _run_tracked(self, inode: CollectiveInode, order: MigrationOrder):
        """Wrap the OCC generator with per-pair accounting."""
        # health gate: never start a movement toward a dead tier
        dst = self._mux.registry.get(order.dst_tier)
        if dst.health.is_offline:
            self.stats.add("skipped_offline")
            self.stats.add("gave_up")
            return MigrationResult(gave_up=True)
        # capacity gate: never start a movement the destination cannot
        # hold — counting bytes already en route there from concurrent
        # migrations, which have gated but not yet allocated
        need = min(order.count, inode.blt.blocks_on(order.src_tier))
        need_bytes = need * self._mux.block_size
        pending = self._inflight_bytes.get(order.dst_tier, 0)
        if not dst.make_room(need_bytes + pending):
            self.stats.add("skipped_no_space")
            return MigrationResult(aborted_no_space=True)
        pair = (order.src_tier, order.dst_tier)
        stats = self.pair_stats.setdefault(pair, PairStats())
        started_ns = self._mux.clock.now_ns
        # transient-fault retry/backoff happens inside the VFS Call Maker;
        # the deltas across the movement are this migration's share
        retries_before = self._mux.stats.get("fault_retries")
        backoff_before = self._mux.stats.get("fault_backoff_ns")
        self._inflight_bytes[order.dst_tier] = pending + need_bytes
        try:
            result = yield from self.occ.migrate(
                inode, order.block_start, order.count, order.src_tier, order.dst_tier
            )
        finally:
            self._inflight_bytes[order.dst_tier] -= need_bytes
        result.retries = self._mux.stats.get("fault_retries") - retries_before
        result.backoff_ns = self._mux.stats.get("fault_backoff_ns") - backoff_before
        stats.bytes_moved += result.bytes_moved
        stats.busy_ns += self._mux.clock.now_ns - started_ns
        stats.migrations += 1
        self.stats.add("migrations")
        self.stats.add("blocks_moved", result.moved_blocks)
        self.stats.add("runs_moved", result.committed_runs)
        self.stats.add("occ_attempts", result.attempts)
        self.stats.add("conflicts", result.conflicts)
        self.stats.add("retries", result.retries)
        self.stats.add("backoff_ns", result.backoff_ns)
        if result.gave_up:
            self.stats.add("gave_up")
        if result.lock_fallback:
            self.stats.add("lock_fallbacks")
        return result
