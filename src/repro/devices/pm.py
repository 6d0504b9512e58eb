"""Simulated persistent-memory device (Optane PMem class).

Persistent memory is byte addressable and accessed with CPU loads/stores;
durability requires explicitly flushing cache lines (CLWB/CLFLUSH, which
§3.1 highlights as the reason NOVA beats Strata's log-then-digest design).
The model exposes :meth:`load` / :meth:`store` at byte granularity plus
:meth:`flush_range`, and keeps track of how many cache lines were flushed.
"""

from __future__ import annotations

from repro.devices.base import Device
from repro.devices.profile import DeviceProfile, OPTANE_PMEM_200
from repro.errors import DeviceError
from repro.sim.clock import SimClock

CACHE_LINE = 64


class PersistentMemoryDevice(Device):
    """Byte-addressable persistent memory with explicit flush semantics."""

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        clock: SimClock,
        profile: DeviceProfile = OPTANE_PMEM_200,
        block_size: int = 4096,
    ) -> None:
        if not profile.byte_addressable:
            raise ValueError("PersistentMemoryDevice needs a byte-addressable profile")
        super().__init__(name, profile, capacity_bytes, clock, block_size)
        #: bytes store()d since the last flush_range covering them; tracked
        #: at cache-line granularity for persistence-ordering tests.  Kept
        #: as disjoint half-open [start, end) line intervals so a span
        #: store/flush is O(intervals), not O(lines).
        self._dirty_runs: list[tuple[int, int]] = []
        #: chunk size -> ``write_latency + transfer_ns(chunk)``, the cost of
        #: one store of that size (the profile is immutable)
        self._store_ns: dict[int, int] = {}

    def _mark_dirty(self, first_line: int, end_line: int) -> None:
        merged_lo, merged_hi = first_line, end_line
        keep: list[tuple[int, int]] = []
        for s, e in self._dirty_runs:
            if e < merged_lo or s > merged_hi:
                keep.append((s, e))
            else:
                merged_lo = min(merged_lo, s)
                merged_hi = max(merged_hi, e)
        keep.append((merged_lo, merged_hi))
        keep.sort()
        self._dirty_runs = keep

    def _clear_dirty(self, first_line: int, end_line: int) -> None:
        keep: list[tuple[int, int]] = []
        for s, e in self._dirty_runs:
            if e <= first_line or s >= end_line:
                keep.append((s, e))
            else:
                if s < first_line:
                    keep.append((s, first_line))
                if e > end_line:
                    keep.append((end_line, e))
        self._dirty_runs = keep

    # -- byte-granular DAX path ------------------------------------------------

    def _check_span(self, addr: int, length: int) -> None:
        if length < 0:
            raise DeviceError(f"{self.name}: negative length {length}")
        if addr < 0 or addr + length > self.capacity_bytes:
            raise DeviceError(
                f"{self.name}: span [{addr}, {addr + length}) exceeds capacity"
            )

    def _fault_blocks(self, addr: int, length: int) -> tuple[int, int]:
        """Block range covering [addr, addr+length) for fault decisions."""
        first = addr // self.block_size
        last = (addr + length - 1) // self.block_size
        return first, last - first + 1

    def load(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes at ``addr`` via the DAX path."""
        return self.load_run(addr, 1, length)

    def store(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr`` via the DAX path (volatile until flush).

        A single CPU store is atomic at this model's granularity: a run of
        one chunk never tears, error/offline faults still apply.
        """
        # an empty store still validates ``addr``; any chunk size divides it
        self.store_run(addr, data, len(data) or 1)

    def load_run(self, addr: int, count: int, chunk: int) -> bytes:
        """``count`` back-to-back loads of ``chunk`` bytes each.

        Timing-equivalent to ``count`` sequential :meth:`load` calls over a
        contiguous span (each charged its own latency), but the bytes move
        with one arena copy and the stats record ``count`` read ops.
        """
        length = count * chunk
        self._check_span(addr, length)
        if length == 0:
            return b""
        cost = count * (
            self.profile.read_latency_ns
            + self.profile.transfer_ns(chunk, write=False)
        )
        if self.faults is not None:
            cost += self.faults.extra_latency_ns(cost)
        self._occupy(cost)
        self.stats.record_read(length, cost, ops=count)
        if self.faults is not None:
            self.faults.check_read(*self._fault_blocks(addr, length))
        return self._peek_span(addr, length)

    def store_run(self, addr: int, data, chunk: int) -> None:
        """``count`` back-to-back stores of ``chunk`` bytes each.

        Timing-equivalent to storing ``data`` in ``chunk``-sized pieces at
        contiguous addresses, one :meth:`store` per piece.
        """
        length = len(data)
        if length % chunk or addr < 0 or addr + length > self.capacity_bytes:
            if length % chunk:
                raise DeviceError(
                    f"{self.name}: store_run length {length} not a multiple of {chunk}"
                )
            self._check_span(addr, length)
        if length == 0:
            return
        count = length // chunk
        per_store = self._store_ns.get(chunk)
        if per_store is None:
            per_store = self._store_ns[chunk] = (
                self.profile.write_latency_ns
                + self.profile.transfer_ns(chunk, write=True)
            )
        cost = count * per_store
        faults = self.faults
        if faults is not None:
            cost += faults.extra_latency_ns(cost)
        clock, timeline = self.clock, self.timeline  # _occupy, inlined
        clock.advance_to(timeline.acquire(clock.now_ns, cost, clock.in_background)[1])
        self.stats.record_write(length, cost, ops=count)
        if faults is not None:
            bno, cnt = self._fault_blocks(addr, length)
            fault = faults.check_write(bno, cnt, torn_units=count)
            if fault is not None:
                prefix_chunks, exc = fault
                if prefix_chunks > 0:
                    # Torn run: only the first stores reached media.
                    torn = bytes(data[: prefix_chunks * chunk])
                    self._poke_span(addr, torn)
                    self._mark_dirty(
                        addr // CACHE_LINE,
                        (addr + len(torn) - 1) // CACHE_LINE + 1,
                    )
                raise exc
        self._poke_span(addr, data)
        first = addr // CACHE_LINE
        end = (addr + length - 1) // CACHE_LINE + 1
        if self._dirty_runs:
            self._mark_dirty(first, end)
        else:
            self._dirty_runs = [(first, end)]

    def flush_range(self, addr: int, length: int, ops: int = 1) -> None:
        """Flush the cache lines covering [addr, addr+length) (CLWB model).

        ``ops`` lets one contiguous flush stand in for ``ops`` logical
        flush calls (same line count either way, so the cost is identical).
        """
        if length <= 0 or addr < 0 or addr + length > self.capacity_bytes:
            self._check_span(addr, length)
            if length == 0:
                return
        first = addr // CACHE_LINE
        end = (addr + length - 1) // CACHE_LINE + 1
        cost = (end - first) * self.profile.flush_latency_ns
        clock, timeline = self.clock, self.timeline  # _occupy, inlined
        clock.advance_to(timeline.acquire(clock.now_ns, cost, clock.in_background)[1])
        self.stats.record_flush(cost, ops=ops)
        runs = self._dirty_runs
        if len(runs) == 1 and first <= runs[0][0] and runs[0][1] <= end:
            # the usual store-then-flush: the one dirty run is covered
            self._dirty_runs = []
        elif runs:
            self._clear_dirty(first, end)

    def drain(self) -> None:
        """SFENCE model: order prior flushes.  Charged as one flush op."""
        self.clock.advance_ns(self.profile.flush_latency_ns)
        self.stats.record_flush(self.profile.flush_latency_ns)

    @property
    def unflushed_lines(self) -> int:
        """Cache lines written but not yet flushed (crash-consistency tests)."""
        return sum(e - s for s, e in self._dirty_runs)

    # -- span helpers over the arena --------------------------------------------

    def _peek_span(self, addr: int, length: int) -> bytes:
        ci, off = divmod(addr, self._chunk_bytes)
        if off + length <= self._chunk_bytes:
            # inside one chunk: a single copy straight into the result
            chunk = self._chunks.get(ci)
            if chunk is None:
                return bytes(length)
            return memoryview(chunk)[off : off + length].tobytes()
        out = bytearray(length)
        idx = 0
        while idx < length:
            ci, off = divmod(addr + idx, self._chunk_bytes)
            take = min(length - idx, self._chunk_bytes - off)
            chunk = self._chunks.get(ci)
            if chunk is not None:
                out[idx : idx + take] = chunk[off : off + take]
            idx += take
        return bytes(out)

    def _poke_span(self, addr: int, data) -> None:
        length = len(data)
        if length == 0:
            return
        ci, off = divmod(addr, self._chunk_bytes)
        if off + length <= self._chunk_bytes:
            # inside one chunk: one slice copy, presence marked in place
            chunk = self._chunks.get(ci)
            if chunk is None:
                chunk = self._chunks[ci] = bytearray(self._chunk_bytes)
            chunk[off : off + length] = data
            bs = self.block_size
            cb = off // bs
            run_mask = ((1 << ((off + length - 1) // bs - cb + 1)) - 1) << cb
            mask = self._present.get(ci, 0)
            added = run_mask & ~mask
            if added:
                self._materialized += added.bit_count()
                self._present[ci] = mask | run_mask
            return
        src = memoryview(data)
        idx = 0
        while idx < length:
            ci, off = divmod(addr + idx, self._chunk_bytes)
            take = min(length - idx, self._chunk_bytes - off)
            chunk = self._chunks.get(ci)
            if chunk is None:
                chunk = bytearray(self._chunk_bytes)
                self._chunks[ci] = chunk
            chunk[off : off + take] = src[idx : idx + take]
            idx += take
        first_b = addr // self.block_size
        last_b = (addr + length - 1) // self.block_size
        self._mark_present(first_b, last_b - first_b + 1)
