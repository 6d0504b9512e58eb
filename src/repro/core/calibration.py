"""Software-path cost constants for the Mux layer.

Every per-operation CPU cost Mux charges to the simulated clock is named
here, with the mechanism it models.  These are the reproduction's analogue
of "how long the kernel code path takes"; they were chosen once against the
device profiles in :mod:`repro.devices.profile` so the paper's overhead
*shapes* hold (§3.2: Mux adds per-operation latency that is large relative
to a PM access, modest relative to an SSD access and small relative to an
HDD access; write overheads are small because they amortize over 4 MB).

Nothing in the test suite depends on the exact values; tests assert signs
and orderings, benchmarks report magnitudes next to the paper's numbers.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Mux VFS-call processing (Figure 1c components)
# ---------------------------------------------------------------------------

#: VFS Call Processor + Cache Controller entry: request validation,
#: collective-inode lookup.
MUX_OP_BASE_NS = 250

#: Block Lookup Table query via the extent tree: one descent.
MUX_BLT_LOOKUP_NS = 150

#: Extra cost per additional extent run touched by a split request.
MUX_BLT_RUN_NS = 80

#: Flat byte-array BLT (ablation): constant-time per *block* touched.
MUX_BLT_BYTEARRAY_PER_BLOCK_NS = 25

#: Metadata Tracker: affinity bookkeeping per attribute update.
MUX_AFFINITY_NS = 70

#: OCC Synchronizer: version read + migration-flag check on the hot path.
MUX_OCC_CHECK_NS = 60

#: FS Multiplexer: building one delegated sub-request (handle translation,
#: offset rewrite) — charged per sub-request, on top of the downstream
#: VFS dispatch and file-system costs.
MUX_DISPATCH_NS = 200

#: Policy Runner: one placement-policy invocation.
MUX_POLICY_NS = 120

# ---------------------------------------------------------------------------
# Metadata affinity lazy synchronization (§2.3)
# ---------------------------------------------------------------------------

#: Mux propagates the affinitive atime to the owning file system every Nth
#: read of a file ("lazily synchronizes participating file systems").  On a
#: journaling FS that setattr commits a journal transaction, so the slow
#: tier pays a real (amortized) cost on the read path.
ATIME_SYNC_INTERVAL = 16

#: Same, for mtime/size on the write path.
MTIME_SYNC_INTERVAL = 64

# ---------------------------------------------------------------------------
# Mux metafile ("Mux maintains its own metadata like block lookup table,
# file affinity table, etc." — §2.3, persisted in Mux's separate metafile
# storage, §3.1)
# ---------------------------------------------------------------------------

#: serialized size of one Mux metadata record (BLT delta, affinity change,
#: collective-inode attribute update)
META_RECORD_BYTES = 64

#: Mux batches metadata records and persists them (append + fsync on the
#: metafile) every Nth record — the "lazy synchronization" knob.
META_SYNC_RECORDS = 48

# ---------------------------------------------------------------------------
# SCM cache manager (§2.5)
# ---------------------------------------------------------------------------

#: Cache-controller lookup (hash of (ino, block) -> slot).
CACHE_LOOKUP_NS = 120

#: MGLRU bookkeeping per insertion/promotion (generation list moves).
CACHE_MGLRU_NS = 180

#: Slot metadata persist: pointer + generation tag store/flush on PM.
CACHE_SLOT_META_NS = 150

#: Only tiers at least this many ranks below the cache device are cached
#: (caching PM-resident data in a PM cache is pointless).
CACHE_MIN_RANK_GAP = 1

#: Dirty-interval bookkeeping per write absorbed in place by the cache
#: (write-back mode): interval insert + persisted dirty tag on PM.
CACHE_DIRTY_META_NS = 160

#: Dispatch cost per coalesced destage run (building the slow-tier write
#: request for one contiguous dirty extent).
CACHE_DESTAGE_RUN_NS = 400

#: Simulated-time writeback budget: destage all dirty blocks once at least
#: this much simulated time has passed since the previous destage cycle.
CACHE_WRITEBACK_INTERVAL_NS = 2_000_000

#: Destage everything once dirty blocks exceed this fraction of cache
#: capacity (pressure trigger, independent of the time budget).
CACHE_WRITEBACK_MAX_DIRTY_FRAC = 0.25

# ---------------------------------------------------------------------------
# OCC migration (§2.4)
# ---------------------------------------------------------------------------

#: Blocks copied per migration step (one yield per chunk).
MIGRATION_CHUNK_BLOCKS = 64

#: OCC retries before falling back to lock-based migration.
OCC_MAX_RETRIES = 3

#: Cost of taking/releasing the fallback per-file lock.
LOCK_FALLBACK_NS = 900

#: Per-channel backlog (requests queued on a device timeline per channel)
#: at either end of a background copy at or above which the copy defers: a
#: paced migration stalls, a mirror sync skips the tick.  One threshold
#: for both movers — they contend for the same background channels.
DEFER_LOAD = 1.0

# ---------------------------------------------------------------------------
# Async submit/complete ring (io_uring-style user API)
# ---------------------------------------------------------------------------

#: Building one submission-queue entry + doorbell: request validation and
#: enqueue on the ring, charged foreground per submit (the analogue of
#: io_uring_enter's per-SQE cost).
RING_SUBMIT_NS = 150

#: Harvesting one completion-queue entry (CQE read + ring head update).
RING_REAP_NS = 40

# ---------------------------------------------------------------------------
# Degraded mode (fault injection)
# ---------------------------------------------------------------------------

#: First retry delay after a transient device error (simulated ns).
FAULT_RETRY_BASE_NS = 50_000

#: Exponential backoff multiplier between transient-fault retries.
FAULT_BACKOFF_MULT = 2

#: Transient-fault retries before the operation gives up with EIO.
FAULT_MAX_RETRIES = 6

# ---------------------------------------------------------------------------
# Strata baseline (§3.1)
# ---------------------------------------------------------------------------

#: Strata per-operation software cost (its kernel/LibFS split path).
STRATA_OP_NS = 2000

#: Size of one digest unit: Strata moves data from the PM log to its final
#: device in small fixed units, so slow devices see many small writes
#: instead of the large batched extents a production FS would issue.
STRATA_DIGEST_UNIT_BLOCKS = 16

#: Extent-tree partial-lock hold time charged to operations that touch a
#: file while any migration/digest is in flight (§3.1: "the file extent
#: tree ... has to be partially locked during block-level data migration").
STRATA_TREE_LOCK_NS = 1500

#: Per log-entry append bookkeeping beyond the PM stores themselves.
STRATA_LOG_ENTRY_NS = 300

#: Blocks per device write during digest/migration.  Strata issues I/O at
#: log-entry granularity, so its device writes batch far fewer blocks than
#: a production file system's delayed-allocation writeback.
STRATA_DEVICE_BATCH_BLOCKS = 3

#: Blocks per device write on Strata's *migration* path.  Migration is the
#: bolted-on feature (§3.1: each path requires manually matching threading
#: model, block size and call context), and moves data with less batching
#: than the digest fast path.
STRATA_MIGRATION_BATCH_BLOCKS = 2
