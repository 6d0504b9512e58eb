"""Write-ahead metadata journal (JBD2-style) over a device region.

Used by the Ext4 and XFS models (and by Strata's digest path).  The journal
is a linear log of committed transactions inside a reserved block range of
the device.  A transaction becomes durable exactly when its commit block
write returns; crash simulation therefore re-reads the region and replays
only transactions whose commit record made it out — the standard
write-ahead contract, testable end-to-end.

Record framing (per transaction)::

    block 0..n-1:  [MAGIC][seq][payload_len][pickled records...]
    last block:    includes COMMIT_MAGIC trailer after the payload

A transaction always occupies whole blocks; the payload is pickled Python
tuples ``(kind, fields_dict)``.
"""

from __future__ import annotations

import pickle
import struct
from typing import Callable, Dict, List, Tuple

from repro.devices.base import Device
from repro.errors import FsError
from repro.sim.stats import CounterSet

MAGIC = 0x4A524E4C  # "JRNL"
COMMIT_MAGIC = 0x434D5421  # "CMT!"
_HEADER = struct.Struct("<IQI")  # magic, seq, payload_len
_TRAILER = struct.Struct("<I")

JournalRecord = Tuple[str, Dict[str, object]]
ApplyFn = Callable[[str, Dict[str, object]], None]


class JournalFull(FsError):
    """The journal region is out of space; checkpoint and retry."""


class Transaction:
    """An open transaction accumulating records until commit."""

    def __init__(self, journal: "Journal") -> None:
        self._journal = journal
        self._records: List[JournalRecord] = []
        self._committed = False

    def add(self, kind: str, **fields: object) -> None:
        if self._committed:
            raise FsError("transaction already committed")
        self._records.append((kind, fields))

    def commit(self) -> None:
        """Write the transaction to the journal region; durable on return."""
        if self._committed:
            raise FsError("transaction already committed")
        self._committed = True
        if self._records:
            self._journal._write_txn(self._records)


class Journal:
    """Linear write-ahead log in ``device`` blocks [start, start+length)."""

    def __init__(self, device: Device, start_block: int, num_blocks: int) -> None:
        if num_blocks < 2:
            raise ValueError("journal needs at least 2 blocks")
        self.device = device
        self.start_block = start_block
        self.num_blocks = num_blocks
        self.block_size = device.block_size
        self._head = 0  # next free block offset within the region
        self._seq = 1
        #: committed but not yet checkpointed transactions, in order
        self._pending: List[Tuple[int, List[JournalRecord]]] = []
        self.stats = CounterSet()

    # -- write path ------------------------------------------------------------

    def begin(self) -> Transaction:
        return Transaction(self)

    def _write_txn(self, records: List[JournalRecord]) -> None:
        payload = pickle.dumps(records)
        body_len = _HEADER.size + len(payload) + _TRAILER.size
        blocks_needed = -(-body_len // self.block_size)
        if self._head + blocks_needed > self.num_blocks:
            raise JournalFull(
                f"journal full: need {blocks_needed} blocks, "
                f"{self.num_blocks - self._head} free"
            )
        frame = bytearray(blocks_needed * self.block_size)
        _HEADER.pack_into(frame, 0, MAGIC, self._seq, len(payload))
        frame[_HEADER.size : _HEADER.size + len(payload)] = payload
        _TRAILER.pack_into(frame, _HEADER.size + len(payload), COMMIT_MAGIC)
        self.device.write_blocks(self.start_block + self._head, bytes(frame))
        self._pending.append((self._seq, records))
        self._head += blocks_needed
        self._seq += 1
        self.stats.add("commits")
        self.stats.add("journal_blocks", blocks_needed)

    # -- checkpoint -------------------------------------------------------------

    @property
    def pending_transactions(self) -> int:
        return len(self._pending)

    @property
    def free_blocks(self) -> int:
        return self.num_blocks - self._head

    def checkpoint(self, apply_fn: ApplyFn) -> int:
        """Apply all pending transactions in order and reset the log.

        Returns the number of transactions applied.  ``apply_fn`` is called
        once per record; it must be idempotent (replays happen after crash).
        """
        applied = 0
        for _, records in self._pending:
            for kind, fields in records:
                apply_fn(kind, fields)
            applied += 1
        self._pending.clear()
        # Logically truncate the log.  A real journal writes a new superblock;
        # we model that as one block write.
        reset = bytes(self.block_size)
        self.device.write_blocks(self.start_block, reset)
        self._head = 0
        self.stats.add("checkpoints")
        return applied

    # -- recovery ---------------------------------------------------------------

    @staticmethod
    def _valid_records(records: object) -> bool:
        """Structural check on an unpickled payload: list of (str, dict)."""
        if not isinstance(records, list):
            return False
        for record in records:
            if not (isinstance(record, tuple) and len(record) == 2):
                return False
            kind, fields = record
            if not isinstance(kind, str) or not isinstance(fields, dict):
                return False
        return True

    def recover(self) -> List[List[JournalRecord]]:
        """Scan the journal region and return committed transactions in order.

        Used after a simulated crash: volatile state is gone, so the scan
        trusts only what the device holds.  The scan stops at the first
        malformed or missing frame (torn transaction = never committed).
        """
        recovered: List[List[JournalRecord]] = []
        offset = 0
        prev_seq = None
        while offset < self.num_blocks:
            header_block = self.device.read_blocks(self.start_block + offset, 1)
            magic, seq, payload_len = _HEADER.unpack_from(header_block, 0)
            if magic != MAGIC:
                break
            # sequence numbers are strictly consecutive within one log
            # generation; a jump means we ran into stale frames left over
            # from before the last checkpoint reset
            if prev_seq is not None and seq != prev_seq + 1:
                break
            body_len = _HEADER.size + payload_len + _TRAILER.size
            blocks = -(-body_len // self.block_size)
            if offset + blocks > self.num_blocks:
                break
            if blocks > 1:
                rest = self.device.read_blocks(self.start_block + offset + 1, blocks - 1)
                frame = header_block + rest
            else:
                frame = header_block
            (trailer,) = _TRAILER.unpack_from(frame, _HEADER.size + payload_len)
            if trailer != COMMIT_MAGIC:
                break  # torn write: commit record missing
            payload = bytes(frame[_HEADER.size : _HEADER.size + payload_len])
            try:
                records = pickle.loads(payload)
            except Exception:
                break
            # garbage bytes can unpickle into *something* (torn write that
            # preserved the framing but scrambled the payload); anything
            # that is not a well-formed record list is end-of-log
            if not self._valid_records(records):
                break
            recovered.append(records)
            prev_seq = seq
            offset += blocks
        self._head = offset
        self._pending = [(i + 1, recs) for i, recs in enumerate(recovered)]
        if prev_seq is not None:
            self._seq = prev_seq + 1  # never reuse sequence numbers
        self.stats.add("recoveries")
        return recovered
