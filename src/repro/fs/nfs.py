"""Networked file system adapter — the first step toward Distributed Mux.

§4 ("Distributed Mux"): "it is possible that a set of machines mounting
traditional file systems can be integrated into a distributed storage
system ... We plan to start with attaching networked file systems as one
of the underlying file systems."

:class:`NetworkFileSystem` wraps any local :class:`FileSystem` behind a
simulated network: every operation pays a round trip, and data-bearing
operations additionally pay transfer time at the link bandwidth.  Because
it implements the same VFS interface, it plugs into Mux as just another
tier — no Mux changes required, which is precisely the extensibility
argument the paper makes.
"""

from __future__ import annotations

from typing import List

from repro.devices.profile import DeviceKind, DeviceProfile
from repro.errors import DeviceIoError, DeviceOffline, TierUnavailable
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.vfs.interface import FileHandle, FileSystem, OpenFlags
from repro.vfs.stat import FsStats, Stat


def network_profile(rtt_us: float, bandwidth: float) -> DeviceProfile:
    """A device profile describing the remote tier for Mux's scheduler
    and policies (latency = RTT, bandwidth = link rate)."""
    return DeviceProfile(
        name=f"network (rtt {rtt_us:.0f}us)",
        kind=DeviceKind.HARD_DISK,  # slowest class: policies rank it last
        read_latency_ns=round(rtt_us * 1000),
        write_latency_ns=round(rtt_us * 1000),
        read_bandwidth=bandwidth,
        write_bandwidth=bandwidth,
    )


class NetworkFileSystem(FileSystem):
    """A remote file system reached over a simulated network link."""

    def __init__(
        self,
        fs_name: str,
        remote: FileSystem,
        clock: SimClock,
        rtt_us: float = 100.0,
        bandwidth: float = 1.25e9,  # 10 GbE
    ) -> None:
        self.fs_name = fs_name
        self.remote = remote
        self.clock = clock
        self.rtt_ns = round(rtt_us * 1000)
        self.bandwidth = bandwidth
        self.block_size = getattr(remote, "block_size", 4096)
        self.stats = CounterSet()

    # -- network accounting --------------------------------------------------

    def _rpc(self, payload_bytes: int = 0) -> None:
        """One request/response round trip plus payload transfer."""
        transfer = round(payload_bytes * 1e9 / self.bandwidth)
        self.clock.advance_ns(self.rtt_ns + transfer)
        self.stats.add("rpcs")
        self.stats.add("bytes_on_wire", payload_bytes)

    def _remote_call(self, fn, *args, **kwargs):
        """Run a remote operation, translating remote health failures.

        Mux's VFS Call Maker drives a tier's HEALTHY→SUSPECT→OFFLINE
        machine exclusively from :class:`DeviceIoError` /
        :class:`DeviceOffline`; a remote shard whose own tiers are
        degraded raises :class:`TierUnavailable` (EIO) instead, which
        would leak to the local caller as a raw error the local health
        machine never sees.  Translating those into local
        ``DeviceIoError``\\ s makes a sick *remote* mount indistinguishable
        from a sick *local* device — the local tier goes SUSPECT, gets
        retried with backoff, and is routed around, exactly like any
        other tier.  Namespace errors (ENOENT, EEXIST, ...) pass through
        untranslated: those are answers, not failures.
        """
        try:
            return fn(*args, **kwargs)
        except DeviceOffline as exc:
            self.stats.add("remote_offline")
            raise DeviceOffline(f"{self.fs_name}: remote offline: {exc}") from exc
        except TierUnavailable as exc:
            # the remote stack exhausted its own retries; locally this is
            # one failed RPC, worth re-probing after backoff
            self.stats.add("remote_errors")
            raise DeviceIoError(
                f"{self.fs_name}: remote tier unavailable: {exc}", transient=True
            ) from exc
        except DeviceIoError as exc:
            self.stats.add("remote_errors")
            raise DeviceIoError(
                f"{self.fs_name}: remote I/O error: {exc}",
                transient=exc.transient,
            ) from exc

    # -- handle translation -----------------------------------------------------

    def _remote_handle(self, handle: FileHandle) -> FileHandle:
        handle.ensure_open()
        inner = handle.private
        if inner is None or not isinstance(inner, FileHandle):
            raise RuntimeError("foreign handle passed to NetworkFileSystem")
        return inner

    def _wrap(self, inner: FileHandle, path: str, flags: int) -> FileHandle:
        handle = FileHandle(self, inner.ino, path, flags)
        handle.private = inner
        return handle

    # -- namespace ------------------------------------------------------------

    def create(self, path: str, mode: int = 0o644) -> FileHandle:
        self._rpc()
        return self._wrap(self._remote_call(self.remote.create, path, mode), path, OpenFlags.RDWR)

    def open(self, path: str, flags: int = OpenFlags.RDWR) -> FileHandle:
        self._rpc()
        return self._wrap(self._remote_call(self.remote.open, path, flags), path, flags)

    def close(self, handle: FileHandle) -> None:
        inner = self._remote_handle(handle)
        handle.mark_closed()
        self._rpc()
        self._remote_call(self.remote.close, inner)

    def unlink(self, path: str) -> None:
        self._rpc()
        self._remote_call(self.remote.unlink, path)

    def rename(self, old_path: str, new_path: str) -> None:
        self._rpc()
        self._remote_call(self.remote.rename, old_path, new_path)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._rpc()
        self._remote_call(self.remote.mkdir, path, mode)

    def rmdir(self, path: str) -> None:
        self._rpc()
        self._remote_call(self.remote.rmdir, path)

    def readdir(self, path: str) -> List[str]:
        names = self._remote_call(self.remote.readdir, path)
        self._rpc(payload_bytes=sum(len(n) for n in names))
        return names

    # -- data -------------------------------------------------------------------

    def read(self, handle: FileHandle, offset: int, length: int) -> bytes:
        data = self._remote_call(self.remote.read, self._remote_handle(handle), offset, length)
        self._rpc(payload_bytes=len(data))
        return data

    def write(self, handle: FileHandle, offset: int, data: bytes) -> int:
        self._rpc(payload_bytes=len(data))
        return self._remote_call(self.remote.write, self._remote_handle(handle), offset, data)

    def truncate(self, handle: FileHandle, size: int) -> None:
        self._rpc()
        self._remote_call(self.remote.truncate, self._remote_handle(handle), size)

    def fsync(self, handle: FileHandle) -> None:
        self._rpc()
        self._remote_call(self.remote.fsync, self._remote_handle(handle))

    def punch_hole(self, handle: FileHandle, offset: int, length: int) -> None:
        self._rpc()
        self._remote_call(self.remote.punch_hole, self._remote_handle(handle), offset, length)

    # -- metadata ----------------------------------------------------------------

    def getattr(self, path: str) -> Stat:
        self._rpc(payload_bytes=128)
        return self._remote_call(self.remote.getattr, path)

    def setattr(self, path: str, **attrs: object) -> Stat:
        self._rpc(payload_bytes=128)
        return self._remote_call(self.remote.setattr, path, **attrs)

    def statfs(self) -> FsStats:
        # cached on real clients; modeled as free
        return self.remote.statfs()

    def sync(self) -> None:
        self._rpc()
        self._remote_call(self.remote.sync)

    def crash(self) -> None:
        self.remote.crash()

    def recover(self) -> None:
        self.remote.recover()
