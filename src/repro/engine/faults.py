"""Deterministic fault injection for the write-ahead log's storage.

The crash-point test matrix (``tests/engine/test_recovery.py``) needs
to crash the engine at *every* log write a workload performs and prove
recovery restores a consistent state each time.  :class:`FaultyStorage`
wraps any :class:`~repro.engine.wal.Storage` and fires exactly one
fault at the Nth write -- deterministically, so a failing site number
is a reproducible test case, not a flake.

Three fault kinds model the three ways a crashing disk loses a record:

``fail``
    The write raises before a single byte lands (process died before
    the syscall).
``short``
    A prefix of the data lands, then the write raises (power loss mid
    write; the classic torn record).
``corrupt``
    The full length lands but one byte near the end is flipped, and the
    write *succeeds silently* (firmware lied; only the checksum can
    tell).

``append`` and ``replace`` share one write-site counter, so checkpoint
writes are crash sites like any other.
"""

from __future__ import annotations

from repro.engine.wal import MemoryStorage, Storage


class InjectedFault(OSError):
    """The deliberate storage failure raised by :class:`FaultyStorage`.

    Subclasses :class:`OSError` so engine code cannot tell it from a
    genuine disk error.
    """

    def __init__(self, site: int, kind: str):
        super().__init__(f"injected {kind} fault at write site {site}")
        #: Zero-based index of the write that faulted.
        self.site = site
        #: ``"fail"`` or ``"short"`` (``corrupt`` never raises).
        self.kind = kind


def _corrupt(data: bytes) -> bytes:
    """``data`` with one byte near the end flipped (inside the JSON
    body of the final record, past its length/crc prefix, so the
    checksum -- not the framing -- must catch it)."""
    if not data:
        return data
    index = len(data) - 2 if len(data) >= 2 else 0
    return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1 :]


class FaultyStorage:
    """A :class:`~repro.engine.wal.Storage` decorator that fires one
    deterministic fault at the Nth write.

    Exactly one of ``fail_at`` / ``short_write_at`` / ``corrupt_at``
    is normally set (they may be combined; each fires at its own site).
    Sites count every ``append`` *and* ``replace``, in call order,
    starting at 0.  Reads, truncates, and all writes at other sites
    pass through untouched.
    """

    def __init__(
        self,
        base: Storage | None = None,
        *,
        fail_at: int | None = None,
        short_write_at: int | None = None,
        corrupt_at: int | None = None,
    ):
        self.base: Storage = base if base is not None else MemoryStorage()
        self.fail_at = fail_at
        self.short_write_at = short_write_at
        self.corrupt_at = corrupt_at
        #: Writes seen so far; the next write is site ``writes``.
        self.writes = 0
        #: ``(site, kind)`` pairs of faults that have fired.
        self.faults_fired: list[tuple[int, str]] = []

    def _filter(self, data: bytes) -> bytes:
        """Apply this site's fault (if any) to ``data``; raises for the
        raising kinds, returns possibly corrupted bytes otherwise."""
        site = self.writes
        self.writes += 1
        if site == self.fail_at:
            self.faults_fired.append((site, "fail"))
            raise InjectedFault(site, "fail")
        if site == self.short_write_at:
            self.faults_fired.append((site, "short"))
            self.base.append(data[: max(1, len(data) // 2)])
            raise InjectedFault(site, "short")
        if site == self.corrupt_at:
            self.faults_fired.append((site, "corrupt"))
            return _corrupt(data)
        return data

    def append(self, data: bytes) -> None:
        """Append through the base storage, faulting at this site if
        one is scheduled."""
        self.base.append(self._filter(data))

    def replace(self, data: bytes) -> None:
        """Replace through the base storage, faulting at this site if
        one is scheduled.  A ``short`` fault here models a crash before
        the atomic rename: the original contents survive untouched."""
        site = self.writes
        self.writes += 1
        if site == self.fail_at:
            self.faults_fired.append((site, "fail"))
            raise InjectedFault(site, "fail")
        if site == self.short_write_at:
            self.faults_fired.append((site, "short"))
            raise InjectedFault(site, "short")
        if site == self.corrupt_at:
            self.faults_fired.append((site, "corrupt"))
            data = _corrupt(data)
        self.base.replace(data)

    def read(self) -> bytes:
        """Pass through to the base storage."""
        return self.base.read()

    def read_from(self, offset: int, limit: int | None = None) -> bytes:
        """Pass through to the base storage."""
        return self.base.read_from(offset, limit)

    def truncate(self, size: int) -> None:
        """Pass through to the base storage."""
        self.base.truncate(size)

    def size(self) -> int:
        """Pass through to the base storage."""
        return self.base.size()

    def sync(self) -> None:
        """Pass through to the base storage (a sync moves no record
        bytes, so it is not a fault site of its own)."""
        self.base.sync()

    def close(self) -> None:
        """Pass through to the base storage."""
        self.base.close()
