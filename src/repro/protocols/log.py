"""The replica log with hash chaining, speculative rollback and checkpoints.

Each slot holds either a client request (with its ordering evidence) or a
committed no-op. The log maintains an O(1)-per-append hash chain over
entry digests — NeoBFT replies carry the chain head (``log-hash``) so a
client's 2f+1 matching replies prove 2f+1 replicas agree on the entire
prefix, and the chain supports O(1) truncation for speculative rollback
(§5.2's "roll back application state"). Rollback reaches only slots above
the committed prefix (``commit_cursor``, advanced at state-sync points), so
each slot's undo closure is released as soon as the prefix covers it.

Memory stays bounded through a low-water mark. Slot numbers are absolute,
but the log keeps entries and chain heads only from ``low_mark`` on; the
head at the mark is the retained chain's genesis. A :class:`Checkpoint`
records the replicated state at a slot boundary. Whenever the committed
prefix advances, everything below the *previous* commit cursor is
collected, provided a checkpoint sits there, so one full interval of
committed history always stays readable. A laggard that needs collected
slots installs a checkpoint instead (:meth:`ReplicaLog.install_checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.crypto.digests import HashChain, sha256_digest


class EntryKind(str, Enum):
    """What occupies a log slot."""

    REQUEST = "request"
    NOOP = "noop"


@dataclass
class LogEntry:
    """One log slot's contents."""

    kind: EntryKind
    digest: bytes
    request: Any = None  # ClientRequest for REQUEST entries
    evidence: Any = None  # OrderingCertificate / quorum cert / gap cert
    view: int = 0
    epoch: int = 0
    executed: bool = False
    undo: Optional[Callable[[], None]] = None
    committed: bool = False


NOOP_DIGEST = sha256_digest(b"no-op")


@dataclass(frozen=True)
class Checkpoint:
    """Replicated state right after slots [0, slot) executed.

    ``app_state`` is the app's :meth:`~repro.apps.statemachine.StateMachine.snapshot`
    and ``request_ids`` the at-most-once table (client -> last executed
    request id). A laggard trusts a checkpoint only when f+1 replicas
    vouch for the same :attr:`vouch_key`.
    """

    slot: int
    head: bytes
    app_digest: bytes
    app_state: Any
    request_ids: Tuple[Tuple[int, int], ...]

    @property
    def vouch_key(self) -> Tuple[int, bytes, bytes]:
        """What f+1 replicas must agree on before a laggard installs it."""
        return (self.slot, self.head, self.app_digest)

    def wire_size(self) -> int:
        # Slot, chain head, app digest, and the at-most-once table; the app
        # snapshot travels by reference (its bytes are not modelled).
        return 72 + 16 * len(self.request_ids)


class ReplicaLog:
    """Append/overwrite log with chained heads and execution tracking."""

    def __init__(self):
        self._entries: List[LogEntry] = []  # slots [low_mark, next_slot)
        self._chain = HashChain()  # heads from low_mark on
        self.low_mark = 0  # slots below it are collected
        self.exec_cursor = 0  # slots [0, exec_cursor) are executed
        self.commit_cursor = 0  # slots [0, commit_cursor) are durable
        self.checkpoints: Dict[int, Checkpoint] = {}  # none below low_mark

    def __len__(self) -> int:
        return self.low_mark + len(self._entries)

    @property
    def next_slot(self) -> int:
        """Index the next append lands in."""
        return len(self)

    def get(self, slot: int) -> Optional[LogEntry]:
        """Entry at ``slot`` (None when out of range or collected)."""
        index = slot - self.low_mark
        if 0 <= index < len(self._entries):
            return self._entries[index]
        return None

    def append(self, entry: LogEntry) -> int:
        """Append; returns the slot index."""
        self._entries.append(entry)
        self._chain.append(entry.digest)
        return len(self) - 1

    def head_hash(self) -> bytes:
        """Current chain head over all entries."""
        return self._chain.head

    def hash_up_to(self, slot: int) -> bytes:
        """Chain head over slots [0, slot]; ``slot >= low_mark - 1``."""
        return self._chain.head_at(slot + 1 - self.low_mark)

    # ------------------------------------------------------------ overwrite

    def overwrite_with_noop(self, slot: int, evidence: Any, view: int) -> List[LogEntry]:
        """Replace ``slot`` with a committed no-op (gap/view-change outcome).

        Rolls back execution if the slot (or anything after it) already
        executed; returns the suffix entries [slot+1:] that must be
        re-executed by the caller (their ``executed`` flags are cleared).
        """
        if not self.low_mark <= slot < len(self):
            raise IndexError(f"no slot {slot} to overwrite")
        suffix = self.rollback_to(slot)
        noop = LogEntry(
            kind=EntryKind.NOOP,
            digest=NOOP_DIGEST,
            evidence=evidence,
            view=view,
            executed=False,
            committed=True,
        )
        index = slot - self.low_mark
        self._entries[index] = noop
        # Rebuild the chain from the overwritten slot forward.
        self._chain.truncate(index)
        for entry in self._entries[index:]:
            self._chain.append(entry.digest)
        return suffix

    def rollback_to(self, slot: int) -> List[LogEntry]:
        """Undo execution of slots >= ``slot``; returns those entries.

        Undo closures run in reverse order, restoring application state to
        just before ``slot`` executed. Only slots above the committed prefix
        can be undone: a sync point releases the undo closures below it, so
        rolling back an executed slot below ``commit_cursor`` raises.
        Checkpoints past ``slot`` describe undone state and are discarded.
        """
        if self.exec_cursor <= slot:
            return self._entries[slot - self.low_mark :]
        if slot < self.commit_cursor:
            raise ValueError(
                f"cannot roll back committed slot {slot} (commit_cursor={self.commit_cursor})"
            )
        index = slot - self.low_mark
        for entry in reversed(self._entries[index : self.exec_cursor - self.low_mark]):
            if entry.executed and entry.undo is not None:
                entry.undo()
            entry.executed = False
            entry.undo = None
        self.exec_cursor = slot
        for stale in [s for s in self.checkpoints if s > slot]:
            del self.checkpoints[stale]
        return self._entries[index:]

    def truncate_from(self, slot: int) -> None:
        """Drop slots >= ``slot``, rolling back their execution first.

        Only the uncommitted suffix can be truncated (view-change merges
        rewrite nothing below ``commit_cursor``).
        """
        if slot < self.commit_cursor:
            raise ValueError(
                f"cannot truncate committed slot {slot} (commit_cursor={self.commit_cursor})"
            )
        self.rollback_to(slot)
        index = slot - self.low_mark
        del self._entries[index:]
        self._chain.truncate(index)

    # ------------------------------------------------------------ execution

    def next_unexecuted(self) -> Optional[int]:
        """Lowest slot not yet executed, if it exists."""
        if self.exec_cursor < len(self):
            return self.exec_cursor
        return None

    def mark_executed(self, slot: int, undo) -> None:
        """Record execution of the slot at the cursor.

        A slot already inside the committed prefix can never be rolled
        back, so its ``undo`` is not kept.
        """
        if slot != self.exec_cursor:
            raise ValueError(f"out-of-order execution: {slot} != {self.exec_cursor}")
        entry = self._entries[slot - self.low_mark]
        entry.executed = True
        entry.undo = undo if slot >= self.commit_cursor else None
        self.exec_cursor += 1

    def mark_committed_up_to(self, slot: int) -> None:
        """Advance the durable prefix (state sync / commit decisions).

        Walks only the newly committed slots, marking each committed and
        releasing its undo closure (and everything the closure pins). Then
        collects everything below the commit cursor it advanced from, when
        a checkpoint sits there: one committed interval stays readable.
        """
        start = self.commit_cursor
        end = min(slot + 1, len(self))
        if end <= start:
            return
        for entry in self._entries[max(start - self.low_mark, 0) : end - self.low_mark]:
            entry.committed = True
            entry.undo = None
        self.commit_cursor = end
        if start > self.low_mark and start in self.checkpoints:
            self._collect_below(start)

    # ---------------------------------------------------------- checkpoints

    def mark_checkpoint(self) -> Optional[Checkpoint]:
        """The checkpoint at the low-water mark (None before any collection)."""
        return self.checkpoints.get(self.low_mark)

    def _collect_below(self, slot: int) -> None:
        """Drop entries, chain heads and checkpoints below ``slot``."""
        drop = slot - self.low_mark
        del self._entries[:drop]
        self._chain.rebase(drop)
        self.low_mark = slot
        for stale in [s for s in self.checkpoints if s < slot]:
            del self.checkpoints[stale]

    def install_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Replace the whole log by ``checkpoint``'s prefix.

        For a laggard whose log ends before the checkpoint: every entry it
        holds is discarded (the caller restores the app from the
        checkpoint), the checkpoint's head becomes the chain's genesis, and
        the prefix is committed through :meth:`mark_committed_up_to`, so
        anything watching commits sees the install.
        """
        if checkpoint.slot <= len(self):
            raise ValueError(
                f"checkpoint at {checkpoint.slot} does not extend a log of {len(self)}"
            )
        self._entries = []
        self._chain = HashChain(checkpoint.head)
        self.low_mark = checkpoint.slot
        self.exec_cursor = checkpoint.slot
        self.checkpoints = {checkpoint.slot: checkpoint}
        self.mark_committed_up_to(checkpoint.slot - 1)
