"""SHA-256 digests and hash chains.

Two uses in the paper map here:

- the aom header carries a collision-resistant digest of the payload (§4.1);
- both the FPGA coprocessor (§4.4) and NeoBFT replica logs (§5.3) use hash
  *chaining*: each element's hash covers the previous element's hash, so a
  single signature (or a single comparison) authenticates an entire prefix.
"""

from __future__ import annotations

import hashlib
from typing import List

DIGEST_SIZE = 32

_EMPTY = b"\x00" * DIGEST_SIZE


def sha256_digest(data: bytes) -> bytes:
    """SHA-256 of ``data`` (32 bytes)."""
    return hashlib.sha256(data).digest()


def chain_step(previous: bytes, element_digest: bytes) -> bytes:
    """One hash-chain link: H(previous || element_digest)."""
    return hashlib.sha256(previous + element_digest).digest()


class HashChain:
    """An append-only hash chain with O(1) incremental head computation.

    NeoBFT replies carry ``log-hash`` — the chain head over the log prefix —
    computed in O(1) per request exactly as Speculative Paxos does. The
    chain also supports truncation for speculative rollback: heads for every
    position are retained so rolling back to slot *k* is O(1) too, and
    :meth:`rebase` drops the heads below a garbage-collection point.
    """

    def __init__(self, genesis: bytes = _EMPTY):
        self._heads: List[bytes] = [genesis]

    def append(self, element_digest: bytes) -> bytes:
        """Extend the chain by one element; returns the new head."""
        head = chain_step(self._heads[-1], element_digest)
        self._heads.append(head)
        return head

    @property
    def head(self) -> bytes:
        """Current chain head."""
        return self._heads[-1]

    def __len__(self) -> int:
        """Number of elements appended (genesis excluded)."""
        return len(self._heads) - 1

    def head_at(self, length: int) -> bytes:
        """Chain head after the first ``length`` elements."""
        if not 0 <= length < len(self._heads):
            raise IndexError(f"no head recorded for length {length}")
        return self._heads[length]

    def truncate(self, length: int) -> None:
        """Roll the chain back to its first ``length`` elements."""
        if not 0 <= length <= len(self):
            raise IndexError(f"cannot truncate chain of {len(self)} to {length}")
        del self._heads[length + 1 :]

    def rebase(self, length: int) -> None:
        """Forget the heads before ``length``; the head there becomes genesis.

        Positions then count from the new genesis (log garbage collection
        keeps only the heads at and above its low-water mark).
        """
        if not 0 <= length <= len(self):
            raise IndexError(f"cannot rebase chain of {len(self)} at {length}")
        del self._heads[:length]

    @staticmethod
    def verify(genesis: bytes, element_digests: List[bytes], head: bytes) -> bool:
        """Recompute a chain from scratch and compare against ``head``.

        This is what aom-pk receivers do for signature-less packets: walk
        the hash chain from the last signed packet and check it links up
        (§4.4's batch verification, done in the reverse direction).
        """
        current = genesis
        for digest in element_digests:
            current = chain_step(current, digest)
        return current == head


def digest_concat(*parts: bytes) -> bytes:
    """Digest of length-prefixed concatenation (unambiguous encoding)."""
    return hashlib.sha256(
        b"".join(len(part).to_bytes(4, "big") + part for part in parts)
    ).digest()


def digest_int(value: int, width: int = 8) -> bytes:
    """Fixed-width big-endian (signed) int encoding, for digest inputs."""
    return value.to_bytes(width, "big", signed=True)


def combine_seq_and_digest(sequence: int, message_digest: bytes) -> bytes:
    """The authenticator input defined in §4.1: digest || sequence number."""
    return message_digest + digest_int(sequence)

