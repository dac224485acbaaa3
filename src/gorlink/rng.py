"""Splittable, counter-based pseudo-randomness.

Every random choice in the package flows from one explicit 64-bit seed.
A stream is identified by the seed plus a path of labels; child streams
are independent for distinct paths, and drawing from one stream never
disturbs another.  Values are produced by hashing (seed, path, counter)
with BLAKE2b, so the output is reproducible across platforms and runs.
"""

import hashlib

__all__ = ["SplitStream"]

_MASK64 = (1 << 64) - 1


class SplitStream:
    """Deterministic random stream addressed by (seed, label path)."""

    def __init__(self, seed, _path=()):
        self.seed = int(seed) & _MASK64
        self.path = tuple(str(x) for x in _path)
        key = ("%d|" % self.seed + "/".join(self.path)).encode()
        self._key = hashlib.blake2b(key, digest_size=16).digest()
        self._counter = 0

    def child(self, *labels):
        """Independent sub-stream; drawing from it does not advance self."""
        return SplitStream(self.seed, self.path + labels)

    def u64(self):
        h = hashlib.blake2b(
            self._counter.to_bytes(8, "little"), digest_size=8, key=self._key
        )
        self._counter += 1
        return int.from_bytes(h.digest(), "little")

    def below(self, n):
        """Uniform integer in [0, n), by rejection from 64-bit words."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            x = self.u64()
            if x <= limit:
                return x % n
