"""Counter-based deterministic random streams.

Every draw is a pure function of (seed, key), not of draw order.  Two runs
that share a seed therefore share exactly the draws whose keys coincide,
which is what lets paired runs on perturbed inputs reuse randomness on all
unperturbed coordinates.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = float(2**64)


def _key_text(key: tuple) -> str:
    """The part ", k1, ..., kn" that key adds to a tuple's repr."""
    return "".join([", " + repr(k) for k in key])


class RandomStream:
    """Addressable source of deterministic uniforms.

    Keys are tuples of ints/strings.  ``sub(*key)`` derives a child stream
    whose draws are disjoint from the parent's (the child prefix becomes
    part of every key).

    A draw hashes the bytes of ``repr((seed, *prefix, *key))`` with 8-byte
    blake2b.  The stream keeps a hash state that has absorbed the part of
    that text its own base ``(seed, *prefix)`` fixes, so each draw copies the
    state and feeds only the key's part.
    """

    __slots__ = ("seed", "_prefix", "_base", "_state")

    def __init__(self, seed: int, prefix: tuple = ()):
        self.seed = int(seed)
        self._prefix = tuple(prefix)
        self._base = (self.seed,) + self._prefix
        # "(seed, p1, ..., pk" of repr(base + key); the key's part follows
        head = "(" + ", ".join(map(repr, self._base))
        self._state = hashlib.blake2b(head.encode(), digest_size=8)

    def sub(self, *key) -> "RandomStream":
        return RandomStream(self.seed, self._prefix + key)

    def _bits(self, key: tuple) -> int:
        # flat concatenation: sub("a").random("b") == random("a", "b")
        if not key and len(self._base) == 1:  # repr of a 1-tuple keeps its comma
            tail = ",)"
        else:
            tail = _key_text(key) + ")"
        h = self._state.copy()
        h.update(tail.encode())
        return int.from_bytes(h.digest(), "big")

    def _block(self, key: tuple, indices) -> np.ndarray:
        """``_bits(key + (i,))`` for each i in indices, as uint64; the key's
        part of the hashed text is fed once."""
        h = self._state.copy()
        h.update((_key_text(key) + ", ").encode())
        out = []
        for i in indices:
            c = h.copy()
            c.update(b"%d)" % i)
            out.append(c.digest())
        return np.frombuffer(b"".join(out), dtype=">u8")

    def random(self, *key) -> float:
        """Uniform draw in [0, 1) addressed by key."""
        return self._bits(key) / _U64

    def randoms(self, n: int, *key) -> np.ndarray:
        """The vector ``[random(*key, i) for i in range(n)]``."""
        return self._block(key, range(n)) / _U64

    def uniform(self, lo: float, hi: float, *key) -> float:
        """Uniform draw in [lo, hi) addressed by key."""
        return lo + (hi - lo) * (self._bits(key) / _U64)

    def randint(self, n: int, *key) -> int:
        """Uniform integer in [0, n) addressed by key."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return self._bits(key) % n

    def permutation(self, n: int, *key) -> list[int]:
        """Fisher-Yates permutation of range(n): swap i takes
        ``randint(i + 1, *key, i)``."""
        perm = list(range(n))
        swaps = range(n - 1, 0, -1)
        for i, b in zip(swaps, self._block(key, swaps).tolist()):
            j = b % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def generator(self, *key) -> np.random.Generator:
        """numpy Generator seeded from the key, for bulk array draws."""
        data = repr(self._base + key).encode()
        h = hashlib.blake2b(data, digest_size=16).digest()
        return np.random.Generator(np.random.Philox(key=int.from_bytes(h, "big")))
