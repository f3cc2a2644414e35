"""Seeded, named random streams.

Every source of randomness in the library (init, dropout, fuzzy relaxation
coefficients, data generation) draws from its own named stream so that adding
or removing draws on one stream never shifts another. Streams are backed by
the counter-based Philox generator, keyed by (seed, hash of the stream label):
independence between labels is structural, not statistical.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def _stream_key(stream_id: str) -> int:
    # blake2b, not hash(): Python's hash() is salted per process.
    digest = hashlib.blake2b(stream_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngStream:
    """A deterministic random stream identified by (seed, stream_id).

    Identical (seed, stream_id, draw-index) gives identical values across runs
    and platforms. Distinct stream_ids are independent streams. A draw with
    shape None, the default, is one NumPy scalar.
    """

    def __init__(self, seed: int, stream_id: str):
        self.seed = int(seed)
        self.stream_id = stream_id
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF, _stream_key(stream_id)],
                       dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, label: str) -> "RngStream":
        """Derive an independent stream, e.g. stream.child("enc0")."""
        return RngStream(self.seed, f"{self.stream_id}/{label}")

    def normal(self, shape=None, mean: float = 0.0,
               std: float = 1.0) -> np.ndarray | float:
        return self._gen.normal(mean, std, size=shape)

    def uniform(self, shape=None, low: float = 0.0,
                high: float = 1.0) -> np.ndarray | float:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray | np.int64:
        return self._gen.integers(low, high, size=shape)

    def bernoulli_mask(self, shape, keep_prob: float) -> np.ndarray:
        """Boolean mask, True with probability keep_prob in [0, 1]; one raw
        64-bit word w per entry, the word random() would use.

        random() is (w >> 11) * 2**-53, so random() < keep exactly when
        w < ceil(keep * 2**53) << 11: the same decisions, and the stream
        left where random() would leave it, without forming the floats.
        """
        if not 0.0 <= keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in [0, 1], got {keep_prob}")
        words = self._gen.bit_generator.random_raw(size=shape)
        if keep_prob == 1.0:  # the bound, 2**64, does not fit a uint64
            return np.ones_like(words, dtype=bool)
        return words < np.uint64(math.ceil(keep_prob * 2 ** 53) << 11)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id!r})"
