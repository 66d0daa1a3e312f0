"""Per-evaluation rng streams: numpy's SeedSequence children, a batch at a time.

Every statistic evaluation (BO) and every Monte-Carlo chunk (the
baselines) draws from its own child of one parent ``SeedSequence``.
:meth:`ChildStreams.spawn` returns the generators that

    [np.random.default_rng(child) for child in parent.spawn(n)]

returns, bit for bit, without building a ``SeedSequence`` per child.

A child hashes the parent's words (its entropy, zero-padded to the pool
size, then its spawn key) and then its own index.  The parent's words
are exactly what the parent itself hashed, so the pool after them is
``parent.pool``; hashing them ran hashmix once per pool word per word, so
the hash constant after them is a closed form (O'Neill's ``seed_seq``
mixing, as numpy implements it).  Only the index word and the eight
output words that seed PCG64 are left: a few uint32 array operations, run
once per block of ``BLOCK`` consecutive child indices; a batch slices its
seed words from the blocks it spans.  So a run that spawns a few children
at a time pays the array pass once per block, not once per batch.  numpy's
own PCG64 seeds itself from those words.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64 seeds itself from generate_state(4, uint64): eight uint32 words.
_STATE_WORDS = 8

# Child indices whose seed words one array pass derives.  A power of two,
# so that no block runs past the last 32-bit index.
BLOCK = 256


def _words(value) -> list[int]:
    """numpy's uint32 words of a SeedSequence entropy or spawn key: an
    integer in little-endian 32-bit words (0 is one word), a sequence as
    the concatenation of its items' words."""
    try:
        n = operator.index(value)
    except TypeError:   # a sequence
        return [w for item in value for w in _words(item)]
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _successive(hash_const: int, mult: int, count: int) -> list[int]:
    """``count`` successive values of a hash constant.  Hash step k xors
    value k and multiplies by value k + 1."""
    values = [hash_const]
    for _ in range(count - 1):
        values.append((values[-1] * mult) & _MASK32)
    return values


class ChildStreams:
    """Hands out the children of ``parent`` as generators, in order.

    Consecutive :meth:`spawn` calls continue the numbering as repeated
    ``parent.spawn`` calls do, starting after the children ``parent`` had
    spawned when this object was built.  The counter is this object's own:
    ``parent`` is left untouched, and spawning from it as well would hand
    out the same streams twice.
    """

    def __init__(self, parent: np.random.SeedSequence):
        self._entropy = parent.entropy
        self._spawn_key = tuple(parent.spawn_key)
        self._pool_size = parent.pool_size
        self._next = parent.n_children_spawned
        # The parent's words: its entropy padded to the pool, then its spawn key.
        words = max(len(_words(parent.entropy)), self._pool_size) + len(_words(self._spawn_key))
        hash_const = (_INIT_A * pow(_MULT_A, self._pool_size * words, _MASK32 + 1)) & _MASK32
        pool = parent.pool.tolist()
        # The index word is mixed in the (n, 8) layout of generate_state's
        # output, each column with the pool word that output word reads
        # (the pool is cycled), so no gather is needed.
        src = [i % self._pool_size for i in range(_STATE_WORDS)]
        index_const = _successive(hash_const, _MULT_A, self._pool_size + 1)
        state_const = _successive(_INIT_B, _MULT_B, _STATE_WORDS + 1)
        self._index_xor = np.array([index_const[i] for i in src], dtype=np.uint32)
        self._index_mul = np.array([index_const[i + 1] for i in src], dtype=np.uint32)
        self._pool_l = np.array([(_MIX_MULT_L * pool[i]) & _MASK32 for i in src], dtype=np.uint32)
        self._mix_r = np.full(_STATE_WORDS, _MIX_MULT_R, dtype=np.uint32)
        self._state_xor = np.array(state_const[:-1], dtype=np.uint32)
        self._state_mul = np.array(state_const[1:], dtype=np.uint32)
        self._block_first, self._block = None, None

    def spawn(self, n: int) -> list[np.random.Generator]:
        """The next ``n`` children, each as ``np.random.default_rng(child)``."""
        start, stop = self._next, self._next + n
        if stop > _MASK32 + 1:
            raise OverflowError("a child index must fit in one 32-bit word")
        self._next = stop
        generator, pcg64 = np.random.Generator, np.random.PCG64
        entropy, spawn_key, pool_size = self._entropy, self._spawn_key, self._pool_size
        children = []
        for first in range(start - start % BLOCK, stop, BLOCK):
            seeds = self._block_seeds(first)
            children += [
                generator(pcg64(_Child(seeds[i - first], entropy, spawn_key + (i,), pool_size)))
                for i in range(max(start, first), min(stop, first + BLOCK))
            ]
        return children

    def _block_seeds(self, first: int) -> np.ndarray:
        """PCG64's seed words, ``(BLOCK, 4)`` uint64, of the children
        ``first, ..., first + BLOCK - 1``; the last block is kept."""
        if self._block_first != first:
            index = np.arange(first, first + BLOCK, dtype=np.uint32)[:, None]
            word = (index ^ self._index_xor) * self._index_mul
            word ^= word >> _XSHIFT
            word = self._pool_l - self._mix_r * word
            word ^= word >> _XSHIFT
            word = (word ^ self._state_xor) * self._state_mul
            word ^= word >> _XSHIFT
            # Word pairs as little-endian uint64, as generate_state returns them.
            self._block = word.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
            self._block_first = first
        return self._block


class _Child(ISpawnableSeedSequence):
    """One child: PCG64's seed words precomputed, anything else asked of it
    answered by the real ``SeedSequence``, built on first use."""

    def __init__(self, seed_words, entropy, spawn_key, pool_size):
        self._seed_words = seed_words
        self._args = (entropy, spawn_key, pool_size)
        self._seq = None

    def _real(self) -> np.random.SeedSequence:
        if self._seq is None:
            entropy, spawn_key, pool_size = self._args
            self._seq = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
        return self._seq

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for (4, np.uint64) itself: the identity test spares np.dtype.
        if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self._seed_words
        return self._real().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._real().spawn(n_children)
