"""Seed-driven generation: random instances, isomorphs, urn trials, movie data.

Every generator is a pure function of its arguments plus a 64-bit seed. The
randomness source is a counter-based generator (Philox), so equal seeds give
equal output streams on every platform.
"""

from __future__ import annotations

import csv
import datetime
import io
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress
from operator import length_hint
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .instances import (UNIT, BigraphInstance, UnateRequiredError,
                        _check_cols, _decimals, _keep_literals, _row_order)

# A column permutation is a 1-based tuple: output column idx carries input
# column perm[idx - 1].
ColumnPermutation = tuple[int, ...]


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic counter-based generator (Philox) seeded by `seed`."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.Philox(seed))


# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe, a pool of four
# 32-bit words); every product below wraps modulo 2^32, as it does there.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count + 1` values of a SeedSequence hash constant, as a
    column; hash call j xors its value with the j-th and multiplies it by
    the next."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, None]


# hash calls 0 .. 3 fill the pool and 4 .. 15 mix it; 0 .. 3 of B make the
# key's four 32-bit words
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, _POOL)
# Seeds per pass of `replica_keys` and keys per pass of `philox_words` and
# `ReplicaStreams.ranks`: a Philox pass holds about 20 arrays of 2 x 8
# bytes per key and a key pass a dozen of 4 x 4, so a pass stays within a
# few hundred KB however many seeds a run takes.
_BLOCK_CHUNK = 1024


def replica_keys(seeds) -> np.ndarray:
    """Philox keys of `seeded_rng(s)` for every seed s, shape (len, 2).

    Row i equals `np.random.SeedSequence(seeds[i]).generate_state(2,
    np.uint64)`, the key `Philox(seeds[i])` uses, for 0 <= s < 2^64. Such a
    seed is at most two 32-bit words, which SeedSequence pads to its pool of
    four with zeros, so uint32 array arithmetic over a (4, R) pool hashes a
    block of seeds at once; the hash constants do not depend on the data.
    Seeds are taken `_BLOCK_CHUNK` at a time, as in `philox_words`.
    """
    # checked on the Python ints: numpy 1.x wraps -1 to 2**64 - 1 silently
    if len(seeds) and not (0 <= min(seeds) and max(seeds) < 1 << 64):
        raise ValueError("seeds must lie in 0 .. 2**64 - 1")
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    keys = np.empty((len(s), 2), np.uint64)
    for start in range(0, len(s), _BLOCK_CHUNK):
        chunk = s[start:start + _BLOCK_CHUNK]
        keys[start:start + len(chunk)] = _key_chunk(chunk)
    return keys


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash calls j .. j + k - 1, one per row of the result,
    given the constants j .. j + k as a (k + 1, 1) column."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _key_chunk(seeds: np.ndarray) -> np.ndarray:
    """`replica_keys` of a chunk, in SeedSequence's order of hash calls."""
    pool = np.zeros((_POOL, len(seeds)), np.uint32)
    # each seed's low 32-bit word, then its high one
    pool[:2] = seeds.astype("<u8").view("<u4").reshape(-1, 2).T
    pool = _hashmix(pool, _HASH_A[:_POOL + 1])
    call = _POOL
    for src in range(_POOL):
        # every other word mixes in its own hash of this one, in order
        dst = [d for d in range(_POOL) if d != src]
        hashed = _hashmix(pool[src], _HASH_A[call:call + _POOL])
        call += _POOL - 1
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
    state = _hashmix(pool, _HASH_B)
    # two 32-bit words per 64-bit key word, low word first
    return np.ascontiguousarray(state.T, "<u4").view("<u8")


# Philox4x64-10 (Salmon et al., SC'11): the multipliers of counter words 0
# and 2, and the key increments, as columns over a (2, R) block.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], np.uint64)
_PHILOX_M_HI, _PHILOX_M_LO = _PHILOX_M >> 32, _PHILOX_M & _MASK32
_PHILOX_ROUNDS = 10
_WORD = 1 << 32
_WORD64, _LOW32 = np.uint64(_WORD), np.uint64(_MASK32)
# Words a replica takes from its reset generator once it draws past its
# first block: one refill holds what a replica on a 400 x 4000 OR-library
# instance draws (up to about 80 words), and a reset costs several draws.
_REFILL_WORDS = 128


def philox_words(keys: np.ndarray, count: int) -> np.ndarray:
    """First `count` 32-bit words of `seeded_rng` with each Philox key, for
    a `count` that is a multiple of 8 (one Philox block).

    `keys` has shape (R, 2), as `replica_keys` gives it; the result has
    shape (R, count) and row i equals `Philox(key=keys[i]).random_raw(count
    // 2)` viewed as little-endian uint32. numpy's Philox bumps its counter
    before it makes a block, so a fresh stream's block b (from 0) is
    Philox4x64-10 at counter (b + 1, 0, 0, 0); `next_uint32` hands out the
    low half of each 64-bit output before its high half.

    Keys are taken `_BLOCK_CHUNK` at a time, each chunk's blocks in one
    pass, so the temporaries stay a few times one chunk's words.
    """
    blocks = count // 8
    counters = np.arange(1, blocks + 1, dtype=np.uint64)
    words = np.empty((len(keys), count), np.uint32)
    for start in range(0, len(keys), _BLOCK_CHUNK):
        chunk = keys[start:start + _BLOCK_CHUNK]
        words[start:start + len(chunk)] = _philox(
            np.repeat(chunk, blocks, axis=0),
            np.tile(counters, len(chunk))).reshape(len(chunk), count)
    return words


def _philox(keys: np.ndarray, counter) -> np.ndarray:
    """Philox4x64-10 of each key at counter (counter, 0, 0, 0), as eight
    32-bit words per key: the block a fresh stream makes after
    `counter - 1` others; `counter` is one for all keys or one per key.

    The counter is held as two (2, R) arrays, its even words (0, 2) and its
    odd words (1, 3), so each round multiplies both even words at once.
    """
    key = keys.T.copy()
    even = np.zeros_like(key)
    even[0] = counter
    odd = np.zeros_like(key)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        # high 64 bits of mult * even from 32-bit partial products
        # (Hacker's Delight's mulhu); no sum overflows uint64
        e_hi, e_lo = even >> 32, even & _MASK32
        t = _PHILOX_M_LO * e_hi + (_PHILOX_M_LO * e_lo >> 32)
        u = _PHILOX_M_HI * e_lo + (t & _MASK32)
        high = _PHILOX_M_HI * e_hi + (t >> 32) + (u >> 32)
        # (c0, c1, c2, c3) -> (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
        #                      hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        even, odd = high[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
    block = np.stack((even, odd), axis=2).transpose(1, 0, 2)
    return block.reshape(-1, 4).astype("<u8").view("<u4")


def _perm_words(n: int) -> int:
    """Words of each stream a block's `permutation(n)` pass computes: whole
    Philox blocks of at least 2 (n - 1) words. A step draws 1 to 2 words on
    average, so at most about 1.2% of replicas (n = 5; none of 4,096 from
    n = 32 to 128) draw more and take the generator instead."""
    return -(-2 * (n - 1) // 8) * 8


def _fisher_yates(words: np.ndarray, n: int) -> tuple[np.ndarray,
                                                      np.ndarray]:
    """`permutation(n)` of every row's stream of 32-bit words, draw for draw
    as numpy makes it, and which rows needed more words than they hold.

    numpy shuffles `arange(n)` with Durstenfeld's Fisher-Yates (CACM 1964,
    Algorithm 235): step i, from n - 1 down to 1, swaps entries i and j for
    a j its `random_interval(i)` draws, which takes the next word masked to
    the bits of i and draws again while the result exceeds i. Every row
    keeps its own word position. A row past its words reads zeros from a
    pad of n - 1 words: its first such read marks it short, and since a
    zero is never drawn again it reads at most one pad word per step.
    """
    r, held = words.shape
    # word w of row i, and entry c of its permutation, at flat index
    # w * r + i: a step's reads and swaps touch one contiguous row
    flat = np.zeros((held + n - 1, r), np.uint32)
    flat[:held] = words.T
    flat = flat.reshape(-1)
    rows = np.arange(r)
    pos = rows.copy()
    perm = np.repeat(np.arange(n, dtype=np.min_scalar_type(n)), r)
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = flat[pos] & mask
        pos += r
        redo = np.flatnonzero(j > i)
        while redo.size:
            at = pos[redo]
            again = flat[at] & mask
            pos[redo] = at + r
            j[redo] = again
            redo = redo[again > i]
        swap = j * r + rows
        top = perm[i * r:(i + 1) * r].copy()
        perm[i * r:(i + 1) * r] = perm[swap]
        perm[swap] = top
    return perm.reshape(n, r).T, pos - rows > held * r


class ReplicaStreams:
    """The `seeded_rng` streams of a block of replica ids, from one Philox.

    `rng(i)` resets a single generator to the state `seeded_rng(seeds[i])`
    starts in (replica i's key, counter zero, empty buffer) and returns it,
    so a block pays for one generator and one vectorized key derivation
    instead of one generator per replica. The generator is made at the
    first `rng` call, and each call invalidates the stream the last one
    returned.

    `draws(i)` gives replica i's bounded draws without a generator: the
    first eight words of the streams of each chunk of `_BLOCK_CHUNK`
    replicas come from one vectorized Philox pass (`first_words`, made at
    the first draw of a replica of that chunk), and later words from
    `rng(i)`. A walk draws from `first_words` itself (`bounded_draws`).

    `ranks(n)` gives the column ranks of every replica's `n`-column
    isomorph without a generator, one matrix per chunk of replicas, from
    one vectorized Fisher-Yates pass each.
    """

    def __init__(self, seeds):
        self.seeds = seeds
        self.keys = replica_keys(seeds)
        self._block: tuple[int, np.ndarray] | None = None
        self._generator: np.random.Generator | None = None
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": np.zeros(4, np.uint64),
                                 "key": None},
                       "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def rng(self, i: int) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(0))
        self._state["state"]["key"] = self.keys[i]
        self._generator.bit_generator.state = self._state
        return self._generator

    def draws(self, i: int, pos: int = 0) -> "ReplicaDraws":
        """Replica i's draws from word `pos` of its stream on."""
        return ReplicaDraws(self, i, pos)

    def ranks(self, n: int) -> Iterator[np.ndarray]:
        """Chunk by chunk of `_BLOCK_CHUNK` replicas, the rank matrix of
        their `isomorph_permutation(n, seeds[i])`: rank[i, c] is the
        0-based position of column c + 1 in replica i's permutation, so
        replica id 0 gets the identity.

        The first `_perm_words(n)` words of each stream come from
        `philox_words`, and `_fisher_yates` shuffles every row at once. A
        replica that needs more words takes `rng(i).permutation(n)`.
        """
        for start in range(0, len(self.keys), _BLOCK_CHUNK):
            perm, short = _fisher_yates(philox_words(
                self.keys[start:start + _BLOCK_CHUNK], _perm_words(n)), n)
            rank = np.empty(perm.shape, perm.dtype)
            np.put_along_axis(rank, perm, np.arange(n, dtype=rank.dtype),
                              axis=1)
            identity = np.flatnonzero(
                np.asarray(self.seeds[start:start + _BLOCK_CHUNK]) == 0)
            short[identity] = False
            for i in np.flatnonzero(short).tolist():
                rank[i] = np.argsort(self.rng(start + i).permutation(n))
            rank[identity] = np.arange(n)
            yield rank

    def first_words(self, start: int) -> np.ndarray:
        """The first 8 words (one Philox block) of the streams of replicas
        `start` .. `start + _BLOCK_CHUNK - 1`, for a `start` that is a
        multiple of `_BLOCK_CHUNK`; the last chunk asked for is kept."""
        if self._block is None or self._block[0] != start:
            self._block = (start, philox_words(
                self.keys[start:start + _BLOCK_CHUNK], 8))
        return self._block[1]

    def words(self, i: int, count: int) -> list[int]:
        """The first `count` 32-bit words of replica i's stream; `count` is
        even, and 8 (one Philox block) needs no generator."""
        if count == 8:
            start = i - i % _BLOCK_CHUNK
            return self.first_words(start)[i - start].tolist()
        raw = self.rng(i).bit_generator.random_raw(count // 2)
        return raw.astype("<u8").view("<u4").tolist()


class ReplicaDraws:
    """`integers(k)` of replica i's stream, draw for draw as
    `seeded_rng(seeds[i]).integers(k)` gives it, for 2 <= k < 2^32.

    Each draw is `lemire_draw`. Words come from the stream's first block,
    then from `rng(i)`: each refill resets it and takes at least twice the
    words held, so the draws never depend on another replica's use of the
    generator.
    """

    __slots__ = ("_streams", "_i", "_words", "_pos")

    def __init__(self, streams: ReplicaStreams, i: int, pos: int = 0):
        self._streams = streams
        self._i = i
        self._words: list[int] = streams.words(i, 8) if pos else []
        self._pos = pos

    def _next_word(self) -> int:
        pos = self._pos
        if pos == len(self._words):
            count = max(_REFILL_WORDS, 2 * pos) if pos else 8
            self._words = self._streams.words(self._i, count)
        self._pos = pos + 1
        return self._words[pos]

    def integers(self, k: int) -> int:
        if not 2 <= k < _WORD:
            raise ValueError(f"bound must lie in 2 .. 2**32 - 1, got {k}")
        return lemire_draw(self._next_word, k)


def lemire_draw(next_word: Callable[[], int], k: int) -> int:
    """numpy's bounded draw of 0 .. k - 1, for 2 <= k < 2^32, from the
    32-bit words `next_word` returns.

    numpy draws that bound with Lemire's multiply-and-reject method
    (ACM TOMACS 2019): m = u * k for the next 32-bit word u, drawn again
    while m's low word is below (2^32 - k) mod k, and the draw is m >> 32.
    """
    m = next_word() * k
    # k bounds the threshold, so most draws skip its modulo
    if m & _MASK32 < k:
        m = _accepted(next_word, m, k)
    return m >> 32


def _accepted(next_word: Callable[[], int], m: int, k: int) -> int:
    """m, the product u * k of a draw's word u and its bound k, if Lemire's
    method keeps it, else the product of the first later word it keeps."""
    threshold = (_WORD - k) % k
    while m & _MASK32 < threshold:
        m = next_word() * k
    return m


def bounded_draws(words: np.ndarray, pos: np.ndarray, rows: np.ndarray,
                  bounds: np.ndarray) -> np.ndarray:
    """`integers(bounds[i])` of the stream of row `rows[i]` of `words`,
    taken as `ReplicaDraws.integers` takes it, for distinct rows and bounds
    in 2 .. 2^32 - 1.

    Row r draws from word `pos[r]` on, and `pos[r]` moves past the words
    its draw used; a row that would draw past its last word gets -1.
    """
    bounds = bounds.astype(np.uint64)
    m = np.zeros(len(rows), np.uint64)
    short = np.zeros(len(rows), bool)
    todo = np.arange(len(rows))
    while todo.size:
        at = pos[rows[todo]]
        held = at < words.shape[1]
        if not held.all():
            short[todo[~held]] = True
            todo, at = todo[held], at[held]
        r, k = rows[todo], bounds[todo]
        m[todo] = words[r, at] * k
        pos[r] = at + 1
        todo = todo[m[todo] & _LOW32 < (_WORD64 - k) % k]
    draws = (m >> np.uint64(32)).astype(np.intp)
    draws[short] = -1
    return draws


# 64-bit outputs `gen_random_instance` reads from its stream at a time
_RAW_CHUNK = 1024
# numpy's `choice(n, deg, replace=False)` takes a tail shuffle in place of
# Floyd's sample when n > _FLOYD_MAX_POP and deg > n // _TAIL_SHARE
_FLOYD_MAX_POP, _TAIL_SHARE = 10000, 50
# a block of `_block_rows` looks at about `_BLOCK_WORDS` words
_BLOCK_WORDS, _BLOCK_MIN_ROWS = 1 << 16, 16


def _stream_chunks(bit_generator) -> Iterator[np.ndarray]:
    """The 32-bit words of `bit_generator`'s fresh stream as `next_uint32`
    hands them out (the low half of each 64-bit output first), as uint32
    arrays of `_RAW_CHUNK` outputs."""
    while True:
        yield bit_generator.random_raw(_RAW_CHUNK).astype(
            "<u8", copy=False).view("<u4")


class _ShortWindow(Exception):
    """A draw of `_Lookahead.drawn` read past the words it was given."""


class _Lookahead:
    """The words of an iterator of uint32 arrays, read ahead: `window(n)`
    is the next n words, not taken, `take(n)` takes them and `drawn`
    takes those a scalar draw reads."""

    def __init__(self, chunks: Iterator[np.ndarray]):
        self._chunks = chunks
        self._words = np.empty(0, np.uint32)
        self._at = 0

    def window(self, count: int) -> np.ndarray:
        short = count - (self._words.size - self._at)
        if short > 0:
            parts = [self._words[self._at:]]
            while short > 0:
                parts.append(next(self._chunks))
                short -= parts[-1].size
            self._words, self._at = np.concatenate(parts), 0
        return self._words[self._at:self._at + count]

    def take(self, count: int) -> None:
        self._at += count

    def drawn(self, draw: Callable[[Callable[[], int]], object],
              count: int):
        """`draw(next_word)` on the words from here, which then count as
        taken. `next_word` reads a list of the next `count` words; a draw
        that reads past them is run again on twice as many. Past them
        `next_word` raises `_ShortWindow`: a StopIteration would end a
        `zip` or `map` the draw reads through early, or fail a generator.
        """
        while True:
            words = iter(self.window(count).tolist())

            def next_word() -> int:
                for word in words:
                    return word
                raise _ShortWindow

            try:
                value = draw(next_word)
            except _ShortWindow:
                count *= 2
                continue
            self._at += count - length_hint(words)
            return value


def _floyd_sample(next_word: Callable[[], int], n: int, deg: int
                  ) -> set[int]:
    """The 1-based columns of `choice(n, deg, replace=False)` on Floyd's
    path, with the words its sample's shuffle draws skipped.

    Floyd's sample (Bentley & Floyd, CACM 30(9), 1987): for j from
    n - deg + 1 to n (numpy's j + 1), a column drawn from 1 .. j, or j
    itself when the draw is already taken; j = 1 draws nothing. numpy
    then shuffles the sample with draws of bound deg down to 2; a shuffle
    word is read only as far as Lemire's method needs to keep or reject
    it.
    """
    draws = (lemire_draw(next_word, j) + 1 if j > 1 else 1
             for j in range(n - deg + 1, n + 1))
    picked = _floyd_cols(n, deg, draws)
    for k in range(deg, 1, -1):
        m = next_word() * k
        if m & _MASK32 < k:
            _accepted(next_word, m, k)
    return picked


def _floyd_cols(n: int, deg: int, draws: Iterable[int]) -> set[int]:
    """`_floyd_sample`'s columns from its draws, made already: for j from
    n - deg + 1 to n, the next draw (a column in 1 .. j), or j itself when
    that column is already taken."""
    picked: set[int] = set()
    for j, col in zip(range(n - deg + 1, n + 1), draws):
        picked.add(j if col in picked else col)
    return picked


def _tail_sample(next_word: Callable[[], int], n: int, deg: int
                 ) -> list[int]:
    """The 1-based columns of `choice(n, deg, replace=False)` on its tail
    path: `_tail_cols` of draws of bound n down to max(n - deg, 1) + 1."""
    return _tail_cols(n, deg, map(partial(lemire_draw, next_word),
                                  range(n, max(n - deg, 1), -1)))


def _tail_cols(n: int, deg: int, draws: Iterable[int]) -> list[int]:
    """The last `deg` entries of `arange(n)`, 1-based, after Fisher-Yates
    steps i = n - 1 down to max(n - deg, 1), each swapping entries i and
    the next of `draws`. Only moved entries are held, so it takes
    O(deg)."""
    moved: dict[int, int] = {}
    cols = []
    for i, j in zip(range(n - 1, max(n - deg, 1) - 1, -1), draws):
        cols.append(moved.get(j, j + 1))
        moved[j] = moved.get(i, i + 1)
    if deg == n:
        cols.append(moved.get(0, 1))
    return cols


def _scalar_row(next_word: Callable[[], int], n_cols: int, deg_min: int,
                span: int, tail_above: int) -> tuple[int, ...]:
    """One row of `gen_random_instance` drawn word by word, as `_block_rows`
    draws a row with a rejected draw: a degree of bound `span` (none when
    that is 1), then its columns, ascending."""
    deg = deg_min + lemire_draw(next_word, span) if span > 1 else deg_min
    sample = (_tail_sample if deg > tail_above else _floyd_sample)(
        next_word, n_cols, deg)
    return tuple(sorted(sample))


def _rejected(products: np.ndarray, bounds) -> np.ndarray:
    """Which draws Lemire's method rejects, given u * k as uint64 for each
    word u and its bound k (an array, or one bound for all)."""
    bounds = np.asarray(bounds, np.uint64)
    low = products & _LOW32
    suspect = np.flatnonzero(low < bounds)
    rejected = np.zeros(products.shape, bool)
    if suspect.size:
        k = np.broadcast_to(bounds, products.shape).reshape(-1)[suspect]
        rejected.reshape(-1)[suspect] = \
            low.reshape(-1)[suspect] < (_WORD64 - k) % k
    return rejected


def _row_words(deg, lead: int, n_cols: int, tail_above: int) -> np.ndarray:
    """Words a row of degree `deg` reads when no draw is rejected: `lead`
    for its degree, then d Floyd steps (d - 1 when d == n_cols, whose step
    j = 1 draws nothing) and d - 1 shuffle words, or on the tail path
    min(d, n_cols - 1) steps."""
    return lead + np.where(deg > tail_above, np.minimum(deg, n_cols - 1),
                           2 * deg - 1 - (deg == n_cols))


def _block_rows(ahead: _Lookahead, m_rows: int, n_cols: int, deg_min: int,
                deg_max: int, tail_above: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """(row lengths, literals) of the `m_rows` rows `_scalar_row` draws from
    the words of `ahead`, replayed in numpy a block of rows at a time.

    A row that starts at word p takes its degree from word p (when
    deg_min < deg_max), so `_row_words` of a row started at every position
    of a window of the stream fixes where each of the block's rows starts,
    found by one walk from its first word. A draw of bound k from word u
    is u * k >> 32. A Floyd row whose drawn columns are distinct is their
    set, as no draw finds its column taken; a Floyd row with a repeated
    draw, and a tail row, are replayed in Python from their draws. Every
    word is checked for a Lemire rejection: a block keeps the rows before
    the first that has one, that row goes through `_scalar_row`, and the
    next block starts after it.
    """
    span = deg_max - deg_min + 1
    lead = int(span > 1)
    most = lead + 2 * deg_max - 1
    per_block = max(1, _BLOCK_WORDS // most)
    # Floyd step t of a row of degree d, right-aligned in deg_max steps,
    # has bound n_cols - deg_max + 1 + t and is taken when t >= deg_max - d
    bounds = np.arange(n_cols - deg_max + 1, n_cols + 1, dtype=np.uint64)
    steps = np.arange(deg_max)
    # words a row reads, by the draw from its first word
    row_words = _row_words(np.arange(deg_min, deg_max + 1), lead, n_cols,
                           tail_above)
    lengths: list[np.ndarray] = []
    flats: list[np.ndarray] = []
    made, size = 0, per_block
    while made < m_rows:
        want = min(size, m_rows - made)
        words = ahead.window(want * most).astype(np.uint64)
        if lead:
            walk = row_words[words * span >> 32].tolist()
            starts, p = [], 0
            for _ in range(want):
                starts.append(p)
                p += walk[p]
            starts = np.array(starts)
        else:
            starts = np.arange(want) * int(row_words[0])
        # with span 1 this reads a Floyd word, draws 0 and rejects nothing
        products = words[starts] * span
        deg = deg_min + (products >> 32).astype(np.intp)
        bad = _rejected(products, span)
        tail = deg > tail_above
        eq = deg == n_cols
        skipped = np.where(tail, deg_max, deg_max - deg)[:, None]
        taken = steps >= skipped
        at = np.where(taken & (bounds > 1),
                      (starts + lead - eq)[:, None] + steps - skipped, 0)
        products = words[at] * bounds
        bad |= (_rejected(products, bounds) & taken).any(axis=1)
        drawn = np.where(taken, (products >> 32) + 1, 0)
        if deg_max > 1:
            # shuffle word i has bound d - i; bound 1 stands for no word
            k = np.where(tail[:, None], 1, np.maximum(
                deg[:, None] - steps[:-1], 1)).astype(np.uint64)
            at = np.where(k > 1, (starts + lead + deg - eq)[:, None]
                          + steps[:-1], 0)
            bad |= _rejected(words[at] * k, k).any(axis=1)
        tails, tail_draws = np.flatnonzero(tail), []
        if tails.size:
            # tail step q has bound n_cols - q
            count = np.minimum(deg[tails], n_cols - 1)[:, None]
            q = np.arange(count.max())
            k = np.where(q < count, n_cols - q, 1).astype(np.uint64)
            at = np.where(q < count, starts[tails, None] + lead + q, 0)
            products = words[at] * k
            bad[tails] |= _rejected(products, k).any(axis=1)
            tail_draws = (products >> 32).tolist()
        keep = int(bad.argmax()) if bad.any() else want
        cols = np.sort(drawn[:keep], axis=1)
        repeated = ((cols[:, 1:] == cols[:, :-1])
                    & (cols[:, :-1] > 0)).any(axis=1)
        for r in np.flatnonzero(repeated).tolist():
            d = int(deg[r])
            cols[r, deg_max - d:] = sorted(_floyd_cols(
                n_cols, d, drawn[r, deg_max - d:].tolist()))
        for r, draws in zip(tails[tails < keep].tolist(), tail_draws):
            d = int(deg[r])
            cols[r, deg_max - d:] = sorted(_tail_cols(n_cols, d, draws))
        lengths.append(deg[:keep])
        flats.append(cols[cols > 0].astype(np.int32))
        made += keep
        if keep == want:
            ahead.take(int(starts[-1]) + int(row_words[deg[-1] - deg_min]))
            size = min(2 * size, per_block)
            continue
        # a block cut short is followed by a smaller one, so rows drawn
        # word by word close together waste little replay
        size = max(_BLOCK_MIN_ROWS, 2 * keep)
        ahead.take(int(starts[keep]))
        row = ahead.drawn(partial(_scalar_row, n_cols=n_cols,
                                  deg_min=deg_min, span=span,
                                  tail_above=tail_above), 2 * most)
        lengths.append(np.array([len(row)]))
        flats.append(np.array(row, np.int32))
        made += 1
    return np.concatenate(lengths), np.concatenate(flats)


def gen_random_instance(m_rows: int, n_cols: int, deg_min: int, deg_max: int,
                        seed: int) -> BigraphInstance:
    """Random unit-weight unate instance.

    Each row draws its degree uniformly from [deg_min, deg_max] and then that
    many distinct columns uniformly without replacement. Expected density is
    (deg_min + deg_max) / (2 * n_cols).

    The rows are those of `rng.integers(deg_min, deg_max + 1)` then
    `rng.choice(n_cols, deg, replace=False)` per row on `rng =
    seeded_rng(seed)`, replayed on the 32-bit words of its stream: the
    degree is a `lemire_draw` of bound deg_max - deg_min + 1 (none when
    that is 1), and the columns are `_floyd_sample`'s, or `_tail_sample`'s
    when n_cols > 10000 and deg > n_cols // 50, as in numpy.

    The rows are replayed in numpy blocks (`_block_rows`), straight into
    the literal arrays, and a row with a rejected draw is drawn word by
    word (`_scalar_row`); the instance makes its row tuples when they are
    first read.
    """
    _check_cols(n_cols)
    if m_rows < 1 or n_cols < 1:
        raise ValueError("m_rows and n_cols must be positive")
    if not 1 <= deg_min <= deg_max <= n_cols:
        raise ValueError(f"need 1 <= deg_min <= deg_max <= n_cols, "
                         f"got {deg_min}..{deg_max} over {n_cols}")
    tail_above = (n_cols // _TAIL_SHARE if n_cols > _FLOYD_MAX_POP
                  else n_cols)
    # each row is distinct, in range and of ints as drawn
    literals = _keep_literals(*_block_rows(
        _Lookahead(_stream_chunks(seeded_rng(seed).bit_generator)),
        m_rows, n_cols, deg_min, deg_max, tail_above))
    return BigraphInstance._trusted(
        name=f"m{m_rows}_{n_cols}_{deg_min}_{deg_max}", n_cols=n_cols,
        m_rows=m_rows, col_weights=(1.0,) * n_cols, weight_kind=UNIT,
        _literals=literals)


def permute_columns(instance: BigraphInstance,
                    perm: tuple[int, ...]) -> BigraphInstance:
    """Column-relabelled copy: output column idx carries input column perm[idx].

    Weights travel with their columns; signs of binate literals are kept.
    The literals are relabelled by one gather through a signed table over
    -n..n, then sorted within their rows by column (`_row_order`).
    """
    n = instance.n_cols
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm is not a permutation of 1..{n}")
    # the new label of literal l at relabel[l], a negative l from the end
    relabel = np.zeros(2 * n + 1, np.int32)
    relabel[list(perm)] = np.arange(1, n + 1, dtype=np.int32)
    relabel[n + 1:] = -relabel[n:0:-1]
    lengths, flat = instance._literals
    flat = relabel[flat]
    order, _ = _row_order(np.abs(flat),
                          np.arange(lengths.size).repeat(lengths))
    weights = tuple(instance.col_weights[col - 1] for col in perm)
    # a bijective relabelling keeps every invariant of a valid instance
    return BigraphInstance._trusted(**{
        **vars(instance), "col_weights": weights,
        "_literals": _keep_literals(lengths, flat[order])})


def isomorph_permutation(n_cols: int, replica_id: int,
                         rng: np.random.Generator | None = None
                         ) -> tuple[int, ...]:
    """Column permutation of replica `replica_id`; 0 is the natural order.

    `rng`, if given, must be in the state `seeded_rng(replica_id)` starts
    in (as `ReplicaStreams.rng` returns it); it saves making one.
    """
    if replica_id < 0:
        raise ValueError("replica_id must be nonnegative")
    if replica_id == 0:
        return tuple(range(1, n_cols + 1))
    if rng is None:
        rng = seeded_rng(replica_id)
    return tuple((rng.permutation(n_cols) + 1).tolist())


def gen_isomorph(instance: BigraphInstance, replica_id: int
                 ) -> tuple[BigraphInstance, tuple[int, ...]]:
    """Column-permuted isomorph controlled by replica_id.

    replica_id 0 returns the instance unchanged with the identity permutation
    (the reference, natural order); replica_id > 0 seeds the generator with
    replica_id and permutes the columns.
    """
    if not instance.is_unate:
        raise UnateRequiredError(f"{instance.name}: unate required")
    base = instance.name.split("__")[0]
    perm = isomorph_permutation(instance.n_cols, replica_id)
    if replica_id == 0:
        return instance, perm
    permuted = permute_columns(instance, perm)
    return BigraphInstance._trusted(**{**vars(permuted),
                                       "name": f"{base}__{replica_id}"}), perm


def urn_trial(urn_size: int, num_trials: int, seed: int) -> float:
    """Fraction of distinct tags seen after sampling with replacement.

    Draws num_trials tags uniformly with replacement from urn_size tags and
    returns (#distinct drawn) / urn_size; expectation is
    1 - (1 - 1/urn_size)**num_trials.
    """
    if urn_size < 1 or num_trials < 1:
        raise ValueError("urn_size and num_trials must be positive")
    rng = seeded_rng(seed)
    draws = rng.integers(0, urn_size, size=num_trials)
    return np.unique(draws).size / urn_size


class MovieRecord(NamedTuple):
    movie_id: str
    title: str
    year: int
    runtime_minutes: int


class WatchRecord(NamedTuple):
    watch_id: str
    movie_id: str
    date: str
    minutes_watched: int


MOVIE_HEADER = ("movieID", "title", "year", "runtimeMinutes")
WATCH_HEADER = ("watchID", "movieID", "date", "minutesWatched")


def _int_column(values, where: str) -> np.ndarray:
    """int64 array of `int(v)` for every v; `where` names the source in the
    error a value that is no integer, or lies outside int64, raises."""
    try:
        return np.fromiter(map(int, values), np.int64, len(values))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _encoded(strs: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of `strs` ("surrogatepass"), one after another, and
    the offset and length in bytes of each."""
    joined = "".join(strs)
    raw = np.frombuffer(joined.encode("utf-8", "surrogatepass"), np.uint8)
    lengths = np.fromiter(map(len, strs), np.int64, len(strs))
    if raw.size != len(joined):
        # bytes per code point, summed up to the end of each str
        points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"),
                               np.uint32)
        units = 1 + (points >= 0x80) + (points >= 0x800) + (points >= 0x10000)
        ends = np.concatenate(([0], np.cumsum(units)))[np.cumsum(lengths)]
        lengths = np.diff(ends, prepend=0)
    return raw, np.cumsum(lengths) - lengths, lengths


class _Table(Sequence):
    """A read-only sequence of records held as one column per field:
    strings in lists, integers in int64 arrays.

    Indexing and iteration yield `RECORD`s with Python ints, so code
    written for a list of records reads a table unchanged; the bulk paths
    (generate, write, read, count) work on the columns. Fields and columns
    share their names and order. A table `read_movielib` made holds its
    integer columns and makes each string column on its first read
    (`_block_column`).
    """

    RECORD: type
    HEADER: tuple[str, ...]
    INTEGERS: tuple[str, ...]
    SHARED: tuple[str, ...] = ()

    @classmethod
    def of(cls, rows):
        """`rows` as it is if it is such a table, else the table of the
        records (or equal tuples) it yields."""
        if isinstance(rows, cls):
            return rows
        fields = cls.RECORD._fields
        columns = list(zip(*rows)) or [()] * len(fields)
        if len(columns) != len(fields):
            raise ValueError(f"{cls.__name__} rows need the {len(fields)} "
                             f"fields {fields}")
        return cls(*(_int_column(col, f"{cls.__name__}.{name}")
                     if name in cls.INTEGERS else list(col)
                     for name, col in zip(fields, columns)))

    def _columns(self) -> tuple:
        return tuple(getattr(self, name) for name in self.RECORD._fields)

    def _lists(self) -> list[list]:
        """Every column as a list of Python objects."""
        return [col.tolist() if isinstance(col, np.ndarray) else col
                for col in self._columns()]

    def _utf8(self, name: str
              ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The UTF-8 bytes of the string column `name`, in parts that
        follow each other in row order: (bytes, starts, lengths), the
        field of row k of the part being bytes[starts[k]:][:lengths[k]].

        A read table gives its plain blocks' bytes as they are, with no
        str made per field, and then the csv reader's fields; any other
        table gives its column. Those strs are encoded with
        "surrogatepass", so that a lone surrogate has bytes too."""
        text = vars(self).get("_text")
        if text is None:
            yield _encoded(getattr(self, name))
            return
        blocks, tails = text
        fields = self.RECORD._fields
        i, width = fields.index(name), len(fields)
        for block in blocks:
            raw = np.frombuffer(block, np.uint8)
            starts, stops = _field_bounds(raw, i, width)
            yield raw, starts, stops - starts
        if tails[i]:
            yield _encoded(tails[i])

    def __len__(self) -> int:
        # an integer column, which a read table holds from the start
        return len(getattr(self, self.INTEGERS[0]))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(col[index] for col in self._columns()))
        return self.RECORD._make(
            int(col[index]) if isinstance(col, np.ndarray) else col[index]
            for col in self._columns())

    def __iter__(self):
        return map(self.RECORD._make, zip(*self._lists()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray)
                   else a == b
                   for a, b in zip(self._columns(), other._columns()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} rows>)"


@dataclass(frozen=True, eq=False, repr=False)
class MovieTable(_Table):
    movie_id: list[str]
    title: list[str]
    year: np.ndarray
    runtime_minutes: np.ndarray

    RECORD = MovieRecord
    HEADER = MOVIE_HEADER
    INTEGERS = ("year", "runtime_minutes")


@dataclass(frozen=True, eq=False, repr=False)
class WatchTable(_Table):
    watch_id: list[str]
    movie_id: list[str]
    date: list[str]
    minutes_watched: np.ndarray

    RECORD = WatchRecord
    HEADER = WATCH_HEADER
    INTEGERS = ("minutes_watched",)
    SHARED = ("date",)  # 366 distinct dates in a generated table


def _block_column(table: _Table, name: str) -> list:
    """The string column `name` of a table that `_read_table` made, from
    its `_text`: the UTF-8 text of the file's plain blocks, and the fields
    the csv reader read after them. It is made on the first read and kept
    in the table; the text stays for the columns not yet read. In a column
    of `SHARED`, equal fields are one str object."""
    blocks, tails = table._text
    fields = table.RECORD._fields
    i, width = fields.index(name), len(fields)
    if name not in table.SHARED:
        return _block_fields(blocks, i, width) + tails[i]
    # the dict hands back the first str of each value it kept; a block at a
    # time, so that only one block's copies are alive
    keep, column = {}.setdefault, []
    for block in blocks:
        part = _block_fields((block,), i, width)
        column += map(keep, part, part)
    column += map(keep, tails[i], tails[i])
    return column


# set once the dataclasses are made, which would take them for defaults
for _cls, _name in ((MovieTable, "movie_id"), (MovieTable, "title"),
                    (WatchTable, "watch_id"), (WatchTable, "movie_id"),
                    (WatchTable, "date")):
    setattr(_cls, _name, cached_property(partial(_block_column, name=_name)))
    getattr(_cls, _name).__set_name__(_cls, _name)


def gen_movielib(size: int, seed: int) -> tuple[MovieTable, WatchTable]:
    """Synthetic movie/watch tables of `size` records each.

    Movie ids are unique ("tt<k>"); each watch record references a movie
    drawn uniformly with replacement, so the distinct-watched fraction tends
    to 1 - 1/e for large sizes.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rng = seeded_rng(seed)
    years = rng.integers(1920, 2024, size=size)
    runtimes = rng.integers(45, 181, size=size)
    picks = rng.integers(0, size, size=size)
    days = rng.integers(0, 366, size=size)
    minute_draws = rng.integers(0, 2**31, size=size)

    base_day = datetime.date(2020, 1, 1)
    day_str = [(base_day + datetime.timedelta(days=d)).isoformat()
               for d in range(366)]

    numbers = range(1, size + 1)
    movie_ids = [f"tt{i}" for i in numbers]
    movies = MovieTable(movie_ids, [f"Movie {i}" for i in numbers],
                        years, runtimes)
    watches = WatchTable([f"w{i}" for i in numbers],
                         list(map(movie_ids.__getitem__, picks.tolist())),
                         list(map(day_str.__getitem__, days.tolist())),
                         1 + minute_draws % runtimes[picks])
    return movies, watches


# A plain field holds none of `,` `"` `\r` `\n` `\0`, so csv.writer writes
# it as it is and csv.reader reads it back unchanged. Whole blocks of lines
# of plain fields are written and read with str.join and str.split; the csv
# module writes any other block, and reads a file from its first other
# block on.
_NOT_PLAIN = ('"', "\r", "\0")
_WRITE_BLOCK_ROWS = 4096
_READ_BLOCK_CHARS = 1 << 16
# The text of one row as csv.writer writes it (`writerow` returns what
# `write` returns). Under "\r\n" it quotes a field holding "\r" as well as
# one holding "\n", on every Python version; the files end rows with "\n".
_csv_line = csv.writer(SimpleNamespace(write=str),
                       lineterminator="\r\n").writerow


def _plain_lines(fields: list[list]) -> str | None:
    """The rows of `fields` (one list per column) as lines of comma-joined
    fields, or None when a field is not a plain str."""
    try:
        text = "\n".join(map(",".join, zip(*fields))) + "\n"
    except TypeError:  # a field that is no str: csv.writer formats it
        return None
    rows = len(fields[0])
    if (text.count(",") != (len(fields) - 1) * rows
            or text.count("\n") != rows
            or any(c in text for c in _NOT_PLAIN)):
        return None
    return text


def write_movielib(movies, watches, movies_path: str,
                   watches_path: str) -> None:
    """Emit the two tables (tables or iterables of records) as
    comma-separated text files with header rows.

    Each row is what `csv.writer` writes, ending in "\n", and a field that
    holds "\r" is quoted as one that holds "\n" is (RFC 4180). Blocks of
    rows whose fields are all plain strings or integers are joined
    directly.
    """
    for table, path in ((MovieTable.of(movies), movies_path),
                        (WatchTable.of(watches), watches_path)):
        columns = table._columns()
        # integer arrays are written as str() writes their values
        integer = [isinstance(col, np.ndarray) and col.dtype.kind in "iu"
                   for col in columns]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(table.HEADER) + "\n")
            for start in range(0, len(table), _WRITE_BLOCK_ROWS):
                block = table[start:start + _WRITE_BLOCK_ROWS]._lists()
                text = _plain_lines([list(map(str, col)) if is_int else col
                                     for col, is_int in zip(block, integer)])
                fh.write("".join(_csv_line(row)[:-2] + "\n"
                                 for row in zip(*block))
                         if text is None else text)


def _field_bounds(raw: np.ndarray, i: int, width: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Byte offsets (starts, stops) of field `i` of every line of `raw`,
    the UTF-8 bytes of whole lines of `width` plain fields: the field is
    raw[starts[k]:stops[k]], and raw[stops[k]] the separator that ends it.
    UTF-8 byte offsets are exact, as "," and "\n" are single bytes."""
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    return np.concatenate(([0], seps + 1))[i:-1:width], seps[i::width]


def _block_fields(blocks: Iterable[bytes], i: int, width: int
                  ) -> list[str]:
    """Field `i` of every line of `blocks`, UTF-8 text of whole lines of
    `width` plain fields. The bytes of the field, each with the separator
    that ends it, are gathered from every block, decoded once and split
    on that separator."""
    parts = []
    for block in blocks:
        raw = np.frombuffer(block, np.uint8)
        starts, stops = _field_bounds(raw, i, width)
        lengths = stops + 1 - starts
        ends = np.cumsum(lengths)
        parts.append(raw[np.arange(ends[-1])
                         + np.repeat(starts - ends + lengths, lengths)])
    if not parts:
        return []
    fields = str(np.concatenate(parts), "utf-8").split(
        "\n" if i == width - 1 else ",")
    fields.pop()  # the "" after the last separator
    return fields


def _plain_block(block: str, integer: list[bool], limit: int
                 ) -> tuple[bytes, list[np.ndarray]] | None:
    """The UTF-8 text of `block` and its integer columns (int64 arrays,
    where `integer` says, in field order) when it is whole lines of plain
    fields, else None.

    Then it ends with a newline, every line has one comma fewer than there
    are columns and is shorter than `limit`, it holds none of `"` `\r`
    `\0`, and its integer fields convert with `int()` into int64; fields
    of an optional "-" and ASCII digits are converted together from the
    bytes (`instances._decimals`). Its string fields are left in the text.
    """
    if block[-1] != "\n" or any(c in block for c in _NOT_PLAIN):
        return None
    width = len(integer)
    # positions in UTF-8 bytes: "," and "\n" are single bytes, and a line
    # has at least as many bytes as csv counts characters
    text = block.encode()
    raw = np.frombuffer(text, np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    rows, extra = divmod(len(seps), width)
    newline = raw[seps] == ord("\n")
    if (extra or np.count_nonzero(newline) != rows
            or not newline[width - 1::width].all()):
        return None
    stops = seps.reshape(rows, width)
    starts = np.concatenate(([0], seps[:-1] + 1)).reshape(rows, width)
    if (stops[:, -1] - starts[:, 0]).max() >= limit:
        return None
    columns = []
    try:
        for i in np.flatnonzero(integer):
            values = _decimals(raw, starts[:, i], stops[:, i])
            columns.append(_int_column(_block_fields((text,), i, width), "")
                           if values is None else values)
    except ValueError:
        return None
    return text, columns


def _read_table(path: str, cls: type[_Table]) -> _Table:
    """One table from a file `write_movielib` made, as one `csv.reader`
    pass over it reads it: a row whose field count differs from the
    header's is rejected with its line number, as is one the csv module
    rejects; integer fields accept what `int()` accepts.

    After a plain header line, blocks of about `_READ_BLOCK_CHARS`
    characters, finished at a line end, are read by `_plain_block`. From
    the first block (or header) that is not plain, `csv.reader` reads the
    rest, its line numbers counted on from the lines before. Every check
    and integer conversion is made here; the table keeps the plain
    blocks' text and the csv reader's string fields, and makes each string
    column from them on its first read.
    """
    limit = csv.field_size_limit()
    integer = [name in cls.INTEGERS for name in cls.RECORD._fields]
    texts: list[bytes] = []  # of the plain blocks
    columns: list[list] = [[] for _ in integer]  # int64 arrays a block
    done = 0  # lines read before the csv reader's first
    try:
        with open(path, newline="") as fh:
            block = fh.readline()
            if block == ",".join(cls.HEADER) + "\n" and len(block) <= limit:
                done = 1
                while block := fh.read(_READ_BLOCK_CHARS):
                    if block[-1] != "\n":
                        block += fh.readline()
                    plain = _plain_block(block, integer, limit)
                    if plain is None:
                        break
                    text, values = plain
                    texts.append(text)
                    for col, array in zip(compress(columns, integer),
                                          values):
                        col.append(array)
                    done += len(values[0])  # rows, in an integer column
            reader = csv.reader(chain(io.StringIO(block, newline=""), fh))
            tail = [[] for _ in integer]  # the csv reader's fields
            # both tables have four fields
            add0, add1, add2, add3 = (col.append for col in tail)
            try:
                if not done:
                    header = next(reader, None)
                    if tuple(header or ()) != cls.HEADER:
                        raise ValueError(f"{path}: bad header {header}")
                for row in reader:
                    try:
                        field0, field1, field2, field3 = row
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {done + reader.line_num} has "
                            f"{len(row)} fields, the header "
                            f"{len(cls.HEADER)}") from None
                    add0(field0)
                    add1(field1)
                    add2(field2)
                    add3(field3)
            except csv.Error as exc:
                raise ValueError(f"{path}: line {done + reader.line_num}: "
                                 f"{exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    table = cls.__new__(cls)
    state = vars(table)
    for name, col, rest, is_int, title in zip(cls.RECORD._fields, columns,
                                              tail, integer, cls.HEADER):
        if is_int:
            state[name] = np.concatenate(
                col + [_int_column(rest, f"{path}: {title}")])
            rest.clear()  # `_text` keeps only the string fields
    state["_text"] = tuple(texts), tuple(tail)
    return table


def read_movielib(movies_path: str, watches_path: str
                  ) -> tuple[MovieTable, WatchTable]:
    """The two tables, from files as `write_movielib` writes them."""
    return (_read_table(movies_path, MovieTable),
            _read_table(watches_path, WatchTable))
