"""Seed-driven generation: random instances, isomorphs, urn trials, movie data.

Every generator is a pure function of its arguments plus a 64-bit seed. The
randomness source is a counter-based generator (Philox), so equal seeds give
equal output streams on every platform.
"""

from __future__ import annotations

import csv
import datetime
from typing import NamedTuple

import numpy as np

from .instances import UNIT, BigraphInstance, UnateRequiredError

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


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays; each call advances the
    hash constant, which starts at `init`, by one factor of `mult`."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def replica_keys(seeds) -> np.ndarray:
    """Philox keys of `seeded_rng(s)` for every seed s, shape (len, 2).

    Row i equals `np.random.SeedSequence(seeds[i]).generate_state(2,
    np.uint64)`, the key `Philox(seeds[i])` uses, for 0 <= s < 2^64. Such a
    seed is at most two 32-bit words, which SeedSequence pads to its pool of
    four with zeros, so one pass of uint32 array arithmetic hashes the whole
    block; the hash constants do not depend on the data.
    """
    # checked on the Python ints: numpy 1.x wraps -1 to 2**64 - 1 silently
    if not all(0 <= seed < 1 << 64 for seed in seeds):
        raise ValueError("seeds must lie in 0 .. 2**64 - 1")
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    words = [(s & _MASK32).astype(np.uint32), (s >> 32).astype(np.uint32)]
    words += [np.zeros_like(words[0])] * (_POOL - len(words))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = (pool[dst] * np.uint32(_MIX_L)
                         - hashmix(pool[src]) * np.uint32(_MIX_R))
                pool[dst] = mixed ^ (mixed >> 16)
    output = _hashmix(_INIT_B, _MULT_B)
    state = [output(value) for value in pool]
    # two 32-bit words per 64-bit key word, low word first
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


# Philox4x64-10 (Salmon et al., SC'11): the multipliers of counter words 0
# and 2, and the key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Keys per pass of `philox_first_block`; a pass holds about 20 arrays of
# 2 x 8 bytes per key.
_BLOCK_CHUNK = 1024
_WORD = 1 << 32
# Words a replica takes from its reset generator once it draws past its
# first block: one refill holds what a replica on a 400 x 4000 OR-library
# instance draws (up to about 80 words), and a reset costs several draws.
_REFILL_WORDS = 128


def philox_first_block(keys: np.ndarray) -> np.ndarray:
    """First eight 32-bit words of `seeded_rng` with each Philox key.

    `keys` has shape (R, 2), as `replica_keys` gives it; the result has
    shape (R, 8) and row i equals `Philox(key=keys[i]).random_raw(4)`
    viewed as little-endian uint32. numpy's Philox bumps its counter before
    it makes a block, so a fresh stream's first block is Philox4x64-10 at
    counter (1, 0, 0, 0); `next_uint32` hands out the low half of each
    64-bit output before its high half.

    Keys are taken `_BLOCK_CHUNK` at a time, so the temporaries stay a
    small fraction of the result.
    """
    block = np.empty((len(keys), 8), np.uint32)
    for start in range(0, len(keys), _BLOCK_CHUNK):
        stop = start + _BLOCK_CHUNK
        block[start:stop] = _philox_chunk(keys[start:stop])
    return block


def _philox_chunk(keys: np.ndarray) -> np.ndarray:
    """`philox_first_block` of at most `_BLOCK_CHUNK` keys.

    The counter is held as two (2, R) arrays, its even words (0, 2) and its
    odd words (1, 3), so each round multiplies both even words at once.
    Every operand is a full (2, R) array: numpy takes several times longer
    to broadcast a scalar or a column over a small block.
    """
    def rows(pair):
        return np.array(pair, np.uint64)[:, None].repeat(len(keys), axis=1)

    mult, bump = rows(_PHILOX_M), rows(_PHILOX_W)
    shift, low = rows((32, 32)), rows((_MASK32, _MASK32))
    m_hi, m_lo = mult >> shift, mult & low
    key = keys.T.copy()
    even = np.zeros_like(key)
    even[0] = 1
    odd = np.zeros_like(key)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += bump
        # high 64 bits of mult * even from 32-bit partial products
        # (Hacker's Delight's mulhu); no sum overflows uint64
        e_hi, e_lo = even >> shift, even & low
        t = m_lo * e_hi + (m_lo * e_lo >> shift)
        u = m_hi * e_lo + (t & low)
        high = m_hi * e_hi + (t >> shift) + (u >> shift)
        # (c0, c1, c2, c3) -> (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
        #                      hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        even, odd = high[::-1] ^ odd ^ key, (mult * even)[::-1]
    block = np.stack((even, odd), axis=2).transpose(1, 0, 2)
    return block.reshape(-1, 4).astype("<u8").view("<u4")


class ReplicaStreams:
    """The `seeded_rng` streams of a block of replica ids, from one Philox.

    `rng(i)` resets a single generator to the state `seeded_rng(seeds[i])`
    starts in (replica i's key, counter zero, empty buffer) and returns it,
    so a block pays for one generator and one vectorized key derivation
    instead of one generator per replica. The generator is made at the
    first `rng` call, and each call invalidates the stream the last one
    returned.

    `draws(i)` gives replica i's bounded draws without a generator: the
    first eight words of every replica's stream come from one vectorized
    Philox pass (`philox_first_block`, made at the first draw of any
    replica), and later words from `rng(i)`.
    """

    def __init__(self, seeds):
        self.keys = replica_keys(seeds)
        self._words: np.ndarray | None = None
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

    def draws(self, i: int) -> "ReplicaDraws":
        return ReplicaDraws(self, i)

    def words(self, i: int, count: int) -> list[int]:
        """The first `count` 32-bit words of replica i's stream; `count` is
        even, and 8 (one Philox block) needs no generator."""
        if count == 8:
            if self._words is None:
                self._words = philox_first_block(self.keys)
            return self._words[i].tolist()
        raw = self.rng(i).bit_generator.random_raw(count // 2)
        return raw.astype("<u8").view("<u4").tolist()


class ReplicaDraws:
    """`integers(k)` of replica i's stream, draw for draw as
    `seeded_rng(seeds[i]).integers(k)` gives it, for 2 <= k < 2^32.

    numpy draws that bound with Lemire's multiply-and-reject method
    (ACM TOMACS 2019): m = u * k for the next 32-bit word u, drawn again
    while m's low word is below (2^32 - k) mod k, and the draw is m >> 32.
    Words come from the stream's first block, then from `rng(i)`: each
    refill resets it and takes at least twice the words held, so the draws
    never depend on another replica's use of the generator.
    """

    __slots__ = ("_streams", "_i", "_words", "_pos")

    def __init__(self, streams: ReplicaStreams, i: int):
        self._streams = streams
        self._i = i
        self._words: list[int] = []
        self._pos = 0

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
        m = self._next_word() * k
        # k bounds the threshold, so most draws skip its modulo
        if m & _MASK32 < k:
            threshold = (_WORD - k) % k
            while m & _MASK32 < threshold:
                m = self._next_word() * k
        return m >> 32


def gen_random_instance(m_rows: int, n_cols: int, deg_min: int, deg_max: int,
                        seed: int) -> BigraphInstance:
    """Random unit-weight unate instance.

    Each row draws its degree uniformly from [deg_min, deg_max] and then that
    many distinct columns uniformly without replacement. Expected density is
    (deg_min + deg_max) / (2 * n_cols).
    """
    if m_rows < 1 or n_cols < 1:
        raise ValueError("m_rows and n_cols must be positive")
    if not 1 <= deg_min <= deg_max <= n_cols:
        raise ValueError(f"need 1 <= deg_min <= deg_max <= n_cols, "
                         f"got {deg_min}..{deg_max} over {n_cols}")
    rng = seeded_rng(seed)
    rows = []
    for _ in range(m_rows):
        deg = int(rng.integers(deg_min, deg_max + 1))
        cols = rng.choice(n_cols, size=deg, replace=False)
        rows.append(tuple(sorted(int(c) + 1 for c in cols)))
    return BigraphInstance(
        name=f"m{m_rows}_{n_cols}_{deg_min}_{deg_max}",
        n_cols=n_cols, m_rows=m_rows, rows=tuple(rows),
        col_weights=(1.0,) * n_cols, weight_kind=UNIT)


def permute_columns(instance: BigraphInstance,
                    perm: tuple[int, ...]) -> BigraphInstance:
    """Column-relabelled copy: output column idx carries input column perm[idx].

    Weights travel with their columns; signs of binate literals are kept.
    """
    n = instance.n_cols
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm is not a permutation of 1..{n}")
    inverse = [0] * (n + 1)
    for idx, col in enumerate(perm, start=1):
        inverse[col] = idx
    rows = tuple(
        tuple(sorted(((1 if lit > 0 else -1) * inverse[abs(lit)]
                      for lit in clause), key=abs))
        for clause in instance.rows)
    weights = tuple(instance.col_weights[col - 1] for col in perm)
    # a bijective relabelling keeps every invariant of a valid instance
    return BigraphInstance._trusted(name=instance.name, n_cols=n,
                                    m_rows=instance.m_rows, rows=rows,
                                    col_weights=weights,
                                    weight_kind=instance.weight_kind)


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


def gen_movielib(size: int, seed: int
                 ) -> tuple[list[MovieRecord], list[WatchRecord]]:
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

    movies = [MovieRecord(f"tt{i + 1}", f"Movie {i + 1}",
                          int(years[i]), int(runtimes[i]))
              for i in range(size)]
    watches = []
    for i in range(size):
        movie = movies[picks[i]]
        minutes = 1 + int(minute_draws[i]) % movie.runtime_minutes
        watches.append(WatchRecord(f"w{i + 1}", movie.movie_id,
                                   day_str[days[i]], minutes))
    return movies, watches


MOVIE_HEADER = ("movieID", "title", "year", "runtimeMinutes")
WATCH_HEADER = ("watchID", "movieID", "date", "minutesWatched")


def write_movielib(movies: list[MovieRecord], watches: list[WatchRecord],
                   movies_path: str, watches_path: str) -> None:
    """Emit the two tables as comma-separated text files with header rows."""
    with open(movies_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(MOVIE_HEADER)
        w.writerows(movies)
    with open(watches_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(WATCH_HEADER)
        w.writerows(watches)


def read_movielib(movies_path: str, watches_path: str
                  ) -> tuple[list[MovieRecord], list[WatchRecord]]:
    with open(movies_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != MOVIE_HEADER:
            raise ValueError(f"{movies_path}: bad header {header}")
        movies = [MovieRecord(r[0], r[1], int(r[2]), int(r[3]))
                  for r in reader]
    with open(watches_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != WATCH_HEADER:
            raise ValueError(f"{watches_path}: bad header {header}")
        watches = [WatchRecord(r[0], r[1], r[2], int(r[3]))
                   for r in reader]
    return movies, watches
