import copy
import csv
import hashlib
import io
import math
import pickle
from dataclasses import replace
from functools import partial
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bglab.generators as generators
import bglab.instances as instances
from bglab.bench import watch_counts
from bglab.cover import _SMALL_COLS, brute_force_cover, greedy_basic
from bglab.generators import (MovieTable, ReplicaStreams, WatchRecord,
                              WatchTable, bounded_draws, gen_isomorph,
                              gen_movielib,
                              gen_random_instance, isomorph_permutation,
                              permute_columns, philox_words,
                              read_movielib, replica_keys, seeded_rng,
                              urn_trial, write_movielib)
from bglab.instances import (UNIT, BigraphInstance, UnateRequiredError,
                             compute_stats, parse_cnf, write_cnf)
from bglab.library import SCHOOL_5_5_ISO_PERM, school_5_5_ref

from conftest import random_instance


def test_seeded_rng_deterministic():
    a = seeded_rng(42).integers(0, 1 << 30, size=8)
    b = seeded_rng(42).integers(0, 1 << 30, size=8)
    c = seeded_rng(43).integers(0, 1 << 30, size=8)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        seeded_rng(-1)


KEY_SEEDS = list(range(4096)) + [2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1]


def test_replica_keys_equal_seed_sequence():
    keys = replica_keys(KEY_SEEDS)
    assert keys.shape == (len(KEY_SEEDS), 2)
    assert keys.dtype == np.uint64
    for s, key in zip(KEY_SEEDS, keys):
        expected = np.random.SeedSequence(s).generate_state(2, np.uint64)
        assert key.tolist() == expected.tolist(), s
    # a range gives the same keys as the list of its seeds
    assert np.array_equal(replica_keys(range(1, 300)), keys[1:300])
    assert replica_keys([]).shape == (0, 2)


@pytest.mark.parametrize("seeds", [[-1], [3, -5], [2**64]])
def test_replica_keys_reject_out_of_range(seeds):
    with pytest.raises(ValueError):
        replica_keys(seeds)


def test_replica_streams_equal_seeded_rng():
    seeds = [7, 0, 2**40 + 3, 7, 999_999]
    streams = ReplicaStreams(seeds)
    # each stream is used differently, so leftover buffer state would show
    for i in (3, 1, 0, 4, 2, 0):
        rng, ref = streams.rng(i), seeded_rng(seeds[i])
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        assert rng.random() == ref.random()
        assert rng.integers(0, 3) == ref.integers(0, 3)
        assert rng.random() == ref.random()
        assert rng.permutation(9).tolist() == ref.permutation(9).tolist()
        assert rng.integers(0, 1 << 40, size=5).tolist() == \
            ref.integers(0, 1 << 40, size=5).tolist()


def test_isomorph_permutation_from_given_stream():
    streams = ReplicaStreams([5, 0])
    assert isomorph_permutation(12, 5, streams.rng(0)) == \
        isomorph_permutation(12, 5)
    # replica 0 stays the natural order, whatever stream comes with it
    assert isomorph_permutation(4, 0, streams.rng(1)) == (1, 2, 3, 4)


def _raw_words(seed: int, count: int) -> list[int]:
    """First `count` 32-bit words of `seeded_rng(seed)`, low half of each
    64-bit output first."""
    raw = np.random.Philox(seed).random_raw(count // 2)
    return raw.astype("<u8").view("<u4").tolist()


def test_first_block_equals_philox():
    block = philox_words(replica_keys(KEY_SEEDS), 8)
    assert block.shape == (len(KEY_SEEDS), 8)
    assert block.dtype == np.uint32
    for s, row in zip(KEY_SEEDS, block):
        assert row.tolist() == _raw_words(s, 8), s
    seeds = range(10_000)
    block = philox_words(replica_keys(seeds), 8)
    assert all(block[s].tolist() == _raw_words(s, 8)
               for s in range(0, 10_000, 7))
    assert philox_words(replica_keys([]), 8).shape == (0, 8)
    # three blocks of each stream, over keys that straddle one chunk
    seeds = range(1100)
    words = philox_words(replica_keys(seeds), 24)
    assert words.shape == (1100, 24)
    assert all(words[s].tolist() == _raw_words(s, 24) for s in seeds)
    assert philox_words(replica_keys([]), 24).shape == (0, 24)


def _perm_ranks(n: int, seed: int) -> list[int]:
    """Rank list of `isomorph_permutation(n, seed)`: rank[c] is column
    c + 1's 0-based position in it."""
    perm = isomorph_permutation(n, seed)
    rank = [0] * n
    for idx, col in enumerate(perm):
        rank[col - 1] = idx
    return rank


def _block_ranks(seeds, n: int) -> list[list[int]]:
    """`ReplicaStreams.ranks`' rank matrices, one row per replica."""
    return [row for block in ReplicaStreams(seeds).ranks(n)
            for row in block.tolist()]


# column counts up to the bitmask path's widest, which is the widest an
# iso distribution run takes from the keystream: every count to 17, then
# both sides of each mask width; at 9, 17 and 65 about half of the first
# draws are rejected
RANK_COLS = list(range(1, 18)) + [31, 32, 33, 64, 65, 100,
                                  _SMALL_COLS - 1, _SMALL_COLS]


@pytest.mark.parametrize("n", RANK_COLS)
def test_block_ranks_equal_permutation(n):
    # random six-digit ids, replica 0 in both chunks of the block
    seeds = seeded_rng(n).integers(0, 10**6, size=1100).tolist()
    seeds[5] = seeds[1030] = 0
    assert _block_ranks(seeds, n) == \
        [_perm_ranks(n, s) for s in seeds]


def test_block_ranks_straddle_chunks():
    chunk = generators._BLOCK_CHUNK
    for count in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        seeds = range(1, count + 1)
        ranks = _block_ranks(seeds, 9)
        assert len(ranks) == count
        # each chunk's edges, where a shift by one replica would show
        for i in {0, chunk - 1, chunk, count - 2, count - 1}:
            if i < count:
                assert ranks[i] == _perm_ranks(9, seeds[i]), (count, i)
    assert _block_ranks([], 9) == []
    assert _block_ranks([0, 0], 4) == [[0, 1, 2, 3]] * 2


@pytest.mark.parametrize("words", [0, 8])
def test_block_ranks_fall_back_when_words_run_out(monkeypatch, words):
    computed = generators._perm_words
    seeds = [0] + list(range(1, 300))
    resets = []
    original = ReplicaStreams.rng

    def rng(self, i):
        resets.append(i)
        return original(self, i)

    monkeypatch.setattr(ReplicaStreams, "rng", rng)
    monkeypatch.setattr(generators, "_perm_words", lambda n: words)
    ranks = _block_ranks(seeds, 9)
    assert ranks == [_perm_ranks(9, s) for s in seeds]
    # numpy's Philox makes its second block at counter 2, so a replica
    # drew more than the eight words of its first exactly when its
    # generator's counter passed 1; replica 0 draws nothing
    longer = []
    for i, seed in enumerate(seeds[1:], start=1):
        rng = seeded_rng(seed)
        rng.permutation(9)
        if words == 0 or rng.bit_generator.state["state"]["counter"][0] > 1:
            longer.append(i)
    assert resets == longer
    assert words == 0 or 150 < len(longer) < 290
    resets.clear()
    monkeypatch.setattr(generators, "_perm_words", computed)
    assert _block_ranks(seeds, 9)[1:] == ranks[1:]
    assert len(resets) < 10


DRAW_BOUNDS = list(range(2, 201)) + [2**31 + 1, 2**32 - 1]


def test_replica_draws_equal_seeded_rng():
    seeds = [1, 7, 0, 2**40 + 3, 999_999, 2**64 - 1]
    streams = ReplicaStreams(seeds)
    draws = [streams.draws(i) for i in range(len(seeds))]
    refs = [seeded_rng(s) for s in seeds]
    # interleaved replicas, each well past its first block of 8 words
    for k in DRAW_BOUNDS:
        for draw, ref in zip(draws, refs):
            assert draw.integers(k) == int(ref.integers(k)), k
    assert all(type(draw.integers(5)) is int for draw in draws)


def test_replica_draws_reject_low_words():
    class Crafted(ReplicaStreams):
        def words(self, i, count):
            return [0, 0, 7, 0, 2, 3, 1, 1][:count]

    draw = Crafted([1]).draws(0)
    # 0 * 3 leaves the low word 0, below (2^32 - 3) % 3 = 1: the words 0
    # are rejected and 7 gives 21 >> 32
    assert draw.integers(3) == 0 and draw._pos == 3
    # k = 2^31 + 1 rejects a low word below 2^31 - 1: 0 * k and 2 * k = 2
    # (mod 2^32) are rejected, 3 * k = 2^32 + 2^31 + 3 gives 1
    assert draw.integers(2**31 + 1) == 1 and draw._pos == 6
    # that bound rejects about half of all words, so real streams take the
    # branch too; numpy's draws agree
    rejected = 0
    streams = ReplicaStreams(range(1, 41))
    for i, seed in enumerate(range(1, 41)):
        draw = streams.draws(i)
        assert draw.integers(2**31 + 1) == \
            int(seeded_rng(seed).integers(2**31 + 1))
        rejected += draw._pos > 1
    assert 5 < rejected < 35


def test_bounded_draws_equal_replica_draws():
    # the crafted words of the test above: 3 rejects two words, then
    # 2^31 + 1 rejects two more; a row past its words gets -1
    words = np.array([[0, 0, 7, 0, 2, 3, 1, 1]], np.uint32)
    pos = np.zeros(1, np.intp)
    rows = np.zeros(1, np.intp)
    assert bounded_draws(words, pos, rows, np.array([3])).tolist() == [0]
    assert pos.tolist() == [3]
    assert bounded_draws(words, pos, rows,
                         np.array([2**31 + 1])).tolist() == [1]
    assert pos.tolist() == [6]
    for expected in (0, 0, -1):
        assert bounded_draws(words, pos, rows,
                             np.array([3])).tolist() == [expected]
    assert pos.tolist() == [8]
    # real streams, row by row as ReplicaDraws takes them, until each row
    # would draw past its first block
    seeds = range(1, 41)
    streams = ReplicaStreams(seeds)
    words = philox_words(replica_keys(seeds), 8)
    pos = np.zeros(len(seeds), np.intp)
    draws = [streams.draws(i) for i in range(len(seeds))]
    rows = np.arange(len(seeds))
    rejected = 0
    for k in [2, 3, 7, 2**31 + 1, 2**32 - 1] * 4:
        before = pos[rows]
        got = bounded_draws(words, pos, rows, np.full(len(rows), k))
        rejected += int((pos[rows] - before > 1).sum())
        for row, value in zip(rows.tolist(), got.tolist()):
            expected = draws[row].integers(k)
            if value < 0:
                assert draws[row]._pos > 8
            else:
                assert value == expected and pos[row] == draws[row]._pos
        rows = rows[got >= 0]
    assert rows.size == 0 and rejected > 5


@pytest.mark.parametrize("k", [-1, 0, 1, 2**32, 2**40])
def test_replica_draws_reject_bad_bounds(k):
    with pytest.raises(ValueError):
        ReplicaStreams([3]).draws(0).integers(k)


def test_gen_random_deterministic():
    x = gen_random_instance(20, 15, 2, 4, seed=7)
    y = gen_random_instance(20, 15, 2, 4, seed=7)
    z = gen_random_instance(20, 15, 2, 4, seed=8)
    assert x == y
    assert write_cnf(x) == write_cnf(y)
    assert x != z


def test_gen_random_degenerate():
    for seed in (0, 1, 99):
        inst = gen_random_instance(1, 1, 1, 1, seed)
        assert inst.rows == ((1,),)
        assert inst.n_cols == 1


def test_gen_random_degrees_and_weights():
    inst = gen_random_instance(50, 30, 2, 5, seed=3)
    assert inst.name == "m50_30_2_5"
    assert inst.weight_kind == "unit"
    for clause in inst.rows:
        assert 2 <= len(clause) <= 5
        assert all(1 <= c <= 30 for c in clause)
        assert len(set(clause)) == len(clause)


def test_gen_random_density_band():
    # per-row degree uniform in [10, 15] over 100 columns
    inst = gen_random_instance(100, 100, 10, 15, seed=11)
    dens = compute_stats(inst).m_dens
    assert 0.10 <= dens <= 0.15


def test_gen_random_validation():
    with pytest.raises(ValueError):
        gen_random_instance(1, 5, 0, 3, seed=0)
    with pytest.raises(ValueError):
        gen_random_instance(1, 5, 4, 3, seed=0)
    with pytest.raises(ValueError):
        gen_random_instance(1, 5, 2, 6, seed=0)
    with pytest.raises(ValueError, match="must be positive"):
        gen_random_instance(0, 5, 1, 3, seed=0)


def _numpy_rows(m_rows, n_cols, deg_min, deg_max, seed):
    """The rows of `gen_random_instance` as numpy's generator draws them:
    a degree, then that many columns without replacement, per row."""
    rng = seeded_rng(seed)
    rows = []
    for _ in range(m_rows):
        deg = int(rng.integers(deg_min, deg_max + 1))
        cols = rng.choice(n_cols, size=deg, replace=False)
        rows.append(tuple(sorted(int(c) + 1 for c in cols)))
    return tuple(rows)


def _assert_numpy_rows(shape, seed):
    inst = gen_random_instance(*shape, seed)
    rows = _numpy_rows(*shape, seed)
    assert inst.rows == rows
    public = BigraphInstance(name=inst.name, n_cols=shape[1],
                             m_rows=shape[0], rows=rows,
                             col_weights=(1.0,) * shape[1], weight_kind=UNIT)
    for got, want in zip(inst._literals, public._literals):
        np.testing.assert_array_equal(got, want)
    return inst


@st.composite
def random_shapes(draw):
    n_cols = draw(st.integers(1, 120))
    deg_min = draw(st.integers(1, n_cols))
    deg_max = draw(st.sampled_from([deg_min, n_cols])
                   | st.integers(deg_min, n_cols))
    return draw(st.integers(1, 40)), n_cols, deg_min, deg_max


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_shapes(), st.integers(0, 2**64 - 1))
# n_cols == 1; deg_min == deg_max, whose degree draw takes no word;
# deg == n_cols, whose Floyd step j = 0 takes none
@example((5, 1, 1, 1), 0)
@example((8, 12, 4, 4), 3)
@example((6, 9, 9, 9), 5)
@example((100, 100, 10, 30), 7)
def test_gen_random_replays_numpy_draws(shape, seed):
    _assert_numpy_rows(shape, seed)


@pytest.mark.parametrize("shape,seed,tails", [
    ((40, 10001, 150, 250), 3, {True, False}),
    ((2, 10001, 10001, 10001), 1, {True}),
])
def test_gen_random_replays_numpy_tail_shuffle(shape, seed, tails):
    # numpy samples more than n_cols // 50 of over 10000 columns with a
    # tail shuffle, fewer with Floyd's sample
    inst = _assert_numpy_rows(shape, seed)
    assert {len(row) > 10001 // 50 for row in inst.rows} == tails


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_shapes() | st.just((40, 10001, 150, 250)),
       st.integers(0, 2**64 - 1))
@example((40, 10001, 150, 250), 3)
def test_gen_random_equals_public_constructor(shape, seed):
    # the instance skips the constructor's checks; its rows, made when
    # first read, pass them and come out as the constructor makes them
    inst = gen_random_instance(*shape, seed)
    inst.rows  # made on this first read, so that vars(inst) holds them
    fields = {k: v for k, v in vars(inst).items() if k != "_literals"}
    public = BigraphInstance(**fields)
    assert vars(public).keys() == vars(inst).keys()
    for key, value in fields.items():
        assert vars(public)[key] == value
    assert type(inst.rows) is tuple and type(inst.col_weights) is tuple
    assert all(type(row) is tuple for row in inst.rows)
    assert all(type(lit) is int for row in inst.rows for lit in row)
    assert all(type(w) is float for w in inst.col_weights)
    for got, want in zip(inst._literals, public._literals, strict=True):
        assert got.dtype == want.dtype and not got.flags.writeable
        np.testing.assert_array_equal(got, want)


def _crafted_stream(monkeypatch, words):
    """Make `gen_random_instance` read `words`, then 7s, as its stream;
    the `_Lookahead`s it reads them through are appended to the list this
    returns."""
    padded = np.array(words + [7] * 4096, np.uint32)
    monkeypatch.setattr(generators, "_stream_chunks",
                        lambda bit_generator: iter([padded]))
    lookaheads = []

    class Recorded(generators._Lookahead):
        def __init__(self, chunks):
            super().__init__(chunks)
            lookaheads.append(self)

    monkeypatch.setattr(generators, "_Lookahead", Recorded)
    return lookaheads


def test_gen_random_rejects_low_words(monkeypatch):
    # 0 is rejected by bound 3 ((2^32 - 3) % 3 = 1); bounds 2 and 4 reject
    # nothing
    lookaheads = _crafted_stream(monkeypatch, [
        0, 2**32 - 1,          # degree 1 + 2 after a rejection
        2**31,                 # j = 2: column 2
        0, 2**31,              # j = 3: column 2, taken, so 3
        0,                     # j = 4: column 1
        0, 5, 5,               # the sample's shuffle, bounds 3, 2
        5,                     # row 2: degree 1
        3 << 30,               # j = 4: column 4
        99])
    assert gen_random_instance(2, 4, 1, 3, 0).rows == ((1, 2, 3), (4,))
    [ahead] = lookaheads
    assert ahead.window(1).tolist() == [99]


@pytest.mark.parametrize("tail_above", [4, 1], ids=["floyd", "tail"])
def test_lookahead_draws_again_past_its_window(tail_above):
    # bound 2^32 // 3 + 1 rejects 0, so a row of degree 2 over that many
    # columns reads 0, 0, 0 before its first column: past the 2 words it
    # is given first, inside the generator (Floyd's path) or the map and
    # zip (the tail path) its columns are drawn through
    n = 2**32 // 3 + 1
    words = [0, 0, 0, 2**31, 2**30, 3 << 30, 99]
    row = partial(generators._scalar_row, n_cols=n, deg_min=2, span=1,
                  tail_above=tail_above)
    ahead = generators._Lookahead(iter([np.array(words + [7] * 9,
                                                  np.uint32)]))
    read = iter(words)
    assert ahead.drawn(row, 2) == row(read.__next__)
    assert ahead.window(1).tolist() == [next(read)]


def test_floyd_sample_rejects_on_real_streams():
    # bounds just above 2^32 / 3 reject about a third of all words
    k = 2**32 // 3 + 1
    rejected = 0
    for seed in range(1, 6):
        rng = seeded_rng(seed)
        words = partial(next, chain.from_iterable(map(
            np.ndarray.tolist,
            generators._stream_chunks(seeded_rng(seed).bit_generator))))
        taken = []

        def next_word():
            taken.append(words())
            return taken[-1]

        for deg in (1, 4, 9):
            assert generators.lemire_draw(next_word, k) == \
                int(rng.integers(0, k))
            cols = rng.choice(k + deg, size=deg, replace=False)
            assert sorted(generators._floyd_sample(next_word, k + deg, deg)) \
                == sorted(int(c) + 1 for c in cols)
        # with no rejection, sample d takes 2 d words: one draw, d Floyd
        # steps and d - 1 shuffle draws
        rejected += len(taken) - 2 * (1 + 4 + 9)
    assert rejected > 10


@pytest.mark.parametrize("shape", [
    (2**14, 2**13, 1, 3),          # the benchmark's random matching shape
    (5000, 40, 3, 9),              # many rows with a repeated draw
    (2000, 20000, 1, 400),         # Floyd's path over more than 10000
    (1500, 30, 30, 30),            # deg == n_cols on every row
    (1200, 12, 1, 12),             # deg == n_cols on some rows
    (3000, 10001, 150, 250),       # Floyd's path and the tail path mixed
    (1, 1, 1, 1),                  # one row, one column
    (6, 8, 1, 3),
    (63, 100, 10, 15),
])
def test_gen_random_blocks_replay_numpy_draws(shape):
    inst = gen_random_instance(*shape, 5)
    assert "rows" not in vars(inst)  # made when first read
    assert inst == _assert_numpy_rows(shape, 5)


def test_gen_random_blocks_replay_rejections_on_a_real_stream(monkeypatch):
    # bounds near 3 * 2^18 reject about one word in 16000: a few of the
    # Floyd draws of 2^15 rows are drawn again
    fallbacks = []
    scalar_row = generators._scalar_row

    def counted(*args, **kwargs):
        fallbacks.append(args)
        return scalar_row(*args, **kwargs)

    monkeypatch.setattr(generators, "_scalar_row", counted)
    _assert_numpy_rows((2**15, 3 * 2**18, 1, 3), 1)
    assert len(fallbacks) >= 1


def test_gen_random_blocks_draw_rejected_rows_word_by_word(monkeypatch):
    # bound 3 rejects 0; a row of degree 1 over 4 columns from [1, 2^31] is
    # (3,). The first crafted row rejects a Floyd and a shuffle word
    # (test_gen_random_rejects_low_words), the second its degree word.
    plain = [1, 2**31]
    lookaheads = _crafted_stream(
        monkeypatch,
        plain * 10 + [0, 2**32 - 1, 2**31, 0, 2**31, 0, 0, 5, 5]
        + plain * 20 + [0, 1, 3 << 30] + plain * 32 + [99])
    inst = gen_random_instance(64, 4, 1, 3, 0)
    assert inst.rows == ((3,),) * 10 + ((1, 2, 3),) + ((3,),) * 20 \
        + ((4,),) + ((3,),) * 32
    [ahead] = lookaheads
    assert ahead.window(1).tolist() == [99]


def test_permute_columns_roundtrip(rs):
    inst = random_instance(rs, weighted=True)
    n = inst.n_cols
    perm = tuple(rs.sample(range(1, n + 1), n))
    permuted = permute_columns(inst, perm)
    inverse = tuple(perm.index(c) + 1 for c in range(1, n + 1))
    assert permute_columns(permuted, inverse) == inst


def test_relabelled_instances_pass_full_validation(rs):
    # permute_columns and gen_isomorph skip the per-literal checks
    for _ in range(50):
        unate = random_instance(rs, weighted=rs.random() < 0.5)
        n = unate.n_cols
        perm = tuple(rs.sample(range(1, n + 1), n))
        binate = replace(unate, rows=tuple(
            tuple(lit if rs.random() < 0.5 else -lit for lit in row)
            for row in unate.rows))
        outputs = [permute_columns(unate, perm), permute_columns(binate, perm),
                   gen_isomorph(unate, rs.randint(1, 99))[0]]
        for out in outputs:
            assert replace(out) == out
            assert all(type(lit) is int for row in out.rows for lit in row)
            assert all(type(w) is float for w in out.col_weights)


def test_permute_columns_validation():
    inst = school_5_5_ref()
    with pytest.raises(ValueError, match="permutation"):
        permute_columns(inst, (1, 2, 3, 4, 4))


def test_isomorph_identity():
    inst = school_5_5_ref()
    iso, perm = gen_isomorph(inst, 0)
    assert iso == inst
    assert perm == (1, 2, 3, 4, 5)
    assert isomorph_permutation(5, 0) == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError, match="replica_id must be nonnegative"):
        isomorph_permutation(3, -1)


def test_isomorph_deterministic_and_named():
    inst = school_5_5_ref()
    iso1, perm1 = gen_isomorph(inst, 4)
    iso2, perm2 = gen_isomorph(inst, 4)
    assert iso1 == iso2
    assert perm1 == perm2
    assert iso1.name == "school_5_5_ref__4"
    assert sorted(perm1) == [1, 2, 3, 4, 5]


def test_isomorph_preserves_stats(rs):
    for replica in (1, 2, 17):
        inst = random_instance(rs, weighted=True)
        iso, _ = gen_isomorph(inst, replica)
        assert compute_stats(iso) == compute_stats(inst)
        assert sorted(iso.col_weights) == sorted(inst.col_weights)


def test_isomorph_preserves_optimum(rs):
    for _ in range(20):
        inst = random_instance(rs, n_max=8, m_max=6)
        base, _ = brute_force_cover(inst)
        iso, _ = gen_isomorph(inst, rs.randint(1, 50))
        value, _ = brute_force_cover(iso)
        assert value == pytest.approx(base, abs=1e-12)


def test_isomorph_rejects_binate():
    binate = parse_cnf("p cnf 2 1\n1 -2 0\n")
    with pytest.raises(UnateRequiredError):
        gen_isomorph(binate, 1)


def test_school_5_5_isomorph_changes_greedy():
    ref = school_5_5_ref()
    assert greedy_basic(ref).value == 3.0
    iso = permute_columns(ref, SCHOOL_5_5_ISO_PERM)
    assert greedy_basic(iso).value == 2.0


def test_urn_single():
    for seed in (0, 5, 123):
        assert urn_trial(1, 1, seed) == 1.0


def test_urn_range(rs):
    for _ in range(20):
        frac = urn_trial(rs.randint(1, 200), rs.randint(1, 400),
                         rs.randint(0, 10**6))
        assert 0.0 < frac <= 1.0


def test_urn_expectation_oracle():
    # closed form: E[fraction] = 1 - (1 - 1/u)^t
    u = t = 2**10
    expected = 1.0 - (1.0 - 1.0 / u) ** t
    samples = [urn_trial(u, t, seed) for seed in range(1, 101)]
    mean = sum(samples) / len(samples)
    sd = math.sqrt(sum((s - mean) ** 2 for s in samples) / (len(samples) - 1))
    se = sd / math.sqrt(len(samples))
    assert abs(mean - expected) <= 3 * se


def test_urn_validation():
    with pytest.raises(ValueError):
        urn_trial(0, 1, 0)
    with pytest.raises(ValueError):
        urn_trial(1, 0, 0)


def test_movielib_single():
    movies, watches = gen_movielib(1, seed=0)
    assert len(movies) == len(watches) == 1
    assert watches[0].movie_id == movies[0].movie_id
    with pytest.raises(ValueError, match="size must be positive"):
        gen_movielib(0, seed=0)


def test_movielib_referential_integrity():
    movies, watches = gen_movielib(500, seed=2)
    ids = {m.movie_id for m in movies}
    assert len(ids) == 500
    assert all(w.movie_id in ids for w in watches)
    assert len({w.watch_id for w in watches}) == 500
    for w in watches:
        assert 1 <= w.minutes_watched <= 240


def test_movielib_deterministic():
    assert gen_movielib(64, seed=9) == gen_movielib(64, seed=9)
    assert gen_movielib(64, seed=9) != gen_movielib(64, seed=10)


def test_movielib_file_roundtrip(tmp_path):
    movies, watches = gen_movielib(40, seed=4)
    mp = str(tmp_path / "movies.csv")
    wp = str(tmp_path / "watches.csv")
    write_movielib(movies, watches, mp, wp)
    with open(mp) as fh:
        assert fh.readline().rstrip("\n") == "movieID,title,year,runtimeMinutes"
    with open(wp) as fh:
        assert fh.readline().rstrip("\n") == "watchID,movieID,date,minutesWatched"
    again_m, again_w = read_movielib(mp, wp)
    assert again_m == movies
    assert again_w == watches


# sha256 of the two files `write_movielib` makes, and of
# repr(list(records)) of the generated movie and watch tables, as the
# record-list implementation produced them: (seed, size, movies file,
# watches file, movie records, watch records).
MOVIELIB_DIGESTS = [
    (3, 1,
     "b18798041bffa5fc533b43e3cc6722012fb9f207050d0075b7e1d94524d45bfa",
     "99a457199c40491df3a1b14b4b102457a2d9d269b2a1df04fb8be2f27a5969cf",
     "726563ecb30d2ab96942ba0d393a46213a1593d885393db4c2009ffc3973ed66",
     "d714237fd139e2e9b3be93b1b8737420c983323ac6a7fadbf3c15efe3c32b16e"),
    (3, 40,
     "1c06f9850624b7fdeafd40dfa29b3d8d2e50c9b9e829d9c46b9cef91af76c6a4",
     "06dbcb5ac4c9a5f6784e8e16028208684f61daee13c42378dfaba557906c1821",
     "34cfd72416135eee560791f4437613583c52c4f14fab2efeeec1c8fb6342424f",
     "c34eceb537af8511f51a096adb9f88a4f479693cac82fe921220fb2b6678a5a3"),
    (3, 4096,
     "537d5dd30b2999b86f93cefef3ec76f18810659c754456a1850c3d4006f881cc",
     "8d1fca9d6107a905b352e4f6bf7bf46fef74d8300e843ade87406f20cd5d11da",
     "a9743327a9e09be34d079ae7c597c860a10060669b77b3a01915d8feabef2187",
     "eb3de488a32807d7db68fbb69ee1acde406890c59137637754d635778816da33"),
    (11, 1,
     "87b1ae9a4eba55112404d5ed4943b845997060bb61138285fc025a6594f34792",
     "48e049d222e407a33cc2972f3670d8aa88e600295973d437bd1956f2c8592662",
     "f5f256adc4d290a5554f19a182f628074af58059c946070235bc31f1a46af526",
     "f040f292ed5696f6fa5d2a6389c05433f94c5805fb0f5e04f69ba55cbec73e88"),
    (11, 40,
     "e017bf62584b91b83a70449e56f546cea869a22e48ff0d392000e2421238c6dd",
     "dfa1d5a5b9e1588d43c1aae0a4c927f29b8d05026c118fc8f6bc1c634660bf80",
     "cbbab4512b93ca9b150310a8d153454042065cc1e6ba848f4b9f2c42dc0ca441",
     "bd889e006869183cfce1fc03ced8b87fa4b531f1c43f5f87717344f506a0c084"),
    (11, 4096,
     "4bb6e64c72e6916ffc0e437ee0f92fa2f66ca496f4d7c01ee6d50b2d1c0542d0",
     "c69f471e934497870aff2f0149dfd809fd9339a2c73679316e03039ebab363a5",
     "2484022b0a2f0d60e1975bce32d5ebc29579d61656f22aeed5782cfee52ce7cf",
     "b5e0c2b4777ff9fcab56a66c4081761d17ba07263290f93884ffde55d6f9faa4"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed,size,movies_file,watches_file,movie_recs,"
                         "watch_recs", MOVIELIB_DIGESTS)
def test_movielib_pinned_bytes_and_records(tmp_path, seed, size, movies_file,
                                           watches_file, movie_recs,
                                           watch_recs):
    movies, watches = gen_movielib(size, seed)
    assert isinstance(movies, MovieTable) and isinstance(watches, WatchTable)
    # the records carry Python ints, so their repr is the NamedTuples'
    assert _sha256(repr(list(movies)).encode()) == movie_recs
    assert _sha256(repr(list(watches)).encode()) == watch_recs
    mp, wp = tmp_path / "movies.csv", tmp_path / "watches.csv"
    write_movielib(movies, watches, str(mp), str(wp))
    assert _sha256(mp.read_bytes()) == movies_file
    assert _sha256(wp.read_bytes()) == watches_file
    # a list of the same records writes the same bytes
    write_movielib(list(movies), list(watches), str(mp), str(wp))
    assert _sha256(mp.read_bytes()) == movies_file
    assert _sha256(wp.read_bytes()) == watches_file
    assert read_movielib(str(mp), str(wp)) == (movies, watches)


def test_movielib_quotes_carriage_returns(tmp_path):
    movies = MovieTable.of([("tt1", "c\rd", 1999, 90),
                            ("tt2", "e", 2000, 100)])
    watches = WatchTable.of([("w1", "tt1", "2020-01-01\r", 5),
                             ("w2", "tt2", "2020-01-02", 7)])
    mp, wp = tmp_path / "movies.csv", tmp_path / "watches.csv"
    write_movielib(movies, watches, str(mp), str(wp))
    assert mp.read_bytes() == (b"movieID,title,year,runtimeMinutes\n"
                               b'tt1,"c\rd",1999,90\n'
                               b"tt2,e,2000,100\n")
    assert wp.read_bytes() == (b"watchID,movieID,date,minutesWatched\n"
                               b'w1,tt1,"2020-01-01\r",5\n'
                               b"w2,tt2,2020-01-02,7\n")
    assert read_movielib(str(mp), str(wp)) == (movies, watches)


def test_movie_tables_are_sequences_of_records():
    movies, watches = gen_movielib(50, seed=8)
    records = list(watches)
    assert len(watches) == 50
    assert all(type(r) is WatchRecord for r in records)
    assert watches[0] == records[0] and watches[-1] == records[-1]
    assert type(watches[3].minutes_watched) is int
    assert list(watches[10:20]) == records[10:20]
    assert isinstance(watches[10:20], WatchTable)
    with pytest.raises(IndexError):
        watches[50]
    assert records[7] in watches
    # `of` keeps a table and rebuilds one from its records
    assert WatchTable.of(watches) is watches
    assert WatchTable.of(records) == watches
    assert WatchTable.of(iter(records)) == watches
    assert MovieTable.of(list(movies)) == movies
    assert WatchTable.of([]) == WatchTable([], [], [], np.zeros(0, np.int64))
    assert len(WatchTable.of([])) == 0
    # equality is by value and kind, never elementwise
    assert movies != watches
    assert watches != records
    assert watches != WatchTable.of(records[:-1] + [records[-1]._replace(
        minutes_watched=records[-1].minutes_watched + 1)])
    assert "50 rows" in repr(watches)
    with pytest.raises(TypeError):
        hash(watches)
    with pytest.raises(ValueError, match="fields"):
        WatchTable.of([("w1", "tt1", "2020-01-01")])


@pytest.mark.parametrize("line,fields", [("w2,tt1,2020-01-02", 3),
                                         ("w2,tt1,2020-01-02,5,9", 5),
                                         ("", 0)])
def test_read_movielib_rejects_ragged_rows(tmp_path, line, fields):
    movies, watches = gen_movielib(3, seed=1)
    mp, wp = tmp_path / "movies.csv", tmp_path / "watches.csv"
    write_movielib(movies, watches, str(mp), str(wp))
    text = wp.read_text().splitlines()
    text[2] = line
    wp.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError,
                       match=rf"watches\.csv: line 3 has {fields} fields"):
        read_movielib(str(mp), str(wp))


def test_read_movielib_rejects_bad_integers(tmp_path):
    movies, watches = gen_movielib(3, seed=1)
    mp, wp = tmp_path / "movies.csv", tmp_path / "watches.csv"
    write_movielib(movies, watches, str(mp), str(wp))
    good = mp.read_text()
    for bad in ("ninety", "1" + "0" * 20):
        mp.write_text(good.replace(f",{movies[1].runtime_minutes}\n",
                                   f",{bad}\n", 1))
        with pytest.raises(ValueError, match=r"movies\.csv: runtimeMinutes"):
            read_movielib(str(mp), str(wp))
    # what int() accepts is read as before
    mp.write_text(good.replace(f",{movies[1].year},", f", +{movies[1].year},",
                               1))
    assert read_movielib(str(mp), str(wp))[0] == movies


# Fields that exercise the csv module (delimiters, quotes, line ends, NUL)
# beside plain ones (spaces, empty strings, non-ASCII text).
_PLAIN_FIELD = st.text(alphabet="ab 09-é字", max_size=6)
_ANY_FIELD = st.one_of(_PLAIN_FIELD, _PLAIN_FIELD,
                       st.text(alphabet=[",", '"', "\r", "\n", "\0", " ", "x",
                                         "é"], max_size=4))
_INT64 = st.integers(-2**63, 2**63 - 1)


def _outcome(read, *args):
    """What `read(*args)` returns, or the type and message it raises."""
    try:
        return read(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _csv_read_table(path: str, cls):
    """One table from a file `write_movielib` made, read in one
    `csv.reader` pass: the reference for `read_movielib`.

    A row whose field count differs from the header's is rejected, with
    its line number, and so is one the csv module rejects, such as a field
    past its size limit. Integer fields accept what `int()` accepts.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if tuple(header or ()) != cls.HEADER:
                raise ValueError(f"{path}: bad header {header}")
            # both tables have four fields
            columns = ([], [], [], [])
            add0, add1, add2, add3 = (col.append for col in columns)
            for row in reader:
                try:
                    field0, field1, field2, field3 = row
                except ValueError:
                    raise ValueError(f"{path}: line {reader.line_num} has "
                                     f"{len(row)} fields, the header "
                                     f"{len(cls.HEADER)}") from None
                add0(field0)
                add1(field1)
                add2(field2)
                add3(field3)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: "
                             f"{exc}") from None
    return cls(*(generators._int_column(col, f"{path}: {title}")
                 if name in cls.INTEGERS else col
                 for name, title, col in zip(cls.RECORD._fields, cls.HEADER,
                                             columns)))


def _csv_reads(mp, wp):
    return (_csv_read_table(str(mp), MovieTable),
            _csv_read_table(str(wp), WatchTable))


def _csv_file(table, terminator: str) -> bytes:
    """The header and rows of `table` as `csv.writer` writes them under
    `terminator`, each line ending in "\n"."""
    lines = [",".join(table.HEADER) + "\n"]
    for row in table:
        buf = io.StringIO()
        csv.writer(buf, lineterminator=terminator).writerow(row)
        lines.append(buf.getvalue().removesuffix(terminator) + "\n")
    return "".join(lines).encode()


def _csv_reader_lines(path, cls) -> str:
    """The text `generators._read_table(path, cls)` hands to csv.reader,
    checking that the table it reads is the csv reference's."""
    pulled = []

    def counting_reader(lines, *args, **kwargs):
        return real_reader((pulled.append(line) or line for line in lines),
                           *args, **kwargs)

    real_reader = csv.reader
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators.csv, "reader", counting_reader)
        got = _outcome(generators._read_table, str(path), cls)
    assert got == _outcome(_csv_read_table, str(path), cls)
    return "".join(pulled)


def _small_blocks(mp: pytest.MonkeyPatch) -> None:
    """Blocks of 3 rows and 40 characters, so a file spans many."""
    mp.setattr(generators, "_WRITE_BLOCK_ROWS", 3)
    mp.setattr(generators, "_READ_BLOCK_CHARS", 40)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_ANY_FIELD, _ANY_FIELD, _INT64, _INT64),
                max_size=25),
       st.lists(st.tuples(_ANY_FIELD, _ANY_FIELD, _ANY_FIELD, _INT64),
                max_size=25))
@example([("tt1", "Movie 1", 1999, 90)] * 7,
         [("w1", "tt1", "2020-01-01", 5)] * 7)
@example([("tt1", "a,b", 7, -7), ("", " ", 0, 2**63 - 1)],
         [("w\r1", "é\n", '"q"', 3), ("w2", "x\0", "", -1)])
def test_movielib_blocks_write_csv_bytes_and_read_back(tmp_path_factory,
                                                       movie_rows,
                                                       watch_rows):
    movies, watches = MovieTable.of(movie_rows), WatchTable.of(watch_rows)
    d = tmp_path_factory.mktemp("blocks")
    mp, wp = d / "movies.csv", d / "watches.csv"
    with pytest.MonkeyPatch.context() as patch:
        _small_blocks(patch)
        write_movielib(movies, watches, str(mp), str(wp))
        fields = [f for row in movie_rows + watch_rows for f in row
                  if isinstance(f, str)]
        for path, table in ((mp, movies), (wp, watches)):
            # csv.writer's quoting, with "\r" quoted as "\n" is
            assert path.read_bytes() == _csv_file(table, "\r\n")
            if not any("\r" in f for f in fields):
                assert path.read_bytes() == _csv_file(table, "\n")
        got = _outcome(read_movielib, str(mp), str(wp))
        assert got == _outcome(_csv_reads, mp, wp)
        assert got == (movies, watches)
        # csv.reader reads nothing of a file of plain fields, and of any
        # other file only whole lines from its first block that is not
        for path, table in ((mp, movies), (wp, watches)):
            text = path.read_bytes().decode()
            pulled = _csv_reader_lines(path, type(table))
            assert text.endswith(pulled)
            start = len(text) - len(pulled)
            assert start and text[start - 1] == "\n"
            bad = [text.find(c) for c in '"\r\0' if c in text]
            if not bad:
                assert pulled == ""
                continue
            # the line holding the first such character is in csv.reader's
            # first block
            first = text.rfind("\n", 0, min(bad)) + 1
            assert start <= first < start + generators._READ_BLOCK_CHARS


def _corrupt_ragged_late(movies: str, watches: str):
    lines = watches.splitlines(keepends=True)
    lines[-3] = "w9,tt1,2020-01-01\n"
    return movies, "".join(lines)


def _corrupt_blank_line(movies: str, watches: str):
    lines = watches.splitlines(keepends=True)
    lines.insert(len(lines) // 2, "\n")
    return movies, "".join(lines)


def _corrupt_over_limit(movies: str, watches: str):
    lines = watches.splitlines(keepends=True)
    lines[-5] = "w9," + "x" * (csv.field_size_limit() + 1) + ",2020-01-01,5\n"
    return movies, "".join(lines)


def _corrupt_year_then_runtime(movies: str, watches: str):
    # a bad runtimeMinutes in block 1 and a bad year in a later block:
    # the csv reader converts the year column first
    lines = movies.splitlines(keepends=True)
    first, late = lines[1].split(","), lines[-2].split(",")
    lines[1] = ",".join(first[:3] + ["90min\n"])
    lines[-2] = ",".join(late[:2] + ["19x9"] + late[3:])
    return "".join(lines), watches


def _corrupt_crlf(movies: str, watches: str):
    return movies.replace("\n", "\r\n"), watches.replace("\n", "\r\n")


def _corrupt_no_final_newline(movies: str, watches: str):
    return movies[:-1], watches[:-1]


def _corrupt_short_last_line(movies: str, watches: str):
    # an unterminated last line of one field holds no separator to count
    return movies, watches + "w9"


def _corrupt_header_only(movies: str, watches: str):
    return movies.splitlines(keepends=True)[0], watches[:watches.index("\n")]


def _corrupt_bad_header(movies: str, watches: str):
    return movies.replace("runtimeMinutes", "runtime", 1), watches


def _corrupt_odd_integers(movies: str, watches: str):
    # what int() reads besides ASCII digits, and 19 digits, past int64
    lines = movies.splitlines(keepends=True)
    for i, (year, runtime) in enumerate([("007", "123456789012345678"),
                                         (" +1920", "-5"), ("1_999", "٣"),
                                         ("9223372036854775807", "0")]):
        row = lines[3 + 7 * i].split(",")
        lines[3 + 7 * i] = ",".join(row[:2] + [year, runtime + "\n"])
    return "".join(lines), watches


def _corrupt_past_int64(movies: str, watches: str):
    lines = movies.splitlines(keepends=True)
    row = lines[-4].split(",")
    lines[-4] = ",".join(row[:3] + ["9223372036854775808\n"])
    return "".join(lines), watches


def _corrupt_quoted_title_late(movies: str, watches: str):
    lines = movies.splitlines(keepends=True)
    row = lines[-1].split(",")
    lines[-1] = ",".join(row[:1] + ['"Crouching Tiger, Hidden Dragon"']
                         + row[2:])
    return "".join(lines), watches


def _corrupt_multiline_title_then_ragged(movies: str, watches: str):
    # a title holding a newline in the second block, and a ragged row
    # later, whose line number counts the title's two lines
    lines = movies.splitlines(keepends=True)
    row = lines[4].split(",")
    lines[4] = ",".join(row[:1] + ['"Two\nlines"'] + row[2:])
    lines[-6] = "tt9,Movie 9,1999\n"
    return "".join(lines), watches


@pytest.mark.parametrize("corrupt", [
    _corrupt_ragged_late, _corrupt_blank_line,
    _corrupt_over_limit, _corrupt_year_then_runtime, _corrupt_crlf,
    _corrupt_no_final_newline, _corrupt_header_only, _corrupt_bad_header, _corrupt_odd_integers,
    _corrupt_past_int64, _corrupt_quoted_title_late,
    _corrupt_multiline_title_then_ragged, _corrupt_short_last_line])
def test_read_movielib_equals_csv_reader_on_corrupt_files(tmp_path,
                                                          monkeypatch,
                                                          corrupt):
    _small_blocks(monkeypatch)
    movies, watches = gen_movielib(60, seed=4)
    mp, wp = tmp_path / "movies.csv", tmp_path / "watches.csv"
    write_movielib(movies, watches, str(mp), str(wp))
    movie_text, watch_text = corrupt(mp.read_text(), wp.read_text())
    mp.write_bytes(movie_text.encode())
    wp.write_bytes(watch_text.encode())
    want = _outcome(_csv_reads, mp, wp)
    assert _outcome(read_movielib, str(mp), str(wp)) == want
    if corrupt in (_corrupt_crlf, _corrupt_no_final_newline,
                   _corrupt_header_only, _corrupt_odd_integers,
                   _corrupt_quoted_title_late):
        assert isinstance(want[1], WatchTable)  # the csv reader takes them
    else:
        assert isinstance(want[0], type) and want[0] is ValueError


def test_read_movielib_rejects_ragged_lines_with_the_right_comma_count(
        tmp_path):
    # one block holds a line with a field too many and one with a field
    # too few, so it has as many commas as lines of four fields have, and
    # four-field rows cut at the wrong places still put integers in place
    movies, watches = gen_movielib(60, seed=4)
    mp, wp = tmp_path / "movies.csv", tmp_path / "watches.csv"
    write_movielib(movies, watches, str(mp), str(wp))
    lines = wp.read_text().splitlines(keepends=True)
    lines[7] = "w7,tt1,2020-01-01,5,6\n"
    lines[8] = "w8,tt1,7\n"
    wp.write_text("".join(lines))
    want = _outcome(_csv_reads, mp, wp)
    assert want == (ValueError, f"{wp}: line 8 has 5 fields, the header 4")
    assert _outcome(read_movielib, str(mp), str(wp)) == want


@pytest.mark.parametrize("limit", [9, 13, 14, 40])
def test_read_movielib_reads_field_size_limit_at_call_time(tmp_path, limit):
    # fields up to 10 characters, header fields up to 14, lines up to 25
    movies, watches = gen_movielib(1200, seed=4)
    mp, wp = tmp_path / "movies.csv", tmp_path / "watches.csv"
    write_movielib(movies, watches, str(mp), str(wp))
    hp, hw = tmp_path / "movies_header.csv", tmp_path / "watches_header.csv"
    for path, header in ((hp, MovieTable.HEADER), (hw, WatchTable.HEADER)):
        path.write_text(",".join(header) + "\n")
    old = csv.field_size_limit(limit)
    try:
        want = _outcome(_csv_reads, mp, wp)
        assert _outcome(read_movielib, str(mp), str(wp)) == want
        header_only = _outcome(_csv_reads, hp, hw)
        assert _outcome(read_movielib, str(hp), str(hw)) == header_only
    finally:
        csv.field_size_limit(old)
    assert (want == (movies, watches)) == (limit >= 14)
    assert (header_only == (movies[:0], watches[:0])) == (limit >= 14)


_STRINGS = {MovieTable: ("movie_id", "title"),
            WatchTable: ("watch_id", "movie_id", "date")}


def _strings_made(table) -> set:
    return set(_STRINGS[type(table)]) & vars(table).keys()


# A field csv.writer quotes, put into one row so that csv.reader takes the
# file over from that row's block on.
_QUOTED = st.sampled_from(['a,b', 'say "é"', "two\nlines", "字,"])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_PLAIN_FIELD, _PLAIN_FIELD, _INT64, _INT64),
                min_size=1, max_size=25),
       st.lists(st.tuples(_PLAIN_FIELD, _PLAIN_FIELD,
                          st.sampled_from(["2020-01-01", "2020-12-31", "é"]),
                          _INT64), min_size=1, max_size=25),
       st.sampled_from([None, "first", "middle", "last"]), _QUOTED,
       st.permutations(_STRINGS[MovieTable]),
       st.permutations(_STRINGS[WatchTable]), st.data())
def test_read_tables_make_their_string_columns_when_read(
        tmp_path_factory, movie_rows, watch_rows, hand_off, quoted,
        movie_order, watch_order, data):
    for rows in (movie_rows, watch_rows):
        if hand_off is not None:
            at = {"first": 0, "middle": len(rows) // 2,
                  "last": len(rows) - 1}[hand_off]
            rows[at] = (rows[at][0], quoted) + rows[at][2:]
    movies, watches = MovieTable.of(movie_rows), WatchTable.of(watch_rows)
    d = tmp_path_factory.mktemp("lazy")
    mp, wp = d / "movies.csv", d / "watches.csv"
    with pytest.MonkeyPatch.context() as patch:
        _small_blocks(patch)
        write_movielib(movies, watches, str(mp), str(wp))
        tables = read_movielib(str(mp), str(wp))
    for table, want, order in zip(tables, (movies, watches),
                                  (movie_order, watch_order)):
        assert len(table) == len(want) and repr(table) == repr(want)
        assert not _strings_made(table)
        # a copy taken before any string column is made makes them too
        for copied in (pickle.loads(pickle.dumps(table)),
                       copy.deepcopy(table)):
            assert not _strings_made(copied)
            assert copied == want
        made = set()
        for name in order:
            column = getattr(table, name)
            made.add(name)
            assert _strings_made(table) == made
            assert type(column) is list and column == getattr(want, name)
            assert getattr(table, name) is column
            if name == "date":
                assert len({id(day) for day in column}) == len(set(column))
            copied = copy.deepcopy(table)
            assert _strings_made(copied) == made and copied == want
        assert table == want
        assert list(table) == list(want)
        start = data.draw(st.integers(-len(want), len(want)))
        stop = data.draw(st.integers(-len(want), len(want)))
        assert table[start:stop] == want[start:stop]
        assert list(table[start:stop]) == list(want)[start:stop]
        assert pickle.loads(pickle.dumps(table)) == want


def test_counting_a_read_table_makes_only_its_movie_ids(tmp_path):
    movies, watches = gen_movielib(3000, seed=6)
    mp, wp = tmp_path / "movies.csv", tmp_path / "watches.csv"
    write_movielib(movies, watches, str(mp), str(wp))
    got_movies, got_watches = read_movielib(str(mp), str(wp))
    assert len(got_watches) == 3000 and "3000 rows" in repr(got_watches)
    assert len(got_movies) == 3000 and "3000 rows" in repr(got_movies)
    assert not _strings_made(got_movies) and not _strings_made(got_watches)
    assert watch_counts(got_watches) == watch_counts(watches)
    assert _strings_made(got_watches) == {"movie_id"}
    assert not _strings_made(got_movies)
    # the integer columns are read in full
    assert np.array_equal(got_watches.minutes_watched,
                          watches.minutes_watched)
    assert got_watches.date == watches.date
    assert len({id(d) for d in got_watches.date}) == len(set(watches.date))


def test_decimals_equal_int():
    fields = ["0", "7", "007", "42", "123456789012345678", "999999999999999999",
              "-5", "-0", "-999999999999999999"]
    text = "".join(f"{f},\n" for f in fields)
    raw = np.frombuffer(text.encode(), np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    stops = seps[0::2]
    starts = np.concatenate(([0], seps[1::2][:-1] + 1))
    assert instances._decimals(raw, starts, stops).tolist() \
        == list(map(int, fields))
    for bad in ("", "-", "--1", "+1", " 1", "1 ", "1_0", "\u0663",
                "1234567890123456789", "-1234567890123456789"):
        text = f"5,\n{bad},\n"
        raw = np.frombuffer(text.encode(), np.uint8)
        stops = np.array([1, 3 + len(bad.encode())])
        starts = np.array([0, 3])
        assert instances._decimals(raw, starts, stops) is None
