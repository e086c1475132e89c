import math
from dataclasses import replace

import numpy as np
import pytest

from bglab.cover import brute_force_cover, greedy_basic
from bglab.generators import (ReplicaStreams, gen_isomorph, gen_movielib,
                              gen_random_instance, isomorph_permutation,
                              permute_columns, philox_first_block,
                              read_movielib, replica_keys, seeded_rng,
                              urn_trial, write_movielib)
from bglab.instances import (UnateRequiredError, compute_stats, parse_cnf,
                             write_cnf)
from bglab.library import SCHOOL_5_5_ISO_PERM, school_5_5_ref

from conftest import random_instance


def test_seeded_rng_deterministic():
    a = seeded_rng(42).integers(0, 1 << 30, size=8)
    b = seeded_rng(42).integers(0, 1 << 30, size=8)
    c = seeded_rng(43).integers(0, 1 << 30, size=8)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


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
    block = philox_first_block(replica_keys(KEY_SEEDS))
    assert block.shape == (len(KEY_SEEDS), 8)
    assert block.dtype == np.uint32
    for s, row in zip(KEY_SEEDS, block):
        assert row.tolist() == _raw_words(s, 8), s
    seeds = range(10_000)
    block = philox_first_block(replica_keys(seeds))
    assert all(block[s].tolist() == _raw_words(s, 8)
               for s in range(0, 10_000, 7))
    assert philox_first_block(replica_keys([])).shape == (0, 8)


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
