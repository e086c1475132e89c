import dataclasses
import hashlib
import json
import statistics
import warnings
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bglab.cover as cover
import bglab.experiments as experiments
from bglab.experiments import (BkvRegistry, DistributionSummary, Stats,
                               converge_check, default_registry,
                               ratio_bucket_report, ratio_stats, ratio_string,
                               run_cover_distribution, stats_string,
                               summary_rows)
from bglab.generators import (_BLOCK_CHUNK, ReplicaStreams,
                              gen_random_instance,
                              isomorph_permutation, permute_columns,
                              seeded_rng)
from bglab.instances import UNIT, WEIGHTED, BigraphInstance, parse_cnf
from bglab.library import chvatal_6_5, school_5_5_ref, school_9_11, two_optima

from conftest import WEIGHT_POOL, random_instance

TINY = parse_cnf("p cnf 1 1\n1 0\n")


def make_summary(min_ratio: float) -> DistributionSummary:
    stats = Stats(min=min_ratio, median=min_ratio, mean=min_ratio, sd=0.0,
                  max=min_ratio)
    return DistributionSummary(instance_name=f"r{min_ratio}", num_seeds=1,
                               solver="stoc", value_histogram={min_ratio: 1},
                               stats=stats, bkv=1.0, ratio_stats=stats)


def test_stats_five_numbers():
    st = Stats.from_values([3.0, 1.0, 2.0, 2.0])
    assert st.min == 1.0
    assert st.max == 3.0
    assert st.mean == 2.0
    # lower-middle median keeps achievable values
    assert Stats.from_values([31, 32]).median == 31
    assert Stats.from_values([31, 32, 33]).median == 32
    assert Stats.from_values([5.0]).sd == 0.0
    # sample (n-1) standard deviation
    assert Stats.from_values([1.0, 3.0]).sd == pytest.approx(2 ** 0.5)
    with pytest.raises(ValueError):
        Stats.from_values([])


def _hex(stats: Stats) -> list[str]:
    return [v.hex() for v in stats.as_tuple()]


def _stats_by_statistics(values) -> Stats:
    """The five numbers as the `statistics` module computes them."""
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    return Stats(min=min(values), median=statistics.median_low(values),
                 mean=statistics.mean(values), sd=sd, max=max(values))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.floats(-1e300, 1e300), st.integers(1, 60),
                       min_size=1, max_size=8), st.randoms())
def test_stats_from_histogram_equal_from_values(histogram, rnd):
    values = [v for v, c in histogram.items() for _ in range(c)]
    rnd.shuffle(values)
    assert _hex(Stats.from_histogram(histogram)) == \
        _hex(_stats_by_statistics(values))


def test_stats_from_histogram_edges():
    assert _hex(Stats.from_histogram({2.5: 1})) == \
        _hex(Stats(2.5, 2.5, 2.5, 0.0, 2.5))
    # a subnormal spread, and one whose variance is no float's square
    for hist in ({5e-324: 3, 0.0: 2}, {0.1: 7, 0.2: 3, 0.7: 1}):
        values = [v for v, c in hist.items() for _ in range(c)]
        assert _hex(Stats.from_histogram(hist)) == \
            _hex(_stats_by_statistics(values))
    with pytest.raises(ValueError):
        Stats.from_histogram({})


def test_ratio_stats_values():
    st = ratio_stats([19, 19, 19], 18)
    assert st.min == st.mean == st.max == pytest.approx(19 / 18)
    assert st.sd == 0.0
    st = ratio_stats([7.5], 7.5)
    assert st.min == st.median == st.mean == st.max == 1.0
    assert st.sd == 0.0
    st = ratio_stats([2, 3], 2)
    assert st.min == 1.0
    assert st.max == 1.5
    with pytest.raises(ValueError):
        ratio_stats([], 2)
    with pytest.raises(ValueError):
        ratio_stats([1.0], 0)
    with pytest.raises(ValueError, match="overflows a float"):
        ratio_stats([1.0], 1e-320)


def test_stats_string_table_style():
    assert stats_string(Stats(31, 32, 31.87, 0.9, 33)) == "31,32,31.87,0.9,33"
    assert stats_string(Stats(571, 577, 574.0, 3.0, 577)) == "571,577,574,3,577"


def test_ratio_string_table_style():
    assert ratio_string(Stats(31, 32, 31.87, 0.9, 33), 30) == \
        "1.03,1.07,1.06,0.03,1.10"
    assert ratio_string(Stats(19, 19, 19, 0, 19), 18) == \
        "1.06,1.06,1.06,0.00,1.06"
    v = 1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5
    assert ratio_string(Stats(v, v, v, 0.0, v), 1.1) == \
        "2.07,2.07,2.07,0.00,2.07"


def test_distribution_chvatal():
    summary = run_cover_distribution(chvatal_6_5(), 1000, "stoc",
                                     "consecutive")
    assert summary.num_seeds == 1000
    assert len(summary.value_histogram) == 1
    ((value, count),) = summary.value_histogram.items()
    assert count == 1000
    assert value == pytest.approx(2.283333333, abs=1e-9)
    assert summary.stats.sd == 0.0
    assert stats_string(summary.stats) == "2.28,2.28,2.28,0,2.28"
    assert summary.bkv == 1.1
    assert ratio_string(summary.stats, summary.bkv) == \
        "2.07,2.07,2.07,0.00,2.07"


def test_distribution_single_seed():
    summary = run_cover_distribution(TINY, 1, "stoc", "consecutive", bkv=1.0)
    st = summary.stats
    assert st.min == st.median == st.mean == st.max == 1.0
    assert st.sd == 0.0


def test_distribution_mass_conservation(rs):
    for solver in ("stoc", "iso"):
        inst = random_instance(rs, n_max=7, m_max=7)
        summary = run_cover_distribution(inst, 200, solver, "consecutive")
        assert sum(summary.value_histogram.values()) == 200
        assert summary.stats.min <= summary.stats.median <= summary.stats.max
        assert summary.stats.min <= summary.stats.mean <= summary.stats.max


def test_distribution_deterministic():
    a = run_cover_distribution(school_5_5_ref(), 300, "stoc", "consecutive")
    b = run_cover_distribution(school_5_5_ref(), 300, "stoc", "consecutive")
    assert a == b
    c = run_cover_distribution(school_5_5_ref(), 300, "iso", "random",
                               meta_seed=5)
    d = run_cover_distribution(school_5_5_ref(), 300, "iso", "random",
                               meta_seed=5)
    assert c == d


def test_distribution_ratio_scaling(rs):
    inst = random_instance(rs, n_max=7, m_max=7, weighted=True)
    summary = run_cover_distribution(inst, 100, "stoc", "consecutive", bkv=2.5)
    for stat, ratio in zip(summary.stats.as_tuple(),
                           summary.ratio_stats.as_tuple()):
        assert ratio * 2.5 == pytest.approx(stat, rel=1e-9)


def test_distribution_unknown_bkv():
    summary = run_cover_distribution(school_5_5_ref(), 10, "stoc",
                                     "consecutive")
    assert summary.bkv == 2  # registered
    anon = parse_cnf("p cnf 1 1\n1 0\n", name="no_such_instance")
    summary = run_cover_distribution(anon, 10, "stoc", "consecutive")
    assert summary.bkv is None
    assert summary.ratio_stats is None


def test_distribution_validation():
    with pytest.raises(ValueError):
        run_cover_distribution(TINY, 0, "stoc", "consecutive")
    with pytest.raises(ValueError):
        run_cover_distribution(TINY, 1, "nope", "consecutive")
    with pytest.raises(ValueError):
        run_cover_distribution(TINY, 1, "stoc", "sometimes")


def test_solver_failure_reports_replica(monkeypatch):
    calls = {"n": 0}
    original = cover._Engine.run

    def explode(self, rng, tie_tol=0.0):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("boom")
        return original(self, rng, tie_tol)

    monkeypatch.setattr(cover._Engine, "run", explode)
    with pytest.raises(RuntimeError, match="replica 3"):
        run_cover_distribution(school_5_5_ref(), 10, "stoc", "consecutive")


def test_two_optima_outcome_frequency():
    n = 2000
    summary = run_cover_distribution(two_optima(), n, "stoc", "consecutive")
    assert summary.value_histogram == {1.0: n}
    coords = [cover.greedy_stoc(two_optima(), rid).coord
              for rid in range(1, n + 1)]
    freq = sum(1 for c in coords if c == (1, 0, 0)) / n
    assert abs(freq - 0.5) <= 3 * (0.25 / n) ** 0.5


def test_converge_chvatal_single_bucket():
    summaries = converge_check(chvatal_6_5(), [50, 100], "stoc")
    for s in summaries:
        assert len(s.value_histogram) == 1
    assert [s.num_seeds for s in summaries] == [50, 100]


def test_converge_school_5_5_tends_to_half():
    (s,) = converge_check(school_5_5_ref(), [4000], "stoc")
    freq = s.value_histogram[2.0] / 4000
    assert abs(freq - 0.5) <= 0.03


def test_converge_single_count():
    (s,) = converge_check(TINY, [1], "stoc", bkv=1.0)
    assert s.num_seeds == 1
    assert sum(s.value_histogram.values()) == 1


def test_converge_validation():
    with pytest.raises(ValueError, match="ascending"):
        converge_check(TINY, [100, 10], "stoc")
    with pytest.raises(ValueError, match="nonempty"):
        converge_check(TINY, [], "stoc")


TABLE_MIN_RATIOS = [
    # steiner3
    1.06, 1.03, 1.07, 1.04, 1.07, 1.04, 1.08,
    # or-library
    1.00, 1.00, 1.00, 1.04, 1.10, 1.10, 1.07, 1.11, 1.14, 1.09, 1.12, 1.08,
    1.10, 1.06, 1.16, 1.11, 1.10, 1.08,
    # random suite
    1.00, 1.08, 1.00, 1.00, 1.00, 1.00, 1.00,
    # tiny suite
    2.07, 1.00, 1.20, 1.00, 1.00,
]


def test_ratio_buckets_published_suite():
    summaries = [make_summary(r) for r in TABLE_MIN_RATIOS]
    assert len(summaries) == 37
    assert ratio_bucket_report(summaries) == (12, 18, 7)


def test_ratio_buckets_simple():
    assert ratio_bucket_report([make_summary(1.0)]) == (1, 0, 0)
    assert ratio_bucket_report([make_summary(1.05),
                                make_summary(1.25)]) == (0, 1, 1)


def test_ratio_buckets_need_bkv():
    summary = run_cover_distribution(
        parse_cnf("p cnf 1 1\n1 0\n", name="anon"), 5, "stoc", "consecutive")
    with pytest.raises(ValueError, match="no bkv"):
        ratio_bucket_report([summary])


def test_registry_defaults():
    registry = default_registry()
    assert registry.get("chvatal_6_5.cnfW") == 1.1
    assert registry.get("scpb1.cnfU") == 22
    assert registry.get("scpb1.cnfW") == 69
    assert registry.get("school_19_20_1.cnfW") == pytest.approx(3.833)
    assert registry.lookup_instance(chvatal_6_5()) == 1.1
    assert registry.lookup_instance(school_9_11()) == 4


def test_registry_overlay(tmp_path, monkeypatch):
    path = tmp_path / "bkv.json"
    path.write_text(json.dumps({
        "chvatal_6_5.cnfW": 9.9,
        "custom.cnfU": {"value": 3, "note": "local run"},
    }))
    monkeypatch.setattr(experiments, "_default_registry", None)
    monkeypatch.setenv(experiments.BKV_REGISTRY_ENV, str(path))
    registry = default_registry()
    assert registry.get("chvatal_6_5.cnfW") == 9.9
    assert registry.get("custom.cnfU") == 3
    assert registry.note("custom.cnfU") == "local run"
    assert registry.get("scpb1.cnfU") == 22
    monkeypatch.setattr(experiments, "_default_registry", None)


def test_generated_m_suite_gets_bkv_only_from_a_file(tmp_path, monkeypatch):
    # gen_random_instance names its instances after the published m* files
    # without their rows, so only an explicit registry file attaches a value
    inst = gen_random_instance(100, 100, 10, 15, seed=7)
    assert inst.name == "m100_100_10_15"
    monkeypatch.setattr(experiments, "_default_registry", None)
    monkeypatch.delenv(experiments.BKV_REGISTRY_ENV, raising=False)
    assert default_registry().lookup_instance(inst) is None
    path = tmp_path / "m_suite.json"
    path.write_text(json.dumps({"m100_100_10_15.cnfU": 11}))
    monkeypatch.setenv(experiments.BKV_REGISTRY_ENV, str(path))
    assert default_registry().lookup_instance(inst) == 11
    monkeypatch.setattr(experiments, "_default_registry", None)


def test_tiny_bkv_ratio_overflow_rejected(tmp_path, monkeypatch):
    # a ratio that overflows is an error, not an inf, on every way in,
    # a bkv from the registry file included
    message = "the ratio of 6.0 to bkv 1e-320 overflows a float"
    with pytest.raises(ValueError, match=message):
        ratio_string(Stats(4.0, 5.0, 5.0, 1.0, 6.0), 1e-320)
    with pytest.raises(ValueError, match=message):
        run_cover_distribution(school_9_11(), 5, bkv=1e-320)
    path = tmp_path / "bkv.json"
    path.write_text(json.dumps({"school_9_11__0.cnfU": 1e-320}))
    monkeypatch.setattr(experiments, "_default_registry", None)
    monkeypatch.setenv(experiments.BKV_REGISTRY_ENV, str(path))
    with pytest.raises(ValueError, match=message):
        run_cover_distribution(school_9_11(), 5)
    monkeypatch.setattr(experiments, "_default_registry", None)


def test_registry_validation():
    registry = BkvRegistry()
    with pytest.raises(ValueError):
        registry.register("x", 0.0)
    registry.register("x.cnfU", 4.0, "test")
    assert "x.cnfU" in registry
    assert len(registry) == 1


def test_summary_rows_sorted():
    summary = run_cover_distribution(school_9_11(), 500, "stoc", "consecutive")
    rows = summary_rows(summary)
    values = [v for _, _, v, _ in rows]
    assert values == sorted(values)
    assert all(name == "school_9_11__0" and seeds == 500
               for name, seeds, _, _ in rows)
    assert sum(c for _, _, _, c in rows) == 500


# (instance, replica count, seed mode, meta seed) of the pinned runs
DIGEST_RUNS = {
    "school_9_11": (school_9_11, 10_000, "random", 3),
    "school_5_5_ref": (school_5_5_ref, 2000, "consecutive", 0),
    "chvatal_6_5": (chvatal_6_5, 2000, "random", 5),
    "m100_100_10_10": (lambda: gen_random_instance(100, 100, 10, 10, seed=7),
                       300, "random", 11),
    "m100_100_10_30": (lambda: gen_random_instance(100, 100, 10, 30, seed=7),
                       300, "consecutive", 0),
}

# sha256 of repr(sorted((value.hex(), count))) of each run's histogram,
# computed when every replica still built its own generator and rescanned
# every rate; the keyed streams and the tie memo must not move them
HISTOGRAM_DIGESTS = {
    ("school_9_11", "stoc", 0.0):
        "09e7182b48cfd184cb33dd611dbd4d265f05fa9f63060de388519d984ecc3c6b",
    ("school_9_11", "stoc", 1e-9):
        "09e7182b48cfd184cb33dd611dbd4d265f05fa9f63060de388519d984ecc3c6b",
    ("school_9_11", "iso", 0.0):
        "4562a8ee90284ee5f2152d0c929a70e30d457339d4ca7cbcdfe43a3fb12c1b4b",
    ("school_9_11", "iso", 1e-9):
        "4562a8ee90284ee5f2152d0c929a70e30d457339d4ca7cbcdfe43a3fb12c1b4b",
    ("school_5_5_ref", "stoc", 0.0):
        "af1d78be033a3994162f72211fe93ff7187c27078df2d73b748b2ee8f5d900a7",
    ("school_5_5_ref", "stoc", 1e-9):
        "af1d78be033a3994162f72211fe93ff7187c27078df2d73b748b2ee8f5d900a7",
    ("school_5_5_ref", "iso", 0.0):
        "9b1610f5cc3a91aff7f9a7e35ad12a0b95cc523b722b5ddf98caa75930aba7d7",
    ("school_5_5_ref", "iso", 1e-9):
        "9b1610f5cc3a91aff7f9a7e35ad12a0b95cc523b722b5ddf98caa75930aba7d7",
    ("chvatal_6_5", "stoc", 0.0):
        "f94d2b08d42baa02fcf93a78cd92398f8b0ca58c7c4c018dcd7397fb5a01bb56",
    ("chvatal_6_5", "stoc", 1e-9):
        "f94d2b08d42baa02fcf93a78cd92398f8b0ca58c7c4c018dcd7397fb5a01bb56",
    ("chvatal_6_5", "iso", 0.0):
        "f94d2b08d42baa02fcf93a78cd92398f8b0ca58c7c4c018dcd7397fb5a01bb56",
    ("chvatal_6_5", "iso", 1e-9):
        "f94d2b08d42baa02fcf93a78cd92398f8b0ca58c7c4c018dcd7397fb5a01bb56",
    ("m100_100_10_10", "stoc", 0.0):
        "115e6008a628cb3e77b8ce7699dc4d5cffbc647ba018b44b275373e62d519624",
    ("m100_100_10_10", "stoc", 1e-9):
        "115e6008a628cb3e77b8ce7699dc4d5cffbc647ba018b44b275373e62d519624",
    ("m100_100_10_10", "iso", 0.0):
        "251a1796da152b92c329dd0130a1165e5a9fd5a213dacb23eeda2c03b9408f9d",
    ("m100_100_10_10", "iso", 1e-9):
        "251a1796da152b92c329dd0130a1165e5a9fd5a213dacb23eeda2c03b9408f9d",
    ("m100_100_10_30", "stoc", 0.0):
        "d220f160e1818e22a109ab171776aa3db5af7ecb4d24b614ff67b4e3e5a9eb75",
    ("m100_100_10_30", "stoc", 1e-9):
        "d220f160e1818e22a109ab171776aa3db5af7ecb4d24b614ff67b4e3e5a9eb75",
    ("m100_100_10_30", "iso", 0.0):
        "f6715ea6ca02f9508bc8f8da4ae187a83c08b62df58cb7191d5158cb121a3fba",
    ("m100_100_10_30", "iso", 1e-9):
        "f6715ea6ca02f9508bc8f8da4ae187a83c08b62df58cb7191d5158cb121a3fba",
}


def histogram_digest(histogram) -> str:
    return hashlib.sha256(repr(sorted(
        (v.hex(), c) for v, c in histogram.items())).encode()).hexdigest()


@pytest.mark.parametrize("name,solver,tol", sorted(HISTOGRAM_DIGESTS))
def test_distribution_histograms_pinned(name, solver, tol):
    make, seeds, mode, meta_seed = DIGEST_RUNS[name]
    summary = run_cover_distribution(make(), seeds, solver, mode,
                                     meta_seed=meta_seed, tie_tol=tol)
    assert histogram_digest(summary.value_histogram) == \
        HISTOGRAM_DIGESTS[name, solver, tol]


def _count_generators(monkeypatch):
    """Count every generator a distribution run resets or builds."""
    calls = []
    original = ReplicaStreams.rng

    def rng(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(ReplicaStreams, "rng", rng)
    monkeypatch.setattr(cover, "seeded_rng",
                        lambda seed: calls.append(seed) or seeded_rng(seed))
    return calls


def test_untied_replicas_make_no_generator(monkeypatch):
    calls = _count_generators(monkeypatch)
    for mode in ("consecutive", "random"):
        summary = run_cover_distribution(chvatal_6_5(), 2000, "stoc", mode)
        assert sum(summary.value_histogram.values()) == 2000
    assert calls == []
    # school_9_11 ties at its first pick, and every replica's tie-breaks
    # fit in the first 8 words of its stream, which the block's keystream
    # holds: no replica resets or builds a generator
    run_cover_distribution(school_9_11(), 500, "stoc", "consecutive")
    assert calls == []


def _second_block_replicas(inst, seeds) -> list[int]:
    """Replica ids whose `greedy_stoc` run draws more than the 8 words of
    their stream's first Philox block."""
    made = {}

    def rng(seed):
        made[seed] = seeded_rng(seed)
        return made[seed]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cover, "seeded_rng", rng)
        for rid in seeds:
            cover.greedy_stoc(inst, rid)
    # numpy's Philox makes its second block at counter 2
    return [rid for rid, gen in made.items()
            if gen.bit_generator.state["state"]["counter"][0] >= 2]


def test_long_replicas_reset_only_their_generator(monkeypatch):
    inst = gen_random_instance(30, 20, 1, 3, seed=6)
    seeds = range(1, 301)
    long = _second_block_replicas(inst, seeds)
    assert 50 < len(long) < 250
    expected = Counter(cover.greedy_stoc(inst, rid).value for rid in seeds)
    assert len(expected) > 2
    calls = _count_generators(monkeypatch)
    summary = run_cover_distribution(inst, len(seeds), "stoc")
    assert summary.value_histogram == expected
    assert sorted(set(calls)) == [rid - 1 for rid in long]
    # late tie-breaks of a unit instance seldom move the value, so compare
    # each long replica's cover with its own generator's
    streams, engine = ReplicaStreams(seeds), cover._Engine(inst)
    for rid in long:
        coord, _ = engine.run(streams.draws(rid - 1))
        assert tuple(coord) == cover.greedy_stoc(inst, rid).coord, rid


@st.composite
def cover_instances(draw, cols=st.integers(1, 10), max_rows=12):
    """A unate instance of 1-10 columns (or as `cols` draws) and 1-12 rows
    (or up to `max_rows`) of 1-3 columns each; unit instances tie often
    enough that many replicas draw past their first 8 words."""
    n = draw(cols)
    m = draw(st.integers(1, max_rows))
    rows = tuple(tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1,
                                           max_size=3))))
                 for _ in range(m))
    if draw(st.booleans()):
        weights = tuple(draw(st.lists(st.sampled_from(WEIGHT_POOL),
                                      min_size=n, max_size=n)))
        kind = WEIGHTED
    else:
        weights, kind = (1.0,) * n, UNIT
    return BigraphInstance(name="drawn", n_cols=n, m_rows=m, rows=rows,
                           col_weights=weights, weight_kind=kind)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cover_instances(), st.integers(1, 40), st.sampled_from([0.0, 1e-9]),
       st.sampled_from(["consecutive", "random"]), st.integers(0, 999),
       st.booleans())
def test_distribution_equals_single_replicas(inst, num_seeds, tol, mode,
                                             meta_seed, vectorized):
    # the keystream draws what greedy_stoc's own generator draws
    if mode == "consecutive":
        seeds = range(1, num_seeds + 1)
    else:
        seeds = seeded_rng(meta_seed).integers(0, 10**6,
                                               size=num_seeds).tolist()
    with pytest.MonkeyPatch.context() as patch:
        if vectorized:
            patch.setattr(cover, "_SMALL_COLS", 0)
        summary = run_cover_distribution(inst, num_seeds, "stoc", mode,
                                         meta_seed=meta_seed, tie_tol=tol)
        expected = Counter(cover.greedy_stoc(inst, rid, tol).value
                           for rid in seeds)
    assert summary.value_histogram == expected


def _iso_expected(inst, seeds, tol) -> Counter:
    """The iso histogram of `greedy_basic` on each replica's isomorph.

    Each cover is taken back to reference column order before its value is
    summed: a weighted sum in the isomorph's column order can differ in
    its last bit.
    """
    values = []
    for rid in seeds:
        perm = isomorph_permutation(inst.n_cols, rid)
        coord = cover.greedy_basic(permute_columns(inst, perm), tol).coord
        back = [0] * inst.n_cols
        for idx, col in enumerate(perm):
            back[col - 1] = coord[idx]
        values.append(cover.cover_value(back, inst.col_weights))
    return Counter(values)


def _count_view_replicas(patch) -> list[int]:
    """Replica ids whose permutation a distribution run draws one by one."""
    calls = []
    original = experiments.isomorph_permutation
    patch.setattr(experiments, "isomorph_permutation",
                  lambda n, rid, rng=None: calls.append(rid)
                  or original(n, rid, rng))
    return calls


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cover_instances(), st.data(), st.sampled_from([0.0, 1e-9]))
def test_engine_paths_agree_under_drawn_weights(inst, data, tol):
    # relative steps of 1e-12 and 5e-10 tie under a 1e-9 tolerance and one
    # of 2e-9 does not, so near-ties fall on both sides of it
    deltas = data.draw(st.lists(st.sampled_from([0.0, 1e-12, 5e-10, 2e-9]),
                                min_size=inst.n_cols, max_size=inst.n_cols))
    inst = dataclasses.replace(inst, weight_kind=WEIGHTED, col_weights=tuple(
        w * (1.0 + d) for w, d in zip(inst.col_weights, deltas)))
    perm = tuple(data.draw(st.permutations(range(1, inst.n_cols + 1))))
    small = cover._Engine(inst, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cover, "_SMALL_COLS", 0)
        big = cover._Engine(inst, tol)
    assert small.small and not big.small
    for rid in range(6):
        assert small.run(seeded_rng(rid)) == big.run(seeded_rng(rid))
    assert small.run(None, small.permuted(perm)) == \
        big.run(None, big.permuted(perm))


BLOCK_SEEDS = experiments._ISO_BLOCK_SEEDS


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(cover_instances(),
       st.one_of(st.integers(1, 40),
                 st.integers(BLOCK_SEEDS, BLOCK_SEEDS + 40)),
       st.sampled_from([0.0, 1e-9]), st.sampled_from(["consecutive",
                                                       "random"]),
       st.integers(0, 999), st.booleans())
def test_iso_distribution_equals_permute_then_basic(inst, num_seeds, tol,
                                                    mode, meta_seed,
                                                    vectorized):
    if mode == "consecutive":
        seeds = range(1, num_seeds + 1)
    else:
        seeds = seeded_rng(meta_seed).integers(0, 10**6,
                                               size=num_seeds).tolist()
    with pytest.MonkeyPatch.context() as patch:
        if vectorized:
            patch.setattr(cover, "_SMALL_COLS", 0)
        views = _count_view_replicas(patch)
        summary = run_cover_distribution(inst, num_seeds, "iso", mode,
                                         meta_seed=meta_seed, tie_tol=tol)
    assert summary.value_histogram == _iso_expected(inst, seeds, tol)
    # large blocks on the bitmask path take their ranks from the keystream
    block = num_seeds >= BLOCK_SEEDS and not vectorized
    assert views == ([] if block else list(seeds))


# meta seed 143's second random-mode draw is replica id 0
ZERO_META_SEED = 143


def test_block_iso_replica_zero_is_basic(monkeypatch):
    seeds = seeded_rng(ZERO_META_SEED).integers(0, 10**6,
                                                size=BLOCK_SEEDS).tolist()
    assert seeds[1] == 0 and seeds.count(0) == 1
    views = _count_view_replicas(monkeypatch)
    for inst in (school_5_5_ref(), school_9_11()):
        summary = run_cover_distribution(inst, BLOCK_SEEDS, "iso", "random",
                                         meta_seed=ZERO_META_SEED)
        assert summary.value_histogram == _iso_expected(inst, seeds, 0.0)
    assert views == []


def test_block_stoc_replica_zero_is_basic():
    # Philox(0)'s tie-breaks give this instance 6.0, the basic greedy 5.0
    inst = gen_random_instance(12, 9, 1, 3, seed=17)
    engine = cover._Engine(inst)
    assert cover.cover_value(engine.run(seeded_rng(0))[0],
                             inst.col_weights) == 6.0
    assert cover.greedy_basic(inst).value == 5.0
    seeds = seeded_rng(ZERO_META_SEED).integers(0, 10**6,
                                                size=BLOCK_SEEDS).tolist()
    summary = run_cover_distribution(inst, BLOCK_SEEDS, "stoc", "random",
                                     meta_seed=ZERO_META_SEED)
    assert summary.value_histogram == Counter(
        cover.greedy_stoc(inst, rid).value for rid in seeds)


@pytest.mark.parametrize("solver", ["stoc", "iso"])
def test_random_mode_replica_zero_is_basic(monkeypatch, solver):
    seeds = seeded_rng(ZERO_META_SEED).integers(0, 10**6, size=2).tolist()
    assert seeds[1] == 0
    inst = school_5_5_ref()
    single = {"stoc": cover.greedy_stoc, "iso": cover.greedy_iso}[solver]
    basic = cover.greedy_basic(inst)
    assert single(inst, 0) == basic
    expected = Counter([single(inst, seeds[0]).value, basic.value])
    calls = _count_generators(monkeypatch)
    summary = run_cover_distribution(inst, 2, solver, "random",
                                     meta_seed=ZERO_META_SEED)
    assert summary.value_histogram == expected
    # a stoc replica 0 asks for no stream; the permutation Philox(0) would
    # draw gives another value, so the iso histogram above would show it
    if solver == "stoc":
        assert 1 not in calls
    perm0 = tuple((seeded_rng(0).permutation(inst.n_cols) + 1).tolist())
    assert cover.greedy_basic(permute_columns(inst, perm0)).value != \
        basic.value


# replicas of this instance draw past the 8 words a walk holds per lane
LONG_DRAWS = gen_random_instance(30, 20, 1, 3, seed=6)
# both sides of one and two uint64 words of picked columns
WALK_COLS = st.one_of(st.integers(1, 12),
                      st.sampled_from([63, 64, 65, 100, 127, 128]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cover_instances(WALK_COLS, 30),
       st.integers(BLOCK_SEEDS, _BLOCK_CHUNK + 40),
       st.sampled_from([0.0, 1e-9]),
       st.sampled_from(["consecutive", "random"]),
       st.one_of(st.just(ZERO_META_SEED), st.integers(0, 999)),
       st.sampled_from(experiments.SOLVERS))
@example(LONG_DRAWS, BLOCK_SEEDS, 0.0, "consecutive", 0, "stoc")
@example(LONG_DRAWS, _BLOCK_CHUNK + 1, 1e-9, "random", ZERO_META_SEED,
         "stoc")
@example(LONG_DRAWS, BLOCK_SEEDS, 0.0, "random", ZERO_META_SEED, "iso")
def test_walked_runs_equal_single_replicas(inst, num_seeds, tol, mode,
                                           meta_seed, solver):
    if mode == "consecutive":
        seeds = range(1, num_seeds + 1)
    else:
        seeds = seeded_rng(meta_seed).integers(0, 10**6,
                                               size=num_seeds).tolist()
    walks = []
    walk = cover._StateGraph.walk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cover._StateGraph, "walk",
                      lambda self, lanes, choose: walks.append(lanes)
                      or walk(self, lanes, choose))
        summary = run_cover_distribution(inst, num_seeds, solver, mode,
                                         meta_seed=meta_seed, tie_tol=tol)
    # every replica is a lane of one chunk's walk
    assert sum(walks) == num_seeds and max(walks) <= _BLOCK_CHUNK
    if solver == "stoc":
        expected = Counter(cover.greedy_stoc(inst, rid, tol).value
                           for rid in seeds)
    else:
        expected = _iso_expected(inst, seeds, tol)
    assert summary.value_histogram == expected


@pytest.mark.parametrize("cap", [0, 1, 25])
def test_walk_graph_cap_keeps_histograms(monkeypatch, cap):
    # school_9_11's walks reach 41 states; lanes past the cap leave the
    # walk at the root, after one pick or part-way
    runs = [(inst, solver, mode) for inst, mode in
            ((school_9_11(), "random"), (LONG_DRAWS, "consecutive"))
            for solver in experiments.SOLVERS]
    expected = [run_cover_distribution(inst, 600, solver, mode,
                                       meta_seed=ZERO_META_SEED)
                for inst, solver, mode in runs]
    monkeypatch.setattr(cover, "_TIE_MEMO_STATES", cap)
    for (inst, solver, mode), summary in zip(runs, expected):
        assert run_cover_distribution(
            inst, 600, solver, mode, meta_seed=ZERO_META_SEED
        ).value_histogram == summary.value_histogram


def test_walk_failure_names_replica(monkeypatch):
    inst = school_9_11()
    engine = cover._Engine(inst)
    # the state after the root's second tied column fails to build
    broken = engine.full ^ engine.col_masks[engine.ties(0)[1]]
    tie_set = cover._tie_set

    def failing(masks, weights, uncov, tie_tol):
        if uncov == broken:
            raise ValueError("boom")
        return tie_set(masks, weights, uncov, tie_tol)

    monkeypatch.setattr(cover, "_tie_set", failing)
    messages = {}
    for cut in (10**9, BLOCK_SEEDS):
        monkeypatch.setattr(experiments, "_ISO_BLOCK_SEEDS", cut)
        for solver in experiments.SOLVERS:
            with pytest.raises(RuntimeError) as err:
                run_cover_distribution(inst, 600, solver, "random",
                                       meta_seed=ZERO_META_SEED)
            messages[cut, solver] = str(err.value)
    # the walk names the replica the per-replica loop fails on first
    for solver in experiments.SOLVERS:
        assert messages[BLOCK_SEEDS, solver] == messages[10**9, solver]
        assert messages[BLOCK_SEEDS, solver].startswith(
            f"{inst.name}: solver {solver} failed on replica ")
        assert messages[BLOCK_SEEDS, solver].endswith(": boom")


@pytest.mark.parametrize("solver", experiments.SOLVERS)
def test_walked_overflow_rejected(solver):
    # a walk sums its lanes' covers at once; an overflow there is the
    # replica loop's error, with no numpy warning on the way
    huge = parse_cnf("p cnf 2 2\nw 1 1e308\nw 2 1.5e308\n1 0\n2 0\n",
                     name="huge")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^huge: the cover value "
                           r"overflows a float$"):
            run_cover_distribution(huge, BLOCK_SEEDS, solver)


def test_converge_passes_tie_tol():
    near = parse_cnf("p cnf 2 2\nw 1 1\nw 2 1.0000000008\n1 2 0\n1 2 0\n",
                     name="near")
    (exact,) = converge_check(near, [400], "stoc")
    (loose,) = converge_check(near, [400], "stoc", tie_tol=1e-9)
    assert exact.value_histogram == {1.0: 400}
    assert loose.value_histogram == run_cover_distribution(
        near, 400, "stoc", tie_tol=1e-9).value_histogram
    assert len(loose.value_histogram) == 2


def test_default_registry_follows_environment(tmp_path, monkeypatch):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"chvatal_6_5.cnfW": 7.5}))
    second.write_text(json.dumps({"chvatal_6_5.cnfW": 8.5,
                                  "extra.cnfU": 3}))
    monkeypatch.setattr(experiments, "_default_registry", None)
    monkeypatch.delenv(experiments.BKV_REGISTRY_ENV, raising=False)
    assert default_registry().get("chvatal_6_5.cnfW") == 1.1
    monkeypatch.setenv(experiments.BKV_REGISTRY_ENV, str(first))
    assert default_registry().get("chvatal_6_5.cnfW") == 7.5
    assert default_registry().get("extra.cnfU") is None
    monkeypatch.setenv(experiments.BKV_REGISTRY_ENV, str(second))
    assert default_registry().get("chvatal_6_5.cnfW") == 8.5
    assert default_registry().get("extra.cnfU") == 3
    # the registry is kept per value: going back gives the same object
    with_first = default_registry()
    monkeypatch.setenv(experiments.BKV_REGISTRY_ENV, str(first))
    assert default_registry().get("chvatal_6_5.cnfW") == 7.5
    monkeypatch.setenv(experiments.BKV_REGISTRY_ENV, str(second))
    assert default_registry() is with_first
    monkeypatch.delenv(experiments.BKV_REGISTRY_ENV)
    assert default_registry().get("chvatal_6_5.cnfW") == 1.1
    assert run_cover_distribution(chvatal_6_5(), 5, "stoc").bkv == 1.1
    monkeypatch.setattr(experiments, "_default_registry", None)
