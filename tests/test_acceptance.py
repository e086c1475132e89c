"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Criterion 10 needs the three large OR-library files (scpb1/scpc1/scpd1); it
skips with a pointer to the README when they are absent.
"""

import functools
import itertools
import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bglab.bench import asymptotic_sweep, sweep_csv, topk_task, watch_histogram
from bglab.cover import (brute_force_cover, chvatal_upper_bound, cover_value,
                         enumerate_achievable_values, exact_stoc_distribution,
                         greedy_basic, harmonic)
from bglab.experiments import (ratio_string, run_cover_distribution,
                               stats_string)
from bglab.formatting import fmt_fixed
from bglab.generators import (gen_movielib, gen_random_instance,
                              permute_columns, urn_trial)
from bglab.instances import compute_stats, ingest_orlib
from bglab.library import chvatal_6_5, school_5_5_ref, school_9_11
from bglab.matching import brute_force_matching, max_matching

from conftest import random_instance

ORLIB_DIR = Path(os.environ.get(
    "BGLAB_ORLIB_DIR", Path(__file__).resolve().parent.parent / "data" / "orlib"))


def exact_value_probabilities(inst):
    """Exact stoc probability of each cover value."""
    by_value = {}
    for coord, p in exact_stoc_distribution(inst).items():
        value = cover_value(coord, inst.col_weights)
        by_value[value] = by_value.get(value, 0) + p
    return by_value


def assert_within_binomial(histogram, exact, num_seeds, sigmas=4):
    """Every observed count lies within `sigmas` binomial standard
    deviations of its exact expectation."""
    assert set(histogram) == set(exact)
    for value, p in exact.items():
        sd = math.sqrt(num_seeds * p * (1 - p))
        assert abs(histogram[value] - num_seeds * p) <= sigmas * sd, \
            (value, histogram[value], float(p))


def criterion(number, budget_seconds, description):
    """Print one pass/fail line per criterion and enforce its time budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"criterion {number}: SKIP - {description}")
                raise
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number}: PASS - {description} "
                  f"({elapsed:.1f}s, budget {budget_seconds}s)")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget")
        return run

    return wrap


@criterion(1, 1, "worst-case greedy value, display strings, upper bound")
def test_criterion_1_chvatal_worst_case():
    inst = chvatal_6_5()
    sol = greedy_basic(inst)
    assert abs(sol.value - (1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5)) <= 1e-9
    summary = run_cover_distribution(inst, 1000, "stoc", "consecutive")
    assert stats_string(summary.stats) == "2.28,2.28,2.28,0,2.28"
    assert summary.bkv == 1.1
    assert ratio_string(summary.stats, summary.bkv).startswith("2.07,")
    assert ratio_string(summary.stats, summary.bkv) == \
        "2.07,2.07,2.07,0.00,2.07"
    assert abs(chvatal_upper_bound(1.1, 5) - 2.51) <= 0.005


# every published (bkv, mCD, UB) triple from the bundled suites
UB_TABLE = [
    (18, 13, 57.24), (30, 22, 110.72), (61, 40, 260.99), (103, 67, 493.3),
    (198, 121, 1064.67), (335, 202, 1972.47), (617, 364, 3995.53),
    (22, 29, 87.16), (44, 21, 160.4), (25, 39, 106.34), (69, 29, 273.35),
    (227, 21, 827.5), (60, 39, 255.21), (429, 11, 1295.53),
    (512, 10, 1499.63), (516, 11, 1558.26), (494, 10, 1446.91),
    (512, 11, 1546.18), (560, 10, 1640.22), (430, 12, 1334.38),
    (492, 10, 1441.05), (641, 11, 1935.74), (253, 10, 741.03),
    (138, 20, 496.49), (253, 17, 870.21), (8, 31, 32.22), (12, 17, 41.27),
    (10, 22, 36.91), (9, 32, 36.53), (6, 43, 26.1), (11, 51, 49.71),
    (6, 99, 31.06), (1.1, 5, 2.51), (4, 3, 7.33), (5, 6, 12.25),
    (10, 6, 24.5), (11.5, 6, 28.18), (6, 6, 14.7), (3.833, 6, 9.39),
    (16.1, 6, 39.45), (0.5, 18, 1.75),
]


@criterion(2, 1, "upper-bound table reproduction from (bkv, mCD)")
def test_criterion_2_upper_bound_table():
    for bkv, m_cd, published in UB_TABLE:
        assert abs(chvatal_upper_bound(bkv, m_cd) - published) <= 0.01, \
            f"UB({bkv}, {m_cd}) != {published}"
    # spot set
    assert abs(chvatal_upper_bound(18, 13) - 57.24) <= 0.01
    assert abs(chvatal_upper_bound(30, 22) - 110.72) <= 0.01
    assert abs(chvatal_upper_bound(6, 6) - 14.7) <= 0.01
    assert abs(chvatal_upper_bound(11.5, 6) - 28.18) <= 0.01


@criterion(3, 10, "two-outcome convergence to 0.50 on school_5_5")
def test_criterion_3_two_optima_convergence():
    inst = school_5_5_ref()
    exact = exact_value_probabilities(inst)
    assert exact == {2.0: Fraction(1, 2), 3.0: Fraction(1, 2)}
    for solver in ("stoc", "iso"):
        summary = run_cover_distribution(inst, 10_000, solver, "consecutive")
        assert summary.bkv == 2
        assert set(summary.value_histogram) == {2.0, 3.0}
        freq_ratio_one = summary.value_histogram[2.0] / 10_000
        assert 0.48 <= freq_ratio_one <= 0.52, (solver, freq_ratio_one)
        if solver == "stoc":
            assert_within_binomial(summary.value_histogram, exact, 10_000)
        else:
            assert set(summary.value_histogram) <= set(exact)


@criterion(4, 30, "school_9_11 distribution support and shape")
def test_criterion_4_school_9_11_distribution():
    inst = school_9_11()
    st = compute_stats(inst)
    assert (st.n_cols, st.m_rows, st.num_edges, st.m_cd) == (9, 11, 24, 3)
    value, _ = brute_force_cover(inst)
    assert value == 4.0  # hard: optimum of the reconstruction
    summary = run_cover_distribution(inst, 10_000, "stoc", "consecutive")
    assert set(summary.value_histogram) == {4.0, 5.0, 6.0}  # hard
    for val, target in ((4.0, 0.33), (5.0, 0.50), (6.0, 0.17)):
        freq = summary.value_histogram[val] / 10_000
        assert abs(freq - target) <= 0.05, (val, freq)  # soft band
    exact = exact_value_probabilities(inst)
    assert exact == {4.0: Fraction(1, 3), 5.0: Fraction(1, 2),
                     6.0: Fraction(1, 6)}
    assert_within_binomial(summary.value_histogram, exact, 10_000)
    iso = run_cover_distribution(inst, 10_000, "iso", "consecutive")
    assert set(iso.value_histogram) <= set(exact)


@criterion(5, 120, "solver equivalence at the value-set level")
def test_criterion_5_solver_equivalence():
    rs = random.Random(20240518)
    for i in range(200):
        if i % 20 == 0:
            n = rs.choice((7, 8))
        else:
            n = 2 + i % 5  # 2..6
        m = rs.randint(2, 7)
        inst = gen_random_instance(m, n, 1, min(3, n), seed=5000 + i)
        enum_values = enumerate_achievable_values(inst)
        iso_values = set()
        for perm in itertools.permutations(range(1, n + 1)):
            iso_values.add(greedy_basic(permute_columns(inst, perm)).value)
        assert iso_values == enum_values, inst.name
        summary = run_cover_distribution(inst, 5000, "stoc", "consecutive")
        stoc_values = set(summary.value_histogram)
        assert stoc_values <= enum_values, inst.name


@criterion(6, 120, "greedy bounded by optimum and harmonic(mCD) * optimum")
def test_criterion_6_chvatal_bound_property():
    rs = random.Random(20240519)
    for i in range(500):
        inst = random_instance(rs, n_max=10, m_max=8,
                               weighted=i % 2 == 0)
        optimum, _ = brute_force_cover(inst)
        value = greedy_basic(inst).value
        m_cd = compute_stats(inst).m_cd
        assert value >= optimum - 1e-9
        assert value <= harmonic(m_cd) * optimum + 1e-9


@criterion(7, 60, "matching equals the brute-force oracle")
def test_criterion_7_matching_oracle():
    rs = random.Random(20240520)
    for _ in range(500):
        inst = random_instance(rs, n_max=7, m_max=7)
        assert inst.num_edges <= 24
        assert max_matching(inst).size == brute_force_matching(inst)
    result = max_matching(chvatal_6_5())
    assert fmt_fixed(result.m_p, 2) == "0.83"


@criterion(8, 120, "urn-model convergence to 1 - 1/e")
def test_criterion_8_urn_convergence():
    assert abs(urn_trial(2**20, 2**20, seed=1) - 0.6321) <= 0.005
    u = t = 2**10
    expected = 1.0 - (1.0 - 1.0 / u) ** t
    samples = [urn_trial(u, t, seed) for seed in range(1, 101)]
    mean = sum(samples) / len(samples)
    sd = math.sqrt(sum((s - mean) ** 2 for s in samples) / (len(samples) - 1))
    assert abs(mean - expected) <= 3 * sd / math.sqrt(len(samples))


@criterion(9, 60, "watch-frequency histogram shape at 2^20")
def test_criterion_9_watch_histogram():
    n = 2**20
    _, watches = gen_movielib(n, seed=1)
    hist = watch_histogram(watches)
    assert sum(i * count for i, count in hist.items()) == n  # exact mass
    expected_once = n / math.e
    assert abs(hist[1] - expected_once) <= 0.01 * expected_once
    assert 40 <= hist.get(7, 0) <= 120
    # distinct-watched fraction tends to 1 - 1/e
    distinct_fraction = sum(hist.values()) / n
    assert abs(distinct_fraction - 0.6321) <= 0.005
    # the most-watched count sits in the extreme band of a unit-rate draw
    assert 8 <= max(hist) <= 12


@criterion(10, 3 * 1800, "OR-library best values (extended, needs data files)")
def test_criterion_10_orlib_best_values():
    names = ("scpb1", "scpc1", "scpd1")
    paths = {name: ORLIB_DIR / f"{name}.txt" for name in names}
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        pytest.skip("OR-library files not bundled; place scpb1.txt, "
                    "scpc1.txt, scpd1.txt under data/orlib/ or set "
                    "BGLAB_ORLIB_DIR (see README)")
    unit_best = {"scpb1": 22, "scpc1": 44, "scpd1": 25}
    weighted_cap = {"scpb1": 72, "scpc1": 249, "scpd1": 66}
    for name in names:
        text = paths[name].read_text()
        unit = ingest_orlib(text, name=name, unit_weights=True)
        summary = run_cover_distribution(unit, 10_000, "stoc", "consecutive")
        assert min(summary.value_histogram) == unit_best[name], name
        weighted = ingest_orlib(text, name=name)
        summary = run_cover_distribution(weighted, 10_000, "stoc",
                                         "consecutive")
        assert min(summary.value_histogram) <= weighted_cap[name], name


@criterion(11, 120, "phase-split sweep smoke test")
def test_criterion_11_sweep_smoke(tmp_path):
    sizes = [2**k for k in range(10, 17)]

    def run_once(workdir):
        task = topk_task(k=10, seed=2, workdir=workdir)
        sweep = asymptotic_sweep(sizes, task, repetitions=2)
        assert not sweep.failures
        return sweep

    first = run_once(str(tmp_path / "a"))
    second = run_once(str(tmp_path / "b"))
    # solve outputs are byte-stable across runs and repetitions
    assert {s: r.entries for s, r in first.results.items()} == \
        {s: r.entries for s, r in second.results.items()}

    text = sweep_csv(first.rows)
    lines = text.strip().split("\n")
    assert lines[0] == "size,runtime_read,runtime_solve,label"
    assert len(lines) == len(sizes) + 1
    for line, size in zip(lines[1:], sizes):
        fields = line.split(",")
        assert fields[0] == str(size)
        assert float(fields[1]) >= 0.0
        assert float(fields[2]) >= 0.0
        assert fields[3] == "topk_hash"
