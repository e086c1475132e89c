"""Self-test of the benchmark's checkers at toy sizes.

    python3 perfbench/selftest.py

Each checker must pass a correct output and report a failure on a
corrupted one: a non-cover, a matching one short of maximum, a top-K with
one count changed, an attached BKV that is not the optimum, a histogram
moved off its exact distribution, and a parse that lost, merged or changed
rows. Exits 0 when every case behaves, 1 otherwise. Needs numpy and scipy,
not bglab.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from collections import Counter
from types import SimpleNamespace

sys.dont_write_bytecode = True

import checks

# school_9_11 (as bundled with bglab): 9 columns, 11 rows, optimum 4,
# greedy distribution 1/3 : 1/2 : 1/6 over {4, 5, 6}.
SCHOOL_9_11 = ((3, 5, 8), (1, 2, 5), (6, 7), (4, 7, 9), (2,), (4,), (3, 8),
               (6, 7, 9), (4,), (6, 9), (2, 3, 5))
CHVATAL_6_5 = ((1, 6), (2, 6), (3, 6), (4, 6), (5, 6))
CHVATAL_WEIGHTS = (1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1.1)


def expect(ok_case, bad_case, label: str, results: list) -> None:
    """`ok_case` must pass and `bad_case` must raise CheckFailure."""
    try:
        ok_case()
        good = True
    except checks.CheckFailure as exc:
        good = False
        results.append(f"FAIL {label}: correct output rejected: {exc}")
    try:
        bad_case()
        results.append(f"FAIL {label}: corrupted output accepted")
    except checks.CheckFailure as exc:
        if good:
            results.append(f"ok   {label}: caught ({exc})")


def cover_cases(results: list) -> None:
    school = checks.RowDigest(SCHOOL_9_11, 9, [1.0] * 9)
    optimum = checks.milp_optimum(school)
    cover = [0, 1, 0, 1, 0, 1, 1, 1, 0]  # {2, 4, 6, 7, 8}
    non_cover = cover[:]
    non_cover[1] = 0  # column 2 alone covers row 5
    expect(lambda: checks.check_cover(school, cover, "school cover"),
           lambda: checks.check_cover(school, non_cover, "school non-cover"),
           "non-cover", results)

    expect(lambda: checks.fail_unless(checks.bkv_matches(4.0, optimum),
                                      "bkv 4 rejected"),
           lambda: checks.fail_unless(checks.bkv_matches(5.0, optimum),
                                      f"attached bkv 5 != optimum {optimum}"),
           "attached BKV", results)

    exact = checks.exact_stoc_distribution(SCHOOL_9_11, 9, [1.0] * 9)
    if {v: float(p) for v, p in exact.items()} != {4.0: 1 / 3, 5.0: 1 / 2,
                                                   6.0: 1 / 6}:
        results.append(f"FAIL exact DP: school_9_11 gives {exact}")
    chvatal = checks.exact_stoc_distribution(CHVATAL_6_5, 6, CHVATAL_WEIGHTS)
    if list(chvatal) != [1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5]:
        results.append(f"FAIL exact DP: chvatal_6_5 gives {chvatal}")
    fair = {4.0: 3333, 5.0: 5000, 6.0: 1667}
    moved = {4.0: 3333 + 300, 5.0: 5000 - 300, 6.0: 1667}
    expect(lambda: checks.check_exact_frequencies(fair, exact, "fair"),
           lambda: checks.check_exact_frequencies(moved, exact, "moved"),
           "histogram off its distribution", results)
    expect(lambda: checks.check_value_bounds(fair, optimum, 3, True, "in"),
           lambda: checks.check_value_bounds({3.0: 1}, optimum, 3, True,
                                             "below optimum"),
           "value below the lower bound", results)


def parse_cases(results: list) -> None:
    school = checks.RowDigest(SCHOOL_9_11, 9, [1.0] * 9)

    def parsed(rows, weights=(1.0,) * 9):
        return SimpleNamespace(rows=tuple(rows), n_cols=9,
                               col_weights=tuple(weights))

    # literal order inside a row may change in a round trip
    reordered = parsed(tuple(reversed(row)) for row in SCHOOL_9_11)
    dropped = parsed(SCHOOL_9_11[:-1])
    merged = parsed(SCHOOL_9_11[:4] + (SCHOOL_9_11[4] + SCHOOL_9_11[5],)
                    + SCHOOL_9_11[6:])
    moved = parsed(((3, 5, 9),) + SCHOOL_9_11[1:])
    reweighted = parsed(SCHOOL_9_11, (2.0,) + (1.0,) * 8)
    for label, bad in (("dropped a row", dropped),
                       ("merged two rows", merged),
                       ("changed a column", moved),
                       ("changed a weight", reweighted)):
        expect(lambda: checks.check_same_instance(reordered, school,
                                                  "round trip"),
               lambda: checks.check_same_instance(bad, school, label),
               f"parse that {label}", results)


def matching_cases(results: list) -> None:
    # 3 x 3 instance with one perfect matching.
    rows = checks.RowDigest([(1, 2), (1,), (2, 3)], 3, [1.0] * 3)
    size = checks.reference_matching_size(rows)
    full = [(1, 2), (2, 1), (3, 3)]
    expect(lambda: checks.check_matching(full, rows, size, True, "full"),
           lambda: checks.check_matching(full[:2], rows, size, True,
                                         "one short"),
           "matching one short of maximum", results)
    expect(lambda: checks.check_matching(full, rows, size, True, "full"),
           lambda: checks.check_matching([(1, 3), (2, 1), (3, 2)], rows,
                                         size, True, "non-edge"),
           "matching pair that is not an edge", results)


def topk_cases(results: list) -> None:
    size = 2000
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "watches.csv")
        with open(path, "w") as fh:
            fh.write("watchID,movieID,date,minutesWatched\n")
            for i in range(size):
                fh.write(f"w{i + 1},tt{(i * 7919) % 1500 + 1},2020-01-01,5\n")
        counts = checks.recount_watches(path)
    top = checks.reference_topk(counts, 5)
    # still in order, so only the comparison with the recount can catch it
    changed = [(m, c + 1 if i == 0 else c) for i, (m, c) in enumerate(top)]
    expect(lambda: checks.check_topk(top, top, "top-5"),
           lambda: checks.check_topk(changed, top, "top-5 one count changed"),
           "top-K with one count changed", results)
    bumped = Counter(counts)
    bumped["tt1"] += 1
    expect(lambda: checks.check_counts(dict(counts), counts, "counts"),
           lambda: checks.check_counts(dict(bumped), counts, "bumped"),
           "watch counts with one count changed", results)
    histogram = dict(Counter(counts.values()))
    expect(lambda: checks.check_watch_histogram(histogram, counts, size,
                                                "histogram"),
           lambda: checks.check_watch_histogram({1: size - 1}, counts, size,
                                                "short histogram"),
           "histogram mass", results)
    n = 10000
    uniform = {i: 1 for i in range(round(n * (1 - math.exp(-1))))}
    expect(lambda: checks.check_distinct_fraction(uniform, n, "urn"),
           lambda: checks.check_distinct_fraction(uniform, n // 2, "skewed"),
           "distinct-watched share", results)


def run_all() -> list[str]:
    results: list[str] = []
    cover_cases(results)
    parse_cases(results)
    matching_cases(results)
    topk_cases(results)
    return results


def main() -> int:
    results = run_all()
    print("\n".join(results))
    failures = [r for r in results if r.startswith("FAIL")]
    print(f"{len(results) - len(failures)} checks behave, "
          f"{len(failures)} do not")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
