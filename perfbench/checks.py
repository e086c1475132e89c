"""Reference checks on bglab's outputs, computed apart from bglab.

Each check raises `CheckFailure` when an output is wrong. The references
are independent computations (HiGHS through scipy, scipy's Hopcroft-Karp,
a dynamic program written here, a plain `csv` recount) or properties the
method must have (every greedy value lies within H(mCD) of the LP bound).
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

# Relative slack for comparing float cover values with LP/MILP figures.
REL_TOL = 1e-7
# Observed outcome counts must lie within this many binomial deviations.
SIGMAS = 4.0
# Distinct watched share of uniform picks: 1 - 1/e, within this much.
ONE_MINUS_INV_E = 1.0 - math.exp(-1.0)
DISTINCT_TOL = 0.005


class CheckFailure(AssertionError):
    """An output of the program disagrees with its reference."""


def fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def compute_apart(jobs: list) -> list:
    """Results of the (function, *args) jobs, computed in one fresh process.

    The reference solvers (scipy with HiGHS, Hopcroft-Karp) and the memory
    they use stay out of the measured process, so its peak RSS is bglab's
    and the benchmark's own data. The child is a plain interpreter running
    `apart.py`, waited for before this returns; it starts no helper
    processes of its own.
    """
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "apart.py")
    proc = subprocess.run([sys.executable, child], input=pickle.dumps(jobs),
                          stdout=subprocess.PIPE, check=True)
    return pickle.loads(proc.stdout)


# --- instances ------------------------------------------------------------

class RowDigest:
    """An instance's rows, columns and weights in compact numpy form.

    `lengths` holds each row's length and `flat` the rows' sorted column
    indices one after the other, so row order is kept and literal order
    within a row is not.
    """

    def __init__(self, rows, n_cols: int, weights):
        rows = [sorted(row) for row in rows]
        self.n_cols = int(n_cols)
        self.lengths = np.fromiter(map(len, rows), dtype=np.int64,
                                   count=len(rows))
        self.flat = np.fromiter(itertools.chain.from_iterable(rows),
                                dtype=np.int64, count=int(self.lengths.sum()))
        self.weights = np.asarray(weights, dtype=np.float64)

    def offsets(self) -> np.ndarray:
        """Start of each row in `flat`, and the end of the last."""
        return np.concatenate([[0], np.cumsum(self.lengths)])

    def max_col_degree(self) -> int:
        return int(np.bincount(self.flat).max())

    def csr(self):
        """The (m, n) incidence as a scipy CSR matrix of ones."""
        from scipy.sparse import csr_matrix

        return csr_matrix((np.ones(self.flat.size), self.flat - 1,
                           self.offsets()),
                          shape=(self.lengths.size, self.n_cols))

    def same(self, other: "RowDigest") -> bool:
        return (self.n_cols == other.n_cols
                and np.array_equal(self.lengths, other.lengths)
                and np.array_equal(self.flat, other.flat)
                and np.array_equal(self.weights, other.weights))

    def has_edges(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Which (row, column) pairs, 1-based, are entries of the rows."""
        span = self.n_cols + 1
        row_of = np.repeat(np.arange(1, self.lengths.size + 1), self.lengths)
        keys = row_of * span + self.flat  # ascending: rows sorted inside
        query = rows * span + cols
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        return ((rows >= 1) & (rows <= self.lengths.size)
                & (cols >= 1) & (cols <= self.n_cols) & (keys[pos] == query))


def check_same_instance(inst, expected: RowDigest, what: str) -> None:
    """A parsed or generated instance holds exactly the expected rows,
    column count and weights."""
    got = RowDigest(inst.rows, inst.n_cols, inst.col_weights)
    fail_unless(got.n_cols == expected.n_cols,
                f"{what}: {got.n_cols} columns, expected {expected.n_cols}")
    fail_unless(got.lengths.size == expected.lengths.size,
                f"{what}: {got.lengths.size} rows, "
                f"expected {expected.lengths.size}")
    fail_unless(got.same(expected),
                f"{what}: rows or weights differ from the input")


# --- covers ---------------------------------------------------------------

def check_cover(rows: RowDigest, coord, what: str) -> None:
    """Every row has a selected column."""
    picked = np.asarray(coord, dtype=bool)
    fail_unless(picked.shape == (rows.n_cols,),
                f"{what}: coord has {picked.size} entries, "
                f"expected {rows.n_cols}")
    hits = np.add.reduceat(picked[rows.flat - 1].astype(np.int64),
                           rows.offsets()[:-1])
    uncovered = np.flatnonzero(hits == 0)
    fail_unless(uncovered.size == 0,
                f"{what}: rows {(uncovered[:5] + 1).tolist()} uncovered")


def harmonic(d: int) -> float:
    return sum(1.0 / k for k in range(1, d + 1))


def lp_bound(rows: RowDigest) -> float:
    """Optimum of the covering LP relaxation (HiGHS interior point)."""
    from scipy.optimize import linprog

    res = linprog(rows.weights, A_ub=-rows.csr(),
                  b_ub=-np.ones(rows.lengths.size), bounds=(0.0, 1.0),
                  method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"HiGHS LP failed: {res.message}")
    return float(res.fun)


def milp_optimum(rows: RowDigest) -> float:
    """Proven minimum cover weight (HiGHS branch and bound, zero gap)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    res = milp(rows.weights,
               constraints=LinearConstraint(rows.csr(), lb=1.0, ub=np.inf),
               integrality=np.ones(rows.n_cols), bounds=Bounds(0.0, 1.0),
               options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return float(res.fun)


def check_value_bounds(histogram: dict, lower: float, max_col_degree: int,
                       unit: bool, what: str) -> None:
    """lower <= v <= H(mCD) * lower for every value v; unit values are
    integers no smaller than ceil(lower).

    `lower` is the LP bound or the proven optimum; greedy never exceeds
    H(mCD) times the LP optimum (Chvatal 1979), so both choices hold.
    """
    upper = harmonic(max_col_degree) * lower
    slack = REL_TOL * max(1.0, lower)
    for v in histogram:
        fail_unless(lower - slack <= v <= upper + slack,
                    f"{what}: value {v} outside [{lower}, {upper}]")
        if unit:
            fail_unless(v == round(v) and v >= math.ceil(lower - slack),
                        f"{what}: unit value {v} below ceil({lower})")


def check_histogram_total(histogram: dict, expected: int, what: str) -> None:
    total = sum(histogram.values())
    fail_unless(total == expected,
                f"{what}: histogram holds {total} replicas, "
                f"expected {expected}")


def bkv_matches(attached, optimum: float) -> bool:
    """False when a best-known value is attached but is not the optimum."""
    return attached is None or abs(attached - optimum) <= REL_TOL * optimum


def _col_masks(rows, n_cols: int) -> list[int]:
    masks = [0] * n_cols
    for r, row in enumerate(rows):
        for c in row:
            masks[c - 1] |= 1 << r
    return masks


def exact_stoc_distribution(rows, n_cols: int, weights) -> dict:
    """Exact greedy value distribution under uniform tie-breaking.

    A dynamic program over covered-row masks: at each mask the tie set is
    every column with a positive degree whose rate weight/degree equals
    the minimum exactly, and each tied column carries 1/|ties| of the
    mass. Values sum the picked weights in ascending column order. Its
    support is every value some tie-break sequence reaches.
    """
    masks = _col_masks(rows, n_cols)
    full = (1 << len(rows)) - 1
    weights = [float(w) for w in weights]
    memo: dict[int, dict[frozenset, Fraction]] = {}

    def outcomes(cov: int) -> dict[frozenset, Fraction]:
        if cov == full:
            return {frozenset(): Fraction(1)}
        if cov in memo:
            return memo[cov]
        rates = {}
        for j in range(n_cols):
            deg = (masks[j] & ~cov).bit_count()
            if deg:
                rates[j] = weights[j] / deg
        low = min(rates.values())
        ties = [j for j, rate in rates.items() if rate == low]
        out: dict[frozenset, Fraction] = {}
        for j in ties:
            for picks, p in outcomes(cov | masks[j]).items():
                key = picks | {j}
                out[key] = out.get(key, 0) + p / len(ties)
        memo[cov] = out
        return out

    dist: dict[float, Fraction] = {}
    for picks, p in outcomes(0).items():
        value = 0.0
        for j in sorted(picks):
            value += weights[j]
        dist[value] = dist.get(value, 0) + p
    return dist


def _match_value(v: float, support) -> float | None:
    for s in support:
        if abs(v - s) <= REL_TOL * max(1.0, abs(s)):
            return s
    return None


def check_support(histogram: dict, support, what: str) -> None:
    """Every observed value is reachable under some tie-break sequence."""
    for v in histogram:
        fail_unless(_match_value(v, support) is not None,
                    f"{what}: value {v} not reachable, "
                    f"reachable {sorted(support)}")


def check_exact_frequencies(histogram: dict, exact: dict, what: str) -> None:
    """Observed counts lie within SIGMAS binomial deviations of n * p."""
    check_support(histogram, exact, what)
    n = sum(histogram.values())
    observed = {s: 0 for s in exact}
    for v, count in histogram.items():
        observed[_match_value(v, exact)] += count
    for s, p in exact.items():
        p = float(p)
        sd = math.sqrt(n * p * (1.0 - p))
        fail_unless(abs(observed[s] - n * p) <= SIGMAS * sd + 1e-9,
                    f"{what}: value {s} seen {observed[s]} times in {n}, "
                    f"expected {n * p:.1f} +- {SIGMAS * sd:.1f}")


# --- matchings ------------------------------------------------------------

def reference_matching_size(rows: RowDigest) -> int:
    """Maximum matching size from scipy's Hopcroft-Karp."""
    from scipy.sparse.csgraph import maximum_bipartite_matching

    match = maximum_bipartite_matching(rows.csr(), perm_type="column")
    return int((match >= 0).sum())


def check_matching(pairs, rows: "RowDigest", expected_size: int,
                   all_columns: bool, what: str) -> None:
    """Pairs are edges, use each row and column once, and are maximum."""
    fail_unless(len(pairs) == expected_size,
                f"{what}: {len(pairs)} pairs, maximum is {expected_size}")
    p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    fail_unless(np.unique(p[:, 0]).size == len(p),
                f"{what}: a row is matched twice")
    fail_unless(np.unique(p[:, 1]).size == len(p),
                f"{what}: a column is matched twice")
    bad = ~rows.has_edges(p[:, 0], p[:, 1])
    fail_unless(not bad.any(),
                f"{what}: pairs {p[bad][:3].tolist()} are not edges")
    if all_columns:
        fail_unless(len(pairs) == rows.n_cols,
                    f"{what}: {rows.n_cols - len(pairs)} columns unmatched")


# --- top-K ----------------------------------------------------------------

def recount_watches(watches_path: str) -> Counter:
    """Watch count per movie id, read back from the written CSV."""
    with open(watches_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return Counter(row[1] for row in reader)


def reference_topk(counts: Counter, k: int) -> list[tuple[str, int]]:
    return heapq.nsmallest(k, counts.items(), key=lambda kv: (-kv[1], kv[0]))


def check_counts(counts: dict, reference: Counter, what: str) -> None:
    if counts != reference:
        wrong = [m for m in reference.keys() | counts.keys()
                 if counts.get(m) != reference.get(m)]
        raise CheckFailure(f"{what}: counts differ for {len(wrong)} movies, "
                           f"e.g. {wrong[0]}")


def check_topk(entries, reference: list, what: str) -> None:
    entries = list(entries)
    keys = [(-count, movie) for movie, count in entries]
    fail_unless(keys == sorted(keys),
                f"{what}: entries not ordered by count, then id")
    fail_unless(entries == reference,
                f"{what}: top-K {entries[:3]}... differs from the recount "
                f"{reference[:3]}...")


def check_watch_histogram(histogram: dict, counts: Counter, size: int,
                          what: str) -> None:
    """Histogram mass equals the list size; it matches the recount."""
    mass = sum(times * movies for times, movies in histogram.items())
    fail_unless(mass == size, f"{what}: histogram mass {mass} != {size}")
    fail_unless(histogram == dict(Counter(counts.values())),
                f"{what}: histogram differs from the recount")


def check_distinct_fraction(counts: dict, size: int, what: str) -> None:
    """Distinct watched share is 1 - 1/e for uniform picks of `size`."""
    share = len(counts) / size
    fail_unless(abs(share - ONE_MINUS_INV_E) <= DISTINCT_TOL,
                f"{what}: distinct-watched share {share:.4f}, "
                f"expected {ONE_MINUS_INV_E:.4f} +- {DISTINCT_TOL}")
