"""Greedy set cover: deterministic core, two stochastic variants, oracles.

The core loop repeatedly selects the column minimizing weight / degree over
the remaining uncovered rows, zeroes the rows that column covers, and stops
when every row is covered. Variants differ only in how rate ties resolve:

* basic        - first (lowest-index) column at the minimum rate
* stochastic   - uniform choice among all columns tied at the minimum
* isomorph     - basic rule on a column-permuted isomorph, selection
                 reported in reference column order

Rate comparison uses exact floating-point equality by default, with an
optional relative tolerance for weights that only tie approximately.

All variants run on one per-instance engine built from flat arrays: the
rows flattened into one literal array, and the column-to-rows CSR
(compressed sparse rows: a pointer array plus a flat row-index array)
derived from it. An isomorph replica does not copy that engine; it runs a
view that shares every array and carries only the permuted column order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .generators import isomorph_permutation, seeded_rng
from .instances import BigraphInstance, UnateRequiredError


@dataclass(frozen=True)
class CoverSolution:
    """One greedy run: 0/1 column selection, its weight, iteration count."""

    coord: tuple[int, ...]
    value: float
    n_ops: int
    replica_id: int


@dataclass(frozen=True)
class HarmonicBound:
    """Harmonic number H_d and the greedy upper bound H_d * bkv."""

    d: int
    h_d: float
    ub: float


def harmonic(d: int) -> float:
    """H_d = sum_{k=1..d} 1/k."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return sum(1.0 / k for k in range(1, d + 1))


def chvatal_upper_bound(bkv: float, m_cd: int) -> float:
    """Upper bound harmonic(m_cd) * bkv on the greedy cover value."""
    if not bkv > 0:
        raise ValueError("bkv must be positive")
    return harmonic(m_cd) * bkv


def harmonic_bound(bkv: float, m_cd: int) -> HarmonicBound:
    h = harmonic(m_cd)
    if not bkv > 0:
        raise ValueError("bkv must be positive")
    return HarmonicBound(d=m_cd, h_d=h, ub=h * bkv)


def cover_value(coord, weights) -> float:
    """Selected-weight total, summed in ascending column order.

    All solvers and oracles share this summation so equal selections produce
    bit-identical values.
    """
    total = 0.0
    for w in compress(weights, coord):
        total += w
    return float(total)


def verify_cover(instance: BigraphInstance, coord) -> bool:
    """True iff every row has a positively occurring selected column."""
    if len(coord) != instance.n_cols:
        raise ValueError(
            f"coord length {len(coord)} != n_cols {instance.n_cols}")
    return all(any(lit > 0 and coord[lit - 1] for lit in clause)
               for clause in instance.rows)


# Cutoffs for the bitmask fast path; wide or very tall instances go through
# the vectorized path instead.
_SMALL_COLS = 128
_SMALL_ROWS = 1024


class _Engine:
    """Per-instance solver state shared by every replica run.

    Two interchangeable inner loops cover both instance regimes: a bitmask
    scan for small instances and a vectorized scan for large ones. They see
    the same IEEE rates and the same tie ordering, so for a given random
    stream both produce identical selections. The build flattens the rows
    once into one literal array and derives each loop's data from it: the
    per-column row bitmasks, or the column-to-rows CSR (`col_ptr` and
    `col_rows`, rows ascending within a column), the column degrees and one
    column array per row.

    An engine scans columns in `order`, the reference order unless it is a
    `permuted` view; ties resolve to the first tied column in that order and
    `coord` is always reported in reference order.
    """

    def __init__(self, instance: BigraphInstance):
        self.n = n = instance.n_cols
        self.m = m = instance.m_rows
        lengths = np.fromiter(map(len, instance.rows), dtype=np.intp,
                              count=m)
        flat = np.fromiter(chain.from_iterable(instance.rows),
                           dtype=np.intp, count=int(lengths.sum()))
        if flat.min() < 1:
            raise UnateRequiredError(f"{instance.name}: unate required")
        cols = flat - 1
        row_of = np.repeat(np.arange(m, dtype=np.intp), lengths)
        self.weights_list = instance.col_weights
        self.order = None
        self.small = n <= _SMALL_COLS and m <= _SMALL_ROWS
        if self.small:
            incidence = np.zeros((n, m), dtype=bool)
            incidence[cols, row_of] = True
            packed = np.packbits(incidence, axis=1, bitorder="little")
            self.col_masks = [int.from_bytes(b, "little") for b in packed]
            self.full = (1 << m) - 1
            return
        degrees = np.bincount(cols, minlength=n)
        self.col_ptr = np.concatenate(([0], np.cumsum(degrees))).tolist()
        # numpy's stable sort is a radix sort on 16-bit keys
        key = cols.astype(np.uint16 if n <= 1 << 16 else np.int32)
        self.col_rows = row_of[np.argsort(key, kind="stable")]
        self.cols_of_row = np.split(cols, np.cumsum(lengths[:-1]))
        self.degrees0 = degrees.astype(np.float64)
        self.weights = np.array(instance.col_weights, dtype=np.float64)

    def permuted(self, perm: tuple[int, ...]) -> "_Engine":
        """View of this engine that scans columns in `perm` order.

        The view shares every array with this engine and carries only the
        column order, so its runs solve the column-permuted instance (output
        column idx carries input column perm[idx]) and report `coord` in
        reference order.
        """
        view = copy.copy(self)
        if self.small:
            view.order = [p - 1 for p in perm]
        else:
            view.order = np.fromiter(perm, dtype=np.intp, count=self.n) - 1
        return view

    def run(self, rng: np.random.Generator | None,
            tie_tol: float = 0.0) -> tuple[list[int], int]:
        """One greedy pass; returns (coord, n_ops).

        `rng` None selects the first minimum; otherwise selection is uniform
        over the tied minimum set.
        """
        if self.small:
            return self._run_small(rng, tie_tol)
        return self._run_vectorized(rng, tie_tol)

    def _run_small(self, rng, tie_tol: float) -> tuple[list[int], int]:
        masks = self.col_masks
        weights = self.weights_list
        order = range(self.n) if self.order is None else self.order
        full = self.full
        cov = 0
        coord = [0] * self.n
        n_ops = 0
        while cov != full:
            uncov = full ^ cov
            if rng is None and tie_tol == 0.0:
                best = None
                pick = -1
                for j in order:
                    deg = (masks[j] & uncov).bit_count()
                    if deg:
                        rate = weights[j] / deg
                        if best is None or rate < best:
                            best, pick = rate, j
                if pick < 0:
                    raise ValueError("uncoverable rows remain")
                j = pick
            else:
                rates: list[float | None] = [None] * self.n
                best = None
                for jj in order:
                    deg = (masks[jj] & uncov).bit_count()
                    if deg:
                        rate = weights[jj] / deg
                        rates[jj] = rate
                        if best is None or rate < best:
                            best = rate
                if best is None:
                    raise ValueError("uncoverable rows remain")
                bound = best * (1.0 + tie_tol) if tie_tol else best
                ties = [jj for jj in order
                        if rates[jj] is not None and rates[jj] <= bound]
                if rng is None:
                    j = ties[0]
                else:
                    j = ties[int(rng.integers(len(ties)))]
            cov |= masks[j]
            coord[j] = 1
            n_ops += 1
        return coord, n_ops

    def _run_vectorized(self, rng, tie_tol: float) -> tuple[list[int], int]:
        col_ptr, col_rows = self.col_ptr, self.col_rows
        order = self.order
        degrees = self.degrees0.copy()
        covered = np.zeros(self.m, dtype=bool)
        coord = [0] * self.n
        uncovered = self.m
        n_ops = 0
        with np.errstate(divide="ignore"):
            while uncovered:
                rates = self.weights / degrees
                if order is not None:
                    rates = rates[order]
                if rng is None and tie_tol == 0.0:
                    j = int(rates.argmin())
                else:
                    low = rates.min()
                    if tie_tol:
                        ties = np.flatnonzero(rates <= low * (1.0 + tie_tol))
                    else:
                        ties = np.flatnonzero(rates == low)
                    if rng is None:
                        j = int(ties[0])
                    else:
                        j = int(ties[rng.integers(ties.size)])
                if order is not None:
                    j = int(order[j])
                if degrees[j] == 0.0:
                    raise ValueError("uncoverable rows remain")
                hit = col_rows[col_ptr[j]:col_ptr[j + 1]]
                fresh = hit[~covered[hit]]
                covered[fresh] = True
                uncovered -= fresh.size
                if fresh.size:
                    np.subtract.at(degrees, np.concatenate(
                        [self.cols_of_row[r] for r in fresh.tolist()]), 1.0)
                coord[j] = 1
                n_ops += 1
        return coord, n_ops


def _solution(engine: _Engine, coord: list[int], n_ops: int,
              replica_id: int) -> CoverSolution:
    return CoverSolution(coord=tuple(coord),
                         value=cover_value(coord, engine.weights_list),
                         n_ops=n_ops, replica_id=replica_id)


def greedy_basic(instance: BigraphInstance,
                 tie_tol: float = 0.0) -> CoverSolution:
    """Deterministic greedy cover (first-minimum tie rule)."""
    engine = _Engine(instance)
    coord, n_ops = engine.run(None, tie_tol)
    return _solution(engine, coord, n_ops, 0)


def greedy_stoc(instance: BigraphInstance, replica_id: int,
                tie_tol: float = 0.0) -> CoverSolution:
    """Greedy cover with random tie-breaks, seeded by replica_id.

    replica_id 0 reproduces greedy_basic exactly.
    """
    if replica_id < 0:
        raise ValueError("replica_id must be nonnegative")
    engine = _Engine(instance)
    return _greedy_stoc_run(engine, replica_id, tie_tol)


def _greedy_stoc_run(engine: _Engine, replica_id: int,
                     tie_tol: float = 0.0) -> CoverSolution:
    rng = None if replica_id == 0 else seeded_rng(replica_id)
    coord, n_ops = engine.run(rng, tie_tol)
    return _solution(engine, coord, n_ops, replica_id)


def greedy_iso(instance: BigraphInstance, replica_id: int,
               tie_tol: float = 0.0) -> CoverSolution:
    """Greedy cover on the replica_id isomorph, reported in reference order.

    replica_id 0 equals greedy_basic on the reference instance.
    """
    if replica_id < 0:
        raise ValueError("replica_id must be nonnegative")
    engine = _Engine(instance)
    perm = isomorph_permutation(instance.n_cols, replica_id)
    return _greedy_iso_run(engine, perm, replica_id, tie_tol)


def _greedy_iso_run(engine: _Engine, perm: tuple[int, ...], replica_id: int,
                    tie_tol: float = 0.0) -> CoverSolution:
    coord, n_ops = engine.permuted(perm).run(None, tie_tol)
    return _solution(engine, coord, n_ops, replica_id)


def brute_force_cover(instance: BigraphInstance
                      ) -> tuple[float, tuple[int, ...]]:
    """Exact minimum-weight cover by subset enumeration; needs <= 24 columns.

    Weight ties resolve to the lexicographically smallest coord.
    """
    if not instance.is_unate:
        raise UnateRequiredError(f"{instance.name}: unate required")
    n = instance.n_cols
    if n > 24:
        raise ValueError(f"{instance.name}: {n} columns exceed the "
                         f"24-column oracle limit")
    col_masks = [0] * n
    for r, clause in enumerate(instance.rows):
        for lit in clause:
            col_masks[lit - 1] |= 1 << r
    full = (1 << instance.m_rows) - 1
    weights = instance.col_weights
    best_value = None
    best_coord = None
    for subset in range(1, 1 << n):
        union = 0
        sel = subset
        while sel:
            low = sel & -sel
            union |= col_masks[low.bit_length() - 1]
            sel ^= low
        if union != full:
            continue
        coord = tuple((subset >> j) & 1 for j in range(n))
        value = cover_value(coord, weights)
        if (best_value is None or value < best_value
                or (value == best_value and coord < best_coord)):
            best_value, best_coord = value, coord
    if best_value is None:
        raise ValueError(f"{instance.name}: no cover exists")
    return best_value, best_coord


def enumerate_achievable_solutions(instance: BigraphInstance,
                                   tie_tol: float = 0.0
                                   ) -> set[tuple[tuple[int, ...], float]]:
    """Every (coord, value) reachable under some tie-break sequence.

    Branches exhaustively at every tied minimum; limited to <= 8 columns.
    """
    if not instance.is_unate:
        raise UnateRequiredError(f"{instance.name}: unate required")
    n = instance.n_cols
    if n > 8:
        raise ValueError(f"{instance.name}: {n} columns exceed the "
                         f"8-column enumeration limit")
    col_masks = [0] * n
    for r, clause in enumerate(instance.rows):
        for lit in clause:
            col_masks[lit - 1] |= 1 << r
    full = (1 << instance.m_rows) - 1
    weights = instance.col_weights
    memo: dict[int, set[frozenset[int]]] = {}

    def completions(cov: int) -> set[frozenset[int]]:
        if cov == full:
            return {frozenset()}
        cached = memo.get(cov)
        if cached is not None:
            return cached
        low = None
        rates = []
        for j in range(n):
            deg = (col_masks[j] & ~cov).bit_count()
            if deg == 0:
                rates.append(None)
                continue
            rate = weights[j] / deg
            rates.append(rate)
            if low is None or rate < low:
                low = rate
        bound = low * (1.0 + tie_tol) if tie_tol else low
        out: set[frozenset[int]] = set()
        for j in range(n):
            rate = rates[j]
            if rate is None or rate > bound:
                continue
            for rest in completions(cov | col_masks[j]):
                out.add(rest | {j})
        memo[cov] = out
        return out

    result = set()
    for picks in completions(0):
        coord = tuple(1 if j in picks else 0 for j in range(n))
        result.add((coord, cover_value(coord, weights)))
    return result


def enumerate_achievable_values(instance: BigraphInstance,
                                tie_tol: float = 0.0) -> set[float]:
    """Set of greedy values reachable under any tie-break choice sequence."""
    return {value for _, value
            in enumerate_achievable_solutions(instance, tie_tol)}
