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

All variants run on one per-instance engine built from the flat literal
arrays and the column-to-rows CSR (compressed sparse rows: a pointer array
plus a flat row-index array) that `instances` derives for every column-wise
view. An isomorph replica does not copy that engine; it passes only its
permuted column order to the engine's run.
On small instances the engine memoizes each covered-row state's tie set,
and a random replica draws only at ties of two or more columns, so its
draw source (a generator, or a distribution run's keystream) is touched
only when it is needed.

A large distribution run on a small instance does not run its replicas
one by one: `_StateGraph` holds the covered-row states they reach, each
with its tie set and the state every tied column leads to, and `walk`
moves a chunk of replicas through it in numpy lockstep, one pick per
step, each lane choosing its column by its own draw or rank. A lane that
cannot go on there finishes in the engine's own loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress

import numpy as np

from .generators import isomorph_permutation, seeded_rng
from .instances import BigraphInstance, column_csr, unate_literals


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
    """H_d = sum_{k=1..d} 1/k, added from k = 1 up: from Python 3.12 the
    builtin `sum` of floats is compensated and rounds differently."""
    if d < 1:
        raise ValueError("d must be >= 1")
    total = 0.0
    for k in range(1, d + 1):
        total += 1.0 / k
    return total


def chvatal_upper_bound(bkv: float, m_cd: int) -> float:
    """Upper bound harmonic(m_cd) * bkv on the greedy cover value."""
    return harmonic_bound(bkv, m_cd).ub


def harmonic_bound(bkv: float, m_cd: int) -> HarmonicBound:
    h = harmonic(m_cd)
    _check_bkv(bkv)
    _check_bkv(h * bkv, f"the bound H_{m_cd} * bkv")
    return HarmonicBound(d=m_cd, h_d=h, ub=h * bkv)


def _check_bkv(bkv: float, label: str = "bkv") -> None:
    """Reject a best-known value that is not a finite number > 0."""
    if not 0.0 < bkv < math.inf:
        raise ValueError(f"{label} must be positive and finite, got {bkv}")


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
# Most covered-row states whose tie sets one engine keeps; states past the
# cap are computed and not stored.
_TIE_MEMO_STATES = 1 << 14
# Error of a cover whose weight total overflows to inf.
_OVERFLOW = "the cover value overflows a float"


def _packed_masks(cols: np.ndarray, row_of: np.ndarray, n: int,
                  m: int) -> list[int]:
    """Per-column row bitmask: bit r of mask j is set iff row r holds j."""
    incidence = np.zeros((n, m), dtype=bool)
    incidence[cols, row_of] = True
    packed = np.packbits(incidence, axis=1, bitorder="little")
    return [int.from_bytes(b, "little") for b in packed]


def _column_masks(instance: BigraphInstance, limit: int,
                  what: str) -> list[int]:
    """Column bitmasks of a unate instance of at most `limit` columns."""
    _, cols, row_of = unate_literals(instance)
    n = instance.n_cols
    if n > limit:
        raise ValueError(f"{instance.name}: {n} columns exceed the "
                         f"{limit}-column {what} limit")
    return _packed_masks(cols, row_of, n, instance.m_rows)


def _tie_set(masks: list[int], weights, uncov: int,
             tie_tol: float) -> tuple[int, ...]:
    """Columns at the minimum weight/degree rate over the `uncov` rows.

    The one greedy tie rule: a column ties when its rate is at most the
    minimum, times (1 + tie_tol) when a tolerance is given. Columns come in
    reference order; the set is empty when no column covers an `uncov` row.
    """
    cols = []
    rates = []
    for j, mask in enumerate(masks):
        deg = (mask & uncov).bit_count()
        if deg:
            cols.append(j)
            rates.append(weights[j] / deg)
    if not rates:
        return ()
    bound = min(rates) * (1.0 + tie_tol)
    return tuple([j for j, rate in zip(cols, rates) if rate <= bound])


def _check_tie_tol(tie_tol: float) -> None:
    """Reject a tie tolerance that is not a finite number >= 0: a negative
    or NaN one leaves every tie set empty, and an infinite one lets a
    column that covers no row tie on the vectorized path."""
    if not 0.0 <= tie_tol < math.inf:
        raise ValueError(
            f"tie_tol must be a finite number >= 0, got {tie_tol}")


def _generator(rng):
    """`rng` itself, or the draw source it returns if it is a function."""
    return rng() if callable(rng) else rng


class _Engine:
    """Per-instance solver state shared by every replica run.

    Two interchangeable inner loops cover both instance regimes: a bitmask
    loop for small instances and a vectorized scan for large ones. They see
    the same IEEE rates and the same tie ordering, so for a given random
    stream both produce identical selections. The build takes the flat
    literal arrays once (`unate_literals`) and derives each loop's data from
    them: the per-column row bitmasks, or the column-to-rows CSR (`col_ptr`
    and `col_rows`, rows ascending within a column), the column degrees and
    one column array per row (`cols_of_row`, views of one array), all
    indexed as intp.

    An engine is built for one tie tolerance, checked once by the build.
    The bitmask loop and a walk's `_StateGraph` take each covered-row
    state's tie set from `ties`, which keeps it in `tie_memo`, keyed by the
    state alone, so a state's rates are computed once per engine, not once
    per replica. Past its build the engine is only read, the memo apart;
    whatever a replica varies is an argument of `run`.

    A run scans columns in reference order unless it is given an isomorph's
    column order; ties resolve to the first tied column in that order and
    `coord` is always reported in reference order.
    """

    def __init__(self, instance: BigraphInstance, tie_tol: float = 0.0):
        _check_tie_tol(tie_tol)
        self.tie_tol = tie_tol
        self.n = n = instance.n_cols
        self.m = m = instance.m_rows
        lengths, cols, row_of = unate_literals(instance)
        self.weights_list = instance.col_weights
        self.small = n <= _SMALL_COLS and m <= _SMALL_ROWS
        if self.small:
            self.col_masks = _packed_masks(cols, row_of, n, m)
            self.full = (1 << m) - 1
            self.tie_memo: dict[int, tuple[int, ...]] = {}
            return
        col_ptr, col_rows = column_csr(cols, row_of, n)
        self.col_ptr = col_ptr.tolist()
        # The loop indexes with these at every pick, so they are widened to
        # intp here, once: numpy would convert int32 indices at each use.
        # A row's columns are a view of one array, cut where its row starts.
        self.col_rows = col_rows.astype(np.intp)
        row_cols = cols.astype(np.intp)
        row_ptr = [0] + np.cumsum(lengths).tolist()
        self.cols_of_row = [row_cols[a:b]
                            for a, b in zip(row_ptr, row_ptr[1:])]
        self.degrees0 = np.diff(col_ptr).astype(np.float64)
        self.weights = np.array(instance.col_weights, dtype=np.float64)

    def permuted(self, perm: tuple[int, ...]) -> list[int] | np.ndarray:
        """The `order` of `run` that solves the column-permuted instance
        (output column idx carries input column perm[idx]): each column's
        position in `perm` (its rank) on the bitmask path, the 0-based
        `perm` itself on the vectorized one."""
        if self.small:
            rank = [0] * self.n
            for idx, col in enumerate(perm):
                rank[col - 1] = idx
            return rank
        return np.fromiter(perm, dtype=np.intp, count=self.n) - 1

    def run(self, rng, order=None) -> tuple[list[int], int]:
        """One greedy pass under the engine's tie tolerance; returns
        (coord, n_ops).

        `rng` None selects the first minimum; otherwise selection is uniform
        over the tied minimum set, drawn by `rng.integers(len(ties))`: `rng`
        is a generator, any source with that method (such as
        `ReplicaStreams.draws`), or a function that returns one. A draw is
        made only at a tie of two or more columns (`integers(1)` would
        consume no stream), and a function is called at the first such
        draw, so a run that never ties makes no generator.

        `order` (runs without `rng` only) scans the columns in an
        isomorph's order: as `permuted` returns it, or on the bitmask path
        as a row of a `ReplicaStreams.ranks` matrix, as a list.
        """
        if self.small:
            return self._run_small(rng, order)
        return self._run_vectorized(rng, order)

    def _run_small(self, rng, rank: list[int] | None, cov: int = 0,
                   coord: list[int] | None = None) -> tuple[list[int], int]:
        """The bitmask loop; a walked lane that leaves its walk goes on
        from the rows `cov` it covers with the columns `coord` it picked,
        and `n_ops` counts the picks made here."""
        masks = self.col_masks
        memo = self.tie_memo
        full = self.full
        if coord is None:
            coord = [0] * self.n
        n_ops = 0
        while cov != full:
            ties = memo.get(cov)
            if ties is None:
                ties = self.ties(cov)
            j = ties[0]
            if len(ties) > 1:
                if rng is not None:
                    rng = _generator(rng)
                    j = ties[int(rng.integers(len(ties)))]
                elif rank is not None:
                    j = min(ties, key=rank.__getitem__)
            cov |= masks[j]
            coord[j] = 1
            n_ops += 1
        return coord, n_ops

    def ties(self, cov: int) -> tuple[int, ...]:
        """Tie set of the covered-row state `cov` (bitmask path; some row
        uncovered), from `tie_memo` or computed and, under the cap, kept."""
        ties = self.tie_memo.get(cov)
        if ties is None:
            ties = _tie_set(self.col_masks, self.weights_list,
                            self.full ^ cov, self.tie_tol)
            if not ties:
                raise ValueError("uncoverable rows remain")
            if len(self.tie_memo) < _TIE_MEMO_STATES:
                self.tie_memo[cov] = ties
        return ties

    def _run_vectorized(self, rng,
                        order: np.ndarray | None) -> tuple[list[int], int]:
        col_ptr, col_rows = self.col_ptr, self.col_rows
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
                if rng is None and self.tie_tol == 0.0:
                    j = int(rates.argmin())
                else:
                    low = rates.min()
                    ties = np.flatnonzero(rates <= low * (1.0 + self.tie_tol))
                    if rng is None or ties.size == 1:
                        j = int(ties[0])
                    else:
                        rng = _generator(rng)
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


class _LaneError(Exception):
    """A walk's failure, raised from the error of the lane `lane` that met
    it first."""

    def __init__(self, lane: int):
        super().__init__(lane)
        self.lane = lane


class _StateGraph:
    """The covered-row states a bitmask engine's replicas reach, added as
    the lanes of a lockstep walk first reach them.

    State 0 covers no row. State s holds its covered rows (`covs[s]`) and
    its tie set from the engine's `ties` (`tie_sets[s]`, empty when it
    covers every row); for the walk's numpy steps, `nties[s]`, `ties[s]`
    (the tie set padded with its first column) and `follow[s]`
    (the state each tied column leads to, -1 until a lane takes it). The
    states a step reaches first are added in Python and their array rows
    written at once (`_write`). The graph holds at most `_TIE_MEMO_STATES`
    states; a lane that would pass the cap leaves the walk.
    """

    def __init__(self, engine: _Engine):
        self.engine = engine
        n = engine.n
        self.index: dict[int, int] = {}
        self.covs: list[int] = []
        self.tie_sets: list[tuple[int, ...]] = []
        self.written = 0
        self.nties = np.zeros(0, np.intp)
        self.ties = np.zeros((0, n), np.int32)
        self.follow = np.zeros((0, n), np.int32)

    def _state(self, cov: int) -> int:
        """The state that covers `cov`, added if new; -1 past the cap."""
        s = self.index.get(cov)
        if s is None:
            s = len(self.covs)
            if s >= _TIE_MEMO_STATES:
                return -1
            self.tie_sets.append(
                () if cov == self.engine.full else self.engine.ties(cov))
            self.index[cov] = s
            self.covs.append(cov)
        return s

    def _write(self) -> None:
        """Write the array rows of the states added since the last write,
        growing the arrays to at least twice their rows when they are
        full."""
        start, end = self.written, len(self.covs)
        if start == end:
            return
        if end > len(self.nties):
            extra = max(64, end, 2 * len(self.nties)) - len(self.nties)
            n = self.engine.n
            self.nties = np.concatenate([self.nties, np.zeros(extra,
                                                              np.intp)])
            self.ties = np.concatenate([self.ties,
                                        np.zeros((extra, n), np.int32)])
            self.follow = np.concatenate([self.follow,
                                          np.full((extra, n), -1, np.int32)])
        new = self.tie_sets[start:end]
        counts = np.fromiter(map(len, new), np.intp, len(new))
        flat = np.fromiter(chain.from_iterable(new), np.int32,
                           int(counts.sum()))
        firsts = np.cumsum(counts) - counts
        self.nties[start:end] = counts
        live = np.flatnonzero(counts) + start
        self.ties[live] = flat[firsts[counts > 0], None]
        self.ties[np.repeat(np.arange(start, end), counts),
                  np.arange(len(flat)) - np.repeat(firsts, counts)] = flat
        self.written = end

    def walk(self, lanes: int, choose) -> tuple[np.ndarray, dict[int, int]]:
        """Walk `lanes` replicas from state 0 in lockstep, one pick per
        step; returns every lane's picked columns (`picked[j, lane]` is
        True iff the lane picked column j) and, for each lane that left
        the walk, the rows it covered when it left.

        `choose(act, at)` gives, for the lanes `act` (ascending) at the
        states `at`, the position in its tie set of the column each lane
        picks, or -1 for a lane that leaves the walk there. A state that
        fails to build raises `_LaneError` for the first lane to reach it.
        """
        picked = np.zeros((self.engine.n, lanes), bool)
        try:
            root = self._state(0)
        except Exception as exc:
            raise _LaneError(0) from exc
        if root < 0:
            return picked, dict.fromkeys(range(lanes), 0)
        self._write()
        left: dict[int, int] = {}
        act = np.arange(lanes)
        at = np.full(lanes, root)
        while act.size:
            pick = choose(act, at)
            stay = pick >= 0
            if not stay.all():
                for lane, s in zip(act[~stay].tolist(), at[~stay].tolist()):
                    left[lane] = self.covs[s]
                act, at, pick = act[stay], at[stay], pick[stay]
            col = self.ties[at, pick]
            picked[col, act] = True
            nxt = self.follow[at, pick]
            new = np.flatnonzero(nxt < 0)
            if new.size:
                nxt[new] = self._follow(act[new], at[new], pick[new])
                stay = nxt >= 0
                if not stay.all():
                    masks = self.engine.col_masks
                    for lane, s, j in zip(act[~stay].tolist(),
                                          at[~stay].tolist(),
                                          col[~stay].tolist()):
                        left[lane] = self.covs[s] | masks[j]
                    act, nxt = act[stay], nxt[stay]
            live = self.nties[nxt] > 0
            act, at = act[live], nxt[live]
        return picked, left

    def _follow(self, act: np.ndarray, at: np.ndarray,
                pick: np.ndarray) -> np.ndarray:
        """`follow[at, pick]` of the lanes `act`, adding the states no lane
        has reached yet, the first lane's first."""
        n = self.engine.n
        masks = self.engine.col_masks
        keys, first = np.unique(at * n + pick, return_index=True)
        order = np.argsort(first)
        keys, first = keys[order], first[order]
        found = []
        for key, lane in zip(keys.tolist(), first.tolist()):
            s, k = divmod(key, n)
            try:
                found.append(self._state(
                    self.covs[s] | masks[self.tie_sets[s][k]]))
            except Exception as exc:
                raise _LaneError(int(act[lane])) from exc
        self._write()
        self.follow[keys // n, keys % n] = found
        return self.follow[at, pick]


def _solution(engine: _Engine, coord: list[int], n_ops: int,
              replica_id: int) -> CoverSolution:
    value = cover_value(coord, engine.weights_list)
    if value == math.inf:
        raise ValueError(_OVERFLOW)
    return CoverSolution(coord=tuple(coord), value=value, n_ops=n_ops,
                         replica_id=replica_id)


def greedy_basic(instance: BigraphInstance,
                 tie_tol: float = 0.0) -> CoverSolution:
    """Deterministic greedy cover (first-minimum tie rule)."""
    return _greedy_stoc_run(_Engine(instance, tie_tol), 0)


def greedy_stoc(instance: BigraphInstance, replica_id: int,
                tie_tol: float = 0.0) -> CoverSolution:
    """Greedy cover with random tie-breaks, seeded by replica_id.

    replica_id 0 reproduces greedy_basic exactly.
    """
    if replica_id < 0:
        raise ValueError("replica_id must be nonnegative")
    return _greedy_stoc_run(_Engine(instance, tie_tol), replica_id)


def _greedy_stoc_run(engine: _Engine, replica_id: int) -> CoverSolution:
    """The replica draws from `seeded_rng(replica_id)`, made only at the
    run's first real tie."""
    rng = None if replica_id == 0 else (lambda: seeded_rng(replica_id))
    coord, n_ops = engine.run(rng)
    return _solution(engine, coord, n_ops, replica_id)


def greedy_iso(instance: BigraphInstance, replica_id: int,
               tie_tol: float = 0.0) -> CoverSolution:
    """Greedy cover on the replica_id isomorph, reported in reference order.

    replica_id 0 equals greedy_basic on the reference instance.
    """
    engine = _Engine(instance, tie_tol)
    perm = isomorph_permutation(instance.n_cols, replica_id)
    return _greedy_iso_run(engine, perm, replica_id)


def _greedy_iso_run(engine: _Engine, perm: tuple[int, ...],
                    replica_id: int) -> CoverSolution:
    coord, n_ops = engine.run(None, engine.permuted(perm))
    return _solution(engine, coord, n_ops, replica_id)


def brute_force_cover(instance: BigraphInstance
                      ) -> tuple[float, tuple[int, ...]]:
    """Exact minimum-weight cover by subset enumeration; needs <= 24 columns.

    Weight ties resolve to the lexicographically smallest coord.
    """
    n = instance.n_cols
    col_masks = _column_masks(instance, 24, "oracle")
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
    """Every (coord, value) reachable under some tie-break sequence: the
    support of `exact_stoc_distribution`; limited to <= 8 columns."""
    return {(c, cover_value(c, instance.col_weights))
            for c in _exact_distribution(instance, tie_tol, 8, "enumeration")}


def enumerate_achievable_values(instance: BigraphInstance,
                                tie_tol: float = 0.0) -> set[float]:
    """Set of greedy values reachable under any tie-break choice sequence."""
    return {value for _, value
            in enumerate_achievable_solutions(instance, tie_tol)}


def exact_stoc_distribution(instance: BigraphInstance, tie_tol: float = 0.0
                            ) -> dict[tuple[int, ...], Fraction]:
    """Exact probability of every coord `greedy_stoc` can return.

    Under uniform tie-breaking each pick passes 1/|ties| of a state's
    probability to each tied column, so propagating the mass pick by pick
    over the (picked columns, covered rows) states gives the outcome
    distribution as exact fractions. A state's covered rows follow from its
    picked columns, so at most 2^n states are reachable; limited to <= 16
    columns.
    """
    return _exact_distribution(instance, tie_tol, 16, "exact-distribution")


def _exact_distribution(instance: BigraphInstance, tie_tol: float, limit: int,
                        what: str) -> dict[tuple[int, ...], Fraction]:
    _check_tie_tol(tie_tol)
    n = instance.n_cols
    col_masks = _column_masks(instance, limit, what)
    full = (1 << instance.m_rows) - 1
    outcomes: dict[tuple[int, ...], Fraction] = {}
    layer = {(0, 0): Fraction(1)}  # (picked-column bits, covered rows)
    while layer:
        following: dict[tuple[int, int], Fraction] = {}
        for (picked, cov), mass in layer.items():
            if cov == full:
                coord = tuple((picked >> j) & 1 for j in range(n))
                outcomes[coord] = outcomes.get(coord, 0) + mass
                continue
            ties = _tie_set(col_masks, instance.col_weights, full ^ cov,
                            tie_tol)
            share = mass / len(ties)
            for j in ties:
                state = (picked | 1 << j, cov | col_masks[j])
                following[state] = following.get(state, 0) + share
        layer = following
    return outcomes
