"""Seeded replication driver, distribution statistics, and the BKV registry.

A distribution run executes one greedy solver over a block of seeds and
aggregates the value histogram plus five-number statistics (min, median,
mean, standard deviation, max). When a best-known value is available the
same statistics are reported normalized by it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cover
from .formatting import fmt_fixed, fmt_number
from .generators import (_BLOCK_CHUNK, ReplicaStreams, bounded_draws,
                         isomorph_permutation, seeded_rng)
from .instances import UNIT, BigraphInstance

SOLVERS = ("stoc", "iso")
SEED_MODES = ("consecutive", "random")

BKV_REGISTRY_ENV = "BGLAB_BKV_REGISTRY"


def _sqrt_fraction(x: Fraction) -> float:
    """The square root of x >= 0, correctly rounded to a float.

    x is scaled by 4^-k to at least 2 * 53 + 3 bits, so its integer
    square root has at least 53 + 2; that root is truncated and then
    rounded to odd (its last bit set when the truncation dropped
    anything), and one more rounding to 53 bits gives the correctly
    rounded root (Boldo and Melquiond, "When double rounding is odd",
    2005).
    """
    num, den = x.numerator, x.denominator
    k = (num.bit_length() - den.bit_length() - 109) // 2
    if k >= 0:
        den <<= 2 * k
    else:
        num <<= -2 * k
    root = math.isqrt(num // den)
    root |= root * root * den != num
    # int-to-float conversion and int division round correctly
    return float(root << k) if k >= 0 else root / (1 << -k)


@dataclass(frozen=True)
class Stats:
    """Five-number summary: min, median, mean, sample sd, max.

    The median of an even-count sample is the lower-middle value, so medians
    stay achievable cover values; the standard deviation uses the n-1
    denominator.
    """

    min: float
    median: float
    mean: float
    sd: float
    max: float

    @classmethod
    def from_values(cls, values) -> "Stats":
        return cls.from_histogram(Counter(values))

    @classmethod
    def from_histogram(cls, histogram: dict[float, int]) -> "Stats":
        """Statistics of a sample of floats given as {value: count}, at a
        cost that grows with the distinct values only.

        Sums are exact fractions, so they do not depend on order, and the
        sd is the correctly rounded square root of the exact variance:
        the mean, median and sd equal `statistics.mean`, `median_low` and
        `stdev` of the sample bit for bit on Python 3.11 and later.
        """
        if not histogram:
            raise ValueError("empty sample")
        values = sorted(histogram)
        n = sum(histogram.values())
        seen = 0
        for value in values:
            seen += histogram[value]
            if seen > (n - 1) // 2:
                median = value
                break
        total = sum(Fraction(v) * c for v, c in histogram.items())
        mean = total / n
        squares = sum((Fraction(v) - mean) ** 2 * c
                      for v, c in histogram.items())
        sd = _sqrt_fraction(squares / (n - 1)) if n > 1 else 0.0
        return cls(min=values[0], median=median, mean=float(mean), sd=sd,
                   max=values[-1])

    def scaled(self, divisor: float) -> "Stats":
        """Each statistic over a bkv that `_check_ratios` accepts."""
        _check_ratios(self.max, divisor)
        return Stats(*(v / divisor for v in self.as_tuple()))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.min, self.median, self.mean, self.sd, self.max)


@dataclass(frozen=True)
class DistributionSummary:
    """Aggregate of one seeded replication block on one instance."""

    instance_name: str
    num_seeds: int
    solver: str
    value_histogram: dict[float, int]
    stats: Stats
    bkv: float | None
    ratio_stats: Stats | None


class BkvRegistry:
    """Best-known cover values keyed by instance file name."""

    def __init__(self, entries: dict[str, tuple[float, str]] | None = None):
        self._entries: dict[str, tuple[float, str]] = dict(entries or {})

    def register(self, name: str, value: float, note: str = "") -> None:
        cover._check_bkv(value, f"{name}: bkv")
        self._entries[name] = (float(value), note)

    def get(self, name: str) -> float | None:
        entry = self._entries.get(name)
        return entry[0] if entry else None

    def note(self, name: str) -> str | None:
        entry = self._entries.get(name)
        return entry[1] if entry else None

    def lookup_instance(self, instance: BigraphInstance) -> float | None:
        """Try `<name>.cnfU` / `<name>.cnfW` per weight kind, then the name."""
        ext = ".cnfU" if instance.weight_kind == UNIT else ".cnfW"
        for key in (instance.name + ext, instance.name):
            value = self.get(key)
            if value is not None:
                return value
        return None

    def load_file(self, path: str) -> None:
        """Overlay entries from a JSON file: {name: value} or
        {name: {"value": v, "note": s}}, every value a number > 0. Every
        error names the file."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected an object of bkv entries")
        for name, entry in data.items():
            note = ""
            if isinstance(entry, dict):
                note = str(entry.get("note", ""))
                entry = entry.get("value")
            # JSON true and false are bools, which are ints to Python; an
            # int past the float range would overflow `float`
            if type(entry) not in (int, float) or \
                    not abs(entry) <= sys.float_info.max:
                raise ValueError(f"{path}: entry {name!r} is not a finite "
                                 f"number")
            try:
                self.register(name, float(entry), note)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


# Best published cover values for the bundled benchmark families. The
# published random (m*) suite is not among them: `gen_random_instance`
# names its own instances after those files, and HiGHS proves four of the
# seven published values wrong for its seed-7 ones.
_DEFAULT_BKVS: dict[str, tuple[float, str]] = {
    "s3_027_117.cnfU": (18, "steiner3"),
    "s3_045_330.cnfU": (30, "steiner3"),
    "s3_081_1080.cnfU": (61, "steiner3"),
    "s3_135_3015.cnfU": (103, "steiner3"),
    "s3_243_9801.cnfU": (198, "steiner3"),
    "s3_405_27270.cnfU": (335, "steiner3"),
    "s3_729_88452.cnfU": (617, "steiner3"),
    "scpb1.cnfU": (22, "or-library, unit weights"),
    "scpc1.cnfU": (44, "or-library, unit weights"),
    "scpd1.cnfU": (25, "or-library, unit weights"),
    "scpb1.cnfW": (69, "or-library"),
    "scpc1.cnfW": (227, "or-library"),
    "scpd1.cnfW": (60, "or-library"),
    "scp41.cnfW": (429, "or-library"),
    "scp42.cnfW": (512, "or-library"),
    "scp43.cnfW": (516, "or-library"),
    "scp44.cnfW": (494, "or-library"),
    "scp45.cnfW": (512, "or-library"),
    "scp46.cnfW": (560, "or-library"),
    "scp47.cnfW": (430, "or-library"),
    "scp48.cnfW": (492, "or-library"),
    "scp49.cnfW": (641, "or-library"),
    "scp51.cnfW": (253, "or-library"),
    "scp61.cnfW": (138, "or-library"),
    "scpa1.cnfW": (253, "or-library"),
    "chvatal_6_5.cnfW": (1.1, "worst-case construction"),
    "chvatal_19_18.cnfW": (0.5, "worst-case construction, scaled"),
    "school_9_11__0.cnfU": (4, "school example"),
    "school_9_11.cnfU": (4, "school example"),
    "school_9_16.cnfU": (5, "school example"),
    "school_9_16.cnfW": (10, "school example"),
    "school_19_20.cnfU": (6, "school example"),
    "school_19_20.cnfW": (11.5, "school example"),
    "school_19_20_1.cnfW": (3.833, "school example, reweighted"),
    "school_19_20_5.cnfW": (16.1, "school example, reweighted"),
    "school_5_5_ref.cnfU": (2, "school example, scaled down"),
    "school_5_5_iso.cnfU": (2, "school example, scaled down"),
}

# default_registry()'s registries by value of BGLAB_BKV_REGISTRY ("" unset);
# None until the first call.
_default_registry: dict[str, BkvRegistry] | None = None


def default_registry() -> BkvRegistry:
    """Registry preloaded with the bundled suite; the path in the
    BGLAB_BKV_REGISTRY environment variable, if set, is overlaid on top.

    One registry is built and kept per value of the variable, so a call
    after the variable changes sees the file it names now.
    """
    global _default_registry
    if _default_registry is None:
        _default_registry = {}
    override = os.environ.get(BKV_REGISTRY_ENV, "")
    registry = _default_registry.get(override)
    if registry is None:
        registry = BkvRegistry(_DEFAULT_BKVS)
        if override:
            registry.load_file(override)
        _default_registry[override] = registry
    return registry


def ratio_stats(values, bkv: float) -> Stats:
    """Five-number summary of values / bkv (full precision)."""
    values = list(values)
    _check_ratios(max(values, default=0.0), bkv)
    return Stats.from_values([v / bkv for v in values])


def _check_ratios(largest: float, bkv: float) -> None:
    """Reject a bkv that is not finite and > 0, or so small that the largest
    value over it, rounded to two decimals or not, overflows a float."""
    cover._check_bkv(bkv)
    if math.isinf(max(largest, round(largest, 2)) / bkv):
        raise ValueError(
            f"the ratio of {largest} to bkv {bkv} overflows a float")


# A distribution run of at least this many seeds on the bitmask path walks
# its replicas over the covered-row state graph (`_walk_replicas`), stoc
# and iso alike; a smaller one runs them one by one. Whole runs' time one
# by one over time walked, three sets of best-of-5 interleaved runs (random
# mode, meta seed 3) on one host (2 vCPUs of a shared Xeon, Python 3.11.7,
# numpy 2.4.6); 9 columns is `school_9_11`, n columns is
# `gen_random_instance(100, n, max(1, n // 10), max(2, n // 5), seed=7)`,
# and m* 50 and m* 100 are the paper's seed-7 shapes of those widths (one
# and six):
#
#   columns  stoc 256 / 512 / 2,048 seeds     iso 256 / 512 / 2,048 seeds
#   9        1.09-1.24 1.37-1.69 2.74-3.28    1.53-1.83 2.25-2.62 3.67-3.83
#   16       0.91-1.06 1.16-1.42 1.85-1.91    0.98-1.27 1.59-1.99 2.50-3.09
#   32       0.94-1.27 1.48-1.76 2.41-2.99    1.17-1.25 1.22-1.64 2.24-2.40
#   48       0.88-0.94 1.16-1.28 1.82-1.93    0.89-0.96 1.01-1.61 1.60-1.92
#   64       0.84-0.92 0.92-1.01 0.81-1.41    0.83-0.86 1.03-1.12 0.93-1.69
#   96       0.93-0.96 1.13-1.18 1.72-2.11    0.76-0.82 0.90-1.06 1.07-1.24
#   128      0.91-0.99 1.10-1.20 1.76-1.89    0.62-1.04 0.81-0.91 0.93-1.06
#   m* 50              1.48-1.87 2.85-3.40              1.13-1.35 1.66-1.84
#   m* 100             0.75-1.60 0.97-3.18              0.85-1.34 0.96-1.49
#
# At 256 seeds the walk loses from 48 columns up. At 512 it loses iso from
# 96 columns (medians 0.90-0.96 on the 100-column m* shapes), where the
# keystream's ranks cost about 20 us a replica against about 5 us for a
# reset generator's permutation, and stoc on m100_100_10_10 (0.97). At
# 2,048 every median is 1.01 or more but iso's at 128 columns (0.94).
_ISO_BLOCK_SEEDS = 512


def run_cover_distribution(instance: BigraphInstance, num_seeds: int,
                           solver: str = "stoc",
                           seed_mode: str = "consecutive",
                           bkv: float | None = None,
                           registry: BkvRegistry | None = None,
                           meta_seed: int = 0,
                           tie_tol: float = 0.0) -> DistributionSummary:
    """Run `num_seeds` replicas of one stochastic solver and aggregate.

    Consecutive mode runs replica ids 1..num_seeds; random mode draws
    num_seeds six-digit seeds from a generator keyed by meta_seed. Ratio
    statistics appear when a best-known value is supplied or registered.

    Every replica draws from the stream `seeded_rng(replica_id)` would give
    it, reached through one `ReplicaStreams` for the block. A run of at
    least `_ISO_BLOCK_SEEDS` seeds on the bitmask path walks its replicas
    together over the covered-row states they reach (`_walk_replicas`): a
    stoc lane draws its tie-breaks from the first 8 words of its stream,
    an iso lane reads its column ranks from the block's rank matrices
    (`ranks`). Any other run goes replica by replica through the engine's
    run: a stoc replica draws from the block's keystream (`draws`), only
    at ties of two or more columns, and an iso replica draws its
    permutation from a generator reset to its stream and turns it into an
    order with `permuted`. Either way a replica contributes only its
    value, and the histogram is the same.
    """
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    if bkv is not None:
        cover._check_bkv(bkv)
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}")
    if seed_mode not in SEED_MODES:
        raise ValueError(f"seed_mode must be one of {SEED_MODES}")
    if seed_mode == "consecutive":
        seeds = range(1, num_seeds + 1)
    else:
        meta = seeded_rng(meta_seed)
        seeds = meta.integers(0, 10**6, size=num_seeds).tolist()

    engine = cover._Engine(instance, tie_tol)
    streams = ReplicaStreams(seeds)
    histogram: dict[float, int] = {}
    if engine.small and num_seeds >= _ISO_BLOCK_SEEDS:
        _walk_replicas(instance, engine, streams, solver, histogram)
    else:
        for i in range(num_seeds):
            _count(histogram, _replica_value(instance, engine, streams,
                                             solver, i))
    if math.inf in histogram:
        raise ValueError(f"{instance.name}: {cover._OVERFLOW}")

    stats = Stats.from_histogram(histogram)
    if bkv is None:
        bkv = (registry or default_registry()).lookup_instance(instance)
    ratios = stats.scaled(bkv) if bkv is not None else None
    return DistributionSummary(instance_name=instance.name,
                               num_seeds=num_seeds, solver=solver,
                               value_histogram=histogram, stats=stats,
                               bkv=bkv, ratio_stats=ratios)


def _count(histogram: dict[float, int], value: float, count: int = 1):
    histogram[value] = histogram.get(value, 0) + count


def _replica_value(instance: BigraphInstance, engine: cover._Engine,
                   streams: ReplicaStreams, solver: str, i: int) -> float:
    """Replica i's value, from the engine's run; an iso replica draws its
    permutation from its own generator."""
    rid = streams.seeds[i]
    try:
        if solver == "stoc":
            # replica 0 is the basic greedy: it draws nothing
            coord, _ = engine.run(streams.draws(i) if rid else None)
        else:
            coord, _ = engine.run(None, engine.permuted(isomorph_permutation(
                instance.n_cols, rid, streams.rng(i))))
    except Exception as exc:
        raise _replica_error(instance, solver, rid, exc) from exc
    return cover.cover_value(coord, instance.col_weights)


def _replica_error(instance: BigraphInstance, solver: str, rid: int,
                   exc: Exception) -> RuntimeError:
    return RuntimeError(f"{instance.name}: solver {solver} failed on "
                        f"replica {rid}: {exc}")


def _walk_replicas(instance: BigraphInstance, engine: cover._Engine,
                   streams: ReplicaStreams, solver: str,
                   histogram: dict[float, int]) -> None:
    """Count every replica's value into `histogram` by walking the
    replicas `_BLOCK_CHUNK` lanes at a time over one `_StateGraph`.

    A stoc lane draws its tie-breaks from the first 8 words of its stream
    (`bounded_draws`), and an iso lane takes the tied column of least rank
    in its row of `ranks`. A lane that would draw a ninth word or pass the
    graph's cap leaves the walk, goes on through the engine's loop from
    where it left, and writes its coord back into its column of `picked`.
    Every lane's value is then summed at once in ascending column order,
    as `cover_value` sums it: adding 0.0 for a column the lane did not
    pick leaves its nonnegative total as it is.
    """
    graph = cover._StateGraph(engine)
    seeds = streams.seeds
    ranks = streams.ranks(engine.n) if solver == "iso" else None
    for start in range(0, len(seeds), _BLOCK_CHUNK):
        block = seeds[start:start + _BLOCK_CHUNK]
        lanes = (_StocLanes(graph, streams, start, block) if ranks is None
                 else _IsoLanes(graph, next(ranks)))
        try:
            picked, left = graph.walk(len(block), lanes)
        except cover._LaneError as err:
            raise _replica_error(instance, solver, block[err.lane],
                                 err.__cause__) from err.__cause__
        for i in sorted(left):
            try:
                coord, _ = lanes.finish(engine, i, left[i],
                                        picked[:, i].tolist())
            except Exception as exc:
                raise _replica_error(instance, solver, block[i],
                                     exc) from exc
            picked[:, i] = coord
        total = np.zeros(len(block))
        # an overflow leaves inf, which the caller reports
        with np.errstate(over="ignore"):
            for row, weight in zip(picked, instance.col_weights):
                total += row * weight
        for value, count in Counter(total.tolist()).items():
            _count(histogram, value, count)


class _StocLanes:
    """The stoc lanes of a walk over the replicas `start` + i of `block`:
    a lane draws at a tie of two or more columns, replica id 0 never."""

    def __init__(self, graph: cover._StateGraph, streams: ReplicaStreams,
                 start: int, block):
        self.graph, self.streams, self.start = graph, streams, start
        self.draws = np.asarray(block) != 0
        self.pos = np.zeros(len(block), np.intp)

    def __call__(self, act: np.ndarray, at: np.ndarray) -> np.ndarray:
        k = self.graph.nties[at]
        pick = np.zeros(len(act), np.intp)
        tie = np.flatnonzero((k > 1) & self.draws[act])
        if tie.size:
            pick[tie] = bounded_draws(self.streams.first_words(self.start),
                                      self.pos, act[tie], k[tie])
        return pick

    def finish(self, engine: cover._Engine, i: int, cov: int,
               coord: list[int]) -> tuple[list[int], int]:
        rng = self.streams.draws(self.start + i, int(self.pos[i])) \
            if self.draws[i] else None
        return engine._run_small(rng, None, cov, coord)


class _IsoLanes:
    """The iso lanes of a walk, one row of `rank` each: a lane takes its
    tied column of least rank."""

    def __init__(self, graph: cover._StateGraph, rank: np.ndarray):
        self.graph, self.rank = graph, rank

    def __call__(self, act: np.ndarray, at: np.ndarray) -> np.ndarray:
        wide = int(self.graph.nties[at].max())
        if wide == 1:
            return np.zeros(len(act), np.intp)
        # a tie set's padding repeats its first column, which argmin
        # reports at its first position
        return self.rank[act[:, None],
                         self.graph.ties[at, :wide]].argmin(axis=1)

    def finish(self, engine: cover._Engine, i: int, cov: int,
               coord: list[int]) -> tuple[list[int], int]:
        return engine._run_small(None, self.rank[i].tolist(), cov, coord)


def converge_check(instance: BigraphInstance, seed_counts, solver: str,
                   seed_mode: str = "consecutive",
                   bkv: float | None = None,
                   registry: BkvRegistry | None = None,
                   meta_seed: int = 0,
                   tie_tol: float = 0.0) -> list[DistributionSummary]:
    """One distribution summary per seed count (counts must ascend)."""
    counts = list(seed_counts)
    if not counts:
        raise ValueError("seed_counts must be nonempty")
    if counts != sorted(counts):
        raise ValueError("seed_counts must be ascending")
    return [run_cover_distribution(instance, count, solver, seed_mode,
                                   bkv=bkv, registry=registry,
                                   meta_seed=meta_seed, tie_tol=tie_tol)
            for count in counts]


def ratio_bucket_report(summaries) -> tuple[int, int, int]:
    """Counts of instances by best (minimum) observed ratio.

    Bands: exactly 1.0; within (1.0, 1.1]; above 1.1. Every summary needs
    ratio statistics, i.e. a registered best-known value.
    """
    eps = 1e-9
    at_opt = within_10 = above = 0
    for summary in summaries:
        if summary.ratio_stats is None:
            raise ValueError(f"{summary.instance_name}: no bkv registered")
        best = summary.ratio_stats.min
        if best <= 1.0 + eps:
            at_opt += 1
        elif best <= 1.1 + eps:
            within_10 += 1
        else:
            above += 1
    return at_opt, within_10, above


def stats_string(stats: Stats) -> str:
    """Comma-joined min,median,mean,sd,max with table-style rounding."""
    return ",".join(fmt_number(v, 2) for v in stats.as_tuple())


def ratio_string(value_stats: Stats, bkv: float) -> str:
    """Ratio statistics string derived from the displayed value statistics.

    Each component is the two-decimal rounded value statistic divided by the
    best-known value, printed with a fixed two decimals.
    """
    _check_ratios(value_stats.max, bkv)
    return ",".join(fmt_fixed(round(v, 2) / bkv, 2)
                    for v in value_stats.as_tuple())


def summary_rows(summary: DistributionSummary
                 ) -> list[tuple[str, int, float, int]]:
    """Histogram as (instance, num_seeds, value, count) rows, ascending."""
    return [(summary.instance_name, summary.num_seeds, value, count)
            for value, count in sorted(summary.value_histogram.items())]
