"""Phase-split timing harness, asymptotic sweeps, and top-K/histogram tasks.

A task separates into a read phase (parse input, build the aggregation
structure) and a solve phase (extract the answer); both are timed with a
monotonic wall clock. Timing runs are single-threaded by contract: the
harness refuses to run concurrently with itself in-process, since parallel
timing would corrupt asymptotic comparisons.
"""

from __future__ import annotations

import heapq
import io
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable

import numpy as np

from .generators import (MovieTable, WatchTable, gen_movielib,
                         gen_random_instance, read_movielib, seeded_rng,
                         write_movielib)
from .matching import max_matching


@dataclass(frozen=True)
class PhaseTiming:
    """Wall-clock seconds of the read and solve phases of one task run."""

    label: str
    size_param: int
    runtime_read: float
    runtime_solve: float


@dataclass(frozen=True)
class TopKResult:
    """Most-watched movies, descending count, ties ascending by movie id."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        counts = [count for _, count in self.entries]
        if counts != sorted(counts, reverse=True):
            raise ValueError("counts must be nonincreasing")
        ids = [movie_id for movie_id, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("entries must be distinct")


@dataclass(frozen=True)
class PhaseTask:
    """A read-then-solve procedure driven by one integer size parameter.

    `prepare` (untimed) turns the size into the read-phase input, e.g. by
    materializing data files; `read` and `solve` are the timed phases.
    """

    label: str
    read: Callable[[Any], Any]
    solve: Callable[[Any], Any]
    prepare: Callable[[int], Any] | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[PhaseTiming, ...]
    results: dict[int, Any]
    failures: dict[int, str]


def watch_counts(watches, strategy: str = "hash") -> dict[str, int]:
    """Watch count per movie id, by hash map or by sorted-table run lengths.

    `watches` is a `WatchTable` or an iterable of `WatchRecord`s. Both
    strategies return identical counts; they exist so the asymptotic cost
    of the aggregation structure itself can be compared. "hash" counts the
    table's movie id strs in a `Counter`. "sorted" sorts the ids' UTF-8
    bytes as whole arrays, with no str made per watch (`_sorted_counts`);
    its dict iterates in ascending id order.
    """
    table = WatchTable.of(watches)
    if strategy == "hash":
        return dict(Counter(table.movie_id))
    if strategy == "sorted":
        return _sorted_counts(table._utf8("movie_id"))
    raise ValueError(f"unknown strategy {strategy!r}")


def _packed(raw: np.ndarray, starts: np.ndarray, lengths: np.ndarray
            ) -> np.ndarray:
    """Row k: the bytes raw[starts[k]:][:lengths[k]] packed big-endian into
    uint64 words, zero-padded to the longest."""
    shortest = int(lengths.min(initial=0))
    longest = int(lengths.max(initial=0))
    table = np.zeros((len(starts), -(-longest // 8) * 8), np.uint8)
    last = raw.size - 1
    for b in range(longest):
        if b < shortest:
            table[:, b] = raw[starts + b]
        else:
            byte = raw[np.minimum(starts + b, last)]
            byte *= lengths > b
            table[:, b] = byte
    return table.view(">u8").astype(np.uint64)


def _sorted_counts(parts) -> dict[str, int]:
    """Run lengths of the sorted strs whose UTF-8 bytes `parts` hold, as
    `generators._Table._utf8` gives them, keyed by str in ascending order.

    UTF-8 byte order is code point order, as `sorted` orders strs. Each
    str's bytes are packed into zero-padded uint64 words (Bentley and
    Sedgewick compare strings a machine word at a time). When every str
    fits one word and none holds a NUL, the word alone orders them;
    otherwise the words are sorted together with the byte length last, so
    that "a" comes before "a\\0". Only the distinct strs are decoded.
    """
    keys, lengths, counts = _runs(parts)
    ids = _decoded(keys, lengths)
    del keys, lengths  # before the dict is made beside the strs
    return dict(zip(ids, counts.tolist()))


def _runs(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packed words (one row per 8 bytes) and byte lengths of the
    distinct strs of `parts`, ascending, and the count of each. Each part
    is packed as it comes, and the arrays of every str are released when
    it returns."""
    packed, lengths, nul = [], [np.zeros(0, np.int64)], False
    for raw, starts, size in parts:
        packed.append(_packed(raw, starts, size))
        lengths.append(size)
        nul = nul or not raw.all()
    lengths = np.concatenate(lengths)
    n = len(lengths)
    keys = np.zeros((max((part.shape[1] for part in packed), default=0), n),
                    np.uint64)
    at = 0
    for part in packed:
        keys[:part.shape[1], at:at + len(part)] = part.T
        at += len(part)
    del packed
    if len(keys) == 1 and not nul:
        # with no NUL, a str is its word, and its length the count of the
        # word's nonzero bytes
        keys.sort()
        lengths = np.count_nonzero(keys.view(np.uint8).reshape(n, 8), axis=1)
    else:
        order = np.lexsort((lengths, *keys[::-1]))
        keys = keys[:, order]
        lengths = lengths[order]
    first = np.ones(n, bool)
    np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=first[1:])
    first[1:] |= lengths[1:] != lengths[:-1]
    firsts = np.flatnonzero(first)
    return keys[:, firsts], lengths[firsts], np.diff(firsts, append=n)


def _decoded(keys: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The strs whose UTF-8 bytes ("surrogatepass") column k of `keys`
    holds packed as `_packed` packs them, `lengths[k]` bytes long."""
    width = 8 * len(keys)
    table = np.zeros((len(lengths), width + 1), np.uint8)
    table[:, :width] = np.ascontiguousarray(keys.T, ">u8").view(np.uint8)
    # each str's bytes and then a NUL, decoded at once
    flat = table[np.arange(width + 1) <= lengths[:, None]]
    del table  # before the strs are made
    text = flat.tobytes().decode("utf-8", "surrogatepass")
    ids = text.split("\0")
    if len(ids) == len(lengths) + 1:
        ids.pop()  # the "" after the last NUL
        return ids
    # a str holds a NUL: cut the text after the code points of each str
    # and its NUL, a code point starting at each byte that is not a
    # continuation byte
    stops = np.cumsum((flat & 0xC0) != 0x80)[np.cumsum(lengths + 1) - 1]
    starts = np.concatenate(([0], stops[:-1]))
    return list(map(text.__getitem__,
                    map(slice, starts.tolist(), (stops - 1).tolist())))


def select_topk(counts: dict[str, int], k: int) -> TopKResult:
    if k < 1:
        raise ValueError("k must be >= 1")
    largest = heapq.nlargest(k, counts.values())
    if not largest:
        return TopKResult(entries=())
    # only the items at or above the k-th largest count can be in the top k
    floor = largest[-1]
    top = sorted(((movie_id, count) for movie_id, count in counts.items()
                  if count >= floor), key=lambda kv: (-kv[1], kv[0]))
    return TopKResult(entries=tuple(top[:k]))


def topk_movies(movies, watches, k: int,
                strategy: str = "hash") -> TopKResult:
    """The k most-watched movies; never-watched movies are excluded.

    Both tables are tables or iterables of records, as `gen_movielib`
    and `read_movielib` give them. The distinct ids of the counts are
    checked against the movies; only when one is unknown are the watches
    scanned, for the first watch that references it.
    """
    movies, watches = MovieTable.of(movies), WatchTable.of(watches)
    counts = watch_counts(watches, strategy)
    known = set(movies.movie_id)
    if not known.issuperset(counts):
        w = next(w for w, movie_id in enumerate(watches.movie_id)
                 if movie_id not in known)
        raise ValueError(f"watch {watches.watch_id[w]} references unknown "
                         f"movie {watches.movie_id[w]}")
    return select_topk(counts, k)


def watch_histogram(watches) -> dict[int, int]:
    """Map watch count -> number of movies watched exactly that often."""
    per_movie = Counter(WatchTable.of(watches).movie_id)
    hist = Counter(per_movie.values())
    return dict(hist)


_timing_lock = threading.Lock()


def time_phases(task: PhaseTask, size_param: int,
                repetitions: int = 1) -> tuple[PhaseTiming, Any]:
    """Time the task's two phases at one size.

    With repetitions > 1 both phases rerun and the medians are reported.
    The final solve result is returned alongside the timing so correctness
    checks run on the same execution.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not _timing_lock.acquire(blocking=False):
        raise RuntimeError("timing harness is already running in-process")
    try:
        prepared = task.prepare(size_param) if task.prepare else size_param
        reads: list[float] = []
        solves: list[float] = []
        result: Any = None
        for _ in range(repetitions):
            t0 = time.perf_counter()
            try:
                data = task.read(prepared)
            except Exception as exc:
                raise RuntimeError(f"{task.label}: read phase failed at size "
                                   f"{size_param}: {exc}") from exc
            t1 = time.perf_counter()
            try:
                result = task.solve(data)
            except Exception as exc:
                raise RuntimeError(f"{task.label}: solve phase failed at size "
                                   f"{size_param}: {exc}") from exc
            t2 = time.perf_counter()
            reads.append(t1 - t0)
            solves.append(t2 - t1)
        timing = PhaseTiming(label=task.label, size_param=size_param,
                             runtime_read=median(reads),
                             runtime_solve=median(solves))
        return timing, result
    finally:
        _timing_lock.release()


def asymptotic_sweep(sizes, task: PhaseTask,
                     repetitions: int = 1) -> SweepResult:
    """One PhaseTiming per size; a failed size is recorded and skipped."""
    size_list = [int(s) for s in sizes]
    if not size_list:
        raise ValueError("sizes must be nonempty")
    if size_list != sorted(size_list):
        raise ValueError("sizes must be ascending")
    rows: list[PhaseTiming] = []
    results: dict[int, Any] = {}
    failures: dict[int, str] = {}
    for size in size_list:
        try:
            timing, result = time_phases(task, size, repetitions)
        except RuntimeError as exc:
            failures[size] = str(exc)
            continue
        rows.append(timing)
        results[size] = result
    return SweepResult(rows=tuple(rows), results=results, failures=failures)


def sweep_csv(rows) -> str:
    """Plot-ready CSV: size,runtime_read,runtime_solve,label (6 decimals)."""
    out = io.StringIO()
    out.write("size,runtime_read,runtime_solve,label\n")
    for row in rows:
        out.write(f"{row.size_param},{row.runtime_read:.6f},"
                  f"{row.runtime_solve:.6f},{row.label}\n")
    return out.getvalue()


def topk_task(k: int = 10, seed: int = 0, strategy: str = "hash", *,
              workdir: str) -> PhaseTask:
    """Top-K task: read both tables from files and build the count structure,
    then extract the top k. The tables are written to `workdir`, which the
    caller owns and removes."""
    os.makedirs(workdir, exist_ok=True)

    def prepare(size: int):
        movies, watches = gen_movielib(size, seed)
        movies_path = os.path.join(workdir, f"movies_{size}.csv")
        watches_path = os.path.join(workdir, f"watches_{size}.csv")
        write_movielib(movies, watches, movies_path, watches_path)
        return movies_path, watches_path

    def read(paths):
        movies_path, watches_path = paths
        _, watches = read_movielib(movies_path, watches_path)
        return watch_counts(watches, strategy)

    def solve(counts):
        return select_topk(counts, k)

    return PhaseTask(label=f"topk_{strategy}", read=read, solve=solve,
                     prepare=prepare)


def urn_task(seed: int = 0) -> PhaseTask:
    """Urn task: draw size samples with replacement from size tags, then
    measure the distinct fraction."""

    def read(size: int):
        # per-size seed derivation keeps sweep rows uncorrelated
        rng = seeded_rng(seed + size)
        return size, rng.integers(0, size, size=size)

    def solve(data):
        size, draws = data
        return np.unique(draws).size / size

    return PhaseTask(label="urn", read=read, solve=solve)


def matching_task(seed: int = 0) -> PhaseTask:
    """Matching task over synthetic instances with `size` rows."""

    def read(size: int):
        n_cols = max(2, size // 2)
        deg_max = min(3, n_cols)
        return gen_random_instance(size, n_cols, 1, deg_max, seed)

    def solve(instance):
        result = max_matching(instance)
        return result.size, round(result.m_p, 6)

    return PhaseTask(label="match", read=read, solve=solve)
