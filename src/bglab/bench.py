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
from itertools import groupby
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
    of the aggregation structure itself can be compared.
    """
    movie_ids = WatchTable.of(watches).movie_id
    if strategy == "hash":
        return dict(Counter(movie_ids))
    if strategy == "sorted":
        return {movie_id: len(list(run))
                for movie_id, run in groupby(sorted(movie_ids))}
    raise ValueError(f"unknown strategy {strategy!r}")


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
    and `read_movielib` give them.
    """
    movies, watches = MovieTable.of(movies), WatchTable.of(watches)
    known = set(movies.movie_id)
    if not known.issuperset(watches.movie_id):
        w = next(w for w, movie_id in enumerate(watches.movie_id)
                 if movie_id not in known)
        raise ValueError(f"watch {watches.watch_id[w]} references unknown "
                         f"movie {watches.movie_id[w]}")
    return select_topk(watch_counts(watches, strategy), k)


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
