"""Seed-driven generation: random instances, isomorphs, urn trials, movie data.

Every generator is a pure function of its arguments plus a 64-bit seed. The
randomness source is a counter-based generator (Philox), so equal seeds give
equal output streams on every platform.
"""

from __future__ import annotations

import csv
import datetime
from typing import NamedTuple

import numpy as np

from .instances import UNIT, BigraphInstance, UnateRequiredError

# A column permutation is a 1-based tuple: output column idx carries input
# column perm[idx - 1].
ColumnPermutation = tuple[int, ...]


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic counter-based generator (Philox) seeded by `seed`."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.Philox(seed))


def gen_random_instance(m_rows: int, n_cols: int, deg_min: int, deg_max: int,
                        seed: int) -> BigraphInstance:
    """Random unit-weight unate instance.

    Each row draws its degree uniformly from [deg_min, deg_max] and then that
    many distinct columns uniformly without replacement. Expected density is
    (deg_min + deg_max) / (2 * n_cols).
    """
    if m_rows < 1 or n_cols < 1:
        raise ValueError("m_rows and n_cols must be positive")
    if not 1 <= deg_min <= deg_max <= n_cols:
        raise ValueError(f"need 1 <= deg_min <= deg_max <= n_cols, "
                         f"got {deg_min}..{deg_max} over {n_cols}")
    rng = seeded_rng(seed)
    rows = []
    for _ in range(m_rows):
        deg = int(rng.integers(deg_min, deg_max + 1))
        cols = rng.choice(n_cols, size=deg, replace=False)
        rows.append(tuple(sorted(int(c) + 1 for c in cols)))
    return BigraphInstance(
        name=f"m{m_rows}_{n_cols}_{deg_min}_{deg_max}",
        n_cols=n_cols, m_rows=m_rows, rows=tuple(rows),
        col_weights=(1.0,) * n_cols, weight_kind=UNIT)


def permute_columns(instance: BigraphInstance,
                    perm: tuple[int, ...]) -> BigraphInstance:
    """Column-relabelled copy: output column idx carries input column perm[idx].

    Weights travel with their columns; signs of binate literals are kept.
    """
    n = instance.n_cols
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm is not a permutation of 1..{n}")
    inverse = [0] * (n + 1)
    for idx, col in enumerate(perm, start=1):
        inverse[col] = idx
    rows = tuple(
        tuple(sorted(((1 if lit > 0 else -1) * inverse[abs(lit)]
                      for lit in clause), key=abs))
        for clause in instance.rows)
    weights = tuple(instance.col_weights[col - 1] for col in perm)
    return BigraphInstance(name=instance.name, n_cols=n,
                           m_rows=instance.m_rows, rows=rows,
                           col_weights=weights,
                           weight_kind=instance.weight_kind)


def isomorph_permutation(n_cols: int, replica_id: int) -> tuple[int, ...]:
    """Column permutation of replica `replica_id`; 0 is the natural order."""
    if replica_id < 0:
        raise ValueError("replica_id must be nonnegative")
    if replica_id == 0:
        return tuple(range(1, n_cols + 1))
    rng = seeded_rng(replica_id)
    return tuple((rng.permutation(n_cols) + 1).tolist())


def gen_isomorph(instance: BigraphInstance, replica_id: int
                 ) -> tuple[BigraphInstance, tuple[int, ...]]:
    """Column-permuted isomorph controlled by replica_id.

    replica_id 0 returns the instance unchanged with the identity permutation
    (the reference, natural order); replica_id > 0 seeds the generator with
    replica_id and permutes the columns.
    """
    if not instance.is_unate:
        raise UnateRequiredError(f"{instance.name}: unate required")
    base = instance.name.split("__")[0]
    perm = isomorph_permutation(instance.n_cols, replica_id)
    if replica_id == 0:
        return instance, perm
    permuted = permute_columns(instance, perm)
    renamed = BigraphInstance(name=f"{base}__{replica_id}",
                              n_cols=permuted.n_cols, m_rows=permuted.m_rows,
                              rows=permuted.rows,
                              col_weights=permuted.col_weights,
                              weight_kind=permuted.weight_kind)
    return renamed, perm


def urn_trial(urn_size: int, num_trials: int, seed: int) -> float:
    """Fraction of distinct tags seen after sampling with replacement.

    Draws num_trials tags uniformly with replacement from urn_size tags and
    returns (#distinct drawn) / urn_size; expectation is
    1 - (1 - 1/urn_size)**num_trials.
    """
    if urn_size < 1 or num_trials < 1:
        raise ValueError("urn_size and num_trials must be positive")
    rng = seeded_rng(seed)
    draws = rng.integers(0, urn_size, size=num_trials)
    return np.unique(draws).size / urn_size


class MovieRecord(NamedTuple):
    movie_id: str
    title: str
    year: int
    runtime_minutes: int


class WatchRecord(NamedTuple):
    watch_id: str
    movie_id: str
    date: str
    minutes_watched: int


def gen_movielib(size: int, seed: int
                 ) -> tuple[list[MovieRecord], list[WatchRecord]]:
    """Synthetic movie/watch tables of `size` records each.

    Movie ids are unique ("tt<k>"); each watch record references a movie
    drawn uniformly with replacement, so the distinct-watched fraction tends
    to 1 - 1/e for large sizes.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rng = seeded_rng(seed)
    years = rng.integers(1920, 2024, size=size)
    runtimes = rng.integers(45, 181, size=size)
    picks = rng.integers(0, size, size=size)
    days = rng.integers(0, 366, size=size)
    minute_draws = rng.integers(0, 2**31, size=size)

    base_day = datetime.date(2020, 1, 1)
    day_str = [(base_day + datetime.timedelta(days=d)).isoformat()
               for d in range(366)]

    movies = [MovieRecord(f"tt{i + 1}", f"Movie {i + 1}",
                          int(years[i]), int(runtimes[i]))
              for i in range(size)]
    watches = []
    for i in range(size):
        movie = movies[picks[i]]
        minutes = 1 + int(minute_draws[i]) % movie.runtime_minutes
        watches.append(WatchRecord(f"w{i + 1}", movie.movie_id,
                                   day_str[days[i]], minutes))
    return movies, watches


MOVIE_HEADER = ("movieID", "title", "year", "runtimeMinutes")
WATCH_HEADER = ("watchID", "movieID", "date", "minutesWatched")


def write_movielib(movies: list[MovieRecord], watches: list[WatchRecord],
                   movies_path: str, watches_path: str) -> None:
    """Emit the two tables as comma-separated text files with header rows."""
    with open(movies_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(MOVIE_HEADER)
        w.writerows(movies)
    with open(watches_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(WATCH_HEADER)
        w.writerows(watches)


def read_movielib(movies_path: str, watches_path: str
                  ) -> tuple[list[MovieRecord], list[WatchRecord]]:
    with open(movies_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != MOVIE_HEADER:
            raise ValueError(f"{movies_path}: bad header {header}")
        movies = [MovieRecord(r[0], r[1], int(r[2]), int(r[3]))
                  for r in reader]
    with open(watches_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != WATCH_HEADER:
            raise ValueError(f"{watches_path}: bad header {header}")
        watches = [WatchRecord(r[0], r[1], r[2], int(r[3]))
                   for r in reader]
    return movies, watches
