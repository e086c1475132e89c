"""Seeded benchmark inputs, made with numpy alone (no bglab code).

Every generator here is a pure function of its arguments, so the same
benchmark seed always gives the same instance texts.
"""

from __future__ import annotations

import itertools

import numpy as np


def input_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one input stream of one benchmark seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def cnf_text(n_cols: int, rows, comment: str) -> str:
    """Unit-weight clause-format text, one row per line."""
    lines = [f"c {comment}", f"p cnf {n_cols} {len(rows)}"]
    lines += [" ".join(map(str, row)) + " 0" for row in rows]
    return "\n".join(lines) + "\n"


def ag3_lines(k: int) -> np.ndarray:
    """The lines of the affine space AG(k, 3), one sorted point triple a row.

    Points are the 3^k vectors over Z_3, numbered 0..3^k-1 by base-3 digits.
    A line is {a, a+d, a+2d} for a direction d != 0; each line is listed
    once, from its smallest point. There are 3^k (3^k - 1) / 6 of them, and
    every pair of points lies on exactly one, so the lines form a Steiner
    triple system.
    """
    points = np.array(list(itertools.product(range(3), repeat=k)))[:, ::-1]
    weights = 3 ** np.arange(k)
    a = points @ weights
    triples = []
    for d in itertools.product(range(3), repeat=k):
        d = np.array(d[::-1])
        nonzero = np.flatnonzero(d)
        if nonzero.size == 0 or d[nonzero[0]] != 1:
            continue  # one direction of each +-d pair
        b = ((points + d) % 3) @ weights
        c = ((points + 2 * d) % 3) @ weights
        first = (a < b) & (a < c)
        triples.append(np.sort(np.stack([a, b, c], axis=1)[first], axis=1))
    lines = np.concatenate(triples)
    n = 3 ** k
    if len(lines) != n * (n - 1) // 6:
        raise RuntimeError(f"AG({k},3): {len(lines)} lines")
    return lines


def steiner_instance(k: int, seed: int) -> tuple[str, str, np.ndarray]:
    """AG(k, 3) as a covering instance: points are columns, lines are rows.

    The seed relabels the points and shuffles the row order, which leaves
    the instance isomorphic to AG(k, 3).
    Returns (name, clause text, rows as a 1-based (m, 3) array).
    """
    lines = ag3_lines(k)
    n = 3 ** k
    rng = input_rng(seed, 100 + k)
    relabel = rng.permutation(n) + 1
    rows = np.sort(relabel[lines], axis=1)[rng.permutation(len(lines))]
    name = f"s3_{n:03d}_{len(rows)}"
    return name, cnf_text(n, rows.tolist(), f"AG({k},3) lines"), rows


def orlib_instance(m_rows: int, n_cols: int, density: float, seed: int,
                   stream: int) -> tuple[str, list[np.ndarray], np.ndarray]:
    """Random set-covering instance in OR-library text form.

    Each (row, column) entry is present with probability `density`; then
    every column is given at least one row and every row at least two
    columns, as in the OR-library generators. Costs are integers drawn
    uniformly from 1..100. Returns (text, rows as 1-based column arrays,
    costs).
    """
    rng = input_rng(seed, stream)
    inc = rng.random((m_rows, n_cols)) < density
    empty_cols = np.flatnonzero(~inc.any(axis=0))
    inc[rng.integers(0, m_rows, size=empty_cols.size), empty_cols] = True
    for r in np.flatnonzero(inc.sum(axis=1) < 2):
        inc[r, rng.choice(n_cols, size=2, replace=False)] = True
    costs = rng.integers(1, 101, size=n_cols)
    rows = [np.flatnonzero(inc[r]) + 1 for r in range(m_rows)]

    def wrap(values) -> list[str]:
        values = [str(v) for v in values]
        return [" " + " ".join(values[i:i + 12])
                for i in range(0, len(values), 12)]

    lines = [f" {m_rows} {n_cols}"] + wrap(costs)
    for row in rows:
        lines.append(f" {row.size}")
        lines += wrap(row)
    return "\n".join(lines) + "\n", rows, costs.astype(np.float64)
