"""Maximum-cardinality bipartite matching via augmenting paths.

Columns form the side the search augments from; ties are broken by ascending
row index, columns are scanned in ascending index order, so results are
deterministic for a fixed instance. One solve allocates a single visit-stamp
array of m_rows ints; column c's search marks rows with the stamp c + 1, so
each search pays only for the rows it visits. A column whose first row is
still free is matched to it at once, with no search frame: that is the
search's own first step. The adjacency is the int32 column CSR of the
instance's kept literal arrays, which stay int32 from `unate_literals` on,
read through a memoryview slice per column, so a row's int object is made
only when a search reaches it. The matched pairs are read from the column
side, at most n_cols of them, and put in row order by one numpy argsort: a
row is matched at most once, so no two pairs tie.
A brute-force oracle over tiny instances backs the correctness tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .instances import (BigraphInstance, UnateRequiredError, column_csr,
                        unate_literals)


@dataclass(frozen=True)
class MatchingResult:
    """Matching size, the matched (row, column) pairs, and size / n_cols."""

    size: int
    pairs: tuple[tuple[int, int], ...]
    m_p: float


def _column_adjacency(instance: BigraphInstance) -> list[memoryview]:
    """Rows of each column, ascending: int32 memoryview slices of the
    column CSR."""
    ptr, rows = column_csr(*unate_literals(instance)[1:], instance.n_cols)
    view = memoryview(rows)
    ptr = ptr.tolist()
    return [view[a:b] for a, b in zip(ptr, ptr[1:])]


def _augment(start: int, adj: list[memoryview], match_row: list[int],
             match_col: list[int], seen: list[int], stamp: int) -> bool:
    # The search's first step: a free first row is matched at once.
    rows = adj[start]
    if rows:
        r = rows[0]
        if match_row[r] == -1:
            match_row[r] = start
            match_col[start] = r
            return True
    # Iterative alternating-path DFS; frames are (column, row-iterator,
    # row used to enter the column).
    stack = [(start, iter(rows), -1)]
    while stack:
        col, row_iter, _ = stack[-1]
        advanced = False
        for r in row_iter:
            if seen[r] == stamp:
                continue
            seen[r] = stamp
            owner = match_row[r]
            if owner == -1:
                # free row found: flip matches along the stack
                match_row[r] = col
                match_col[col] = r
                for k in range(len(stack) - 1, 0, -1):
                    entered, prev = stack[k][2], stack[k - 1][0]
                    match_row[entered] = prev
                    match_col[prev] = entered
                return True
            stack.append((owner, iter(adj[owner]), r))
            advanced = True
            break
        if not advanced:
            stack.pop()
    return False


def max_matching(instance: BigraphInstance) -> MatchingResult:
    """Maximum matching of rows to columns for a unate instance."""
    adj = _column_adjacency(instance)
    match_row = [-1] * instance.m_rows
    match_col = [-1] * instance.n_cols
    seen = [0] * instance.m_rows
    size = 0
    for c in range(instance.n_cols):
        if _augment(c, adj, match_row, match_col, seen, c + 1):
            size += 1
    matched = np.array(match_col)
    cols = np.flatnonzero(matched != -1)
    rows = matched[cols]
    by_row = rows.argsort()  # a row is matched at most once: no ties
    pairs = tuple(zip((rows[by_row] + 1).tolist(),
                      (cols[by_row] + 1).tolist()))
    return MatchingResult(size=size, pairs=pairs,
                          m_p=size / instance.n_cols)


def brute_force_matching(instance: BigraphInstance) -> int:
    """Exact maximum matching size by exhaustive search; needs <= 24 edges."""
    if not instance.is_unate:
        raise UnateRequiredError(f"{instance.name}: unate required")
    if instance.num_edges > 24:
        raise ValueError(
            f"{instance.name}: {instance.num_edges} edges exceed the "
            f"24-edge oracle limit")
    rows = [tuple(lit - 1 for lit in clause) for clause in instance.rows]
    m = len(rows)

    @lru_cache(maxsize=None)
    def best(r: int, used_cols: int) -> int:
        if r == m:
            return 0
        top = best(r + 1, used_cols)  # leave row r unmatched
        for c in rows[r]:
            if not used_cols >> c & 1:
                top = max(top, 1 + best(r + 1, used_cols | 1 << c))
        return top

    return best(0, 0)
