"""Bipartite instance model: cnf-style text formats, statistics, matrix views.

An instance is an m-row, n-column incidence structure between elements (rows)
and sets (columns). Rows are clauses of signed 1-based column indices; a
negative index marks a binate literal. Two text formats are supported: a
DIMACS-compatible clause format (``.cnfU`` for unit weights, ``.cnfW`` with
per-column weight lines) and the OR-library set-covering format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNIT = "unit"
WEIGHTED = "weighted"


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnateRequiredError(ValueError):
    """The requested operation is defined for unate instances only."""


@dataclass(frozen=True)
class BigraphInstance:
    """Immutable m-row, n-column incidence structure with column weights.

    ``rows`` holds one clause per row as a tuple of signed column indices in
    ``[-n_cols..-1] + [1..n_cols]``. All types are immutable after
    construction and safe for concurrent read access.
    """

    name: str = field(compare=False)
    n_cols: int
    m_rows: int
    rows: tuple[tuple[int, ...], ...]
    col_weights: tuple[float, ...]
    weight_kind: str

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        object.__setattr__(self, "col_weights",
                           tuple(float(w) for w in self.col_weights))
        if self.n_cols < 1 or self.m_rows < 1:
            raise ValueError("n_cols and m_rows must be positive")
        if len(self.rows) != self.m_rows:
            raise ValueError(
                f"expected {self.m_rows} rows, got {len(self.rows)}")
        if len(self.col_weights) != self.n_cols:
            raise ValueError(
                f"expected {self.n_cols} weights, got {len(self.col_weights)}")
        if self.weight_kind not in (UNIT, WEIGHTED):
            raise ValueError(f"unknown weight kind {self.weight_kind!r}")
        for r, clause in enumerate(self.rows, start=1):
            if not clause:
                raise ValueError(f"row {r} is empty")
            seen = set()
            for lit in clause:
                col = abs(lit)
                if not 1 <= col <= self.n_cols:
                    raise ValueError(f"row {r}: index {lit} out of range")
                if col in seen:
                    raise ValueError(f"row {r}: duplicate column {col}")
                seen.add(col)
        for c, w in enumerate(self.col_weights, start=1):
            if not 0 < w < math.inf:
                raise ValueError(
                    f"column {c}: nonpositive or non-finite weight {w}")
        if self.weight_kind == UNIT and any(w != 1.0 for w in self.col_weights):
            raise ValueError("unit instance with non-unit weights")

    @property
    def is_unate(self) -> bool:
        return all(lit > 0 for clause in self.rows for lit in clause)

    @property
    def num_edges(self) -> int:
        return sum(len(clause) for clause in self.rows)

    def column_degrees(self) -> list[int]:
        """Number of rows each column appears in (binate literals count)."""
        deg = [0] * self.n_cols
        for clause in self.rows:
            for lit in clause:
                deg[abs(lit) - 1] += 1
        return deg


@dataclass(frozen=True)
class InstanceStats:
    """Size, density, and degree summary of one instance."""

    n_cols: int
    m_rows: int
    num_edges: int
    m_dens: float
    m_cd: int


def compute_stats(instance: BigraphInstance) -> InstanceStats:
    """Instance statistics; density is num_edges / (n_cols * m_rows)."""
    edges = instance.num_edges
    return InstanceStats(
        n_cols=instance.n_cols,
        m_rows=instance.m_rows,
        num_edges=edges,
        m_dens=edges / (instance.n_cols * instance.m_rows),
        m_cd=max(instance.column_degrees()),
    )


def to_incidence_matrix(instance: BigraphInstance) -> np.ndarray:
    """Dense 0/1 incidence view, shape (m_rows, n_cols), for unate instances.

    Entry (r, c) is 1 iff column c+1 appears positively in row r+1.
    """
    if not instance.is_unate:
        raise UnateRequiredError(
            f"{instance.name}: unate required, instance has binate literals")
    mat = np.zeros((instance.m_rows, instance.n_cols), dtype=np.uint8)
    for r, clause in enumerate(instance.rows):
        for lit in clause:
            mat[r, lit - 1] = 1
    return mat


def parse_cnf(text: str, name: str = "instance") -> BigraphInstance:
    """Parse clause-format text into an instance.

    Grammar: optional comment lines ``c ...``; a problem line
    ``p cnf <nCols> <mRows>``; for weighted instances one line per column
    ``w <colIndex> <weight>`` preceding the clauses; then one clause per line
    as signed integers terminated by 0. Weight kind is inferred from the
    presence of weight lines.
    """
    n_cols = m_rows = None
    weights: dict[int, float] = {}
    clauses: list[tuple[int, ...]] = []
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if n_cols is not None:
                raise ParseError(line_no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError(line_no, f"bad problem line: {raw.strip()!r}")
            try:
                n_cols, m_rows = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(line_no, "problem line counts must be integers")
            if n_cols < 1 or m_rows < 1:
                raise ParseError(line_no, "counts must be positive")
            continue
        if tokens[0] == "w":
            if n_cols is None:
                raise ParseError(line_no, "weight line before problem line")
            if clauses:
                raise ParseError(line_no, "weight line after first clause")
            if len(tokens) != 3:
                raise ParseError(line_no, "weight line needs column and weight")
            try:
                col = int(tokens[1])
                w = float(tokens[2])
            except ValueError:
                raise ParseError(line_no, "bad weight line tokens")
            if not 1 <= col <= n_cols:
                raise ParseError(line_no, f"weight column {col} out of range")
            if col in weights:
                raise ParseError(line_no, f"duplicate weight for column {col}")
            if not 0 < w < math.inf:
                raise ParseError(line_no, f"nonpositive weight {w}" if w <= 0
                                 else f"non-finite weight {w}")
            weights[col] = w
            continue
        # clause line
        if n_cols is None:
            raise ParseError(line_no, "clause before problem line")
        try:
            lits = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(line_no, f"bad clause tokens: {raw.strip()!r}")
        if lits[-1] != 0:
            raise ParseError(line_no, "clause not terminated by 0")
        lits = lits[:-1]
        if not lits:
            raise ParseError(line_no, "empty clause")
        if 0 in lits:
            raise ParseError(line_no, "0 inside clause")
        seen = set()
        for lit in lits:
            if not 1 <= abs(lit) <= n_cols:
                raise ParseError(line_no, f"index {lit} out of range")
            if abs(lit) in seen:
                raise ParseError(line_no, f"duplicate column {abs(lit)}")
            seen.add(abs(lit))
        if len(clauses) == m_rows:
            raise ParseError(line_no, f"more than {m_rows} clauses")
        clauses.append(tuple(lits))

    if n_cols is None:
        raise ParseError(max(line_no, 1), "missing problem line")
    if len(clauses) != m_rows:
        raise ParseError(line_no,
                         f"expected {m_rows} clauses, found {len(clauses)}")
    kind = WEIGHTED if weights else UNIT
    col_weights = tuple(weights.get(c, 1.0) for c in range(1, n_cols + 1))
    return BigraphInstance(name=name, n_cols=n_cols, m_rows=m_rows,
                           rows=tuple(clauses), col_weights=col_weights,
                           weight_kind=kind)


def _fmt_weight(w: float) -> str:
    # up to 9 significant digits when lossless, full precision otherwise
    s = "%.9g" % w
    return s if float(s) == w else repr(w)


def write_cnf(instance: BigraphInstance, comments: tuple[str, ...] = ()) -> str:
    """Canonical clause-format text; reparses to an equal instance.

    Clauses keep their given order, literals are sorted ascending by column.
    """
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {instance.n_cols} {instance.m_rows}")
    if instance.weight_kind == WEIGHTED:
        for c, w in enumerate(instance.col_weights, start=1):
            lines.append(f"w {c} {_fmt_weight(w)}")
    for clause in instance.rows:
        lits = sorted(clause, key=abs)
        lines.append(" ".join(str(lit) for lit in lits) + " 0")
    return "\n".join(lines) + "\n"


def ingest_orlib(text: str, name: str = "orlib",
                 unit_weights: bool = False) -> BigraphInstance:
    """Read OR-library set-covering format.

    Layout (whitespace separated, free line wrapping): ``m n``, then n column
    costs, then per row a covering-column count followed by that many column
    indices. Every cost must be positive and finite. With ``unit_weights``
    all costs are then overridden to 1.0, producing the unit-weight variant
    of the instance.
    """
    tokens = text.split()
    pos = 0

    def take(what: str) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"truncated stream: expected {what}")
        tok = tokens[pos]
        pos += 1
        return tok

    def take_int(what: str) -> int:
        tok = take(what)
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"expected integer {what}, got {tok!r}")

    m_rows = take_int("row count")
    n_cols = take_int("column count")
    if m_rows < 1 or n_cols < 1:
        raise ValueError("row and column counts must be positive")
    costs = []
    for c in range(1, n_cols + 1):
        tok = take(f"cost of column {c}")
        try:
            cost = float(tok)
        except ValueError:
            raise ValueError(f"bad cost for column {c}: {tok!r}")
        if not 0 < cost < math.inf:
            raise ValueError(
                f"column {c}: nonpositive or non-finite weight {cost}")
        costs.append(cost)
    clauses = []
    for r in range(1, m_rows + 1):
        count = take_int(f"cover count of row {r}")
        if count < 1:
            raise ValueError(f"row {r}: cover count must be positive")
        cols = []
        seen = set()
        for _ in range(count):
            col = take_int(f"covering column of row {r}")
            if not 1 <= col <= n_cols:
                raise ValueError(f"row {r}: column {col} out of range")
            if col in seen:
                raise ValueError(f"row {r}: duplicate column {col}")
            seen.add(col)
            cols.append(col)
        clauses.append(tuple(sorted(cols)))
    if pos != len(tokens):
        raise ValueError(f"trailing tokens after row {m_rows}")
    if unit_weights:
        return BigraphInstance(name=name, n_cols=n_cols, m_rows=m_rows,
                               rows=tuple(clauses),
                               col_weights=(1.0,) * n_cols, weight_kind=UNIT)
    return BigraphInstance(name=name, n_cols=n_cols, m_rows=m_rows,
                           rows=tuple(clauses), col_weights=tuple(costs),
                           weight_kind=WEIGHTED)
