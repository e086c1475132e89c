"""Bipartite instance model: cnf-style text formats, statistics, matrix views.

An instance is an m-row, n-column incidence structure between elements (rows)
and sets (columns). Rows are clauses of signed 1-based column indices; a
negative index marks a binate literal. Two text formats are supported: a
DIMACS-compatible clause format (``.cnfU`` for unit weights, ``.cnfW`` with
per-column weight lines) and the OR-library set-covering format.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from collections.abc import Iterator
from itertools import chain, islice

import numpy as np

UNIT = "unit"
WEIGHTED = "weighted"
# Most columns an instance can have: instances keep their literals as
# int32.
MAX_COLS = 2**31 - 1


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

    ``_literals`` holds the literals as read-only int32 arrays (row
    lengths, every signed literal in row order), made with the instance
    (`_literals_of`). ``rows`` holds the same clauses, one per row, as
    tuples of signed column indices in ``[-n_cols..-1] + [1..n_cols]``: the
    public constructor takes them, and an instance made without them (a
    reader's) makes them from ``_literals`` the first time they are read
    (`_rows_of`). Equality, hashing, repr and copies do not depend on
    whether they were read. All types are immutable after construction and
    safe for concurrent read access.
    """

    name: str = field(compare=False)
    n_cols: int
    m_rows: int
    rows: tuple[tuple[int, ...], ...]
    col_weights: tuple[float, ...]
    weight_kind: str
    _literals: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False,
                                                     compare=False)

    def __post_init__(self):
        _check_cols(self.n_cols)
        # literals become Python ints; rows already of ints keep their tuple
        rows = tuple(tuple(r) for r in self.rows)
        if any(type(lit) is not int for row in rows for lit in row):
            rows = tuple(tuple(map(operator.index, r)) for r in rows)
        object.__setattr__(self, "rows", rows)
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
        object.__setattr__(self, "_literals", _literals_of(self.rows))

    @classmethod
    def _trusted(cls, *, name: str, n_cols: int, m_rows: int,
                 col_weights: tuple[float, ...],
                 weight_kind: str,
                 _literals: tuple[np.ndarray, np.ndarray],
                 rows: tuple[tuple[int, ...], ...] | None = None
                 ) -> "BigraphInstance":
        """Instance from fields the caller has already checked.

        Skips `__post_init__`: every invariant it enforces must hold, with
        `col_weights` a tuple of float, `_literals` as `_keep_literals`
        makes them and `rows`, when given, a tuple of tuples of int with
        `_literals_of(rows)` equal to `_literals`; without it the rows are
        made from `_literals` when first read. The readers build through it
        after checking each literal once, and so do relabellings of an
        instance that is already valid; a rewrap
        `_trusted(**{**vars(inst), ...})` passes the instance's own arrays
        on, and its rows if they were read.
        """
        inst = object.__new__(cls)
        fields = vars(inst)
        fields.update(name=name, n_cols=n_cols, m_rows=m_rows)
        if rows is not None:
            fields["rows"] = rows
        fields.update(col_weights=col_weights, weight_kind=weight_kind,
                      _literals=_literals)
        return inst

    def __setstate__(self, state: dict) -> None:
        # numpy restores unpickled and deep-copied arrays writeable
        vars(self).update(state)
        for array in self._literals:
            array.flags.writeable = False

    @property
    def is_unate(self) -> bool:
        return bool(self._literals[1].min() > 0)

    @property
    def num_edges(self) -> int:
        return self._literals[1].size

    def column_degrees(self) -> list[int]:
        """Number of rows each column appears in (binate literals count)."""
        _, flat = self._literals
        return np.bincount(np.abs(flat) - 1, minlength=self.n_cols).tolist()


class _RowsOfLiterals:
    """`rows` of an instance made without them: `_rows_of` its
    `_literals`, made on the first read and kept in the instance, where
    later reads find them first.

    A class attribute, not a `__getattr__`, which would slow every
    attribute read of every instance about threefold."""

    def __get__(self, inst, owner=None):
        if inst is None:
            return self
        rows = _rows_of(*inst._literals)
        vars(inst)["rows"] = rows
        return rows


# set once the dataclass is made, which would take it for a default
BigraphInstance.rows = _RowsOfLiterals()


def _check_cols(n_cols: int) -> None:
    """Reject a column count above `MAX_COLS` before anything is sized by
    it."""
    if n_cols > MAX_COLS:
        raise ValueError(f"{n_cols} columns exceed the limit of {MAX_COLS}")


def _keep_literals(lengths: np.ndarray, flat: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Row lengths and signed literals as the read-only int32 arrays an
    instance keeps: 4 B per row and per literal (`MAX_COLS` fits)."""
    kept = (lengths.astype(np.int32, copy=False),
            flat.astype(np.int32, copy=False))
    for array in kept:
        array.flags.writeable = False
    return kept


def _literals_of(rows: tuple[tuple[int, ...], ...]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """`_keep_literals` of the lengths and literals of `rows`."""
    lengths = np.fromiter(map(len, rows), np.int32, len(rows))
    return _keep_literals(lengths, np.fromiter(
        chain.from_iterable(rows), np.int32, int(lengths.sum())))


def _rows_of(lengths: np.ndarray, flat: np.ndarray
             ) -> tuple[tuple[int, ...], ...]:
    """The row tuples of the literals `flat` cut at `lengths`, with one int
    object per distinct literal, so that the rows share them.

    The ints come from one object array over the range of the literals (0
    included) when it is no wider than their count, else from the sorted
    distinct literals; rows of one length are cut by `zip`.
    """
    lo, hi = int(flat.min(initial=0)), int(flat.max(initial=0))
    if hi - lo < flat.size:
        ints, index = np.array(range(lo, hi + 1), dtype=object), flat - lo
    else:
        distinct, index = np.unique(flat, return_inverse=True)
        ints = np.array(distinct.tolist(), dtype=object)
    shared = ints[index.reshape(-1)].tolist()
    if lengths.size and (lengths == lengths[0]).all():
        return tuple(zip(*[iter(shared)] * int(lengths[0])))
    ends = np.cumsum(lengths).tolist()
    return tuple(tuple(shared[a:b]) for a, b in zip([0] + ends, ends))


def unate_literals(instance: BigraphInstance
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row lengths, 0-based column, row) of every literal, in row order.

    Every column-wise view of a unate instance derives from these arrays.
    They come from the instance's `_literals`: the lengths are that int32
    array itself, the columns and rows are fresh int32 arrays, as narrow
    as the kept literals, so no view of them widens on the way. A caller
    that indexes with them many times widens them once to intp. Raises
    `UnateRequiredError` on a binate literal.
    """
    lengths, flat = instance._literals
    if flat.min() < 1:
        raise UnateRequiredError(f"{instance.name}: unate required")
    rows = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    return lengths, np.subtract(flat, 1, dtype=np.int32), rows


def column_csr(cols: np.ndarray, row_of: np.ndarray, n_cols: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, rows): column j's rows are rows[ptr[j]:ptr[j + 1]], ascending,
    as int32.

    One sort of the keys column * m + row, with m above every row, orders
    the literals by column and then row. The keys are uint32 when they fit:
    numpy sorts those values in about half the time of a stable argsort of
    the columns alone, and no gather by the sorted indices follows.
    """
    ptr = np.concatenate(([0], np.cumsum(np.bincount(cols,
                                                     minlength=n_cols))))
    m = int(row_of.max()) + 1 if row_of.size else 1
    wide = np.dtype(np.uint32 if n_cols * m <= 1 << 32 else np.uint64)
    key = cols.astype(wide) * wide.type(m) + row_of.astype(wide)
    key.sort()
    return ptr, (key % wide.type(m)).astype(np.int32)


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
    _, cols, rows = unate_literals(instance)
    mat = np.zeros((instance.m_rows, instance.n_cols), dtype=np.uint8)
    mat[rows, cols] = 1
    return mat


# Python's whitespace (`str.isspace`, where `str.split` splits) by code
# point; the last entry stands for every code point above U+3000, none of
# which is whitespace.
_SPACE = np.zeros(0x3002, dtype=bool)
_SPACE[[*range(0x9, 0xE), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680,
        *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]] = True

# Clause lines are converted and checked this many at a time, and the
# text is split into lines about this many characters at a time, so no
# list of lines, tokens or ints spans the file.
_BLOCK_LINES = 4096
_PIECE_CHARS = 1 << 16


def _lines(text: str) -> Iterator[str]:
    """The lines of `text.splitlines()`, split a piece at a time; every
    piece but the last ends just after a "\n", so no line break is cut."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _PIECE_CHARS) + 1 or len(text)
        yield from text[start:cut].splitlines()
        start = cut


def _convert(tokens: list[str], dtype) -> tuple[np.ndarray, np.ndarray | None]:
    """`tokens` read as `int()` (dtype int64) or `float()` (float64) reads
    them, and a mask of the tokens it rejects (None when there is none).

    Integers beyond int64 are clamped to its ends, outside every count and
    index range; an error message quotes such a token through `int()`.
    """
    try:
        return np.array(tokens, dtype=dtype), None
    except (ValueError, OverflowError):
        pass
    read = int if dtype is np.int64 else float
    values = np.zeros(len(tokens), dtype=dtype)
    bad = np.zeros(len(tokens), dtype=bool)
    for i, tok in enumerate(tokens):
        try:
            value = read(tok)
        except ValueError:
            bad[i] = True
        else:
            values[i] = min(max(value, -2**63), 2**63 - 1) if read is int \
                else value
    return values, bad if bad.any() else None


def _decimals(points: np.ndarray, starts: np.ndarray, stops: np.ndarray
              ) -> np.ndarray | None:
    """int64 values of the tokens points[starts[k]:stops[k]] when each is an
    optional "-" and 1 to 18 ASCII digits, which `int()` reads as the
    number they spell; None when any token is anything else. `points` are
    unsigned code units: UTF-8 bytes or UTF-32 code points."""
    if not len(starts):
        return None
    minus = points[starts] == ord("-")
    lengths = stops - starts - minus
    if lengths.min() < 1 or lengths.max() > 18:
        return None
    width = int(lengths.max())
    place = np.arange(width)
    # every token right-aligned in `width` units, the units before its
    # digits zeroed
    digits = points[np.maximum(stops[:, None] - width + place, 0)] - ord("0")
    digits[place < width - lengths[:, None]] = 0
    if digits.max() > 9:  # unsigned, so a unit below "0" wraps above 9
        return None
    values = digits.astype(np.int64) @ 10 ** place[::-1]
    return np.negative(values, out=values, where=minus)


def _repeats(cols: np.ndarray, row_of: np.ndarray, skip: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the literals `cols`, of ascending 0-based rows `row_of`,
    whose column appeared earlier in their row, and the stable order that
    sorts them by row, then column. A literal in `skip` is not counted."""
    mags = np.where(skip, 0, np.abs(cols))
    span = int(mags.max(initial=0)) + 1
    if row_of.size and (int(row_of[-1]) + 1) * span > 2**63:
        # columns too wide for an int64 key: rank them first
        mags = np.unique(mags, return_inverse=True)[1].reshape(-1)
        span = int(mags.max()) + 1
    keys = row_of * span + mags
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    repeat = np.zeros(cols.size, dtype=bool)
    repeat[order[1:][ranked[1:] == ranked[:-1]]] = True
    repeat[skip] = False
    return repeat, order


def parse_cnf(text: str, name: str = "instance") -> BigraphInstance:
    """Parse clause-format text into an instance.

    Grammar: optional comment lines ``c ...``; a problem line
    ``p cnf <nCols> <mRows>``; for weighted instances one line per column
    ``w <colIndex> <weight>`` preceding the clauses; then one clause per line
    as signed integers terminated by 0. Weight kind is inferred from the
    presence of weight lines.

    The lines up to the first clause are read one at a time; the clause
    lines are converted and checked in numpy, a block of lines at a time,
    and the first faulty line raises `ParseError`.
    """
    lines = _lines(text)
    n_cols = m_rows = None
    weights: dict[int, float] = {}
    line_no = 0
    first = None
    for line_no, raw in enumerate(lines, start=1):
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
            if n_cols > MAX_COLS:
                raise ParseError(line_no, f"{n_cols} columns exceed the "
                                 f"limit of {MAX_COLS}")
            continue
        if tokens[0] == "w":
            if n_cols is None:
                raise ParseError(line_no, "weight line before problem line")
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
        first = raw
        break
    if n_cols is None:
        if first is not None:
            raise ParseError(line_no, "clause before problem line")
        raise ParseError(max(line_no, 1), "missing problem line")

    arrays: list[tuple[np.ndarray, np.ndarray]] = []
    made = 0
    if first is not None:
        rest = chain([first], lines)
        while block := list(islice(rest, _BLOCK_LINES)):
            arrays.append(_read_clauses(block, line_no, n_cols, m_rows, made))
            made += arrays[-1][0].size
            line_no += len(block)
        line_no -= 1
    if made != m_rows:
        raise ParseError(line_no, f"expected {m_rows} clauses, found {made}")
    kind = WEIGHTED if weights else UNIT
    col_weights = tuple(weights.get(c, 1.0) for c in range(1, n_cols + 1))
    lengths, flat = map(np.concatenate, zip(*arrays))
    return BigraphInstance._trusted(name=name, n_cols=n_cols, m_rows=m_rows,
                                    col_weights=col_weights, weight_kind=kind,
                                    _literals=_keep_literals(lengths, flat))


def _read_clauses(block: list[str], first_no: int, n_cols: int, m_rows: int,
                  made: int) -> tuple[np.ndarray, np.ndarray]:
    """Check the lines of `block`, numbered from `first_no`, that follow
    `made` clauses, and return their clauses' (row lengths, literals) as
    int32 arrays; raise `ParseError` at the first faulty one.

    Past the first clause a line is blank, a comment, or a clause; a
    problem or weight line there is a fault.
    """
    joined = "\n".join(block)
    # tokens per line: a token starts at a non-space code point after a
    # space or at the start, and ends before a space or at the end; the
    # lines are joined at "\n"
    points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"),
                           dtype=np.uint32)
    space = _SPACE[np.minimum(points, _SPACE.size - 1)]
    starts = ~space
    starts[1:] &= space[:-1]
    ends = ~space
    ends[:-1] &= space[1:]
    width = np.bincount(np.cumsum(points == 10)[starts], minlength=len(block))
    values = _decimals(points, np.flatnonzero(starts), np.flatnonzero(ends) + 1)
    del points, space, starts, ends
    line_of = np.repeat(np.arange(len(block)), width)
    first_tok = np.cumsum(width) - width
    # a block of plain integers is converted from its code points, any
    # other through int() token by token; token strings are made only for
    # that, or for an error message that quotes one
    tokens = bad = None
    if values is None:
        tokens = joined.split()
        values, bad = _convert(tokens, np.int64)

    # every comment holds a token int() rejects, its "c"; the first other
    # line holding one ends the block's clauses
    clause = width > 0
    stop = None
    if bad is not None:
        for line in np.unique(line_of[bad]).tolist():
            if tokens[first_tok[line]] != "c":
                stop = line
                clause[line:] = False
                break
            clause[line] = False

    keep = clause[line_of]
    tok_at = np.flatnonzero(keep)
    vals = values[keep]
    lens = width[clause]
    line_nos = np.flatnonzero(clause) + first_no
    last = np.cumsum(lens) - 1
    is_lit = np.ones(vals.size, dtype=bool)
    is_lit[last] = False
    lits = vals[is_lit]
    lit_at = tok_at[is_lit]
    lit_line = np.repeat(np.arange(lens.size), lens - 1)
    zero = lits == 0
    out = (lits < -n_cols) | (lits > n_cols)
    repeat, _ = _repeats(lits, lit_line, out | zero)

    def lines_with(mask):
        return np.bincount(lit_line[mask], minlength=lens.size) > 0

    unterminated = vals[last] != 0
    zero_inside = lines_with(zero)
    faulty = np.flatnonzero(unterminated | (lens == 1) | zero_inside
                            | lines_with(out | repeat))
    room = m_rows - made
    first = int(faulty[0]) if faulty.size else lens.size
    if room < min(first, lens.size):
        raise ParseError(int(line_nos[room]), f"more than {m_rows} clauses")
    if first < lens.size:
        line_no = int(line_nos[first])
        if unterminated[first]:
            raise ParseError(line_no, "clause not terminated by 0")
        if lens[first] == 1:
            raise ParseError(line_no, "empty clause")
        if zero_inside[first]:
            raise ParseError(line_no, "0 inside clause")
        i = np.flatnonzero((out | repeat) & (lit_line == first))[0]
        lit = int((tokens or joined.split())[lit_at[i]])
        if out[i]:
            raise ParseError(line_no, f"index {lit} out of range")
        raise ParseError(line_no, f"duplicate column {abs(lit)}")
    if stop is not None:
        lead = tokens[first_tok[stop]]
        if lead == "p":
            raise ParseError(first_no + stop, "duplicate problem line")
        if lead == "w":
            raise ParseError(first_no + stop, "weight line after first clause")
        raise ParseError(first_no + stop,
                         f"bad clause tokens: {block[stop].strip()!r}")
    del tokens, values, vals
    return (lens - 1).astype(np.int32), lits.astype(np.int32)


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


def _missing(tokens: list[str], pos: int, what: str) -> str:
    """The message for a stream that has no integer `what` at `pos`."""
    if pos >= len(tokens):
        return f"truncated stream: expected {what}"
    return f"expected integer {what}, got {tokens[pos]!r}"


def ingest_orlib(text: str, name: str = "orlib",
                 unit_weights: bool = False) -> BigraphInstance:
    """Read OR-library set-covering format.

    Layout (whitespace separated, free line wrapping): ``m n``, then n column
    costs, then per row a covering-column count followed by that many column
    indices. Every cost must be positive and finite. With ``unit_weights``
    all costs are then overridden to 1.0, producing the unit-weight variant
    of the instance.

    Costs and indices are converted and checked in numpy, and the row
    structure is walked one step a row; the first faulty token in stream
    order raises `ValueError`.
    """
    tokens = text.split()

    def header(pos: int, what: str) -> int:
        try:
            return int(tokens[pos])
        except (IndexError, ValueError):
            raise ValueError(_missing(tokens, pos, what)) from None

    m_rows = header(0, "row count")
    n_cols = header(1, "column count")
    if m_rows < 1 or n_cols < 1:
        raise ValueError("row and column counts must be positive")
    _check_cols(n_cols)
    cost_toks = tokens[2:2 + n_cols]
    costs, bad = _convert(cost_toks, np.float64)
    invalid = np.flatnonzero(~((costs > 0) & (costs < math.inf)))
    if invalid.size:
        c = int(invalid[0])
        if bad is not None and bad[c]:
            raise ValueError(f"bad cost for column {c + 1}: {cost_toks[c]!r}")
        raise ValueError(f"column {c + 1}: nonpositive or non-finite weight "
                         f"{float(costs[c])}")
    if len(cost_toks) < n_cols:
        raise ValueError(f"truncated stream: expected cost of column "
                         f"{len(cost_toks) + 1}")
    body = tokens[2 + n_cols:]
    del tokens, cost_toks
    values, bad = _convert(body, np.int64)
    end = len(body) if bad is None else int(bad.argmax())

    # row r's count sits at starts[r - 1]; stop at the first fault in the
    # structure and note where it lies
    starts = []
    pos = 0
    fault = None
    for r in range(1, m_rows + 1):
        if pos >= end:
            fault = (pos, _missing(body, pos, f"cover count of row {r}"))
            break
        count = int(values[pos])
        if count < 1:
            fault = (pos, f"row {r}: cover count must be positive")
            break
        starts.append(pos)
        pos += 1 + count
        if pos > end:
            fault = (end, _missing(body, end, f"covering column of row {r}"))
            break
    else:
        if pos != len(body):
            fault = (pos, f"trailing tokens after row {m_rows}")

    # the column indices before that fault, checked at once; an index
    # fault earlier in the stream is reported first
    is_count = np.zeros(pos if fault is None else fault[0], dtype=bool)
    is_count[starts] = True
    lit_at = np.flatnonzero(~is_count)
    row_of = np.cumsum(is_count)[lit_at] - 1
    cols = values[lit_at]
    out = (cols < 1) | (cols > n_cols)
    # only the first out-of-range index can be reported, so its token is
    # all that is kept of the token strings the duplicate search outlives
    first_out = np.flatnonzero(out)[:1]
    out_token = body[lit_at[first_out[0]]] if first_out.size else None
    del body, values
    repeat, order = _repeats(cols, row_of, out)
    faulty = np.flatnonzero(out | repeat)
    if faulty.size and (fault is None or lit_at[faulty[0]] < fault[0]):
        i = faulty[0]
        if out[i]:
            raise ValueError(f"row {row_of[i] + 1}: column "
                             f"{int(out_token)} out of range")
        raise ValueError(f"row {row_of[i] + 1}: duplicate column {cols[i]}")
    if fault is not None:
        raise ValueError(fault[1])
    # int32 before the gather, so no int64 copy of the literals is made
    flat = cols.astype(np.int32)[order]
    del cols, order
    lengths = np.diff(starts + [pos]) - 1
    col_weights = (1.0,) * n_cols if unit_weights else tuple(costs.tolist())
    return BigraphInstance._trusted(
        name=name, n_cols=n_cols, m_rows=m_rows, col_weights=col_weights,
        weight_kind=UNIT if unit_weights else WEIGHTED,
        _literals=_keep_literals(lengths, flat))
