import copy
import importlib.util
import math
import pickle
import tracemalloc
from dataclasses import replace
from itertools import chain
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bglab.cover as cover_module
import bglab.instances as instances_module
from bglab.cli import _load_instance
from bglab.generators import gen_isomorph, gen_random_instance, permute_columns
from bglab.instances import (UNIT, WEIGHTED, BigraphInstance, ParseError,
                             UnateRequiredError, column_csr, compute_stats,
                             ingest_orlib, parse_cnf, to_incidence_matrix,
                             unate_literals, write_cnf)
from bglab.library import chvatal_6_5, get_builtin
from bglab.matching import _column_adjacency

from conftest import WEIGHT_POOL, random_instance

TINY = "p cnf 1 1\n1 0\n"

CHVATAL_TEXT = """\
c worst-case greedy construction
p cnf 6 5
w 1 1
w 2 0.5
w 3 0.3333333333333333
w 4 0.25
w 5 0.2
w 6 1.1
1 6 0
2 6 0
3 6 0
4 6 0
5 6 0
"""

BINATE_TEXT = """\
p cnf 9 2
-2 5 0
2 -5 0
"""

ORLIB_2X2 = "2 2\n3 5\n1 1\n2 1 2\n"


def test_parse_tiny():
    inst = parse_cnf(TINY)
    assert inst.n_cols == 1
    assert inst.m_rows == 1
    assert inst.rows == ((1,),)
    assert inst.col_weights == (1.0,)
    assert inst.weight_kind == UNIT


def test_parse_chvatal():
    inst = parse_cnf(CHVATAL_TEXT, name="chvatal_6_5")
    assert inst.n_cols == 6
    assert inst.m_rows == 5
    assert inst.num_edges == 10
    assert inst.weight_kind == WEIGHTED
    assert inst.col_weights[2] == 1 / 3
    assert inst == chvatal_6_5()


def test_parse_binate():
    inst = parse_cnf(BINATE_TEXT)
    assert not inst.is_unate
    assert inst.rows == ((-2, 5), (2, -5))
    assert inst.num_edges == 4


@pytest.mark.parametrize("text,fragment", [
    ("p cnf 1 1\n2 0\n", "out of range"),
    ("p cnf 1 1\n1\n", "not terminated"),
    ("p cnf 2 1\n1 0 2 0\n", "0 inside clause"),
    ("p cnf 2 1\n1 1 0\n", "duplicate column"),
    ("p cnf 2 1\nw 1 -1\n1 0\n", "nonpositive weight"),
    ("p cnf 2 1\nw 1 1\nw 1 2\n1 0\n", "duplicate weight"),
    ("p cnf 2 1\nw 3 1\n1 0\n", "out of range"),
    ("p cnf 2 1\n1 0\nw 1 2\n", "after first clause"),
    ("p cnf 2 2\n1 0\n", "expected 2 clauses"),
    ("p cnf 2 1\n1 0\n2 0\n", "more than 1 clauses"),
    ("1 0\n", "before problem line"),
    ("c only a comment\n", "missing problem line"),
    ("p cnf x 1\n1 0\n", "integers"),
    ("p cnf 2 1\n1 rubbish 0\n", "bad clause tokens"),
    ("p cnf 0 3\n", "counts must be positive"),
    ("w 1 2\np cnf 2 1\n1 0\n", "weight line before problem line"),
    ("p cnf 2 2\n1 0\np cnf 2 2\n2 0\n", "duplicate problem line"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_cnf(text)
    assert fragment in str(err.value)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_cnf("c comment\np cnf 2 2\n1 0\n7 0\n")
    assert err.value.line_no == 4


def test_write_tiny():
    assert write_cnf(parse_cnf(TINY)) == "p cnf 1 1\n1 0\n"


def test_write_orders_literals():
    inst = BigraphInstance(name="t", n_cols=3, m_rows=1, rows=((3, 1, -2),),
                           col_weights=(1.0,) * 3, weight_kind=UNIT)
    assert "1 -2 3 0" in write_cnf(inst)


def test_roundtrip_chvatal():
    inst = parse_cnf(CHVATAL_TEXT, name="chvatal_6_5")
    again = parse_cnf(write_cnf(inst), name="chvatal_6_5")
    assert again == inst
    assert abs(compute_stats(again).m_dens - 0.3333) < 5e-5


def test_roundtrip_random_instances(rs):
    for _ in range(200):
        inst = random_instance(rs, weighted=rs.random() < 0.5)
        assert parse_cnf(write_cnf(inst)) == inst


def test_roundtrip_full_precision_weight():
    inst = BigraphInstance(name="w", n_cols=1, m_rows=1, rows=((1,),),
                           col_weights=(1 / 3,), weight_kind=WEIGHTED)
    again = parse_cnf(write_cnf(inst))
    assert again.col_weights[0] == 1 / 3


def test_stats_chvatal():
    st = compute_stats(chvatal_6_5())
    assert st.num_edges == 10
    assert st.m_dens == pytest.approx(10 / 30, abs=1e-12)
    assert st.m_cd == 5


def test_stats_tiny():
    st = compute_stats(parse_cnf(TINY))
    assert st.m_dens == 1.0
    assert st.m_cd == 1


def test_stats_counts_binate_edges():
    st = compute_stats(parse_cnf(BINATE_TEXT))
    assert st.num_edges == 4
    assert st.m_cd == 2


def test_stats_match_incidence_matrix(rs):
    for _ in range(50):
        inst = random_instance(rs)
        st = compute_stats(inst)
        mat = to_incidence_matrix(inst)
        assert st.m_cd == int(mat.sum(axis=0).max())
        assert st.num_edges == int(mat.sum())
        dens = mat.sum() / (inst.n_cols * inst.m_rows)
        assert abs(st.m_dens - dens) < 1e-12
        assert [len(r) for r in inst.rows] == list(mat.sum(axis=1))


def test_incidence_tiny():
    mat = to_incidence_matrix(parse_cnf(TINY))
    assert mat.tolist() == [[1]]


def test_incidence_chvatal_degrees():
    mat = to_incidence_matrix(chvatal_6_5())
    assert mat.sum(axis=0).tolist() == [1, 1, 1, 1, 1, 5]


def test_incidence_rejects_binate():
    with pytest.raises(UnateRequiredError, match="unate required"):
        to_incidence_matrix(parse_cnf(BINATE_TEXT))


def _with_signs(rs, inst):
    """`inst` with each literal negated with probability 1/2."""
    return replace(inst, rows=tuple(
        tuple(lit if rs.random() < 0.5 else -lit for lit in clause)
        for clause in inst.rows))


def test_column_views_match_literal_loop(rs, monkeypatch):
    # every view derived from the flat literals equals a per-literal loop
    insts = [random_instance(rs, n_max=30, m_max=60, deg_max=8)
             for _ in range(25)]
    insts.append(gen_random_instance(30, 70000, 1, 4, seed=2))  # > 2^16
    monkeypatch.setattr(cover_module, "_SMALL_COLS", 0)
    for inst in insts:
        n, m = inst.n_cols, inst.m_rows
        rows_of_col = [[] for _ in range(n)]
        mat = np.zeros((m, n), dtype=np.uint8)
        for r, clause in enumerate(inst.rows):
            for lit in clause:
                rows_of_col[lit - 1].append(r)
                mat[r, lit - 1] = 1
        assert inst.column_degrees() == [len(rows) for rows in rows_of_col]
        assert np.array_equal(to_incidence_matrix(inst), mat)
        lengths, cols, row_of = unate_literals(inst)
        assert lengths.tolist() == [len(clause) for clause in inst.rows]
        assert cols.tolist() == [lit - 1 for clause in inst.rows
                                 for lit in clause]
        assert row_of.tolist() == [r for r, clause in enumerate(inst.rows)
                                   for _ in clause]
        ptr, col_rows = column_csr(cols, row_of, n)
        assert [col_rows[ptr[j]:ptr[j + 1]].tolist()
                for j in range(n)] == rows_of_col
        assert [rows.tolist() for rows in _column_adjacency(inst)] \
            == rows_of_col
        binate = _with_signs(rs, inst)
        assert binate.column_degrees() == inst.column_degrees()
        if not binate.is_unate:
            with pytest.raises(UnateRequiredError, match="unate required"):
                unate_literals(binate)
            with pytest.raises(UnateRequiredError, match="unate required"):
                _column_adjacency(binate)
        # the views stay int32; the vectorized engine widens its index
        # arrays to intp once, at build
        assert cols.dtype == row_of.dtype == col_rows.dtype == np.int32
        assert all(rows.format == "i" for rows in _column_adjacency(inst))
        engine = cover_module._Engine(inst)
        assert not engine.small
        assert engine.col_rows.dtype == np.intp
        assert all(cs.dtype == np.intp for cs in engine.cols_of_row)


def test_column_csr_orders_by_column_then_row():
    # rows come out ascending within a column whatever the literal order,
    # on uint32 keys and on uint64 ones (columns * rows above 2^32)
    rs = np.random.default_rng(5)
    for n, m in ((50, 40), (2**17, 40001)):
        cols = rs.integers(0, n, size=300, dtype=np.int32)
        cols[:2] = 0, n - 1
        row_of = rs.integers(0, m, size=300, dtype=np.int32)
        row_of[:2] = m - 1, m - 1
        ptr, rows = column_csr(cols, row_of, n)
        order = np.lexsort((row_of, cols))
        assert rows.dtype == np.int32
        assert rows.tolist() == row_of[order].tolist()
        assert ptr.tolist() == [0] + np.cumsum(
            np.bincount(cols, minlength=n)).tolist()


def _fromiter_literals(inst):
    """(row lengths, signed literals) rebuilt from `rows` as the instance
    model built them on every call before instances kept them."""
    rows = inst.rows
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    return lengths, np.fromiter(chain.from_iterable(rows), np.intp,
                                int(lengths.sum()))


def _assert_literals_match_rows(inst):
    """Every array view of `inst` equals one rebuilt from its rows, and
    the kept arrays are read-only int32."""
    lengths, flat = _fromiter_literals(inst)
    kept = inst._literals
    for got, want in zip(kept, (lengths, flat)):
        assert got.dtype == np.int32
        assert not got.flags.writeable
        assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 1
    assert inst.is_unate == all(lit > 0 for row in inst.rows for lit in row)
    assert inst.num_edges == sum(len(row) for row in inst.rows)
    assert inst.column_degrees() == np.bincount(
        np.abs(flat) - 1, minlength=inst.n_cols).tolist()
    if inst.is_unate:
        got_lengths, cols, row_of = unate_literals(inst)
        assert np.array_equal(got_lengths, lengths)
        assert np.array_equal(cols, flat - 1)
        assert np.array_equal(row_of, np.repeat(np.arange(lengths.size),
                                                lengths))
    else:
        with pytest.raises(UnateRequiredError, match="unate required"):
            unate_literals(inst)


def _kept_by_reader(inst):
    """`inst` after checking that its reader handed it the arrays."""
    assert "_literals" in vars(inst)
    return inst


def test_kept_literals_match_rows_for_every_maker(rs, tmp_path):
    made = []
    for _ in range(20):
        inst = random_instance(rs, n_max=12, m_max=12, deg_max=5,
                               weighted=rs.random() < 0.5)
        made += [inst, _with_signs(rs, inst)]
    # one block of clause lines, and several: 4096 lines a block
    for m_rows in (50, 4095, 4096, 4097, 9000):
        inst = gen_random_instance(m_rows, 40, 1, 5, seed=m_rows)
        made += [inst, _with_signs(rs, inst)]
    for inst in list(made):
        parsed = _kept_by_reader(parse_cnf(write_cnf(inst)))
        assert parsed.rows == inst.rows
        made.append(parsed)
        if inst.is_unate:
            text = "\n".join(" ".join(tokens)
                             for tokens in _orlib_lines(inst))
            for unit in (False, True):
                made.append(_kept_by_reader(
                    ingest_orlib(text, unit_weights=unit)))
            perm = tuple(rs.sample(range(1, inst.n_cols + 1), inst.n_cols))
            made.append(permute_columns(inst, perm))
            made.append(gen_isomorph(parsed, 3)[0])
        # a rewrap of new rows must not carry the old rows' arrays
        made.append(replace(parsed, rows=tuple(
            tuple(-lit for lit in row) for row in parsed.rows)))
        made.append(replace(parsed, rows=parsed.rows[::-1]))
    for inst in made:
        _assert_literals_match_rows(inst)

    path = tmp_path / "chvatal.cnfW"
    path.write_text(CHVATAL_TEXT)
    unit = _kept_by_reader(_load_instance(str(path), unit_weights=True))
    assert unit.weight_kind == UNIT
    _assert_literals_match_rows(unit)


def test_kept_literals_leave_equality_and_repr_alone():
    inst = gen_random_instance(30, 12, 1, 4, seed=4)
    parsed = parse_cnf(write_cnf(inst), name=inst.name)
    assert "_literals" in vars(parsed)
    assert parsed == inst
    assert repr(parsed) == repr(inst)
    assert hash(parsed) == hash(inst)


def test_every_maker_holds_literals_when_made(tmp_path):
    # no maker leaves the arrays to a later read
    inst = gen_random_instance(30, 12, 1, 4, seed=4)
    text = write_cnf(inst)
    orlib = "\n".join(" ".join(tokens) for tokens in _orlib_lines(inst))
    path = tmp_path / "chvatal.cnfW"
    path.write_text(CHVATAL_TEXT)
    makers = [
        lambda: BigraphInstance(inst.name, inst.n_cols, inst.m_rows,
                                inst.rows, inst.col_weights, inst.weight_kind),
        lambda: replace(inst, rows=inst.rows[::-1]),
        lambda: gen_random_instance(30, 12, 1, 4, seed=4),
        lambda: get_builtin("school_9_11"),
        lambda: parse_cnf(text),
        lambda: ingest_orlib(orlib),
        lambda: ingest_orlib(orlib, unit_weights=True),
        lambda: permute_columns(inst, tuple(range(inst.n_cols, 0, -1))),
        lambda: gen_isomorph(inst, 3)[0],
        lambda: _load_instance(str(path), unit_weights=True),
    ]
    for make in makers:
        made = make()
        assert "_literals" in vars(made)
        _assert_literals_match_rows(made)


@pytest.mark.parametrize("copy_of", [
    lambda inst: pickle.loads(pickle.dumps(inst)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"])
def test_copies_keep_literals_read_only(copy_of):
    inst = gen_random_instance(30, 12, 1, 4, seed=4)
    for original in (inst, parse_cnf(write_cnf(inst), name=inst.name)):
        copied = copy_of(original)
        assert copied == original
        _assert_literals_match_rows(copied)
        _assert_literals_match_rows(original)


def test_constructor_normalizes_literals():
    with pytest.raises(TypeError):
        BigraphInstance("x", 2, 1, ((1.5,),), (1.0, 1.0), UNIT)
    with pytest.raises(TypeError):
        BigraphInstance("x", 2, 1, (("1",),), (1.0, 1.0), UNIT)
    inst = BigraphInstance("x", 2, 2, ((np.int64(1), np.int32(-2)),
                                       (True, 2)), (1.0, 1.0), UNIT)
    assert inst.rows == ((1, -2), (1, 2))
    assert all(type(lit) is int for row in inst.rows for lit in row)
    assert parse_cnf(write_cnf(inst), name="x") == inst
    _assert_literals_match_rows(inst)


def test_instance_validation():
    with pytest.raises(ValueError, match="duplicate"):
        BigraphInstance(name="d", n_cols=2, m_rows=1, rows=((1, -1),),
                        col_weights=(1.0, 1.0), weight_kind=UNIT)
    with pytest.raises(ValueError, match="out of range"):
        BigraphInstance(name="r", n_cols=2, m_rows=1, rows=((3,),),
                        col_weights=(1.0, 1.0), weight_kind=UNIT)
    with pytest.raises(ValueError, match="nonpositive"):
        BigraphInstance(name="w", n_cols=1, m_rows=1, rows=((1,),),
                        col_weights=(0.0,), weight_kind=WEIGHTED)
    for w in (math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            BigraphInstance(name="w", n_cols=1, m_rows=1, rows=((1,),),
                            col_weights=(w,), weight_kind=WEIGHTED)
    with pytest.raises(ValueError, match="non-unit"):
        BigraphInstance(name="u", n_cols=1, m_rows=1, rows=((1,),),
                        col_weights=(2.0,), weight_kind=UNIT)
    with pytest.raises(ValueError, match="empty"):
        BigraphInstance(name="e", n_cols=1, m_rows=1, rows=((),),
                        col_weights=(1.0,), weight_kind=UNIT)
    for n_cols, m_rows in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            BigraphInstance(name="z", n_cols=n_cols, m_rows=m_rows,
                            rows=((1,),) * m_rows,
                            col_weights=(1.0,) * n_cols, weight_kind=UNIT)
    with pytest.raises(ValueError, match="expected 2 rows, got 1"):
        BigraphInstance(name="m", n_cols=1, m_rows=2, rows=((1,),),
                        col_weights=(1.0,), weight_kind=UNIT)
    with pytest.raises(ValueError, match="expected 2 weights, got 1"):
        BigraphInstance(name="c", n_cols=2, m_rows=1, rows=((1,),),
                        col_weights=(1.0,), weight_kind=UNIT)
    with pytest.raises(ValueError, match="unknown weight kind"):
        BigraphInstance(name="k", n_cols=1, m_rows=1, rows=((1,),),
                        col_weights=(1.0,), weight_kind="cnfX")


def test_orlib_minimal():
    inst = ingest_orlib(ORLIB_2X2, name="mini")
    assert inst.n_cols == 2
    assert inst.m_rows == 2
    assert inst.rows == ((1,), (1, 2))
    assert inst.col_weights == (3.0, 5.0)
    assert inst.weight_kind == WEIGHTED


def test_orlib_unit_override():
    weighted = ingest_orlib(ORLIB_2X2, name="mini")
    unit = ingest_orlib(ORLIB_2X2, name="mini", unit_weights=True)
    assert unit.rows == weighted.rows
    assert unit.col_weights == (1.0, 1.0)
    assert unit.weight_kind == UNIT


@pytest.mark.parametrize("text,fragment", [
    ("2 2\n3 5\n1 1\n", "truncated"),
    ("2 2\n3 5\n1 1\n2 1\n", "truncated"),
    ("2 2\n3 5\n1 3\n1 1\n", "out of range"),
    ("2 2\n3 5\n2 1 1\n1 2\n", "duplicate"),
    ("2 2\n3 x\n1 1\n2 1 2\n", "bad cost"),
    ("0 2\n", "positive"),
    ("1 1\n1\n1 1\n9\n", "trailing"),
    ("2 2\n3 inf\n1 1\n2 1 2\n", "non-finite"),
    ("2 2\nnan 5\n1 1\n2 1 2\n", "non-finite"),
    ("2 2\n3\n", "expected cost of column 2"),
])
def test_orlib_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        ingest_orlib(text)


@pytest.mark.parametrize("weight", ["inf", "nan"])
def test_parse_rejects_non_finite_weight(weight):
    with pytest.raises(ValueError):
        parse_cnf(f"p cnf 2 1\nw 1 {weight}\n1 2 0\n")


@pytest.mark.parametrize("weight", ["inf", "nan", "-inf"])
def test_parse_non_finite_weight_reports_line(weight):
    with pytest.raises(ParseError, match="^line 2: ") as info:
        parse_cnf(f"p cnf 2 1\nw 1 {weight}\n1 2 0\n")
    assert info.value.line_no == 2


@pytest.mark.parametrize("costs", ["-3 inf", "3 inf", "nan 5", "0 5"])
def test_orlib_unit_override_still_validates_costs(costs):
    text = f"2 2\n{costs}\n1 1\n2 1 2\n"
    for unit in (False, True):
        with pytest.raises(ValueError, match="column 1|column 2"):
            ingest_orlib(text, unit_weights=unit)


def test_orlib_roundtrips_through_cnf():
    inst = ingest_orlib(ORLIB_2X2, name="mini")
    assert parse_cnf(write_cnf(inst), name="mini") == inst


def test_orlib_header_order_is_rows_then_cols(rs):
    # the header reads "m n": 40 rows over 90 columns here
    m, n = 40, 90
    parts = [f"{m} {n}"] + [str(rs.randint(1, 100)) for _ in range(n)]
    for _ in range(m):
        deg = rs.randint(1, 5)
        cols = rs.sample(range(1, n + 1), deg)
        parts.append(str(deg))
        parts.extend(str(c) for c in cols)
    inst = ingest_orlib(" ".join(parts), name="synthetic")
    assert inst.m_rows == m
    assert inst.n_cols == n
    assert compute_stats(inst).m_dens <= 5 / n


# ---------------------------------------------------------------------------
# The readers against token-by-token references.
#
# `_reference_parse_cnf` and `_reference_ingest_orlib` are the readers as
# they were before they were vectorized: every token through `int()` or
# `float()` in a Python loop, one `seen` set per row, and the public
# constructor's full validation. The numpy readers must accept the same
# texts, return equal instances and raise the same exception, message and
# line number.


def _reference_parse_cnf(text: str, name: str = "instance") -> BigraphInstance:
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


def _reference_ingest_orlib(text: str, name: str = "orlib",
                            unit_weights: bool = False) -> BigraphInstance:
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
        costs = [1.0] * n_cols
    return BigraphInstance(name=name, n_cols=n_cols, m_rows=m_rows,
                           rows=tuple(clauses), col_weights=costs,
                           weight_kind=UNIT if unit_weights else WEIGHTED)


HYPOTHESIS = settings(max_examples=400, deadline=None, derandomize=True,
                      database=None)
FEWER = settings(HYPOTHESIS, max_examples=60)

# replacement tokens: int() and float() disagree on some, and the 25-digit
# ones do not fit int64
ODD_TOKENS = ["0", "x", "inf", "nan", "1_0", "1.5", "+2", "-0", "c", "w",
              "9" * 25, "-" + "9" * 25]


@st.composite
def valid_instances(draw, binate: bool = True, weighted: bool | None = None):
    """A valid instance of 1-8 columns and 1-8 rows, literals sorted by
    column as `write_cnf` writes them."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    rows = []
    for _ in range(m):
        cols = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
        signs = draw(st.lists(st.booleans() if binate else st.just(False),
                              min_size=len(cols), max_size=len(cols)))
        rows.append(tuple(-c if neg else c for c, neg in zip(cols, signs)))
    if weighted is None:
        weighted = draw(st.booleans())
    weights = (tuple(draw(st.lists(
        st.sampled_from([*WEIGHT_POOL, 1e-3, 7.0, 12345.678, 1 / 7]),
        min_size=n, max_size=n))) if weighted else (1.0,) * n)
    return BigraphInstance(name="h", n_cols=n, m_rows=m, rows=tuple(rows),
                           col_weights=weights,
                           weight_kind=WEIGHTED if weighted else UNIT)


def _orlib_lines(inst: BigraphInstance) -> list[list[str]]:
    lines = [[str(inst.m_rows), str(inst.n_cols)],
             [repr(w) for w in inst.col_weights]]
    for row in inst.rows:
        lines.append([str(len(row))] + [str(abs(c)) for c in row])
    return lines


def _cnf_lines(inst: BigraphInstance) -> list[list[str]]:
    return [line.split() for line in write_cnf(inst).splitlines()]


@st.composite
def mutated(draw, lines: list[list[str]], n: int, fixed: int):
    """The text of `lines` after up to three token or line mutations,
    joined with drawn spacing and line ends. Lines before `fixed` keep
    their tokens: a problem line counting 10^25 columns would make the
    reference build a tuple that large."""
    lines = [list(tokens) for tokens in lines]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "replace",
                                   "repeat", "terminator", "trail", "line"]))
        if op == "trail":
            lines[-1].append(draw(st.sampled_from(["1", "0", "x"])))
            continue
        if op == "line":
            at = draw(st.integers(fixed, len(lines)))
            lines.insert(at, draw(st.sampled_from(
                [[], ["c", "mid", "body"], ["c"], ["p", "cnf", "2", "2"],
                 ["w", "1", "2"], ["1", "0"], ["1", "-1", "0"],
                 [str(n + 1), "0"], ["1"]])))
            continue
        i = draw(st.integers(fixed, len(lines) - 1))
        row = lines[i]
        if not row:
            continue
        k = draw(st.integers(0, len(row) - 1))
        if op == "drop":
            del row[k]
        elif op == "duplicate":
            row.insert(k, row[k])
        elif op == "repeat":
            row.insert(draw(st.integers(0, len(row))), row[k])
        elif op == "swap":
            j = draw(st.integers(fixed, len(lines) - 1))
            if lines[j]:
                other = draw(st.integers(0, len(lines[j]) - 1))
                row[k], lines[j][other] = lines[j][other], row[k]
        elif op == "replace":
            row[k] = draw(st.sampled_from(
                [*ODD_TOKENS, str(n + 1), str(-n - 1), str(n)]))
        elif op == "terminator":
            row[-1] = draw(st.sampled_from(["5", "x", "00", "0 0"]))
    space = draw(st.sampled_from([" ", "  ", "\t", " \x0b"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\n\n", "\x1c"]))
    return end.join(space.join(tokens) for tokens in lines) + end


def _outcome(read, text: str):
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


def _assert_same_outcome(new, reference) -> None:
    assert new == reference
    if isinstance(new, BigraphInstance):
        assert new.name == reference.name
        assert type(new.rows) is tuple
        assert all(type(row) is tuple for row in new.rows)
        assert all(type(lit) is int for row in new.rows for lit in row)
        assert type(new.col_weights) is tuple
        assert all(type(w) is float for w in new.col_weights)
        assert replace(new) == new  # passes the public validation


@HYPOTHESIS
@given(st.data(), valid_instances(), st.sampled_from([1, 2, 3, 4096]),
       st.sampled_from([1, 5, 1 << 16]))
def test_parse_cnf_matches_reference(data, inst, block_lines, piece_chars):
    # small blocks and text pieces put their boundaries inside the text
    text = data.draw(mutated(_cnf_lines(inst), inst.n_cols, fixed=1))
    with patch.object(instances_module, "_BLOCK_LINES", block_lines), \
            patch.object(instances_module, "_PIECE_CHARS", piece_chars):
        new = _outcome(parse_cnf, text)
    _assert_same_outcome(new, _outcome(_reference_parse_cnf, text))


@pytest.mark.parametrize("text", [
    "p cnf 2 1\n1 0\n3 0\n", "p cnf 2 1\n1 0\n2 -2 0\n", "p cnf 2 1\n1 0\n1\n",
    "p cnf 2 1\n1 0\n0\n", "p cnf 2 1\n1 0\n2 0 1 0\n"])
def test_extra_clause_line_reports_its_own_fault_first(text):
    # the line past the declared count is checked before it is counted
    _assert_same_outcome(_outcome(parse_cnf, text),
                         _outcome(_reference_parse_cnf, text))
    assert "more than" not in str(_outcome(parse_cnf, text))


# tokens at the edges of the decimal kernel (`instances._decimals`): the
# most digits it reads and one more, signs it does not read, and digits
# int() reads (all but the superscript) that are not ASCII
EDGE_TOKENS = ["9" * 18, "-" + "9" * 18, "9" * 19, "0003", "-0", "-", "--1",
               "+3", "1_000", "\u0663", "\uff13", "\U0001d7d1", "\u00b3"]


@pytest.mark.parametrize("block_lines", [1, 3, 4096])
@pytest.mark.parametrize("line", [
    *(f"{token} 2 0" for token in EDGE_TOKENS),
    *(f"1 2 {token}" for token in EDGE_TOKENS),
    "c a comment between plain clauses"])
def test_parse_cnf_reads_edge_tokens_as_reference(line, block_lines):
    # the edge line sits among plain clauses, in a block of its own or in
    # one the kernel would read whole
    plain = [f"{j} -{j + 1} 0" for j in range(1, 9)]
    m = len(plain) + (line[0] != "c")
    text = "\n".join([f"p cnf 9 {m}", *plain[:4], line, *plain[4:]]) + "\n"
    with patch.object(instances_module, "_BLOCK_LINES", block_lines):
        new = _outcome(parse_cnf, text)
    _assert_same_outcome(new, _outcome(_reference_parse_cnf, text))


def _one_int_per_literal(inst: BigraphInstance) -> bool:
    literals = [lit for row in inst.rows for lit in row]
    return len(set(map(id, literals))) == len(set(literals))


def _steiner_text(k: int) -> str:
    """AG(k, 3) as the benchmark writes it, from `perfbench/inputs.py`
    loaded by file path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.steiner_instance(k, 0)[1]


def _wide_binate_text() -> str:
    """Rows of 1-5 binate literals over 40 columns spread across 10^5: the
    range of the literals is wider than their count."""
    rng = np.random.default_rng(3)
    pool = rng.choice(10**5, 40, replace=False) + 1
    rows = tuple(tuple(int(c) * sign for c, sign in zip(
        rng.choice(pool, rng.integers(1, 6), replace=False),
        rng.choice([-1, 1], 5))) for _ in range(200))
    return write_cnf(BigraphInstance(name="wide", n_cols=10**5, m_rows=200,
                                     rows=rows, col_weights=(1.0,) * 10**5,
                                     weight_kind=UNIT))


@pytest.mark.parametrize("text", [
    pytest.param(lambda: _steiner_text(5), id="AG(5,3)"),
    pytest.param(lambda: write_cnf(gen_random_instance(3000, 400, 1, 8,
                                                       seed=5)),
                 id="random-3000x400"),
    pytest.param(_wide_binate_text, id="wide-binate")])
def test_parse_cnf_matches_reference_at_paper_scale(text):
    # rows of one length (AG), rows of mixed lengths, and literals spread
    # wider than their count: the three ways through `_rows_of`
    text = text()
    new = parse_cnf(text)
    _assert_same_outcome(new, _reference_parse_cnf(text))
    assert _one_int_per_literal(new)


def _wide_orlib_text() -> str:
    """An OR-library text over 600 columns, most of them past the ints
    CPython caches (up to 256)."""
    rng = np.random.default_rng(5)
    rows = [rng.choice(600, rng.integers(1, 9), replace=False) + 1
            for _ in range(2000)]
    return "\n".join(["2000 600", " ".join(["1"] * 600)]
                     + [f"{len(row)} " + " ".join(map(str, row))
                        for row in rows])


@pytest.mark.parametrize("read", [
    pytest.param(lambda: parse_cnf(_steiner_text(6)), id="AG(6,3)"),
    pytest.param(lambda: ingest_orlib(_wide_orlib_text()), id="orlib-600")])
def test_rows_share_one_int_per_literal_across_the_instance(read):
    # AG(6,3) has 88452 rows over 729 columns
    inst = read()
    assert "rows" not in vars(inst)
    assert _one_int_per_literal(inst)


@pytest.mark.parametrize("read", [
    lambda: parse_cnf(CHVATAL_TEXT, name="chvatal"),
    lambda: parse_cnf(BINATE_TEXT),
    lambda: parse_cnf(write_cnf(gen_random_instance(300, 40, 1, 6, 2))),
    lambda: ingest_orlib(ORLIB_2X2),
    lambda: ingest_orlib(_wide_orlib_text(), unit_weights=True),
    lambda: gen_random_instance(300, 40, 1, 6, 2)],
    ids=["cnfW", "binate", "cnfU", "orlib", "orlib-unit", "random"])
def test_rows_made_on_first_read_leave_every_result_alone(read):
    read_first = read()
    rows = read_first.rows
    assert vars(read_first)["rows"] is rows
    assert read_first.rows is rows  # made once
    results = [
        ("==", lambda inst: (inst == read_first, read_first == inst)),
        ("hash", hash),
        ("repr", repr),
        ("pickle", lambda inst: pickle.loads(pickle.dumps(inst))),
        ("deepcopy", copy.deepcopy),
        ("copy", copy.copy),
        ("replace", replace),
        ("rewrap", lambda inst: BigraphInstance._trusted(**vars(inst))),
    ]
    for what, result in results:
        unread = read()
        assert "rows" not in vars(unread)
        got, want = result(unread), result(read_first)
        assert got == want, what
        assert type(got) is type(want), what
        if isinstance(got, BigraphInstance):
            assert got.name == want.name
            _assert_literals_match_rows(got)
    assert read() == BigraphInstance(read_first.name, read_first.n_cols,
                                     read_first.m_rows, rows,
                                     read_first.col_weights,
                                     read_first.weight_kind)


@HYPOTHESIS
@given(st.data(), valid_instances(binate=False), st.booleans())
def test_ingest_orlib_matches_reference(data, inst, unit):
    text = data.draw(mutated(_orlib_lines(inst), inst.n_cols, fixed=0))
    new = _outcome(lambda t: ingest_orlib(t, unit_weights=unit), text)
    reference = _outcome(
        lambda t: _reference_ingest_orlib(t, unit_weights=unit), text)
    _assert_same_outcome(new, reference)


@FEWER
@given(valid_instances(binate=False))
def test_ingest_orlib_reads_written_instance(inst):
    text = "\n".join(" ".join(tokens) for tokens in _orlib_lines(inst))
    weighted = ingest_orlib(text, name="h")
    assert weighted.rows == inst.rows
    assert weighted.col_weights == inst.col_weights
    _assert_same_outcome(weighted, _reference_ingest_orlib(text, name="h"))


@pytest.mark.parametrize("binate", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
@FEWER
@given(data=st.data())
def test_cnf_roundtrip_property(binate, weighted, data):
    inst = data.draw(valid_instances(binate=binate, weighted=weighted))
    _assert_same_outcome(parse_cnf(write_cnf(inst), name=inst.name), inst)


def test_space_table_is_python_whitespace():
    table = instances_module._SPACE
    assert table[:-1].tolist() == [chr(c).isspace()
                                   for c in range(table.size - 1)]
    assert not table[-1]
    assert not any(chr(c).isspace() for c in range(table.size - 1, 0x110000))


@pytest.mark.parametrize("wide", [False, True])
def test_repeats_by_row_then_column(wide):
    # the wide columns leave no room for a row * span + column int64 key
    big, bigger = (2**61, 2**62) if wide else (61, 62)
    cols = np.array([bigger, 5, bigger, -5, 3, big, 7, 7], dtype=np.int64)
    row_of = np.array([0, 0, 0, 0, 1, 1, 2, 2])
    skip = np.zeros(cols.size, dtype=bool)
    skip[6:] = True
    repeat, order = instances_module._repeats(cols, row_of, skip)
    assert repeat.tolist() == [False, False, True, True, False, False,
                               False, False]
    assert order.tolist() == [1, 3, 0, 2, 4, 5, 6, 7]


@pytest.mark.parametrize("read", [
    lambda: parse_cnf("p cnf 10000000000 1\n1 0\n"),
    lambda: parse_cnf("p cnf 2147483648 1\n1 0\n"),
    lambda: ingest_orlib("1 10000000000\n1\n1 1\n"),
    lambda: BigraphInstance(name="wide", n_cols=2**31, m_rows=1,
                            rows=((1,),), col_weights=(1.0,),
                            weight_kind=UNIT),
    lambda: gen_random_instance(1, 2**31, 1, 1, 0),
])
def test_column_counts_past_the_cap_are_refused_before_allocation(read):
    # a column count sizes the weights and the CSR, whose sort key is
    # int32: the count is refused before anything is sized by it
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceed the limit of "
                                             "2147483647"):
            read()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
