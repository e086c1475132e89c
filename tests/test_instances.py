import math

import numpy as np
import pytest

from bglab.instances import (UNIT, WEIGHTED, BigraphInstance, ParseError,
                             UnateRequiredError, compute_stats, ingest_orlib,
                             parse_cnf, to_incidence_matrix, write_cnf)
from bglab.library import chvatal_6_5

from conftest import random_instance

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
