import hashlib
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bglab.bench import matching_task
from bglab.generators import gen_random_instance
from bglab.instances import (UNIT, BigraphInstance, UnateRequiredError,
                             parse_cnf, write_cnf)
from bglab.library import chvatal_6_5, school_9_11
from bglab.matching import brute_force_matching, max_matching

from conftest import random_instance

TINY = parse_cnf("p cnf 1 1\n1 0\n")
PERFBENCH_INPUTS = (Path(__file__).resolve().parents[1] / "perfbench"
                    / "inputs.py")


def unit_instance(rows, n):
    return BigraphInstance(name="t", n_cols=n, m_rows=len(rows),
                           rows=tuple(rows), col_weights=(1.0,) * n,
                           weight_kind=UNIT)


def no_augmenting_path(instance, pairs):
    """Independent optimality certificate: BFS over alternating paths from
    every unmatched column must not reach a free row."""
    row_to_col = {r - 1: c - 1 for r, c in pairs}
    col_matched = set(row_to_col.values())
    rows_of_col = [[] for _ in range(instance.n_cols)]
    for r, clause in enumerate(instance.rows):
        for lit in clause:
            rows_of_col[lit - 1].append(r)
    for start in range(instance.n_cols):
        if start in col_matched:
            continue
        frontier = [start]
        seen_rows = set()
        while frontier:
            nxt = []
            for col in frontier:
                for r in rows_of_col[col]:
                    if r in seen_rows:
                        continue
                    seen_rows.add(r)
                    if r not in row_to_col:
                        return False  # augmenting path exists
                    nxt.append(row_to_col[r])
            frontier = nxt
    return True


def test_chvatal_matching():
    result = max_matching(chvatal_6_5())
    assert result.size == 5
    assert result.m_p == pytest.approx(5 / 6)
    assert brute_force_matching(chvatal_6_5()) == 5


def test_tiny_matching():
    result = max_matching(TINY)
    assert result.size == 1
    assert result.m_p == 1.0
    assert result.pairs == ((1, 1),)
    assert brute_force_matching(TINY) == 1


def test_complete_2x2():
    inst = unit_instance([(1, 2), (1, 2)], 2)
    assert max_matching(inst).size == 2
    assert brute_force_matching(inst) == 2


def test_school_9_11_saturates_columns():
    result = max_matching(school_9_11())
    assert result.size == 9
    assert result.m_p == 1.0


def test_pairs_are_disjoint_edges(rs):
    for _ in range(100):
        inst = random_instance(rs, n_max=8, m_max=8)
        result = max_matching(inst)
        rows_seen = set()
        cols_seen = set()
        for r, c in result.pairs:
            assert r not in rows_seen
            assert c not in cols_seen
            rows_seen.add(r)
            cols_seen.add(c)
            assert c in inst.rows[r - 1]
        assert len(result.pairs) == result.size
        assert result.m_p == result.size / inst.n_cols
        assert result.size <= min(inst.n_cols, inst.m_rows)


def test_matching_equals_oracle(rs):
    for _ in range(150):
        inst = random_instance(rs, n_max=7, m_max=7)
        if inst.num_edges > 24:
            continue
        assert max_matching(inst).size == brute_force_matching(inst)


def test_no_augmenting_path_certificate(rs):
    for _ in range(60):
        inst = random_instance(rs, n_max=8, m_max=8)
        result = max_matching(inst)
        assert no_augmenting_path(inst, result.pairs)


def test_column_saturating_family(rs):
    # every column gets a private row, so all columns can be matched
    for _ in range(20):
        n = rs.randint(2, 8)
        rows = [(c,) for c in range(1, n + 1)]
        for _ in range(rs.randint(0, 5)):
            deg = rs.randint(1, min(3, n))
            rows.append(tuple(sorted(rs.sample(range(1, n + 1), deg))))
        inst = unit_instance(rows, n)
        assert max_matching(inst).m_p == 1.0


def test_matching_deterministic():
    inst = school_9_11()
    assert max_matching(inst) == max_matching(inst)


def test_matching_rejects_binate():
    binate = parse_cnf("p cnf 2 1\n1 -2 0\n")
    with pytest.raises(UnateRequiredError):
        max_matching(binate)
    with pytest.raises(UnateRequiredError):
        brute_force_matching(binate)


def test_brute_force_edge_limit():
    inst = unit_instance([tuple(range(1, 6))] * 5, 5)  # 25 edges
    with pytest.raises(ValueError, match="24-edge"):
        brute_force_matching(inst)


def test_deep_augmenting_chain():
    # chain forces reassignment cascades and deep alternating paths
    n = 400
    rows = [(1,)] + [(c, c + 1) for c in range(1, n)]
    inst = unit_instance(rows, n)
    assert max_matching(inst).size == n


def scipy_matching_size(instance):
    """Matching size from scipy's Hopcroft-Karp, an independent solver."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import csr_matrix
    indices = [lit - 1 for clause in instance.rows for lit in clause]
    indptr = [0]
    for clause in instance.rows:
        indptr.append(indptr[-1] + len(clause))
    graph = csr_matrix(([1] * len(indices), indices, indptr),
                              shape=(instance.m_rows, instance.n_cols))
    perm = csgraph.maximum_bipartite_matching(graph, perm_type="column")
    return int((perm != -1).sum())


@pytest.mark.parametrize("exp", range(6, 13))
def test_matching_size_equals_scipy(exp):
    m = 2 ** exp
    # narrow, square-ish and wide column sides, sparse and denser rows
    shapes = [(m // 2, 1, 3), (m, 1, 2), (2 * m, 1, 4), (m // 8, 2, 5)]
    for seed, (n, deg_min, deg_max) in enumerate(shapes, start=exp):
        inst = gen_random_instance(m, n, deg_min, deg_max, seed)
        result = max_matching(inst)
        assert result.size == scipy_matching_size(inst)
        assert no_augmenting_path(inst, result.pairs)


@pytest.mark.parametrize("exp,digest", [
    (10, "33aeb812fcb59db93709203ea58f3c4da93c872a801d87b611ed1a3cfea6806e"),
    (12, "986426312b7b69756424d6f9a2349f31fe2c5ecc8db737be424cbd3f27365ce9"),
])
def test_matching_pairs_pinned(exp, digest):
    # the search order (ascending columns, ascending rows) fixes which of
    # the maximum matchings is returned; these digests pin it
    pairs = max_matching(matching_task(0).read(2 ** exp)).pairs
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


def _steiner_instance(k, seed):
    """AG(k, 3) as the benchmark makes it, from `perfbench/inputs.py`
    loaded by file path."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    name, text, _ = inputs.steiner_instance(k, seed)
    return parse_cnf(text, name=name)


@pytest.mark.parametrize("k,digest", [
    (3, "d9955130906dafcff8b41b37fd4e55ab84c60a3daca2c784abff68f7ea927499"),
    (4, "b37d94df4edef6e22d12519b2d67927c40395ddd8c15a060b5b66893704180ca"),
    (5, "93ab45534d5d306017bf2926a517847e008905528d3a49f561bad21642f61b8a"),
])
def test_steiner_matching_pairs_pinned(k, digest):
    # on AG(k, 3) a column's first row is often still free, so the search's
    # first step decides about half the columns; these digests pin it
    pairs = max_matching(_steiner_instance(k, 0)).pairs
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


@st.composite
def unate_instances(draw):
    """A unate unit instance of 1-12 columns and 1-16 rows of 1-4
    columns each."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 16))
    rows = tuple(tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1,
                                           max_size=4))))
                 for _ in range(m))
    return unit_instance(rows, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(unate_instances())
def test_matching_size_equals_hopcroft_karp(inst):
    # the instance as built makes its literal arrays from its rows; the
    # parsed copy gets the arrays its reader checked
    result = max_matching(inst)
    assert max_matching(parse_cnf(write_cnf(inst))) == result
    assert result.size == scipy_matching_size(inst) == len(result.pairs)
    assert no_augmenting_path(inst, result.pairs)
    rows = [r for r, _ in result.pairs]
    assert rows == sorted(set(rows))
    assert len({c for _, c in result.pairs}) == result.size
    assert all(c in inst.rows[r - 1] for r, c in result.pairs)
