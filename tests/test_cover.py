import dataclasses
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from bglab.cover import (brute_force_cover, chvatal_upper_bound, cover_value,
                         enumerate_achievable_solutions,
                         enumerate_achievable_values, greedy_basic,
                         greedy_iso, greedy_stoc, harmonic, harmonic_bound,
                         verify_cover)
from bglab.generators import (gen_random_instance, isomorph_permutation,
                              permute_columns, seeded_rng)
from bglab.instances import (UNIT, WEIGHTED, BigraphInstance,
                             UnateRequiredError, compute_stats, parse_cnf)
from bglab.library import (chvatal_6_5, school_5_5_iso, school_5_5_ref,
                           school_9_11, two_optima)

from conftest import random_instance

TINY = parse_cnf("p cnf 1 1\n1 0\n")
CHVATAL_VALUE = 1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5


def test_greedy_chvatal():
    sol = greedy_basic(chvatal_6_5())
    assert sol.value == pytest.approx(CHVATAL_VALUE, abs=1e-9)
    assert sol.n_ops == 5
    assert sol.coord == (1, 1, 1, 1, 1, 0)
    assert sol.replica_id == 0


def test_greedy_tiny():
    sol = greedy_basic(TINY)
    assert sol.coord == (1,)
    assert sol.value == 1.0
    assert sol.n_ops == 1


def test_greedy_school_5_5():
    assert greedy_basic(school_5_5_ref()).value == 3.0
    assert greedy_basic(school_5_5_ref()).coord == (1, 1, 1, 0, 0)
    assert greedy_basic(school_5_5_iso()).value == 2.0


def test_greedy_rejects_binate():
    binate = parse_cnf("p cnf 2 1\n1 -2 0\n")
    for call in (lambda: greedy_basic(binate),
                 lambda: greedy_stoc(binate, 1),
                 lambda: greedy_iso(binate, 1)):
        with pytest.raises(UnateRequiredError):
            call()


def test_stoc_chvatal_never_varies():
    values = {greedy_stoc(chvatal_6_5(), rid).value for rid in range(25)}
    assert len(values) == 1
    assert values.pop() == pytest.approx(CHVATAL_VALUE, abs=1e-9)


def test_stoc_replica_zero_is_basic(rs):
    for _ in range(30):
        inst = random_instance(rs, weighted=rs.random() < 0.5)
        base = greedy_basic(inst)
        assert greedy_stoc(inst, 0) == base
        assert greedy_iso(inst, 0) == base


def test_stoc_two_optima_frequencies():
    inst = two_optima()
    counts = Counter(greedy_stoc(inst, rid).coord for rid in range(1, 10001))
    assert set(counts) == {(1, 0, 0), (0, 1, 0)}
    for coord in counts:
        assert abs(counts[coord] / 10000 - 0.5) <= 0.02


def test_stoc_deterministic_per_replica(rs):
    inst = random_instance(rs, n_max=6, m_max=6)
    for rid in (1, 2, 77):
        assert greedy_stoc(inst, rid) == greedy_stoc(inst, rid)
        assert greedy_iso(inst, rid) == greedy_iso(inst, rid)


def test_iso_reports_reference_coord(rs):
    # iso solutions must verify against the *reference* instance
    for rid in (1, 2, 3, 9):
        inst = random_instance(rs, n_max=7, m_max=7, weighted=True)
        sol = greedy_iso(inst, rid)
        assert verify_cover(inst, sol.coord)
        assert sol.value == pytest.approx(
            cover_value(sol.coord, inst.col_weights), abs=0)
        assert sol.n_ops == sum(sol.coord)


def test_iso_value_set_matches_enumeration(rs):
    # exhaustive permutations against exhaustive tie-break branching
    for _ in range(25):
        inst = random_instance(rs, n_max=4, m_max=5, n_min=2)
        perm_values = set()
        for perm in itertools.permutations(range(1, inst.n_cols + 1)):
            permuted = permute_columns(inst, perm)
            perm_values.add(greedy_basic(permuted).value)
        assert perm_values == enumerate_achievable_values(inst)


def test_harmonic():
    assert harmonic(1) == 1.0
    assert harmonic(6) == pytest.approx(2.45, abs=1e-12)
    assert harmonic(18) == pytest.approx(3.4951080781963135, abs=1e-12)
    with pytest.raises(ValueError):
        harmonic(0)


def test_chvatal_upper_bound_values():
    assert chvatal_upper_bound(18, 13) == pytest.approx(57.24, abs=0.01)
    assert chvatal_upper_bound(1.1, 5) == pytest.approx(2.5117, abs=1e-4)
    for x in (0.5, 1.0, 7.25):
        assert chvatal_upper_bound(x, 1) == x
    with pytest.raises(ValueError):
        chvatal_upper_bound(0, 3)
    bound = harmonic_bound(1.1, 5)
    assert bound.d == 5
    assert bound.h_d == pytest.approx(CHVATAL_VALUE, abs=1e-12)
    assert bound.ub == pytest.approx(2.5117, abs=1e-4)


def test_verify_cover():
    assert verify_cover(TINY, (1,))
    assert verify_cover(chvatal_6_5(), (0, 0, 0, 0, 0, 1))
    assert cover_value((0, 0, 0, 0, 0, 1),
                       chvatal_6_5().col_weights) == pytest.approx(1.1)
    assert not verify_cover(chvatal_6_5(), (0,) * 6)
    assert not verify_cover(chvatal_6_5(), (1, 1, 1, 1, 0, 0))
    with pytest.raises(ValueError, match="length"):
        verify_cover(TINY, (1, 0))


def test_brute_force_chvatal():
    value, coord = brute_force_cover(chvatal_6_5())
    assert value == pytest.approx(1.1)
    assert coord == (0, 0, 0, 0, 0, 1)


def test_brute_force_tiny():
    assert brute_force_cover(TINY) == (1.0, (1,))


def test_brute_force_lexicographic_ties():
    value, coord = brute_force_cover(two_optima())
    assert value == 1.0
    assert coord == (0, 1, 0)  # (0,1,0) < (1,0,0)


def test_brute_force_column_limit():
    inst = BigraphInstance(name="wide", n_cols=25, m_rows=1,
                           rows=(tuple(range(1, 26)),),
                           col_weights=(1.0,) * 25, weight_kind=UNIT)
    with pytest.raises(ValueError, match="24-column"):
        brute_force_cover(inst)


def test_enumerate_chvatal_single_value():
    values = enumerate_achievable_values(chvatal_6_5())
    assert len(values) == 1
    assert values.pop() == pytest.approx(CHVATAL_VALUE, abs=1e-9)


def test_enumerate_two_optima():
    solutions = enumerate_achievable_solutions(two_optima())
    assert {coord for coord, _ in solutions} == {(1, 0, 0), (0, 1, 0)}
    assert {value for _, value in solutions} == {1.0}


def test_enumerate_school_5_5():
    assert enumerate_achievable_values(school_5_5_ref()) == {2.0, 3.0}


def test_enumerate_column_limit():
    inst = BigraphInstance(name="wide", n_cols=9, m_rows=1,
                           rows=(tuple(range(1, 10)),),
                           col_weights=(1.0,) * 9, weight_kind=UNIT)
    with pytest.raises(ValueError, match="8-column"):
        enumerate_achievable_solutions(inst)


def test_feasibility_dominance_and_bound(rs):
    # every greedy output covers; optimum <= greedy <= H(mCD) * optimum
    for _ in range(120):
        weighted = rs.random() < 0.5
        inst = random_instance(rs, n_max=9, m_max=8, weighted=weighted)
        optimum, opt_coord = brute_force_cover(inst)
        assert verify_cover(inst, opt_coord)
        m_cd = compute_stats(inst).m_cd
        for sol in (greedy_basic(inst), greedy_stoc(inst, rs.randint(1, 999)),
                    greedy_iso(inst, rs.randint(1, 999))):
            assert verify_cover(inst, sol.coord)
            assert sol.n_ops == sum(sol.coord)
            assert sol.n_ops <= inst.m_rows
            assert sol.value >= optimum - 1e-9
            assert sol.value <= harmonic(m_cd) * optimum + 1e-9


def test_stoc_samples_fall_in_achievable_set(rs):
    for _ in range(15):
        inst = random_instance(rs, n_max=6, m_max=6, weighted=True)
        achievable = enumerate_achievable_values(inst)
        sampled = {greedy_stoc(inst, rid).value for rid in range(1, 201)}
        assert sampled <= achievable


def test_school_9_11_support_and_two_optima():
    inst = school_9_11()
    sampled = {greedy_stoc(inst, rid).value for rid in range(1, 2001)}
    assert sampled == {4.0, 5.0, 6.0}
    value, _ = brute_force_cover(inst)
    assert value == 4.0
    # no 3-column subset can reach 11 rows (degrees cap at 3); exactly two
    # 4-column covers exist
    covers = [subset for subset in itertools.combinations(range(1, 10), 4)
              if verify_cover(inst, tuple(1 if c in subset else 0
                                          for c in range(1, 10)))]
    assert len(covers) == 2


def test_engine_paths_agree_exactly(rs, monkeypatch):
    # the bitmask and vectorized inner loops must make identical picks
    import bglab.cover as cover_mod
    from bglab.generators import seeded_rng

    insts = [random_instance(rs, n_max=9, m_max=9,
                             weighted=rs.random() < 0.5) for _ in range(40)]
    smalls = [cover_mod._Engine(inst) for inst in insts]
    monkeypatch.setattr(cover_mod, "_SMALL_COLS", 0)
    bigs = [cover_mod._Engine(inst) for inst in insts]
    for small, big in zip(smalls, bigs):
        assert small.small and not big.small
        for rid in (0, 1, 2, 5):
            for tol in (0.0, 1e-9):
                rng_a = None if rid == 0 else seeded_rng(rid)
                rng_b = None if rid == 0 else seeded_rng(rid)
                assert small.run(rng_a, tol) == big.run(rng_b, tol)


def _rows_of_col(inst):
    rows_of_col = [[] for _ in range(inst.n_cols)]
    for r, clause in enumerate(inst.rows):
        for lit in clause:
            rows_of_col[lit - 1].append(r)
    return rows_of_col


def _assert_csr_matches(engine, inst):
    rows_of_col = _rows_of_col(inst)
    for j, rows in enumerate(rows_of_col):
        start, stop = engine.col_ptr[j], engine.col_ptr[j + 1]
        assert engine.col_rows[start:stop].tolist() == rows
    assert engine.degrees0.tolist() == [len(rows) for rows in rows_of_col]
    assert [cs.tolist() for cs in engine.cols_of_row] == \
        [[lit - 1 for lit in clause] for clause in inst.rows]
    assert np.array_equal(engine.weights, inst.col_weights)


def test_engine_build_matches_loop_reference(rs, monkeypatch):
    # the array-built engine data equal a plain per-literal loop build
    import bglab.cover as cover_mod

    insts = [random_instance(rs, n_max=20, m_max=70, deg_max=6,
                             weighted=rs.random() < 0.5) for _ in range(20)]
    for inst in insts:
        small = cover_mod._Engine(inst)
        assert small.col_masks == [sum(1 << r for r in rows)
                                   for rows in _rows_of_col(inst)]
        assert small.full == (1 << inst.m_rows) - 1
    # more than 2^16 columns takes the 32-bit sort keys
    wide = gen_random_instance(30, 70000, 1, 4, seed=2)
    _assert_csr_matches(cover_mod._Engine(wide), wide)
    monkeypatch.setattr(cover_mod, "_SMALL_COLS", 0)
    for inst in insts:
        _assert_csr_matches(cover_mod._Engine(inst), inst)


def test_wide_instance_uses_vectorized_path(rs):
    # > 128 columns routes through the vectorized loop via the public API
    from bglab.experiments import run_cover_distribution
    from bglab.generators import gen_random_instance

    inst = gen_random_instance(40, 200, 2, 6, seed=99)
    sol = greedy_basic(inst)
    assert verify_cover(inst, sol.coord)
    for solver in ("stoc", "iso"):
        summary = run_cover_distribution(inst, 30, solver, "consecutive")
        assert sum(summary.value_histogram.values()) == 30
        assert summary.stats.min >= 1.0
    for rid in (1, 5):
        assert verify_cover(inst, greedy_stoc(inst, rid).coord)
        assert verify_cover(inst, greedy_iso(inst, rid).coord)


def test_tie_tolerance_widens_tie_sets():
    # two covering columns whose rates differ only in the 12th digit
    inst = BigraphInstance(
        name="near_tie", n_cols=2, m_rows=2,
        rows=((1, 2), (1, 2)),
        col_weights=(1.0, 1.0 + 1e-12), weight_kind=WEIGHTED)
    assert enumerate_achievable_values(inst) == {1.0}
    widened = enumerate_achievable_values(inst, tie_tol=1e-9)
    assert widened == {1.0, 1.0 + 1e-12}
    coords = {greedy_stoc(inst, rid, tie_tol=1e-9).coord
              for rid in range(1, 60)}
    assert coords == {(1, 0), (0, 1)}
    assert greedy_stoc(inst, 3, tie_tol=0.0).coord == (1, 0)


@pytest.mark.parametrize("force_large", [False, True])
def test_iso_equals_permute_then_basic(rs, monkeypatch, force_large):
    # an iso replica is greedy_basic on the permuted instance, mapped back
    import bglab.cover as cover_mod

    if force_large:
        monkeypatch.setattr(cover_mod, "_SMALL_COLS", 0)
    insts = [random_instance(rs, n_max=12, m_max=12,
                             weighted=rs.random() < 0.5) for _ in range(30)]
    insts += [gen_random_instance(30, 60, 2, 8, seed=s) for s in (1, 2)]
    for inst in insts:
        for rid in (0, 1, 2, 7):
            perm = isomorph_permutation(inst.n_cols, rid)
            permuted = permute_columns(inst, perm)
            for tol in (0.0, 1e-9):
                iso = greedy_iso(inst, rid, tol)
                basic = greedy_basic(permuted, tol)
                back = [0] * inst.n_cols
                for idx, picked in enumerate(basic.coord):
                    if picked:
                        back[perm[idx] - 1] = 1
                assert iso.coord == tuple(back)
                assert iso.n_ops == basic.n_ops
                assert iso.value == cover_value(back, inst.col_weights)


@pytest.fixture(scope="module")
def large_instances():
    unit = gen_random_instance(300, 3000, 100, 200, seed=3)
    weights = tuple(float(w) for w
                    in seeded_rng(11).integers(1, 101, size=3000))
    return {"unit": unit,
            "weighted": dataclasses.replace(unit, col_weights=weights,
                                            weight_kind=WEIGHTED),
            "sparse": gen_random_instance(1000, 1000, 2, 6, seed=5)}


# sha256 of repr([(coord, value.hex(), n_ops)]) over replicas 0..7 on the
# vectorized path; any change to picks, tie order or summation moves them
LARGE_PATH_DIGESTS = {
    ("unit", "stoc"):
        "a108aa4f7461e849620c3a548887cee0814ca3f2860d28881deb143d6cf975b2",
    ("unit", "iso"):
        "02b7baf3adf7a8a1659c441df0fd8dd6d62a24f04b8035a812e3020a75f3eda3",
    ("weighted", "stoc"):
        "c9daa2dd66c68603139f3611f9dfd3a277d57335375177f52098d6963fe2221c",
    ("weighted", "iso"):
        "93440b21d291ef6cc2ec4751cedcf9e78e0bd0e52e734da1171e4f63126c245f",
    ("sparse", "stoc"):
        "8243f472981cc220630f418bb882d733d3d595470bce081ac2bef32d992582d6",
    ("sparse", "iso"):
        "1bbdf3579214f5693278c54f4dfab02f2c848a163bea9f77e588278969d7df27",
}


@pytest.mark.parametrize("name,solver", sorted(LARGE_PATH_DIGESTS))
def test_large_path_outputs_pinned(large_instances, name, solver):
    inst = large_instances[name]
    fn = {"stoc": greedy_stoc, "iso": greedy_iso}[solver]
    sols = [fn(inst, rid) for rid in range(8)]
    digest = hashlib.sha256(repr(
        [(s.coord, s.value.hex(), s.n_ops) for s in sols]).encode()
    ).hexdigest()
    assert digest == LARGE_PATH_DIGESTS[name, solver]
