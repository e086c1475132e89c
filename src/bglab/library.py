"""Bundled small instances used across reports and tests.

`school_9_11` is a reconstruction fixed to the published characteristics of
the original benchmark file (9 columns, 11 rows, 24 edges, max column
degree 3, optimum 4 with exactly two minimum covers, greedy outcome
distribution 1/3 : 1/2 : 1/6 over the values {4, 5, 6}); the original file
is not bundled, so the row layout here is our own.
"""

from __future__ import annotations

from dataclasses import replace

from .instances import UNIT, WEIGHTED, BigraphInstance


def chvatal_6_5() -> BigraphInstance:
    """Worst-case greedy construction: five rows {i, 6}, harmonic weights.

    The deterministic greedy picks the five singleton columns (value
    1 + 1/2 + 1/3 + 1/4 + 1/5), while column 6 alone covers everything at
    weight 1.1.
    """
    return BigraphInstance(
        name="chvatal_6_5", n_cols=6, m_rows=5,
        rows=((1, 6), (2, 6), (3, 6), (4, 6), (5, 6)),
        col_weights=(1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1.1),
        weight_kind=WEIGHTED)


def school_5_5_ref() -> BigraphInstance:
    """5 applicants x 5 classes, natural interview order.

    The deterministic greedy needs 3 columns (2, 1, 3); the optimum is the
    2-column cover {1, 3}.
    """
    return BigraphInstance(
        name="school_5_5_ref", n_cols=5, m_rows=5,
        rows=((1, 4), (1, 2, 5), (2, 3), (2, 3, 4), (3, 5)),
        col_weights=(1.0,) * 5, weight_kind=UNIT)


SCHOOL_5_5_ISO_PERM = (1, 4, 3, 5, 2)


def school_5_5_iso() -> BigraphInstance:
    """The school_5_5 isomorph with columns in interview order (1,4,3,5,2).

    On this representation the deterministic greedy finds the optimum in two
    picks.
    """
    from .generators import permute_columns

    return replace(permute_columns(school_5_5_ref(), SCHOOL_5_5_ISO_PERM),
                   name="school_5_5_iso")


def school_9_11() -> BigraphInstance:
    """Reconstruction of the 9-instructor x 11-subject covering example."""
    return BigraphInstance(
        name="school_9_11__0", n_cols=9, m_rows=11,
        rows=((3, 5, 8), (1, 2, 5), (6, 7), (4, 7, 9), (2,), (4,),
              (3, 8), (6, 7, 9), (4,), (6, 9), (2, 3, 5)),
        col_weights=(1.0,) * 9, weight_kind=UNIT)


def two_optima() -> BigraphInstance:
    """Two interchangeable covering columns; the tie decides the optimum.

    Columns 1 and 2 both cover every row at equal weight, so the greedy
    picks either with probability 1/2; the two one-column optima are the
    only minimum covers.
    """
    return BigraphInstance(
        name="two_optima_3_2", n_cols=3, m_rows=2,
        rows=((1, 2, 3), (1, 2)),
        col_weights=(1.0,) * 3, weight_kind=UNIT)


BUILTIN_INSTANCES = {
    "chvatal_6_5": chvatal_6_5,
    "school_5_5_ref": school_5_5_ref,
    "school_5_5_iso": school_5_5_iso,
    "school_9_11": school_9_11,
    "two_optima": two_optima,
}


def get_builtin(name: str) -> BigraphInstance:
    try:
        return BUILTIN_INSTANCES[name]()
    except KeyError:
        known = ", ".join(sorted(BUILTIN_INSTANCES))
        raise ValueError(f"unknown builtin {name!r}; known: {known}")
