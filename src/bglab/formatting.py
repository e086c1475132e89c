"""Display formatting shared by reports and the command line.

Values are rounded to two decimals with trailing zeros dropped (integers
print bare), ratio statistics print with a fixed two decimals, densities
with four. A value that must not be misread, such as a best-known value,
prints rounded only when the rounding is exact, and in full otherwise.
"""

from __future__ import annotations


def fmt_number(x: float, ndigits: int = 2) -> str:
    """Round and drop trailing zeros: 2.2833 -> '2.28', 574.0 -> '574'."""
    r = round(x, ndigits)
    if r == int(r):
        return str(int(r))
    return repr(r)


def fmt_exact(x: float) -> str:
    """`fmt_number(x, 4)` when it reads back as x, else x in full:
    1.1 -> '1.1', 4e-05 -> '4e-05' (not '0')."""
    short = fmt_number(x, 4)
    return short if float(short) == x else repr(x)


def fmt_fixed(x: float, ndigits: int = 2) -> str:
    return f"{x:.{ndigits}f}"
