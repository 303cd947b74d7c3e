"""Linear algebra over GF(2) with vectors stored as Python ints.

A vector in GF(2)^n is an int whose bit i is coordinate i.  A matrix is
a list of such row ints.  Everything here is exact integer arithmetic;
no numpy, so the routines work for any n.
"""

from __future__ import annotations


def rref(rows: list[int]) -> list[int]:
    """Reduced row echelon form; returns the nonzero rows, pivot-sorted.

    Rows are reduced against the highest set bit.  The output is a
    canonical basis of the row space: same span always yields the same
    list, with rows in decreasing order of leading bit.
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    # back-substitute so each pivot column appears in exactly one row
    out = list(basis)
    for i in range(len(out)):
        lead = 1 << (out[i].bit_length() - 1)
        for j in range(i):
            if out[j] & lead:
                out[j] ^= out[i]
    return out


def rank(rows: list[int]) -> int:
    return len(rref(rows))
