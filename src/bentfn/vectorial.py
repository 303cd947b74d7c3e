"""Vectorial functions V_n -> V_k and componentwise bentness.

A VecFn stores 2^n entries of k bits each.  Component functions are
F_alpha(x) = <alpha, F(x)>_k for nonzero alpha, where the output
pairing is a k-bit Space: the plain dot product for generic bit-valued
outputs, or the trace form of a field GF(2^k), or of a subfield S_k
embedded in a larger field and reached through its ascending-order
encoding.  Builders pick the pairing; it changes which Boolean
functions the components are, not whether all of them are bent.
"""

from __future__ import annotations

import numpy as np

from .boolfn import BoolFn, Space, dual, is_bent
from .errors import DomainError


class VecFn:
    """A function V_n -> V_k as a table of 2^n k-bit values."""

    __slots__ = ("n", "k", "table", "space", "pairing")

    def __init__(self, table, k: int, space: Space | None = None,
                 pairing: Space | None = None):
        tbl = np.asarray(table, dtype=np.int64)
        if tbl.ndim != 1 or tbl.size < 2 or tbl.size & (tbl.size - 1):
            raise DomainError(f"table length must be a power of two, got {tbl.size}")
        if k < 1:
            raise DomainError("output dimension must be positive")
        if int(tbl.min(initial=0)) < 0 or int(tbl.max(initial=0)) >= 1 << k:
            raise DomainError(f"table entries must be {k}-bit values")
        self.n = int(tbl.size).bit_length() - 1
        self.k = k
        self.table = tbl
        self.table.setflags(write=False)
        self.space = space if space is not None else Space.bits(self.n)
        if self.space.n != self.n:
            raise DomainError("space dimension does not match table size")
        self.pairing = pairing if pairing is not None else Space.bits(k)
        if self.pairing.n != k:
            raise DomainError("pairing dimension does not match the output dimension")

    def __getitem__(self, i: int) -> int:
        return int(self.table[i])


def component(F: VecFn, alpha: int) -> BoolFn:
    """The Boolean function x -> <alpha, F(x)>."""
    if not 0 < alpha < 1 << F.k:
        raise DomainError(f"component index must be a nonzero {F.k}-bit value")
    gmask = int(F.pairing.perm()[alpha])
    bits = (np.bitwise_count((F.table & gmask).astype(np.uint64)) & 1).astype(np.uint8)
    return BoolFn(bits, F.space)


def is_vectorial_bent(F: VecFn) -> bool:
    return all(is_bent(component(F, a)) for a in range(1, 1 << F.k))


def check_component_dual_linearity(F: VecFn) -> bool:
    """Whether (F_a)* + (F_b)* = (F_(a+b))* for all distinct nonzero a, b."""
    if not is_vectorial_bent(F):
        raise DomainError("component duals exist only for vectorial bent functions")
    duals = {a: dual(component(F, a)) for a in range(1, 1 << F.k)}
    for a in duals:
        for b in duals:
            if b <= a:
                continue
            if (duals[a] ^ duals[b]) != duals[a ^ b]:
                return False
    return True
