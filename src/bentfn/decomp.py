"""Coset restrictions, decompositions of bent functions, and the
concatenation constructions built from them.

A pair of independent directions u, v splits V_n into the four cosets
of S = {x : <u,x> = <v,x> = 0} (plain dot products on index bits).
Restricting f to the cosets gives four functions on n - 2 variables;
for bent f the four are all bent exactly when D_u D_v f* is constant 1
and all semibent exactly when it is constant 0, which is what the
classifier reports from both sides.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .boolfn import (BoolFn, Space, _abs_spectrum, _plateau_orders, autocorrelation, dual,
                     is_bent)
from .derivative import derivative, second_derivative
from .errors import DomainError, ParameterError, ResourceError
from .gf2 import FieldCtx, GpsParams
from .construct import PermTable, SubfieldFn, spread_sets


def _coset_index(n: int, u: int, v: int) -> np.ndarray:
    """The (4, 2^(n-2)) index array of the cosets, rows in pattern order
    (<u,x>, <v,x>) = (0,0), (0,1), (1,0), (1,1), each row ascending."""
    if not 0 < u < 1 << n or not 0 < v < 1 << n:
        raise ParameterError("u and v must be nonzero n-bit values")
    if u == v:
        raise ParameterError("u and v must be linearly independent")
    x = np.arange(1 << n, dtype=np.uint64)
    pattern = (np.bitwise_count(x & u) & 1) << 1 | (np.bitwise_count(x & v) & 1)
    return np.argsort(pattern, kind="stable").reshape(4, -1)


def restrict_to_cosets(f: BoolFn, u: int, v: int):
    """The four restrictions of f, ordered by the value pattern
    (<u,x>, <v,x>) = (0,0), (0,1), (1,0), (1,1).

    Each restriction lists its coset in ascending order.  That is the
    parameterization through the ascending reduced echelon basis of S
    and the smallest representative of the coset: the minimum is 0 at
    every leading bit of the basis, so the leading bits alone order the
    combinations.
    """
    return tuple(BoolFn(row) for row in f.table[_coset_index(f.n, u, v)])


@dataclass(frozen=True)
class DecompositionReport:
    u: int
    v: int
    classification: str            # AllBent | AllSemibent | Mixed
    statuses: tuple[str, str, str, str]
    dual_second_derivative: str    # ConstantOne | ConstantZero | NonConstant


@functools.lru_cache(maxsize=8)
def _plain_dual(f: BoolFn) -> BoolFn:
    # the cosets are cut out by plain dot products, so the matching
    # closed form needs the dual in the same plain pairing; BoolFn
    # hashes by table, so one table has one entry whatever its Space
    return dual(f.with_space(None))


# status by plateau order: a bent f has even n, so its restrictions have
# an even number n - 2 of variables, where semibent means s = 2
_STATUS = {0: "bent", 2: "semibent"}


def classify_decomposition(f: BoolFn, u: int, v: int) -> DecompositionReport:
    """Classify the coset decomposition of a bent function along u, v.

    The four restriction statuses come from one batched transform of
    the coset tables; the dual second derivative is reported alongside
    as the closed-form witness of the same trichotomy, from the real
    dual of f (computed once per function).
    """
    index = _coset_index(f.n, u, v)
    if f.n < 4:
        raise DomainError(f"a decomposition needs n >= 4 variables, got n={f.n}")
    fstar = _plain_dual(f)
    orders = _plateau_orders(_abs_spectrum(f.table[index]), f.n - 2)
    statuses = tuple(_STATUS.get(s, "other") for s in orders.tolist())
    if all(s == "bent" for s in statuses):
        cls = "AllBent"
    elif all(s == "semibent" for s in statuses):
        cls = "AllSemibent"
    else:
        cls = "Mixed"
    return DecompositionReport(u, v, cls, statuses,
                               _constancy(second_derivative(fstar, u, v).table))


def _constancy(values: np.ndarray) -> str:
    if values.all():
        return "ConstantOne"
    if not values.any():
        return "ConstantZero"
    return "NonConstant"


def check_ftof_equivalence(ctx: FieldCtx, params: GpsParams, Q: PermTable,
                           a: int, b: int, c: int, d: int) -> bool:
    """Test the substitution identity behind decomposing the spread
    function f(x, y) = Tr(Q(x y^(-eta))) along u = (a, b), v = (c, d).

    For ad + bc != 0, the constancy class of D_u D_v f* must match the
    constancy class of D_(1,0) D_(0,1) fhat, where
    fhat(x, y) = Tr(Q((b~ x + d~ y)(a~ x + c~ y)^(-e))) and
    t~ = t^(2^(m-ell)); fhat is the dual composed with a linear map
    sending (1,0), (0,1) to u, v, so the classes agree identically.
    """
    from .construct import gpsap_trace_form

    if ctx.mul(a, d) ^ ctx.mul(b, c) == 0:
        raise DomainError("ad + bc must be nonzero")
    m = params.m
    size = ctx.size
    f = gpsap_trace_form(ctx, params, Q)
    fstar = dual(f)
    u = a + (b << m)
    v = c + (d << m)
    lhs = _constancy(second_derivative(fstar, u, v).table)
    frob = 1 << (m - params.ell)
    at = ctx.pow(a, frob)
    bt = ctx.pow(b, frob)
    ct = ctx.pow(c, frob)
    dt = ctx.pow(d, frob)
    neg_e = ctx.neg_exp(params.e)
    fhat = np.zeros(size * size, dtype=np.uint8)
    for y in range(size):
        for x in range(size):
            num = ctx.mul(bt, x) ^ ctx.mul(dt, y)
            den = ctx.mul(at, x) ^ ctx.mul(ct, y)
            fhat[x + (y << m)] = ctx.trace(Q(ctx.mul(num, ctx.pow(den, neg_e))))
    fhat_fn = BoolFn(fhat)
    rhs = _constancy(second_derivative(fhat_fn, 1, 1 << m).table)
    return lhs == rhs


def concat4(f1: BoolFn, f2: BoolFn, f3: BoolFn, f4: BoolFn) -> BoolFn:
    """Glue four functions on V_n into one on V_{n+2}:
    (y, z) = (0,0) -> f1, (0,1) -> f2, (1,0) -> f3, (1,1) -> f4,
    with y at bit n and z at bit n+1."""
    n = f1.n
    if any(g.n != n for g in (f2, f3, f4)):
        raise ParameterError("all four functions must share one dimension")
    sig = f1.space.signature
    if all(g.space.signature == sig for g in (f2, f3, f4)):
        space = Space(list(f1.space.factors) + [2])
    else:
        space = Space.bits(n + 2)
    return BoolFn(np.concatenate([f1.table, f3.table, f2.table, f4.table]), space)


def concat_bent_check(f1: BoolFn, f2: BoolFn, f3: BoolFn, f4: BoolFn) -> bool:
    """Is the concatenation of four bent functions bent?  Holds exactly
    when f1* + f2* + f3* + f4* is constant 1."""
    duals = []
    for i, g in enumerate((f1, f2, f3, f4), start=1):
        if not is_bent(g):
            raise DomainError(f"argument {i} is not bent")
        duals.append(dual(g).table)
    s = duals[0] ^ duals[1] ^ duals[2] ^ duals[3]
    return bool(s.all())


def psffff(ctx: FieldCtx, m: int, k: int, P: SubfieldFn,
           alpha: int, beta: int, gamma: int) -> BoolFn:
    """Four spread functions on F_{2^m}^2 glued over two extra bits:

    f(x, y, z1, z2) = Tr_1^k(((1+z1+z2) alpha + z2 beta + z1 gamma)
                             * P(Tr_k^m(y x^(-e)))) + z1 z2,

    with e = 2^k + 1 and P a permutation of S_k.
    """
    import math

    if ctx.m != m:
        raise ParameterError(f"context is GF(2^{ctx.m}), requested m={m}")
    if m % k:
        raise ParameterError(f"k must divide m, got m={m}, k={k}")
    e = (1 << k) + 1
    g = math.gcd(ctx.order, e)
    if g != 1:
        raise ParameterError(f"gcd(2^{m}-1, 2^{k}+1) = {g}, need 1")
    elems = set(ctx.subfield(k))
    for name, val in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if val not in elems:
            raise ParameterError(f"{name} = {val:#x} is not in S_{k}")
        if val == 0:
            raise ParameterError(f"{name} must be nonzero")
    csum = alpha ^ beta ^ gamma
    if csum == 0:
        raise ParameterError("alpha + beta + gamma must be nonzero")
    if P.k != k:
        raise ParameterError(f"P is on S_{P.k}, construction uses k={k}")
    P.require_permutation()
    size = ctx.size
    neg_e = ctx.neg_exp(e)
    pt = np.zeros(size * size, dtype=np.int64)
    for x in range(size):
        pw = ctx.pow(x, neg_e)
        for y in range(size):
            pt[x + (y << m)] = P.at(ctx.trace_rel(ctx.mul(y, pw), k))
    def block(coeff: int, flip: int) -> np.ndarray:
        out = np.zeros(size * size, dtype=np.uint8)
        cache = {}
        for i, p in enumerate(map(int, pt)):
            bit = cache.get(p)
            if bit is None:
                bit = cache[p] = ctx.subfield_trace(ctx.mul(coeff, p), k)
            out[i] = bit ^ flip
        return out

    # block order by (z2, z1): z1 is bit 2m, z2 is bit 2m+1
    table = np.concatenate([block(alpha, 0), block(gamma, 0),
                            block(beta, 0), block(csum, 1)])
    return BoolFn(table, Space([ctx, ctx, 2]))


_ODD_QUADS = tuple(q for q in
                   ((a, b, c, d) for a in (0, 1) for b in (0, 1)
                    for c in (0, 1) for d in (0, 1))
                   if sum(q) % 2 == 1)


def _odd_quadruple_assignment(ctx: FieldCtx, k: int) -> dict:
    """A valid partition_bent assignment: the elements of S_k in
    ascending order take the eight odd-weight quadruples cyclically."""
    return {g: _ODD_QUADS[i % 8] for i, g in enumerate(ctx.subfield(k))}


def partition_bent(ctx: FieldCtx, params: GpsParams, assignment) -> BoolFn:
    """Bent function on V_{2m+2} from the spread partition {U, A(gamma)}.

    assignment maps each gamma in S_k to an odd-weight value quadruple
    (a0, a1, a2, a3); part A(gamma) takes value a_j on the slice with
    (z1, z2) such that j = z1 + 2 z2, and U takes (0, 0, 0, 1).  Each of
    the eight odd-weight quadruples must be used exactly 2^(k-3) times,
    which forces k >= 3.
    """
    if params.m != ctx.m:
        raise ParameterError(
            f"params are for GF(2^{params.m}), the context is GF(2^{ctx.m})"
        )
    k = params.k
    if k < 3:
        raise ParameterError(f"the partition construction needs k >= 3, got k={k}")
    elems = ctx.subfield(k)
    assignment = {g: tuple(int(b) for b in q) for g, q in dict(assignment).items()}
    if set(assignment) != set(elems):
        raise ParameterError("assignment must cover S_k exactly")
    counts: dict[tuple, int] = {}
    for g, quad in assignment.items():
        if len(quad) != 4 or any(b not in (0, 1) for b in quad):
            raise ParameterError(f"assignment for {g:#x} is not a bit quadruple")
        if sum(quad) % 2 == 0:
            raise ParameterError(f"assignment for {g:#x} has even weight")
        counts[quad] = counts.get(quad, 0) + 1
    want = 1 << (k - 3)
    for quad in _ODD_QUADS:
        if counts.get(quad, 0) != want:
            raise ParameterError(
                f"quadruple {quad} is used {counts.get(quad, 0)} times, need {want}"
            )
    sets = spread_sets(ctx, params)
    m = params.m
    base = 1 << (2 * m)
    gamma_of = np.full(base, -1, dtype=np.int64)
    for g, pts in sets.A.items():
        for p in pts:
            gamma_of[p] = g
    blocks = []
    for j in range(4):
        blk = np.zeros(base, dtype=np.uint8)
        for p in range(base):
            g = int(gamma_of[p])
            blk[p] = (j == 3) if g < 0 else assignment[g][j]
        blocks.append(blk)
    return BoolFn(np.concatenate(blocks), Space([ctx, ctx, 2]))


@dataclass(frozen=True)
class ScanRecord:
    basis1: int
    basis2: int
    classification: str


def scan_decompositions(f: BoolFn, allow_large: bool = False):
    """Classify every two-dimensional decomposition of a bent function.

    Planes are enumerated once each through their canonical ascending
    echelon basis (b1, b2): the two smallest nonzero elements, i.e.
    pairs with b1 < b2 < b1 ^ b2.  Labels come from the dual second
    derivative, the closed-form side of the trichotomy.
    """
    n = f.n
    if n > 12 and not allow_large:
        raise ResourceError(
            f"scanning all planes of a {n}-variable function exceeds the "
            "default budget; pass allow_large to override"
        )
    # D_b1 D_b2 f* is constant 0 (1) exactly when the autocorrelation of
    # D_b1 f* at b2 is 2^n (-2^n): one autocorrelation labels every b2
    fstar = _plain_dual(f)
    labels = {1 << n: "AllSemibent", -(1 << n): "AllBent"}
    records = []
    for b1 in range(1, 1 << n):
        delta = autocorrelation(derivative(fstar, b1)).tolist()
        for b2 in range(b1 + 1, 1 << n):
            if (b1 ^ b2) > b2:
                records.append(ScanRecord(b1, b2, labels.get(delta[b2], "Mixed")))
    return records


def save_scan(records, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("span_basis1,span_basis2,class\n")
        for r in records:
            fh.write(f"{r.basis1},{r.basis2},{r.classification}\n")
