"""Coset restrictions, decompositions of bent functions, and the
concatenation constructions built from them.

A pair of independent directions u, v splits V_n into the four cosets
of S = {x : <u,x> = <v,x> = 0} (plain dot products on index bits).
Restricting f to the cosets gives four functions on n - 2 variables;
for bent f the four are all bent exactly when D_u D_v f* is constant 1
and all semibent exactly when it is constant 0.  One plane is
classified from both sides: one transform of its four coset tables and
D_v(D_u f*) in two gathers of the dual.  A batch of planes is classified
from the restrictions alone, in chunks of a fixed number of table
entries, each chunk with one transform of all its coset tables.  The
scan of every plane labels them from the dual side alone and returns
its result as arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .boolfn import (_CHUNK_ENTRIES, BoolFn, Space, _abs_spectrum, _derivative_autocorrelation,
                     _points, _second_derivative, _signs, dual, is_bent)
from .errors import DomainError, ParameterError, ResourceError
from .gf2 import (FieldCtx, GpsParams, _check_field, _entries_within, _frozen, _is_integer,
                  _is_vector, validate_gps_params)
from .construct import PermTable, SubfieldFn, gpsap_vectorial, spread_labels
from .vectorial import component


def _check_plane(n: int, u: int, v: int) -> None:
    if not (_is_vector(n, u) and _is_vector(n, v) and u and v):
        raise ParameterError("u and v must be nonzero n-bit values")
    if u == v:
        raise ParameterError("u and v must be linearly independent")


@functools.cache
def _twice_parity(n: int) -> np.ndarray:
    # 2 parity(x), read-only: the high bit of a coset pattern in one gather
    return _frozen(_points(n)[1] << 1)


def _coset_index(n: int, u, v) -> np.ndarray:
    """The (4 planes, 2^(n-2)) index array of the cosets of the planes
    given by the ints u, v or the int64 columns u, v: four rows per
    plane, in pattern order (<u,x>, <v,x>) = (0,0), (0,1), (1,0), (1,1),
    each ascending.  Two axes, not three: numpy calls on small arrays
    cost less so."""
    x, parity = _points(n)
    pattern = _twice_parity(n)[x & u] | parity[x & v]
    return pattern.argsort(kind="stable").reshape(-1, 1 << (n - 2))


def restrict_to_cosets(f: BoolFn, u: int, v: int):
    """The four restrictions of f, ordered by the value pattern
    (<u,x>, <v,x>) = (0,0), (0,1), (1,0), (1,1).

    Each restriction lists its coset in ascending order.  That is the
    parameterization through the ascending reduced echelon basis of S
    and the smallest representative of the coset: the minimum is 0 at
    every leading bit of the basis, so the leading bits alone order the
    combinations.
    """
    _check_plane(f.n, u, v)
    index = _coset_index(f.n, u, v)
    return tuple(BoolFn(row) for row in f.table[index])


class DecompositionReport(NamedTuple):
    u: int
    v: int
    classification: str            # AllBent | AllSemibent | Mixed
    statuses: tuple[str, str, str, str]
    dual_second_derivative: str    # ConstantOne | ConstantZero | NonConstant


@functools.lru_cache(maxsize=8)
def _dual_and_signs(f: BoolFn) -> tuple[np.ndarray, np.ndarray]:
    """The plain dual table of a bent function with n >= 4 variables,
    and (-1)^f as int64, both read-only."""
    # the cosets are cut out by plain dot products, so the matching
    # closed form needs the dual in the same plain pairing; BoolFn
    # hashes by table, so one table has one entry whatever its Space.
    # One gather of the signs makes the coset tables to transform.
    if f.n < 4:
        raise DomainError(f"a decomposition needs n >= 4 variables, got n={f.n}")
    return dual(f.with_space(None)).table, _frozen(_signs(f.table))


# Codes of classify_planes and of the scan.  The status codes are bits,
# so the AND over the four restrictions of a plane keeps the status they
# share, which _CLASS_OF maps to its class.  Code i of CLASSES goes with
# code i of CONSTANCY: that pairing is the trichotomy.
STATUSES = ("other", "bent", "semibent")
CLASSES = ("AllBent", "AllSemibent", "Mixed")
CONSTANCY = ("ConstantOne", "ConstantZero", "NonConstant")
_CLASS_OF = np.array([2, 0, 1])
_CLASS_NAME = tuple(CLASSES[c] for c in _CLASS_OF)


def classify_decomposition(f: BoolFn, u: int, v: int) -> DecompositionReport:
    """Classify the coset decomposition of a bent function along u, v.

    The four restrictions are classified from one transform of f's own
    coset tables, and D_u D_v f* as D_v(D_u f*), two gathers of the
    cached dual.  The two sides are computed independently:
    the restrictions agree with classify_planes on the one plane, and
    the dual side with the plane's scan label.
    """
    _check_plane(f.n, u, v)
    fstar, signs = _dual_and_signs(f)
    n = f.n
    peaks = np.bitwise_or.reduce(_abs_spectrum(signs[_coset_index(n, u, v)]), axis=1)
    s0, s1, s2, s3 = (_status(peak, n) for peak in peaks.tolist())
    return DecompositionReport(u, v, _CLASS_NAME[s0 & s1 & s2 & s3],
                               (STATUSES[s0], STATUSES[s1], STATUSES[s2], STATUSES[s3]),
                               CONSTANCY[_constancy(_second_derivative(fstar, u, v))])


def classify_planes(f: BoolFn, us, vs) -> tuple[np.ndarray, np.ndarray]:
    """Classify the coset decompositions of a bent function along the
    planes (us[i], vs[i]) from their restrictions.

    Returns the (planes, 4) codes into STATUSES of the four
    restrictions and the codes into CLASSES of the planes.  Each chunk
    of planes takes one transform of all its coset tables.  The dual
    side of the trichotomy is the scan's (`scan_decompositions`).
    """
    us, vs = np.asarray(us).reshape(-1), np.asarray(vs).reshape(-1)
    if us.shape != vs.shape:
        raise ParameterError("us and vs must have one entry per plane")
    top = (1 << f.n) - 1
    if not (_entries_within(us, top) and _entries_within(vs, top) and us.all() and vs.all()):
        raise ParameterError("u and v must be nonzero n-bit values")
    us, vs = us.astype(np.int64), vs.astype(np.int64)
    if (us == vs).any():
        raise ParameterError("u and v must be linearly independent")
    signs = _dual_and_signs(f)[1]   # the domain of classify_decomposition: bent, n >= 4
    n = f.n
    us, vs = us[:, None], vs[:, None]   # int64 columns, one row per plane
    step = max(1, _CHUNK_ENTRIES >> n)
    statuses, classes = [], []
    for i in range(0, max(us.shape[0], 1), step):  # no planes: one empty chunk
        u, v = us[i:i + step], vs[i:i + step]
        peak = np.bitwise_or.reduce(_abs_spectrum(signs[_coset_index(n, u, v)]), axis=1)
        status = _status(peak, n).reshape(-1, 4)
        statuses.append(status)
        classes.append(_CLASS_OF[np.bitwise_and.reduce(status, axis=1)])
    return np.concatenate(statuses), np.concatenate(classes)


def _status(peak, n: int):
    """Codes into STATUSES of restrictions of an n-variable function
    from the OR of their |W| values (ints or an array)."""
    # n - 2 is even: a restriction is bent when every |W| is h, and
    # semibent when every |W| is 0 or 2h.  h is a power of two, so the
    # OR of a row's |W| is h (2h) exactly when each is 0 or h (0 or 2h),
    # and Parseval rules out the zeros in the bent case.
    h = 1 << (n - 2) // 2
    return (peak == h) | (peak == 2 * h) << 1


def _constancy(d2: np.ndarray) -> int:
    """The code into CONSTANCY of one bit table, from one count (an
    axis=-1 count or two reductions cost several times more)."""
    ones = np.count_nonzero(d2)
    return 0 if ones == d2.size else 2 if ones else 1


def _constancy_codes(auto: np.ndarray, n: int) -> np.ndarray:
    """Codes into CONSTANCY of D_a D_b t from the autocorrelation of
    D_a t at b, for n-variable tables: 2^n is constant 0, -2^n constant
    1, anything else not constant."""
    size = 1 << n
    return np.where(auto == size, 1, np.where(auto == -size, 0, 2))


def _substitution_codes(fstar: np.ndarray, ctx: FieldCtx, params: GpsParams, Q: PermTable,
                        a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the substitution identity behind decomposing the
    spread function f(x, y) = Tr(Q(x y^(-eta))), with dual table fstar,
    along u = (a, b), v = (c, d), for int64 element arrays with
    ad + bc != 0: the codes into CONSTANCY of D_u D_v f* and of
    D_(1,0) D_(0,1) fhat.  fhat is the dual composed with a linear map
    sending (1,0), (0,1) to u, v, so the two agree identically."""
    m = params.m
    lhs = _derivative_autocorrelation(fstar, a + (b << m))[np.arange(a.size), c + (d << m)]
    rhs = _derivative_autocorrelation(_fhat(ctx, params, Q, a, b, c, d), 1)[:, 1 << m]
    return _constancy_codes(lhs, 2 * m), _constancy_codes(rhs, 2 * m)


def _fhat(ctx: FieldCtx, params: GpsParams, Q: PermTable, a, b, c, d) -> np.ndarray:
    """fhat(x, y) = Tr(Q((b~ x + d~ y)(a~ x + c~ y)^(-e))), t~ = t^(2^(m-ell)),
    as a bit table per substitution: (S, 2^(2m)) for element arrays of
    S entries, one flat table for ints."""
    tilde = ctx.pow_table(1 << (params.m - params.ell))
    at, bt, ct, dt = (tilde[t][..., None, None] for t in (a, b, c, d))
    x = ctx.elements[None, :]
    y = ctx.elements[:, None]
    num = ctx.mul_arr(bt, x) ^ ctx.mul_arr(dt, y)
    den = ctx.mul_arr(at, x) ^ ctx.mul_arr(ct, y)
    arg = ctx.mul_arr(num, ctx.pow_table(ctx.neg_exp(params.e))[den])
    return ctx.trace_arr[Q.table[arg]].reshape(*np.shape(a), -1)


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
    _check_field(ctx, m, "m is")
    params = validate_gps_params(m, k, (1 << k) + 1)
    for name, val in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not _is_integer(val):   # an int outside V_m is not in S_k either
            raise ParameterError(f"{name} must be a vector of V_{m}, got {val}")
        if val not in ctx.subfield(k):
            raise ParameterError(f"{name} = {val:#x} is not in S_{k}")
        if val == 0:
            raise ParameterError(f"{name} must be nonzero")
    csum = alpha ^ beta ^ gamma
    if csum == 0:
        raise ParameterError("alpha + beta + gamma must be nonzero")
    # the (z1, z2) blocks are the components of the vectorial spread
    # function at alpha (0,0), beta (0,1), gamma (1,0) and, complemented,
    # alpha + beta + gamma (1,1)
    vec = gpsap_vectorial(ctx, params, P)
    f_a, f_b, f_c, f_abc = (component(vec, ctx.subfield_index(k, coeff))
                            for coeff in (alpha, beta, gamma, csum))
    return concat4(f_a, f_b, f_c, f_abc ^ 1)


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
    _check_field(ctx, params.m, "params are")
    k = params.k
    if k < 3:
        raise ParameterError(f"the partition construction needs k >= 3, got k={k}")
    elems = ctx.subfield(k)
    assignment = dict(assignment)
    if set(assignment) != set(elems):
        raise ParameterError("assignment must cover S_k exactly")
    quads = np.zeros((ctx.size, 4), dtype=np.uint8)
    counts: dict[tuple, int] = {}
    for g, q in assignment.items():
        quad = np.asarray(q)
        if quad.shape != (4,) or not _entries_within(quad, 1):
            raise ParameterError(f"assignment for {g:#x} is not a bit quadruple")
        quad = tuple(quad.tolist())
        if sum(quad) % 2 == 0:
            raise ParameterError(f"assignment for {g:#x} has even weight")
        counts[quad] = counts.get(quad, 0) + 1
        quads[g] = quad
    want = 1 << (k - 3)
    for quad in _ODD_QUADS:
        if counts.get(quad, 0) != want:
            raise ParameterError(
                f"quadruple {quad} is used {counts.get(quad, 0)} times, need {want}"
            )
    values = quads[spread_labels(ctx, params)]
    values[:, 0] = (0, 0, 0, 1)  # the line x = 0 is U
    return BoolFn(np.moveaxis(values, -1, 0).reshape(-1), Space([ctx, ctx, 2]))


class ScanRecord(NamedTuple):
    basis1: int
    basis2: int
    classification: str


def _planes(n: int, lo: int = 1, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every plane of V_n whose first basis vector lies in [lo, hi), once,
    by its ascending echelon basis (u, v) with u < v < u ^ v, ordered by
    u and then v.  Costs one (hi - lo, 2^n) mask."""
    x = _points(n)[0]
    u, v = x[lo:hi, None], x[None, :]
    rows, cols = np.nonzero((u > 0) & (v > u) & ((u ^ v) > v))
    return rows + lo, cols


@dataclass(frozen=True, eq=False)
class PlaneScan:
    """Every plane of a bent function with its class, as three arrays in
    scan order (basis1 ascending, then basis2): the int32 echelon bases
    and the uint8 codes into CLASSES.

    len() is the number of planes.  Iterating yields one ScanRecord per
    plane, built a chunk at a time, so no list of every record is held
    and the scan can be iterated again.
    """
    basis1: np.ndarray
    basis2: np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return self.codes.size

    def __iter__(self):
        # tuple.__new__ skips the named tuple's Python-level __new__
        record = functools.partial(tuple.__new__, ScanRecord)
        for i in range(0, len(self), _CHUNK_ENTRIES):
            j = i + _CHUNK_ENTRIES
            names = [CLASSES[c] for c in self.codes[i:j].tolist()]
            yield from map(record, zip(self.basis1[i:j].tolist(),
                                       self.basis2[i:j].tolist(), names))


def scan_decompositions(f: BoolFn, allow_large: bool = False) -> PlaneScan:
    """Classify every two-dimensional decomposition of a bent function.

    Planes are enumerated once each through their canonical ascending
    echelon basis (b1, b2): the two smallest nonzero elements, i.e.
    pairs with b1 < b2 < b1 ^ b2.  Labels come from the dual second
    derivative, the closed-form side of the trichotomy.  Returns a
    PlaneScan in that order.
    """
    n = f.n
    if n > 12 and not allow_large:
        raise ResourceError(
            f"scanning all planes of a {n}-variable function exceeds the "
            "default budget; pass allow_large to override"
        )
    # the autocorrelation of D_b1 f* at b2 labels the plane (b1, b2);
    # the b1 of a chunk go through one batched call.  b1 < b2 < b1 ^ b2
    # puts the top bit in b2, so only b1 < 2^(n-1) holds a plane
    fstar = _dual_and_signs(f)[0]
    size = 1 << n
    total = (size - 1) * (size - 2) // 6
    basis1 = np.empty(total, dtype=np.int32)
    basis2 = np.empty(total, dtype=np.int32)
    codes = np.empty(total, dtype=np.uint8)
    step = max(1, _CHUNK_ENTRIES >> n)
    done = 0
    for lo in range(1, size >> 1, step):
        hi = min(lo + step, size >> 1)
        delta = _derivative_autocorrelation(fstar, np.arange(lo, hi))
        u, v = _planes(n, lo, hi)
        d = delta[u - lo, v]
        end = done + u.size
        basis1[done:end] = u
        basis2[done:end] = v
        # CONSTANCY code i is the code of CLASSES i
        codes[done:end] = _constancy_codes(d, n)
        done = end
    return PlaneScan(basis1, basis2, codes)


def save_scan(scan: PlaneScan, path: str) -> None:
    """Write a scan as CSV: a header, then one basis1,basis2,class line
    per plane in scan order."""
    # a line is "b1," then "b2,class\n", looked up by b2 and the code; a
    # run of equal b1 is one join of its tails, with "b1," before each
    tail = np.array([f"{b},{c}\n" for b in range(int(scan.basis2.max(initial=0)) + 1)
                     for c in CLASSES], dtype=object)
    with open(path, "w") as fh:
        fh.write("span_basis1,span_basis2,class\n")
        for i in range(0, len(scan), _CHUNK_ENTRIES):
            j = i + _CHUNK_ENTRIES
            basis1 = scan.basis1[i:j]
            tails = tail[scan.basis2[i:j] * len(CLASSES) + scan.codes[i:j]].tolist()
            starts = np.flatnonzero(np.diff(basis1, prepend=-1)).tolist()
            for b1, s, e in zip(basis1[starts].tolist(), starts, starts[1:] + [len(tails)]):
                fh.write(f"{b1},".join(["", *tails[s:e]]))
