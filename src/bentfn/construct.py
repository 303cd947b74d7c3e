"""Builders for the bent-function families and their side conditions.

Conventions shared by every builder here:

* Two-argument functions on F_{2^m} x F_{2^m} use index x + 2^m * y.
* Four-argument functions on F_{2^m}^2 x F_{2^k}^2 use index
  x1 + 2^m x2 + 2^(2m) y + 2^(2m+k) z.
* "x^(-e)" is evaluated as x^((-e) mod (2^m - 1)) with 0 mapped to 0,
  so the inverse-free representation of spread functions needs no
  special casing; the indicator 1 - x^(2^m - 1) is 1 exactly at x = 0.
* Functions P on the subfield S_k are tables keyed by the elements of
  S_k in ascending bitmask order.
* The spread builders are G(y x^(-e)) for a function G on the field:
  G is composed as a table over the field from the trace,
  relative-trace and subfield-index arrays, and one gather through
  the oriented grid of `_spread_grid` evaluates it over F_{2^m}^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import (BoolFn, Space, _derivative_autocorrelation, _field_pairing, _fwht_inplace,
                     _hex_values, _read_records, dual, is_bent)
from .errors import DomainError, ParameterError, ParseError
from .gf2 import (_MAX_DEGREE, FieldCtx, GpsParams, _check_degree, _check_field, _check_vectors,
                  _entries_within, _frozen, _is_natural, _is_vector, make_field,
                  validate_gps_params)
from .rng import XorShift64Star
from .vectorial import VecFn


class PermTable:
    """A permutation of F_{2^m} as a read-only int64 table."""

    def __init__(self, m: int, table):
        _check_degree(m)
        table = _int64_table(table)
        if table.size != 1 << m:
            raise ParameterError(f"permutation table needs 2^{m} entries, got {table.size}")
        if not np.array_equal(np.sort(table), np.arange(1 << m)):
            raise ParameterError("table is not a bijection")
        self.m = m
        self.table = table

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    @classmethod
    def identity(cls, m: int) -> "PermTable":
        _check_degree(m)   # before range(1 << m)
        return cls(m, range(1 << m))

    @classmethod
    def from_exponent(cls, ctx: FieldCtx, e: int) -> "PermTable":
        """x -> x^e; a permutation iff gcd(e, 2^m - 1) = 1."""
        table = ctx.pow_table(e)   # refuses an e that is not an integer >= 0
        g = math.gcd(e, ctx.order)
        if g != 1:
            raise ParameterError(f"x^{e} is not a permutation: gcd({e}, 2^{ctx.m}-1) = {g}")
        return cls(ctx.m, table)

    @classmethod
    def inverse_map(cls, ctx: FieldCtx) -> "PermTable":
        """x -> x^(-1) with 0 -> 0: x^(2^m - 2) for m >= 2, x on GF(2)."""
        return cls.from_exponent(ctx, ctx.neg_exp(1))

    @classmethod
    def gold(cls, ctx: FieldCtx, k: int) -> "PermTable":
        """x -> x^(2^k + 1); a permutation iff m / gcd(k, m) is odd."""
        if not _is_natural(k):
            raise ParameterError(f"Gold exponent 2^k + 1 needs an integer k >= 0, got k={k}")
        return cls.from_exponent(ctx, (1 << (k % ctx.m)) + 1)   # as x^(2^m) = x


class SubfieldFn:
    """A table over the subfield S_k of GF(2^m), ascending key order.

    Values, a read-only int64 array, are bits for balanced-function
    form, or S_k elements for permutation form.
    """

    def __init__(self, ctx: FieldCtx, k: int, values):
        elems = ctx.subfield(k)
        values = _int64_table(values)
        if values.size != elems.size:
            raise ParameterError(f"subfield table needs 2^{k} entries, got {values.size}")
        self.ctx = ctx
        self.m = ctx.m
        self.k = k
        self.values = values

    def gather(self, z: np.ndarray) -> np.ndarray:
        """Values at an array of elements, all of them in S_k."""
        return self.values[self.ctx.subfield_index_arr(self.k)[z]]

    def require_balanced(self) -> "SubfieldFn":
        if not np.isin(self.values, (0, 1)).all():
            raise ParameterError("balanced-form table must contain bits")
        ones = int(self.values.sum())
        if ones != 1 << (self.k - 1):
            raise ParameterError(
                f"P is not balanced: {ones} ones out of {self.values.size}"
            )
        return self

    def require_permutation(self) -> "SubfieldFn":
        if not np.array_equal(np.sort(self.values), self.ctx.subfield(self.k)):
            raise ParameterError("permutation-form table must be a bijection on S_k")
        return self

    @classmethod
    def trace_form(cls, ctx: FieldCtx, k: int) -> "SubfieldFn":
        """The balanced function z -> Tr_1^k(z) on S_k."""
        return cls(ctx, k, ctx._frobenius_sum(ctx.subfield(k), 1, k))

    @classmethod
    def identity_perm(cls, ctx: FieldCtx, k: int) -> "SubfieldFn":
        return cls(ctx, k, ctx.subfield(k))


def _int64_table(values) -> np.ndarray:
    """A new read-only int64 array of the values.  A table with an entry
    that is not an integer in [0, 2^63) reads as all -1, so that it fails
    the same check (bijection, bits or S_k) as any other table off range."""
    table = np.array(values)
    if not _entries_within(table, (1 << 63) - 1):
        table = np.full(table.shape, -1)
    return _frozen(table.astype(np.int64, copy=False))


def mm(ctx: FieldCtx, pi: PermTable, g=None) -> BoolFn:
    """Tr(x * pi(y)) + g(y) on F_{2^m} x F_{2^m}."""
    _check_field(ctx, pi.m, "pi is")
    if g is None:
        g = np.zeros(ctx.size, dtype=np.uint8)
    gt = np.asarray(g.table if isinstance(g, BoolFn) else g)
    if gt.shape != (ctx.size,):
        raise ParameterError(f"expected {ctx.size} values, got {gt.size}")
    if not _entries_within(gt, 1):
        raise ParameterError("g must be a table of bits")
    gmask = _field_pairing(ctx)[pi.table]
    table = (np.bitwise_count(ctx.elements[None, :] & gmask[:, None]) & 1) ^ gt[:, None]
    return BoolFn(table.reshape(-1), Space([ctx, ctx]))


def _check_gmm_family(ctx: FieldCtx, k: int, family) -> list[BoolFn]:
    _check_field(ctx, k, "k is")
    family = list(family)
    if len(family) != 1 << k:
        raise ParameterError(f"family needs 2^{k} members, got {len(family)}")
    sig = family[0].space.signature
    for z, f in enumerate(family):
        if f.space.signature != sig:
            raise ParameterError(f"family member z={z} lives on a different space")
        if not is_bent(f):
            raise ParameterError(f"family member z={z} is not bent")
    return family


def _trace_yz(ctx: FieldCtx) -> np.ndarray:
    """Tr(yz) as a (z, y) array; the block of (y, z) comes at y + 2^k z."""
    return ctx.trace_arr[ctx.mul_arr(ctx.elements[:, None], ctx.elements[None, :])]


def gmm(ctx: FieldCtx, k: int, family) -> BoolFn:
    """f(x, y, z) = f_z(x) + Tr(yz) over x in V_n, y, z in F_{2^k}."""
    family = _check_gmm_family(ctx, k, family)
    tables = np.stack([f.table for f in family])
    space = Space(list(family[0].space.factors) + [ctx, ctx])
    return BoolFn((tables[:, None, :] ^ _trace_yz(ctx)[:, :, None]).reshape(-1), space)


def gmm_dual(ctx: FieldCtx, k: int, family) -> BoolFn:
    """Closed-form dual of gmm: f*(x, y, z) = (f_y)*(x) + Tr(yz)."""
    family = _check_gmm_family(ctx, k, family)
    duals = np.stack([dual(f).table for f in family])
    space = Space(list(family[0].space.factors) + [ctx, ctx])
    return BoolFn((duals[None, :, :] ^ _trace_yz(ctx)[:, :, None]).reshape(-1), space)


def _seeded_mm(n: int, rng: XorShift64Star) -> BoolFn:
    """A random bent function on n variables: random permutation and
    random affine part through the two-block construction."""
    m = n // 2
    ctx = make_field(m)
    perm = list(range(1 << m))
    rng.shuffle(perm)
    g = [rng.bits(1) for _ in range(1 << m)]
    return mm(ctx, PermTable(m, perm), g)


def psap(ctx: FieldCtx, P) -> BoolFn:
    """P(y * x^(-1)) on F_{2^m} x F_{2^m} for balanced P, 0^(-1) = 0:
    gpsap at (m, k, e) = (m, m, 1)."""
    if not isinstance(P, SubfieldFn):
        P = SubfieldFn(ctx, ctx.m, P)
    return gpsap(ctx, validate_gps_params(ctx.m, ctx.m, 1), P)


def _spread_grid(ctx: FieldCtx, params: GpsParams, orientation: str) -> np.ndarray:
    """The (2^m, 2^m) grid indexed [y, x] of y x^(-e) ("f") or x y^(-eta)
    ("g"), so that its flat index is x + 2^m y.  Indexing a table over
    the field with it evaluates G(y x^(-e)) or G(x y^(-eta)) at every
    point in one gather.  The line x = 0 ("f") or y = 0 ("g") maps to 0.
    """
    if orientation == "f":
        return ctx.spread_table(ctx.neg_exp(params.e))
    if orientation == "g":
        return ctx.spread_table(ctx.neg_exp(params.eta)).T
    raise ParameterError(f"orientation must be 'f' or 'g', got {orientation!r}")


def spread_labels(ctx: FieldCtx, params: GpsParams, orientation: str = "f") -> np.ndarray:
    """The spread partition of F_{2^m}^2 as one label per point.

    A read-only int64 (2^m, 2^m) array indexed [y, x], so that its flat
    index is x + 2^m y.  For "f" the label of (x, y) is
    gamma = Tr_k^m(y x^(-e)), the part A(gamma) that holds it, and the
    column x = 0 is U; for "g" it is Tr_k^m(x y^(-eta)), the part
    B(gamma), and the row y = 0 is V.  The label on that special line is
    0: callers recognise the line by its coordinate.
    """
    _check_field(ctx, params.m, "params are")
    return _frozen(ctx.trace_rel_arr(params.k)[_spread_grid(ctx, params, orientation)])


def gpsap(ctx: FieldCtx, params: GpsParams, P: SubfieldFn, c0: int = 0,
          orientation: str = "f") -> BoolFn:
    """Spread bent function over the generalized Desarguesian partition.

    f-orientation: P(Tr_k^m(y x^(-e))) + c0 (1 - x^(2^m-1)),
    g-orientation: P(Tr_k^m(x y^(-eta))) + c0 (1 - y^(2^m-1)).
    """
    _check_field(ctx, params.m, "params are")
    if P.k != params.k:
        raise ParameterError(f"P is on S_{P.k}, params use k={params.k}")
    P.require_balanced()
    if not _is_vector(1, c0):
        raise ParameterError("c0 must be a bit")
    table = P.gather(ctx.trace_rel_arr(params.k))[_spread_grid(ctx, params, orientation)]
    # c0 on the special line: the column x = 0 for "f", the row y = 0 for "g"
    if orientation == "f":
        table[:, 0] ^= c0
    else:
        table[0] ^= c0
    return BoolFn(table.reshape(-1), Space([ctx, ctx]))


def _factors_through_subfield_trace(ctx: FieldCtx, k: int, Q: PermTable) -> bool:
    """Is z -> Tr(Q(z)) constant on every fiber of Tr_k^m?"""
    gamma = ctx.trace_rel_arr(k)
    bit = ctx.trace_arr[Q.table]
    # one bit of each fiber lands in fiber_bit; a constant fiber agrees with it
    fiber_bit = np.zeros(ctx.size, dtype=np.uint8)
    fiber_bit[gamma] = bit
    return bool((fiber_bit[gamma] == bit).all())


def gpsap_trace_form(ctx: FieldCtx, params: GpsParams, Q: PermTable) -> BoolFn:
    """f(x, y) = Tr(Q(x y^(-eta))) for a permutation Q with Q(0) = 0.

    Bentness requires that Tr(Q(.)) be constant on the fibers of
    Tr_k^m, i.e. that it equal P(Tr_k^m(.)) for some (automatically
    balanced) P; that is checked exhaustively and violations are
    rejected rather than silently producing a non-bent table.
    """
    _check_field(ctx, params.m, "params are")
    _check_field(ctx, Q.m, "Q is")
    if Q(0) != 0:
        raise ParameterError("Q must fix 0")
    if not _factors_through_subfield_trace(ctx, params.k, Q):
        raise ParameterError(
            f"Tr(Q(.)) is not constant on the fibers of Tr_{params.k}^{params.m}; "
            "the spread function would not be bent"
        )
    table = ctx.trace_arr[Q.table][_spread_grid(ctx, params, "g")]
    return BoolFn(table.reshape(-1), Space([ctx, ctx]))


def gpsap_dual_formula(ctx: FieldCtx, params: GpsParams, Q: PermTable) -> BoolFn:
    """Closed-form dual of gpsap_trace_form:
    f*(x, y) = Tr(Q(y~ x~^(-e))) with t~ = t^(2^(m - ell))."""
    _check_field(ctx, params.m, "params are")
    _check_field(ctx, Q.m, "Q is")
    tilde = ctx.pow_table(1 << (params.m - params.ell))
    args = ctx.spread_table(ctx.neg_exp(params.e))[np.ix_(tilde, tilde)]
    return BoolFn(ctx.trace_arr[Q.table][args].reshape(-1), Space([ctx, ctx]))


def gpsap_vectorial(ctx: FieldCtx, params: GpsParams, P: SubfieldFn,
                    c0: int = 0) -> VecFn:
    """F(x, y) = P(Tr_k^m(y x^(-e))) + c0 (1 - x^(2^m-1)), valued in S_k.

    Output entries are subfield indices (ascending-order encoding);
    the component pairing is the subfield trace Tr_1^k.
    """
    _check_field(ctx, params.m, "params are")
    if P.k != params.k:
        raise ParameterError(f"P is on S_{P.k}, params use k={params.k}")
    P.require_permutation()
    k = params.k
    _check_vectors(ctx.m, c0)
    if c0 not in ctx.subfield(k):
        raise DomainError(f"c0 = {c0:#x} is not in S_{k}")
    values = P.gather(ctx.trace_rel_arr(k))[_spread_grid(ctx, params, "f")]
    values[:, 0] ^= c0
    table = ctx.subfield_index_arr(k)[values].reshape(-1)
    return VecFn(table, k, Space([ctx, ctx]), Space([(ctx, k)]))


def _trace_sums(ctx: FieldCtx, values: np.ndarray) -> np.ndarray:
    """sum over i of (-1)^Tr(c values[i]) for every c in the field, as an
    int64 array indexed by c.  Tr(c v) = parity(g(c) & v) for the field
    pairing g (`_field_pairing`), so the sums are the Walsh transform of
    the histogram of the values, read at g(c)."""
    return _fwht_inplace(np.bincount(values, minlength=ctx.size))[_field_pairing(ctx)]


@dataclass(frozen=True)
class PropertyPResult:
    holds: bool
    counterexample: tuple[int, int, int, int] | None = None


def check_property_P(ctx: FieldCtx, pi: PermTable) -> PropertyPResult:
    """Exhaustively decide the unique-M-subspace property of
    h(x1, x2) = Tr(x1 pi(x2)).

    The quadruple condition splits per shift t = derivative direction:
    (i) the second derivative D_a D_b pi must vanish for no distinct
    nonzero pair, i.e. the XOR-period group of D_t pi must be exactly
    {0, t}; (ii) the image of D_t pi must span the field, else some
    nonzero c has Tr(c D_t pi) = 0 and a quadruple with a2 = 0 works.
    Scans t ascending and reports the first violation found.
    """
    _check_field(ctx, pi.m, "pi is")
    size = ctx.size
    tbl = pi.table
    # the m component functions of pi, one row each
    comps = (tbl >> np.arange(ctx.m)[:, None]) & 1
    for t in range(1, size):
        # (i) the periods of D_t pi are those its m components share
        is_period = (_derivative_autocorrelation(comps, t) == size).all(axis=0)
        periods = np.flatnonzero(is_period)
        if periods.size > 2:
            b2 = int(periods[(periods != 0) & (periods != t)][0])
            return PropertyPResult(False, (0, t, 0, b2))
        # (ii) Tr(c D_t pi) vanishes everywhere exactly when its character
        # sum is 2^m; c = 0 always is
        zero = np.flatnonzero(_trace_sums(ctx, tbl ^ tbl[ctx.elements ^ t]) == size)
        if zero.size > 1:
            return PropertyPResult(False, (int(zero[1]), 0, 0, t))
    return PropertyPResult(True, None)


def _swap_args_table(table: np.ndarray, m: int) -> np.ndarray:
    return np.ascontiguousarray(table.reshape(1 << m, 1 << m).T).reshape(-1)


def build_cor_ex(ctx: FieldCtx, m: int, k: int, variant: str = "inverse",
                 gold_k: int | None = None) -> BoolFn:
    """The two explicit families outside the completed MM class.

    f(x1, x2, y, z) = f_z(x1, x2) + Tr_1^k(yz) on 2m + 2k variables,
    where f_z is Tr(x1 pi(x2)) or its argument swap according to
    Tr_1^k(z), and pi is the inverse map (variant "inverse") or a Gold
    power map x^(2^k'+1) (variant "gold").
    """
    _check_field(ctx, m, "m is")
    if m <= k + 2:
        raise ParameterError(f"need m > k+2, got m={m}, k={k}")
    if variant == "inverse":
        if m < 4:
            raise ParameterError(f"inverse variant needs m >= 4, got m={m}")
        pi = PermTable.inverse_map(ctx)
    elif variant == "gold":
        kp = k if gold_k is None else gold_k
        if m % 2 == 0:
            raise ParameterError(f"gold variant needs odd m, got m={m}")
        if math.gcd(kp, m) != 1:
            raise ParameterError(f"gold variant needs gcd(k', m) = 1, got k'={kp}, m={m}")
        pi = PermTable.gold(ctx, kp)
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    h = mm(ctx, pi)
    h_swapped = BoolFn(_swap_args_table(h.table, m), h.space)
    ctx_k = make_field(k)
    family = [h if ctx_k.trace(z) == 0 else h_swapped for z in range(1 << k)]
    return gmm(ctx_k, k, family)


def trace_sum_nonconstant(ctx: FieldCtx) -> np.ndarray:
    """Does x -> Tr(d (1/x + 1/(x+1))) take both values off {0, 1}?

    The answer for every d at once: a bool array indexed by d (False at
    d = 0).  The map is constant exactly when its character sum over the
    2^m - 2 points x has absolute value 2^m - 2.  This row decides every
    nonzero c: x = c t turns d (1/x + 1/(x+c)) into (d/c)(1/t + 1/(t+1)),
    so the map at (c, d) takes both values off {0, c} exactly when the
    map at (1, d/c) does off {0, 1}.
    """
    x = ctx.elements[2:]
    inv = ctx.pow_table(ctx.neg_exp(1))
    return np.abs(_trace_sums(ctx, inv[x] ^ inv[x ^ 1])) != x.size


def g_lambda(ctx: FieldCtx, params: GpsParams, Q: PermTable, lam: int) -> BoolFn:
    """g_lam(x) = Tr(Q((1+lam) x^(-e)) + Q(x^(-e)) + Q(lam x^(-e)))."""
    _check_field(ctx, params.m, "params are")
    _check_vectors(ctx.m, lam)
    if lam in (0, 1):
        raise DomainError("lambda must lie outside F_2")
    q = Q.table
    xe = ctx.pow_table(ctx.neg_exp(params.e))
    acc = q[ctx.mul_arr(1 ^ lam, xe)] ^ q[xe] ^ q[ctx.mul_arr(lam, xe)]
    return BoolFn(ctx.trace_arr[acc], Space([ctx]))


def glambda_nonconstant(ctx: FieldCtx, params: GpsParams, Q: PermTable) -> bool:
    """Is g_lambda nonconstant for every lambda outside F_2?"""
    if Q(0) != 0:
        raise ParameterError("Q must fix 0")
    for lam in range(2, ctx.size):
        if g_lambda(ctx, params, Q, lam).is_constant():
            return False
    return True


# -- permutation / subfield-table files ----------------------------------------

def load_perm(path: str) -> PermTable:
    head, (m,), records = _read_records(path, "m")
    if not 1 <= m <= _MAX_DEGREE:
        raise ParseError(f"field degree m={m} out of range", head)
    try:
        return PermTable(m, _hex_values(records))
    except ParameterError as exc:
        raise ParseError(str(exc)) from None


def load_subfield_fn(ctx: FieldCtx, path: str) -> SubfieldFn:
    head, (m, k), records = _read_records(path, "m", "k")
    if m != ctx.m:
        raise ParseError(f"file is for GF(2^{m}), context is GF(2^{ctx.m})", head)
    try:
        return SubfieldFn(ctx, k, _hex_values(records))
    except ParameterError as exc:
        raise ParseError(str(exc)) from None
