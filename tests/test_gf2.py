import math
from types import SimpleNamespace

import numpy as np
import pytest

from bentfn import (
    DomainError,
    FieldCtx,
    ParameterError,
    PermTable,
    Space,
    SubfieldFn,
    Subspace,
    VecFn,
    XorShift64Star,
    classify_decomposition,
    component,
    ea_transform,
    enumerate_M_subspaces,
    g_lambda,
    gpsap,
    gpsap_vectorial,
    has_M_subspace,
    linearity_index,
    make_field,
    psffff,
    restrict_to_cosets,
    validate_gps_params,
)
from bentfn.boolfn import _field_pairing
from bentfn.gf2 import default_modulus, is_irreducible, mod_inverse_exponent

from helpers import SlowField


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_mul_matches_schoolbook(m):
    ctx = make_field(m)
    slow = SlowField(m, ctx.irred)
    rng = XorShift64Star(m)
    for _ in range(200):
        a, b = rng.randrange(ctx.size), rng.randrange(ctx.size)
        assert ctx.mul(a, b) == slow.mul(a, b)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_field_axioms_sampled(m):
    ctx = make_field(m)
    rng = XorShift64Star(0xA1 + m)
    for _ in range(100):
        a, b, c = (rng.randrange(ctx.size) for _ in range(3))
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
        assert ctx.mul(a, 1) == a


FIELDS = [(m, None) for m in range(1, 17)] + [(8, 0x11d)]


@pytest.mark.parametrize("m, irred", FIELDS,
                         ids=[f"m{m}" if irred is None else f"m{m}-{irred:#x}" for m, irred in FIELDS])
def test_field_tables_match_schoolbook(m, irred):
    ctx = make_field(m, irred)
    slow = SlowField(m, ctx.irred)
    if m <= 8:
        a, b = np.divmod(np.arange(ctx.size ** 2), ctx.size)
    else:
        rng = np.random.default_rng(m)
        a, b = rng.integers(ctx.size, size=(2, 4000))
    assert ctx.mul_arr(a, b).tolist() == [slow.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert not ctx.mul_arr(ctx.elements, 0).any() and not ctx.mul_arr(0, ctx.elements).any()
    # the exp table lists the powers of one element, each nonzero element once
    powers = ctx._exp_arr[:ctx.order].tolist()
    assert sorted(powers) == list(range(1, ctx.size))
    g = powers[1] if m > 1 else 1
    assert all(slow.mul(p, g) == q for p, q in zip(powers, powers[1:] + powers[:1]))
    inv = ctx.pow_table(ctx.neg_exp(1))
    assert inv[0] == 0
    assert ctx.mul_arr(ctx.elements[1:], inv[1:]).tolist() == [1] * ctx.order


def test_inverse_everywhere():
    ctx = make_field(6)
    slow = SlowField(6, ctx.irred)
    inv = ctx.pow_table(ctx.neg_exp(1))
    for a in range(1, ctx.size):
        assert ctx.mul(a, int(inv[a])) == 1
        assert inv[a] == slow.inv(a)
    assert inv[0] == 0


def test_pow_edges():
    ctx = make_field(4)
    slow = SlowField(4, ctx.irred)
    assert ctx.pow_table(0)[0] == 1
    assert ctx.pow_table(7)[0] == 0
    assert ctx.pow_table(0)[5] == 1
    # exponents act mod 2^m - 1 on nonzero elements
    inv = ctx.pow_table(ctx.neg_exp(1))
    assert ctx.pow_table(ctx.order)[1:].tolist() == [1] * ctx.order
    assert ctx.pow_table(ctx.size - 2).tolist() == inv.tolist()
    for e in range(3 * ctx.size):
        assert ctx.pow_table(e)[1:].tolist() == [slow.pow(a, e) for a in range(1, ctx.size)]
    with pytest.raises(DomainError):
        ctx.pow_table(-2)
    with pytest.raises(DomainError):
        ctx.mul(ctx.size, 1)


def test_known_values_m4():
    ctx = make_field(4)
    assert ctx.irred == 0b10011
    assert ctx.mul(2, 8) == 0x3
    assert ctx.pow_table(ctx.neg_exp(1))[2] == 0x9
    assert SlowField(4, ctx.irred).inv(2) == 0x9


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_trace_properties(m):
    ctx = make_field(m)
    slow = SlowField(m, ctx.irred)
    vals = [ctx.trace(a) for a in range(ctx.size)]
    assert vals == [slow.trace(a) for a in range(ctx.size)]
    assert sum(vals) == ctx.size // 2
    for a in range(ctx.size):
        assert ctx.trace(ctx.mul(a, a)) == ctx.trace(a)
    rng = XorShift64Star(m * 7)
    for _ in range(50):
        a, b = rng.randrange(ctx.size), rng.randrange(ctx.size)
        assert ctx.trace(a ^ b) == ctx.trace(a) ^ ctx.trace(b)


def test_relative_trace_tower():
    ctx = make_field(6)
    for k in (1, 2, 3, 6):
        sub = set(ctx.subfield(k))
        assert set(ctx.trace_rel_arr(k).tolist()) <= sub
    # transitivity through the middle field: Tr_1^k(Tr_k^m(x)) = Tr(x)
    slow = SlowField(6, ctx.irred)
    for k in (2, 3):
        absolute = ctx._frobenius_sum(ctx.trace_rel_arr(k), 1, k)
        assert absolute.tolist() == [slow.trace(x) for x in range(ctx.size)]
    with pytest.raises(ParameterError):
        ctx.trace_rel_arr(4)
    with pytest.raises(ParameterError):
        ctx.trace_rel_arr(5)


def test_subfield_structure():
    ctx = make_field(6)
    s3 = ctx.subfield(3)
    assert len(s3) == 8
    assert s3[0] == 0 and s3[1] == 1
    for a in s3:
        for b in s3:
            assert ctx.mul(a, b) in s3
            assert (a ^ b) in s3
    assert ctx.subfield_index(3, s3[5]) == 5
    with pytest.raises(DomainError):
        bad = next(v for v in range(ctx.size) if v not in set(s3))
        ctx.subfield_index(3, bad)


def test_dualmask_identity():
    ctx = make_field(5)
    slow = SlowField(5, ctx.irred)
    for b in range(ctx.size):
        g = int(_field_pairing(ctx)[b])
        for x in range(ctx.size):
            assert slow.trace(slow.mul(b, x)) == (g & x).bit_count() & 1


def test_make_field_validation():
    with pytest.raises(ParameterError):
        make_field(0)
    with pytest.raises(ParameterError):
        make_field(17)
    # x^4 + 1 = (x + 1)^4 is reducible
    with pytest.raises(ParameterError):
        make_field(4, 0b10001)
    assert make_field(3) is make_field(3)


@pytest.mark.parametrize("m", range(1, 17))
def test_default_moduli_irreducible(m):
    mod = default_modulus(m)
    assert mod.bit_length() == m + 1 and mod & 1
    assert is_irreducible(mod, m)
    # nothing smaller qualifies
    for cand in range((1 << m) | 1, mod, 2):
        assert not is_irreducible(cand, m)


def test_mod_inverse_exponent():
    assert mod_inverse_exponent(5, 1) == 1
    for m, e in ((4, 2), (6, 11), (5, 3)):
        eta = mod_inverse_exponent(e, m)
        assert (eta * e) % ((1 << m) - 1) == 1
    with pytest.raises(ParameterError) as exc:
        mod_inverse_exponent(3, 4)
    assert "3" in str(exc.value)  # the offending gcd


@pytest.mark.parametrize("m,k,e,ell,eta", [
    (4, 2, 2, 1, 8),
    (6, 3, 11, 2, 23),
    (6, 2, 2, 1, 32),
    (4, 4, 1, 0, 1),
    (5, 1, 3, 0, 21),
    (3, 3, 1, 0, 1),
    (5, 5, 2, 1, 16),
])
def test_validate_gps_params_frozen(m, k, e, ell, eta):
    pr = validate_gps_params(m, k, e)
    assert (pr.m, pr.k, pr.e, pr.ell, pr.eta) == (m, k, e, ell, eta)
    assert math.gcd(e, (1 << m) - 1) == 1
    if k > 1:
        assert e % ((1 << k) - 1) == (1 << ell) % ((1 << k) - 1)


def test_validate_gps_params_rejects():
    with pytest.raises(ParameterError):
        validate_gps_params(6, 4, 1)  # k does not divide m
    with pytest.raises(ParameterError):
        validate_gps_params(6, 3, 3)  # 3 is not a power of 2 mod 7
    with pytest.raises(ParameterError):
        validate_gps_params(4, 2, 3)  # gcd(3, 15) = 3


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_neg_exp_inverts_powers(m):
    ctx = make_field(m)
    for e in range(1, 2 * ctx.size):
        d = ctx.neg_exp(e)
        assert ctx.mul_arr(ctx.pow_table(d), ctx.pow_table(e))[1:].tolist() == [1] * ctx.order
        if math.gcd(e, ctx.order) == 1:
            assert ctx.pow_table(d)[0] == 0


@pytest.mark.parametrize("m", range(1, 9))
def test_field_tables_read_only_and_built_once(m):
    # every table over the field or a subfield is one int64 array that
    # rejects writes, and asking again returns that same array
    ctx = make_field(m)
    assert make_field(m) is ctx and make_field(m, None) is ctx
    pi, ident, whole = PermTable.inverse_map(ctx), PermTable.identity(m), Space([ctx])
    tables = [lambda: ctx.elements, lambda: ctx.trace_arr, lambda: pi.table,
              lambda: ident.table, whole.perm]
    for k in range(1, m + 1):
        if m % k:
            for get in (ctx.subfield, ctx.trace_rel_arr, ctx.subfield_index_arr):
                for _ in range(2):   # a bad k raises on every call
                    with pytest.raises(ParameterError):
                        get(k)
            continue
        tr, idp = SubfieldFn.trace_form(ctx, k), SubfieldFn.identity_perm(ctx, k)
        space = Space([(ctx, k)])
        tables += [lambda k=k: ctx.subfield(k), lambda k=k: ctx.trace_rel_arr(k),
                   lambda k=k: ctx.subfield_index_arr(k), lambda tr=tr: tr.values,
                   lambda idp=idp: idp.values, lambda space=space: space.perm()]
    for get in tables:
        table = get()
        assert get() is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]
    assert ctx.subfield(m).dtype == pi.table.dtype == tr.values.dtype == np.int64
    # the tables are copies: the arrays they were built from stay writable
    source = np.arange(ctx.size)
    assert PermTable(m, source).table is not source and source.flags.writeable


BIG = 1 << 64

# Every entry point that takes an integer from its caller: the call on the
# objects of `spread`, the error it raises, and the ints it refuses.  An
# exponent, a dimension or a worker count has no upper bound, so its huge
# int is negative; a dimension below 1 makes has_M_subspace trivially true.
ENTRY_POINTS = [
    pytest.param(lambda o, x: o.ctx.mul(x, 1), DomainError, (BIG, 16), id="mul"),
    pytest.param(lambda o, x: o.ctx.mul(1, x), DomainError, (BIG, 16), id="mul-b"),
    pytest.param(lambda o, x: o.ctx.trace(x), DomainError, (BIG, 16), id="trace"),
    pytest.param(lambda o, x: o.ctx.subfield_index(2, x), DomainError, (BIG, 16),
                 id="subfield_index"),
    pytest.param(lambda o, x: classify_decomposition(o.f, x, 2), ParameterError, (BIG, 256),
                 id="classify_decomposition"),
    pytest.param(lambda o, x: restrict_to_cosets(o.f, 2, x), ParameterError, (BIG, 256),
                 id="restrict_to_cosets"),
    pytest.param(lambda o, x: ea_transform(o.f, [x] + [1 << j for j in range(1, 8)]),
                 ParameterError, (BIG, 256), id="ea_transform"),
    pytest.param(lambda o, x: component(o.vec, x), DomainError, (BIG, 4), id="component"),
    pytest.param(lambda o, x: g_lambda(o.ctx, o.params, PermTable.identity(4), x), DomainError,
                 (BIG, 16), id="g_lambda"),
    pytest.param(lambda o, x: gpsap(o.ctx, o.params, o.balanced, c0=x), ParameterError,
                 (BIG, 2), id="gpsap-c0"),
    pytest.param(lambda o, x: gpsap_vectorial(o.ctx, o.params, o.perm, c0=x), DomainError,
                 (BIG, 16, 2), id="gpsap_vectorial-c0"),   # 2 is in V_4 but not in S_2
    pytest.param(lambda o, x: linearity_index(o.f, dim_cap=x), DomainError, (-BIG, -1),
                 id="linearity_index"),
    pytest.param(lambda o, x: has_M_subspace(o.f, x), DomainError, (), id="has_M_subspace"),
    pytest.param(lambda o, x: enumerate_M_subspaces(o.f, x), DomainError, (-BIG, 0),
                 id="enumerate_M_subspaces"),
    pytest.param(lambda o, x: Space([x]), DomainError, (BIG, 0), id="Space"),
    pytest.param(lambda o, x: validate_gps_params(4, x, 1), ParameterError, (BIG, 0),
                 id="validate_gps_params-k"),
    pytest.param(lambda o, x: validate_gps_params(4, 2, x), ParameterError, (-BIG, 0),
                 id="validate_gps_params-e"),
    pytest.param(lambda o, x: make_field(x), ParameterError, (BIG, 17), id="make_field-m"),
    pytest.param(lambda o, x: make_field(3, x), ParameterError, (BIG, 12),
                 id="make_field-modulus"),
    pytest.param(lambda o, x: FieldCtx(x, 0b11), ParameterError, (BIG, 0, 17), id="FieldCtx-m"),
    pytest.param(lambda o, x: PermTable(x, [0, 1]), ParameterError, (BIG, 0), id="PermTable-m"),
    pytest.param(lambda o, x: PermTable.identity(x), ParameterError, (BIG, 0, -1, 17),
                 id="PermTable.identity-m"),
    pytest.param(lambda o, x: PermTable.gold(o.ctx, x), ParameterError, (-BIG, -1),
                 id="PermTable.gold-k"),
    pytest.param(lambda o, x: PermTable.from_exponent(o.ctx, x), DomainError, (-BIG, -1),
                 id="PermTable.from_exponent-e"),
    pytest.param(lambda o, x: o.ctx.pow_table(x), DomainError, (-BIG, -1), id="pow_table-e"),
    pytest.param(lambda o, x: SubfieldFn(o.ctx, x, [0, 1]), ParameterError, (BIG, 0, 3),
                 id="SubfieldFn-k"),
    pytest.param(lambda o, x: o.ctx.trace_rel_arr(x), ParameterError, (BIG, 0, 3),
                 id="trace_rel_arr-k"),
    pytest.param(lambda o, x: o.ctx.subfield_index_arr(x), ParameterError, (BIG, 0, 3),
                 id="subfield_index_arr-k"),
    pytest.param(lambda o, x: VecFn([0, 1], x), DomainError, (BIG, 0), id="VecFn-k"),
    pytest.param(lambda o, x: Subspace(x, ()), DomainError, (-BIG, -1), id="Subspace-n"),
    pytest.param(lambda o, x: linearity_index(o.f, threads=x), ParameterError, (-BIG, 0),
                 id="linearity_index-threads"),
    pytest.param(lambda o, x: has_M_subspace(o.f, 2, threads=x), ParameterError, (-BIG, 0),
                 id="has_M_subspace-threads"),
    pytest.param(lambda o, x: enumerate_M_subspaces(o.f, 2, threads=x), ParameterError,
                 (-BIG, 0), id="enumerate_M_subspaces-threads"),
    pytest.param(lambda o, x: _psffff3(x, 1, 1), ParameterError, (BIG, 2, 8), id="psffff-alpha"),
    pytest.param(lambda o, x: _psffff3(1, x, 1), ParameterError, (BIG, 2, 8), id="psffff-beta"),
    pytest.param(lambda o, x: _psffff3(1, 1, x), ParameterError, (BIG, 2, 8), id="psffff-gamma"),
]


def _psffff3(alpha, beta, gamma):
    """psffff at (m, k) = (3, 1), where S_1 = {0, 1}."""
    ctx = make_field(3)
    return psffff(ctx, 3, 1, SubfieldFn.identity_perm(ctx, 1), alpha, beta, gamma)


@pytest.fixture(scope="module")
def spread():
    ctx = make_field(4)
    params = validate_gps_params(4, 2, 1)
    balanced, perm = SubfieldFn.trace_form(ctx, 2), SubfieldFn.identity_perm(ctx, 2)
    return SimpleNamespace(ctx=ctx, params=params, balanced=balanced, perm=perm,
                           f=gpsap(ctx, params, balanced),
                           vec=gpsap_vectorial(ctx, params, perm))


@pytest.mark.parametrize("call, error, ints", ENTRY_POINTS)
def test_entry_points_refuse_what_is_not_an_integer_in_range(spread, call, error, ints):
    # a float, even a whole one, is refused with the class an int off range gets
    for x in (1.0, np.float64(1.5), *ints):
        with pytest.raises(error):
            call(spread, x)


def test_bools_and_numpy_integers_are_elements(spread):
    ctx = spread.ctx
    assert ctx.mul(True, np.uint8(3)) == ctx.mul(1, 3)
    assert ctx.trace(np.True_) == ctx.trace(1)
    assert ctx.subfield_index(2, True) == 1
    assert component(spread.vec, True) == component(spread.vec, np.int64(1))
