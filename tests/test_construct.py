import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bentfn import (
    BoolFn,
    DomainError,
    ParameterError,
    ParseError,
    PermTable,
    SubfieldFn,
    XorShift64Star,
    anf_degree,
    build_cor_ex,
    check_property_P,
    dual,
    g_lambda,
    glambda_nonconstant,
    gmm,
    gmm_dual,
    gpsap,
    gpsap_dual_formula,
    gpsap_trace_form,
    is_balanced,
    is_bent,
    load_perm,
    load_subfield_fn,
    make_field,
    mm,
    psap,
    spread_labels,
    trace_sum_nonconstant,
    validate_gps_params,
)

from helpers import (FILE_EXAMPLES, SlowField, literal_unique_subspace, two_block_table, with_noise,
                     write_hex_records)


def test_perm_table_validation():
    PermTable(2, [0, 1, 2, 3])
    with pytest.raises(ParameterError):
        PermTable(2, [0, 1, 2])
    with pytest.raises(ParameterError):
        PermTable(2, [0, 1, 1, 3])
    with pytest.raises(ParameterError):
        PermTable(2, [0, 1, 2, 4])


def test_perm_from_exponent():
    ctx = make_field(4)
    sq = PermTable.from_exponent(ctx, 2)
    for x in range(16):
        assert sq(x) == ctx.mul(x, x)
    with pytest.raises(ParameterError):
        PermTable.from_exponent(ctx, 3)  # gcd(3, 15) = 3
    inv = PermTable.inverse_map(ctx)
    for x in range(1, 16):
        assert ctx.mul(x, inv(x)) == 1
    assert inv(0) == 0


def test_inverse_map_and_psap_on_gf2():
    # on GF(2) x^(-1) is x: the two-block function and psap are x y
    ctx = make_field(1)
    assert PermTable.inverse_map(ctx).table.tolist() == [0, 1]
    xy = [0, 0, 0, 1]
    for f in (mm(ctx, PermTable.inverse_map(ctx)), psap(ctx, SubfieldFn.trace_form(ctx, 1))):
        assert f.table.tolist() == xy and is_bent(f)


def test_gold_rejects_negative_parameter():
    ctx = make_field(3)
    assert PermTable.gold(ctx, 0).table.tolist() == [ctx.mul(x, x) for x in range(8)]
    with pytest.raises(ParameterError, match="k >= 0"):
        PermTable.gold(ctx, -1)


def _gold(ctx, k):
    try:
        return PermTable.gold(ctx, k).table.tolist()
    except ParameterError as exc:
        return str(exc)


@pytest.mark.parametrize("m", range(1, 9))
def test_gold_reads_k_mod_m(m):
    # x^(2^m) = x, so k and k + jm give the same map, or the same
    # rejection; and the map permutes exactly when m / gcd(k, m) is odd
    ctx = make_field(m)
    for k in range(m):
        want = _gold(ctx, k)
        assert isinstance(want, list) == (m // math.gcd(k, m) % 2 == 1)
        for shift in (m, 3 * m, m * (10**20 // m + 1)):
            assert _gold(ctx, k + shift) == want


def test_subfield_fn_guards():
    ctx = make_field(4)
    tr = SubfieldFn.trace_form(ctx, 2)
    assert tr.require_balanced() is tr
    const = SubfieldFn(ctx, 2, [0, 0, 0, 0])
    with pytest.raises(ParameterError):
        const.require_balanced()
    ident = SubfieldFn.identity_perm(ctx, 2)
    assert ident.require_permutation() is ident
    with pytest.raises(ParameterError):
        SubfieldFn(ctx, 2, [0, 0, 1, 1]).require_permutation()
    assert np.array_equal(ident.gather(ctx.subfield(2)), ctx.subfield(2))
    with pytest.raises(DomainError):
        ctx.subfield_index(2, 2)  # 2 is not in the subfield encoding of GF(2^4)


def test_mm_matches_literal():
    ctx = make_field(3)
    pi = PermTable.inverse_map(ctx)
    f = mm(ctx, pi)
    assert np.array_equal(f.table, two_block_table(ctx, list(pi.table)))
    assert is_bent(f)
    g = [1] + [0] * 7
    fg = mm(ctx, pi, g)
    for y in range(8):
        for x in range(8):
            assert fg.table[x + (y << 3)] == f.table[x + (y << 3)] ^ g[y]
    assert is_bent(fg)


def test_mm_weight():
    ctx = make_field(2)
    f = mm(ctx, PermTable.identity(2))
    assert f.weight() in (6, 10)  # 2^(n-1) +- 2^(n/2 - 1)


def seeded_family(k, n, seed):
    rng = XorShift64Star(seed)
    out = []
    m = n // 2
    ctx = make_field(m)
    for _ in range(1 << k):
        tbl = list(range(ctx.size))
        rng.shuffle(tbl)
        out.append(mm(ctx, PermTable(m, tbl), [rng.bits(1) for _ in range(ctx.size)]))
    return out


def test_gmm_bent_and_dual():
    for k in (1, 2):
        ck = make_field(k)
        fam = seeded_family(k, 4, k * 5 + 1)
        f = gmm(ck, k, fam)
        assert f.n == 4 + 2 * k
        assert is_bent(f)
        assert dual(f) == gmm_dual(ck, k, fam)


def test_gmm_preconditions():
    ck = make_field(1)
    fam = seeded_family(1, 4, 9)
    with pytest.raises(ParameterError):
        gmm(ck, 1, [fam[0]])  # family size must be 2^k
    with pytest.raises(ParameterError):
        gmm(ck, 1, [fam[0], BoolFn([0, 1, 1, 1])])  # member not bent


def test_psap_bent_balanced_P_required():
    for m in (2, 3, 4):
        ctx = make_field(m)
        f = psap(ctx, SubfieldFn.trace_form(ctx, m))
        assert is_bent(f)
        assert anf_degree(f) == m
    ctx = make_field(3)
    with pytest.raises(ParameterError):
        psap(ctx, SubfieldFn(ctx, 3, [0] * 8))


def test_gpsap_variants():
    ctx = make_field(4)
    pr = validate_gps_params(4, 2, 2)
    P = SubfieldFn.trace_form(ctx, 2)
    for ori in ("f", "g"):
        for c0 in (0, 1):
            f = gpsap(ctx, pr, P, c0, ori)
            assert is_bent(f)
            assert anf_degree(f) == 4
    a = gpsap(ctx, pr, P, 0, "f")
    b = gpsap(ctx, pr, P, 1, "f")
    # c0 toggles the function exactly on the line y arbitrary, x = 0
    diff = np.flatnonzero(a.table != b.table)
    assert sorted(diff) == [y << 4 for y in range(16)]


def test_gpsap_literal_definitions():
    ctx = make_field(4)
    pr = validate_gps_params(4, 2, 2)
    P = SubfieldFn.trace_form(ctx, 2)
    f = gpsap(ctx, pr, P, 1, "f")
    g = gpsap(ctx, pr, P, 1, "g")
    slow = SlowField(4, ctx.irred)
    neg_e = (-pr.e) % ctx.order
    neg_eta = (-pr.eta) % ctx.order
    P_of = dict(zip(ctx.subfield(2), P.values))
    trel = ctx.trace_rel_arr(2).tolist()
    for y in range(16):
        for x in range(16):
            fw = P_of[trel[slow.mul(y, slow.pow(x, neg_e))]]
            if x == 0:
                fw ^= 1
            assert f.table[x + (y << 4)] == fw
            gw = P_of[trel[slow.mul(x, slow.pow(y, neg_eta))]]
            if y == 0:
                gw ^= 1
            assert g.table[x + (y << 4)] == gw


def test_gpsap_trace_form_guards():
    ctx = make_field(4)
    pr = validate_gps_params(4, 2, 2)
    f = gpsap_trace_form(ctx, pr, PermTable.identity(4))
    assert is_bent(f)
    # a permutation whose trace composition does not factor through
    # the relative trace is rejected
    rng = XorShift64Star(12)
    rejected = False
    for _ in range(20):
        tbl = list(range(16))
        rng.shuffle(tbl)
        if tbl[0] == 0:
            tbl[0], tbl[1] = tbl[1], tbl[0]
        try:
            gpsap_trace_form(ctx, pr, PermTable(4, tbl))
        except ParameterError:
            rejected = True
            break
    assert rejected
    shifted = [x ^ 1 for x in range(16)]
    with pytest.raises(ParameterError):
        gpsap_trace_form(ctx, pr, PermTable(4, shifted))  # Q(0) != 0


def test_gpsap_dual_formula_matches_transform():
    for m, k, e in ((4, 2, 2), (6, 3, 11)):
        ctx = make_field(m)
        pr = validate_gps_params(m, k, e)
        Q = PermTable.identity(m)
        assert dual(gpsap_trace_form(ctx, pr, Q)) == gpsap_dual_formula(ctx, pr, Q)


def test_property_P_matches_literal_scan():
    m = 3
    ctx = make_field(m)
    slow = SlowField(m, ctx.irred)
    rng = XorShift64Star(0xBEEF)
    perms = [
        PermTable.identity(m),
        PermTable.inverse_map(ctx),
        PermTable.gold(ctx, 1),
    ]
    for _ in range(3):
        tbl = list(range(8))
        rng.shuffle(tbl)
        perms.append(PermTable(m, tbl))
    for pi in perms:
        want = literal_unique_subspace(slow, list(pi.table))
        assert check_property_P(ctx, pi).holds == want


def test_property_P_counterexample_is_literal():
    ctx = make_field(3)
    res = check_property_P(ctx, PermTable.identity(3))
    assert not res.holds
    a1, a2, b1, b2 = res.counterexample
    pi = PermTable.identity(3)
    # the quadruple's second derivative vanishes identically
    f = mm(ctx, pi).with_space(None)
    u = a1 + (a2 << 3)
    v = b1 + (b2 << 3)
    from bentfn import second_derivative

    assert not second_derivative(f, u, v).table.any()
    assert (a2, b2) != (0, 0) and u != v and u and v


def test_property_P_part_ii_witness():
    # part (i) holds at every shift up to 13, and the image of D_13 pi
    # lies in the hyperplane Tr(12 .) = 0
    ctx = make_field(4)
    pi = PermTable(4, [11, 13, 7, 3, 1, 0, 6, 12, 10, 15, 5, 8, 14, 2, 9, 4])
    res = check_property_P(ctx, pi)
    assert not res.holds and res.counterexample == (12, 0, 0, 13)
    d = [pi(x) ^ pi(x ^ 13) for x in range(16)]
    assert {ctx.trace(ctx.mul(12, v)) for v in d} == {0}


def test_build_cor_ex_guards():
    with pytest.raises(ParameterError):
        build_cor_ex(make_field(3), 3, 1, "inverse")  # needs m >= 4
    with pytest.raises(ParameterError):
        build_cor_ex(make_field(4), 4, 2, "inverse")  # needs m > k + 2
    with pytest.raises(ParameterError):
        build_cor_ex(make_field(4), 4, 1, "gold", gold_k=1)  # m must be odd
    with pytest.raises(ParameterError):
        build_cor_ex(make_field(5), 5, 1, "gold", gold_k=5)
    with pytest.raises(ParameterError):
        build_cor_ex(make_field(5), 5, 1, "nosuch")


def test_build_cor_ex_outputs():
    f = build_cor_ex(make_field(4), 4, 1, "inverse")
    assert f.n == 10 and is_bent(f)
    g = build_cor_ex(make_field(5), 5, 2, "gold", gold_k=1)
    assert g.n == 14 and is_bent(g)


def test_trace_sum_nonconstant():
    ctx = make_field(4)
    assert trace_sum_nonconstant(ctx)[1]


def test_g_lambda():
    ctx = make_field(4)
    pr = validate_gps_params(4, 2, 2)
    Q = PermTable.identity(4)
    with pytest.raises(DomainError):
        g_lambda(ctx, pr, Q, 0)
    with pytest.raises(DomainError):
        g_lambda(ctx, pr, Q, 1)
    # linear Q telescopes every g_lambda to zero
    assert not glambda_nonconstant(ctx, pr, Q)
    assert g_lambda(ctx, pr, Q, 2).is_constant()
    shifted = [x ^ 1 for x in range(16)]
    with pytest.raises(ParameterError):
        glambda_nonconstant(ctx, pr, PermTable(4, shifted))


def test_g_lambda_gold_balanced():
    # the nonlinear power map keeps every g_lambda balanced
    ctx = make_field(5)
    pr = validate_gps_params(5, 1, 3)
    Q = PermTable.gold(ctx, 1)
    assert glambda_nonconstant(ctx, pr, Q)
    for lam in range(2, 32):
        assert is_balanced(g_lambda(ctx, pr, Q, lam))


def test_spread_labels_partition():
    ctx = make_field(4)
    pr = validate_gps_params(4, 2, 2)
    f, g = spread_labels(ctx, pr, "f"), spread_labels(ctx, pr, "g")
    assert np.array_equal(spread_labels(ctx, pr), f)
    # off the special line every point lies in one part A(gamma) or
    # B(gamma), gamma in S_2, and every part has 2^(m-k) (2^m - 1) points
    for line, off in ((f[:, 0], f[:, 1:]), (g[0], g[1:])):
        assert not line.any()
        counts = np.bincount(off.ravel(), minlength=16)
        assert np.array_equal(np.flatnonzero(counts), ctx.subfield(2))
        assert (counts[ctx.subfield(2)] == (1 << (4 - 2)) * ((1 << 4) - 1)).all()
    with pytest.raises(ParameterError, match="orientation"):
        spread_labels(ctx, pr, "h")
    with pytest.raises(ParameterError, match="params are for"):
        spread_labels(make_field(6), pr)


def test_perm_file_round_trip(tmp_path):
    ctx = make_field(3)
    pi = PermTable.inverse_map(ctx)
    p = tmp_path / "pi.perm"
    write_hex_records(p, f"m={pi.m}", pi.table)
    qi = load_perm(str(p))
    assert list(qi.table) == list(pi.table)
    assert p.read_text().splitlines()[0] == "m=3"
    (tmp_path / "bad.perm").write_text("m=2\n0\n1\n1\n3\n")
    with pytest.raises(ParseError):
        load_perm(str(tmp_path / "bad.perm"))


def test_subfield_fn_file_round_trip(tmp_path):
    ctx = make_field(6)
    P = SubfieldFn(ctx, 3, [1, 1, 1, 0, 1, 0, 0, 0])
    p = tmp_path / "p.sf"
    write_hex_records(p, f"m={P.m} k={P.k}", P.values)
    Q = load_subfield_fn(ctx, str(p))
    assert list(Q.values) == list(P.values)
    assert Q.k == 3
    (tmp_path / "bad.sf").write_text("k=3\n0\n")
    with pytest.raises(ParseError):
        load_subfield_fn(ctx, str(tmp_path / "bad.sf"))


@FILE_EXAMPLES
@given(st.data())
def test_perm_file_with_comments(tmp_path, data):
    m = data.draw(st.integers(1, 6))
    pi = PermTable(m, data.draw(st.permutations(range(1 << m))))
    p = tmp_path / "pi.perm"
    write_hex_records(p, f"m={pi.m}", pi.table)
    p.write_text(with_noise(data, p.read_text().splitlines()))
    assert np.array_equal(load_perm(str(p)).table, pi.table)


@FILE_EXAMPLES
@given(st.data())
def test_subfield_fn_file_with_comments(tmp_path, data):
    m = data.draw(st.integers(1, 6))
    k = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    ctx = make_field(m)
    P = SubfieldFn(ctx, k, data.draw(st.lists(st.integers(0, ctx.order), min_size=1 << k,
                                              max_size=1 << k)))
    p = tmp_path / "p.sf"
    write_hex_records(p, f"m={P.m} k={P.k}", P.values)
    p.write_text(with_noise(data, p.read_text().splitlines()))
    Q = load_subfield_fn(ctx, str(p))
    assert Q.k == P.k and np.array_equal(Q.values, P.values)


def test_perm_file_degree_out_of_range(tmp_path):
    p = tmp_path / "bad.perm"
    for m in (-1, 0, 17):   # gf2's field degrees are 1..16
        p.write_text(f"m={m}\n0\n")
        with pytest.raises(ParseError) as exc:
            load_perm(str(p))
        assert exc.value.line == 1, m
