import hashlib

import numpy as np
import pytest

import bentfn.decomp as decomp
import bentfn.verify as verify
from bentfn import (
    BoolFn,
    DecompositionReport,
    DomainError,
    ParameterError,
    PermTable,
    PlaneScan,
    ResourceError,
    ScanRecord,
    Space,
    SubfieldFn,
    XorShift64Star,
    classify_decomposition,
    concat4,
    concat_bent_check,
    dual,
    is_bent,
    make_field,
    gpsap,
    gpsap_trace_form,
    mm,
    partition_bent,
    plateaued_order,
    psap,
    psffff,
    restrict_to_cosets,
    save_scan,
    scan_decompositions,
    second_derivative,
    validate_gps_params,
)
from bentfn.decomp import CLASSES, CONSTANCY, _dual_and_signs, _substitution_codes

from helpers import ftof_classes_loop, naive_restrict, naive_save_scan

QUAD = BoolFn([((i & 1) & (i >> 1)) ^ ((i >> 2) & (i >> 3) & 1)
               for i in range(16)])


def test_restrict_shapes_and_membership():
    parts = restrict_to_cosets(QUAD, 1, 2)
    assert len(parts) == 4
    assert all(p.n == 2 for p in parts)
    # pattern order (0,0), (0,1), (1,0), (1,1) of (<u,x>, <v,x>)
    f, u, v = QUAD, 1, 2
    pts = {(0, 0): [], (0, 1): [], (1, 0): [], (1, 1): []}
    for x in range(16):
        pts[((x & u).bit_count() & 1, (x & v).bit_count() & 1)].append(x)
    for part, key in zip(parts, ((0, 0), (0, 1), (1, 0), (1, 1))):
        vals = [f.table[x] for x in pts[key]]
        assert sorted(vals) == sorted(part.table.tolist())
    assert [p.table.tolist() for p in parts] == naive_restrict(f.table, u, v)


@pytest.mark.parametrize("n", range(3, 7))
def test_restrict_matches_basis_oracle(n):
    # every ordered pair of distinct directions, so every plane
    rng = np.random.default_rng(n)
    f = BoolFn(rng.integers(0, 2, 1 << n))
    for u in range(1, 1 << n):
        for v in range(1, 1 << n):
            if u != v:
                got = [p.table.tolist() for p in restrict_to_cosets(f, u, v)]
                assert got == naive_restrict(f.table, u, v), (u, v)


def test_restrict_matches_basis_oracle_gpsap():
    ctx = make_field(4)
    f = gpsap(ctx, validate_gps_params(4, 2, 2), SubfieldFn.trace_form(ctx, 2))
    rng = XorShift64Star(0x3C0)
    done = 0
    while done < 300:
        u, v = rng.randrange(256), rng.randrange(256)
        if u == v or not u or not v:
            continue
        done += 1
        got = [p.table.tolist() for p in restrict_to_cosets(f, u, v)]
        assert got == naive_restrict(f.table, u, v), (u, v)


def test_restrict_rejects_dependent_directions():
    with pytest.raises(ParameterError):
        restrict_to_cosets(QUAD, 3, 3)
    with pytest.raises(ParameterError):
        restrict_to_cosets(QUAD, 0, 1)


def test_classify_quad():
    rep = classify_decomposition(QUAD, 1, 2)
    assert rep.classification == "AllBent"
    assert rep.statuses == ("bent",) * 4
    assert rep.dual_second_derivative == "ConstantOne"
    rep2 = classify_decomposition(QUAD, 1, 4)
    assert rep2.classification in ("AllSemibent", "Mixed")
    if rep2.classification == "AllSemibent":
        assert rep2.dual_second_derivative == "ConstantZero"


def test_classification_trichotomy_exhaustive_quad():
    # one plane per span; labels must match the dual-derivative rule
    want = {"ConstantOne": "AllBent", "ConstantZero": "AllSemibent",
            "NonConstant": "Mixed"}
    d = dual(QUAD)
    for u in range(1, 16):
        for v in range(u + 1, 16):
            if (u ^ v) < v:
                continue
            rep = classify_decomposition(QUAD, u, v)
            d2 = second_derivative(d, u, v)
            if not d2.table.any():
                label = "ConstantZero"
            elif d2.table.all():
                label = "ConstantOne"
            else:
                label = "NonConstant"
            assert rep.classification == want[label]
            assert rep.dual_second_derivative == label


def _constancy_label(table) -> str:
    if table.all():
        return "ConstantOne"
    return "NonConstant" if table.any() else "ConstantZero"


def _oracle_report(f, u, v):
    """Per-part analysis of the basis-oracle restrictions, and a fresh
    dual in the plain pairing."""
    statuses = []
    for part in naive_restrict(f.table, u, v):
        g = BoolFn(part)
        statuses.append("bent" if is_bent(g) else "semibent" if plateaued_order(g) == 2 else "other")
    cls = ("AllBent" if statuses == ["bent"] * 4
           else "AllSemibent" if statuses == ["semibent"] * 4 else "Mixed")
    fstar = dual(f.with_space(None))
    return (u, v, cls, tuple(statuses),
            _constancy_label(second_derivative(fstar, u, v).table))


def _report_tuple(rep):
    return (rep.u, rep.v, rep.classification, rep.statuses, rep.dual_second_derivative)


def _c07_functions():
    ctx3 = make_field(3)
    return [QUAD, mm(ctx3, PermTable.inverse_map(ctx3)),
            psap(ctx3, SubfieldFn.trace_form(ctx3, 3))]


@pytest.mark.parametrize("which", range(3))
def test_classify_matches_slow_oracle(which):
    # every plane of criterion 7's n = 4 and n = 6 functions, once each
    f = _c07_functions()[which]
    size = 1 << f.n
    for u in range(1, size):
        for v in range(u + 1, size):
            if (u ^ v) > v:
                assert _report_tuple(classify_decomposition(f, u, v)) == _oracle_report(f, u, v)


def test_dual_cache_alternating_functions():
    f1, f2 = _c07_functions()[1:]
    assert f1 != f2
    _dual_and_signs.cache_clear()
    for u, v in ((1, 2), (3, 12), (7, 56), (5, 40), (9, 18), (6, 48)):
        for f in (f1, f2, f1):
            assert _report_tuple(classify_decomposition(f, u, v)) == _oracle_report(f, u, v)
    assert _dual_and_signs.cache_info().currsize == 2


def test_dual_cache_ignores_space():
    # one table under a field Space and under the plain one: the
    # classifier pairs by dot product either way.  For x1x2 + x0x3 + x1x3
    # the field-pairing dual has other plane classes, e.g. on (1, 4).
    ctx = make_field(2)
    table = [(x >> 1 & x >> 2 ^ x & x >> 3 ^ x >> 1 & x >> 3) & 1 for x in range(16)]
    f = BoolFn(table, Space([ctx, ctx]))
    g = f.with_space(Space.bits(4))
    assert f.space != g.space and dual(f) != dual(g)
    for first, second in ((f, g), (g, f)):
        _dual_and_signs.cache_clear()
        for u in range(1, 16):
            for v in range(u + 1, 16):
                want = _oracle_report(g, u, v)
                assert _report_tuple(classify_decomposition(first, u, v)) == want
                assert _report_tuple(classify_decomposition(second, u, v)) == want
        assert _dual_and_signs.cache_info().currsize == 1


def test_dual_cache_size_is_fixed():
    limit = _dual_and_signs.cache_parameters()["maxsize"]
    assert limit is not None
    _dual_and_signs.cache_clear()
    # QUAD plus each linear function: more distinct bent functions than
    # the cache holds
    for a in range(2 * limit):
        f = QUAD ^ BoolFn([(a & x).bit_count() & 1 for x in range(16)])
        assert _report_tuple(classify_decomposition(f, 1, 6)) == _oracle_report(f, 1, 6)
        assert _dual_and_signs.cache_info().currsize <= limit
    assert _dual_and_signs.cache_info().currsize == limit


def test_sign_table_cache_is_read_only_and_bounded():
    # the restrictions gather from (-1)^f, cached per table with the dual
    limit = _dual_and_signs.cache_parameters()["maxsize"]
    assert limit is not None
    _dual_and_signs.cache_clear()
    for a in range(2 * limit):
        f = QUAD ^ BoolFn([(a & x).bit_count() & 1 for x in range(16)])
        assert _report_tuple(classify_decomposition(f, 3, 12)) == _oracle_report(f, 3, 12)
        assert _dual_and_signs.cache_info().currsize <= limit
        fstar, signs = _dual_and_signs(f)
        assert not fstar.flags.writeable and not signs.flags.writeable
        assert signs.tolist() == [(-1) ** int(t) for t in f.table]
    assert _dual_and_signs.cache_info().currsize == limit


def test_classify_work_counters(monkeypatch):
    # one transform per plane (the four coset tables at once) and one
    # dual per function, whatever the number of planes
    import bentfn.boolfn
    import bentfn.decomp

    counts = {"fwht": 0, "dual": 0}
    in_dual = []
    kernel, original_dual = bentfn.boolfn._fwht_inplace, bentfn.decomp.dual

    def counted_fwht(a):
        counts["fwht"] += not in_dual
        return kernel(a)

    def counted_dual(f):
        counts["dual"] += 1
        in_dual.append(f)
        try:
            return original_dual(f)
        finally:
            in_dual.pop()

    monkeypatch.setattr(bentfn.boolfn, "_fwht_inplace", counted_fwht)
    monkeypatch.setattr(bentfn.decomp, "dual", counted_dual)
    ctx = make_field(3)
    for f in (QUAD, mm(ctx, PermTable.inverse_map(ctx))):
        _dual_and_signs.cache_clear()
        counts.update(fwht=0, dual=0)
        size = 1 << f.n
        planes = [(u, v) for u in range(1, size) for v in range(u + 1, size) if u ^ v > v]
        for u, v in planes:
            classify_decomposition(f, u, v)
        assert counts == {"fwht": len(planes), "dual": 1}
    assert len(planes) == 651


def test_classify_small_dimension():
    for n in (2, 3):
        f = BoolFn([1] + [0] * ((1 << n) - 1))
        with pytest.raises(DomainError, match=f"n={n}"):
            classify_decomposition(f, 1, 2)


def test_classify_parameter_errors_before_bentness():
    zero = BoolFn(np.zeros(16, dtype=np.uint8))   # not bent
    for u, v in ((3, 3), (0, 1), (1, 0), (16, 1), (1, 16), (-1, 2)):
        for f in (QUAD, zero):
            with pytest.raises(ParameterError):
                classify_decomposition(f, u, v)
    # the same holds below n = 4
    with pytest.raises(ParameterError):
        classify_decomposition(BoolFn([0, 1, 1, 0]), 1, 1)


def test_classify_rejects_non_bent():
    with pytest.raises(DomainError, match="bent"):
        classify_decomposition(BoolFn(np.zeros(16, dtype=np.uint8)), 1, 2)
    odd = BoolFn(np.random.default_rng(5).integers(0, 2, 32))
    with pytest.raises(DomainError, match="odd"):
        classify_decomposition(odd, 1, 2)


def test_statuses_match_part_analysis():
    ctx = make_field(3)
    f = mm(ctx, PermTable.inverse_map(ctx))
    for u, v in ((3, 12), (1, 2), (7, 56)):
        rep = classify_decomposition(f, u, v)
        parts = restrict_to_cosets(f, u, v)
        for status, part in zip(rep.statuses, parts):
            if status == "bent":
                assert is_bent(part)
            elif status == "semibent":
                assert plateaued_order(part) == 2
            else:
                assert plateaued_order(part) not in (0, 2)


def test_concat4_block_order():
    rng = XorShift64Star(6)
    fs = [BoolFn([rng.bits(1) for _ in range(16)]) for _ in range(4)]
    g = concat4(*fs)
    assert g.n == 6
    for x in range(16):
        assert g.table[x] == fs[0].table[x]            # (y, z) = (0, 0)
        assert g.table[x + 16] == fs[2].table[x]       # (1, 0) -> third
        assert g.table[x + 32] == fs[1].table[x]       # (0, 1) -> second
        assert g.table[x + 48] == fs[3].table[x]       # (1, 1)
    back = restrict_to_cosets(g, 16, 32)
    assert [b.table.tolist() for b in back] == [f.table.tolist() for f in fs]


def test_concat_bent_check_agrees_with_transform():
    ctx = make_field(2)
    g = mm(ctx, PermTable.identity(2)).with_space(None)
    assert concat_bent_check(g, g, g, g ^ 1)
    assert is_bent(concat4(g, g, g, g ^ 1))
    assert not concat_bent_check(g, g, g, g)
    assert not is_bent(concat4(g, g, g, g))
    with pytest.raises(DomainError) as exc:
        concat_bent_check(g, g ^ BoolFn([1 if i == 3 else 0 for i in range(16)]),
                          g, g)
    assert "argument 2" in str(exc.value)


def test_concat4_shape_guard():
    g = QUAD
    with pytest.raises(ParameterError):
        concat4(g, g, g, BoolFn([0, 1, 0, 1]))


def test_ftof_equivalence():
    # the batched codes of both sides against the loop oracle, on seeded
    # admissible substitutions of the corpus's three spread trace forms
    for m, k, e, kp in ((4, 2, 2, None), (3, 3, 1, 1), (5, 5, 2, 2)):
        ctx = make_field(m)
        pr = validate_gps_params(m, k, e)
        Q = PermTable.identity(m) if kp is None else PermTable.gold(ctx, kp)
        rng = XorShift64Star(0x5D ^ m)
        subs = []
        while len(subs) < 10:
            a, b, c, d = (rng.randrange(ctx.size) for _ in range(4))
            if ctx.mul(a, d) ^ ctx.mul(b, c):
                subs.append((a, b, c, d))
        fstar = dual(gpsap_trace_form(ctx, pr, Q)).table
        lhs, rhs = _substitution_codes(fstar, ctx, pr, Q, *np.array(subs).T)
        got = [(CONSTANCY[x], CONSTANCY[y]) for x, y in zip(lhs.tolist(), rhs.tolist())]
        want = [ftof_classes_loop(ctx, pr, Q, *sub) for sub in subs]
        assert got == want, (m, k, e)
        assert (lhs == rhs).all(), (m, k, e)


def test_psffff_guards_and_output():
    ctx = make_field(3)
    P = SubfieldFn.identity_perm(ctx, 1)
    f = psffff(ctx, 3, 1, P, 1, 1, 1)
    assert f.n == 8 and is_bent(f)
    with pytest.raises(ParameterError):
        psffff(make_field(2), 2, 1, SubfieldFn.identity_perm(make_field(2), 1),
               1, 1, 1)  # gcd(2^m - 1, 2^k + 1) != 1
    with pytest.raises(ParameterError):
        psffff(make_field(4), 4, 3, SubfieldFn.identity_perm(make_field(4), 1),
               1, 1, 1)  # k must divide m
    with pytest.raises(ParameterError):
        psffff(ctx, 3, 1, P, 0, 1, 1)  # alpha = 0
    with pytest.raises(ParameterError):
        psffff(ctx, 3, 1, P, 1, 1, 1 | 2)  # gamma outside the subfield
    ctx6 = make_field(6)
    P3 = SubfieldFn.identity_perm(ctx6, 3)
    s3 = ctx6.subfield(3)
    with pytest.raises(ParameterError):
        psffff(ctx6, 6, 3, P3, s3[1], s3[2], s3[1] ^ s3[2])  # sum = 0
    with pytest.raises(ParameterError):
        psffff(ctx, 3, 1, SubfieldFn(ctx, 1, [0, 0]), 1, 1, 1)  # P not a perm


def test_psffff_block_structure():
    # the four (z1, z2)-restrictions are the spread components at
    # coefficients alpha, beta, gamma, alpha+beta+gamma (complemented)
    from bentfn import component, gpsap_vectorial

    ctx = make_field(6)
    k = 2
    s2 = ctx.subfield(k)
    # distinct coefficients would sum to zero in a 4-element subfield
    alpha, beta, gamma = s2[1], s2[1], s2[2]
    P = SubfieldFn.identity_perm(ctx, k)
    f = psffff(ctx, 6, k, P, alpha, beta, gamma)
    blocks = restrict_to_cosets(f, 1 << 12, 1 << 13)
    pr = validate_gps_params(6, k, (1 << k) + 1)
    vec = gpsap_vectorial(ctx, pr, P)
    coeffs = (alpha, beta, gamma, alpha ^ beta ^ gamma)
    for i, (blk, c) in enumerate(zip(blocks, coeffs)):
        comp = component(vec, ctx.subfield_index(k, c)).with_space(None)
        assert blk == (comp ^ 1 if i == 3 else comp)


def _odd_assignment(ctx, k):
    odd = [q for q in
           ((a, b, c, d) for a in (0, 1) for b in (0, 1)
            for c in (0, 1) for d in (0, 1)) if sum(q) % 2 == 1]
    return {g: odd[i % 8] for i, g in enumerate(ctx.subfield(k))}


def test_partition_bent_guards():
    ctx = make_field(3)
    pr = validate_gps_params(3, 3, 1)
    good = _odd_assignment(ctx, 3)
    assert is_bent(partition_bent(ctx, pr, good))
    with pytest.raises(ParameterError):
        pr2 = validate_gps_params(4, 2, 2)
        partition_bent(make_field(4), pr2, _odd_assignment(make_field(4), 2))
    bad = dict(good)
    bad[0] = (0, 0, 1, 1)  # even weight
    with pytest.raises(ParameterError):
        partition_bent(ctx, pr, bad)
    bad = dict(good)
    del bad[0]
    with pytest.raises(ParameterError):
        partition_bent(ctx, pr, bad)
    # multiplicity: with k = 3 every odd quadruple must appear once
    bad = dict(good)
    first, second = ctx.subfield(3)[1], ctx.subfield(3)[2]
    bad[first] = good[second]
    with pytest.raises(ParameterError):
        partition_bent(ctx, pr, bad)


def test_scan_matches_single_plane_classification():
    records = scan_decompositions(QUAD)
    assert len(records) == 35
    for rec in records:
        rep = classify_decomposition(QUAD, rec.basis1, rec.basis2)
        assert rep.classification == rec.classification


def _scan_functions_n4_to_n10():
    """A bent function at each of n = 4, 6, 8 and 10."""
    ctx3 = make_field(3)
    spread = [gpsap_trace_form(make_field(m), validate_gps_params(m, k, e), PermTable.identity(m))
              for m, k, e in ((4, 2, 2), (5, 1, 3))]
    return [QUAD, mm(ctx3, PermTable.inverse_map(ctx3))] + spread


def test_scan_transforms_only_rows_that_hold_a_plane(monkeypatch):
    # b1 < b2 < b1 ^ b2 forces b1 < 2^(n-1): the scan asks for exactly
    # those autocorrelation rows, each once
    requested = []
    real = decomp._derivative_autocorrelation

    def counted(table, a):
        requested.extend(np.atleast_1d(a).tolist())
        return real(table, a)

    monkeypatch.setattr(decomp, "_derivative_autocorrelation", counted)
    for f in _scan_functions_n4_to_n10():
        requested.clear()
        scan_decompositions(f)
        assert requested == list(range(1, 1 << (f.n - 1))), f.n


def test_save_scan_matches_one_line_per_record_writer(tmp_path):
    for f in _scan_functions_n4_to_n10():
        scan = scan_decompositions(f)
        if f.n == 10:
            # a run of one b1 crosses a slice boundary of the writer
            edge = decomp._CHUNK_ENTRIES
            assert len(scan) > edge and scan.basis1[edge - 1] == scan.basis1[edge]
        records = [ScanRecord(b1, b2, CLASSES[c]) for b1, b2, c in
                   zip(scan.basis1.tolist(), scan.basis2.tolist(), scan.codes.tolist())]
        save_scan(scan, str(tmp_path / "scan.csv"))
        naive_save_scan(records, str(tmp_path / "records.csv"))
        assert (tmp_path / "scan.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()


def test_records_and_reports_are_named_tuples():
    assert ScanRecord._fields == ("basis1", "basis2", "classification")
    assert DecompositionReport._fields == (
        "u", "v", "classification", "statuses", "dual_second_derivative")
    b1, b2, cls = record = next(iter(scan_decompositions(QUAD)))
    assert type(record) is ScanRecord and record == (1, 2, "AllBent")
    assert (b1, b2, cls) == (record.basis1, record.basis2, record.classification)
    u, v, cls, statuses, d2 = rep = classify_decomposition(QUAD, 1, 2)
    assert type(rep) is DecompositionReport
    assert rep == (1, 2, "AllBent", ("bent",) * 4, "ConstantOne")
    assert (u, v, cls, statuses, d2) == (rep.u, rep.v, rep.classification, rep.statuses,
                                         rep.dual_second_derivative)


def test_scan_small_dimension():
    # bent, but with n = 2 no plane splits it into restrictions
    f = BoolFn([0, 0, 0, 1])
    with pytest.raises(DomainError, match="n=2"):
        scan_decompositions(f)


def test_scan_guard_and_save(tmp_path):
    big = BoolFn(np.zeros(1 << 14, dtype=np.uint8))
    with pytest.raises(ResourceError):
        scan_decompositions(big)
    records = scan_decompositions(QUAD)
    p = tmp_path / "scan.csv"
    save_scan(records, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "span_basis1,span_basis2,class"
    assert len(lines) == 36
    b1, b2, cls = lines[1].split(",")
    assert int(b1) and int(b2) and cls in ("AllBent", "AllSemibent", "Mixed")


def test_scan_n12_spread_function(tmp_path):
    # the (6,2,2) trace-form function: every semibent plane lies in the
    # second block, and 651 is the number of planes there
    ctx = make_field(6)
    f = gpsap_trace_form(ctx, validate_gps_params(6, 2, 2), PermTable.identity(6))
    scan = scan_decompositions(f)
    assert len(scan) == 2_794_155
    assert np.bincount(scan.codes, minlength=3).tolist() == [0, 651, 2_793_504]
    semibent = scan.codes == CLASSES.index("AllSemibent")
    assert not ((scan.basis1[semibent] | scan.basis2[semibent]) & 63).any()
    p = tmp_path / "scan.csv"
    save_scan(scan, str(p))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "a75a1b9e5dfccd8feaaa6431dd75ed039f3472166f061087be9f2ed207aba7ee")


def test_criterion_10_counts_semibent_planes_outside_the_second_block(monkeypatch):
    # (17, 34) lies above 2^4 in both vectors but has nonzero low bits, so
    # it is outside the second block; (16, 32) is inside
    scan = PlaneScan(np.array([16, 17], np.int32), np.array([32, 34], np.int32),
                     np.array([1, 1], np.uint8))
    monkeypatch.setattr(verify, "scan_decompositions", lambda f: scan)
    passed, detail = verify._c10_semibent_planes("fast", 0)
    assert passed
    assert "(4,2,2): 35 second-block planes all semibent, 1 semibent planes elsewhere" in detail
