"""The array kernels against the point-by-point loops they replaced.

Every builder, the fhat table of the substitution check and the
trace-sum rows must reproduce the loops of helpers.py byte for byte,
the batched plane classifier must agree with its one-plane case and
with the basis-oracle restrictions on every plane it is given, the
array-backed plane scan must agree with the per-plane loop and its CSV
writer, the spread labels must rebuild the partition's point sets, the
batched character sums of criterion 11 must report what their loop
reports, and the derivative autocorrelation and the unique-subspace
check must agree with the double sum and the shift-by-shift loop.
"""

import functools
import math

import numpy as np
import pytest

import bentfn.decomp as decomp
import bentfn.verify as verify
from bentfn import (
    BoolFn,
    ParameterError,
    PermTable,
    Space,
    SubfieldFn,
    XorShift64Star,
    check_property_P,
    classify_decomposition,
    dual,
    ea_transform,
    g_lambda,
    gmm,
    gmm_dual,
    gpsap,
    gpsap_dual_formula,
    gpsap_trace_form,
    gpsap_vectorial,
    make_field,
    mm,
    partition_bent,
    psap,
    psffff,
    save_scan,
    scan_decompositions,
    spread_labels,
    trace_sum_nonconstant,
    validate_gps_params,
)
from bentfn.boolfn import _derivative_autocorrelation, _field_pairing
from bentfn.construct import _factors_through_subfield_trace
from bentfn.decomp import (CLASSES, CONSTANCY, STATUSES, _coset_index, _fhat,
                           _odd_quadruple_assignment, classify_planes)
from bentfn.derivative import derivative
from bentfn.verify import GPS_GRID, _planes

from helpers import (SlowField, character_sums_loop, factors_through_subfield_trace_loop,
                     fhat_loop, g_lambda_loop, gmm_dual_loop, gmm_loop, gpsap_dual_formula_loop,
                     gpsap_loop, gpsap_trace_form_loop, gpsap_vectorial_loop,
                     naive_autocorrelation, naive_coset_index, naive_planes, naive_save_scan,
                     naive_scan, partition_loop, property_P_loop, psap_loop, psffff_loop,
                     random_invertible, slow_tables, spread_sets_loop, subfield_pairing_loop,
                     subfield_trace_loop, trace_sum_loop, two_block_table)


def valid_params(m):
    """Every valid (m, k, e) with e in [1, 2^m - 2] (e = 1 on GF(2)),
    ascending in k and then e."""
    for k in range(1, m + 1):
        if m % k:
            continue
        for e in range(1, max(2, (1 << m) - 1)):
            try:
                yield validate_gps_params(m, k, e)
            except ParameterError:
                pass


def balanced(ctx, k, rng) -> SubfieldFn:
    values = [0, 1] * (1 << (k - 1))
    rng.shuffle(values)
    return SubfieldFn(ctx, k, values)


def scaled(ctx, c) -> PermTable:
    """z -> c z; for c in S_k, Tr(c z) = Tr_1^k(c Tr_k^m(z)) factors."""
    return PermTable(ctx.m, [ctx.mul(c, z) for z in range(ctx.size)])


def test_field_arrays_match_schoolbook():
    # every element up to m = 8, every 37th one at m = 9 and 10
    for m in range(1, 11):
        ctx = make_field(m)
        slow = SlowField(m, ctx.irred)
        T = slow_tables(m, ctx.irred) if m <= 8 else None
        x = ctx.elements
        sample = x.tolist()[::1 if T is not None else 37]
        if T is not None:
            assert ctx.mul_arr(x[:, None], x[None, :]).tolist() == T.mul
            assert ctx.trace_arr.tolist() == T.trace
            for e in (0, 1, 2, 3, ctx.size - 2, 1 << m, 1000):
                assert ctx.pow_table(e).tolist() == T.pow(e)
        for k in range(1, m + 1):
            if m % k == 0:
                rel = ctx.trace_rel_arr(k)
                for z in sample:
                    want = functools.reduce(int.__xor__, (slow.pow(z, 1 << (k * i))
                                                          for i in range(m // k)))
                    assert rel[z] == want
                index = ctx.subfield_index_arr(k)
                assert np.array_equal(np.flatnonzero(index >= 0), ctx.subfield(k))
                assert [int(index[z]) for z in ctx.subfield(k)] == list(range(1 << k))
        for b in sample:
            want = sum(slow.trace(slow.mul(b, 1 << j)) << j for j in range(m))
            assert _field_pairing(ctx)[b] == want


@pytest.mark.parametrize("m", range(1, 9))
def test_subfield_pairing_and_trace_match_schoolbook(m):
    """Space([(ctx, k)]) against the schoolbook Gram loop of Tr_1^k over
    the ascending S_k basis, and SubfieldFn.trace_form against Tr_1^k,
    for every k | m; any other k raises."""
    ctx = make_field(m)
    slow = SlowField(m, ctx.irred)
    for k in range(m + 2):
        if k == 0 or m % k:
            with pytest.raises(ParameterError):
                Space([(ctx, k)])
            continue
        sp = Space([(ctx, k)])
        assert sp.n == k
        perm = sp.perm()
        assert [int(perm[1 << i]) for i in range(k)] == subfield_pairing_loop(slow, k)
        pairs = np.bitwise_count(perm[:, None] & np.arange(1 << k)) & 1
        assert (pairs == pairs.T).all()
        assert SubfieldFn.trace_form(ctx, k).values.tolist() == subfield_trace_loop(slow, k)[1]
    assert Space([(ctx, m)]) == Space([ctx])
    assert Space([(ctx, m)]).perm().tolist() == Space([ctx]).perm().tolist()


@pytest.mark.parametrize("m", range(1, 9))
def test_spread_builders_match_loops(m):
    """gpsap in both orientations and with both c0, gpsap_vectorial with
    c0 = 0 and 1, gpsap_trace_form and gpsap_dual_formula, at every
    valid (k, e).  Up to m = 6 every table is looped; at m = 7 and 8 the
    loops run at e = 1, and the table at e is the one at 1 with its
    arguments raised to e (x^(-e) = (x^e)^(-1)), or with the Frobenius
    t -> t~ of the dual formula applied first."""
    ctx = make_field(m)
    T = slow_tables(m, ctx.irred)
    size = ctx.size
    rng = np.random.default_rng(m)
    Q_dual = PermTable(m, rng.permutation(size))
    per_k = {}
    for pr in valid_params(m):
        k = pr.k
        if k not in per_k:
            P = balanced(ctx, k, rng)
            Pv = SubfieldFn(ctx, k, rng.permutation(ctx.subfield(k)))
            per_k[k] = P, Pv, scaled(ctx, ctx.subfield(k)[-1]), {}
        P, Pv, Q, base = per_k[k]
        got = {("f", c0): gpsap(ctx, pr, P, c0, "f").table for c0 in (0, 1)}
        got.update({("g", c0): gpsap(ctx, pr, P, c0, "g").table for c0 in (0, 1)})
        got.update({("vec", c0): gpsap_vectorial(ctx, pr, Pv, c0).table for c0 in (0, 1)})
        got["trace"] = gpsap_trace_form(ctx, pr, Q).table
        got["dual"] = gpsap_dual_formula(ctx, pr, Q_dual).table
        if m <= 6 or pr.e == 1:
            want = {("f", c0): gpsap_loop(ctx, pr, P, c0, "f") for c0 in (0, 1)}
            want.update({("g", c0): gpsap_loop(ctx, pr, P, c0, "g") for c0 in (0, 1)})
            want.update({("vec", c0): gpsap_vectorial_loop(ctx, pr, Pv, c0) for c0 in (0, 1)})
            want["trace"] = gpsap_trace_form_loop(ctx, pr, Q)
            want["dual"] = gpsap_dual_formula_loop(ctx, pr, Q_dual)
            if pr.e == 1:
                base.update((key, t.reshape(size, size)) for key, t in want.items())
        else:
            xe = np.array(T.pow(pr.e))
            y_eta = np.array(T.pow(pr.eta))
            tilde = np.array(T.pow(1 << (m - pr.ell)))
            want = {}
            for c0 in (0, 1):
                want["f", c0] = base["f", c0][:, xe]
                want["g", c0] = base["g", c0][y_eta, :]
                want["vec", c0] = base["vec", c0][:, xe]
            want["trace"] = base["trace"][y_eta, :]
            want["dual"] = base["dual"][np.ix_(tilde, xe[tilde])]
        for key, table in got.items():
            assert np.array_equal(table, want[key].reshape(-1)), (m, pr.k, pr.e, key)


@pytest.mark.parametrize("m", range(1, 9))
def test_psap_mm_g_lambda_match_loops(m):
    ctx = make_field(m)
    rng = np.random.default_rng(100 + m)
    for P in (SubfieldFn.trace_form(ctx, m), balanced(ctx, m, rng)):
        assert np.array_equal(psap(ctx, P).table, psap_loop(ctx, P))
    perm = PermTable(m, rng.permutation(ctx.size))
    g = rng.integers(0, 2, ctx.size)
    want = two_block_table(ctx, perm.table) ^ np.repeat(g, ctx.size).astype(np.uint8)
    assert np.array_equal(mm(ctx, perm, g).table, want)
    if m < 2:
        return  # no lambda outside F_2
    Q = PermTable(m, [0] + list(1 + rng.permutation(ctx.size - 1)))
    lams = range(2, ctx.size) if m <= 5 else (2, 3, ctx.size - 1)
    for e in sorted({pr.e for pr in valid_params(m)}):
        pr = validate_gps_params(m, 1, e)
        for lam in lams:
            assert np.array_equal(g_lambda(ctx, pr, Q, lam).table,
                                  g_lambda_loop(ctx, pr, Q, lam)), (m, e, lam)


def test_factors_through_subfield_trace_matches_loop():
    rng = np.random.default_rng(7)
    for m in range(1, 7):
        ctx = make_field(m)
        for k in range(1, m + 1):
            if m % k:
                continue
            Qs = [scaled(ctx, c) for c in ctx.subfield(k)[1:]]
            Qs += [PermTable(m, rng.permutation(ctx.size)) for _ in range(4)]
            for Q in Qs:
                assert (_factors_through_subfield_trace(ctx, k, Q)
                        == factors_through_subfield_trace_loop(ctx, k, Q))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_gmm_and_dual_match_loops(k):
    ck = make_field(k)
    rng = np.random.default_rng(k)
    for n in (2, 4):
        cm = make_field(n // 2)
        fam = [mm(cm, PermTable(n // 2, rng.permutation(cm.size)),
                  rng.integers(0, 2, cm.size)) for _ in range(1 << k)]
        assert np.array_equal(gmm(ck, k, fam).table, gmm_loop(ck, [f.table for f in fam]))
        assert np.array_equal(gmm_dual(ck, k, fam).table,
                              gmm_dual_loop(ck, [dual(f).table for f in fam]))


def test_psffff_matches_loop():
    rng = np.random.default_rng(5)
    cases = 0
    for m in range(1, 9):
        ctx = make_field(m)
        for k in range(1, m + 1):
            if m % k or np.gcd(ctx.order, (1 << k) + 1) != 1:
                continue
            P = SubfieldFn(ctx, k, rng.permutation(ctx.subfield(k)))
            s = ctx.subfield(k)[1:]
            triples = {(s[0], s[0], s[0]), (s[-1], s[0], s[-1]), (s[0], s[-1], s[len(s) // 2])}
            for a, b, c in sorted(triples)[:1 if m > 6 else 3]:
                if a ^ b ^ c:
                    cases += 1
                    assert np.array_equal(psffff(ctx, m, k, P, a, b, c).table,
                                          psffff_loop(ctx, k, P, a, b, c)), (m, k, a, b, c)
    assert cases >= 20


def test_partition_matches_loop():
    rng = np.random.default_rng(3)
    cases = 0
    for m in range(3, 7):
        ctx = make_field(m)
        for pr in valid_params(m):
            if pr.k < 3:
                continue
            cyclic = _odd_quadruple_assignment(ctx, pr.k)
            quads = list(cyclic.values())
            rng.shuffle(quads)
            for assignment in (cyclic, dict(zip(cyclic, quads))):
                cases += 1
                assert np.array_equal(partition_bent(ctx, pr, assignment).table,
                                      partition_loop(ctx, pr, assignment)), (m, pr.k, pr.e)
    assert cases == 2 * (3 + 4 + 5 + 18 + 6)


def _sets_from_labels(ctx, params):
    """U, A, V and B as spread_sets_loop gives them, read off the labels."""
    points = np.arange(ctx.size * ctx.size)
    x, y = points & (ctx.size - 1), points >> ctx.m
    out = []
    for orientation, line in (("f", x == 0), ("g", y == 0)):
        labels = spread_labels(ctx, params, orientation).reshape(-1)
        assert not labels[line].any()
        out += [frozenset(points[line].tolist()),
                {g: frozenset(points[~line & (labels == g)].tolist())
                 for g in ctx.subfield(params.k)}]
    return tuple(out)


def test_spread_labels_match_loop():
    cases = [pr for m in range(1, 7) for pr in valid_params(m)]
    cases += [validate_gps_params(*mke) for mke in GPS_GRID]
    for pr in cases:
        ctx = make_field(pr.m)
        for orientation in ("f", "g"):
            labels = spread_labels(ctx, pr, orientation)
            assert labels.shape == (ctx.size, ctx.size) and labels.dtype == np.int64
            assert not labels.flags.writeable
        assert _sets_from_labels(ctx, pr) == spread_sets_loop(ctx, pr), (pr.m, pr.k, pr.e)


def test_fhat_matches_loop():
    rng = np.random.default_rng(9)
    for m in range(1, 6):
        ctx = make_field(m)
        Q = PermTable(m, rng.permutation(ctx.size))
        for pr in valid_params(m):
            for _ in range(3):
                a, b, c, d = (int(t) for t in rng.integers(0, ctx.size, 4))
                assert np.array_equal(_fhat(ctx, pr, Q, a, b, c, d),
                                      fhat_loop(ctx, pr, Q, a, b, c, d)), (m, pr, a, b, c, d)
            # element arrays: one table per substitution, in order
            subs = rng.integers(0, ctx.size, (5, 4))
            tables = _fhat(ctx, pr, Q, *subs.T)
            assert tables.shape == (5, ctx.size ** 2)
            for row, sub in zip(tables, subs.tolist()):
                assert np.array_equal(row, fhat_loop(ctx, pr, Q, *sub)), (m, pr, sub)


@pytest.mark.parametrize("m", range(2, 9))
def test_trace_sum_rows_match_loop(m):
    # x = c t carries (c, d) to (1, d/c): the c = 1 row decides every pair
    ctx = make_field(m)
    T = slow_tables(m, ctx.irred)
    row = trace_sum_nonconstant(ctx)
    assert row.shape == (ctx.size,) and not row[0]
    for c in range(1, ctx.size):
        want = [trace_sum_loop(ctx, c, d) for d in range(1, ctx.size)]
        got = [bool(row[T.mul[d][T.inv[c]]]) for d in range(1, ctx.size)]
        assert got == want, c


def _classifier_functions():
    """Criterion 7's four functions and criterion 10's (4,2,2) function."""
    quad = BoolFn([((i & 1) & (i >> 1)) ^ ((i >> 2) & (i >> 3) & 1) for i in range(16)])
    ctx3, ctx4 = make_field(3), make_field(4)
    pr = validate_gps_params(4, 2, 2)
    return [quad, mm(ctx3, PermTable.inverse_map(ctx3)),
            psap(ctx3, SubfieldFn.trace_form(ctx3, 3)),
            gpsap(ctx4, pr, SubfieldFn.trace_form(ctx4, 2)),
            gpsap_trace_form(ctx4, pr, PermTable.identity(4))]


@pytest.mark.parametrize("which", range(5))
def test_batched_classifier_matches_planes_one_by_one(which):
    f = _classifier_functions()[which]
    us, vs = _planes(f.n)
    status, cls = classify_planes(f, us, vs)
    assert status.shape == (us.size, 4) and cls.shape == (us.size,)
    # the scan labels the same planes in the same order from the dual side
    scan = scan_decompositions(f)
    assert np.array_equal(scan.basis1, us) and np.array_equal(scan.basis2, vs)
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        rep = classify_decomposition(f, u, v)
        assert rep.statuses == tuple(STATUSES[s] for s in status[i].tolist())
        assert (rep.classification, rep.dual_second_derivative) == (
            CLASSES[cls[i]], CONSTANCY[scan.codes[i]]), (u, v)
    # the restrictions behind the statuses are the basis-oracle ones
    index = _coset_index(f.n, us[:, None], vs[:, None]).reshape(us.size, 4, -1)
    assert np.array_equal(index, naive_coset_index(f.n))


def test_classify_planes_edges():
    f = _classifier_functions()[1]
    status, cls = classify_planes(f, [], [])
    assert status.shape == (0, 4) and cls.size == 0
    for us, vs in (([0], [1]), ([3], [3]), ([64], [1]), ([-1], [2]), ([1 << 70], [1]),
                   ([1, 2], [3])):
        with pytest.raises(ParameterError):
            classify_planes(f, us, vs)


@pytest.mark.parametrize("n", range(1, 9))
def test_plane_enumerator_matches_loop(n):
    u, v = _planes(n)
    assert list(zip(u.tolist(), v.tolist())) == naive_planes(n)
    # the row-block form: blocks of first vectors concatenate to the whole
    bounds = list(range(0, 1 << n, 3)) + [1 << n]
    blocks = [_planes(n, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), u)
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), v)


def _scan_functions():
    """Criterion 7's four functions, criterion 10's (4,2,2) function and a
    seeded affine image of it."""
    fns = _classifier_functions()
    rng = XorShift64Star(8)
    spread = fns[-1]
    L = random_invertible(rng, spread.n)
    return fns + [ea_transform(spread, L, rng.randrange(256), rng.randrange(256), 1)]


@pytest.mark.parametrize("chunk", [decomp._CHUNK_ENTRIES, 100])
@pytest.mark.parametrize("which", range(6))
def test_scan_matches_per_plane_loop(which, chunk, tmp_path, monkeypatch):
    # a chunk of 100 entries batches six b1 at n = 4 and one at n = 8, and
    # splits the records of every n = 6 and n = 8 function across chunks
    monkeypatch.setattr(decomp, "_CHUNK_ENTRIES", chunk)
    f = _scan_functions()[which]
    want = naive_scan(f)
    scan = scan_decompositions(f)
    assert len(scan) == len(want)
    assert (scan.basis1.dtype, scan.basis2.dtype, scan.codes.dtype) == (
        np.int32, np.int32, np.uint8)
    assert scan.basis1.nbytes + scan.basis2.nbytes + scan.codes.nbytes <= 9 * len(scan)
    assert scan.basis1.tolist() == [r.basis1 for r in want]
    assert scan.basis2.tolist() == [r.basis2 for r in want]
    assert scan.codes.tolist() == [CLASSES.index(r.classification) for r in want]
    assert list(scan) == want
    assert list(scan) == list(scan)
    save_scan(scan, str(tmp_path / "arrays.csv"))
    naive_save_scan(want, str(tmp_path / "records.csv"))
    assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()


def test_criterion_05_reports_first_vanishing_pair(monkeypatch):
    real = verify.trace_sum_nonconstant
    vanish = {5: (3, 2), 6: (1,)}
    calls = []

    def fake(ctx):
        calls.append(ctx.m)
        row = real(ctx).copy()
        for d in vanish.get(ctx.m, ()):
            row[d] = False
        return row

    monkeypatch.setattr(verify, "trace_sum_nonconstant", fake)
    res = verify.run_criterion(5)
    assert not res.passed
    assert res.detail == "vanishing trace sum at m=5, c=0x1, d=0x2"
    assert calls == [4, 5]
    # one c = 1 row per field, m = 4..8
    vanish.clear()
    calls.clear()
    assert verify.run_criterion(5).passed
    assert calls == [4, 5, 6, 7, 8]


@pytest.mark.parametrize("a, b", [((1, 1), (7, 2)), ((3, 1), (3, 2))])
def test_criterion_11_reports_first_wrong_sum(monkeypatch, a, b):
    # swap the parts of two points, indexed [y, x]: across rows the first
    # wrong sum has u = 0, within a row u != 0, and there it is B(0x6)'s
    real = verify.spread_labels
    ctx = make_field(4)
    pr = validate_gps_params(4, 2, 2)
    moved = real(ctx, pr, "g").copy()
    assert moved[a] != moved[b]
    moved[a], moved[b] = moved[b], moved[a]

    def fake(ctx, params, orientation="f"):
        return moved if orientation == "g" else real(ctx, params, orientation)

    monkeypatch.setattr(verify, "spread_labels", fake)
    res = verify.run_criterion(11)
    points = np.arange(256)
    flat = moved.reshape(-1)
    B = {g: frozenset(points[(points >> 4 != 0) & (flat == g)].tolist())
         for g in ctx.subfield(2)}
    passed, detail = character_sums_loop(ctx, pr, B, frozenset(range(16)))
    assert not passed and not res.passed
    assert res.detail == detail


def test_criterion_11_matches_loop():
    ctx = make_field(4)
    pr = validate_gps_params(4, 2, 2)
    _, _, V, B = spread_sets_loop(ctx, pr)
    assert character_sums_loop(ctx, pr, B, V) == (True, verify.run_criterion(11).detail)


def test_criterion_07_reports_first_disagreeing_plane(monkeypatch):
    real = verify.scan_decompositions
    ctx3 = make_field(3)
    inverse_mm = mm(ctx3, PermTable.inverse_map(ctx3))
    flip = {(6, 5, 40), (6, 3, 12), (8, 1, 2)}

    def fake(f):
        scan = real(f)
        codes = scan.codes.copy()
        for i, (u, v) in enumerate(zip(scan.basis1.tolist(), scan.basis2.tolist())):
            if (f.n, u, v) in flip and (f.n != 6 or f == inverse_mm):
                codes[i] = (codes[i] + 1) % 3
        return decomp.PlaneScan(scan.basis1, scan.basis2, codes)

    monkeypatch.setattr(verify, "scan_decompositions", fake)
    res = verify.run_criterion(7)
    assert not res.passed
    rep = classify_decomposition(inverse_mm, 3, 12)
    flipped = CONSTANCY[(CONSTANCY.index(rep.dual_second_derivative) + 1) % 3]
    assert res.detail == (f"two-block m=3: plane (3,12) classifies {rep.classification} "
                          f"but the dual derivative is {flipped}")


def test_derivative_autocorrelation_matches_naive():
    """One direction, an array of every direction (a leading axis), and
    a stack of tables; each row is the autocorrelation of D_a f."""
    rng = np.random.default_rng(9)
    for n in range(1, 7):
        f = BoolFn(rng.integers(0, 2, 1 << n))
        want = [naive_autocorrelation(derivative(f, a).table) for a in range(1 << n)]
        rows = _derivative_autocorrelation(f.table, np.arange(1 << n))
        assert rows.dtype == np.int64 and rows.tolist() == want
        for a in range(1 << n):
            assert _derivative_autocorrelation(f.table, a).tolist() == want[a]
    stack = rng.integers(0, 2, (5, 32)).astype(np.uint8)
    for a in (1, 6, 31):
        want = [naive_autocorrelation(derivative(BoolFn(t), a).table) for t in stack]
        assert _derivative_autocorrelation(stack, a).tolist() == want
    rows = _derivative_autocorrelation(stack, np.array([3, 17]))
    assert rows.shape == (2, 5, 32)
    for i, a in enumerate((3, 17)):
        assert rows[i].tolist() == _derivative_autocorrelation(stack, a).tolist()


def test_property_P_matches_loop():
    """Every power-map permutation at m = 2..8 and seeded random
    permutations at m <= 6: the same answer and the same counterexample
    as the shift-by-shift loop."""
    for m in range(2, 9):
        ctx = make_field(m)
        for e in range(1, ctx.order):
            if math.gcd(e, ctx.order) == 1:
                pi = PermTable.from_exponent(ctx, e)
                assert check_property_P(ctx, pi) == property_P_loop(ctx, pi), (m, e)
    rng = np.random.default_rng(44)
    for m in range(1, 7):
        ctx = make_field(m)
        for _ in range(20):
            pi = PermTable(m, rng.permutation(ctx.size))
            assert check_property_P(ctx, pi) == property_P_loop(ctx, pi), (m, pi.table)
