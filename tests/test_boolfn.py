import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bentfn.boolfn
from bentfn import (
    BoolFn,
    DomainError,
    ParseError,
    Space,
    XorShift64Star,
    anf,
    anf_degree,
    autocorrelation,
    dual,
    ext_walsh_spectrum,
    is_balanced,
    is_bent,
    load_table,
    make_field,
    mm,
    plateaued_order,
    save_table,
    walsh_transform,
)
from bentfn.boolfn import _fwht_inplace, _linear_image
from bentfn.construct import PermTable

from helpers import (FILE_EXAMPLES, naive_anf_degree, naive_autocorrelation, naive_hadamard,
                     naive_walsh, with_noise)


def rand_fn(rng, n):
    return BoolFn(np.array([rng.bits(1) for _ in range(1 << n)], dtype=np.uint8))


QUAD = BoolFn([((i & 1) & (i >> 1)) ^ ((i >> 2) & (i >> 3) & 1)
               for i in range(16)])


@pytest.mark.parametrize("n", range(12))
def test_fwht_kernel_matches_double_sum(n):
    # odd and even stage counts: an odd n ends in the scratch buffer
    values = np.random.default_rng(n).integers(-1000, 1001, 1 << n, dtype=np.int64)
    expected = naive_hadamard(values)
    got = _fwht_inplace(values)
    assert got is values
    assert got.dtype == np.int64
    assert list(values) == expected


@pytest.mark.parametrize("rows", [1, 3, 4, 16, (2, 3)], ids=str)
@pytest.mark.parametrize("k", range(9))
def test_fwht_kernel_batched_rows(k, rows):
    # a (rows, 2^k) or (2, 3, 2^k) array transforms each row in one call
    lead = rows if isinstance(rows, tuple) else (rows,)
    values = np.random.default_rng(100 * len(lead) * lead[-1] + k).integers(
        -1000, 1001, (*lead, 1 << k), dtype=np.int64)
    expected = [naive_hadamard(row) for row in values.reshape(-1, 1 << k)]
    got = _fwht_inplace(values)
    assert got is values
    assert got.dtype == np.int64 and got.shape == (*lead, 1 << k)
    assert [list(row) for row in values.reshape(-1, 1 << k)] == expected


def test_fwht_kernel_rejects_non_contiguous():
    # a flattened copy would take the result: the kernel refuses instead
    values = np.arange(64, dtype=np.int64).reshape(8, 8)
    for view in (values.T, values[:, ::2], values[::2], values.reshape(-1)[::2]):
        before = values.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            _fwht_inplace(view)
        assert np.array_equal(values, before)


@pytest.mark.parametrize("shape, small", [
    ((4, 64), True), ((1, 256), True), ((64, 4), True), ((3, 2), True), ((0, 16), True),
    ((4, 128), False), ((1, 512), False), ((1, 4096), False),
], ids=str)
def test_fwht_kernel_dispatch(monkeypatch, shape, small):
    # up to 2^8 entries the kernel reads two Sylvester factors a call;
    # above, the butterflies run and read none
    factors = []
    sylvester = bentfn.boolfn._sylvester
    monkeypatch.setattr(bentfn.boolfn, "_sylvester",
                        lambda k: factors.append(k) or sylvester(k))
    values = np.ones(shape, dtype=np.int64)
    expected = np.zeros(shape, dtype=np.int64)
    expected[..., 0] = shape[-1]
    assert _fwht_inplace(values) is values
    assert len(factors) == (2 if small else 0)
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("k", range(5))
def test_sylvester_factor_matches_double_sum(k):
    # column x is the transform of the unit vector e_x; the matrix is
    # shared by every small transform, so it must refuse writes
    h = bentfn.boolfn._sylvester(k)
    columns = [naive_hadamard(unit) for unit in np.eye(1 << k, dtype=np.int64)]
    assert h.dtype == np.int64
    assert h.tolist() == np.array(columns).T.tolist()
    with pytest.raises(ValueError, match="read-only"):
        h[0, 0] = -1
    assert h[0, 0] == 1


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_walsh_matches_double_sum(n):
    rng = XorShift64Star(n * 11)
    for _ in range(20):
        f = rand_fn(rng, n)
        assert walsh_transform(f).tolist() == naive_walsh(f.table)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_autocorrelation_matches_double_sum(n):
    rng = XorShift64Star(n * 13)
    for _ in range(20):
        f = rand_fn(rng, n)
        delta = autocorrelation(f)
        assert delta.dtype == np.int64
        assert list(delta) == naive_autocorrelation(f.table)


def test_walsh_spectrum_basics():
    spec = walsh_transform(QUAD)
    assert spec.dtype == np.int64 and not spec.flags.writeable
    assert int((spec * spec).sum()) == 1 << (2 * QUAD.n)   # Parseval
    assert set(map(abs, spec.tolist())) == {4}


def test_is_bent():
    assert is_bent(QUAD)
    assert not is_bent(BoolFn([i & 1 for i in range(16)]))  # affine
    odd = BoolFn([0] * 8)
    assert not is_bent(odd)  # odd dimension cannot be bent


def test_plateaued_and_semibent():
    assert plateaued_order(QUAD) == 0
    affine = BoolFn([(3 & i).bit_count() & 1 for i in range(16)])
    assert plateaued_order(affine) == 4
    # restriction of a bent function on 6 vars: semibent on 5
    ctx = make_field(3)
    f6 = mm(ctx, PermTable.inverse_map(ctx)).with_space(None)
    half = BoolFn(f6.table[:32])
    assert plateaued_order(half) == 1
    two = BoolFn([0, 0, 0, 1])
    assert plateaued_order(two) == 0
    g = BoolFn([0, 1, 1, 1])  # not plateaued on 2 vars? all 1-var are
    assert plateaued_order(g) in (0, 2) or plateaued_order(g) is None


def test_balancedness():
    assert not is_balanced(QUAD)
    assert is_balanced(BoolFn([0, 1, 0, 1]))


def test_dual_involution_and_error():
    assert dual(dual(QUAD)) == QUAD
    assert is_bent(dual(QUAD))
    with pytest.raises(DomainError):
        dual(BoolFn([0, 0, 0, 0]))


def test_dual_definition():
    # 2^(n/2) (-1)^(dual(x)) = W(x), checked literally
    f = QUAD
    w = walsh_transform(f)
    d = dual(f)
    for x in range(16):
        assert w[x] == 4 * (1 - 2 * int(d.table[x]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_anf_degree_matches_subset_sums(n):
    rng = XorShift64Star(n * 31)
    for _ in range(25):
        f = rand_fn(rng, n)
        assert anf_degree(f) == naive_anf_degree(f.table)


def test_anf_round_trip():
    rng = XorShift64Star(9)
    f = rand_fn(rng, 4)
    coeffs = anf(f)
    # rebuild: f(x) = XOR of coeffs[u] over u subset of x
    for x in range(16):
        acc = 0
        for u in range(16):
            if u & x == u and coeffs[u]:
                acc ^= 1
        assert acc == int(f.table[x])


def test_ext_spectrum_counts():
    hist = ext_walsh_spectrum(QUAD)
    assert hist == {4: 16}
    affine = BoolFn([0] * 4)
    assert ext_walsh_spectrum(affine) == {4: 1, 0: 3}


def test_boolfn_validation():
    with pytest.raises(DomainError):
        BoolFn([0, 1, 1])  # length not a power of two
    with pytest.raises(DomainError):
        BoolFn([0, 2, 0, 1])  # entries must be bits
    f = BoolFn([0, 1, 1, 0])
    with pytest.raises(ValueError):
        f.table[0] = 1  # table is read-only


def test_shift():
    f = QUAD
    g = f.shift(3)
    for x in range(16):
        assert g.table[x] == f.table[x ^ 3]


def test_space_pairing_changes_transform():
    ctx = make_field(2)
    f = mm(ctx, PermTable.identity(2))
    assert f.space is not None and not f.space.is_plain
    plain = walsh_transform(f.with_space(None))
    paired = walsh_transform(f)
    assert sorted(map(abs, plain)) == sorted(map(abs, paired))
    perm = f.space.perm()
    assert list(paired) == [plain[p] for p in perm]


def test_linear_image_matches_bit_loop():
    rng = XorShift64Star(5)
    for width in range(7):
        cols = [rng.randrange(1 << 10) for _ in range(width)]
        want = []
        for i in range(1 << width):
            acc = 0
            for j, col in enumerate(cols):
                if i >> j & 1:
                    acc ^= col
            want.append(acc)
        assert _linear_image(cols).tolist() == want


def test_space_gram_symmetric():
    ctx = make_field(3)
    sp = Space([ctx, ctx])
    assert sp.n == 6
    perm = sp.perm()
    for b in range(64):
        for x in range(64):
            lhs = (int(perm[b]) & x).bit_count() & 1
            rhs = (int(perm[x]) & b).bit_count() & 1
            assert lhs == rhs


def test_table_file_round_trip(tmp_path):
    rng = XorShift64Star(77)
    for n in (1, 3, 4, 6):
        f = rand_fn(rng, n)
        p = tmp_path / f"f{n}.tt"
        save_table(f, str(p))
        assert load_table(str(p)) == f
    text = (tmp_path / "f4.tt").read_text()
    assert text.startswith("n=4\n")
    assert all(c in "0123456789abcdef" for c in text.splitlines()[1])


def test_table_hex_bit_order(tmp_path):
    # bit i of the table is bit (i mod 4) of hex digit i // 4
    f = BoolFn([1, 0, 0, 0, 0, 0, 0, 1])
    p = tmp_path / "f.tt"
    save_table(f, str(p))
    assert p.read_text().splitlines()[1] == "18"


@pytest.mark.parametrize("body,lineno", [
    ("m=4\nffff\n", 1),
    ("n=x\nffff\n", 1),
    ("n=4\nfff\n", 2),
    ("n=4\nfffg\n", 2),
    ("n=4\n", 2),
    ("n=17\n0\n", 1),
    ("n=0\n0\n", 1),
    ("# only a comment\n\n", 1),
    ("# comment\n\nn=4\n# no table\n", 4),
    ("n=4\nff\n# comment\nfg\n", 4),
])
def test_table_parse_errors(tmp_path, body, lineno):
    p = tmp_path / "bad.tt"
    p.write_text(body)
    with pytest.raises(ParseError) as exc:
        load_table(str(p))
    assert f"line {lineno}" in str(exc.value)


@FILE_EXAMPLES
@given(st.data())
def test_table_file_any_layout(tmp_path, data):
    n = data.draw(st.integers(1, 10))
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    f = BoolFn([bits >> i & 1 for i in range(1 << n)])
    p = tmp_path / "f.tt"
    save_table(f, str(p))
    header, digits = p.read_text().splitlines()
    lines = [header]
    while digits:
        width = data.draw(st.integers(1, 24))
        lines.append(digits[:width])
        digits = digits[width:]
    p.write_text(with_noise(data, lines))
    assert load_table(str(p)) == f


README_TT = """\
# bentfn construct --family mm --m 4 --perm inverse
n=8
000000ffaaaa6996
6666a5a5c33cc3c3
69690f0f6699cc33
a55acccc0ff0aa55
"""


def test_table_readme_layout(tmp_path):
    p = tmp_path / "readme.tt"
    p.write_text(README_TT)
    f = load_table(str(p))
    ctx = make_field(4)
    assert f == mm(ctx, PermTable.inverse_map(ctx))
    one = tmp_path / "one.tt"
    save_table(f, str(one))
    assert one.read_text() == "n=8\n" + "".join(README_TT.splitlines()[2:]) + "\n"
    assert load_table(str(one)) == f


def test_table_file_not_utf8(tmp_path):
    p = tmp_path / "bad.tt"
    for body, lineno in ((b"n=4\nff\xfeff\n", 2), (b"\xff\n", 1)):
        p.write_bytes(body)
        with pytest.raises(ParseError) as exc:
            load_table(str(p))
        assert exc.value.line == lineno and "not UTF-8" in str(exc.value)
