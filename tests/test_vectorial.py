import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bentfn import (
    DomainError,
    OutPairing,
    ParseError,
    VecFn,
    check_component_dual_linearity,
    component,
    gpsap_vectorial,
    is_bent,
    is_vectorial_bent,
    load_vecfn,
    make_field,
    save_vecfn,
    validate_gps_params,
)
from bentfn.construct import SubfieldFn

from helpers import FILE_EXAMPLES, with_noise


def vec_422():
    ctx = make_field(4)
    pr = validate_gps_params(4, 2, 2)
    return gpsap_vectorial(ctx, pr, SubfieldFn.identity_perm(ctx, 2))


def test_component_basics():
    F = VecFn([0, 1, 2, 3], 2)
    assert component(F, 1).table.tolist() == [0, 1, 0, 1]
    assert component(F, 2).table.tolist() == [0, 0, 1, 1]
    assert component(F, 3).table.tolist() == [0, 1, 1, 0]
    with pytest.raises(DomainError):
        component(F, 0)
    with pytest.raises(DomainError):
        component(F, 4)


def test_vecfn_validation():
    with pytest.raises(DomainError):
        VecFn([0, 1, 2], 2)
    with pytest.raises(DomainError):
        VecFn([0, 4], 2)  # entry needs 3 bits
    with pytest.raises(DomainError):
        VecFn([0, 1, 2, 3], 0)


def test_spread_vectorial_is_bent():
    F = vec_422()
    assert F.n == 8 and F.k == 2
    assert is_vectorial_bent(F)
    # pairing-independent: all dot components bent too
    G = VecFn(F.table, F.k, F.space, OutPairing.dot(F.k))
    assert is_vectorial_bent(G)


def test_component_duals_linear_for_spread():
    F = vec_422()
    assert check_component_dual_linearity(F)


def test_dual_linearity_needs_bent():
    F = VecFn(np.zeros(16, dtype=np.int64), 2)
    with pytest.raises(DomainError):
        check_component_dual_linearity(F)


def test_dual_linearity_can_fail():
    # a vectorial bent pair whose component duals are not additive
    from bentfn import BoolFn

    f1 = BoolFn([((i & 1) & (i >> 1)) ^ ((i >> 2) & (i >> 3) & 1)
                 for i in range(16)])
    f2 = BoolFn([0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1])
    assert is_bent(f1) and is_bent(f2) and is_bent(f1 ^ f2)
    tbl = f1.table.astype(np.int64) | (f2.table.astype(np.int64) << 1)
    F = VecFn(tbl, 2)
    assert is_vectorial_bent(F)
    assert not check_component_dual_linearity(F)


def test_subfield_trace_pairing_symmetric():
    ctx = make_field(4)
    pairing = OutPairing.subfield_trace(ctx, 2)
    for a in range(4):
        for b in range(4):
            lhs = (pairing.dualmask(a) & b).bit_count() & 1 if a else 0
            rhs = (pairing.dualmask(b) & a).bit_count() & 1 if b else 0
            assert lhs == rhs


def test_vecfn_file_round_trip(tmp_path):
    F = vec_422()
    p = tmp_path / "F.vt"
    save_vecfn(F, str(p))
    G = load_vecfn(str(p))
    assert G.n == F.n and G.k == F.k
    assert np.array_equal(G.table, F.table)
    head = p.read_text().splitlines()[0]
    assert head == "n=8 k=2"


@pytest.mark.parametrize("body,lineno", [
    ("n=2\n0\n0\n0\n0\n", 1),
    ("n=2 k=2\n0\n0\n0\n", 4),
    ("n=2 k=2\n0\nq\n0\n0\n", 3),
    ("n=17 k=1\n0\n", 1),
    ("# comment\nn=1 k=17\n0\n1\n", 2),
])
def test_vecfn_parse_errors(tmp_path, body, lineno):
    p = tmp_path / "bad.vt"
    p.write_text(body)
    with pytest.raises(ParseError) as exc:
        load_vecfn(str(p))
    assert f"line {lineno}" in str(exc.value)


@FILE_EXAMPLES
@given(st.data())
def test_vecfn_file_with_comments(tmp_path, data):
    n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    vals = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1 << n, max_size=1 << n))
    F = VecFn(np.array(vals), k)
    p = tmp_path / "F.vtt"
    save_vecfn(F, str(p))
    p.write_text(with_noise(data, p.read_text().splitlines()))
    G = load_vecfn(str(p))
    assert (G.n, G.k) == (F.n, F.k)
    assert np.array_equal(G.table, F.table)
