import numpy as np
import pytest

from bentfn import (
    DomainError,
    Space,
    VecFn,
    check_component_dual_linearity,
    component,
    gpsap_vectorial,
    is_bent,
    is_vectorial_bent,
    make_field,
    validate_gps_params,
)
from bentfn.construct import SubfieldFn


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
    with pytest.raises(DomainError, match="2-bit values"):
        VecFn([0., 1.5], 2)  # not truncated to [0, 1]
    with pytest.raises(DomainError, match="64-bit values"):
        VecFn(np.array([0, 1 << 63], dtype=np.uint64), 64)  # would wrap to -2^63
    with pytest.raises(DomainError):
        VecFn([0, 1, 2, 3], 0)
    with pytest.raises(DomainError):
        VecFn([0, 1, 2, 3], 2, pairing=Space.bits(3))
    with pytest.raises(DomainError, match="space dimension does not match"):
        VecFn([0, 1, 2, 3], 2, space=Space.bits(3))


def test_spread_vectorial_is_bent():
    F = vec_422()
    assert F.n == 8 and F.k == 2
    assert is_vectorial_bent(F)
    # pairing-independent: all dot components bent too
    G = VecFn(F.table, F.k, F.space, Space.bits(F.k))
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
    perm = Space([(ctx, 2)]).perm()
    for a in range(4):
        for b in range(4):
            lhs = (int(perm[a]) & b).bit_count() & 1 if a else 0
            rhs = (int(perm[b]) & a).bit_count() & 1 if b else 0
            assert lhs == rhs
