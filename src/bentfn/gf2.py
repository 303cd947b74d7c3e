"""Arithmetic in small binary fields GF(2^m).

Field elements are plain ints in [0, 2^m): bit i is the coefficient of
x^i in the polynomial basis {1, x, ..., x^(m-1)} modulo a fixed
irreducible polynomial.  A FieldCtx holds that modulus together with
discrete-log tables for a multiplicative generator, found by search
(x itself is not always primitive, e.g. the degree-8 default 0x11b).
Those tables are numpy arrays built once, on first use, and they are
the only multiplication there is.

The subfield GF(2^k), k | m, is represented inside GF(2^m) as
S_k = {z : z^(2^k) = z}; tables over GF(2^k) are keyed by the elements
of S_k in ascending bitmask order.  That ordering is additive: the
index of z1 + z2 is index(z1) XOR index(z2), because the ascending
enumeration of any GF(2)-subspace is the XOR-counter order over its
reduced basis.

Besides the scalar operations, which index those arrays, a context
offers numpy arrays over the whole field (products, power tables,
absolute and relative traces, subfield elements and indices); those it
keeps are read-only and built once, on first use, so that a loop over
field elements becomes one gather.
"""

from __future__ import annotations

import builtins
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

_MAX_DEGREE = 16
# for the caches keyed by a caller's m or k, so that 3.0 misses the entry
# of 3 and meets the gate in the body
_typed_cache = functools.lru_cache(maxsize=None, typed=True)


def _poly_mod(a: int, b: int) -> int:
    """Remainder of polynomial division a mod b over GF(2)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def is_irreducible(poly: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1..m/2."""
    if poly.bit_length() != m + 1:
        return False
    for d in range(1, m // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, q) == 0:
                return False
    return True


def _generator_powers(m: int, irred: int) -> list[int]:
    """g^0, g^1, ..., g^(2^m - 2) for the smallest generator g of GF(2^m)*.

    For each candidate g the multiply-by-g map of every element comes
    from one carry-less multiply by Horner's rule over the bits of g.  Its
    cycle through 1 is the subgroup <g>, so g generates exactly when that
    cycle holds all 2^m - 1 nonzero elements; GF(2^m)* is cyclic, so some
    g does and the loop returns.
    """
    if m == 1:
        return [1]   # GF(2)* = {1}
    elements = np.arange(1 << m, dtype=np.int64)
    for g in range(2, 1 << m):
        times_g = elements   # the top bit of g
        for bit in reversed(range(g.bit_length() - 1)):
            times_g = times_g << 1
            times_g ^= (times_g >> m) * irred
            if g >> bit & 1:
                times_g ^= elements
        step = times_g.tolist()
        powers, x = [1], step[1]
        while x != 1:
            powers.append(x)
            x = step[x]
        if len(powers) == (1 << m) - 1:
            return powers


class FieldCtx:
    """GF(2^m) with a fixed irreducible modulus.

    Immutable after construction; all operations are pure, so a context
    may be shared freely between threads.
    """

    def __init__(self, m: int, irred: int):
        _check_degree(m)
        if not is_irreducible(irred, m):
            raise ParameterError(f"0x{irred:x} is not an irreducible polynomial of degree {m}")
        self.m = m
        self.irred = irred
        self.size = 1 << m
        self.order = self.size - 1

    # -- element arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        _check_vectors(self.m, a, b)
        return int(self._exp_arr[self._log_arr[int(a)] + self._log_arr[int(b)]])

    def neg_exp(self, e: int) -> int:
        """(-e) mod (2^m - 1), so that pow_table(neg_exp(e)) maps x to x^(-e)
        on x != 0.

        On GF(2) that residue is 0, which would send 0 to 1; 1 is returned
        instead, so 0 maps to 0 as it does for every e prime to 2^m - 1.
        """
        return (-e) % self.order if self.order > 1 else 1

    def trace(self, a: int) -> int:
        """Absolute trace to GF(2)."""
        _check_vectors(self.m, a)
        return int(self.trace_arr[int(a)])

    # -- subfield plumbing ----------------------------------------------------

    @_typed_cache
    def subfield(self, k: int) -> np.ndarray:
        """The 2^k elements of S_k = {z : z^(2^k) = z}, ascending."""
        return _frozen(np.flatnonzero(self.subfield_index_arr(k) >= 0))

    def subfield_index(self, k: int, z: int) -> int:
        """Position of a subfield element in the ascending ordering."""
        index = self.subfield_index_arr(k)
        i = int(index[int(z)]) if _is_vector(self.m, z) else -1
        if i < 0:
            raise DomainError(f"{z} is not in the subfield S_{k}")
        return i

    # -- whole-field arrays ---------------------------------------------------

    @functools.cached_property
    def elements(self) -> np.ndarray:
        """Every element, ascending: 0, 1, ..., 2^m - 1."""
        return _frozen(np.arange(self.size, dtype=np.int64))

    @functools.cached_property
    def _exp_arr(self) -> np.ndarray:
        # exp over [0, 2 * order - 2], then zeros up to twice the sentinel
        powers = _generator_powers(self.m, self.irred)
        return _frozen(np.array(powers + powers[:-1] + [0] * (2 * self.order), dtype=np.int64))

    @functools.cached_property
    def _log_arr(self) -> np.ndarray:
        # log(0) is the sentinel 2^(m+1) - 3 = 2 * order - 1: any sum of
        # two logs that involves it lands in the zero tail of _exp_arr
        log = np.empty(self.size, dtype=np.int64)
        log[0] = 2 * self.order - 1
        log[self._exp_arr[:self.order]] = np.arange(self.order)
        return _frozen(log)

    def mul_arr(self, a, b) -> np.ndarray:
        """Elementwise product of element arrays, with numpy broadcasting."""
        return self._exp_arr[self._log_arr[a] + self._log_arr[b]]

    def pow_table(self, e: int) -> np.ndarray:
        """x^e for every element x, with 0^0 = 1 and 0^e = 0 for e > 0, so
        that x^(2^m - 2) is "1/x with 0 mapped to 0"; needs e >= 0."""
        if not _is_natural(e):
            raise DomainError(f"the exponent must be a non-negative integer, got {e}")
        out = np.zeros(self.size, dtype=np.int64)
        out[self._exp_arr[:self.order]] = self._exp_arr[
            np.arange(self.order, dtype=np.int64) * (e % self.order) % self.order]
        out[0] = 0 if e else 1
        return out

    def spread_table(self, e: int) -> np.ndarray:
        """The (2^m, 2^m) table of y * x^e, rows indexed by y and columns
        by x, so that its flat index is x + 2^m y; needs e >= 0."""
        return self.mul_arr(self.elements[:, None], self.pow_table(e)[None, :])

    def _frobenius(self, a: np.ndarray, k: int) -> np.ndarray:
        """a^(2^k) elementwise, by k squarings."""
        for _ in range(k):
            a = self.mul_arr(a, a)
        return a

    def _frobenius_sum(self, a: np.ndarray, s: int, t: int) -> np.ndarray:
        """The sum of a^(2^(s i)) over i < t, elementwise: on elements
        of S_(st), the relative trace from S_(st) onto S_s.  With s = k and
        t = m/k it is Tr_k^m on the whole field, with s = 1 and t = k it
        is Tr_1^k on S_k."""
        out = a
        for _ in range(t - 1):
            a = self._frobenius(a, s)
            out = out ^ a
        return out

    @functools.cached_property
    def trace_arr(self) -> np.ndarray:
        """Absolute trace of every element, as uint8 bits."""
        return _frozen(self.trace_rel_arr(1).astype(np.uint8))

    @_typed_cache
    def trace_rel_arr(self, k: int) -> np.ndarray:
        """Relative trace onto the subfield S_k of every element x: the
        sum of x^(2^(ki)) over i < m/k."""
        _check_subfield_degree(self.m, k)
        return _frozen(self._frobenius_sum(self.elements, k, self.m // k))

    @_typed_cache
    def subfield_index_arr(self, k: int) -> np.ndarray:
        """Position of every element in the ascending ordering of S_k,
        or -1 for the elements outside S_k."""
        _check_subfield_degree(self.m, k)
        inside = self._frobenius(self.elements, k) == self.elements
        assert int(inside.sum()) == 1 << k
        return _frozen(np.where(inside, np.cumsum(inside) - 1, -1))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# -- the entry rule for integers a caller passes ------------------------------

def _is_integer(v) -> bool:
    """Is v an integer?  A bool or a numpy integer will do; a float will
    not, even a whole one."""
    return isinstance(v, (int, np.integer, np.bool_))


def _is_vector(n: int, v) -> bool:
    """Is v a vector of V_n, an integer in [0, 2^n)?  A bit is a vector
    of V_1, and an element of GF(2^m) one of V_m."""
    return _is_integer(v) and 0 <= v < 1 << n


def _is_natural(v, least: int = 0) -> bool:
    """Is v an integer no less than least (an exponent, a width, a count)?"""
    return _is_integer(v) and v >= least


def _check_vectors(n: int, *vectors) -> None:
    """Raise DomainError unless every vector lies in V_n."""
    for v in vectors:
        if not _is_vector(n, v):
            raise DomainError(f"{v} is not a vector of V_{n}")


def _check_degree(m) -> None:
    """Raise ParameterError unless m is a field degree, an integer in 1..16."""
    if not (_is_natural(m, 1) and m <= _MAX_DEGREE):
        raise ParameterError(f"extension degree must be an integer in 1..{_MAX_DEGREE}, got {m}")


def _check_subfield_degree(m: int, k) -> None:
    """Raise ParameterError unless GF(2^m) has a subfield GF(2^k)."""
    if not (_is_natural(k, 1) and m % k == 0):
        raise ParameterError(f"GF(2^{m}) has no subfield GF(2^{k})")


def _check_field(ctx: FieldCtx, m, what: str) -> None:
    """Raise ParameterError unless m, the degree of what `what` ("Q is")
    names, is the context's."""
    if not (_is_integer(m) and m == ctx.m):
        raise ParameterError(f"{what} for GF(2^{m}), the context is GF(2^{ctx.m})")


def _entries_within(tbl: np.ndarray, top: int) -> bool:
    """Are the entries of tbl bools or integers in [0, top]?  Asked before
    a cast, which would wrap or truncate them.  An empty table passes."""
    kind = tbl.dtype.kind
    if not tbl.size or kind == "b":
        return True
    if kind not in "iu":
        return False   # floats, and objects such as ints beyond 64 bits
    return (kind == "u" or int(tbl.min()) >= 0) and int(tbl.max()) <= top


@_typed_cache
def default_modulus(m: int) -> int:
    """Smallest irreducible degree-m polynomial with constant term 1."""
    _check_degree(m)
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_irreducible(cand, m):
            return cand
    raise ParameterError(f"no irreducible polynomial of degree {m}")  # unreachable


def make_field(m: int, irred: int | None = None) -> FieldCtx:
    """Build (and cache) a GF(2^m) context; one per modulus, so that
    an omitted modulus and the default one give the same context."""
    _check_degree(m)   # before the cache, where 3.0 would find the entry of 3
    if not (irred is None or _is_integer(irred)):
        raise ParameterError(f"the modulus must be an integer, got {irred}")
    return _field(m, default_modulus(m) if irred is None else irred)


@functools.cache
def _field(m: int, irred: int) -> FieldCtx:
    return FieldCtx(m, irred)


@dataclass(frozen=True)
class GpsParams:
    """Validated exponent bookkeeping for the spread constructions.

    Invariants: k | m; gcd(e, 2^m - 1) = 1; e = 2^ell mod (2^k - 1)
    with 0 <= ell < k (ell = 0 when k = 1); eta * e = 1 mod (2^m - 1).
    """

    m: int
    k: int
    e: int
    ell: int
    eta: int


def mod_inverse_exponent(e: int, m: int) -> int:
    """The exponent eta with eta*e = 1 mod (2^m - 1)."""
    if m < 1:
        raise ParameterError(f"m must be positive, got {m}")
    modulus = (1 << m) - 1
    if modulus == 1:
        return 1  # GF(2): the exponent group is trivial
    try:
        return builtins.pow(e, -1, modulus)
    except ValueError:
        g = math.gcd(e, modulus)
        raise ParameterError(
            f"e={e} is not invertible mod 2^{m}-1={modulus}: gcd={g}"
        ) from None


def validate_gps_params(m: int, k: int, e: int) -> GpsParams:
    """Check the spread-construction conditions and fill in ell, eta."""
    if not (_is_natural(m, 1) and _is_natural(e, 1)):
        raise ParameterError(f"m and e must be positive integers, got m={m}, e={e}")
    _check_subfield_degree(m, k)
    eta = mod_inverse_exponent(e, m)  # raises on gcd != 1
    if k == 1:
        ell = 0
    else:
        sub = (1 << k) - 1
        r = e % sub
        for ell in range(k):
            if (1 << ell) % sub == r:
                break
        else:
            raise ParameterError(
                f"e={e} is not a power of 2 modulo 2^{k}-1={sub} (residue {r})"
            )
    return GpsParams(m=m, k=k, e=e, ell=ell, eta=eta)
