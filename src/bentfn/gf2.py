"""Arithmetic in small binary fields GF(2^m).

Field elements are plain ints in [0, 2^m): bit i is the coefficient of
x^i in the polynomial basis {1, x, ..., x^(m-1)} modulo a fixed
irreducible polynomial.  A FieldCtx holds that modulus together with
discrete-log tables for a multiplicative generator, found by search
(x itself is not always primitive, e.g. the degree-8 default 0x11b).

The subfield GF(2^k), k | m, is represented inside GF(2^m) as
S_k = {z : z^(2^k) = z}; tables over GF(2^k) are keyed by the elements
of S_k in ascending bitmask order.  That ordering is additive: the
index of z1 + z2 is index(z1) XOR index(z2), because the ascending
enumeration of any GF(2)-subspace is the XOR-counter order over its
reduced basis.

Besides the scalar operations, a context offers read-only numpy arrays
over the whole field (products through log/exp tables, power tables,
absolute and relative traces, dual masks, subfield indices), built on
first use, so that a loop over field elements becomes one gather.
"""

from __future__ import annotations

import builtins
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .rng import XorShift64Star

_MAX_DEGREE = 16


def _poly_mod(a: int, b: int) -> int:
    """Remainder of polynomial division a mod b over GF(2)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    """Schoolbook carry-less multiply, reduced mod an irreducible."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
    return _poly_mod(acc, mod)


def is_irreducible(poly: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1..m/2."""
    if poly.bit_length() != m + 1:
        return False
    for d in range(1, m // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, q) == 0:
                return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldCtx:
    """GF(2^m) with a fixed irreducible modulus.

    Immutable after construction; all operations are pure, so a context
    may be shared freely between threads.
    """

    def __init__(self, m: int, irred: int):
        if not 1 <= m <= _MAX_DEGREE:
            raise ParameterError(f"extension degree must be in 1..{_MAX_DEGREE}, got {m}")
        if not is_irreducible(irred, m):
            raise ParameterError(
                f"0x{irred:x} is not an irreducible polynomial of degree {m}"
            )
        self.m = m
        self.irred = irred
        self.size = 1 << m
        self.order = self.size - 1
        self._build_tables()
        self._trace_tbl: list[int] | None = None
        self._subfields: dict[int, list[int]] = {}
        self._trace_rel_arrs: dict[int, np.ndarray] = {}
        self._subfield_index_arrs: dict[int, np.ndarray] = {}

    # -- construction helpers -------------------------------------------------

    def _mul_schoolbook(self, a: int, b: int) -> int:
        return _poly_mulmod(a, b, self.irred)

    def _pow_schoolbook(self, a: int, e: int) -> int:
        acc = 1
        while e:
            if e & 1:
                acc = self._mul_schoolbook(acc, a)
            a = self._mul_schoolbook(a, a)
            e >>= 1
        return acc

    def _build_tables(self) -> None:
        order = self.order
        if order == 1:
            self.generator = 1
            self._exp = [1]
            self._log = [0, 0]
            return
        primes = _prime_factors(order)
        gen = 0
        for g in range(2, self.size):
            if all(self._pow_schoolbook(g, order // q) != 1 for q in primes):
                gen = g
                break
        if not gen:
            raise ParameterError(f"no generator found; 0x{self.irred:x} is not a valid modulus")
        exp = [1] * order
        for i in range(1, order):
            exp[i] = self._mul_schoolbook(exp[i - 1], gen)
        log = [0] * self.size
        for i, v in enumerate(exp):
            log[v] = i
        if len(set(exp)) != order:
            raise ParameterError(f"generator {gen} has order below {order}; bad modulus")
        # independent spot check of the group order
        rng = XorShift64Star(0x67F2)
        for _ in range(10):
            a = rng.randint_nonzero(self.size)
            if self._pow_schoolbook(a, order) != 1:
                raise ParameterError(f"x^(2^m-1) != 1 for x={a:#x}; bad modulus 0x{self.irred:x}")
        self.generator = gen
        self._exp = exp
        self._log = log

    # -- element arithmetic ---------------------------------------------------

    def _check(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise DomainError(f"{a:#x} is not an element of GF(2^{self.m})")
        return a

    def add(self, a: int, b: int) -> int:
        return self._check(a) ^ self._check(b)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self.order]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DomainError("0 has no multiplicative inverse")
        return self._exp[(-self._log[a]) % self.order]

    def pow(self, a: int, e: int) -> int:
        """a^e with exponents reduced mod 2^m - 1 on nonzero a.

        pow(0, e) = 0 for e > 0 and pow(0, 0) = 1, so that x^(2^m-2)
        realizes "1/x with 0 mapped to 0" and x^(2^m-1) the indicator
        of x != 0.
        """
        self._check(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DomainError("0 cannot be raised to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % self.order]

    def neg_exp(self, e: int) -> int:
        """(-e) mod (2^m - 1), so that pow(x, neg_exp(e)) = x^(-e) on x != 0.

        On GF(2) that residue is 0, which would send 0 to 1; 1 is returned
        instead, so 0 maps to 0 as it does for every e prime to 2^m - 1.
        """
        return (-e) % self.order if self.order > 1 else 1

    def trace(self, a: int) -> int:
        """Absolute trace to GF(2)."""
        if self._trace_tbl is None:
            self._trace_tbl = self.trace_arr.tolist()
        return self._trace_tbl[self._check(a)]

    def dualmask(self, b: int) -> int:
        """Mask g with Tr(b*x) = parity(g & x) for all x."""
        return int(self.dualmask_arr[self._check(b)])

    # -- subfield plumbing ----------------------------------------------------

    def subfield(self, k: int) -> list[int]:
        """The 2^k elements of S_k = {z : z^(2^k) = z}, ascending."""
        cached = self._subfields.get(k)
        if cached is None:
            cached = np.flatnonzero(self.subfield_index_arr(k) >= 0).tolist()
            self._subfields[k] = cached
        return cached

    def subfield_index(self, k: int, z: int) -> int:
        """Position of a subfield element in the ascending ordering."""
        index = self.subfield_index_arr(k)
        i = int(index[z]) if 0 <= z < self.size else -1
        if i < 0:
            raise DomainError(f"{z:#x} is not in the subfield S_{k}")
        return i

    def subfield_trace(self, z: int, k: int) -> int:
        """Absolute trace of the subfield: Tr_1^k on S_k, valued in F_2."""
        self.subfield_index(k, z)  # membership check
        out, s = 0, z
        for _ in range(k):
            out ^= s
            s = self.mul(s, s)
        assert out in (0, 1)
        return out

    # -- whole-field arrays ---------------------------------------------------

    @functools.cached_property
    def elements(self) -> np.ndarray:
        """Every element, ascending: 0, 1, ..., 2^m - 1."""
        return _frozen(np.arange(self.size, dtype=np.int64))

    @functools.cached_property
    def _log_arr(self) -> np.ndarray:
        # log(0) is the sentinel 2^(m+1) - 3 = 2 * order - 1: any sum of
        # two logs that involves it lands in the zero tail of _exp_arr
        log = np.array(self._log, dtype=np.int64)
        log[0] = 2 * self.order - 1
        return _frozen(log)

    @functools.cached_property
    def _exp_arr(self) -> np.ndarray:
        # exp over [0, 2 * order - 2], then zeros up to twice the sentinel
        exp = np.array(self._exp, dtype=np.int64)
        return _frozen(np.concatenate([exp, exp[:-1], np.zeros(2 * self.order, np.int64)]))

    def mul_arr(self, a, b) -> np.ndarray:
        """Elementwise product of element arrays, with numpy broadcasting."""
        return self._exp_arr[self._log_arr[a] + self._log_arr[b]]

    def pow_table(self, e: int) -> np.ndarray:
        """x^e for every element x, by the rules of pow; needs e >= 0."""
        if e < 0:
            raise DomainError("0 cannot be raised to a negative power")
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

    @functools.cached_property
    def trace_arr(self) -> np.ndarray:
        """Absolute trace of every element, as uint8 bits."""
        return _frozen(self.trace_rel_arr(1).astype(np.uint8))

    def trace_rel_arr(self, k: int) -> np.ndarray:
        """Relative trace onto the subfield S_k of every element x: the
        sum of x^(2^(ki)) over i < m/k."""
        cached = self._trace_rel_arrs.get(k)
        if cached is None:
            if k <= 0 or self.m % k:
                raise ParameterError(f"relative trace needs k | m, got k={k}, m={self.m}")
            out = s = self.elements
            for _ in range(self.m // k - 1):
                s = self._frobenius(s, k)
                out = out ^ s
            cached = self._trace_rel_arrs[k] = _frozen(out)
        return cached

    @functools.cached_property
    def dualmask_arr(self) -> np.ndarray:
        """dualmask of every element."""
        out = np.zeros(self.size, dtype=np.int64)
        for j in range(self.m):
            out |= self.trace_arr[self.mul_arr(self.elements, 1 << j)].astype(np.int64) << j
        return _frozen(out)

    def subfield_index_arr(self, k: int) -> np.ndarray:
        """Position of every element in the ascending ordering of S_k,
        or -1 for the elements outside S_k."""
        cached = self._subfield_index_arrs.get(k)
        if cached is None:
            if k <= 0 or self.m % k:
                raise ParameterError(f"GF(2^{self.m}) has no subfield GF(2^{k})")
            inside = self._frobenius(self.elements, k) == self.elements
            assert int(inside.sum()) == 1 << k
            cached = np.where(inside, np.cumsum(inside) - 1, -1)
            cached = self._subfield_index_arrs[k] = _frozen(cached)
        return cached


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_FIELD_CACHE: dict[tuple[int, int | None], FieldCtx] = {}


def default_modulus(m: int) -> int:
    """Smallest irreducible degree-m polynomial with constant term 1."""
    if not 1 <= m <= _MAX_DEGREE:
        raise ParameterError(f"extension degree must be in 1..{_MAX_DEGREE}, got {m}")
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_irreducible(cand, m):
            return cand
    raise ParameterError(f"no irreducible polynomial of degree {m}")  # unreachable


def make_field(m: int, irred: int | None = None) -> FieldCtx:
    """Build (and cache) a GF(2^m) context."""
    key = (m, irred)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(m, default_modulus(m) if irred is None else irred)
        _FIELD_CACHE[key] = ctx
    return ctx


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
    if m < 1 or k < 1 or e < 1:
        raise ParameterError(f"m, k, e must be positive, got m={m}, k={k}, e={e}")
    if m % k:
        raise ParameterError(f"k must divide m, got k={k}, m={m}")
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
