"""Truth-table Boolean functions and their Walsh-transform analysis.

A function on n variables is a table of 2^n bits; input i encodes the
point whose coordinate j is bit j of i.  For functions built over
product domains the index splits into consecutive bit blocks, e.g. on
F_{2^m} x F_{2^m} the index is bits(x) + 2^m * bits(y), and on the
four-argument domain F_{2^m}^2 x F_{2^k}^2 it is
bits(x1) + 2^m bits(x2) + 2^(2m) bits(y) + 2^(2m+k) bits(z).

The inner product <b, x> that the Walsh transform correlates against
is the dot product on plain bit blocks and the trace form Tr_1^k(bx)
on blocks that encode a field or a subfield S_k (summed across
blocks).  A Space records that choice.
Whether a function is bent, plateaued or balanced does not depend on
it, but the *labeling* of the spectrum does, and with it the truth
table of the dual; duals computed here agree pointwise with the
closed-form duals of the finite-field constructions only under the
trace pairing, which is why builders attach the right Space instead
of defaulting to the dot product.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np

from .errors import DomainError, ParameterError, ParseError
from .gf2 import FieldCtx, _frozen

_HEX = "0123456789abcdef"


def _linear_image(cols) -> np.ndarray:
    """The XOR of cols[j] over the bits j of i, for every i < 2^len(cols):
    the image of every vector under the linear map with these columns,
    built by doubling."""
    img = np.zeros(1 << len(cols), dtype=np.int64)
    for j, col in enumerate(cols):
        half = 1 << j
        img[half:2 * half] = img[:half] ^ int(col)
    return img


@functools.cache
def _trace_columns(ctx: FieldCtx, k: int) -> tuple[int, ...]:
    """Column i of the pairing Tr_1^k(bx) on S_k: bit j is
    Tr_1^k(e_i e_j) for the basis e_i = subfield(k)[2^i] of the
    ascending encoding, from one k x k product table."""
    basis = ctx.subfield(k)[1 << np.arange(k)]
    gram = ctx._frobenius_sum(ctx.mul_arr(basis[:, None], basis[None, :]), 1, k)
    return tuple((gram << np.arange(k)).sum(axis=1).tolist())


class Space:
    """An n-dimensional binary space split into pairing blocks.

    factors: each entry is an int w (a plain V_w block with the dot
    product), a pair (ctx, k) (the subfield S_k of a FieldCtx in its
    ascending encoding, a k-bit block paired by Tr_1^k(bx)), or a bare
    FieldCtx, which means (ctx, ctx.m).
    """

    def __init__(self, factors):
        cols: list[int] = []
        sig = []
        offset = 0
        for fac in factors:
            if isinstance(fac, FieldCtx):
                fac = (fac, fac.m)
            if isinstance(fac, tuple):
                ctx, k = fac
                cols += [c << offset for c in _trace_columns(ctx, k)]
                sig.append(("field", ctx.m, ctx.irred, k))
                offset += k
            else:
                w = int(fac)
                if w < 1:
                    raise DomainError(f"factor width must be positive, got {w}")
                for i in range(w):
                    cols.append(1 << (offset + i))
                sig.append(("bits", w))
                offset += w
        if offset == 0:
            raise DomainError("a space needs at least one factor")
        self.factors = tuple(factors)
        self.signature = tuple(sig)
        self.n = offset
        self._cols = cols
        self._perm: np.ndarray | None = None

    @classmethod
    def bits(cls, n: int) -> "Space":
        return cls([n])

    @property
    def is_plain(self) -> bool:
        return all(tag[0] == "bits" for tag in self.signature)

    def perm(self) -> np.ndarray:
        """The masks g(b) with <b, x> = parity(g(b) & x), as a read-only
        index array over the whole space (cached)."""
        if self._perm is None:
            self._perm = _frozen(_linear_image(self._cols))
        return self._perm

    def __eq__(self, other) -> bool:
        return isinstance(other, Space) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)

    def __repr__(self):
        return f"Space({self.n}, {self.signature})"


@functools.cache
def _field_pairing(ctx: FieldCtx) -> np.ndarray:
    """`Space([ctx]).perm()`, built once per field: the mask g(b) with
    Tr(bx) = parity(g(b) & x) for every element b."""
    return Space([ctx]).perm()


class BoolFn:
    """A Boolean function as an immutable 2^n-entry bit table."""

    __slots__ = ("n", "table", "space")

    def __init__(self, table, space: Space | None = None):
        tbl = np.asarray(table, dtype=np.uint8)
        if tbl.ndim != 1 or tbl.size < 2 or tbl.size & (tbl.size - 1):
            raise DomainError(f"table length must be a power of two >= 2, got {tbl.size}")
        if tbl.max(initial=0) > 1:
            raise DomainError("table entries must be bits")
        n = int(tbl.size).bit_length() - 1
        if space is None:
            space = Space.bits(n)
        elif space.n != n:
            raise DomainError(f"space dimension {space.n} does not match table size 2^{n}")
        self.n = n
        self.table = tbl
        self.table.setflags(write=False)
        self.space = space

    # -- basic structure ------------------------------------------------------

    def __len__(self):
        return self.table.size

    def __getitem__(self, i: int) -> int:
        return int(self.table[i])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoolFn)
            and self.n == other.n
            and bool(np.array_equal(self.table, other.table))
        )

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))

    def __xor__(self, other) -> "BoolFn":
        if isinstance(other, BoolFn):
            if other.n != self.n:
                raise DomainError("cannot add functions on different dimensions")
            return BoolFn(self.table ^ other.table, self.space)
        return BoolFn(self.table ^ (int(other) & 1), self.space)

    def shift(self, a: int) -> "BoolFn":
        """x -> f(x + a)."""
        _check_vectors(self.n, a)
        return BoolFn(self.table[_points(self.n)[0] ^ int(a)], self.space)

    def with_space(self, space: Space) -> "BoolFn":
        return BoolFn(self.table, space)

    def weight(self) -> int:
        return int(self.table.sum())

    def is_constant(self) -> bool:
        return bool((self.table == self.table[0]).all())


_SMALL = 1 << 8  # the most entries `_fwht_inplace` transforms by matrix products

# Table entries per chunk of a batched caller (64 rows at n = 8, one at
# n >= 14), as a large batch costs more per row than a few small ones.
# It bounds the (planes, 2^n) temporaries of `decomp.classify_planes`,
# the (b1, 2^n) rows of `decomp.scan_decompositions` and the transform
# blocks of the M-subspace root screen; a `decomp.PlaneScan` builds
# records and CSV lines this many planes at a time.
_CHUNK_ENTRIES = 1 << 14


@functools.cache
def _sylvester(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester-Hadamard matrix H[b, x] = (-1)^(b.x),
    int64, read-only: it is shared by every small transform."""
    x = np.arange(1 << k)
    h = _SIGN.take(np.bitwise_count(x[:, None] & x) & 1)
    h.setflags(write=False)
    return h


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis:
    a[..., b] <- sum_x (-1)^(b.x) a[..., x], in place.

    Two kernels, chosen by the number of entries.  On small arrays
    numpy's per-call cost dominates, not the arithmetic, so the kernel
    with the fewest calls wins even though it does more multiply-adds.

    Up to `_SMALL` entries: two matrix products.  H_(2^k) = H_hi (x) H_lo
    with the high k // 2 index bits in the Sylvester factor H_hi, so
    each row, viewed as a (2^(k//2), 2^(k - k//2)) matrix R, becomes
    H_hi R H_lo in natural order.  numpy's integer matmul runs its own
    integer loops (no BLAS, no floats), so the result is exact.

    Above that: butterflies, which take k 2^k additions and subtractions
    a row in 2k ufunc calls, against the 2^k (2^(k//2) + 2^(k - k//2))
    multiply-adds of the products.  Timed, the products win at every
    shape of up to 256 entries, win or lose by shape at 512, and lose
    from 1,024 up.

    Every butterfly stage works on the whole buffer flattened to one dimension:
    it reads the even and the odd entries of one buffer (stride 2) and
    writes their sums to the first and their differences to the second
    contiguous half of the other.  A stage thus transforms the lowest
    index bit and moves it to the top, so 1-D ufunc calls do all the
    work, whatever the number of rows.  After k stages the transformed
    bits sit on top in natural order and the row index lowest: the
    buffer holds the (2^k, rows) transpose of the result.  A single row
    is then already in order; a batch takes one transposing copy back
    into `a`.  The buffers are `a` and one scratch array, swapped after
    each stage.

    `a` must be C-contiguous (its rows may have any leading shape), as
    a flattened copy would drop the result.  Returns `a`.
    """
    if not a.flags.c_contiguous:
        raise ValueError("the Walsh kernel needs a C-contiguous array")
    size = a.shape[-1]
    stages = size.bit_length() - 1
    if not stages:
        return a
    if a.size <= _SMALL:
        hi = stages // 2
        rows = a.reshape(-1, 1 << hi, size >> hi)
        np.matmul(_sylvester(hi) @ rows, _sylvester(stages - hi), out=rows)
        return a
    bufs = (a.reshape(-1), np.empty(a.size, dtype=a.dtype))
    half = a.size // 2
    # the pairs a stage reads and the halves it writes, per buffer; taken
    # once, because for small n making views costs as much as the arithmetic
    views = [(buf[0::2], buf[1::2], buf[:half], buf[half:]) for buf in bufs]
    for stage in range(stages):
        even, odd = views[stage % 2][:2]
        lo, hi = views[1 - stage % 2][2:]
        np.add(even, odd, out=lo)
        np.subtract(even, odd, out=hi)
    done = bufs[stages % 2]
    if a.size != size:
        a.reshape(-1, size)[...] = done.reshape(size, -1).T
    elif stages % 2:
        a.reshape(-1)[...] = done
    return a


_SIGN = np.array([1, -1], dtype=np.int64)


def _signs(table: np.ndarray) -> np.ndarray:
    """(-1)^f(x) of a bit table, as a new int64 array."""
    return _SIGN.take(table)


def walsh_transform(f: BoolFn) -> np.ndarray:
    """Exact spectrum W_f(b) = sum_x (-1)^(f(x) + <b,x>) in f's pairing,
    as a read-only int64 array indexed by b."""
    w = _fwht_inplace(_signs(f.table))
    if not f.space.is_plain:
        w = w[f.space.perm()]
    w.setflags(write=False)
    return w


def _abs_spectrum(signs: np.ndarray) -> np.ndarray:
    # pairing-independent |W| multiset of each (-1)^t row along the last
    # axis, overwriting the rows; skips the index permutation
    w = _fwht_inplace(signs)
    return np.abs(w, out=w)


def autocorrelation(f: BoolFn) -> np.ndarray:
    """Delta_f(b) = sum_x (-1)^(f(x) + f(x+b)), exact in int64.

    Wiener-Khintchine: Delta_f = FWHT(W_f^2) / 2^n, computed without
    floats.  Every intermediate is at most sum W_f^2 = 4^n in absolute
    value (Parseval), so int64 is exact for n <= 16 and well beyond.
    Delta_f(b) = 2^n exactly when b is a period of f.
    """
    return _autocorrelation(f.table)


def _autocorrelation(table: np.ndarray) -> np.ndarray:
    # autocorrelation of each bit table along the last axis; squares and
    # shifts in place, so a call allocates three full-size arrays
    return _wiener_khintchine(_fwht_inplace(_signs(table)))


def _wiener_khintchine(w: np.ndarray) -> np.ndarray:
    # autocorrelation FWHT(W^2) / 2^n from the int64 spectra W along the
    # last axis, overwriting them; returns w
    w *= w
    _fwht_inplace(w)
    w >>= w.shape[-1].bit_length() - 1
    return w


def _check_vectors(n: int, *vectors) -> None:
    """Raise DomainError unless every vector lies in V_n, i.e. in [0, 2^n)."""
    for v in vectors:
        if not 0 <= v < 1 << n:
            raise DomainError(f"{v} is not a vector of V_{n}")


@functools.cache
def _points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0, ..., 2^n - 1 and the parity of each, read-only."""
    x = np.arange(1 << n)
    parity = (np.bitwise_count(x) & 1).astype(np.uint8)
    x.setflags(write=False)
    parity.setflags(write=False)
    return x, parity


def _second_derivative(table: np.ndarray, a: int, b: int) -> np.ndarray:
    """D_a D_b t(x) = t(x) + t(x + a) + t(x + b) + t(x + a + b) of a bit
    table t, as a new array.  Two gathers, as D_a D_b t = D_b(D_a t)."""
    x = _points(table.size.bit_length() - 1)[0]
    d = table ^ table[x ^ a]
    return d ^ d[x ^ b]


def _derivative_spectrum(table: np.ndarray, a) -> np.ndarray:
    """Walsh spectrum of D_a t(x) = t(x) + t(x + a) for each bit table t
    along the last axis, as a new int64 array.

    a is one direction, or a 1-D array of directions, which adds a
    leading axis.  b is a period of D_a t exactly when b is orthogonal
    to every point of the spectrum's support.
    """
    a = np.asarray(a)
    x = _points(table.shape[-1].bit_length() - 1)[0]
    rows = np.take(table, x ^ a[..., None], axis=-1)
    if a.ndim:
        rows = np.ascontiguousarray(np.moveaxis(rows, -2, 0))
    rows ^= table
    return _fwht_inplace(_signs(rows))


def _derivative_autocorrelation(table: np.ndarray, a) -> np.ndarray:
    """Autocorrelation of D_a t for each bit table t along the last axis
    (a as in `_derivative_spectrum`), exact in int64.

    D_a D_b t is constant 0 (1) exactly when the result at b is 2^n
    (-2^n): the period test of the M-subspace rows, the plane scan and
    property P.
    """
    return _wiener_khintchine(_derivative_spectrum(table, a))


def _plateau_orders(absw: np.ndarray, n: int) -> np.ndarray:
    """Per row of |W| (last axis) of an n-variable function: the s with
    every value in {0, 2^((n+s)/2)}, or -1 when there is no such s.

    That holds exactly when the OR of the row is one bit p, and then
    s = 2 log2(p) - n; by Parseval p >= 2^(n/2), so s >= 0, and s = 0
    is bent, where no value is 0.
    """
    peak = np.bitwise_or.reduce(absw, axis=-1)
    s = 2 * np.bitwise_count(peak - 1).astype(np.int64) - n
    return np.where(peak & (peak - 1) == 0, s, -1)


def is_bent(f: BoolFn) -> bool:
    return int(_plateau_orders(_abs_spectrum(_signs(f.table)), f.n)) == 0


def plateaued_order(f: BoolFn) -> int | None:
    """s such that |W_f| takes values in {0, 2^((n+s)/2)}, else None."""
    s = int(_plateau_orders(_abs_spectrum(_signs(f.table)), f.n))
    return s if s >= 0 else None


def is_balanced(f: BoolFn) -> bool:
    return f.weight() == 1 << (f.n - 1)


def ext_walsh_spectrum(f: BoolFn) -> Counter:
    """Multiset {|W_f(b)|} as a Counter; invariant under EA maps."""
    vals, counts = np.unique(_abs_spectrum(_signs(f.table)), return_counts=True)
    return Counter(dict(zip((int(v) for v in vals), (int(c) for c in counts))))


def dual(f: BoolFn) -> BoolFn:
    """The bent function f* with W_f(b) = 2^(n/2) (-1)^(f*(b))."""
    if f.n % 2:
        raise DomainError("odd dimension admits no bent function")
    half = 1 << (f.n // 2)
    w = walsh_transform(f)
    if not bool((np.abs(w) == half).all()):
        raise DomainError("dual is defined only for bent functions")
    return BoolFn((w == -half).astype(np.uint8), f.space)


def anf(f: BoolFn) -> np.ndarray:
    """Moebius transform: bit u is the coefficient of prod_{i in u} x_i."""
    a = f.table.copy()
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2 * h)
        b[:, h:] ^= b[:, :h]
        h *= 2
    return a


def anf_degree(f: BoolFn) -> int:
    coeffs = np.flatnonzero(anf(f))
    if coeffs.size == 0:
        return 0
    return int(np.bitwise_count(coeffs.astype(np.uint64)).max())


# -- file formats -------------------------------------------------------------
#
# Every record file is UTF-8 text: a header line of key=<int> tokens,
# then one record per line.  Blank lines and '#' lines are skipped
# anywhere, and parse errors carry the 1-based line number.

_MAX_N = 16  # tables hold one byte per entry, so 2^16 entries at most


def _read_records(path: str, *keys: str) -> tuple[int, list[int], list[tuple[int, str]]]:
    """The header line number, its values for keys, and the data lines.

    Data lines come back as (line number, stripped text) pairs.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", raw.count(b"\n", 0, exc.start) + 1) from None
    lines = [(i, s) for i, line in enumerate(text.splitlines(), start=1)
             if (s := line.strip()) and not s.startswith("#")]
    if not lines:
        raise ParseError("empty file", 1)
    (head, header), records = lines[0], lines[1:]
    parts = header.split()
    if len(parts) != len(keys):
        raise ParseError(f"expected header '{' '.join(k + '=<int>' for k in keys)}'", head)
    values = []
    for part, key in zip(parts, keys):
        name, _, val = part.partition("=")
        if name != key or not val:
            raise ParseError(f"expected '{key}=<int>', got '{part}'", head)
        try:
            values.append(int(val))
        except ValueError:
            raise ParseError(f"'{val}' is not an integer", head) from None
    return head, values, records


def _hex_values(records: list[tuple[int, str]]) -> list[int]:
    """One hex integer per data line."""
    out = []
    for lineno, text in records:
        try:
            out.append(int(text, 16))
        except ValueError:
            raise ParseError(f"'{text}' is not a hex value", lineno) from None
    return out


def table_to_hex(f: BoolFn) -> str:
    """2^n bits, 4 per char: bit i = bit (i mod 4) of digit i//4."""
    bits = f.table
    if bits.size % 4:
        bits = np.concatenate([bits, np.zeros(4 - bits.size % 4, dtype=np.uint8)])
    digits = bits.reshape(-1, 4) @ np.array([1, 2, 4, 8], dtype=np.uint8)
    return "".join(_HEX[d] for d in digits)


def save_table(f: BoolFn, path: str) -> None:
    if f.n > _MAX_N:
        raise ParameterError(f"a .tt file holds n <= {_MAX_N}, got n={f.n}")
    with open(path, "w") as fh:
        fh.write(f"n={f.n}\n{table_to_hex(f)}\n")


def load_table(path: str) -> BoolFn:
    """A .tt file; the hex digits may be split across any number of lines."""
    head, (n,), records = _read_records(path, "n")
    if not 1 <= n <= _MAX_N:
        raise ParseError(f"dimension n={n} out of range", head)
    if not records:
        raise ParseError("missing table line", head + 1)
    want = max(1, (1 << n) // 4)
    got = sum(len(text) for _, text in records)
    if got != want:
        raise ParseError(f"expected {want} hex digits for n={n}, got {got}", records[-1][0])
    digits = []
    for lineno, text in records:
        try:
            digits += [_HEX.index(c) for c in text.lower()]
        except ValueError:
            raise ParseError("non-hex digit in table", lineno) from None
    bits = (np.array(digits, dtype=np.uint8)[:, None] >> np.arange(4)) & 1
    return BoolFn(bits.reshape(-1)[: 1 << n].astype(np.uint8))
