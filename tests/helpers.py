"""Independent oracles for the test suite.

Everything here is written from the definitions, deliberately avoiding
the library's fast paths: double-sum Hadamard and Walsh transforms and
autocorrelation, subset-sum ANF, schoolbook polynomial field arithmetic,
a literal quadruple scan for the unique-subspace property and the
shift-by-shift loop of its fast check, second derivatives as the
four-term sum, coset restrictions through an explicit basis and coset
representatives, the plane scan as one record per plane, M-subspaces by
testing every subspace and one subspace by every second derivative over
it, the builders and the spread partition as loops over every point,
and the character sums of criterion 11 as a loop over every (u, v) and
every point of each part.  Slow and obvious on purpose.  `write_hex_records`
writes the .perm and .sf inputs, which the library reads but never writes.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st


def naive_walsh(table) -> list[int]:
    """W(b) = sum_x (-1)^(f(x) + <b,x>) by the double sum."""
    n = (len(table) - 1).bit_length()
    out = []
    for b in range(1 << n):
        acc = 0
        for x in range(1 << n):
            s = int(table[x]) ^ ((b & x).bit_count() & 1)
            acc += 1 - 2 * s
        out.append(acc)
    return out


def naive_hadamard(values) -> list[int]:
    """H(b) = sum_x (-1)^(b.x) v(x) by the double sum, one row per b."""
    v = np.asarray(values, dtype=np.int64)
    x = np.arange(v.size)
    sign = np.array([1 - 2 * (i.bit_count() & 1) for i in range(v.size)])  # (-1)^|i|
    return [int((sign[b & x] * v).sum()) for b in range(v.size)]


def naive_autocorrelation(table) -> list[int]:
    """Delta(b) = sum_x (-1)^(f(x) + f(x+b)) by the double sum."""
    size = len(table)
    return [sum(1 - 2 * (int(table[x]) ^ int(table[x ^ b])) for x in range(size))
            for b in range(size)]


def nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of {v : parity(row & v) = 0 for all rows}, one vector per
    free column of the reduced rows."""
    from bentfn import gf2vec

    red = gf2vec.rref(rows)  # pivot-descending
    pivots = [r.bit_length() - 1 for r in red]
    out = []
    for free in sorted(set(range(width)) - set(pivots)):
        v = 1 << free
        # fill the pivots from the bottom row up: a row's pivot is its
        # highest bit, so setting it disturbs no row already satisfied
        for r, p in zip(reversed(red), reversed(pivots)):
            if (r & v).bit_count() & 1:
                v ^= 1 << p
        out.append(v)
    return out


def span(basis) -> list[int]:
    """All 2^k elements spanned by basis, in ascending order.

    With a reduced basis ordered smallest-pivot-first, the doubling
    construction emits the span as an increasing sequence.
    """
    from bentfn import gf2vec

    out = [0]
    for b in reversed(gf2vec.rref(list(basis))):
        out += [x ^ b for x in out]
    return out


def naive_second_derivative(table, a: int, b: int) -> list[int]:
    """D_a D_b t(x) = t(x) + t(x + a) + t(x + b) + t(x + a + b), point by point."""
    return [int(table[x]) ^ int(table[x ^ a]) ^ int(table[x ^ b]) ^ int(table[x ^ a ^ b])
            for x in range(len(table))]


def naive_restrict(table, u: int, v: int) -> list[list[int]]:
    """The four coset restrictions in pattern order (<u,x>, <v,x>) =
    (0,0), (0,1), (1,0), (1,1), each listed as r + span(basis) through
    the ascending reduced echelon basis of S = {x : <u,x> = <v,x> = 0}
    and the smallest coset representative r."""
    from bentfn import gf2vec

    n = (len(table) - 1).bit_length()
    basis = sorted(gf2vec.rref(nullspace([u, v], n)))
    reps = {}
    for x in range(1 << n):
        reps.setdefault(((u & x).bit_count() & 1, (v & x).bit_count() & 1), x)
    offsets = [0]
    for b in basis:
        offsets += [o ^ b for o in offsets]
    return [[int(table[reps[pat] ^ o]) for o in offsets]
            for pat in ((0, 0), (0, 1), (1, 0), (1, 1))]


@functools.cache
def naive_coset_index(n: int) -> np.ndarray:
    """naive_restrict of the points 0, ..., 2^n - 1 along every plane
    of naive_planes(n), in that order: the (planes, 4, 2^(n-2)) indices
    of the cosets.  Keyed by n alone, as the planes are all of V_n's."""
    points = np.arange(1 << n)
    return np.array([naive_restrict(points, u, v) for u, v in naive_planes(n)])


def naive_planes(n: int) -> list[tuple[int, int]]:
    """Every plane of V_n once, by its ascending echelon basis
    u < v < u ^ v, ordered by u and then v."""
    size = 1 << n
    return [(u, v) for u in range(1, size) for v in range(u + 1, size) if (u ^ v) > v]


def naive_scan(f) -> list:
    """The plane scan as one record per plane, one autocorrelation of
    D_b1 f* per b1: the plane (b1, b2) is AllSemibent when the
    autocorrelation at b2 is 2^n, AllBent when it is -2^n."""
    from bentfn import ScanRecord, autocorrelation, derivative, dual

    n = f.n
    fstar = dual(f.with_space(None))
    labels = {1 << n: "AllSemibent", -(1 << n): "AllBent"}
    records = []
    for b1 in range(1, 1 << n):
        delta = autocorrelation(derivative(fstar, b1)).tolist()
        for b2 in range(b1 + 1, 1 << n):
            if (b1 ^ b2) > b2:
                records.append(ScanRecord(b1, b2, labels.get(delta[b2], "Mixed")))
    return records


def naive_save_scan(records, path) -> None:
    """The scan CSV written one record at a time."""
    with open(path, "w") as fh:
        fh.write("span_basis1,span_basis2,class\n")
        for r in records:
            fh.write(f"{r.basis1},{r.basis2},{r.classification}\n")


def naive_M_subspaces(table, dim: int) -> list[tuple[int, ...]]:
    """Every dim-dimensional subspace on which all second derivatives
    f(x) + f(x+a) + f(x+b) + f(x+a+b) vanish, each as its ascending span.

    The subspaces are the spans of every independent dim-tuple: each
    span so far is extended by every vector outside it, and the spans
    are deduplicated after each step.  Every one is then tested on every
    pair of its elements.  A span is keyed by the 64-bit mask of its
    elements, so n <= 6."""
    t = np.asarray(table, dtype=np.uint8)
    assert t.size <= 64
    x = np.arange(t.size)
    vanish = np.array([[not (t ^ t[x ^ a] ^ t[x ^ b] ^ t[x ^ a ^ b]).any()
                        for b in range(t.size)] for a in range(t.size)])
    spans = np.zeros((1, 1), dtype=np.int64)  # one row per subspace
    for _ in range(dim):
        outside = ~(spans[:, :, None] == x).any(axis=1)  # (span, v): v not in span
        rows, vs = np.nonzero(outside)
        ext = np.concatenate([spans[rows], spans[rows] ^ vs[:, None]], axis=1)
        key = np.bitwise_or.reduce(np.uint64(1) << ext.astype(np.uint64), axis=1)
        spans = np.sort(ext[np.unique(key, return_index=True)[1]], axis=1)
    keep = vanish[spans[:, :, None], spans[:, None, :]].all(axis=(1, 2))
    return sorted(tuple(map(int, s)) for s in spans[keep])


def is_M_subspace(f, U) -> bool:
    """Does D_a D_b f vanish for every pair a, b of nonzero elements of
    U?  One second derivative per pair."""
    from bentfn import second_derivative

    pts = [v for v in span(U.basis) if v]
    return not any(second_derivative(f, a, b).table.any()
                   for a, b in itertools.combinations(pts, 2))


def write_hex_records(path, header: str, values) -> None:
    """A .perm or .sf file: the header line, then one hex value per line."""
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(f"{v:x}\n" for v in values))


def naive_anf_degree(table) -> int:
    """Largest |u| with a nonzero coefficient, each one a subset sum."""
    n = (len(table) - 1).bit_length()
    deg = 0
    for u in range(1 << n):
        acc = 0
        sub = u
        while True:
            acc ^= int(table[sub])
            if sub == 0:
                break
            sub = (sub - 1) & u
        if acc:
            deg = max(deg, u.bit_count())
    return deg


class SlowField:
    """GF(2^m) by schoolbook polynomial arithmetic modulo `modulus`."""

    def __init__(self, m: int, modulus: int):
        self.m = m
        self.modulus = modulus
        self.size = 1 << m

    def mul(self, a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.modulus
        return acc

    def pow(self, a: int, e: int) -> int:
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        for b in range(1, 1 << self.m):
            if self.mul(a, b) == 1:
                return b
        raise ValueError("not invertible")

    def trace(self, a: int) -> int:
        acc, t = 0, a
        for _ in range(self.m):
            acc ^= t
            t = self.mul(t, t)
        return acc & 1


def subfield_trace_loop(slow: SlowField, k: int) -> tuple[list[int], list[int]]:
    """S_k = {z : z^(2^k) = z} in ascending order, and Tr_1^k(z), the
    sum of z^(2^i) over i < k, for each of its elements."""
    elems = [z for z in range(slow.size) if slow.pow(z, 1 << k) == z]
    traces = []
    for z in elems:
        acc, s = 0, z
        for _ in range(k):
            acc ^= s
            s = slow.mul(s, s)
        assert acc in (0, 1)
        traces.append(acc)
    return elems, traces


def subfield_pairing_loop(slow: SlowField, k: int) -> list[int]:
    """Columns of the pairing Tr_1^k(b x) on the ascending encoding of
    S_k: bit j of column i is Tr_1^k(e_i e_j), a Gram loop over the basis
    e_i = S_k[2^i]."""
    elems, traces = subfield_trace_loop(slow, k)
    trace = dict(zip(elems, traces))
    basis = [elems[1 << i] for i in range(k)]
    return [sum(trace[slow.mul(a, b)] << j for j, b in enumerate(basis)) for a in basis]


class SlowTables:
    """Lookup lists of one SlowField, every entry from schoolbook
    arithmetic: the whole multiplication table, inverses, the absolute
    trace, and on demand powers, relative traces and subfields.  An
    oracle loop over the 2^(2m) points of F_{2^m}^2 then costs list
    lookups only, which keeps the loops below affordable up to m = 8."""

    def __init__(self, m: int, modulus: int):
        self.slow = SlowField(m, modulus)
        self.m = m
        self.size = 1 << m
        self.mul = [[self.slow.mul(a, b) for b in range(self.size)] for a in range(self.size)]
        self.inv = [0] * self.size
        for a, row in enumerate(self.mul):
            for b, p in enumerate(row):
                if p == 1:
                    self.inv[a] = b
        self.trace = [self.slow.trace(a) for a in range(self.size)]

    def pow(self, e: int) -> list[int]:
        """x^e for every x, with 0^0 = 1, by square and multiply."""
        out = []
        for x in range(self.size):
            acc, sq, k = 1, x, e
            while k:
                if k & 1:
                    acc = self.mul[acc][sq]
                sq = self.mul[sq][sq]
                k >>= 1
            out.append(acc)
        return out

    def neg(self, e: int) -> list[int]:
        """x^(-e), the inverse of x^e, for every x; 0 goes to 0."""
        return [self.inv[p] for p in self.pow(e)]

    def trace_rel(self, k: int) -> list[int]:
        """Tr_k^m(x) = sum of x^(2^(k i)), i < m/k, for every x."""
        out = []
        for x in range(self.size):
            acc, s = 0, x
            for _ in range(self.m // k):
                acc ^= s
                for _ in range(k):
                    s = self.mul[s][s]
            out.append(acc)
        return out

    def subfield_index(self, k: int) -> dict[int, int]:
        """Position of each element of S_k = {z : z^(2^k) = z}, ascending."""
        frob = self.pow(1 << k)
        return {z: i for i, z in enumerate(z for z in range(self.size) if frob[z] == z)}


@functools.cache
def slow_tables(m: int, modulus: int) -> SlowTables:
    return SlowTables(m, modulus)


def two_block_table(ctx, perm) -> np.ndarray:
    """Tr(x * perm(y)) on the x + 2^m y index, from first principles."""
    size = ctx.size
    out = np.zeros(size * size, dtype=np.uint8)
    for y in range(size):
        p = perm[y]
        for x in range(size):
            out[x + (y << ctx.m)] = ctx.trace(ctx.mul(x, p))
    return out


def literal_unique_subspace(ctx, perm) -> bool:
    """Quadruple scan for the unique-subspace property of the two-block
    function: every second derivative along a pair of distinct nonzero
    directions not both inside F x {0} must be nonzero somewhere."""
    m = ctx.m
    t = two_block_table(ctx, perm).astype(np.int64)
    size = len(t)
    idx = np.arange(size)
    shifted = {}

    def sh(a):
        if a not in shifted:
            shifted[a] = t[idx ^ a]
        return shifted[a]

    for a in range(1, size):
        for b in range(a + 1, size):
            if a >> m == 0 and b >> m == 0:
                continue
            d2 = t ^ sh(a) ^ sh(b) ^ sh(a ^ b)
            if not d2.any():
                return False
    return True


def property_P_loop(ctx, pi):
    """check_property_P shift by shift: (i) the periods of D_t pi from the
    autocorrelations of its m component functions, (ii) an XOR basis of
    the image of D_t pi, and the smallest nonzero c orthogonal to it
    under Tr(c .) from the nullspace of its dual masks."""
    from bentfn import PropertyPResult
    from bentfn.boolfn import _autocorrelation, _field_pairing

    m, size = ctx.m, ctx.size
    tbl = pi.table
    idx = ctx.elements
    bits = np.arange(m)[:, None]
    for t in range(1, size):
        d = tbl ^ tbl[idx ^ t]
        is_period = (_autocorrelation((d >> bits) & 1) == size).all(axis=0)
        periods = np.flatnonzero(is_period)
        if periods.size > 2:
            b2 = min(int(p) for p in periods if p not in (0, t))
            return PropertyPResult(False, (0, t, 0, b2))
        img_basis: list[int] = []
        for v in map(int, d):
            for r in img_basis:
                v = min(v, v ^ r)
            if v:
                img_basis.append(v)
                if len(img_basis) == m:
                    break
        if len(img_basis) < m:
            duals = [int(_field_pairing(ctx)[b]) for b in img_basis]
            ortho = span(nullspace(duals, m))
            c = min(v for v in ortho if v)
            return PropertyPResult(False, (c, 0, 0, t))
    return PropertyPResult(True, None)


def random_invertible(rng, n: int) -> list[int]:
    """Row masks of a random invertible matrix over GF(2)."""
    while True:
        rows = [rng.randrange(1 << n) for _ in range(n)]
        got = []
        for v in rows:
            for r in got:
                v = min(v, v ^ r)
            if v == 0:
                break
            got.append(v)
        if len(got) == n:
            return rows


# -- record files -------------------------------------------------------------

# Reproducible examples; each one rewrites the same file under tmp_path.
FILE_EXAMPLES = settings(max_examples=40, derandomize=True, database=None, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])

_LINE_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=0x1FFF,
                                   exclude_characters="\x85"), max_size=12)
_NOISE = st.one_of(st.sampled_from(["", "  ", "\t"]), _LINE_TEXT.map(lambda s: "#" + s),
                   _LINE_TEXT.map(lambda s: "  # " + s))


def with_noise(data, lines: list[str]) -> str:
    """The lines as file text, with '#' lines and blank lines drawn in
    at random positions (before the header and at the end included)."""
    out = list(lines)
    for _ in range(data.draw(st.integers(1, 6))):
        out.insert(data.draw(st.integers(0, len(out))), data.draw(_NOISE))
    return "\n".join(out) + "\n"


# -- builders, one point at a time --------------------------------------------
#
# Each loop evaluates its construction's defining formula at every point,
# with the index conventions of construct.py: x + 2^m y on F_{2^m}^2, and
# subfield tables keyed by the elements of S_k in ascending order.


def psap_loop(ctx, P) -> np.ndarray:
    """P(y x^(-1)) with 0^(-1) = 0."""
    T = slow_tables(ctx.m, ctx.irred)
    index = T.subfield_index(ctx.m)
    pw = T.neg(1)
    out = [0] * (T.size * T.size)
    for y in range(T.size):
        for x in range(T.size):
            out[x + (y << T.m)] = P.values[index[T.mul[y][pw[x]]]]
    return np.array(out, dtype=np.uint8)


def gpsap_loop(ctx, params, P, c0: int, orientation: str) -> np.ndarray:
    """f: P(Tr_k^m(y x^(-e))) + c0 [x = 0]; g: P(Tr_k^m(x y^(-eta))) + c0 [y = 0]."""
    T = slow_tables(ctx.m, ctx.irred)
    index = T.subfield_index(params.k)
    trel = T.trace_rel(params.k)
    pw = T.neg(params.e if orientation == "f" else params.eta)
    out = [0] * (T.size * T.size)
    for outer in range(T.size):
        for inner in range(T.size):
            val = P.values[index[trel[T.mul[inner][pw[outer]]]]]
            if outer == 0:
                val ^= c0
            if orientation == "f":
                out[outer + (inner << T.m)] = val
            else:
                out[inner + (outer << T.m)] = val
    return np.array(out, dtype=np.uint8)


def gpsap_vectorial_loop(ctx, params, P, c0: int) -> np.ndarray:
    """The subfield index of P(Tr_k^m(y x^(-e))) + c0 [x = 0]."""
    T = slow_tables(ctx.m, ctx.irred)
    index = T.subfield_index(params.k)
    trel = T.trace_rel(params.k)
    pw = T.neg(params.e)
    out = [0] * (T.size * T.size)
    for x in range(T.size):
        for y in range(T.size):
            val = P.values[index[trel[T.mul[y][pw[x]]]]]
            if x == 0:
                val ^= c0
            out[x + (y << T.m)] = index[val]
    return np.array(out, dtype=np.int64)


def gpsap_trace_form_loop(ctx, params, Q) -> np.ndarray:
    """Tr(Q(x y^(-eta)))."""
    T = slow_tables(ctx.m, ctx.irred)
    pw = T.neg(params.eta)
    out = [0] * (T.size * T.size)
    for y in range(T.size):
        for x in range(T.size):
            out[x + (y << T.m)] = T.trace[Q.table[T.mul[x][pw[y]]]]
    return np.array(out, dtype=np.uint8)


def factors_through_subfield_trace_loop(ctx, k: int, Q) -> bool:
    """Is Tr(Q(z)) constant on every fiber of Tr_k^m?"""
    T = slow_tables(ctx.m, ctx.irred)
    trel = T.trace_rel(k)
    fibers: dict[int, set] = {}
    for z in range(T.size):
        fibers.setdefault(trel[z], set()).add(T.trace[Q.table[z]])
    return all(len(bits) == 1 for bits in fibers.values())


def gpsap_dual_formula_loop(ctx, params, Q) -> np.ndarray:
    """Tr(Q(y~ x~^(-e))) with t~ = t^(2^(m - ell))."""
    T = slow_tables(ctx.m, ctx.irred)
    tilde = T.pow(1 << (params.m - params.ell))
    pw = T.neg(params.e)
    out = [0] * (T.size * T.size)
    for y in range(T.size):
        for x in range(T.size):
            out[x + (y << T.m)] = T.trace[Q.table[T.mul[tilde[y]][pw[tilde[x]]]]]
    return np.array(out, dtype=np.uint8)


def g_lambda_loop(ctx, params, Q, lam: int) -> np.ndarray:
    """Tr(Q((1 + lam) x^(-e)) + Q(x^(-e)) + Q(lam x^(-e)))."""
    T = slow_tables(ctx.m, ctx.irred)
    out = []
    for xe in T.neg(params.e):
        acc = Q.table[T.mul[1 ^ lam][xe]] ^ Q.table[xe] ^ Q.table[T.mul[lam][xe]]
        out.append(T.trace[acc])
    return np.array(out, dtype=np.uint8)


def gmm_loop(ctx, tables) -> np.ndarray:
    """Block (y, z) at y + 2^k z: tables[z] + Tr(yz)."""
    T = slow_tables(ctx.m, ctx.irred)
    return np.concatenate([np.asarray(tables[z]) ^ T.trace[T.mul[y][z]]
                           for z in range(T.size) for y in range(T.size)])


def gmm_dual_loop(ctx, dual_tables) -> np.ndarray:
    """Block (y, z) at y + 2^k z: dual_tables[y] + Tr(yz)."""
    T = slow_tables(ctx.m, ctx.irred)
    return np.concatenate([np.asarray(dual_tables[y]) ^ T.trace[T.mul[y][z]]
                           for z in range(T.size) for y in range(T.size)])


def psffff_loop(ctx, k: int, P, alpha: int, beta: int, gamma: int) -> np.ndarray:
    """Blocks (z1, z2) = (0,0), (1,0), (0,1), (1,1) of
    Tr_1^k(((1+z1+z2) alpha + z2 beta + z1 gamma) P(Tr_k^m(y x^(-e)))) + z1 z2,
    e = 2^k + 1, with z1 at bit 2m and z2 at bit 2m + 1."""
    T = slow_tables(ctx.m, ctx.irred)
    index = T.subfield_index(k)
    trel = T.trace_rel(k)
    pw = T.neg((1 << k) + 1)
    pt = [0] * (T.size * T.size)
    for x in range(T.size):
        for y in range(T.size):
            pt[x + (y << T.m)] = P.values[index[trel[T.mul[y][pw[x]]]]]
    sub_trace = {}
    for z in index:  # Tr_1^k(z) on S_k
        acc, s = 0, z
        for _ in range(k):
            acc ^= s
            s = T.mul[s][s]
        sub_trace[z] = acc
    blocks = []
    for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        coeff = (alpha if (1 + z1 + z2) % 2 else 0) ^ (beta if z2 else 0) ^ (gamma if z1 else 0)
        blocks += [sub_trace[T.mul[coeff][p]] ^ (z1 & z2) for p in pt]
    return np.array(blocks, dtype=np.uint8)


def partition_loop(ctx, params, assignment) -> np.ndarray:
    """Slice j = z1 + 2 z2 takes a_j of gamma on A(gamma) = {(x, s x^e) :
    x != 0, Tr_k^m(s) = gamma} and (0, 0, 0, 1)_j on U = {x = 0}."""
    T = slow_tables(ctx.m, ctx.irred)
    trel = T.trace_rel(params.k)
    xe = T.pow(params.e)
    gamma_of = {}
    for x in range(1, T.size):
        for s in range(T.size):
            gamma_of[x + (T.mul[s][xe[x]] << T.m)] = trel[s]
    out = []
    for j in range(4):
        for p in range(T.size * T.size):
            out.append(assignment[gamma_of[p]][j] if p in gamma_of else int(j == 3))
    return np.array(out, dtype=np.uint8)


def fhat_loop(ctx, params, Q, a: int, b: int, c: int, d: int) -> np.ndarray:
    """Tr(Q((b~ x + d~ y)(a~ x + c~ y)^(-e))) with t~ = t^(2^(m - ell))."""
    T = slow_tables(ctx.m, ctx.irred)
    tilde = T.pow(1 << (params.m - params.ell))
    at, bt, ct, dt = (tilde[t] for t in (a, b, c, d))
    pw = T.neg(params.e)
    out = [0] * (T.size * T.size)
    for y in range(T.size):
        for x in range(T.size):
            num = T.mul[bt][x] ^ T.mul[dt][y]
            den = T.mul[at][x] ^ T.mul[ct][y]
            out[x + (y << T.m)] = T.trace[Q.table[T.mul[num][pw[den]]]]
    return np.array(out, dtype=np.uint8)


def trace_sum_loop(ctx, c: int, d: int) -> bool:
    """Does Tr(d (1/x + 1/(x+c))) take both values over x outside {0, c}?"""
    T = slow_tables(ctx.m, ctx.irred)
    seen = set()
    for x in range(T.size):
        if x not in (0, c):
            seen.add(T.trace[T.mul[d][T.inv[x] ^ T.inv[x ^ c]]])
            if len(seen) == 2:
                return True
    return False


def spread_sets_loop(ctx, params):
    """The partitions {U, A(gamma)} and {V, B(gamma)} of F_{2^m}^2 as
    frozensets of points x + 2^m y, gamma ascending over S_k:
    A(gamma) = {(x, s x^e) : x != 0, Tr_k^m(s) = gamma} beside the line
    U = {x = 0}, and B(gamma) = {(s y^eta, y) : y != 0, Tr_k^m(s) = gamma}
    beside V = {y = 0}."""
    T = slow_tables(ctx.m, ctx.irred)
    m, size = T.m, T.size
    trel = T.trace_rel(params.k)
    xe, xeta = T.pow(params.e), T.pow(params.eta)
    A = {g: set() for g in T.subfield_index(params.k)}
    B = {g: set() for g in A}
    for s in range(size):
        for x in range(1, size):
            A[trel[s]].add(x + (T.mul[s][xe[x]] << m))
            B[trel[s]].add(T.mul[s][xeta[x]] + (x << m))
    U = frozenset(y << m for y in range(size))
    V = frozenset(range(size))
    return (U, {g: frozenset(p) for g, p in A.items()},
            V, {g: frozenset(p) for g, p in B.items()})


def character_sums_loop(ctx, params, B, V):
    """Criterion 11 as a loop: for (u, v) != (0, 0), u and then v
    ascending, the sums of (-1)^(Tr(ux) + Tr(vy)) over V and then over
    each B(gamma), gamma ascending, against the two-branch closed form
    2^m - 2^(m-k) when u != 0 and gamma^(2^ell) = Tr_k^m(v u^(-e)), else
    -2^(m-k), and 2^m or 0 on V.  (True, detail) when all match, else
    (False, detail of the first mismatch)."""
    T = slow_tables(ctx.m, ctx.irred)
    m, size = T.m, T.size
    lo = 1 << (m - params.k)
    trel = T.trace_rel(params.k)
    frob = T.pow(1 << params.ell)
    neg = T.neg(params.e)

    def chi(u, v, pts):
        return sum(1 - 2 * (T.trace[T.mul[u][p & (size - 1)]] ^ T.trace[T.mul[v][p >> m]])
                   for p in pts)

    checked = 0
    for u in range(size):
        for v in range(size):
            if u == 0 and v == 0:
                continue
            got, want = chi(u, v, V), 0 if u else size
            if got != want:
                return False, f"chi(V) = {got} != {want} at (u,v)=({u},{v})"
            for gamma in sorted(B):
                got = chi(u, v, B[gamma])
                first = u != 0 and frob[gamma] == trel[T.mul[v][neg[u]]]
                want = size - lo if first else -lo
                if got != want:
                    return False, f"chi(B({gamma:#x})) = {got} != {want} at (u,v)=({u},{v})"
                checked += 1
    return True, f"{checked} character sums match the two-branch closed form"
