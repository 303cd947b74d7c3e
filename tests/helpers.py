"""Independent oracles for the test suite.

Everything here is written from the definitions, deliberately avoiding
the library's fast paths: double-sum Hadamard and Walsh transforms and
autocorrelation, subset-sum ANF, schoolbook polynomial field arithmetic,
a literal quadruple scan for the unique-subspace property, coset
restrictions through an explicit basis and coset representatives, and
M-subspaces by testing every subspace.  Slow and obvious on purpose.
"""

from __future__ import annotations

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


def naive_restrict(table, u: int, v: int) -> list[list[int]]:
    """The four coset restrictions in pattern order (<u,x>, <v,x>) =
    (0,0), (0,1), (1,0), (1,1), each listed as r + span(basis) through
    the ascending reduced echelon basis of S = {x : <u,x> = <v,x> = 0}
    and the smallest coset representative r."""
    from bentfn import gf2vec

    n = (len(table) - 1).bit_length()
    basis = sorted(gf2vec.rref(gf2vec.nullspace([u, v], n)))
    reps = {}
    for x in range(1 << n):
        reps.setdefault(((u & x).bit_count() & 1, (v & x).bit_count() & 1), x)
    offsets = [0]
    for b in basis:
        offsets += [o ^ b for o in offsets]
    return [[int(table[reps[pat] ^ o]) for o in offsets]
            for pat in ((0, 0), (0, 1), (1, 0), (1, 1))]


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
