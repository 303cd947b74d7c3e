import importlib

import numpy as np
import pytest

from bentfn import (
    BoolFn,
    DomainError,
    ParameterError,
    Subspace,
    XorShift64Star,
    derivative,
    ea_transform,
    enumerate_M_subspaces,
    ext_walsh_spectrum,
    gf2vec,
    has_M_subspace,
    linearity_index,
    make_field,
    second_derivative,
)
from bentfn.boolfn import _CHUNK_ENTRIES, _derivative_spectrum, _second_derivative
from bentfn.construct import PermTable, build_cor_ex, mm
from bentfn.derivative import _CompatRows
from bentfn.verify import corpus

from helpers import is_M_subspace, naive_M_subspaces, naive_walsh, random_invertible, span

QUAD = BoolFn([((i & 1) & (i >> 1)) ^ ((i >> 2) & (i >> 3) & 1)
               for i in range(16)])


def rand_fn(rng, n):
    return BoolFn(np.array([rng.bits(1) for _ in range(1 << n)], dtype=np.uint8))


def test_derivative_definition():
    rng = XorShift64Star(1)
    f = rand_fn(rng, 5)
    for a in (1, 7, 31):
        d = derivative(f, a)
        for x in range(32):
            assert d.table[x] == f.table[x] ^ f.table[x ^ a]


@pytest.mark.parametrize("a", [-1, 8, 1 << 40])
def test_shift_rejects_vectors_outside_V_n(a):
    # a = -1 would index as a = 7, and a = 8 overrun the table
    f = BoolFn([0, 1, 1, 0, 1, 0, 0, 1])
    with pytest.raises(DomainError, match="not a vector of V_3"):
        f.shift(a)
    with pytest.raises(DomainError, match="not a vector of V_3"):
        derivative(f, a)


@pytest.mark.parametrize("a, b", [(-1, 1), (1, 9), (8, 0), (3, -8)])
def test_second_derivative_rejects_vectors_outside_V_n(a, b):
    with pytest.raises(DomainError, match="not a vector of V_3"):
        second_derivative(BoolFn([0, 1, 1, 0, 1, 0, 0, 1]), a, b)


def test_second_derivative_symmetry():
    rng = XorShift64Star(2)
    f = rand_fn(rng, 4)
    t = f.table.tolist()
    for a in range(16):
        for b in range(16):
            d2 = second_derivative(f, a, b)
            assert d2 == second_derivative(f, b, a)
            assert d2.table.tolist() == [t[x] ^ t[x ^ a] ^ t[x ^ b] ^ t[x ^ a ^ b]
                                         for x in range(16)]
    assert not second_derivative(f, 3, 3).table.any()
    # the batched kernel: one row per pair of int64 columns
    us = np.array([1, 3, 6, 9, 15], dtype=np.int64)
    vs = np.array([2, 5, 6, 12, 1], dtype=np.int64)
    rows = _second_derivative(f.table, us[:, None], vs[:, None])
    assert rows.shape == (5, 16)
    for row, u, v in zip(rows, us.tolist(), vs.tolist()):
        assert np.array_equal(row, second_derivative(f, u, v).table)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_compat_rows_match_second_derivatives(n):
    # random functions plus a quadratic one, whose rows are large subspaces
    rng = XorShift64Star(100 + n)
    quad = BoolFn([(i & (i >> 1) & 1) ^ ((i >> 2) & (i >> 3) & 1)
                   for i in range(1 << n)])
    x = np.arange(1 << n)
    sign = 1 - 2 * (np.bitwise_count(x[:, None] & x) & 1).astype(np.int64)   # (-1)^(b.x)
    roots = list(range(1, 1 << n))
    for f in [rand_fn(rng, n) for _ in range(3)] + [quad]:
        rows = _CompatRows(f, roots)
        # one search per goal; each sees every root once, so each root
        # call is screened, by its quarter where 2 * goal >= n
        searches = [_CompatRows(f, roots) for _ in range(n + 1)]
        for a in range(1, 1 << n):
            row = rows.row(a)
            assert np.array_equal(row, ~_second_derivative(f.table, a, x[:, None]).any(axis=1))
            # the row is the orthogonal complement of the span of the
            # Walsh support of D_a f, and the search's root bound reads
            # its size off that support (the double sum in Python up to
            # n = 6, as one product with the sign matrix above)
            d = derivative(f, a).table
            walsh = naive_walsh(d) if n <= 6 else sign @ (1 - 2 * d.astype(np.int64))
            supp = [u for u, w in enumerate(walsh) if w]
            perp = np.flatnonzero((sign[:, gf2vec.rref(supp)] == 1).all(axis=1))
            assert np.array_equal(np.flatnonzero(row), perp)
            for goal, search in enumerate(searches):
                root = search.root(a, goal)
                if len(supp) << goal > 1 << n:
                    assert root is None and len(perp) < 1 << goal
                else:
                    assert root.tolist() == row.tolist()


def _screen_all(f, roots, goal):
    """_CompatRows over roots with every root screened, chunk by chunk,
    as a search with this goal screens them; and the number of chunks."""
    rows = _CompatRows(f, roots)
    chunks = 0
    for a in roots:
        if a not in rows._counts:
            rows._screen(a, goal)
            chunks += 1
    return rows, chunks


def _check_screen(f, roots, spectra):
    # spectra[i] is the whole spectrum of D_roots[i] f: the full screen
    # (goal 2) counts its support, and the quarter screen (the least
    # goal with 2 * goal >= n, at least 3) the support of its first
    # quarter, the points w with top two bits 00
    n = f.n
    support = np.count_nonzero(spectra, axis=1).tolist()
    first = np.count_nonzero(spectra[:, : 1 << (n - 2)], axis=1).tolist()
    for goal, want, width in ((2, support, n), (max(3, (n + 1) // 2), first, n - 2)):
        rows, chunks = _screen_all(f, roots, goal)
        assert [rows._counts[a] for a in roots] == want
        step = max(1, _CHUNK_ENTRIES >> width)
        # a chunk stops at the search's bound on the roots; a root past
        # it, which no search reaches, is a chunk of its own
        bound = 1 << (n - goal + 1)
        below = sum(a < bound for a in roots)
        assert chunks == -(-below // step) + len(roots) - below
        if width == n:
            # a full screen keeps the spectra of the roots within its limit
            keep = [i for i, c in enumerate(support) if c <= 1 << (n - goal)]
            assert sorted(rows._spectra) == sorted(roots[i] for i in keep)
            for i in keep:
                assert np.array_equal(rows._spectra[roots[i]], spectra[i])
        else:
            assert not rows._spectra
        # a root taken out of order starts its own chunk
        rows = _CompatRows(f, roots)
        rows._screen(roots[-1], goal)
        rows._screen(roots[0], goal)
        assert sorted(rows._counts) == sorted({roots[-1], roots[0],
                                               *(a for a in roots[1:step] if a < bound)})
        assert all(rows._counts[a] == want[roots.index(a)] for a in rows._counts)


@pytest.mark.parametrize("n", [*range(4, 13), 14, 16])
def test_root_screen_matches_spectra(n):
    # the corpus functions on n variables and a seeded one, and an affine
    # image of each; every root up to n = 10 (2^n - 1 of them, a multiple
    # of no chunk) and 64 seeded roots above, and the odd-indexed half
    # of the list as a pool of two workers takes it
    rng = XorShift64Star(900 + n)
    if n == 16:
        # a quadratic: every D_a f is affine, so its spectrum is +-2^16
        # at one point, which the quarter holds for some of these roots
        ctx = make_field(8)
        f = mm(ctx, PermTable.identity(8))
        roots = [1, 2, 3, 257, 4096, 65535, 1 << 14, 3 << 14]
        spectra = _derivative_spectrum(f.table, np.array(roots))
        assert (np.abs(spectra).max(axis=1) == 1 << 16).all()
        assert np.abs(spectra[:, : 1 << 14]).max() == 1 << 16
        _check_screen(f, roots, spectra)
        return
    fns = [f for _, f in corpus() if f.n == n] + [rand_fn(rng, n)]
    fns += [ea_transform(f, random_invertible(rng, n), rng.randrange(1 << n),
                         rng.randrange(1 << n), 1) for f in fns]
    if n <= 10:
        roots = list(range(1, 1 << n))
    else:
        pool: set[int] = set()
        while len(pool) < 64:
            pool.add(1 + rng.randrange((1 << n) - 1))
        roots = sorted(pool)
    for f in fns:
        spectra = _derivative_spectrum(f.table, np.array(roots))
        _check_screen(f, roots, spectra)
        _check_screen(f, roots[1::2], spectra[1::2])


def test_subspace_dataclass():
    U = Subspace(4, (3, 5))
    assert len(U.basis) == 2
    assert sorted(span(U.basis)) == [0, 3, 5, 6]
    with pytest.raises(DomainError):
        Subspace(4, (3, 5, 6))  # dependent
    with pytest.raises(DomainError):
        Subspace(4, (0,))
    with pytest.raises(DomainError):
        Subspace(4, (16,))


def test_is_M_subspace_canonical():
    ctx = make_field(3)
    f = mm(ctx, PermTable.inverse_map(ctx))
    assert is_M_subspace(f, Subspace(6, (1, 2, 4)))
    assert not is_M_subspace(f, Subspace(6, (8, 16, 32)))


def test_quad_canonical_plane():
    # x1x2 + x3x4 pairs bits (0, 1) and (2, 3); its M-planes include
    # span(e1, e3) but not span(e1, e2)
    assert is_M_subspace(QUAD, Subspace(4, (1, 4)))
    assert not is_M_subspace(QUAD, Subspace(4, (1, 2)))


def test_linearity_index_two_block():
    ctx2 = make_field(2)
    assert linearity_index(mm(ctx2, PermTable.identity(2))) == 2
    ctx3 = make_field(3)
    assert linearity_index(mm(ctx3, PermTable.inverse_map(ctx3))) == 3
    assert linearity_index(QUAD) == 2
    assert not has_M_subspace(QUAD, 3)


def test_linearity_index_cap():
    ctx3 = make_field(3)
    f = mm(ctx3, PermTable.inverse_map(ctx3))
    assert linearity_index(f, dim_cap=2) == 2
    assert linearity_index(f, dim_cap=0) == 0
    with pytest.raises(DomainError):
        linearity_index(f, dim_cap=-1)


def test_enumerate_known_count():
    # the 4-variable quadratic has the 15 planes of the symplectic
    # geometry as its M-subspaces
    ctx = make_field(2)
    f = mm(ctx, PermTable.identity(2))
    found = enumerate_M_subspaces(f, 2)
    assert len(found) == 15
    assert len({U.basis for U in found}) == 15
    for U in found:
        assert is_M_subspace(f, U)


def _oracle_functions():
    rng = XorShift64Star(61)
    fns = [pytest.param(rand_fn(rng, n), id=f"random{n}-{i}")
           for n in range(1, 7) for i in range(2)]
    for n in range(3, 7):
        # random quadratic: a random set of products x_i x_j plus a linear part
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.bits(1)]
        lin = rng.randrange(1 << n)
        fns.append(pytest.param(BoolFn([
            (sum((x >> i) & (x >> j) & 1 for i, j in pairs) + (x & lin).bit_count()) & 1
            for x in range(1 << n)]), id=f"quadratic{n}"))
    ctx2, ctx3 = make_field(2), make_field(3)
    inverse6 = mm(ctx3, PermTable.inverse_map(ctx3))
    # an affine image, so the M-subspaces leave the coordinate blocks
    L = random_invertible(rng, 6)
    moved = ea_transform(inverse6.with_space(None), L, rng.randrange(64), rng.randrange(64), 1)
    shuffled = PermTable(3, rng.shuffle(list(range(8))))
    return fns + [pytest.param(mm(ctx2, PermTable.identity(2)), id="mm-identity4"),
                  pytest.param(inverse6, id="mm-inverse6"),
                  pytest.param(mm(ctx3, PermTable.gold(ctx3, 1)), id="mm-gold6"),
                  pytest.param(mm(ctx3, shuffled), id="mm-shuffled6"),
                  pytest.param(moved, id="ea-mm-inverse6")]


@pytest.mark.parametrize("f", _oracle_functions())
def test_enumerate_matches_every_subspace_oracle(f):
    nonempty = 0
    for dim in range(1, f.n + 1):
        want = naive_M_subspaces(f.table, dim)
        got = sorted(tuple(span(U.basis)) for U in enumerate_M_subspaces(f, dim))
        assert got == want, dim
        assert has_M_subspace(f, dim) == bool(want)
        if want:
            nonempty = dim
    assert linearity_index(f) == nonempty


def test_search_row_counts(monkeypatch):
    # compatibility rows computed, roots screened, screen chunks, and
    # whole spectra of the roots that pass a quarter screen, for the
    # bounded search: work counters that do not depend on the machine
    computed, fresh, chunks, spectra, transforms = [], [], [], [], []
    dmod = importlib.import_module("bentfn.derivative")
    bmod = importlib.import_module("bentfn.boolfn")
    compute = _CompatRows._compute

    def counted_compute(self, a, *s):
        computed.append(a)
        fresh.append(not s)   # a row that takes its own spectrum
        return compute(self, a, *s)

    screen = _CompatRows._screen

    def counted_screen(self, a, goal):
        before = len(self._counts)
        screen(self, a, goal)
        chunks.append(len(self._counts) - before)

    monkeypatch.setattr(_CompatRows, "_compute", counted_compute)
    monkeypatch.setattr(_CompatRows, "_screen", counted_screen)
    spectrum = dmod._derivative_spectrum
    monkeypatch.setattr(dmod, "_derivative_spectrum",
                        lambda t, a: spectra.append(np.ndim(a)) or spectrum(t, a))
    fwht = bmod._fwht_inplace
    for mod in (bmod, dmod):
        monkeypatch.setattr(mod, "_fwht_inplace", lambda w: transforms.append(w.shape) or fwht(w))
    f10 = build_cor_ex(make_field(4), 4, 1, "inverse")
    f14 = build_cor_ex(make_field(5), 5, 2, "gold", gold_k=1)
    ctx5 = make_field(5)
    inv10 = mm(ctx5, PermTable.inverse_map(ctx5))
    counts = []
    for run, want in ((lambda: has_M_subspace(f10, 5), False),
                      (lambda: linearity_index(f10), 2),
                      (lambda: has_M_subspace(f14, 7), False),
                      # a capped index stops once it reaches its cap
                      (lambda: linearity_index(f10, dim_cap=1), 1),
                      (lambda: linearity_index(f10, dim_cap=2), 2),
                      (lambda: linearity_index(inv10, dim_cap=2), 2)):
        for log in (computed, fresh, chunks, spectra, transforms):
            log.clear()
        assert run() == want
        # a full screen takes one batched spectrum; a root that passes a
        # quarter screen and each DFS row take one spectrum each
        survivors = spectra.count(0) - sum(fresh)
        counts.append((len(computed), sum(chunks), len(chunks), survivors))
        # one transform of at most _CHUNK_ENTRIES entries per chunk, one
        # per whole spectrum and one more per row
        blocks = [shape for shape in transforms if len(shape) == 2]
        assert len(blocks) == len(chunks)
        assert all(rows * size <= _CHUNK_ENTRIES for rows, size in blocks)
        assert len(transforms) - len(blocks) == spectra.count(0) + len(computed)
    # a root whose Walsh support shows too small a row costs no row; at
    # 2 * goal >= n (the first and third searches) its quarter shows it
    # for all but one root of cor-ex2
    assert [c[0] for c in counts] == [0, 32, 0, 1, 3, 3]
    assert [c[1] for c in counts] == [63, 255, 255, 16, 16, 16]
    assert [c[2] for c in counts] == [1, 16, 64, 1, 1, 1]
    assert [c[3] for c in counts] == [0, 0, 1, 0, 0, 0]


def test_screened_spectra_are_not_taken_again(monkeypatch):
    # on the m = 4 two-block inverse function (n = 8) the DFS asks for the
    # rows of roots that the screen passed before the root loop reaches
    # them; each such row finishes the spectrum the screen kept
    dmod = importlib.import_module("bentfn.derivative")
    kept, taken, computed = set(), [], []
    screen = _CompatRows._screen

    def counted_screen(self, a, goal):
        screen(self, a, goal)
        kept.update(self._spectra)

    compute = _CompatRows._compute

    def counted_compute(self, a, *s):
        computed.append(a)
        return compute(self, a, *s)

    spectrum = dmod._derivative_spectrum

    def counted_spectrum(t, a):
        if np.ndim(a) == 0:
            taken.append(int(a))
        return spectrum(t, a)

    monkeypatch.setattr(_CompatRows, "_screen", counted_screen)
    monkeypatch.setattr(_CompatRows, "_compute", counted_compute)
    monkeypatch.setattr(dmod, "_derivative_spectrum", counted_spectrum)
    ctx = make_field(4)
    f = mm(ctx, PermTable.inverse_map(ctx))
    for run, want, rows in ((lambda: linearity_index(f), 4, 15),
                            (lambda: len(enumerate_M_subspaces(f, 2)), 35, 127)):
        for log in (kept, taken, computed):
            log.clear()
        assert run() == want
        assert len(computed) == rows
        assert kept and not kept & set(taken)


def test_enumerate_dim_too_large():
    assert enumerate_M_subspaces(QUAD, 3) == []


def test_threaded_search_agrees(monkeypatch):
    # the cutoff lowered to 0 makes these small searches fork a real pool
    monkeypatch.setattr(importlib.import_module("bentfn.derivative"), "_POOL_MIN_WORK", 0)
    ctx = make_field(3)
    f = mm(ctx, PermTable.inverse_map(ctx))
    assert linearity_index(f, threads=2) == linearity_index(f)
    assert enumerate_M_subspaces(f, 3, threads=2) == enumerate_M_subspaces(f, 3)
    # cor-ex1 (n = 10): the root bound skips roots inside the workers
    f10 = build_cor_ex(make_field(4), 4, 1, "inverse")
    assert linearity_index(f10, threads=2) == linearity_index(f10) == 2
    assert enumerate_M_subspaces(f10, 2, threads=2) == enumerate_M_subspaces(f10, 2)


def test_ea_transform():
    rng = XorShift64Star(17)
    f = rand_fn(rng, 4)
    L = random_invertible(rng, 4)
    g = ea_transform(f, L, 3, 5, 1)
    assert ext_walsh_spectrum(g) == ext_walsh_spectrum(f)
    # literal: g(x) = f(Lx + a) + <c, x> + b
    for x in range(16):
        lx = 0
        for i in range(4):
            if (x >> i) & 1:
                lx ^= L[i]
        want = f.table[lx ^ 3] ^ ((5 & x).bit_count() & 1) ^ 1
        assert g.table[x] == want
    with pytest.raises(ParameterError):
        ea_transform(f, [1, 2, 4, 4])
    with pytest.raises(ParameterError):
        ea_transform(f, [1, 2, 4])


@pytest.mark.parametrize("L, a, c, error", [
    ([4, 2], 0, 0, ParameterError),    # independent, but 4 lies outside V_2
    ([-1, 2], 0, 0, ParameterError),
    ([1, 2], -1, 0, DomainError),       # would act as a = 3
    ([1, 2], 4, 0, DomainError),
    ([1, 2], 0, -2, DomainError),
    ([1, 2], 0, 4, DomainError),
])
def test_ea_transform_rejects_vectors_outside_V_n(L, a, c, error):
    with pytest.raises(error):
        ea_transform(BoolFn([0, 0, 0, 1]), L, a, c)


def test_ea_preserves_M_subspace_count():
    ctx = make_field(2)
    f = mm(ctx, PermTable.identity(2)).with_space(None)
    rng = XorShift64Star(23)
    L = random_invertible(rng, 4)
    g = ea_transform(f, L, rng.randrange(16), rng.randrange(16), 0)
    assert len(enumerate_M_subspaces(g, 2)) == 15


def test_search_clamps_threads(monkeypatch):
    sizes = []

    class InlinePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            assert len(chunks) == sizes[-1]
            return [fn(chunk) for chunk in chunks]

    class FakeContext:
        Pool = InlinePool

    mod = importlib.import_module("bentfn.derivative")
    monkeypatch.setattr("multiprocessing.get_context", lambda method: FakeContext)
    monkeypatch.setattr(mod.os, "cpu_count", lambda: 3)
    # a search forks when its roots touch 2^24 table entries (roots x 2^n):
    # at n = 8 the 255 roots of an index search touch under 2^16
    ctx = make_field(4)
    f = mm(ctx, PermTable.inverse_map(ctx))
    assert linearity_index(f, threads=100_000) == linearity_index(f)
    assert sizes == []
    # at n = 14 an index search has 2^14 - 1 roots and a dim-4 search
    # 2^11 - 1, so both fork; a dim-5 search has 2^10 - 1, just below
    ctx7 = make_field(7)
    h = mm(ctx7, PermTable.inverse_map(ctx7))
    assert linearity_index(h, dim_cap=2, threads=100_000) == 2
    assert has_M_subspace(h, 4, threads=100_000)
    assert sizes == [3, 3]
    assert has_M_subspace(h, 5, threads=100_000)
    assert sizes == [3, 3]
    monkeypatch.setattr(mod.os, "cpu_count", lambda: None)
    assert linearity_index(h, dim_cap=2, threads=100_000) == 2
    assert sizes == [3, 3]  # an unknown CPU count means one worker and no pool
    # the root count clamps the pool too: 2^(10-4+1) - 1 = 127 at n = 10, dim 4
    monkeypatch.setattr(mod, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(mod.os, "cpu_count", lambda: 1000)
    ctx5 = make_field(5)
    g = mm(ctx5, PermTable.inverse_map(ctx5))
    assert enumerate_M_subspaces(g, 4, threads=100_000) == enumerate_M_subspaces(g, 4)
    assert sizes == [3, 3, 127]
