"""Derivatives, M-subspaces, linearity index, and EA transforms.

The M-subspace search works on the compatibility relation
compat(a, b) <=> D_a D_b f == 0.  Five structural facts keep it fast:

* compat(a, .) is a linear subspace: D_a D_b f == 0 iff b is an
  XOR-period of D_a f, i.e. iff the autocorrelation of D_a f at b is
  2^n.  So one autocorrelation (two FWHTs) per vector a yields the
  whole row of the relation.
* D_a D_b f depends only on the plane {0, a, b, a+b}, so a subspace is
  an M-subspace iff compat holds for all pairs inside it, and when
  extending a known M-subspace S by v it is enough to check that every
  element of v + S is compatible with every element of S.
* Each subspace has exactly one generating chain whose vectors are
  added in ascending order with each new vector minimal in its coset
  (equivalently: the greedy ascending basis).  Enumerating only such
  chains visits every M-subspace exactly once, no dedup needed.
* The i-th vector of the greedy ascending basis of a t-dimensional
  subspace S is below 2^(n-t+i): the integers below 2^(n-t+i) form a
  subspace of dimension n-t+i, which meets S in dimension at least i.
  So chains towards dimension t start below 2^(n-t+1), and the vector
  added at depth d is below 2^(n-t+d+1).  With no target dimension,
  t is one more than the best dimension found so far.
* The row of a is (span supp W_{D_a f})^perp: b is a period of D_a f
  exactly when b is orthogonal to every point of the Walsh support of
  D_a f.  So the row has at most 2^n / |supp W_{D_a f}| elements, and a
  root whose support holds more than 2^(n-t) points cannot start a
  t-dimensional chain.  Any part of the support can show that.  The
  search screens its roots a chunk at a time (`_CompatRows._screen`),
  with one transform of up to 2^14 entries per chunk: of the whole
  spectra, or, where a part can decide (t >= n/2), of the quarter of
  each spectrum with w's top two bits 00, the transform of the sum of
  the four quarters of (-1)^(D_a f) over the top two index bits.  At
  n = 14, t = 7 that screens the 255 roots of cor-ex2 in 64 transforms
  of four 2^12-point quarters and stops 254 of them; the index search
  of cor-ex1 (n = 10) screens the 255 roots below its bound in 16
  transforms of up to 16 whole spectra.  A root that passes a quarter
  takes its whole spectrum; a kept spectrum finishes its root's row,
  whether the root loop or the DFS asks for that row first.

Rows are computed lazily and cached bit-packed, so a capped search on
14 variables stays within tens of megabytes.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import gf2vec
from .boolfn import (_CHUNK_ENTRIES, BoolFn, _check_vectors, _derivative_spectrum, _fwht_inplace,
                     _linear_image, _points, _second_derivative, _wiener_khintchine)
from .errors import DomainError, ParameterError


def derivative(f: BoolFn, a: int) -> BoolFn:
    """D_a f(x) = f(x + a) + f(x)."""
    return f.shift(a) ^ f


def second_derivative(f: BoolFn, a: int, b: int) -> BoolFn:
    """D_a D_b f(x) = f(x) + f(x+a) + f(x+b) + f(x+a+b)."""
    _check_vectors(f.n, a, b)
    return BoolFn(_second_derivative(f.table, a, b), f.space)


@dataclass(frozen=True)
class Subspace:
    """A subspace of V_n given by an independent basis."""

    n: int
    basis: tuple[int, ...]

    def __post_init__(self):
        basis = tuple(int(b) for b in self.basis)
        object.__setattr__(self, "basis", basis)
        if any(not 0 < b < 1 << self.n for b in basis):
            raise DomainError(f"basis vectors must be nonzero {self.n}-bit values")
        if gf2vec.rank(list(basis)) != len(basis):
            raise DomainError("basis vectors are linearly dependent")


class _CompatRows:
    """Lazy bit-packed rows of the compatibility relation of f, and the
    screen of the search roots (any sequence of nonzero vectors)."""

    def __init__(self, f: BoolFn, roots):
        self.f = f
        self.size = f.table.size
        self._cache: dict[int, np.ndarray] = {}
        self._roots = roots
        self._next = 0                              # position of the next unscreened root
        self._counts: dict[int, int] = {}           # root -> screened support count
        self._spectra: dict[int, np.ndarray] = {}   # root -> whole spectrum of a survivor

    def row(self, a: int) -> np.ndarray:
        """Unpacked 0/1 mask over b of compat(a, b), for a != 0."""
        packed = self._cache.get(a)
        if packed is None:
            # a root screened ahead of the root loop hands over its spectrum
            self._counts.pop(a, None)
            kept = [self._spectra.pop(a)] if a in self._spectra else []
            packed = self._cache[a] = self._compute(a, *kept)
        return np.unpackbits(packed, bitorder="little")[: self.size]

    def root(self, a: int, goal: int) -> np.ndarray | None:
        """row(a) for a search root, or None when that row has fewer than
        2^goal elements.  The row is (span supp W_{D_a f})^perp, so a
        support of more than 2^(n - goal) points shows this before the
        row's second transform.

        `_screen` counts the support exactly, or from one quarter as a
        lower bound; a root within the limit then takes its whole
        spectrum and is decided exactly.  A goal that rose after the
        screen only lowers the limit.
        """
        if a not in self._cache:
            if a not in self._counts:
                self._screen(a, goal)
            limit = self.size >> goal
            spectrum = self._spectra.pop(a, None)
            if self._counts.pop(a) > limit:
                return None
            if spectrum is None:
                spectrum = _derivative_spectrum(self.f.table, a)
                if np.count_nonzero(spectrum) > limit:
                    return None
            self._cache[a] = self._compute(a, spectrum)
        return self.row(a)

    def _screen(self, a: int, goal: int) -> None:
        """Count the Walsh support of D_r f for the roots r of the chunk
        that starts at a, in one transform of up to `_CHUNK_ENTRIES`
        entries; keep the whole spectra of the roots within the limit.
        The roots after a stop at the search's bound 2^(n - goal + 1).

        When 2 * goal >= n (and goal >= 3, as a quarter of 2^(n-2)
        points can hold more than 2^(n - goal) only then) only the
        quarter with w's top two bits 00 is counted: the transform of
        the sum over the top two index bits of (-1)^(D_r f), as
        (-1)^(w . x) does not depend on them there.  The derivatives of
        the designed functions have supports of about 2^(n/2) to
        2^(n/2+2) points (cor-ex1, n = 10: 112 to 144; cor-ex2, n = 14:
        256 to 640), so a quarter exceeds 2^(n - goal) for nearly every
        root once goal >= n/2 but rarely below (cor-ex1 at goal 3: for
        none), where the whole spectrum, which a row needs anyway, is
        the cheaper count.
        """
        n = self.f.n
        quarter = 2 < goal and n <= 2 * goal
        width = n - 2 if quarter else n
        roots = self._roots
        if self._next >= len(roots) or roots[self._next] != a:
            self._next = roots.index(a)   # a root taken out of order starts a chunk
        end = self._next + max(1, _CHUNK_ENTRIES >> width)
        chunk = [a] + [r for r in roots[self._next + 1:end] if r < 1 << (n - goal + 1)]
        self._next += len(chunk)
        r = np.array(chunk, dtype=np.int64)
        table = self.f.table
        if quarter:
            # the ones of D_r f at (top, low), summed over top: with top
            # shifted by r_top, f(top + r_top, low) + f(top, low + r_low),
            # so the gather runs over the low bits only
            t = table.reshape(4, -1)
            ones = np.take(t, _points(width)[0] ^ (r[:, None] & (t.shape[1] - 1)), axis=1)
            ones ^= t[np.arange(4)[:, None] ^ (r >> width)]
            w = _fwht_inplace(_QUARTER_SUM.take(ones.sum(axis=0, dtype=np.uint8)))
        else:
            w = _derivative_spectrum(table, r)
        limit = self.size >> goal
        for root, spectrum, count in zip(chunk, w, np.count_nonzero(w, axis=1).tolist()):
            self._counts[root] = count
            if not quarter and count <= limit:
                self._spectra[root] = spectrum

    def _compute(self, a: int, spectrum: np.ndarray | None = None) -> np.ndarray:
        # a spectrum of D_a f already taken is finished in place
        if spectrum is None:
            spectrum = _derivative_spectrum(self.f.table, a)
        row = _wiener_khintchine(spectrum)
        return np.packbits(row == self.size, bitorder="little")


# The sum of (-1)^d over the four quarters, by the number of ones among
# them.  int32 is exact (a quarter transform is at most 2^n <= 2^16 in
# absolute value, and the small-array kernel casts its int64 product
# back) and runs criterion 3's quarter searches about 6 % faster.
_QUARTER_SUM = np.array([4, 2, 0, -2, -4], dtype=np.int32)


@dataclass
class _SearchResult:
    best: int = 0
    found: list[tuple[int, ...]] = field(default_factory=list)
    done: bool = False


def _goal(target: int | None, res: _SearchResult) -> int:
    """Dimension t of the subspaces still sought."""
    return target if target is not None else res.best + 1


def _dfs(rows: _CompatRows, span: list[int], basis: list[int], pmask: np.ndarray,
         target: int | None, cap: int, find_all: bool, res: _SearchResult) -> None:
    d = len(basis)
    res.best = max(res.best, d)
    if target is not None and d == target:
        res.found.append(tuple(basis))
        if not find_all:
            res.done = True
        return
    if d >= cap:
        # only an index search gets here (a target search stops at its
        # target, which is its cap): its answer is the cap, so stop
        res.done = True
        return
    if int(pmask.sum()) < 1 << _goal(target, res):
        return
    span_max = span[-1] if len(span) > 1 else 0
    for v in map(int, np.flatnonzero(pmask)):
        if res.done:
            return
        if v >> (rows.f.n - _goal(target, res) + d + 1):
            break  # beyond the minimum-element bound of depth d
        if v <= span_max:
            continue
        if any(v > (v ^ s) for s in span if s):
            continue  # not the coset minimum; another chain owns this subspace
        # pmask is an intersection of rows, each a subspace holding span, so v + span lies in it
        shifted = [v ^ s for s in span]
        new_pm = pmask
        for w in shifted:
            new_pm = new_pm & rows.row(w)
        new_span = sorted(span + shifted)
        _dfs(rows, new_span, basis + [v], new_pm, target, cap, find_all, res)


def _run_search(f: BoolFn, roots, target: int | None, cap: int,
                find_all: bool) -> _SearchResult:
    rows = _CompatRows(f, roots)
    res = _SearchResult()
    for v1 in roots:
        if res.done or v1 >> (f.n - _goal(target, res) + 1):
            break
        if target is not None and not find_all and res.found:
            break
        # A skipped root's row is too small for _dfs's count check.  The
        # bound needs goal >= 2, as every row holds 0 and v1; by then an
        # index search has best >= 1, so skipping moves no best, found or done.
        pm = rows.root(v1, _goal(target, res))
        if pm is not None:
            _dfs(rows, [0, v1], [v1], pm, target, cap, find_all, res)
    return res


# A search forks workers only when its roots can touch this many table
# entries (roots x 2^n).  Below it, starting the pool costs more than the
# search: on two cores (medians of seven alternating fresh processes, one
# worker against a pool of two forced below this cutoff) the index of
# cor-ex1 (n = 10, 2^20) takes 4.3 against 14 ms and the dim-7 test of
# cor-ex2 (n = 14, 2^22) 18 against 23 ms, while the n = 14 dim-4 and
# index searches (2^25, 2^28) gain.
_POOL_MIN_WORK = 1 << 24


def _search(f: BoolFn, target: int | None, cap: int, find_all: bool,
            threads: int = 1) -> _SearchResult:
    roots = list(range(1, f.table.size if target is None else 1 << (f.n - target + 1)))
    threads = min(threads, os.cpu_count() or 1, len(roots))
    if threads <= 1 or len(roots) << f.n < _POOL_MIN_WORK:
        return _run_search(f, roots, target, cap, find_all)
    import multiprocessing   # only a pooled search pays for this import

    chunks = [roots[i::threads] for i in range(threads)]
    job = functools.partial(_run_search, f, target=target, cap=cap, find_all=find_all)
    with multiprocessing.get_context("fork").Pool(threads) as pool:
        parts = pool.map(job, chunks)
    res = _SearchResult()
    for part in parts:
        res.best = max(res.best, part.best)
        res.found.extend(part.found)
    if target is not None and not find_all and res.found:
        res.found = [min(res.found)]
    return res


def linearity_index(f: BoolFn, dim_cap: int | None = None, threads: int = 1) -> int:
    """Largest dimension of an M-subspace of f, up to dim_cap."""
    if dim_cap is not None and dim_cap < 0:
        raise DomainError(f"dimension cap must be non-negative, got {dim_cap}")
    cap = f.n if dim_cap is None else min(dim_cap, f.n)
    if cap < 1:
        return 0
    return _search(f, None, cap, False, threads).best


def enumerate_M_subspaces(f: BoolFn, dim: int, threads: int = 1) -> list[Subspace]:
    """All M-subspaces of the given dimension, canonical bases, sorted."""
    if dim < 1:
        raise DomainError("dimension must be at least 1")
    if dim > f.n:
        return []
    res = _search(f, dim, dim, True, threads)
    canon = sorted({tuple(gf2vec.rref(list(b))) for b in res.found})
    return [Subspace(f.n, b) for b in canon]


def has_M_subspace(f: BoolFn, dim: int, threads: int = 1) -> bool:
    if dim < 1:
        return True
    if dim > f.n:
        return False
    return bool(_search(f, dim, dim, False, threads).found)


def ea_transform(f: BoolFn, L: list[int], a: int = 0, c: int = 0, b: int = 0) -> BoolFn:
    """g(x) = f(L(x) + a) + <c, x> + b for an invertible linear L.

    L is given by columns: L[j] is the image of the j-th unit vector.
    """
    if (len(L) != f.n or any(not 0 <= col < 1 << f.n for col in L)
            or gf2vec.rank(list(L)) != f.n):
        raise ParameterError("L must be an invertible n x n matrix over GF(2)")
    _check_vectors(f.n, a, c)
    x, parity = _points(f.n)
    return BoolFn(f.table[_linear_image(L) ^ a] ^ parity[x & c] ^ (b & 1), f.space)
