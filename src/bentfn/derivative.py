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
  (the greedy ascending basis), so enumerating only such chains visits
  every M-subspace once.  A chain's top bits rise, so they lead its
  span's echelon form: v is above the span and least in its coset iff
  v >= 2^(bit length of the last vector) and v is 0 at every top bit.
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
  root loop (`_run_search`) screens its roots a chunk at a time, each
  chunk in one transform of up to 2^14 entries (`_CompatRows._screen`),
  and decides each root from its count.  It transforms the whole
  spectra, or, where a part can decide (t >= n/2), the quarter of
  each spectrum with w's top two bits 00, the transform of the sum of
  the four quarters of (-1)^(D_a f) over the top two index bits.  At
  n = 14, t = 7 that screens the 255 roots of cor-ex2 in 64 transforms
  of four 2^12-point quarters and stops 254 of them; the index search
  of cor-ex1 (n = 10) screens 254 roots below its bound (no root fails
  goal 1) in 16 transforms of up to 16 whole spectra.  A root that
  passes a quarter takes its whole spectrum; a kept spectrum finishes
  its root's row, whether the root loop or the DFS asks for that row
  first, and a root whose row the DFS took first starts no chunk.

Rows are computed lazily, cached bit-packed and intersected packed, so
a capped search on 14 variables stays within tens of megabytes.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import gf2vec
from .boolfn import (_CHUNK_ENTRIES, BoolFn, _derivative_spectrum, _fwht_inplace, _linear_image,
                     _points, _second_derivative, _wiener_khintchine)
from .errors import DomainError, ParameterError
from .gf2 import _check_vectors, _entries_within, _is_integer, _is_natural


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
        if not _is_natural(self.n):
            raise DomainError(f"the dimension n must be a non-negative integer, got {self.n}")
        _check_vectors(self.n, *self.basis)
        basis = tuple(int(b) for b in self.basis)
        object.__setattr__(self, "basis", basis)
        if 0 in basis:
            raise DomainError(f"basis vectors must be nonzero {self.n}-bit values")
        if gf2vec.rank(list(basis)) != len(basis):
            raise DomainError("basis vectors are linearly dependent")


class _CompatRows:
    """Lazy bit-packed rows of the compatibility relation of f, and the
    whole spectra that `_screen` keeps from the chunks of `_run_search`."""

    def __init__(self, f: BoolFn):
        self.f = f
        self.size = f.table.size
        self._cache: dict[int, np.ndarray] = {}
        self._kept: dict[int, np.ndarray] = {}   # root -> whole spectrum within the limit

    def row(self, a: int) -> np.ndarray:
        """The cached mask over b of compat(a, b), for a != 0, packed little-endian."""
        packed = self._cache.get(a)
        if packed is None:
            # a spectrum kept by the screen or by root() is finished here
            kept = [self._kept.pop(a)] if a in self._kept else []
            packed = self._cache[a] = self._compute(a, *kept)
        return packed

    def root(self, a: int, count: int, goal: int) -> np.ndarray | None:
        """row(a) for a search root whose Walsh support `_screen` counted,
        or None when that row, (span supp W_{D_a f})^perp, has fewer than
        2^goal elements, as a support of more than 2^(n - goal) points
        shows before the row's second transform.  A count from one quarter
        is a lower bound: a root within the limit then takes its whole
        spectrum.  A goal that rose after the screen only lowers the limit.
        """
        limit = self.size >> goal
        if count > limit:
            self._kept.pop(a, None)
            return None
        if a not in self._cache and a not in self._kept:
            spectrum = _derivative_spectrum(self.f.table, a)
            if np.count_nonzero(spectrum) > limit:
                return None
            self._kept[a] = spectrum
        return self.row(a)

    def _screen(self, chunk: list[int], goal: int) -> list[int]:
        """Walsh-support counts of D_r f for the roots r of a chunk of
        `_run_search`, in one transform; keeps for their rows the whole
        spectra within 2^(n - goal) of roots whose rows are not cached.

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
        width = _screen_width(n, goal)
        r = np.array(chunk, dtype=np.int64)
        if width < n:
            # the ones of D_r f at (top, low), summed over top: with top
            # shifted by r_top, f(top + r_top, low) + f(top, low + r_low),
            # so the gather runs over the low bits only
            t = self.f.table.reshape(4, -1)
            ones = np.take(t, _points(width)[0] ^ (r[:, None] & (t.shape[1] - 1)), axis=1)
            ones ^= t[np.arange(4)[:, None] ^ (r >> width)]
            w = _fwht_inplace(_QUARTER_SUM.take(ones.sum(axis=0, dtype=np.uint8)))
            return np.count_nonzero(w, axis=1).tolist()
        w = _derivative_spectrum(self.f.table, r)
        counts = np.count_nonzero(w, axis=1).tolist()
        self._kept.update((a, s) for a, s, c in zip(chunk, w, counts)
                          if c <= self.size >> goal and a not in self._cache)
        return counts

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
    # the chain that first reached best.  The DFS takes chains in
    # ascending order, and each prune drops only chains that cannot reach
    # the dimension sought, which never exceeds the final best; so this
    # is the least chain of that dimension, the one a search targeted
    # there finds first
    witness: tuple[int, ...] = ()
    found: list[tuple[int, ...]] = field(default_factory=list)
    done: bool = False


def _goal(target: int | None, res: _SearchResult) -> int:
    """Dimension t of the subspaces still sought."""
    return target if target is not None else res.best + 1


def _screen_width(n: int, goal: int) -> int:
    """log2 of the points per root of `_CompatRows._screen`'s transform."""
    return n - 2 if 2 < goal and n <= 2 * goal else n


def _dfs(rows: _CompatRows, span: list[int], basis: list[int], pmask: np.ndarray,
         target: int | None, cap: int, find_all: bool, res: _SearchResult) -> None:
    d = len(basis)
    if d > res.best:
        res.best, res.witness = d, tuple(basis)
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
    if int(np.bitwise_count(pmask).sum()) < 1 << _goal(target, res):
        return
    low, lead = 1 << basis[-1].bit_length(), sum(1 << (b.bit_length() - 1) for b in basis)
    mask = np.unpackbits(pmask, count=rows.size, bitorder="little")   # v >= low is above the span
    for v in map(int, np.flatnonzero(mask[low:]) + low):
        if res.done:
            return
        if v >> (rows.f.n - _goal(target, res) + d + 1):
            break  # beyond the minimum-element bound of depth d
        if v & lead:
            continue  # not the coset minimum; another chain owns this subspace
        # pmask is an intersection of rows, each a subspace holding span, so v + span lies in it
        shifted = [v ^ s for s in span]
        new_pm = pmask
        for w in shifted:
            new_pm = new_pm & rows.row(w)
        _dfs(rows, span + shifted, basis + [v], new_pm, target, cap, find_all, res)


def _run_search(f: BoolFn, roots, target: int | None, cap: int,
                find_all: bool) -> _SearchResult:
    rows = _CompatRows(f)
    res = _SearchResult()
    counts: dict[int, int] = {}   # the present chunk's; a row the DFS took needs none
    for i, v1 in enumerate(roots):
        goal = _goal(target, res)
        if res.done or v1 >> (f.n - goal + 1):
            break
        if (goal > 1 or find_all) and v1 not in counts and v1 not in rows._cache:
            end = i + max(1, _CHUNK_ENTRIES >> _screen_width(f.n, goal))
            chunk = [a for a in roots[i:end] if not a >> (f.n - goal + 1)]
            counts = dict(zip(chunk, rows._screen(chunk, goal)))
        # A skipped root's row is too small for _dfs's count check.  No
        # root fails goal 1, as every row holds 0 and v1, so there only a
        # find-all search screens, for its batched spectra.
        pm = rows.root(v1, counts.get(v1, 0), goal)
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
    if not _is_natural(threads, 1):
        raise ParameterError(f"threads must be a positive integer, got {threads}")
    roots = list(range(1, f.table.size if target is None else 1 << (f.n - target + 1)))
    threads = min(threads, os.cpu_count() or 1, len(roots))
    if threads <= 1 or len(roots) << f.n < _POOL_MIN_WORK:
        return _run_search(f, roots, target, cap, find_all)
    import multiprocessing   # only a pooled search pays for this import

    chunks = [roots[i::threads] for i in range(threads)]
    job = functools.partial(_run_search, f, target=target, cap=cap, find_all=find_all)
    with multiprocessing.get_context("fork").Pool(threads) as pool:
        parts = pool.map(job, chunks)
    res = _SearchResult(best=max(part.best for part in parts))
    # each part's witness is the least chain from its roots at its best
    res.witness = min(part.witness for part in parts if part.best == res.best)
    for part in parts:
        res.found.extend(part.found)
    return res


def _index_search(f: BoolFn, dim_cap: int | None, threads: int) -> _SearchResult:
    """The search for the largest M-subspace of f up to dim_cap: its
    dimension, best, and the least chain that reaches it, witness."""
    if dim_cap is not None and not _is_natural(dim_cap):
        raise DomainError(f"dimension cap must be a non-negative integer, got {dim_cap}")
    cap = f.n if dim_cap is None else min(dim_cap, f.n)
    if cap < 1:
        return _SearchResult()
    return _search(f, None, cap, False, threads)


def linearity_index(f: BoolFn, dim_cap: int | None = None, threads: int = 1) -> int:
    """Largest dimension of an M-subspace of f, up to dim_cap."""
    return _index_search(f, dim_cap, threads).best


def enumerate_M_subspaces(f: BoolFn, dim: int, threads: int = 1) -> list[Subspace]:
    """All M-subspaces of the given dimension, canonical bases, sorted."""
    if not _is_natural(dim, 1):
        raise DomainError(f"dimension must be a positive integer, got {dim}")
    if dim > f.n:
        return []
    res = _search(f, dim, dim, True, threads)
    # a chain is the greedy ascending basis of its subspace, so reversed
    # it is the reduced echelon form; and each subspace has one chain
    return [Subspace(f.n, b) for b in sorted(b[::-1] for b in res.found)]


def has_M_subspace(f: BoolFn, dim: int, threads: int = 1) -> bool:
    if not _is_integer(dim):
        raise DomainError(f"dimension must be an integer, got {dim}")
    if dim < 1:
        return True
    if dim > f.n:
        return False
    return bool(_search(f, dim, dim, False, threads).found)


def ea_transform(f: BoolFn, L: list[int], a: int = 0, c: int = 0, b: int = 0) -> BoolFn:
    """g(x) = f(L(x) + a) + <c, x> + b for an invertible linear L.

    L is given by columns: L[j] is the image of the j-th unit vector.
    """
    cols = np.asarray(L)
    if (cols.shape != (f.n,) or not _entries_within(cols, (1 << f.n) - 1)
            or gf2vec.rank(cols.tolist()) != f.n):
        raise ParameterError("L must be an invertible n x n matrix over GF(2)")
    _check_vectors(f.n, a, c)
    _check_vectors(1, b)
    x, parity = _points(f.n)
    return BoolFn(f.table[_linear_image(cols) ^ a] ^ parity[x & c] ^ int(b), f.space)
