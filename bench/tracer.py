"""In-memory span recorder for the bentfn benchmark.

Spans are recorded from the benchmark's side of each layer boundary: the
recorder wraps bentfn functions and rebinds every module global that
refers to them.  Rebinding each consuming module matters because
`derivative`, `decomp`, `verify` and `cli` import `_fwht_inplace`, `dual`,
`is_bent` and friends by value, and because `_dfs` recurses through its
module global, so rebinding it counts every DFS node.

Each span records its name, start, end, parent span and item id (one
plane, one search or one command).  Spans stay in memory; `write_csv`
dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.outer: list[bool] = []   # no enclosing span of the same name
        self.item = 0
        self.active = True
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def wrap(self, name, fn, on_call=None, on_result=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, items, outer = self.parents, self.items, self.outer
        stack, depth, clock, tracer = self._stack, self._depth, time.perf_counter, self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            outer.append(depth[name] == 0)
            starts.append(0.0)
            ends.append(0.0)
            depth[name] += 1
            stack.append(i)
            if on_call is not None:
                on_call(tracer, args)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[name] -= 1
            if on_result is not None:
                on_result(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls the benchmark makes for its own bookkeeping stay unrecorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- summaries -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy_s (outermost spans only) and self_s
        (duration minus the time covered by direct child spans)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            s = out[name]
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            if self.outer[i]:
                s["busy_s"] += dur[i]
        return out

    def calls_per_item(self) -> Counter:
        return Counter(zip(self.items, self.names))

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with an enclosing span called `ancestor`."""
        count = 0
        for i, nm in enumerate(self.names):
            if nm != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            count += p >= 0
        return count

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,item\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]:.9f},{self.ends[i]:.9f},"
                         f"{self.parents[i]},{self.items[i]}\n")


# -- counters attached to particular boundaries ---------------------------------

def _count_fwht(tr: Tracer, args) -> None:
    # radix-2 butterflies and int64 bytes read plus written per stage,
    # derived from the array size (computed, not measured)
    size = args[0].size
    stages = int(math.log2(size)) if size > 1 else 0
    tr.counts["fwht.butterflies"] += (size // 2) * stages
    tr.counts["fwht.bytes"] += 2 * 8 * size * stages


def _start_search(tr: Tracer, args) -> None:
    tr.counts["rows.live_bytes"] = 0


def _count_row(tr: Tracer, packed) -> None:
    tr.counts["rows.live_bytes"] += packed.nbytes
    tr.counts["rows.peak_bytes"] = max(tr.counts["rows.peak_bytes"],
                                       tr.counts["rows.live_bytes"])


def _count_planes(tr: Tracer, records) -> None:
    tr.counts["scan.planes"] += len(records)


BUILDERS = (
    ("bentfn.construct", ("mm", "gmm", "psap", "gpsap", "gpsap_trace_form",
                          "build_cor_ex")),
    ("bentfn.decomp", ("psffff", "partition_bent")),
)

GF2VEC = ("rref", "rank", "in_span", "span", "nullspace", "solve",
          "is_subspace", "complete_basis")


def _targets():
    """(module, attribute, span name, on_call, on_result) for every boundary."""
    t = [
        ("bentfn.gf2", "make_field", "gf2.make_field", None, None),
        ("bentfn.boolfn", "_fwht_inplace", "boolfn.fwht", _count_fwht, None),
        ("bentfn.boolfn", "dual", "boolfn.dual", None, None),
        ("bentfn.boolfn", "load_table", "boolfn.io", None, None),
        ("bentfn.boolfn", "save_table", "boolfn.io", None, None),
        ("bentfn.derivative", "_CompatRows.row", "derivative.rows.request", None, None),
        ("bentfn.derivative", "_CompatRows._compute", "derivative.rows.compute",
         None, _count_row),
        ("bentfn.derivative", "_dfs", "derivative.dfs", None, None),
        ("bentfn.derivative", "_search", "derivative.search", _start_search, None),
        ("bentfn.decomp", "classify_decomposition", "decomp.classify", None, None),
        ("bentfn.decomp", "restrict_to_cosets", "decomp.restrict", None, None),
        ("bentfn.decomp", "scan_decompositions", "decomp.scan", None, _count_planes),
        ("bentfn.decomp", "save_scan", "decomp.save_scan", None, None),
        ("bentfn.construct", "check_property_P", "construct.check_property_P",
         None, None),
        ("bentfn.construct", "trace_sum_nonconstant", "construct.trace_sum",
         None, None),
        ("bentfn.verify", "corpus", "verify.corpus", None, None),
    ]
    t += [("bentfn.gf2vec", name, "gf2vec", None, None) for name in GF2VEC]
    for mod, names in BUILDERS:
        t += [(mod, name, "construct.build", None, None) for name in names]
    return t


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced boundary for the duration of the block."""
    restore = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "bentfn" or name.startswith("bentfn.")]
    try:
        for mod_name, attr, span, on_call, on_result in _targets():
            # A boundary the library no longer has is left out; its
            # metrics then read 0 and the seed-0 counter checks say so.
            owner = sys.modules.get(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, leaf, None)
            if orig is None:
                continue
            wrapped = tracer.wrap(span, orig, on_call, on_result)
            if isinstance(owner, type):
                restore.append((owner, leaf, orig))
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        verify = sys.modules["bentfn.verify"]
        restore.append((verify, "CRITERIA", verify.CRITERIA))
        verify.CRITERIA = tuple(
            (num, name, tracer.wrap(f"verify.c{num:02d}", fn))
            for num, name, fn in verify.CRITERIA)
        yield tracer
    finally:
        for owner, key, orig in reversed(restore):
            setattr(owner, key, orig)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures, keyed like BENCHMARK.json's per_layer list."""
    s = tr.summary()

    def get(name, field):
        return s[name][field] if name in s else 0

    classified = get("decomp.classify", "calls")
    requested = get("derivative.rows.request", "calls")
    computed = get("derivative.rows.compute", "calls")
    m = {
        "gf2.make_field.calls": get("gf2.make_field", "calls"),
        "gf2.make_field.busy_s": get("gf2.make_field", "busy_s"),
        "boolfn.fwht.calls": get("boolfn.fwht", "calls"),
        "boolfn.fwht.busy_s": get("boolfn.fwht", "busy_s"),
        "boolfn.fwht.butterflies": tr.counts["fwht.butterflies"],
        "boolfn.fwht.bytes_computed": tr.counts["fwht.bytes"],
        "boolfn.dual.calls": get("boolfn.dual", "calls"),
        "boolfn.dual.busy_s": get("boolfn.dual", "busy_s"),
        "decomp.fwht_per_plane": (tr.calls_under("boolfn.fwht", "decomp.classify")
                                  / classified if classified else 0.0),
        "boolfn.io.busy_s": get("boolfn.io", "busy_s"),
        "gf2vec.calls": get("gf2vec", "calls"),
        "gf2vec.busy_s": get("gf2vec", "busy_s"),
        "derivative.rows.computed": computed,
        "derivative.rows.requested": requested,
        "derivative.rows.self_s": (get("derivative.rows.request", "self_s")
                                   + get("derivative.rows.compute", "self_s")),
        "derivative.rows.cache_bytes": tr.counts["rows.peak_bytes"],
        "derivative.row_hit_ratio": ((requested - computed) / requested
                                     if requested else 0.0),
        "derivative.dfs.nodes": get("derivative.dfs", "calls"),
        "derivative.search.busy_s": get("derivative.search", "busy_s"),
        "decomp.classify.calls": classified,
        "decomp.classify.self_s": get("decomp.classify", "self_s"),
        "decomp.restrict.busy_s": get("decomp.restrict", "busy_s"),
        "decomp.scan.planes": tr.counts["scan.planes"],
        "decomp.scan.busy_s": get("decomp.scan", "busy_s"),
        "decomp.save_scan.busy_s": get("decomp.save_scan", "busy_s"),
        "construct.build.calls": get("construct.build", "calls"),
        "construct.build.busy_s": get("construct.build", "busy_s"),
        "construct.check_property_P.busy_s": get("construct.check_property_P",
                                                 "busy_s"),
        "construct.trace_sum.busy_s": get("construct.trace_sum", "busy_s"),
    }
    for num in range(1, 13):
        m[f"verify.c{num:02d}.busy_s"] = get(f"verify.c{num:02d}", "busy_s")
    m["verify.corpus.builds"] = get("verify.corpus", "calls")
    m["verify.corpus.busy_s"] = get("verify.corpus", "busy_s")
    m["trace.spans"] = len(tr.names)
    return m

