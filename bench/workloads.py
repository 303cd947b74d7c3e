"""The benchmark's three workloads: inputs from a seed, one pass, checks.

Seed 0 runs the paper's own inputs.  Any other seed replaces each input
function f by a seeded affine-equivalent copy g(x) = f(Lx + a) + <c, x> + b
(`bentfn.ea_transform`).  M-subspace dimensions, bentness, degree, Walsh
spectrum multisets and plane-class counts do not change under that map, so
every answer checked below holds for every seed; byte digests of written
files are checked at seed 0 only.

Why these workloads:

* msubspace -- criterion 3 at `full` through the library.  Its time goes
  to `derivative`'s compatibility rows (one large FWHT each) and the DFS
  over 2^14-entry tables; `decomp` and process start-up are absent.
* planes -- `classify_decomposition` on every plane of criterion 7's four
  functions (n = 4, 6, 6, 8), then `scan_decompositions` and `save_scan` on
  criterion 10's spread functions (n = 8, 10).  The same FWHT as msubspace,
  but as many tiny calls; the `derivative` search is absent.
* cli -- fresh `python -m bentfn.cli` processes: process start-up, file
  writes and reads, the builders over `gf2`, and the criteria that no other
  workload reaches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import bentfn
import bentfn.cli

TRICHOTOMY = {"AllBent": "ConstantOne", "AllSemibent": "ConstantZero",
              "Mixed": "NonConstant"}


class Checks:
    """Output checks of one run.  `expect` compares with values pinned
    from this repository's outputs at seed 0."""

    def __init__(self, pinned: dict, seed: int):
        self.pinned = pinned
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []   # the first few, for the report
        self.observed: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def expect(self, key: str, value, seed0_only: bool = False) -> None:
        self.observed[key] = value
        if seed0_only and self.seed:
            return
        want = self.pinned.get(key)
        self.check(want == value, f"{key}: got {value!r}, pinned {want!r}")


class Run:
    """State of one pass: timing of items, checks and the optional tracer."""

    def __init__(self, seed: int, checks: Checks, tmp: Path, tracer=None,
                 runner=None):
        self.seed = seed
        self.checks = checks
        self.tmp = tmp
        self.tracer = tracer
        self.runner = runner
        self.latencies: list[float] = []
        self.labels: dict[int, str] = {}
        self.verbs: dict[str, list[float]] = {}
        self.scan_planes = 0
        self.scan_s = 0.0
        self._item = 0

    def next_item(self, label: str | None = None) -> None:
        self._item += 1
        if label is not None:
            self.labels[self._item] = label
        if self.tracer is not None:
            self.tracer.item = self._item

    def untraced(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def affine_image(f, rng):
    """A seeded affine-equivalent copy of f."""
    n = f.n
    while True:
        L = [rng.randrange(1 << n) for _ in range(n)]
        if bentfn.gf2vec.rank(L) == n:
            break
    return bentfn.ea_transform(f, L, rng.randrange(1 << n),
                               rng.randrange(1 << n), rng.bits(1))


def _seeded(fns, seed):
    if not seed:
        return fns
    rng = bentfn.XorShift64Star(seed)
    return [(label, affine_image(f, rng)) for label, f in fns]


# -- msubspace ----------------------------------------------------------------

def msubspace_inputs(seed: int):
    fns = _seeded([
        ("cor-ex1", bentfn.build_cor_ex(bentfn.make_field(4), 4, 1, "inverse")),
        ("cor-ex2", bentfn.build_cor_ex(bentfn.make_field(5), 5, 2, "gold",
                                        gold_k=1)),
    ], seed)
    (_, f10), (_, f14) = fns
    return [
        ("linearity_index(cor-ex1)", lambda: bentfn.linearity_index(f10), 2),
        ("has_M_subspace(cor-ex1, 5)", lambda: bentfn.has_M_subspace(f10, 5), False),
        ("has_M_subspace(cor-ex2, 7)", lambda: bentfn.has_M_subspace(f14, 7), False),
    ]


def msubspace_pass(run: Run, inputs) -> None:
    # One item is the whole criterion-3 check.  Timing the n = 10 searches
    # as items of their own gave percentiles from a few seconds of a
    # 40-second pass, which swung with the machine's state.
    t = time.perf_counter()
    for label, call, want in inputs:
        run.next_item(label)
        got = call()
        run.checks.check(got == want, f"{label}: got {got!r}, expected {want!r}")
    run.latencies.append(time.perf_counter() - t)


# -- planes -------------------------------------------------------------------

def _planes(n: int):
    """Each plane once, by its ascending echelon basis u < v < u ^ v."""
    size = 1 << n
    return [(u, v) for u in range(1, size) for v in range(u + 1, size)
            if (u ^ v) > v]


def planes_inputs(seed: int):
    ctx3, ctx4 = bentfn.make_field(3), bentfn.make_field(4)
    quad = [((i & 1) & (i >> 1)) ^ ((i >> 2) & (i >> 3) & 1) for i in range(16)]
    classify = _seeded([
        ("x1x2+x3x4", bentfn.BoolFn(quad)),
        ("two-block m=3", bentfn.mm(ctx3, bentfn.PermTable.inverse_map(ctx3))),
        ("psap m=3", bentfn.psap(ctx3, bentfn.SubfieldFn.trace_form(ctx3, 3))),
        ("gpsap (4,2,2)", bentfn.gpsap(ctx4, bentfn.validate_gps_params(4, 2, 2),
                                       bentfn.SubfieldFn.trace_form(ctx4, 2))),
    ], seed)
    spread = []
    for m, k, e in ((4, 2, 2), (5, 1, 3)):
        ctx = bentfn.make_field(m)
        spread.append((f"spread ({m},{k},{e})", bentfn.gpsap_trace_form(
            ctx, bentfn.validate_gps_params(m, k, e), bentfn.PermTable.identity(m))))
    return {"classify": [(label, f, _planes(f.n)) for label, f in classify],
            "scan": _seeded(spread, seed)}


def planes_pass(run: Run, inputs) -> None:
    clock = time.perf_counter
    checks = run.checks
    for label, f, planes in inputs["classify"]:
        counts: Counter = Counter()
        for u, v in planes:
            run.next_item()
            t = clock()
            rep = bentfn.classify_decomposition(f, u, v)
            run.latencies.append(clock() - t)
            ok = TRICHOTOMY[rep.classification] == rep.dual_second_derivative
            checks.check(ok, f"{label}: plane ({u},{v}) restriction and dual "
                             "labels disagree")
            counts[rep.classification] += 1
        checks.expect(f"planes.classify.{label}", dict(sorted(counts.items())))
    for i, (label, f) in enumerate(inputs["scan"]):
        run.next_item(label)
        path = run.tmp / f"scan{i}.csv"
        t = clock()
        records = bentfn.scan_decompositions(f)
        bentfn.save_scan(records, str(path))
        run.scan_s += clock() - t
        run.scan_planes += len(records)
        counts = Counter(r.classification for r in records)
        checks.expect(f"planes.scan.{label}",
                      [len(records), dict(sorted(counts.items()))])
        checks.expect(f"planes.scan.{label}.sha256", digest(path), seed0_only=True)


# -- cli ----------------------------------------------------------------------

# Every family at m in {4, 6, 8} where its parameters allow and n <= 16,
# otherwise at its smallest valid m.
CONSTRUCTS = (
    ("mm", 4), ("mm", 6), ("mm", 8),
    ("gmm", 4), ("gmm", 6),
    ("psap", 4), ("psap", 6), ("psap", 8),
    ("gpsap", 4), ("gpsap", 6), ("gpsap", 8),
    ("gpsap-trace", 4), ("gpsap-trace", 6), ("gpsap-trace", 8),
    ("cor-ex1", 4), ("cor-ex1", 6),
    ("cor-ex2", 5),
    ("psffff", 3),
    ("partition", 6),
)
EXTRA_ARGS = {"partition": ["--k", "3"]}


def cli_inputs(seed: int):
    return CONSTRUCTS


def subprocess_runner(env: dict, cwd: Path):
    def run(argv):
        try:
            proc = subprocess.run([sys.executable, "-m", "bentfn.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  cwd=cwd, timeout=150)
        except subprocess.TimeoutExpired:
            return -1, ""
        return proc.returncode, proc.stdout
    return run


def inprocess_runner(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = bentfn.cli.main(argv)
    return rc, out.getvalue()


def _command(run: Run, argv: list[str]):
    """Run one CLI command as one item; its parsed JSON report, or None."""
    run.next_item(" ".join(argv))
    t = time.perf_counter()
    rc, out = run.runner([*argv, "--threads", "1", "--json"])
    dt = time.perf_counter() - t
    run.latencies.append(dt)
    run.verbs.setdefault(argv[0], []).append(dt)
    try:
        report = json.loads(out) if rc == 0 else None
    except json.JSONDecodeError:
        report = None
    run.checks.check(report is not None, f"{' '.join(argv)}: exit code {rc}")
    return report


def cli_pass(run: Run, inputs) -> None:
    checks = run.checks
    rng = bentfn.XorShift64Star(run.seed)
    files = []
    for fam, m in inputs:
        name = f"{fam}_m{m}"
        path = run.tmp / f"{name}.tt"
        rep = _command(run, ["construct", "--family", fam, "--m", str(m),
                             *EXTRA_ARGS.get(fam, []), "--out", str(path)])
        if rep is None:
            continue
        checks.expect(f"cli.construct.{name}", [rep["n"], rep["bent"], rep["degree"]])
        checks.expect(f"cli.construct.{name}.sha256", digest(path), seed0_only=True)
        if run.seed:
            with run.untraced():
                f = bentfn.load_table(str(path))
                bentfn.save_table(affine_image(f, rng), str(path))
        files.append((name, path, rep["n"]))
    for name, path, n in files:
        rep = _command(run, ["analyze", str(path)])
        if rep is not None:
            checks.expect(f"cli.analyze.{name}", {k: rep[k] for k in (
                "n", "degree", "bent", "plateaued", "spectrum")})
            checks.expect(f"cli.analyze.{name}.dual.sha256",
                          digest(path.with_suffix(".dual.tt")), seed0_only=True)
    name, path, _ = files[0]
    rep = _command(run, ["decompose", str(path), "--u", "1", "--v", "2"])
    if rep is not None:
        checks.check(TRICHOTOMY[rep["classification"]] == rep["dual_second_derivative"],
                     f"decompose {name}: restriction and dual labels disagree")
        checks.expect(f"cli.decompose.{name}", rep["classification"], seed0_only=True)
    for name, path, n in files:
        if n <= 10:   # at n = 12 one command takes about 20 s
            rep = _command(run, ["msubspace", str(path), "--max-dim", "2"])
            if rep is not None:
                checks.expect(f"cli.msubspace.{name}", [rep["index"], rep.get("count")])
    for name, path, n in files:
        if n == 8:
            out = run.tmp / f"{name}.scan.csv"
            rep = _command(run, ["decompose", str(path), "--scan", "--out", str(out)])
            if rep is not None:
                checks.expect(f"cli.scan.{name}", [rep["planes"], rep["classes"]])
                checks.expect(f"cli.scan.{name}.sha256", digest(out), seed0_only=True)
    rep = _command(run, ["verify", "--level", "fast", "--seed", str(run.seed)])
    if rep is not None:
        passed = sum(c["pass"] for c in rep["criteria"])
        checks.check(rep["pass"] and passed == len(rep["criteria"]) == 12,
                     f"verify: {passed}/{len(rep['criteria'])} criteria pass")


WORKLOADS = {
    "msubspace": (msubspace_inputs, msubspace_pass),
    "planes": (planes_inputs, planes_pass),
    "cli": (cli_inputs, cli_pass),
}
