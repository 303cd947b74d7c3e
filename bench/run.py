"""Benchmark for bentfn: time to a verified answer, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload {msubspace,planes,cli} --seed N \
        --seconds S --trace {0,1}

--trace 0 repeats whole passes of the workload until S seconds have passed
(at least one pass) and reports the end-to-end metrics.  --trace 1 makes one
untraced pass and one traced pass and reports the per-layer metrics; their
difference in wall time is the tracing overhead.  Every run checks its
outputs, prints a report, writes `.bench_out/<workload>-seed<N>-trace<T>.json`
(and the spans of the latest traced run to `.bench_out/<workload>-spans.csv`),
and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only when
every check passed.

Everything runs in one process with threads=1, apart from the CLI commands
and the set-up probes, which are child processes run one at a time.  Times
come from time.perf_counter, taken outside the library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
VERBS = ("construct", "analyze", "decompose", "msubspace", "verify")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "item_p90_ms": "ms"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes_computed", "cache_bytes")):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_plane"):
        return "calls/plane"
    return "count"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), BENT_THREADS="1")
    env.pop("PYTHONSTARTUP", None)
    return env


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_rev": git_revision(), "seed": seed,
            "platform": platform.platform()}


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: import, then build the inputs."""
    t0 = time.perf_counter()
    import bentfn.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload][0](seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
    return 0


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up and import time over fresh processes."""
    setup, imports = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        setup.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setup), statistics.median(imports)


def timed(do_pass, run, inputs) -> float:
    t = time.perf_counter()
    do_pass(run, inputs)
    return time.perf_counter() - t


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["msubspace", "planes", "cli"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "bentfn" / "__init__.py").is_file():
        print(f"error: bentfn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import tracer as tracing
    import workloads

    pinned = json.loads((HERE / "pinned.json").read_text())
    checks = workloads.Checks(pinned, args.seed)
    make_inputs, do_pass = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args.seed)
    report: dict = {"workload": args.workload, "trace": args.trace,
                    "environment": env}

    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        tmp = Path(tmpdir)
        if args.trace == 0:
            if args.workload == "cli":
                runner = workloads.subprocess_runner(child_env(), tmp)
            else:
                runner = None
            walls, latencies = [], []
            scan_planes, scan_s = 0, 0.0
            start = time.perf_counter()
            while not walls or time.perf_counter() - start < args.seconds:
                pass_dir = tmp / f"pass{len(walls)}"
                pass_dir.mkdir()
                run = workloads.Run(args.seed, checks, pass_dir, runner=runner)
                walls.append(timed(do_pass, run, inputs))
                latencies += run.latencies
                scan_planes += run.scan_planes
                scan_s += run.scan_s
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            metrics = {
                "setup_s": 0.0,   # measured below, once no pass runs
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
                "item_p90_ms": 1000 * percentile(latencies, 0.90),
            }
            units = END_TO_END_UNITS
            # Reported, but not result-line metrics: the median swung by up
            # to 40 % from run to run with the machine's state, and the
            # others exist for one workload only.
            p50_ms = 1000 * percentile(latencies, 0.50)
            named = {"item_p50_ms": [p50_ms, "ms"]}
            if args.workload == "cli":
                named.update(cmd_p50_ms=[p50_ms, "ms"],
                             cmd_p90_ms=[metrics["item_p90_ms"], "ms"])
            elif args.workload == "planes":
                named.update(plane_p50_us=[1000 * p50_ms, "us"],
                             plane_p90_us=[1000 * metrics["item_p90_ms"], "us"],
                             scan_planes_per_s=[scan_planes / scan_s, "1/s"])
            report.update(passes=len(walls), pass_walls_s=walls,
                          items=len(latencies), named=named)
        else:
            runner = workloads.inprocess_runner
            plain_dir, traced_dir = tmp / "untraced", tmp / "traced"
            plain_dir.mkdir()
            traced_dir.mkdir()
            plain = workloads.Run(args.seed, checks, plain_dir, runner=runner)
            wall_plain = timed(do_pass, plain, inputs)
            tr = tracing.Tracer()
            traced = workloads.Run(args.seed, checks, traced_dir, tracer=tr,
                                   runner=runner)
            with tracing.installed(tr):
                wall_traced = timed(do_pass, traced, inputs)
            metrics = tracing.layer_metrics(tr)
            metrics["cli.import_s"] = 0.0   # measured below
            for verb in VERBS:
                times = plain.verbs.get(verb)
                metrics[f"cli.{verb}.p50_ms"] = (
                    1000 * statistics.median(times) if times else 0.0)
            metrics["trace.overhead_s"] = wall_traced - wall_plain
            units = {name: unit_of(name) for name in metrics}
            per_item = tr.calls_per_item()
            counters = {f"{item} {label}": {name: c for (i, name), c in per_item.items()
                                            if i == item}
                        for item, label in traced.labels.items()}
            canary(args.workload, checks, tr, traced.labels, per_item)
            tr.write_csv(OUT / f"{args.workload}-spans.csv")   # latest traced run only
            report.update(wall_untraced_s=wall_plain, wall_traced_s=wall_traced,
                          item_counters=counters)

    # Set-up is probed in fresh processes after the passes, so that for the
    # cli workload the children's peak RSS above covers the commands only.
    setup_s, import_s = measure_setup(args.workload, args.seed)
    if args.trace == 0:
        metrics["setup_s"] = setup_s
    else:
        metrics["cli.import_s"] = import_s
    report.update(setup_s=setup_s, import_s=import_s,
                  attempted=checks.attempted, failed=checks.failed,
                  fail_ratio=checks.failed / max(1, checks.attempted),
                  failures=checks.failures, observed=checks.observed,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for key in ("passes", "items", "wall_untraced_s", "wall_traced_s"):
        if key in report:
            print(f"{key}: {report[key]}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for name, (value, unit) in report.get("named", {}).items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed "
          f"(fail_ratio {report['fail_ratio']:.6g})")
    for msg in checks.failures:
        print(f"FAILED: {msg}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": report["metrics"],
    }))
    return 0 if checks.failed == 0 else 1


def canary(workload, checks, tr, labels, per_item) -> None:
    """Machine-independent counters, pinned at seed 0."""
    if workload == "msubspace":
        item = next(i for i, label in labels.items() if "cor-ex2" in label)
        checks.expect("canary.msubspace.cor-ex2", [
            per_item[(item, "derivative.rows.compute")],
            per_item[(item, "derivative.rows.request")],
            per_item[(item, "derivative.dfs")]], seed0_only=True)
    elif workload == "planes":
        checks.expect("canary.planes.classify", [
            tr.summary()["decomp.classify"]["calls"],
            tr.calls_under("boolfn.fwht", "decomp.classify")], seed0_only=True)
    else:
        checks.expect("canary.cli.corpus_builds",
                      tr.summary()["verify.corpus"]["calls"])


if __name__ == "__main__":
    sys.exit(main())
