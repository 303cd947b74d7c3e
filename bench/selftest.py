"""Self-test of the benchmark.

Runs every workload once at seed 0, untraced and traced, and checks that
each run passes its output checks, emits exactly the metrics that
BENCHMARK.json names with their units, and reproduces the pinned
machine-independent counters.  It also checks that the benchmark refuses
to run, without printing a result, where the bentfn sources are missing.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CANARY = {
    "msubspace": ("canary.msubspace.cor-ex2", [16383, 47103, 31743]),
    "planes": ("canary.planes.classify", [12132, 108884]),
    "cli": ("canary.cli.corpus_builds", 3),
}


def run(cwd: Path, workload: str, trace: int):
    spec = json.loads((cwd / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", workload, "--seed", "0",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=400)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        workload = wl["name"]
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = f"{workload} trace={trace}"
            before = len(problems)
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}\n{proc.stdout[-2000:]}"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: checks failed")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{[k for k in want if k in got and got[k] != want[k]]}")
            if trace == 1:
                saved = json.loads(
                    (ROOT / ".bench_out" / f"{workload}-seed0-trace1.json").read_text())
                key, value = CANARY[workload]
                if saved["observed"].get(key) != value:
                    problems.append(f"{tag}: {key} = {saved['observed'].get(key)}, "
                                    f"expected {value}")
            print(f"{tag}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the sources the benchmark must fail and print nothing")

    for p in problems:
        print("PROBLEM:", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
