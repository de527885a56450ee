"""ntnsim benchmark.

    python3 perfbench/run.py --workload rr-sim|maddpg-train|tts-train|all \
        --seed N --seconds S --trace 0|1

Runs the workload's config (built from the seed; see metrics.py) again and
again for about S seconds, each run in a fresh worker process with BLAS
pinned to one thread. With --trace 0 it reports the medians of the
end-to-end metrics; with --trace 1 it alternates untraced and traced runs
and reports the per-layer metrics of the traced ones, the update-round time
of the untraced ones and the difference in run time between the two.

Every train and eval row of every run is one operation and is checked. The
result is correct only when no row failed, every run of the seed wrote the
same CSV bytes, traced or not, and every wrapped attribute was restored. The
last line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

MIN_UNTRACED_RUNS = 3  # a median, and two runs or more to compare digests
WALL_LIMIT_S = 170.0  # one workload must end within 180 s
RUNS_DIR = ROOT / ".perfbench_runs"


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def run_worker(workload: str, seed: int, trace: int, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    timeout = max(deadline - time.monotonic(), 1.0)
    # run() kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> list[tuple[int, dict]]:
    """(traced, result) of every run; traced runs alternate with untraced ones."""
    start = time.monotonic()
    deadline = start + WALL_LIMIT_S
    modes = (0, 1) if trace else (0,)
    runs: list[tuple[int, dict]] = []
    last = 0.0
    while True:
        untraced = sum(1 for t, _ in runs if not t)
        elapsed = time.monotonic() - start
        if untraced >= (1 if trace else MIN_UNTRACED_RUNS) and elapsed + last > seconds:
            break
        t0 = time.monotonic()
        for t in modes:
            out = RUNS_DIR / f"{workload}-{seed}-{len(runs)}"
            runs.append((t, run_worker(workload, seed, t, out, deadline)))
        last = time.monotonic() - t0
    return runs


def summarise(runs: list[tuple[int, dict]], trace: int) -> tuple[dict, list[str], dict]:
    """(result object, problems, tail labels)."""
    untraced = [r for t, r in runs if not t]
    traced = [r for t, r in runs if t]
    problems = []
    digests = sorted({r["digest"] for _, r in runs})
    if len(digests) > 1:
        problems.append(f"runs of one seed wrote different CSV bytes: {digests}")
    for _, r in runs:
        if r["not_restored"]:
            problems.append(f"attributes not restored after the run: {r['not_restored']}")
        if r["error"]:
            problems.append("a run raised: " + r["error"].strip().splitlines()[-1])
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)

    def median(rs, key, field="metrics"):
        return statistics.median(r[field][key] for r in rs)

    tails = {}
    if trace:
        values = {name: median(traced, name, "layers") for name in traced[0]["layers"]}
        values["update_s"] = median(untraced, "update_s")
        values["trace.overhead_s"] = median(traced, "run_s") - median(untraced, "run_s")
        table = [(name, unit) for name, unit, _, _ in metrics.per_layer()]
        tails = traced[-1]["tails"]
    else:
        values = {name: median(untraced, name) for name, _, _ in metrics.END_TO_END}
        table = [(name, unit) for name, unit, _ in metrics.END_TO_END]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    return result, problems, tails


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    load_start = loadavg()
    try:
        runs = measure(workload, seed, seconds, trace)
    finally:
        shutil.rmtree(RUNS_DIR, ignore_errors=True)
    result, problems, tails = summarise(runs, trace)
    env = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "runs": {"untraced": sum(1 for t, _ in runs if not t), "traced": sum(t for t, _ in runs)},
        "csv_sha256": [r["digest"] for _, r in runs],
        "commit": commit(ROOT),
        "src_lines": src_lines(ROOT),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        **runs[0][1]["env"],
    }
    print(json.dumps({"env": env}))
    print(f"{workload} seed {seed}: {result['attempted']} rows attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        tail = f"  ({tails[name]})" if name in tails else ""
        print(f"  {name:<42} {m['value']:>16.6f} {m['unit']}{tail}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ntnsim benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ntnsim" / "__init__.py").is_file():
        print(f"no ntnsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: bench(w, args.seed, args.seconds, args.trace) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
