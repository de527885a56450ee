"""One benchmark run of one workload, in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out DIR

BLAS is pinned to one thread before numpy is imported. The run parses the
workload's config, constructs a Trainer (together: setup_s), then calls
harness.run_single with spans around the three Trainer phases. With
--trace 1 every layer's public functions are wrapped as well (see
layers.py). The output rows are checked, hashed and deleted, and one JSON
object is printed as the last line of standard output.
"""

import os
import sys
import time

T_START = time.perf_counter()
THREAD_VARS = {
    v: "1"
    for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from decimal import Decimal, InvalidOperation  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
from spantrace import Tracer  # noqa: E402

# The per-UAV cells and the overall cell are each rounded to 9 decimals,
# so their sum may differ from the overall cell by 6 half-units.
SUM_TOLERANCE = Decimal("3e-9")


def conserves(result) -> bool:
    return result.arrived_bits >= result.delivered_bits + result.dropped_bits


def read_rows(path: Path) -> list[list[str]]:
    if not path.exists():
        return []
    with open(path, newline="") as f:
        return list(csv.reader(f))


def cells_ok(cells: list[str]) -> bool:
    """[overall, per-UAV..., drop_rate]: the per-UAV cells sum to the overall
    cell at the written precision and the drop rate lies in [0, 1]."""
    try:
        overall, *uavs, drop = (Decimal(c) for c in cells)
    except (InvalidOperation, ValueError):
        return False
    return abs(sum(uavs) - overall) <= SUM_TOLERANCE and 0 <= drop <= 1


def check_rows(out: Path, cfg, results_train, results_eval) -> tuple[int, int, float]:
    """(attempted, failed, eval_mbps). Every train and eval row the config
    asks for is one operation; it fails when it is missing, out of place,
    breaks a row invariant or comes from an EpisodeResult that does not
    conserve bits. A file with more rows than asked for fails every row."""
    tc = cfg.train
    uav_cols = [f"uav{p.id}_mbps" for p in cfg.scenario.platforms]
    n_uav = len(uav_cols)
    checkpoints = [ep for ep in range(tc.episodes) if (ep + 1) % tc.eval_every_episodes == 0]
    files = [
        ("train.csv", ["episode", "overall_mbps", *uav_cols, "drop_rate", "noise_std"],
         [[str(ep)] for ep in range(tc.episodes)], results_train),
        ("eval.csv", ["episode", "eval_index", "overall_mbps", *uav_cols, "drop_rate"],
         [[str(ep), str(j)] for ep in checkpoints for j in range(tc.eval_episodes)], results_eval),
    ]
    last_checkpoint = [str(checkpoints[-1])] if checkpoints else None
    attempted = failed = 0
    last_eval = []
    for name, header, keys, results in files:
        rows = read_rows(out / name)
        good = 0
        if rows[:1] == [header] and len(rows) - 1 <= len(keys):
            for k, row in enumerate(rows[1:]):
                key = keys[k]
                cells = row[len(key):len(key) + n_uav + 2]
                if row[:len(key)] == key and len(cells) == n_uav + 2 and cells_ok(cells) \
                        and k < len(results) and results[k]:
                    good += 1
                    if name == "eval.csv" and key[:1] == last_checkpoint:
                        last_eval.append(float(cells[0]))
        attempted += len(keys)
        failed += len(keys) - good
    eval_mbps = sum(last_eval) / len(last_eval) if last_eval else 0.0
    return attempted, failed, eval_mbps


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in ("train.csv", "eval.csv"):
        p = out / name
        h.update(p.read_bytes() if p.exists() else b"")
    return h.hexdigest()


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def os_threads() -> int | None:
    """Threads of this process, which shows whether BLAS started a pool."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import numpy as np
    import ntnsim
    from ntnsim import channel, harness, mac, madrl, nn, scenario, traffic

    if Path(ntnsim.__file__).resolve().parent != ROOT / "src" / "ntnsim":
        raise SystemExit(f"ntnsim imported from {ntnsim.__file__}, not from {ROOT / 'src'}")

    # The phase spans are recorded in every run: three per episode or round.
    tracer = Tracer()
    train_ok: list[bool] = []  # one per rollout, i.e. per train row
    eval_ok: list[bool] = []  # one per evaluated world, i.e. per eval row
    tracer.trace_method(madrl.Trainer, "rollout", "madrl.rollout",
                        observe=lambda a, k, out: train_ok.append(conserves(out[0])))
    tracer.trace_method(madrl.Trainer, "update_round", "madrl.update_round")
    tracer.trace_method(madrl.Trainer, "evaluate", "madrl.evaluate",
                        observe=lambda a, k, out: eval_ok.extend(conserves(r) for r in out))
    probes = None
    if args.trace:
        import layers

        probes = layers.install(tracer, {
            "harness": harness, "madrl": madrl, "mac": mac, "traffic": traffic,
            "scenario": scenario, "channel": channel, "nn": nn,
        })

    out_root = Path(args.out)
    cfg = harness.parse_config(metrics.config_text(args.workload, args.seed, str(out_root)),
                               source=f"<{args.workload}>")
    madrl.Trainer(cfg.env_spec(), cfg.train_config(args.seed))
    setup_s = time.perf_counter() - T_START

    error = None
    t0 = time.perf_counter()
    try:
        out = harness.run_single(cfg, args.seed, quiet=True)
    except Exception:  # the failure is reported as failed rows
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        out = out_root / f"{cfg.method}_seed{args.seed}"
    run_s = time.perf_counter() - t0
    not_restored = tracer.patches.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spans = tracer.spans()

    def total(name):
        return float(spans.duration[spans.of(name)].sum())

    attempted, failed, eval_mbps = check_rows(out, cfg, train_ok, eval_ok)
    result = {
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "digest": digest(out),
        "not_restored": not_restored,
        "metrics": {
            "setup_s": setup_s,
            "run_s": run_s,
            "rollout_s": total("madrl.rollout"),
            "update_s": total("madrl.update_round"),
            "eval_s": total("madrl.evaluate"),
            "peak_rss_mb": peak_rss_mb,
            "eval_mbps": eval_mbps,
        },
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(np),
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
            "os_threads": os_threads(),
        },
    }
    shutil.rmtree(out_root, ignore_errors=True)
    if probes is not None:
        result["layers"], result["tails"] = layers.analyse(spans, tracer.counts, probes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
