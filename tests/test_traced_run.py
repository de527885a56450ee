"""The benchmark against the package: `perfbench/layers.py` wraps attributes
of every layer by name, and `perfbench/worker.py` reads the config, the fleet
rows and the Trainer's phase methods, so a rename in the package breaks the
benchmark. On a tiny config per method, installing the layer spans must
succeed, every wrapped attribute must be restored, the per-layer analysis
must run, and tracing must not change a CSV byte. The untraced worker must
run every workload without a failed row."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ntnsim import channel, harness, mac, madrl, nn, scenario, traffic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CONFIG = """
[run]
method = {method}
seeds = 3
out_dir = {out}

[scenario]
n_ues = 6

[train]
episodes = 4
slots_per_episode = 20
batch_size = 8
warmup_transitions = 40
eval_every_episodes = 2
eval_episodes = 2
traj_actor_delay = 5
traj_actor_window = 10
update_rounds_budget = 20
"""


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spantrace

    return layers, spantrace


def run(method: str, out: Path) -> list[bytes]:
    cfg = harness.parse_config(CONFIG.format(method=method, out=out))
    run_dir = harness.run_single(cfg, 3, quiet=True)
    return [(run_dir / name).read_bytes() for name in ("train.csv", "eval.csv")]


@pytest.mark.parametrize("method", madrl.METHODS)
def test_traced_run_writes_untraced_bytes(method, tmp_path, perfbench):
    layers, spantrace = perfbench
    untraced = run(method, tmp_path / "untraced")
    tracer = spantrace.Tracer()
    # the phase spans the benchmark worker records in every run
    for attr in ("rollout", "update_round", "evaluate"):
        tracer.trace_method(madrl.Trainer, attr, f"madrl.{attr}")
    try:
        probes = layers.install(tracer, {
            "harness": harness, "madrl": madrl, "mac": mac, "traffic": traffic,
            "scenario": scenario, "channel": channel, "nn": nn,
        })
        traced = run(method, tmp_path / "traced")
    finally:
        not_restored = tracer.patches.restore()
    assert not_restored == []
    assert traced == untraced
    metrics, _ = layers.analyse(tracer.spans(), tracer.counts, probes)
    # perfbench tells the agent groups apart by the ids of the nets passed to
    # update_critic and update_actor, which must be the trainer's agent views
    calls = {name: metrics[f"madrl.{name}.calls"] for name in (
        "update_critic.sched", "update_critic.traj", "update_actor.traj")}
    if method == "tts-maddpg":
        assert min(calls.values()) > 0, calls
    elif method == "maddpg":
        assert calls["update_critic.sched"] > 0, calls
        assert calls["update_critic.traj"] == calls["update_actor.traj"] == 0, calls


def _workloads() -> list[str]:
    # loaded by path at collection, leaving sys.path alone
    spec = importlib.util.spec_from_file_location("perfbench_metrics", PERFBENCH / "metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.WORKLOADS)


@pytest.mark.parametrize("workload", _workloads())
def test_untraced_worker_runs_every_workload(workload, tmp_path):
    # in a subprocess: importing worker.py sets the BLAS thread variables of
    # the importing process
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload, "--seed", "0",
         "--trace", "0", "--out", str(tmp_path / "runs")],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert (result["failed"], result["error"], result["not_restored"]) == (0, None, []), \
        proc.stderr[-2000:]
