"""End-to-end acceptance suite.

Each test prints one [criterion NN] PASS/FAIL line (visible with pytest -s;
the same text is the assertion message on failure). Criteria 1 and 2 train
every method on three seeds at the reduced budget (300 episodes x 100 slots)
and share those runs through a session fixture; completed runs are cached
under the system temp directory keyed by a digest of the package sources, so
re-running the suite against unchanged code reuses them. The cache keeps the
runs of the current digest and of the KEPT_OTHER_DIGESTS most recently
modified other digests, and deletes the rest.
"""

import csv
import hashlib
import os
import re
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import ntnsim
from ntnsim import harness, mac, madrl, nn, traffic
from ntnsim.harness import ExperimentConfig
from ntnsim.madrl import (
    ReplayBuffer,
    TrainConfig,
    Trainer,
    global_state_dim,
    run_episode,
)
from ntnsim.scenario import ScenarioConfig, init_world

METHODS = ("rr", "maddpg", "tts-maddpg")
SEEDS = (0, 1, 2)
# Other source digests whose runs the cache keeps: a suite of another tree
# that shares the cache and is running now finds its own runs.
KEPT_OTHER_DIGESTS = 3

CONFIG_TMPL = """
[run]
method = {method}
seeds = {seed}
out_dir = {out}

[train]
episodes = 300
slots_per_episode = 100
"""


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _source_digest() -> str:
    pkg = Path(ntnsim.__file__).parent
    h = hashlib.sha256()
    for p in sorted(pkg.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _prune_cache(cache: Path, current: str, others: int = KEPT_OTHER_DIGESTS) -> list[Path]:
    """Delete the digest directories under `cache` but `current` and the
    `others` most recently modified; entries that are not digest
    directories stay. Returns the deleted directories."""
    old = sorted(
        (d for d in cache.iterdir()
         if d.is_dir() and d.name != current and re.fullmatch(r"[0-9a-f]{16}", d.name)),
        key=lambda d: d.stat().st_mtime, reverse=True,
    )[others:]
    for d in old:
        shutil.rmtree(d, ignore_errors=True)
    return old


def _train(method: str, seed: int, root: Path) -> None:
    """Train one method x seed under root and mark it done with its wall time."""
    cfg = harness.parse_config(
        CONFIG_TMPL.format(method=method, seed=seed, out=root), source="acceptance"
    )
    t0 = time.time()
    harness.run_single(cfg, seed, quiet=True)
    (root / f"{method}_seed{seed}" / "done").write_text(f"{time.time() - t0:.1f}")


@pytest.fixture(scope="session")
def converged_runs():
    """Train (or reuse) every method x seed at the reduced budget; returns
    {(method, seed): (run_dir, wall_seconds)}."""
    root = Path(
        os.environ.get(
            "NTNSIM_ACCEPTANCE_CACHE",
            Path(tempfile.gettempdir()) / "ntnsim-acceptance",
        )
    ) / _source_digest()
    root.mkdir(parents=True, exist_ok=True)
    # Missing runs train concurrently, one per core with BLAS on one thread
    # each, the slowest method first. Every run is seeded on its own, so
    # where it runs changes no byte of its CSVs.
    todo = [
        (method, seed)
        for method in reversed(METHODS)
        for seed in SEEDS
        if not (root / f"{method}_seed{seed}" / "done").exists()
    ]
    if todo:
        with harness.seed_pool(len(todo)) as pool:
            for f in [pool.submit(_train, m, s, root) for m, s in todo]:
                f.result()
    runs = {}
    for method in METHODS:
        for seed in SEEDS:
            d = root / f"{method}_seed{seed}"
            runs[(method, seed)] = (d, float((d / "done").read_text()))
    _prune_cache(root.parent, root.name)
    return runs


def test_prune_cache_keeps_current_and_newest_others(tmp_path):
    digests = [f"{n:016x}" for n in range(6)]
    for age, name in enumerate(digests):
        (tmp_path / name / "rr_seed0").mkdir(parents=True)
        os.utime(tmp_path / name, (1e9 - age, 1e9 - age))  # digests[0] is the newest
    (tmp_path / "notes").mkdir()
    (tmp_path / "0123456789abcdef.txt").write_text("")
    current = digests[4]
    deleted = _prune_cache(tmp_path, current)
    assert sorted(d.name for d in deleted) == [digests[3], digests[5]]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        digests[:3] + [current, "notes", "0123456789abcdef.txt"])
    assert (tmp_path / current / "rr_seed0").is_dir()
    assert _prune_cache(tmp_path, current) == []


def _checkpoint_means(run_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation throughput per checkpoint: (episodes, mean Mbps)."""
    with open(run_dir / "eval.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    eps = sorted(set(int(r["episode"]) for r in rows))
    means = [
        np.mean([float(r["overall_mbps"]) for r in rows if int(r["episode"]) == e])
        for e in eps
    ]
    return np.array(eps), np.array(means)


def test_criterion_01_method_ordering(converged_runs):
    mbps = {}
    for (method, seed), (d, wall) in converged_runs.items():
        mbps[(method, seed)] = harness.summarize_eval(d).mean_mbps
        assert wall <= 1800.0, f"{method} seed {seed} took {wall:.0f}s (> 30 min)"
    ordered = all(
        mbps[("tts-maddpg", s)] > mbps[("maddpg", s)] > mbps[("rr", s)] for s in SEEDS
    )
    gain_rr = np.mean(
        [mbps[("tts-maddpg", s)] / mbps[("rr", s)] - 1.0 for s in SEEDS]
    )
    gain_md = np.mean(
        [mbps[("tts-maddpg", s)] / mbps[("maddpg", s)] - 1.0 for s in SEEDS]
    )
    per_seed = "  ".join(
        f"s{s}: {mbps[('tts-maddpg', s)]:.1f}/{mbps[('maddpg', s)]:.1f}/{mbps[('rr', s)]:.1f} "
        f"(tts {mbps[('tts-maddpg', s)] / mbps[('maddpg', s)] - 1.0:+.1%} over maddpg, "
        f"{mbps[('tts-maddpg', s)] / mbps[('rr', s)] - 1.0:+.1%} over rr)"
        for s in SEEDS
    )
    _report(
        1,
        ordered and gain_rr >= 0.50 and gain_md >= 0.05,
        f"tts/maddpg/rr Mbps {per_seed}; mean gain over rr "
        f"{gain_rr * 100:+.1f}% (need >= +50%), over maddpg {gain_md * 100:+.1f}% "
        f"(need >= +5%); ordering {'holds' if ordered else 'violated'}",
    )


def test_criterion_02_training_stability(converged_runs):
    # CoV is taken over the per-checkpoint mean evaluation throughput in the
    # last 10% of episodes: each checkpoint replays the same fixed eval
    # worlds, so spread across worlds reflects layout diversity, while spread
    # across checkpoints is what training instability actually looks like.
    covs = []
    for seed in SEEDS:
        d, _ = converged_runs[("tts-maddpg", seed)]
        eps, means = _checkpoint_means(d)
        tail = means[eps > eps.max() * 0.9]
        covs.append(float(np.std(tail) / np.mean(tail)))
    _report(
        2,
        all(c <= 0.10 for c in covs),
        "tts-maddpg tail CoV per seed "
        + ", ".join(f"s{s}: {c:.4f}" for s, c in zip(SEEDS, covs))
        + " (need <= 0.10)",
    )


def test_criterion_03_two_timescale_accounting():
    cfg = ExperimentConfig()
    env = cfg.env_spec()
    tr = Trainer(env, TrainConfig(method="tts-maddpg", episodes=1, slots_per_episode=1, seed=0))
    dim = global_state_dim(len(env.scenario.platforms), env.scenario.n_ues)
    ok, details = True, []
    for slots in (100, 200):
        sbuf = ReplayBuffer(10_000, dim, 5, 2 + 4 * env.k_obs, env.k_obs)
        tbuf = ReplayBuffer(10_000, dim, 4, 4 + 4 * env.k_obs, 2)
        res = run_episode(
            env,
            "tts-maddpg",
            tr.sched.actor,
            tr.traj.actor,
            world_seed=slots,
            slots=slots,
            mode="train",
            noise_std=0.2,
            traj_drift_std=0.4,
            noise_rng=np.random.default_rng(1),
            sched_buffer=sbuf,
            traj_buffer=tbuf,
        )
        macro = sum(res.macro_rewards)
        slot = sum(res.slot_rewards)
        ok = (
            ok
            and res.n_sched_transitions == slots
            and res.n_traj_transitions == slots // 5
            and abs(macro - slot) <= 1e-9 * abs(slot)
        )
        details.append(
            f"{slots} slots -> {res.n_sched_transitions}/{res.n_traj_transitions} "
            f"transitions, |sum(macro)-sum(slot)|={abs(macro - slot):.2e}"
        )
    _report(3, ok, "; ".join(details))


def test_criterion_04_queue_conservation():
    cfg = ExperimentConfig()
    env = cfg.env_spec()
    world = init_world(env.scenario, [2024])
    checks = 0
    for t in range(1000):
        assoc = mac.associate(world, env.channel)
        choices = [mac.rr_schedule(assoc.rows[0], t, len(env.scenario.platforms))]
        world, _ = mac.step_slot(world, choices, env.traffic, env.channel, assoc)
        q = world.queue
        assert np.array_equal(q.arrived_bits, q.delivered_bits + q.dropped_bits + q.queued_bits())
        checks += q.arrived_bits.size
    _report(4, True, f"arrived == delivered + dropped + residual on {checks} UE-slot checks")


def test_criterion_05_deadline_property(monkeypatch):
    cfg = ExperimentConfig()
    env = cfg.env_spec()
    ages = []
    now = {"slot": 0}
    real_serve = traffic.serve_bits

    def spy(queue, ue, capacity_bits):
        # every served UE's waiting cohorts, oldest first (ue: index arrays)
        n = queue.n_cohorts
        served = list(zip(*(np.atleast_1d(i).tolist() for i in ue)))
        before = [[(arrival, remaining) for arrival, remaining in
                   zip(queue.arrival_slots[:n].tolist(), queue.cells[w, u, :n].tolist())
                   if remaining > 0] for w, u in served]
        delivered = real_serve(queue, ue, capacity_bits)
        for cohorts, drained in zip(before, np.atleast_1d(delivered).tolist()):
            for arrival, remaining in cohorts:
                if drained <= 0:
                    break
                ages.append(now["slot"] - arrival)
                drained -= min(remaining, drained)
        return delivered

    monkeypatch.setattr(traffic, "serve_bits", spy)
    world = init_world(env.scenario, [7])
    for t in range(1000):
        now["slot"] = world.slot
        assoc = mac.associate(world, env.channel)
        choices = [mac.rr_schedule(assoc.rows[0], t, len(env.scenario.platforms))]
        world, _ = mac.step_slot(world, choices, env.traffic, env.channel, assoc)
    deadline = env.traffic.deadline_slots
    _report(
        5,
        len(ages) > 0 and max(ages) < deadline,
        f"{len(ages)} served cohorts, max age {max(ages)} slots (deadline {deadline})",
    )


def test_criterion_06_poisson_oracle():
    # one slot's counts of a world of n UEs, drawn the way the simulator draws them
    lam, n = 4.0, 1_000_000
    world = init_world(ScenarioConfig(n_ues=n), [0])
    world.rng = [np.random.default_rng(123)]
    traffic.generate_arrivals(world, lam, packet_bits=1)
    draws = world.queue.cells[0, :, 0]
    mean = float(draws.mean())
    # chi-square GOF against the exact pmf, far tail lumped into one bin
    kmax = 15
    observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1).astype(float)
    expected = np.array(
        [stats.poisson.pmf(k, lam) * n for k in range(kmax)]
        + [stats.poisson.sf(kmax - 1, lam) * n]
    )
    chi2, p = stats.chisquare(observed, expected)
    _report(
        6,
        3.99 <= mean <= 4.01 and p > 0.01,
        f"mean {mean:.5f} (need [3.99, 4.01]), chi-square p {p:.4f} (need > 0.01)",
    )


def _numeric_grads(p, x, upstream, h=1e-5):
    def loss():
        return float(np.sum(nn.mlp_forward(p, x) * upstream))

    grads_w = [np.zeros_like(w) for w in p.weights]
    grads_b = [np.zeros_like(b) for b in p.biases]
    for l, w in enumerate(p.weights):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss()
            w[idx] = orig - h
            dn = loss()
            w[idx] = orig
            grads_w[l][idx] = (up - dn) / (2 * h)
    for l, b in enumerate(p.biases):
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + h
            up = loss()
            b[idx] = orig - h
            dn = loss()
            b[idx] = orig
            grads_b[l][idx] = (up - dn) / (2 * h)
    gx = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + h
        up = loss()
        x[idx] = orig - h
        dn = loss()
        x[idx] = orig
        gx[idx] = (up - dn) / (2 * h)
    return grads_w, grads_b, gx


def test_criterion_07_gradient_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for case in range(50):
        depth = int(rng.integers(1, 3))
        sizes = tuple(int(rng.integers(2, 7)) for _ in range(depth + 2))
        out_act = "tanh" if case % 2 else "linear"
        p = nn.init_mlp(sizes, out_act, rng)
        x = rng.normal(size=sizes[0])[None]  # one sample is a batch of one
        upstream = rng.normal(size=sizes[-1])[None]
        grad, gx = nn.mlp_backward(p, x, upstream)
        gw, gb = nn.layer_views(p.layer_sizes, grad)
        nw, nb, nx = _numeric_grads(p, x, upstream)
        for a, m in zip(gw + gb + [gx], nw + nb + [nx]):
            rel = np.abs(a - m) / np.maximum(np.abs(m), 1e-6)
            worst = max(worst, float(rel.max()))
    _report(7, worst < 1e-4, f"worst relative gradient error {worst:.2e} over 50 cases (need < 1e-4)")


def test_criterion_08_actor_sanity_oracle():
    rng = np.random.default_rng(5)
    actor = nn.init_mlp((3, 16, 1), "tanh", rng)
    adam = nn.init_adam(actor)
    obs = rng.normal(size=(8, 3))
    steps = 0
    for steps in range(1, 2001):
        a = nn.mlp_forward(actor, obs)
        # maximize Q = -(a - 0.5)^2  =>  descend dL/da = 2 (a - 0.5)
        upstream = 2.0 * (a - 0.5) / a.shape[0]
        grad, _ = nn.mlp_backward(actor, obs, upstream)
        nn.adam_step(actor, grad, adam, 1e-3)
        if np.all(np.abs(nn.mlp_forward(actor, obs) - 0.5) <= 0.05):
            break
    final = nn.mlp_forward(actor, obs)
    err = float(np.abs(final - 0.5).max())
    _report(
        8,
        err <= 0.05 and steps <= 2000,
        f"actor output within {err:.3f} of 0.5 after {steps} updates (need <= 0.05 in <= 2000)",
    )


def test_criterion_09_ctde_separation(monkeypatch):
    cfg = ExperimentConfig()
    env = cfg.env_spec()
    tc = TrainConfig(
        method="tts-maddpg", episodes=3, slots_per_episode=40, seed=4,
        warmup_transitions=60, batch_size=16,
    )
    tr = Trainer(env, tc)
    for ep in range(tc.episodes):
        tr.train_episode(ep)
    sched, traj = tr.sched.actor, tr.traj.actor
    state_dim = global_state_dim(5, env.scenario.n_ues)

    def rollout(mode):
        sbuf = ReplayBuffer(100, state_dim, 5, 2 + 4 * env.k_obs, env.k_obs)
        tbuf = ReplayBuffer(100, state_dim, 4, 4 + 4 * env.k_obs, 2)
        res = run_episode(
            env, "tts-maddpg", sched, traj, 33, slots=60, mode=mode, noise_std=0.1,
            traj_drift_std=0.5, noise_rng=np.random.default_rng(9),
            sched_buffer=sbuf, traj_buffer=tbuf, record_actions=True,
        )
        return res, sbuf

    a, abuf = rollout("train")
    calls = []
    monkeypatch.setattr(
        madrl, "global_state", lambda world, norm: calls.append(0) or np.zeros(state_dim)
    )
    b, bbuf = rollout("train")
    train_calls = len(calls)
    rollout("eval")
    eval_calls = len(calls) - train_calls
    same = (
        len(a.sched_action_log) == 60 and len(a.traj_action_log) == 12
        and all(np.array_equal(x, y) for x, y in zip(a.sched_action_log, b.sched_action_log))
        and all(np.array_equal(x, y) for x, y in zip(a.traj_action_log, b.traj_action_log))
        and a.delivered_bits == b.delivered_bits
    )
    # one state per slot, and no snapshot after the last slot: the zeros
    # reached the critics' replay rows, and the real state is not zero
    zeroed = (train_calls == 60 and not bbuf.state[:60].any() and abuf.state[:60].any())
    _report(
        9,
        same and zeroed and eval_calls == 0,
        f"zeroed global state leaves all {len(a.sched_action_log)} slot actions and "
        f"{len(a.traj_action_log)} velocity commands of a train rollout identical; "
        f"an eval rollout builds no global state ({eval_calls} calls)",
    )


def test_criterion_10_determinism(tmp_path):
    tmpl = """
[run]
method = {method}
seeds = 6
out_dir = {out}

[train]
episodes = 10
slots_per_episode = 40
warmup_transitions = 200
batch_size = 32
eval_every_episodes = 5
eval_episodes = 3
"""
    identical = True
    for method in METHODS:
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / rep
            cfg = harness.parse_config(
                tmpl.format(method=method, out=out), source="determinism"
            )
            outs.append(harness.run_single(cfg, 6, quiet=True))
        for name in ("train.csv", "eval.csv"):
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                identical = False
    _report(10, identical, "train.csv and eval.csv byte-identical across reruns for every method")
