"""Byte-identity oracles: golden CSV hashes per method, the world RNG state
after one episode, and the exact `ntnsim dump-config` output.

A refactor that claims unchanged behaviour must leave every value here as it
is. The CSV hashes cover every training milestone of the two-timescale
trainer on a tiny config: warmup, drift-only held episodes, velocity-actor
unlock, window close and a spent update budget. Their cells log delivered
bits, which are integers, so a change to a learner's rounding can leave every
CSV byte as it was; the checkpoint digests read the trained nets themselves.
They hold for numpy on x86-64; another BLAS or CPU may round the learners
differently.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ntnsim import cli, madrl
from ntnsim.harness import parse_config, run_single
from ntnsim.madrl import Trainer

DATA = Path(__file__).parent / "data"

GOLDEN_CONFIG = """
[run]
method = {method}
seeds = 3
out_dir = {out}

[scenario]
n_ues = 6

[train]
episodes = 6
slots_per_episode = 20
batch_size = 8
warmup_transitions = 40
eval_every_episodes = 2
eval_episodes = 2
traj_actor_delay = 5
traj_actor_window = 10
update_rounds_budget = 20
"""

GOLDEN_SHA256 = {
    "rr": (
        "f924fc328f9095b5a293d1c295c02052a9b980e50be90a28cdb43d116b7478e8",
        "b620c6e8cc8c304dfc1762b347bd546cc765036ddc9d6bb81b9719b50ba1a870",
    ),
    "maddpg": (
        "b38849dcdc6e46ab803b18231d50881fe533634985c12eef241f9389743b7472",
        "8ebe53887b0b6489a4bf334ffd843f38aff6bd15f0458d58d967b541a454abe7",
    ),
    "tts-maddpg": (
        "95ddd6941b0101a82fed32e9bc2ad056f4b7e23e78ff135bc5986441e0c1a5a2",
        "d0cd058ed6d539c87bf2e14428ed6437be01a693ab5ad0e0fc727a403ae6fbee",
    ),
}

# sha256 over the sorted names and bytes of checkpoints/*.bin after the
# golden run: the bytes of every net and target copy the run trained.
GOLDEN_CHECKPOINT_SHA256 = {
    "maddpg": "07b9425ea47a25808251b5a5aff9c09ed9e16ba176decd073a1b0a7b4b3ebd7c",
    "tts-maddpg": "0a164d974031dd46b2abf9ca27a638ed88bc0df48fde396f7cb39077dc69a989",
}

# sha256 of the world RNG's `bit_generator.state` (JSON, sorted keys) after
# the first 20-slot training rollout of GOLDEN_CONFIG at seed 3. The tts
# episode moves the nodes; at this size both episodes happen to draw the
# same number of uniforms. A draw added or lost anywhere in an episode moves
# these even where no CSV byte moves.
GOLDEN_RNG_STATE_SHA256 = {
    "rr": "336e804d574dbd632135e644a88044af08bc2c7d1006cb62b4c8e749758a43ac",
    "tts-maddpg": "336e804d574dbd632135e644a88044af08bc2c7d1006cb62b4c8e749758a43ac",
}

# One key per fleet group (donor, nodes, all platforms), the renamed
# `lambda`, a mixed-separator seed list and `k_obs`.
OVERRIDE_CONFIG = """
[run]
seeds = 4, 7 9

[scenario]
donor_altitude_m = 250
node_bandwidth_hz = 1.5e7
noise_figure_db = 6.5

[traffic]
lambda = 3

[train]
k_obs = 5
"""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_sha256(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((out / "checkpoints").glob("*.bin")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("method", sorted(GOLDEN_SHA256))
def test_golden_csv_hashes(tmp_path, method):
    cfg = parse_config(GOLDEN_CONFIG.format(method=method, out=tmp_path))
    out = run_single(cfg, 3, quiet=True)
    assert (sha256(out / "train.csv"), sha256(out / "eval.csv")) == GOLDEN_SHA256[method]
    if method in GOLDEN_CHECKPOINT_SHA256:
        assert checkpoint_sha256(out) == GOLDEN_CHECKPOINT_SHA256[method]


@pytest.mark.parametrize("method", sorted(GOLDEN_RNG_STATE_SHA256))
def test_golden_episode_rng_state(tmp_path, monkeypatch, method):
    cfg = parse_config(GOLDEN_CONFIG.format(method=method, out=tmp_path))
    trainer = Trainer(cfg.env_spec(), cfg.train_config(3))
    real_init_world = madrl.init_world
    worlds = []

    def init_world(*args):
        worlds.append(real_init_world(*args))
        return worlds[-1]

    monkeypatch.setattr(madrl, "init_world", init_world)
    trainer.rollout(0)
    assert len(worlds) == 1 and worlds[0].slot == 20
    state = json.dumps(worlds[0].rng[0].bit_generator.state, sort_keys=True)
    assert hashlib.sha256(state.encode()).hexdigest() == GOLDEN_RNG_STATE_SHA256[method]


def test_dump_config_default_bytes(capsys):
    assert cli.main(["dump-config"]) == 0
    assert capsys.readouterr().out == (DATA / "dump_default.ini").read_text()


def test_dump_config_override_bytes(tmp_path, capsys):
    conf = tmp_path / "override.ini"
    conf.write_text(OVERRIDE_CONFIG)
    assert cli.main(["dump-config", "--config", str(conf)]) == 0
    assert capsys.readouterr().out == (DATA / "dump_override.ini").read_text()
