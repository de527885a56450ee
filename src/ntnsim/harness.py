"""Experiment orchestration: plain-text config, per-seed runs of the three
methods (rr / maddpg / tts-maddpg), CSV metrics, and result comparison.

Config format: `key = value` lines under `[section]` headers, or dotted
`section.key = value` lines. `#` and `;` start full-line comments. Every key
has a default; unknown keys, and keys set twice, are rejected with their line
numbers. The keys are the field names of the config dataclasses, found by
reflection, except the fleet keys of [scenario] and `lambda` in [traffic].
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .channel import ChannelConfig
from .madrl import K_OBS, METHODS, SLOTS_PER_UPDATE, EnvSpec, TrainConfig, Trainer
from .scenario import PlatformSpec, ScenarioConfig
from .traffic import TrafficConfig


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    method: str = "tts-maddpg"
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str = "results"
    k_obs: int = K_OBS
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def env_spec(self) -> EnvSpec:
        return EnvSpec(self.scenario, self.traffic, self.channel, self.k_obs)

    def train_config(self, seed: int) -> TrainConfig:
        return replace(self.train, method=self.method, seed=seed)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"run.method must be one of {METHODS}, got {self.method!r}")
        if not self.seeds:
            raise ConfigError("run.seeds must list at least one seed")
        # each seed writes its own run directory, and numpy refuses negative seeds
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"run.seeds must be distinct and non-negative, got {self.seeds}")
        if self.k_obs < 1:
            raise ConfigError("train.k_obs must be positive")
        try:
            for sub in (self.scenario, self.traffic, self.channel, self.train):
                sub.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        # Checked here rather than in TrainConfig.validate: a Trainer built
        # only to lend its actors to run_episode may use one-slot episodes and
        # tiny rings.
        train = self.train
        if self.method != "rr" and train.slots_per_episode < SLOTS_PER_UPDATE:
            raise ConfigError(
                f"train.slots_per_episode must be at least {SLOTS_PER_UPDATE} (slots per "
                "update round): an episode would run no update round, so nothing would learn"
            )
        trained = {"rr": (), "maddpg": ("sched",), "tts-maddpg": ("sched", "traj")}[self.method]
        rows = train.ring_rows()
        for group in trained:
            if rows[group] < train.batch_size:
                raise ConfigError(f"the {group} replay ring holds {rows[group]} rows (capacity, "
                                  "or all the run's transitions if fewer) < train.batch_size: "
                                  "update_round skips a group whose ring holds less than one batch")


def _parse_seeds(raw: str) -> list[int]:
    toks = [t for t in raw.replace(",", " ").split() if t]
    if not toks:
        raise ValueError("empty seed list")
    return [int(t) for t in toks]


# The fleet's rows: the donor in row 0, the nodes in rows 1-4.
_DONOR, _NODES, _ALL = slice(0, 1), slice(1, None), slice(None)
# Scenario keys stored on the fleet: key -> (rows, PlatformSpec attribute).
# A read returns the first platform of the rows; a write sets them all.
_FLEET_KEYS = {
    "donor_altitude_m": (_DONOR, "altitude_m"),
    "node_altitude_m": (_NODES, "altitude_m"),
    "donor_carrier_hz": (_DONOR, "carrier_hz"),
    "donor_bandwidth_hz": (_DONOR, "bandwidth_hz"),
    "node_carrier_hz": (_NODES, "carrier_hz"),
    "node_bandwidth_hz": (_NODES, "bandwidth_hz"),
    "donor_tx_power_dbm": (_DONOR, "tx_power_dbm"),
    "node_tx_power_dbm": (_NODES, "tx_power_dbm"),
    "antenna_gain_dbi": (_ALL, "antenna_gain_dbi"),
    "noise_figure_db": (_ALL, "noise_figure_db"),
    "node_max_speed_mps": (_NODES, "max_speed_mps"),
}
# Fields whose config key differs from the field name.
_RENAMED = {"lambda_pkts": "lambda"}
_SEEDS = list[int]
# Field type -> (read from config text, write to config text).
_CODECS = {
    int: (int, str),
    float: (float, lambda v: repr(float(v))),
    str: (str, str),
    _SEEDS: (_parse_seeds, lambda v: ", ".join(str(s) for s in v)),
}


def _field_keys(section: str, cls, targets, keep=lambda name: True) -> list[tuple]:
    """Keys for the value fields of `cls`; fields that hold config objects
    (sub-configs, the fleet) are not values."""
    hints = get_type_hints(cls)
    nested = {name for name, t in hints.items() if any(map(is_dataclass, (t, *get_args(t))))}
    return [
        (section, _RENAMED.get(f.name, f.name), hints[f.name], targets, f.name)
        for f in fields(cls)
        if keep(f.name) and f.name not in nested
    ]


def _fleet(rows: slice):
    return lambda cfg: cfg.scenario.platforms[rows]


_PLATFORM_TYPES = get_type_hints(PlatformSpec)

# Every config key in dump order, as (section, key, field type, targets,
# field name): the key reads the field of the first object `targets(cfg)`
# lists and writes it on all of them.
_KEYS = [
    *_field_keys("run", ExperimentConfig, lambda c: [c], lambda name: name != "k_obs"),
    *_field_keys("scenario", ScenarioConfig, lambda c: [c.scenario]),
    *(
        ("scenario", key, _PLATFORM_TYPES[attr], _fleet(rows), attr)
        for key, (rows, attr) in _FLEET_KEYS.items()
    ),
    *_field_keys("traffic", TrafficConfig, lambda c: [c.traffic]),
    *_field_keys("channel", ChannelConfig, lambda c: [c.channel]),
    # [run] sets the trainer's method and seed (ExperimentConfig.train_config)
    *_field_keys("train", TrainConfig, lambda c: [c.train],
                 lambda name: name not in ("method", "seed")),
    *_field_keys("train", ExperimentConfig, lambda c: [c], lambda name: name == "k_obs"),
]
_BY_NAME = {(sec, key): rest for sec, key, *rest in _KEYS}
_SECTIONS = {sec for sec, *_ in _KEYS}


def _convert(raw: str, typ, where: str):
    try:
        value = _CODECS[typ][0](raw)
    except ValueError as e:
        raise ConfigError(f"{where}: expected {typ.__name__}, got {raw!r}") from e
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite float, got {raw!r}")
    return value


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    section, set_at = None, {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value, got {rawline!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if "." in key:
            sec, key = key.split(".", 1)
            sec, key = sec.strip(), key.strip()
        elif section is None:
            raise ConfigError(f"{where}: key {key!r} appears before any [section]")
        else:
            sec = section
        if (sec, key) not in _BY_NAME:
            raise ConfigError(f"{where}: unknown key {sec}.{key}")
        if (sec, key) in set_at:
            raise ConfigError(f"{where}: {sec}.{key} is already set at {set_at[sec, key]}")
        set_at[sec, key] = where
        typ, targets, attr = _BY_NAME[(sec, key)]
        value = _convert(raw, typ, f"{where}: {sec}.{key}")
        for obj in targets(cfg):
            setattr(obj, attr, value)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {p}: {e}") from e
    return parse_config(text, source=str(p))


def dump_config(cfg: ExperimentConfig) -> str:
    """Effective config in the same format load_config reads; parsing the
    dump reproduces the config exactly."""
    lines = []
    current = None
    for sec, key, typ, targets, attr in _KEYS:
        if sec != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{sec}]")
            current = sec
        lines.append(f"{key} = {_CODECS[typ][1](getattr(targets(cfg)[0], attr))}")
    return "\n".join(lines) + "\n"


def _csv_header(cfg: ExperimentConfig, eval_file: bool) -> list[str]:
    cols = ["episode"]
    if eval_file:
        cols.append("eval_index")
    cols.append("overall_mbps")
    cols += [f"uav{p.id}_mbps" for p in cfg.scenario.platforms]
    cols.append("drop_rate")
    if not eval_file:
        cols.append("noise_std")
    return cols


def _result_cells(cfg: ExperimentConfig, result) -> list[str]:
    # 9 decimals keeps the per-UAV/overall accounting identity visible in the
    # rounded cells (worst-case rounding error ~3e-9 Mbps)
    cells = [f"{result.overall_mbps():.9f}"]
    cells += [f"{result.uav_mbps(row):.9f}" for row in range(len(cfg.scenario.platforms))]
    cells.append(f"{result.drop_rate():.9f}")
    return cells


def run_single(cfg: ExperimentConfig, seed: int, quiet: bool = False) -> Path:
    """Train (or just simulate, for rr) one seed; returns the output directory.

    Writes config.ini (the effective-config echo), train.csv, eval.csv, and,
    for learning methods, final checkpoints. A checkpoint evaluates every
    `eval_every_episodes` episodes and after the last episode. Rows are
    flushed per episode so an interrupted run leaves a readable prefix; rr
    computes its episodes per block up to the next checkpoint (see
    Trainer.rollout), so its prefix ends at a block's end.
    """
    out = Path(cfg.out_dir) / f"{cfg.method}_seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(dump_config(replace(cfg, seeds=[seed])))

    trainer = Trainer(cfg.env_spec(), cfg.train_config(seed))
    tc = trainer.cfg
    with open(out / "train.csv", "w", newline="") as ftrain, \
         open(out / "eval.csv", "w", newline="") as feval:
        wtrain = csv.writer(ftrain)
        weval = csv.writer(feval)
        wtrain.writerow(_csv_header(cfg, eval_file=False))
        weval.writerow(_csv_header(cfg, eval_file=True))
        for ep in range(tc.episodes):
            result, std = trainer.train_episode(ep)
            wtrain.writerow([ep] + _result_cells(cfg, result) + [f"{std:.6f}"])
            ftrain.flush()
            if (ep + 1) % tc.eval_every_episodes == 0 or ep + 1 == tc.episodes:
                evals = trainer.evaluate()
                for j, ev in enumerate(evals):
                    weval.writerow([ep] + [j] + _result_cells(cfg, ev))
                feval.flush()
                if not quiet:
                    mean = float(np.mean([ev.overall_mbps() for ev in evals]))
                    print(
                        f"[{cfg.method} seed {seed}] episode {ep + 1}/{tc.episodes}"
                        f" eval {mean:.2f} Mbps",
                        flush=True,
                    )
    if cfg.method != "rr":
        trainer.save_checkpoints(out / "checkpoints")
    return out


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def seed_pool(n_tasks: int):
    """A pool of spawned worker processes for n_tasks runs, one per usable
    core at most, whose BLAS runs one thread each.

    Concurrent seeds with a BLAS thread per core oversubscribe the cores (on
    2 cores: 42 ms per update round each, against 11.5 ms pinned), and a
    worker per seed beyond the cores only adds its replay rings to memory.
    Workers read the thread variables when they import numpy, so those the
    caller left unset are set here while the pool lives and removed
    afterwards.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    unset = [v for v in BLAS_THREAD_VARS if v not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=min(n_tasks, cores),
            mp_context=multiprocessing.get_context("spawn"),
        ) as pool:
            yield pool
    finally:
        for v in unset:
            os.environ.pop(v, None)


def run(cfg: ExperimentConfig, parallel: bool = False, quiet: bool = False) -> int:
    """Run every seed in the config; the parallel flag fans seeds out to a
    seed_pool of processes (results are identical either way)."""
    cfg.validate()
    if parallel and len(cfg.seeds) > 1:
        with seed_pool(len(cfg.seeds)) as pool:
            futures = [pool.submit(run_single, cfg, s, quiet) for s in cfg.seeds]
            for f in futures:
                f.result()
    else:
        for s in cfg.seeds:
            run_single(cfg, s, quiet)
    return 0


@dataclass
class MethodSummary:
    label: str
    path: str
    mean_mbps: float
    std_mbps: float
    n_rows: int
    note: str = ""  # why the label is the directory name, when its config echo did not parse


def summarize_eval(result_dir) -> MethodSummary:
    """Converged throughput of one run: mean +/- std of the evaluation rows
    from the last 10% of training episodes. The label is method and seed
    from the run's config echo, or the directory name, with a note that
    names the file and its error, when the echo does not parse (a run of an
    older schema)."""
    d = Path(result_dir)
    eval_csv = d / "eval.csv"
    if not eval_csv.exists():
        raise ConfigError(f"{d}: no eval.csv found")
    with open(eval_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ConfigError(f"{eval_csv}: no evaluation rows")
    episodes = np.array([int(r["episode"]) for r in rows])
    mbps = np.array([float(r["overall_mbps"]) for r in rows])
    cutoff = episodes.max() * 0.9
    tail = mbps[episodes > cutoff] if (episodes > cutoff).any() else mbps
    label, note = d.name, ""
    cfg_echo = d / "config.ini"
    if cfg_echo.exists():
        try:
            echo = load_config(cfg_echo)
            label = f"{echo.method} seed {echo.seeds[0]}"
        except ConfigError as e:
            note = f"labelled by its directory name: {e}"
    return MethodSummary(
        label=label,
        path=str(d),
        mean_mbps=float(np.mean(tail)),
        std_mbps=float(np.std(tail)),
        n_rows=int(tail.size),
        note=note,
    )


def compare(result_dirs) -> tuple[list[MethodSummary], dict[tuple[str, str], float]]:
    """Converged mean +/- std per run plus pairwise relative gains
    (row over column, as a fraction). Runs that share a label (method and
    seed) are labelled by their paths instead."""
    if len(result_dirs) < 2:
        raise ConfigError("compare needs at least two result directories")
    summaries = [summarize_eval(d) for d in result_dirs]
    labels = [s.label for s in summaries]
    for s in summaries:
        if labels.count(s.label) > 1:
            s.label = s.path
    gains = {}
    for a in summaries:
        for b in summaries:
            if a is b:
                continue
            if b.mean_mbps == 0:
                raise ConfigError(f"{b.path}: zero mean throughput, gain undefined")
            gains[(a.label, b.label)] = (a.mean_mbps - b.mean_mbps) / b.mean_mbps
    return summaries, gains


def format_comparison(summaries, gains) -> str:
    lines = ["converged evaluation throughput (last 10% of episodes):"]
    width = max(len(s.label) for s in summaries)
    for s in summaries:
        lines.append(
            f"  {s.label:<{width}}  {s.mean_mbps:8.3f} +/- {s.std_mbps:.3f} Mbps"
            f"  ({s.n_rows} rows)"
        )
    lines.append("pairwise gains (row over column):")
    for (a, b), g in gains.items():
        lines.append(f"  {a} over {b}: {g * 100:+.1f}%")
    lines += [f"note: {s.label} is {s.note}" for s in summaries if s.note]
    return "\n".join(lines)
