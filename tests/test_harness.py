"""Config parsing/echo, run orchestration, CSV outputs, comparison math, CLI."""

import csv
import os
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from ntnsim import cli, harness
from ntnsim.harness import (
    ConfigError,
    ExperimentConfig,
    compare,
    dump_config,
    format_comparison,
    load_config,
    parse_config,
    run,
    run_single,
    summarize_eval,
)


def small_cfg(method="rr", out_dir="results", episodes=4, seeds=(0,)):
    cfg = ExperimentConfig()
    cfg.method = method
    cfg.seeds = list(seeds)
    cfg.out_dir = out_dir
    cfg.train.episodes = episodes
    cfg.train.slots_per_episode = 20
    cfg.train.eval_every_episodes = 2
    cfg.train.eval_episodes = 2
    cfg.train.warmup_transitions = 40
    cfg.train.batch_size = 8
    cfg.scenario.n_ues = 6
    return cfg


def test_parse_config_sections_and_dotted_keys():
    cfg = parse_config(
        """
        [run]
        method = rr
        seeds = 1, 2, 3

        [traffic]
        lambda = 4
        ; comment line
        # another comment
        train.episodes = 12
        """
    )
    assert cfg.method == "rr"
    assert cfg.seeds == [1, 2, 3]
    assert cfg.traffic.lambda_pkts == 4.0
    assert cfg.train.episodes == 12


def test_parse_config_lambda_roundtrip():
    cfg = parse_config("[traffic]\nlambda = 4\n")
    assert cfg.traffic.lambda_pkts == 4.0
    echo = dump_config(cfg)
    assert parse_config(echo).traffic.lambda_pkts == 4.0


def test_parse_config_errors_name_line_numbers():
    with pytest.raises(ConfigError, match="test.ini:2"):
        parse_config("[traffic]\nlambda = banana\n", source="test.ini")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[traffic]\nlambdas = 4\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[traffics]\n")
    with pytest.raises(ConfigError, match="before any"):
        parse_config("lambda = 4\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("[traffic]\nlambda 4\n")
    # learner settings that are module constants, and the deleted anchor
    # cadence, are not config keys
    for key in ("gamma", "tau", "actor_lr", "critic_lr", "hidden_width", "traj_hidden_width",
                "sched_buffer_capacity", "traj_buffer_capacity", "slots_per_update",
                "noise_start", "noise_end", "noise_decay_frac", "traj_drift_std",
                "traj_drift_floor", "action_reg", "traj_critic_weight_decay",
                "traj_anchor_every"):
        with pytest.raises(ConfigError, match=rf"old\.ini:3: unknown key train\.{key}$"):
            parse_config(f"[train]\nepisodes = 5\n{key} = 1\n", source="old.ini")


def test_parse_config_rejects_a_key_set_twice():
    # the same key twice in its section, or again as a dotted key, names both lines
    with pytest.raises(ConfigError, match=r"x\.ini:3: train\.episodes is already set at x\.ini:2"):
        parse_config("[train]\nepisodes = 5\nepisodes = 6\n", source="x.ini")
    with pytest.raises(ConfigError, match=r"x\.ini:4: train\.episodes is already set at x\.ini:2"):
        parse_config("[train]\nepisodes = 5\n[run]\ntrain.episodes = 7\n", source="x.ini")
    # a fleet key writes several platforms, and is still one key
    with pytest.raises(ConfigError, match=r"scenario\.node_altitude_m is already set"):
        parse_config("[scenario]\nnode_altitude_m = 90\nnode_altitude_m = 110\n")
    # a section may open again
    cfg = parse_config(
        "[train]\nepisodes = 5\n[scenario]\nn_ues = 7\n[train]\nbatch_size = 8\n")
    assert (cfg.train.episodes, cfg.scenario.n_ues, cfg.train.batch_size) == (5, 7, 8)

def test_parse_config_rejects_invalid_values():
    for text in (
        "[run]\nmethod = dqn\n",
        "[scenario]\nn_ues = 0\n",
        # each of these would crash a run or silently bias the simulation
        "[train]\neval_every_episodes = 0\n",
        "[train]\nwarmup_transitions = -5\n",
        "[scenario]\nnode_max_speed_mps = -5\n",
        # a run would die in its first slot (NaN or overflow in the path loss)
        "[scenario]\nnode_carrier_hz = -2.5e9\n",
        "[scenario]\ndonor_carrier_hz = 0.0\n",
        "[traffic]\ndeadline_slots = 0\n",
        "[channel]\nbackhaul_bandwidth_hz = 0\n",
        "[channel]\nlos_a = -1\n",
        # no eval world: every checkpoint would report nan Mbps
        "[train]\neval_episodes = 0\n",
        # numpy refuses a negative seed only after the run directory exists
        "[run]\nseeds = -2\n",
        "[run]\nseeds = 0, -1\n",
        # two seeds of one run would write the same <method>_seed3 directory
        "[run]\nseeds = 3, 3\n",
        # a short run fills a ring of 5 x 4 velocity transitions only: smaller
        # than one batch, that group would never update
        "[train]\nepisodes = 5\nslots_per_episode = 20\nwarmup_transitions = 8\nbatch_size = 32\n",
    ):
        with pytest.raises(ConfigError):
            parse_config(text)
    # the message names the group whose ring is short
    with pytest.raises(ConfigError, match="traj replay ring holds 4 rows"):
        parse_config("[train]\nepisodes = 1\nslots_per_episode = 20\nbatch_size = 8\n")
    with pytest.raises(ConfigError, match="sched replay ring holds 4 rows"):
        parse_config("[run]\nmethod = maddpg\n[train]\nepisodes = 1\nslots_per_episode = 4\n"
                     "batch_size = 8\n")
    with pytest.raises(ConfigError, match="traj replay ring holds 20 rows"):
        parse_config("[train]\nepisodes = 5\nslots_per_episode = 20\nbatch_size = 32\n")
    with pytest.raises(ConfigError, match="sched replay ring holds 20 rows"):
        parse_config("[run]\nmethod = maddpg\n[train]\nepisodes = 1\nslots_per_episode = 20\n")
    # the queues count bits in int64; the message names the limit
    with pytest.raises(ConfigError, match="4294967296"):
        parse_config("[traffic]\npacket_bits = 9223372036854775808\n")
    with pytest.raises(ConfigError, match="4294967296"):
        parse_config("[traffic]\npacket_bits = 4294967297\n")
    assert parse_config("[traffic]\npacket_bits = 4294967296\n").traffic.packet_bits == 2**32
    # above 700 the Poisson sampler is biased low; the message names the limit
    with pytest.raises(ConfigError, match="700"):
        parse_config("[traffic]\nlambda = 720\n")
    assert parse_config("[traffic]\nlambda = 700\n").traffic.lambda_pkts == 700.0
    # no update round per episode: nothing would learn; the message names the cadence
    with pytest.raises(ConfigError, match="slots_per_episode must be at least 4"):
        parse_config("[train]\nslots_per_episode = 3\n")
    assert parse_config("[train]\nslots_per_episode = 4\n").train.slots_per_episode == 4
    # rr runs no update rounds, so its episodes may be shorter than the cadence
    assert parse_config("[run]\nmethod = rr\n[train]\nslots_per_episode = 2\n").method == "rr"
    # a ring is checked against the batch only for a group the method trains
    assert parse_config("[run]\nmethod = maddpg\n[train]\nepisodes = 1\nslots_per_episode = 20\n"
                        "batch_size = 8\n").method == "maddpg"
    assert parse_config("[run]\nmethod = rr\n[train]\nepisodes = 1\nslots_per_episode = 4\n"
                        "batch_size = 8\n").method == "rr"
    assert parse_config("[train]\nepisodes = 2\nslots_per_episode = 20\n"
                        "batch_size = 8\n").train.batch_size == 8
    assert parse_config("[train]\nwarmup_transitions = 0\n").train.warmup_transitions == 0
    # non-finite floats are refused where the value is read (lambda = nan
    # would otherwise hang the Poisson sampler)
    for text in (
        "[traffic]\nlambda = nan\n",
        "[scenario]\narea_w_m = inf\n",
        "[scenario]\nslot_seconds = nan\n",
        "[channel]\nlos_a = nan\n",
    ):
        with pytest.raises(ConfigError, match=r"bad\.ini:2: .* finite"):
            parse_config(text, source="bad.ini")


def test_dump_config_roundtrip_exact():
    cfg = parse_config(
        "[run]\nmethod = maddpg\nseeds = 5 6\n[scenario]\nn_ues = 9\n"
        "[channel]\neta_nlos_db = 7.5\n[train]\ntraj_actor_window = 500\n"
    )
    echo = dump_config(cfg)
    cfg2 = parse_config(echo)
    assert dump_config(cfg2) == echo
    assert cfg2.method == "maddpg"
    assert cfg2.seeds == [5, 6]
    assert cfg2.scenario.n_ues == 9
    assert cfg2.channel.eta_nlos_db == 7.5
    assert cfg2.train.traj_actor_window == 500


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.ini")


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_run_single_rr_outputs(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path))
    out = run_single(cfg, 0, quiet=True)
    assert out == tmp_path / "rr_seed0"
    train_rows = read_csv(out / "train.csv")
    assert len(train_rows) == 4
    assert [r["episode"] for r in train_rows] == ["0", "1", "2", "3"]
    eval_rows = read_csv(out / "eval.csv")
    # eval every 2 episodes, 2 eval episodes each
    assert len(eval_rows) == 4
    assert {r["episode"] for r in eval_rows} == {"1", "3"}
    assert not (out / "checkpoints").exists()
    # per-UAV columns sum to the overall column
    for r in train_rows + eval_rows:
        parts = sum(float(r[f"uav{i}_mbps"]) for i in range(5))
        assert parts == pytest.approx(float(r["overall_mbps"]), abs=1e-6)


def test_run_single_evaluates_after_the_last_episode(tmp_path):
    # 3 episodes at interval 2: checkpoints after episode 1 and the last one
    cfg = small_cfg(out_dir=str(tmp_path), episodes=3)
    runs = [run_single(cfg, seed, quiet=True) for seed in (0, 1)]
    eval_rows = read_csv(runs[0] / "eval.csv")
    assert [(r["episode"], r["eval_index"]) for r in eval_rows] == [
        ("1", "0"), ("1", "1"), ("2", "0"), ("2", "1")]
    # rr evaluates its fixed rule on the fixed worlds: every checkpoint reads the same
    assert [r["overall_mbps"] for r in eval_rows[:2]] == [r["overall_mbps"] for r in eval_rows[2:]]
    summaries, _ = compare([str(d) for d in runs])
    assert [s.n_rows for s in summaries] == [2, 2]


def test_run_single_learning_method_writes_checkpoints(tmp_path):
    cfg = small_cfg(method="maddpg", out_dir=str(tmp_path), episodes=2)
    out = run_single(cfg, 1, quiet=True)
    ck = out / "checkpoints"
    assert (ck / "sched0_actor.bin").exists()
    assert (ck / "sched4_critic_target.bin").exists()
    assert not (ck / "traj1_actor.bin").exists()
    echo = load_config(out / "config.ini")
    assert echo.method == "maddpg"
    assert echo.seeds == [1]


def test_config_echo_reproduces_csvs(tmp_path):
    cfg = small_cfg(method="tts-maddpg", out_dir=str(tmp_path / "a"), episodes=2)
    out = run_single(cfg, 0, quiet=True)
    echo_cfg = load_config(out / "config.ini")
    echo_cfg.out_dir = str(tmp_path / "b")
    out2 = run_single(echo_cfg, 0, quiet=True)
    assert (out / "train.csv").read_bytes() == (out2 / "train.csv").read_bytes()
    assert (out / "eval.csv").read_bytes() == (out2 / "eval.csv").read_bytes()


def test_run_multi_seed_sequential_equals_parallel(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path / "seq"), seeds=(0, 1))
    run(cfg, parallel=False, quiet=True)
    cfg2 = small_cfg(out_dir=str(tmp_path / "par"), seeds=(0, 1))
    run(cfg2, parallel=True, quiet=True)
    for s in (0, 1):
        a = (tmp_path / "seq" / f"rr_seed{s}" / "train.csv").read_bytes()
        b = (tmp_path / "par" / f"rr_seed{s}" / "train.csv").read_bytes()
        assert a == b


def test_seed_pool_pins_blas_threads_in_workers(monkeypatch):
    for var in harness.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")  # a caller's own setting wins
    with harness.seed_pool(2) as pool:
        seen = [pool.submit(os.getenv, v).result(timeout=120) for v in harness.BLAS_THREAD_VARS]
    assert dict(zip(harness.BLAS_THREAD_VARS, seen)) == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "3",
    }
    # this process's environment is as the caller left it
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert "OMP_NUM_THREADS" not in os.environ
    assert os.environ["MKL_NUM_THREADS"] == "3"


def test_run_parallel_caps_the_pool_at_the_usable_cores(tmp_path, monkeypatch):
    workers = []

    class RecordingPool:  # starts no process and runs nothing
        def __init__(self, max_workers, mp_context):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(None)
            return done

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for n_seeds, expect in ((64, 3), (2, 2)):
        assert run(small_cfg(out_dir=str(tmp_path), seeds=range(n_seeds)), parallel=True) == 0
        assert workers.pop() == expect
    assert not any(tmp_path.iterdir())


def write_eval_csv(d: Path, episodes, values):
    d.mkdir(parents=True)
    with open(d / "eval.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["episode", "eval_index", "overall_mbps", "drop_rate"])
        for ep, v in zip(episodes, values):
            w.writerow([ep, 0, f"{v:.6f}", "0.1"])


def test_summarize_eval_last_tenth(tmp_path):
    d = tmp_path / "fake"
    episodes = list(range(0, 100, 10)) * 1
    values = [10.0] * 9 + [70.0]
    write_eval_csv(d, episodes, values)
    s = summarize_eval(d)
    # only episode 90 survives the >81 cutoff
    assert s.mean_mbps == pytest.approx(70.0)
    assert s.n_rows == 1


def test_compare_gain_formula(tmp_path):
    a = tmp_path / "rr"
    b = tmp_path / "tts"
    write_eval_csv(a, [99], [70.0])
    write_eval_csv(b, [99], [175.0])
    summaries, gains = compare([str(b), str(a)])
    by = {s.path: s.label for s in summaries}
    g = gains[(by[str(b)], by[str(a)])]
    assert g == pytest.approx(1.5)
    g2 = gains[(by[str(a)], by[str(b)])]
    assert g2 == pytest.approx((70.0 - 175.0) / 175.0)
    text = format_comparison(summaries, gains)
    assert "+150.0%" in text


def test_compare_identical_dirs_zero_gain(tmp_path):
    a = tmp_path / "x"
    b = tmp_path / "y"
    write_eval_csv(a, [99], [42.0])
    write_eval_csv(b, [99], [42.0])
    _, gains = compare([str(a), str(b)])
    assert all(g == pytest.approx(0.0) for g in gains.values())


def test_compare_keeps_every_pair_of_runs_that_share_a_label(tmp_path):
    dirs = []
    for parent, mbps in (("cmpA", 40.0), ("cmpB", 50.0)):
        d = tmp_path / parent / "rr_seed0"
        write_eval_csv(d, [99], [mbps])
        (d / "config.ini").write_text(dump_config(small_cfg()))  # labelled "rr seed 0"
        dirs.append(str(d))
    summaries, gains = compare(dirs)
    assert [s.label for s in summaries] == dirs
    assert gains == pytest.approx({(dirs[1], dirs[0]): 0.25, (dirs[0], dirs[1]): -0.2})
    text = format_comparison(summaries, gains)
    assert f"{dirs[1]} over {dirs[0]}: +25.0%" in text
    assert f"{dirs[0]} over {dirs[1]}: -20.0%" in text


def test_compare_notes_a_config_echo_it_cannot_parse(tmp_path, capsys):
    old, new = tmp_path / "rr_seed0", tmp_path / "new"
    write_eval_csv(old, [0, 10], [10.0, 20.0])
    write_eval_csv(new, [0, 10], [10.0, 30.0])
    echo = dump_config(ExperimentConfig())
    (new / "config.ini").write_text(echo)
    # an echo of an older schema, with a [train] key that no longer exists
    (old / "config.ini").write_text(echo.replace("[train]\n", "[train]\ngamma = 0.95\n"))
    summaries, gains = compare([str(old), str(new)])
    assert [s.label for s in summaries] == ["rr_seed0", "tts-maddpg seed 0"]
    assert gains[("tts-maddpg seed 0", "rr_seed0")] == pytest.approx(0.5)
    assert summaries[1].note == ""
    assert cli.main(["compare", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "rr_seed0 over tts-maddpg seed 0" in out
    note = [line for line in out.splitlines() if line.startswith("note:")]
    assert len(note) == 1
    assert note[0].startswith(f"note: rr_seed0 is labelled by its directory name: {old / 'config.ini'}:")
    assert note[0].endswith("unknown key train.gamma")


def test_compare_needs_two_dirs(tmp_path):
    with pytest.raises(ConfigError):
        compare([str(tmp_path)])
    with pytest.raises(ConfigError, match="no eval.csv"):
        compare([str(tmp_path), str(tmp_path / "nope")])


def test_cli_run_and_compare(tmp_path, capsys):
    conf = tmp_path / "exp.ini"
    conf.write_text(
        "[run]\nmethod = rr\nseeds = 0\nout_dir = {out}\n"
        "[scenario]\nn_ues = 6\n"
        "[train]\nepisodes = 2\nslots_per_episode = 20\nbatch_size = 8\n"
        "eval_every_episodes = 1\neval_episodes = 2\n".format(out=tmp_path / "res")
    )
    assert cli.main(["run", "--config", str(conf), "--quiet"]) == 0
    assert (tmp_path / "res" / "rr_seed0" / "eval.csv").exists()
    assert cli.main(["run", "--config", str(conf), "--method", "maddpg",
                     "--out", str(tmp_path / "res2"), "--episodes", "1",
                     "--quiet"]) == 0
    rc = cli.main([
        "compare", str(tmp_path / "res" / "rr_seed0"), str(tmp_path / "res2" / "maddpg_seed0"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged evaluation throughput" in out
    assert "over" in out


def test_cli_dump_config_roundtrip(capsys):
    assert cli.main(["dump-config"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config(text)
    assert cfg.method == ExperimentConfig().method


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[traffic]\nlambda = banana\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.ini:2" in err
    for text in ("[traffic]\nlambda = nan\n", "[train]\neval_every_episodes = 0\n",
                 "[train]\nwarmup_transitions = -5\n", "[train]\nslots_per_episode = 3\n",
                 "[train]\neval_episodes = 0\n",
                 "[run]\nseeds = -2\n", "[run]\nseeds = 3, 3\n",
                 "[traffic]\npacket_bits = 9223372036854775808\n"):
        bad.write_text(text)
        assert cli.main(["run", "--config", str(bad), "--quiet"]) == 2
    capsys.readouterr()
    out = tmp_path / "neg"
    argv = ["run", "--method", "rr", "--episodes", "1", "--out", str(out), "--quiet"]
    assert cli.main(argv + ["--seed", "-1"]) == 2
    assert "run.seeds must be distinct and non-negative" in capsys.readouterr().err
    assert not out.exists()  # rejected before any run directory is made
    assert cli.main(["compare", str(tmp_path / "missing")]) == 2
