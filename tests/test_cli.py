"""Command-line behavior: config resolution, subcommands, file outputs."""

import csv
import os
import subprocess
import sys
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from taxtrader import cli, nets
from taxtrader.cli import (
    BASELINES,
    CONFIG_KEYS,
    ConfigError,
    EpisodeStats,
    RunConfig,
    baseline_actor,
    build_parser,
    bundle_actor,
    main,
    read_trade_log,
    replay_trades,
    resolve_config,
    run_episodes,
)
from taxtrader.env import EnvConfig, TradingEnv
from taxtrader.ledger import BasisState, TaxParams, step_ledger
from taxtrader.ppo import PpoConfig
from taxtrader.market_data import (
    EpisodeWindow,
    MarketDataError,
    synthetic_gbm,
    write_csv,
)


@pytest.fixture
def drift_csv(tmp_path):
    """Rising drift-only series: deterministic, every window ends above start."""
    series = synthetic_gbm(seed=1, n_days=120, s0=100.0, mu=0.5, sigma=0.0)
    path = tmp_path / "prices.csv"
    write_csv(series, path)
    return path


@pytest.fixture
def noisy_csv(tmp_path):
    series = synthetic_gbm(seed=2, n_days=150, s0=100.0, mu=0.3, sigma=0.2)
    path = tmp_path / "noisy.csv"
    write_csv(series, path)
    return path


def smoke_flags(data, out, **extra):
    flags = {
        "data": str(data),
        "out": str(out),
        "seed": "0",
        "epochs": "1",
        "steps-per-epoch": "60",
        "episode-length": "20",
        "lot-size": "1",
        "policy-update-iters": "5",
        "value-update-iters": "5",
        "n-episodes": "3",
    }
    flags.update(extra)
    return [item for key, value in flags.items() for item in (f"--{key}", value)]


def constant_action_checkpoint(path, action, obs_dim=5):
    """A checkpoint whose policy always picks ``action`` (saturated logit bias)."""
    bundle = nets.init_bundle(np.random.default_rng(0), obs_dim)
    for w in bundle.policy.weights:
        w[:] = 0.0
    for b in bundle.policy.biases:
        b[:] = 0.0
    bundle.policy.biases[-1][action] = 1000.0
    nets.save_bundle(path, bundle)
    return path


# Every config key: where it lands in the resolved config, a raw value as
# a flag, variable or file would give it, and the value it must parse to.
KEY_SURFACE = {
    "data": ("data", "prices.csv", "prices.csv"),
    "out": ("out", "runs/x", "runs/x"),
    "seed": ("seed", "7", 7),
    "n_episodes": ("n_episodes", "12", 12),
    "greedy": ("greedy", "on", True),
    "checkpoint": ("checkpoint", "a.npz", "a.npz"),
    "baseline": ("baseline", "long", "long"),
    "checkpoint_no_tax": ("checkpoint_no_tax", "n.npz", "n.npz"),
    "checkpoint_with_tax": ("checkpoint_with_tax", "w.npz", "w.npz"),
    "trade_log": ("trade_log", "trades.csv", "trades.csv"),
    "tax": ("env.tax_enabled", "off", False),
    "lot_size": ("env.lot_size", "10", 10.0),
    "episode_length": ("env.episode_length", "20", 20),
    "include_position": ("env.include_position", "false", False),
    "rate_long": ("env.tax_params.rate_long", "0.1", 0.1),
    "rate_short": ("env.tax_params.rate_short", "0.3", 0.3),
    "long_term_threshold": ("env.tax_params.long_term_threshold", "100", 100.0),
    "txn_cost_rate": ("env.tax_params.txn_cost_rate", "0.002", 0.002),
    "txn_cost_mode": ("env.tax_params.txn_cost_mode", "pnl", "pnl"),
    "short_cover_convention": (
        "env.tax_params.short_cover_convention", "economic", "economic"
    ),
    "clip_ratio": ("ppo.clip_ratio", "0.3", 0.3),
    "gae_lambda": ("ppo.gae_lambda", "0.9", 0.9),
    "gamma": ("ppo.gamma", "0.95", 0.95),
    "steps_per_epoch": ("ppo.steps_per_epoch", "64", 64),
    "epochs": ("ppo.epochs", "3", 3),
    "policy_lr": ("ppo.policy_lr", "0.002", 0.002),
    "value_lr": ("ppo.value_lr", "0.001", 0.001),
    "policy_update_iters": ("ppo.policy_update_iters", "7", 7),
    "value_update_iters": ("ppo.value_update_iters", "6", 6),
    "target_kl": ("ppo.target_kl", "0.05", 0.05),
    "advantage_normalization": ("ppo.advantage_normalization", "no", False),
    "entropy_coef": ("ppo.entropy_coef", "0.01", 0.01),
}


def resolved(cfg, path):
    value = cfg
    for name in path.split("."):
        value = getattr(value, name)
    return value


def dataclass_default(path):
    """The default of the field at ``path``, read off its own dataclass."""
    *parents, name = path.split(".")
    owner = {
        (): RunConfig, ("env",): EnvConfig, ("env", "tax_params"): TaxParams,
        ("ppo",): PpoConfig,
    }[tuple(parents)]
    return next(f.default for f in fields(owner) if f.name == name)


class TestConfigResolution:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_defaults(self):
        cfg = resolve_config(self.parse(["train"]))
        assert cfg.seed == 0
        assert cfg.env.tax_enabled is True
        assert cfg.ppo.clip_ratio == 0.2
        assert cfg.ppo.gae_lambda == 0.97
        assert cfg.ppo.steps_per_epoch == 5000
        assert cfg.ppo.policy_lr == 0.001
        assert cfg.ppo.value_lr == 0.0003

    def test_file_then_env_then_flag_precedence(self, tmp_path, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text("# comment\nseed = 1\nepochs = 7\n")
        args = ["train", "--config", str(config)]
        assert resolve_config(self.parse(args)).seed == 1
        monkeypatch.setenv("TAXTRADER_SEED", "2")
        assert resolve_config(self.parse(args)).seed == 2
        assert resolve_config(self.parse(args + ["--seed", "3"])).seed == 3
        # untouched keys fall through from the file
        assert resolve_config(self.parse(args)).ppo.epochs == 7

    def test_tax_flag_on_off(self):
        for raw, expected in (("off", False), ("on", True)):
            cfg = resolve_config(self.parse(["train", "--tax", raw]))
            assert cfg.env.tax_enabled is expected

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("not_a_key = 5\n")
        with pytest.raises(Exception, match="unknown config key"):
            resolve_config(self.parse(["train", "--config", str(config)]))

    def test_bad_boolean_rejected(self):
        with pytest.raises(Exception, match="boolean"):
            resolve_config(self.parse(["train", "--tax", "maybe"]))

    def test_key_surface(self):
        flags = set(vars(self.parse(["train"]))) - {"command", "config"}
        assert len(KEY_SURFACE) == 32
        assert flags == set(KEY_SURFACE)
        assert set(CONFIG_KEYS) == set(KEY_SURFACE)

    def test_every_default_is_its_dataclass_default(self):
        cfg = resolve_config(self.parse(["train"]))
        assert cfg == RunConfig()
        for key, (path, _, _) in KEY_SURFACE.items():
            assert resolved(cfg, path) == dataclass_default(path), key

    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    @pytest.mark.parametrize("key", sorted(KEY_SURFACE))
    def test_key_lands_in_its_field(self, tmp_path, monkeypatch, key, source):
        path, raw, expected = KEY_SURFACE[key]
        args = ["train"]
        if source == "flag":
            args += ["--" + key.replace("_", "-"), raw]
        elif source == "env":
            monkeypatch.setenv("TAXTRADER_" + key.upper(), raw)
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {raw}\n")
            args += ["--config", str(config)]
        value = resolved(resolve_config(self.parse(args)), path)
        assert value == expected and type(value) is type(expected)

    def test_removed_optimizer_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("optimizer = sgd\n")
        with pytest.raises(ConfigError, match="unknown config key 'optimizer'"):
            resolve_config(self.parse(["train", "--config", str(config)]))

    def test_values_are_validated_once_every_source_is_applied(
        self, tmp_path, monkeypatch
    ):
        # rate_long = 0.3 alone breaks rate_long <= rate_short; with the
        # variable's rate_short = 0.4 the resolved pair is valid.
        config = tmp_path / "run.cfg"
        config.write_text("rate_long = 0.3\n")
        monkeypatch.setenv("TAXTRADER_RATE_SHORT", "0.4")
        cfg = resolve_config(self.parse(["train", "--config", str(config)]))
        assert (cfg.env.tax_params.rate_long, cfg.env.tax_params.rate_short) == (
            0.3, 0.4
        )

    @pytest.mark.parametrize("n_episodes", ["0", "-3"])
    def test_non_positive_episode_count_exits_1(
        self, drift_csv, tmp_path, capsys, n_episodes
    ):
        with pytest.raises(ConfigError, match="n_episodes must be >= 1"):
            resolve_config(self.parse(["eval", "--n-episodes", n_episodes]))
        ckpt = str(constant_action_checkpoint(tmp_path / "long.npz", action=2))
        for command in (
            ["eval", "--baseline", "long"],
            ["cross-eval", "--checkpoint-no-tax", ckpt, "--checkpoint-with-tax", ckpt],
        ):
            out = tmp_path / command[0]
            flags = smoke_flags(drift_csv, out, **{"n-episodes": n_episodes})
            rc = main(command + flags)
            assert rc == 1
            assert "n_episodes must be >= 1" in capsys.readouterr().err
            assert not out.exists()

    def test_tax_params_validation_error_exits_1(self, tmp_path, capsys):
        rc = main(
            ["ledger-report", "--trade-log", str(worked_example_log(tmp_path)),
             "--rate-long", "0.3", "--rate-short", "0.2"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "rate_long <= rate_short" in err
        assert "long=0.3, short=0.2" in err


class TestTrainCommand:
    def test_missing_data_file_fails_with_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        rc = main(["train", "--data", str(missing), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert str(missing) in capsys.readouterr().err

    def test_smoke_train_writes_outputs(self, drift_csv, tmp_path):
        out = tmp_path / "run"
        rc = main(["train"] + smoke_flags(drift_csv, out))
        assert rc == 0
        assert (out / "checkpoint.npz").exists()
        rows = list(csv.DictReader((out / "metrics.csv").open()))
        assert len(rows) == 1
        assert set(rows[0]) == {
            "epoch", "mean_episode_return", "policy_loss", "value_loss",
            "kl", "entropy", "wall_seconds",
        }


class TestEvalCommand:
    def test_flat_baseline_returns_zero(self, drift_csv, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(
            ["eval"] + smoke_flags(drift_csv, out) + ["--baseline", "flat"]
        )
        assert rc == 0
        report = (out / "eval_report.txt").read_text()
        assert "mean_return: 0.0\n" in report
        assert "total_gain_tax: 0.0\n" in report

    def test_needs_exactly_one_policy_source(self, drift_csv, tmp_path, capsys):
        rc = main(["eval"] + smoke_flags(drift_csv, tmp_path / "e"))
        assert rc == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_fixed_seed_reproducible_bit_exact(self, noisy_csv, tmp_path):
        ckpt = constant_action_checkpoint(tmp_path / "long.npz", action=2)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                ["eval"] + smoke_flags(noisy_csv, out)
                + ["--checkpoint", str(ckpt), "--n-episodes", "1"]
            )
            assert rc == 0
            outs.append((out / "eval_report.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_long_baseline_tax_drag_on_rising_windows(self, drift_csv, tmp_path):
        means = {}
        for tax in ("on", "off"):
            out = tmp_path / f"tax_{tax}"
            rc = main(
                ["eval"] + smoke_flags(drift_csv, out)
                + ["--baseline", "long", "--tax", tax]
            )
            assert rc == 0
            report = (out / "eval_report.txt").read_text()
            means[tax] = float(report.splitlines()[1].split(": ")[1])
        assert means["on"] <= means["off"]

    def test_report_mean_matches_csv_mean(self, noisy_csv, tmp_path):
        out = tmp_path / "eval"
        ckpt = constant_action_checkpoint(tmp_path / "long.npz", action=2)
        main(
            ["eval"] + smoke_flags(noisy_csv, out)
            + ["--checkpoint", str(ckpt), "--n-episodes", "5", "--tax", "on"]
        )
        report = (out / "eval_report.txt").read_text()
        mean = float(report.splitlines()[1].split(": ")[1])
        with (out / "eval_episodes.csv").open() as fh:
            rets = [float(r["episode_return"]) for r in csv.DictReader(fh)]
        assert abs(mean - float(np.mean(rets))) < 1e-12

    def test_checkpoint_feature_mismatch_reported(self, drift_csv, tmp_path, capsys):
        ckpt = constant_action_checkpoint(tmp_path / "p4.npz", action=2, obs_dim=4)
        rc = main(
            ["eval"] + smoke_flags(drift_csv, tmp_path / "e")
            + ["--checkpoint", str(ckpt)]
        )
        assert rc == 1
        assert "features" in capsys.readouterr().err

    def test_greedy_flag_accepted(self, drift_csv, tmp_path):
        ckpt = constant_action_checkpoint(tmp_path / "long.npz", action=2)
        rc = main(
            ["eval"] + smoke_flags(drift_csv, tmp_path / "g")
            + ["--checkpoint", str(ckpt), "--greedy", "true"]
        )
        assert rc == 0


class TestCrossEvalCommand:
    def test_identical_checkpoints_zero_relative_loss(self, noisy_csv, tmp_path):
        ckpt = constant_action_checkpoint(tmp_path / "same.npz", action=2)
        out = tmp_path / "cross"
        rc = main(
            ["cross-eval"] + smoke_flags(noisy_csv, out)
            + ["--checkpoint-no-tax", str(ckpt), "--checkpoint-with-tax", str(ckpt)]
        )
        assert rc == 0
        report = (out / "cross_eval_report.txt").read_text()
        assert "relative_loss: 0.0\n" in report
        assert "windows_identical: true" in report

    def test_scripted_long_vs_flat_pair(self, drift_csv, tmp_path):
        # Always-long (as the taxed policy) against always-flat: the flat
        # side earns exactly zero, so the relative loss is exactly one.
        long_ckpt = constant_action_checkpoint(tmp_path / "long.npz", action=2)
        flat_ckpt = constant_action_checkpoint(tmp_path / "flat.npz", action=1)
        out = tmp_path / "cross"
        rc = main(
            ["cross-eval"] + smoke_flags(drift_csv, out)
            + [
                "--checkpoint-no-tax", str(flat_ckpt),
                "--checkpoint-with-tax", str(long_ckpt),
            ]
        )
        assert rc == 0
        lines = (out / "cross_eval_report.txt").read_text().splitlines()
        values = {k: v for k, v in (line.split(": ") for line in lines)}
        assert float(values["mean_return_tax_naive"]) == 0.0
        assert float(values["mean_return_tax_aware"]) > 0.0
        assert float(values["relative_loss"]) == 1.0

    def test_absolute_gap_keeps_its_sign_when_aware_loses(self, drift_csv, tmp_path):
        # Always-short (as the taxed policy) loses on a rising series, so
        # mean_aware < 0: the relative loss divides by it and reads +1 for
        # a policy that did worse, while the absolute gap stays negative.
        short_ckpt = constant_action_checkpoint(tmp_path / "short.npz", action=0)
        flat_ckpt = constant_action_checkpoint(tmp_path / "flat.npz", action=1)
        out = tmp_path / "cross"
        rc = main(
            ["cross-eval"] + smoke_flags(drift_csv, out)
            + [
                "--checkpoint-no-tax", str(flat_ckpt),
                "--checkpoint-with-tax", str(short_ckpt),
            ]
        )
        assert rc == 0
        lines = (out / "cross_eval_report.txt").read_text().splitlines()
        values = {k: v for k, v in (line.split(": ") for line in lines)}
        aware = float(values["mean_return_tax_aware"])
        naive = float(values["mean_return_tax_naive"])
        assert aware < 0.0 and naive == 0.0
        assert float(values["absolute_gap"]) == aware - naive
        assert float(values["relative_loss"]) == 1.0

    def test_checkpoint_feature_mismatch_names_the_checkpoint(
        self, drift_csv, tmp_path, capsys
    ):
        # A checkpoint trained with include_position off has four inputs.
        five = constant_action_checkpoint(tmp_path / "p5.npz", action=2)
        four = constant_action_checkpoint(tmp_path / "p4.npz", action=2, obs_dim=4)
        rc = main(
            ["cross-eval"] + smoke_flags(drift_csv, tmp_path / "cross")
            + ["--checkpoint-no-tax", str(five), "--checkpoint-with-tax", str(four)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(four) in err
        assert "expects 4 features, environment provides 5" in err

    def test_window_columns_present(self, drift_csv, tmp_path):
        ckpt = constant_action_checkpoint(tmp_path / "l.npz", action=2)
        out = tmp_path / "cross"
        main(
            ["cross-eval"] + smoke_flags(drift_csv, out)
            + ["--checkpoint-no-tax", str(ckpt), "--checkpoint-with-tax", str(ckpt)]
        )
        with (out / "cross_eval_episodes.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert set(rows[0]) == {
            "episode", "window_start", "return_tax_aware", "return_tax_naive"
        }


# ---------------------------------------------------------------------------
# Lockstep evaluation against the sequential loop it replaced: one window
# at a time, episode k with its own (seed, 101, k) generator and a
# single-observation policy call per step.


def sequential_run_episodes(env, act_for, windows, seed):
    stats = []
    for ep, window in enumerate(windows):
        act = act_for(np.random.default_rng([seed, 101, ep]))
        obs = env.reset(window)
        denom = env.config.lot_size * env.first_price
        reward = taxes = rebates = costs = 0.0
        done = False
        while not done:
            transition = env.step(act(obs))
            reward += transition.reward
            taxes += transition.cashflow.gain_tax
            rebates += transition.cashflow.loss_rebate
            costs += transition.cashflow.txn_cost
            obs = transition.observation
            done = transition.done
        stats.append(
            EpisodeStats(
                window_start=window.start_index,
                episode_return=reward / denom,
                gain_tax=taxes,
                loss_rebate=rebates,
                txn_cost=costs,
            )
        )
    return stats


def sequential_policy(bundle, greedy=False):
    def make(rng):
        def act(obs):
            logits = nets.forward(bundle.policy, obs)
            if greedy:
                return int(np.argmax(logits))
            return nets.sample_action(logits, rng)[0]

        return act

    return make


def sequential_baseline(action):
    return lambda rng: lambda obs: action


def stats_bits(stats):
    return [
        (
            e.window_start,
            np.array(
                [e.episode_return, e.gain_tax, e.loss_rebate, e.txn_cost]
            ).tobytes(),
        )
        for e in stats
    ]


@pytest.fixture(scope="module")
def lane_series():
    return synthetic_gbm(seed=3, n_days=300, s0=50.0, mu=0.1, sigma=0.4)


def lane_env(series, tax=True):
    return TradingEnv(EnvConfig(tax_enabled=tax, episode_length=60), series)


def spread_bundle():
    """A fresh policy with scaled-up layers on whose windows below both the
    sampled and the greedy actor take every action."""
    bundle = nets.init_bundle(np.random.default_rng(0), 5)
    bundle.policy.weights[0] *= 20.0
    bundle.policy.weights[-1] *= 3.0
    return bundle


# Some windows outlast the block of uniforms a lane draws at once.
EQUAL = [EpisodeWindow(s, 70) for s in (0, 17, 40, 100, 160, 220)]
UNEQUAL = [
    EpisodeWindow(0, 60), EpisodeWindow(30, 5), EpisodeWindow(200, 1),
    EpisodeWindow(90, 33), EpisodeWindow(10, 150), EpisodeWindow(150, 12),
]
SINGLE = [EpisodeWindow(70, 130)]


class TestLockstepMatchesSequential:
    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("tax", [True, False])
    @pytest.mark.parametrize("windows", [EQUAL, UNEQUAL, SINGLE],
                             ids=["equal", "unequal", "single"])
    def test_policy_actor(self, lane_series, greedy, tax, windows):
        bundle = spread_bundle()
        got = run_episodes(
            lane_env(lane_series, tax), bundle_actor(bundle, greedy), windows, 9
        )
        expected = sequential_run_episodes(
            lane_env(lane_series, tax), sequential_policy(bundle, greedy), windows, 9
        )
        assert stats_bits(got) == stats_bits(expected)

    @pytest.mark.parametrize("name", sorted(BASELINES))
    @pytest.mark.parametrize("tax", [True, False])
    @pytest.mark.parametrize("windows", [EQUAL, UNEQUAL, SINGLE],
                             ids=["equal", "unequal", "single"])
    def test_baseline_actor(self, lane_series, name, tax, windows):
        got = run_episodes(
            lane_env(lane_series, tax), baseline_actor(name), windows, 9
        )
        expected = sequential_run_episodes(
            lane_env(lane_series, tax),
            sequential_baseline(BASELINES[name]),
            windows,
            9,
        )
        assert stats_bits(got) == stats_bits(expected)

    @pytest.mark.parametrize("greedy", [False, True])
    def test_policy_takes_every_action(self, lane_series, monkeypatch, greedy):
        # Guards the oracle comparisons above against a degenerate policy.
        taken = []
        act = cli.PolicyActor.__call__

        def recording_act(self, observations, uniforms):
            actions = act(self, observations, uniforms)
            taken.extend(actions)
            return actions

        monkeypatch.setattr(cli.PolicyActor, "__call__", recording_act)
        stats = run_episodes(
            lane_env(lane_series), bundle_actor(spread_bundle(), greedy), EQUAL, 9
        )
        assert set(taken) == {0, 1, 2}
        assert sum(e.gain_tax + e.loss_rebate for e in stats) > 0

    def test_env_argument_runs_the_first_window(self, lane_series):
        env = lane_env(lane_series)
        run_episodes(env, baseline_actor("long"), UNEQUAL, 0)
        assert env.window == UNEQUAL[0]
        assert env.state.position == 100.0

    def test_no_windows(self, lane_series):
        assert run_episodes(lane_env(lane_series), baseline_actor("long"), [], 0) == []

    def test_invalid_window_raises_before_any_step(self, lane_series, monkeypatch):
        steps = []
        original = TradingEnv.step
        monkeypatch.setattr(
            TradingEnv, "step", lambda self, a: steps.append(a) or original(self, a)
        )
        windows = EQUAL[:3] + [EpisodeWindow(len(lane_series) - 5, 10)]
        with pytest.raises(MarketDataError, match="exceeds series"):
            run_episodes(lane_env(lane_series), baseline_actor("long"), windows, 0)
        assert steps == []

    def test_nan_logits_raise(self, lane_series):
        bundle = spread_bundle()
        bundle.policy.biases[-1][1] = np.nan
        with pytest.raises(ValueError, match="non-finite logits"):
            run_episodes(lane_env(lane_series), bundle_actor(bundle), EQUAL, 0)

    def test_baseline_draws_nothing(self, lane_series, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a baseline drew uniforms")

        monkeypatch.setattr(cli, "_lane_uniforms", no_draws)
        for greedy_or_baseline in (baseline_actor("flat"),
                                   bundle_actor(spread_bundle(), greedy=True)):
            run_episodes(lane_env(lane_series), greedy_or_baseline, EQUAL, 0)


def worked_example_log(tmp_path):
    """Trade log for the worked scenario: dates spaced 378 and 126 weekdays."""
    d0 = np.datetime64(date(2015, 1, 5))
    d1 = np.busday_offset(d0, 378)
    d2 = np.busday_offset(d1, 126)
    rows = [
        (d0.astype("datetime64[D]").item(), 200.0, 300),
        (d1.astype("datetime64[D]").item(), 300.0, 400),
        (d2.astype("datetime64[D]").item(), 350.0, 0),
    ]
    path = tmp_path / "trades.csv"
    with path.open("w") as fh:
        fh.write("date,price,target_position\n")
        for d, price, pos in rows:
            fh.write(f"{d.isoformat()},{price},{pos}\n")
    return path


class TestLedgerReportCommand:
    def test_worked_example_totals(self, tmp_path, capsys):
        log = worked_example_log(tmp_path)
        rc = main(
            ["ledger-report", "--trade-log", str(log), "--txn-cost-rate", "0.005"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        final_trade = out.strip().splitlines()[-2]
        assert "225.00" in final_trade  # basis the sale was taxed at
        assert "1.50" in final_trade  # holding in years at the sale
        assert "7500.00" in final_trade
        assert "gain_tax=7500.00" in out
        assert "txn_cost=1150.00" in out
        assert "final_position=0" in out

    def test_positions_never_leaving_zero(self, tmp_path, capsys):
        path = tmp_path / "quiet.csv"
        path.write_text(
            "date,price,target_position\n"
            "2020-01-02,100,0\n2020-01-03,101,0\n2020-01-06,99,0\n"
        )
        rc = main(["ledger-report", "--trade-log", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gain_tax=0.00" in out
        assert "loss_rebate=0.00" in out
        assert "txn_cost=0.00" in out

    def test_random_log_matches_direct_ledger_calls(self, tmp_path):
        rng = np.random.default_rng(8)
        start = np.datetime64(date(2021, 1, 4))
        days = [start + np.timedelta64(0, "D")]
        # consecutive weekdays so the replay has no gap days to expand
        for _ in range(14):
            days.append(np.busday_offset(days[-1], 1))
        prices = rng.uniform(50.0, 150.0, size=15)
        targets = rng.choice([-100.0, 0.0, 100.0], size=15)
        rows = [
            (d.astype("datetime64[D]").item(), float(p), float(t))
            for d, p, t in zip(days, prices, targets)
        ]
        params = TaxParams()
        lines, totals, final_state = replay_trades(rows, params)

        state = BasisState.flat(rows[0][1])
        taxes = rebates = costs = 0.0
        for _, price, target in rows:
            state, cf = step_ledger(state, price, target, params)
            taxes += cf.gain_tax
            rebates += cf.loss_rebate
            costs += cf.txn_cost
        assert totals["gain_tax"] == taxes
        assert totals["loss_rebate"] == rebates
        assert totals["txn_cost"] == costs
        assert final_state == state

    def test_malformed_log_row_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("date,price,target_position\n2020-01-02,oops,0\n")
        rc = main(["ledger-report", "--trade-log", str(path)])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err

    def test_trade_log_reader_validates_dates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,price,target_position\n2020-01-03,100,0\n2020-01-02,100,0\n"
        )
        with pytest.raises(Exception, match="not after"):
            read_trade_log(path)


def run_child(argv):
    """Run ``argv`` in a python child that imports this process's package."""
    package_root = str(Path(nets.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(tmp_path):
    missing = tmp_path / "absent.csv"
    proc = run_child(["-m", "taxtrader", "train", "--data", str(missing)])
    assert proc.returncode == 1
    assert str(missing) in proc.stderr


def test_protocol_script_smoke(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_paper_protocol.py"
    proc = run_child(
        [str(script), "--epochs", "1", "--steps-per-epoch", "64",
         "--episode-length", "20", "--seeds", "0", "--out", str(tmp_path)]
    )
    assert proc.returncode == 0, proc.stderr
    with (tmp_path / "seed0_episodes.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [
        "episode", "window_start", "return_no_tax_env", "return_tax_aware",
        "return_tax_naive",
    ]
    assert [int(r["episode"]) for r in rows] == list(range(100))
    header, row, total = proc.stdout.splitlines()
    assert header.split() == [
        "seed", "no-tax", "env", "tax-aware", "tax-naive", "abs", "gap", "rel", "loss"
    ]
    seed, free, aware, naive, gap, rel = row.split()
    assert seed == "0"
    means = [float(r) for r in (free, aware, naive)]
    for column, mean in zip(("return_no_tax_env", "return_tax_aware",
                             "return_tax_naive"), means):
        csv_mean = float(np.mean([float(r[column]) for r in rows]))
        assert abs(csv_mean - mean) <= 5e-5
    assert float(gap) == pytest.approx(means[1] - means[2], abs=2e-4)
    assert total.startswith("total ")
