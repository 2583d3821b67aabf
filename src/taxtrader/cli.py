"""Command-line front end: train, evaluate, cross-evaluate, ledger reports.

Configuration values resolve in increasing precedence: built-in defaults,
a flat ``key = value`` config file (``--config``), environment variables
prefixed ``TAXTRADER_``, then command-line flags of the same name.

Subcommands:
  train          fit a policy on a price CSV, write checkpoint + metrics
  eval           roll a checkpoint (or scripted baseline) over sampled windows
  cross-eval     compare two checkpoints inside the tax-enabled environment
  ledger-report  replay a trade log through the tax ledger
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, fields, replace
from datetime import date
from pathlib import Path
from typing import Callable, ClassVar, Protocol, Sequence

import numpy as np

from . import nets
from .env import EnvConfig, TradingEnv
from .ledger import BasisState, TaxParams, step_ledger
from .market_data import (
    EpisodeWindow,
    MarketDataError,
    PriceSeries,
    load_csv,
    sample_window,
)
from .ppo import PpoConfig, train

ENV_PREFIX = "TAXTRADER_"

__all__ = ["main", "RunConfig", "EvalReport", "run_episodes", "replay_trades"]


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean (on/off/true/false), got {raw!r}")


@dataclass
class RunConfig:
    """Every tunable of the toolkit, resolvable from file, env, or flags."""

    data: str | None = None
    out: str = "out"
    seed: int = 0
    tax: bool = True
    epochs: int = 50
    steps_per_epoch: int = 5000
    clip_ratio: float = 0.2
    gae_lambda: float = 0.97
    gamma: float = 0.99
    policy_lr: float = 1e-3
    value_lr: float = 3e-4
    policy_update_iters: int = 80
    value_update_iters: int = 80
    target_kl: float = 0.015
    advantage_normalization: bool = True
    entropy_coef: float = 0.0
    optimizer: str = "adam"
    lot_size: float = 100.0
    episode_length: int = 1260
    include_position: bool = True
    rate_long: float = 0.15
    rate_short: float = 0.25
    long_term_threshold: float = 252.0
    txn_cost_rate: float = 0.001
    txn_cost_mode: str = "notional"
    short_cover_convention: str = "as-written"
    n_episodes: int = 100
    greedy: bool = False
    checkpoint: str | None = None
    baseline: str | None = None
    checkpoint_no_tax: str | None = None
    checkpoint_with_tax: str | None = None
    trade_log: str | None = None

    def tax_params(self) -> TaxParams:
        return TaxParams(
            rate_long=self.rate_long,
            rate_short=self.rate_short,
            long_term_threshold=self.long_term_threshold,
            txn_cost_rate=self.txn_cost_rate,
            txn_cost_mode=self.txn_cost_mode,
            short_cover_convention=self.short_cover_convention,
        )

    def env_config(self, tax_enabled: bool | None = None) -> EnvConfig:
        return EnvConfig(
            tax_enabled=self.tax if tax_enabled is None else tax_enabled,
            lot_size=self.lot_size,
            episode_length=self.episode_length,
            tax_params=self.tax_params(),
            include_position=self.include_position,
        )

    def ppo_config(self) -> PpoConfig:
        return PpoConfig(
            clip_ratio=self.clip_ratio,
            gae_lambda=self.gae_lambda,
            gamma=self.gamma,
            steps_per_epoch=self.steps_per_epoch,
            epochs=self.epochs,
            policy_lr=self.policy_lr,
            value_lr=self.value_lr,
            policy_update_iters=self.policy_update_iters,
            value_update_iters=self.value_update_iters,
            target_kl=self.target_kl,
            advantage_normalization=self.advantage_normalization,
            entropy_coef=self.entropy_coef,
            optimizer=self.optimizer,
        )


_BOOL_KEYS = {"tax", "advantage_normalization", "include_position", "greedy"}
_CONVERTERS: dict[str, Callable[[str], object]] = {}
for f in fields(RunConfig):
    if f.name in _BOOL_KEYS:
        _CONVERTERS[f.name] = _parse_bool
    elif f.type in ("int",):
        _CONVERTERS[f.name] = int
    elif f.type in ("float",):
        _CONVERTERS[f.name] = float
    else:
        _CONVERTERS[f.name] = str


def _apply_key(cfg: RunConfig, key: str, raw: str, source: str) -> None:
    key = key.strip().replace("-", "_")
    if key not in _CONVERTERS:
        raise ConfigError(f"unknown config key {key!r} (from {source})")
    try:
        setattr(cfg, key, _CONVERTERS[key](raw.strip()))
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad value for {key!r} (from {source}): {exc}") from None


def _load_config_file(cfg: RunConfig, path: str) -> None:
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    for lineno, line in enumerate(config_path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{config_path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        _apply_key(cfg, key, raw, f"{config_path}:{lineno}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        _load_config_file(cfg, args.config)
    for key in _CONVERTERS:
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            _apply_key(cfg, key, env_value, f"env {ENV_PREFIX}{key.upper()}")
    for key in _CONVERTERS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            _apply_key(cfg, key, flag_value, f"flag --{key.replace('_', '-')}")
    return cfg


def _load_series(cfg: RunConfig) -> PriceSeries:
    if not cfg.data:
        raise ConfigError("no data file given; pass --data or set 'data' in config")
    path = Path(cfg.data)
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    return load_csv(path)


# ---------------------------------------------------------------------------
# Evaluation machinery


@dataclass(frozen=True)
class EpisodeStats:
    window_start: int
    episode_return: float
    gain_tax: float
    loss_rebate: float
    txn_cost: float


@dataclass(frozen=True)
class EvalReport:
    n_episodes: int
    mean_return: float
    std_return: float
    episodes: tuple[EpisodeStats, ...]
    total_gain_tax: float
    total_loss_rebate: float
    total_txn_cost: float

    @classmethod
    def from_episodes(cls, episodes: Sequence[EpisodeStats]) -> "EvalReport":
        rets = np.array([e.episode_return for e in episodes])
        std = float(np.std(rets, ddof=1)) if len(rets) > 1 else 0.0
        return cls(
            n_episodes=len(episodes),
            mean_return=float(np.mean(rets)),
            std_return=std,
            episodes=tuple(episodes),
            total_gain_tax=float(sum(e.gain_tax for e in episodes)),
            total_loss_rebate=float(sum(e.loss_rebate for e in episodes)),
            total_txn_cost=float(sum(e.txn_cost for e in episodes)),
        )

    def to_text(self) -> str:
        lines = [
            f"n_episodes: {self.n_episodes}",
            f"mean_return: {self.mean_return!r}",
            f"std_return: {self.std_return!r}",
            f"total_gain_tax: {self.total_gain_tax!r}",
            f"total_loss_rebate: {self.total_loss_rebate!r}",
            f"total_txn_cost: {self.total_txn_cost!r}",
        ]
        return "\n".join(lines) + "\n"


class BatchActor(Protocol):
    """Picks one action per live lane from their observations each tick.

    ``draws`` says whether the actor consumes one uniform per lane per
    step; if it does, it receives them as ``uniforms``, else ``None``.
    """

    draws: bool

    def __call__(
        self, observations: list[np.ndarray], uniforms: np.ndarray | None
    ) -> list[int]: ...


@dataclass(frozen=True)
class PolicyActor:
    """A policy that samples from its logits, or takes their argmax if greedy."""

    policy: nets.MlpParams
    greedy: bool = False

    @property
    def draws(self) -> bool:
        return not self.greedy

    def __call__(
        self, observations: list[np.ndarray], uniforms: np.ndarray | None
    ) -> list[int]:
        logits = nets.forward(self.policy, observations)
        if self.greedy:
            return logits.argmax(axis=-1).tolist()
        return nets.sample_actions(logits, uniforms).tolist()


@dataclass(frozen=True)
class ConstantActor:
    """A scripted baseline: one fixed action, whatever it observes."""

    action: int
    draws: ClassVar[bool] = False

    def __call__(
        self, observations: list[np.ndarray], uniforms: np.ndarray | None
    ) -> list[int]:
        return [self.action] * len(observations)


def bundle_actor(bundle: nets.PolicyBundle, greedy: bool = False) -> PolicyActor:
    return PolicyActor(bundle.policy, greedy)


BASELINES = {"short": 0, "flat": 1, "long": 2}


def baseline_actor(name: str) -> ConstantActor:
    if name not in BASELINES:
        raise ConfigError(f"unknown baseline {name!r}; choose from {sorted(BASELINES)}")
    return ConstantActor(BASELINES[name])


def _lane(env: TradingEnv, window: EpisodeWindow):
    """One episode as a generator: yields observations, is sent actions.

    Returns the episode's ``EpisodeStats`` when the window ends.
    """
    obs = env.reset(window)
    denom = env.config.lot_size * env.first_price
    reward = taxes = rebates = costs = 0.0
    done = False
    while not done:
        transition = env.step((yield obs))
        reward += transition.reward
        taxes += transition.cashflow.gain_tax
        rebates += transition.cashflow.loss_rebate
        costs += transition.cashflow.txn_cost
        obs = transition.observation
        done = transition.done
    return EpisodeStats(
        window_start=window.start_index,
        episode_return=reward / denom,
        gain_tax=taxes,
        loss_rebate=rebates,
        txn_cost=costs,
    )


# Steps of uniforms drawn per lane at once: few generator calls, and a
# small buffer however long the windows are.
_DRAW_BLOCK = 64


def _lane_uniforms(n_lanes: int, seed: int):
    """Yields, step by step, one uniform per lane.

    Lane ``k`` draws from its own (seed, 101, k) stream, ``_DRAW_BLOCK``
    steps at a time: ``random(n)`` gives the same values as ``n`` calls
    of ``random()``. Draws past a lane's last step are never used.
    """
    rngs = [np.random.default_rng([seed, 101, k]) for k in range(n_lanes)]
    while True:
        yield from np.stack([rng.random(_DRAW_BLOCK) for rng in rngs], axis=1)


def run_episodes(
    env: TradingEnv,
    actor: BatchActor,
    windows: Sequence[EpisodeWindow],
    seed: int,
) -> list[EpisodeStats]:
    """Roll one episode per window, all windows in lockstep.

    Each window is a lane with its own environment; ``env`` runs the
    first and the others copy its config and series. Every window is
    reset (and validated) before any lane steps. Each tick makes one
    batched actor call over the live lanes' observations, then steps
    every live lane once; a lane leaves when its window ends. Episode
    ``k`` samples from its own (seed, 101, k) stream, as it would alone.

    Each episode's outputs equal those of playing the windows one at a
    time, except where a logit's last bits decide an action: a B-row
    matrix product can differ from the one-row product in the last bits
    (up to about 1e-17 for a freshly initialized policy), so an action
    changes only if a uniform lands within that distance of a CDF
    boundary, or on a near-tie of logits under ``greedy``.
    """
    envs = [env] + [TradingEnv(env.config, env.series) for _ in windows[1:]]
    lanes = [_lane(e, w) for e, w in zip(envs, windows)]
    obs = [next(lane) for lane in lanes]
    uniforms = _lane_uniforms(len(lanes), seed) if actor.draws else None
    stats: list = [None] * len(lanes)
    live = list(range(len(lanes)))
    live_cols: slice | list[int] = slice(None)
    while live:
        actions = actor(obs, None if uniforms is None else next(uniforms)[live_cols])
        obs = []
        ended = False
        for k, action in zip(live, actions):
            try:
                obs.append(lanes[k].send(action))
            except StopIteration as stop:
                stats[k] = stop.value
                ended = True
        if ended:
            live = live_cols = [k for k in live if stats[k] is None]
    return stats


def _sample_windows(
    series: PriceSeries, length: int, n: int, seed: int
) -> list[EpisodeWindow]:
    rng = np.random.default_rng([seed, 100])
    return [sample_window(series, length, rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Trade-log replay


@dataclass(frozen=True)
class TradeLine:
    """One replayed trade: tax inputs, cashflows, and the resulting position."""

    date: date
    price: float
    position: float
    basis_before: float
    holding_at_trade: float
    gain_tax: float
    loss_rebate: float
    txn_cost: float


def read_trade_log(path: str | Path) -> list[tuple[date, float, float]]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trade log not found: {path}")
    rows: list[tuple[date, float, float]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [
            "date",
            "price",
            "target_position",
        ]:
            raise MarketDataError(
                f"{path}: expected header 'date,price,target_position'"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                d = date.fromisoformat(row[0].strip())
                price = float(row[1])
                target = float(row[2])
            except (ValueError, IndexError) as exc:
                raise MarketDataError(f"{path}:{lineno}: {exc}") from None
            if price <= 0:
                raise MarketDataError(f"{path}:{lineno}: non-positive price {price}")
            if rows and d <= rows[-1][0]:
                raise MarketDataError(
                    f"{path}:{lineno}: date {d} not after previous {rows[-1][0]}"
                )
            rows.append((d, price, target))
    if not rows:
        raise MarketDataError(f"{path}: no trade rows")
    return rows


def replay_trades(
    rows: Sequence[tuple[date, float, float]], params: TaxParams
) -> tuple[list[TradeLine], dict[str, float], BasisState]:
    """Replay dated trades day by day through the ledger.

    Gaps between rows age the open position by one step per weekday at
    the last seen price; the trade itself then executes at the row's
    price. Holding is reported as the position's age at the trade.
    """
    state = BasisState.flat(rows[0][1])
    lines: list[TradeLine] = []
    totals = {"gain_tax": 0.0, "loss_rebate": 0.0, "txn_cost": 0.0}
    prev_date: date | None = None
    prev_price = rows[0][1]
    for d, price, target in rows:
        if prev_date is not None:
            gap = int(np.busday_count(prev_date, d))
            if gap < 1:
                raise MarketDataError(
                    f"trade dates {prev_date} -> {d} span no trading day"
                )
            for _ in range(gap - 1):
                state, _ = step_ledger(state, prev_price, state.position, params)
        holding_at_trade = (
            state.avg_holding + params.dt if state.position != 0 else 0.0
        )
        basis_before = state.avg_basis
        state, cashflow = step_ledger(state, price, target, params)
        totals["gain_tax"] += cashflow.gain_tax
        totals["loss_rebate"] += cashflow.loss_rebate
        totals["txn_cost"] += cashflow.txn_cost
        lines.append(
            TradeLine(
                date=d,
                price=price,
                position=target,
                basis_before=basis_before,
                holding_at_trade=holding_at_trade,
                gain_tax=cashflow.gain_tax,
                loss_rebate=cashflow.loss_rebate,
                txn_cost=cashflow.txn_cost,
            )
        )
        prev_date = d
        prev_price = price
    return lines, totals, state


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(cfg: RunConfig) -> int:
    series = _load_series(cfg)
    out = Path(cfg.out)
    bundle, rows = train(
        cfg.ppo_config(), cfg.env_config(), series, cfg.seed, out_dir=out
    )
    del bundle
    print(f"trained {len(rows)} epochs")
    print(f"checkpoint: {out / 'checkpoint.npz'}")
    print(f"metrics: {out / 'metrics.csv'}")
    return 0


def _write_eval_outputs(
    out: Path, report: EvalReport, prefix: str = "eval"
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{prefix}_report.txt").write_text(report.to_text())
    with (out / f"{prefix}_episodes.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["episode", "window_start", "episode_return", "gain_tax",
             "loss_rebate", "txn_cost"]
        )
        for i, e in enumerate(report.episodes):
            writer.writerow(
                [i, e.window_start, repr(e.episode_return), repr(e.gain_tax),
                 repr(e.loss_rebate), repr(e.txn_cost)]
            )


def cmd_eval(cfg: RunConfig) -> int:
    series = _load_series(cfg)
    if (cfg.checkpoint is None) == (cfg.baseline is None):
        raise ConfigError("eval needs exactly one of --checkpoint or --baseline")
    if cfg.checkpoint is not None:
        if not Path(cfg.checkpoint).exists():
            raise FileNotFoundError(f"checkpoint not found: {cfg.checkpoint}")
        bundle, _ = nets.load_bundle(cfg.checkpoint)
        actor = bundle_actor(bundle, greedy=cfg.greedy)
        env_probe = TradingEnv(cfg.env_config(), series)
        if bundle.policy.in_dim != env_probe.obs_dim:
            raise ConfigError(
                f"checkpoint expects {bundle.policy.in_dim} features, "
                f"environment provides {env_probe.obs_dim}"
            )
    else:
        actor = baseline_actor(cfg.baseline)
    env = TradingEnv(cfg.env_config(), series)
    windows = _sample_windows(series, cfg.episode_length, cfg.n_episodes, cfg.seed)
    report = EvalReport.from_episodes(run_episodes(env, actor, windows, cfg.seed))
    _write_eval_outputs(Path(cfg.out), report)
    print(report.to_text(), end="")
    return 0


def cmd_cross_eval(cfg: RunConfig) -> int:
    series = _load_series(cfg)
    if cfg.checkpoint_no_tax is None or cfg.checkpoint_with_tax is None:
        raise ConfigError(
            "cross-eval needs --checkpoint-no-tax and --checkpoint-with-tax"
        )
    for path in (cfg.checkpoint_no_tax, cfg.checkpoint_with_tax):
        if not Path(path).exists():
            raise FileNotFoundError(f"checkpoint not found: {path}")
    naive, _ = nets.load_bundle(cfg.checkpoint_no_tax)
    aware, _ = nets.load_bundle(cfg.checkpoint_with_tax)
    windows = _sample_windows(series, cfg.episode_length, cfg.n_episodes, cfg.seed)
    taxed_env = TradingEnv(cfg.env_config(tax_enabled=True), series)
    aware_stats = run_episodes(
        taxed_env, bundle_actor(aware, cfg.greedy), windows, cfg.seed
    )
    naive_stats = run_episodes(
        taxed_env, bundle_actor(naive, cfg.greedy), windows, cfg.seed
    )
    aware_starts = [e.window_start for e in aware_stats]
    naive_starts = [e.window_start for e in naive_stats]
    if aware_starts != naive_starts:
        raise RuntimeError("cross-eval window mismatch between policies")
    mean_aware = float(np.mean([e.episode_return for e in aware_stats]))
    mean_naive = float(np.mean([e.episode_return for e in naive_stats]))
    # The relative loss divides by mean_aware, so its sign flips when
    # mean_aware <= 0; the absolute gap beside it does not.
    absolute_gap = mean_aware - mean_naive
    relative_loss = absolute_gap / mean_aware if mean_aware != 0 else float("nan")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report = "\n".join(
        [
            f"n_episodes: {len(windows)}",
            f"mean_return_tax_aware: {mean_aware!r}",
            f"mean_return_tax_naive: {mean_naive!r}",
            f"absolute_gap: {absolute_gap!r}",
            f"relative_loss: {relative_loss!r}",
            "windows_identical: true",
        ]
    ) + "\n"
    (out / "cross_eval_report.txt").write_text(report)
    with (out / "cross_eval_episodes.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["episode", "window_start", "return_tax_aware", "return_tax_naive"]
        )
        for i, (a, b) in enumerate(zip(aware_stats, naive_stats)):
            writer.writerow(
                [i, a.window_start, repr(a.episode_return), repr(b.episode_return)]
            )
    print(report, end="")
    return 0


def cmd_ledger_report(cfg: RunConfig) -> int:
    if cfg.trade_log is None:
        raise ConfigError("ledger-report needs --trade-log")
    rows = read_trade_log(cfg.trade_log)
    lines, totals, final_state = replay_trades(rows, cfg.tax_params())
    header = (
        f"{'date':<12}{'price':>10}{'position':>10}{'basis':>10}"
        f"{'held_days':>10}{'held_yrs':>9}{'gain_tax':>12}{'rebate':>12}{'cost':>10}"
    )
    print(header)
    for line in lines:
        print(
            f"{line.date.isoformat():<12}{line.price:>10.2f}{line.position:>10.0f}"
            f"{line.basis_before:>10.2f}{line.holding_at_trade:>10.1f}"
            f"{line.holding_at_trade / 252.0:>9.2f}{line.gain_tax:>12.2f}"
            f"{line.loss_rebate:>12.2f}{line.txn_cost:>10.2f}"
        )
    print(
        f"totals: gain_tax={totals['gain_tax']:.2f} "
        f"loss_rebate={totals['loss_rebate']:.2f} "
        f"txn_cost={totals['txn_cost']:.2f} "
        f"final_position={final_state.position:.0f}"
    )
    return 0


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "cross-eval": cmd_cross_eval,
    "ledger-report": cmd_ledger_report,
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key = value config file")
    for key in _CONVERTERS:
        flag = "--" + key.replace("_", "-")
        metavar = "on|off" if key in _BOOL_KEYS else "VALUE"
        shared.add_argument(flag, dest=key, metavar=metavar, default=None)
    parser = argparse.ArgumentParser(
        prog="taxtrader",
        description="Tax-aware trading simulator and PPO trainer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train a policy and write checkpoint + metrics"),
        ("eval", "evaluate a checkpoint or scripted baseline"),
        ("cross-eval", "compare two checkpoints in the taxed environment"),
        ("ledger-report", "replay a trade log through the tax ledger"),
    ):
        sub.add_parser(name, parents=[shared], help=help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except (
        ConfigError,
        MarketDataError,
        FileNotFoundError,
        NotImplementedError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
