"""Command-line front end: train, evaluate, cross-evaluate, ledger reports.

Configuration values resolve in increasing precedence: built-in defaults,
a flat ``key = value`` config file (``--config``), environment variables
prefixed ``TAXTRADER_``, then command-line flags of the same name. Apart
from the command line's own keys (``RunConfig``), every key is a field of
``EnvConfig``, ``TaxParams`` or ``PpoConfig``, which defines its default
and checks its value.

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
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import date
from pathlib import Path
from typing import Callable, ClassVar, Protocol, Sequence

import numpy as np

from . import nets
from .env import EnvConfig, TradingEnv
from .ledger import DAYS_PER_STEP, BasisState, TaxParams, step_ledger
from .market_data import (
    EpisodeWindow,
    MarketDataError,
    PriceSeries,
    load_csv,
    sample_window,
)
from .ppo import PpoConfig, train

ENV_PREFIX = "TAXTRADER_"

__all__ = ["main", "RunConfig", "CONFIG_KEYS", "EvalReport", "run_episodes",
           "sample_windows", "tax_gap", "replay_trades"]


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
    """The command line's own settings, plus the environment (with its
    tax parameters) and training configs that hold every other setting."""

    data: str | None = None
    out: str = "out"
    seed: int = 0
    n_episodes: int = 100
    greedy: bool = False
    checkpoint: str | None = None
    baseline: str | None = None
    checkpoint_no_tax: str | None = None
    checkpoint_with_tax: str | None = None
    trade_log: str | None = None
    env: EnvConfig = field(default_factory=EnvConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)

    def __post_init__(self) -> None:
        if self.n_episodes < 1:
            raise ConfigError(f"n_episodes must be >= 1, got {self.n_episodes}")


@dataclass(frozen=True)
class ConfigKey:
    """Where one config key lands: a field of ``owner``, parsed by ``parse``."""

    owner: type
    name: str
    parse: Callable[[str], object]


_OWNERS = (RunConfig, EnvConfig, TaxParams, PpoConfig)
# Keys named differently from their field.
_KEY_NAMES = {"tax_enabled": "tax"}


def _parser_for(default: object) -> Callable[[str], object]:
    # bool before int: a bool is an int too.
    for kind, parse in ((bool, _parse_bool), (int, int), (float, float)):
        if isinstance(default, kind):
            return parse
    return str


def _key_table() -> dict[str, ConfigKey]:
    """One key per field with a plain default; nested configs have none."""
    table = {}
    for owner in _OWNERS:
        for f in fields(owner):
            if f.default is not MISSING:
                key = _KEY_NAMES.get(f.name, f.name)
                table[key] = ConfigKey(owner, f.name, _parser_for(f.default))
    return table


CONFIG_KEYS = _key_table()


def _apply_key(values: dict, key: str, raw: str, source: str) -> None:
    key = key.strip().replace("-", "_")
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r} (from {source})")
    try:
        values[key] = CONFIG_KEYS[key].parse(raw.strip())
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad value for {key!r} (from {source}): {exc}") from None


def _load_config_file(values: dict, path: str) -> None:
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
        _apply_key(values, key, raw, f"{config_path}:{lineno}")


def _build_config(values: dict) -> RunConfig:
    """The configs from the resolved values; each validates its own fields."""
    given: dict[type, dict] = {owner: {} for owner in _OWNERS}
    for key, value in values.items():
        target = CONFIG_KEYS[key]
        given[target.owner][target.name] = value
    env = EnvConfig(tax_params=TaxParams(**given[TaxParams]), **given[EnvConfig])
    return RunConfig(env=env, ppo=PpoConfig(**given[PpoConfig]), **given[RunConfig])


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, object] = {}
    if args.config:
        _load_config_file(values, args.config)
    for key in CONFIG_KEYS:
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            _apply_key(values, key, env_value, f"env {ENV_PREFIX}{key.upper()}")
    for key in CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            _apply_key(values, key, flag_value, f"flag --{key.replace('_', '-')}")
    return _build_config(values)


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


def sample_windows(
    series: PriceSeries, length: int, n: int, seed: int
) -> list[EpisodeWindow]:
    """The ``n`` evaluation windows of ``seed``, drawn from its (seed, 100) stream."""
    rng = np.random.default_rng([seed, 100])
    return [sample_window(series, length, rng) for _ in range(n)]


def tax_gap(mean_aware: float, mean_naive: float) -> tuple[float, float]:
    """The absolute gap and the relative loss of tax-naive against tax-aware.

    The relative loss divides the gap by ``mean_aware``, so its sign flips
    when ``mean_aware <= 0``; the absolute gap's does not.
    """
    gap = mean_aware - mean_naive
    return gap, gap / mean_aware if mean_aware != 0 else float("nan")


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
            state.avg_holding + DAYS_PER_STEP if state.position != 0 else 0.0
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
    _, rows = train(cfg.ppo, cfg.env, series, cfg.seed, out_dir=out)
    print(f"trained {len(rows)} epochs")
    print(f"checkpoint: {out / 'checkpoint.npz'}")
    print(f"metrics: {out / 'metrics.csv'}")
    return 0


def _write_eval_outputs(out: Path, report: EvalReport) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval_report.txt").write_text(report.to_text())
    with (out / "eval_episodes.csv").open("w", newline="") as fh:
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


def _load_policy(path: str, env: TradingEnv) -> nets.PolicyBundle:
    """The checkpoint at ``path``, refused unless it fits ``env``'s features."""
    if not Path(path).exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    bundle, _ = nets.load_bundle(path)
    nets.check_obs_dim(bundle, env.obs_dim, path)
    return bundle


def cmd_eval(cfg: RunConfig) -> int:
    series = _load_series(cfg)
    if (cfg.checkpoint is None) == (cfg.baseline is None):
        raise ConfigError("eval needs exactly one of --checkpoint or --baseline")
    env = TradingEnv(cfg.env, series)
    if cfg.checkpoint is not None:
        actor = bundle_actor(_load_policy(cfg.checkpoint, env), cfg.greedy)
    else:
        actor = baseline_actor(cfg.baseline)
    windows = sample_windows(series, cfg.env.episode_length, cfg.n_episodes, cfg.seed)
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
    taxed_env = TradingEnv(replace(cfg.env, tax_enabled=True), series)
    naive = _load_policy(cfg.checkpoint_no_tax, taxed_env)
    aware = _load_policy(cfg.checkpoint_with_tax, taxed_env)
    windows = sample_windows(series, cfg.env.episode_length, cfg.n_episodes, cfg.seed)
    aware_stats = run_episodes(
        taxed_env, bundle_actor(aware, cfg.greedy), windows, cfg.seed
    )
    naive_stats = run_episodes(
        taxed_env, bundle_actor(naive, cfg.greedy), windows, cfg.seed
    )
    mean_aware = float(np.mean([e.episode_return for e in aware_stats]))
    mean_naive = float(np.mean([e.episode_return for e in naive_stats]))
    absolute_gap, relative_loss = tax_gap(mean_aware, mean_naive)
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
    lines, totals, final_state = replay_trades(rows, cfg.env.tax_params)
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
    for key, target in CONFIG_KEYS.items():
        flag = "--" + key.replace("_", "-")
        metavar = "on|off" if target.parse is _parse_bool else "VALUE"
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
    # Config, data and checkpoint errors are ValueErrors or OSErrors.
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
