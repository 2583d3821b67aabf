#!/usr/bin/env python3
"""Full tax-aware versus tax-naive comparison at experiment scale.

For each seed: train one policy in the tax-free environment and one in
the taxed environment (50 epochs x 5000 steps each by default), then
evaluate both in the taxed environment over 100 shared five-year
windows, plus the tax-free policy in its own environment. Prints a
per-seed table and writes the plot-ready per-episode CSVs.

Expected picture: the taxed environment's own policy keeps more of its
return than the tax-free policy dropped into the taxed world, and the
tax-free environment's return tops both.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from taxtrader.cli import bundle_actor, run_episodes
from taxtrader.env import EnvConfig, TradingEnv
from taxtrader.market_data import load_csv, sample_window
from taxtrader.ppo import PpoConfig, train

DEFAULT_DATA = Path(__file__).resolve().parents[1] / "data" / "synthetic_daily.csv"


def run_seed(series, seed, ppo_config, episode_length, out_dir):
    bundles = {}
    for taxed in (False, True):
        env_config = EnvConfig(tax_enabled=taxed, episode_length=episode_length)
        label = "with_tax" if taxed else "no_tax"
        bundle, _ = train(
            ppo_config,
            env_config,
            series,
            seed,
            out_dir=out_dir / f"seed{seed}_{label}",
        )
        bundles[taxed] = bundle

    rng = np.random.default_rng([seed, 100])
    windows = [sample_window(series, episode_length, rng) for _ in range(100)]
    taxed_env = TradingEnv(
        EnvConfig(tax_enabled=True, episode_length=episode_length), series
    )
    free_env = TradingEnv(
        EnvConfig(tax_enabled=False, episode_length=episode_length), series
    )
    aware = run_episodes(taxed_env, bundle_actor(bundles[True]), windows, seed)
    naive = run_episodes(taxed_env, bundle_actor(bundles[False]), windows, seed)
    free = run_episodes(free_env, bundle_actor(bundles[False]), windows, seed)

    with (out_dir / f"seed{seed}_episodes.csv").open("w") as fh:
        fh.write("episode,window_start,return_no_tax_env,return_tax_aware,"
                 "return_tax_naive\n")
        for i, (f, a, n) in enumerate(zip(free, aware, naive)):
            fh.write(
                f"{i},{a.window_start},{f.episode_return!r},"
                f"{a.episode_return!r},{n.episode_return!r}\n"
            )
    return (
        float(np.mean([e.episode_return for e in free])),
        float(np.mean([e.episode_return for e in aware])),
        float(np.mean([e.episode_return for e in naive])),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", type=Path, default=DEFAULT_DATA)
    parser.add_argument("--out", type=Path, default=Path("out/protocol"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--steps-per-epoch", type=int, default=5000)
    parser.add_argument("--episode-length", type=int, default=1260)
    args = parser.parse_args()

    series = load_csv(args.data)
    args.out.mkdir(parents=True, exist_ok=True)
    ppo_config = PpoConfig(epochs=args.epochs, steps_per_epoch=args.steps_per_epoch)

    print(f"{'seed':>6} {'no-tax env':>12} {'tax-aware':>12} {'tax-naive':>12} "
          f"{'abs gap':>10} {'rel loss':>10}")
    started = time.perf_counter()
    for seed in args.seeds:
        free, aware, naive = run_seed(
            series, seed, ppo_config, args.episode_length, args.out
        )
        # The relative loss flips sign when aware <= 0; the gap does not.
        gap = aware - naive
        rel = gap / aware if aware != 0 else float("nan")
        print(f"{seed:>6} {free:>12.4f} {aware:>12.4f} {naive:>12.4f} {gap:>10.4f} "
              f"{rel:>10.3f}")
    print(f"total {time.perf_counter() - started:.0f}s; outputs in {args.out}")


if __name__ == "__main__":
    main()
