"""The four benchmark workloads and the checks on their outputs.

Every workload is one operation made from the seed. The closed loop
repeats it while time remains; each repeat must reproduce the first
one's outputs exactly, and their digest is printed so that two runs of
one seed can be compared.

* ``train``: one epoch of ``ppo.train`` in the taxed environment at the
  default 5000 steps and one-year episodes, writing ``metrics.csv`` and ``checkpoint.npz`` (the
  ``taxtrader train`` path). Update-heavy.
* ``eval``: ``cli.run_episodes`` with a sampled policy from a seeded
  ``init_bundle`` round-tripped through ``save_bundle``/``load_bundle``.
  All rollout; the near-uniform policy trades on most steps.
* ``hold``: the same windows with the always-long baseline: no ``nets``
  calls and nothing realized, so ``env.step`` and the ledger are the
  whole step.
* ``protocol``: the two-environment comparison for one seed through the
  protocol entry point at one epoch and one-year windows: two trainings
  and three shared-window evaluations.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import math
import shutil
from pathlib import Path

import numpy as np

from taxtrader import cli, market_data, nets, ppo
from taxtrader.env import EnvConfig, TradingEnv
from taxtrader.ledger import TaxParams

DATA = Path("data") / "synthetic_daily.csv"
PROTOCOL_SCRIPT = Path("scripts") / "run_paper_protocol.py"
EPISODE_LENGTH = 1260
EVAL_WINDOWS = 16
# One epoch of the default configuration, with the KL early stop off: the
# stop fires after anywhere from 9 to 80 policy iterations depending on the
# seed (epoch 0, seeds 0-19), which would make the work of a run depend on
# its seed more than on the code. With it off every epoch runs all 80.
TRAINING = ppo.PpoConfig(epochs=1, target_kl=math.inf)
# Training and the protocol run one-year episodes: a protocol operation
# stays short enough to repeat, and an epoch holds about 20 episodes, not 3.
TRAINING_EPISODE_LENGTH = 252
PROTOCOL_WINDOWS = 100  # fixed inside the entry point's run_seed


class CheckFailed(Exception):
    """An output of one operation is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _arrays_digest(arrays) -> bytes:
    """Hash of float arrays, each checked finite."""
    h = hashlib.sha256()
    for a in arrays:
        _require(bool(np.all(np.isfinite(a))), "non-finite network weight")
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _seeded_windows(series, seed: int, n: int, length: int = EPISODE_LENGTH):
    rng = np.random.default_rng([seed, 100])
    return [market_data.sample_window(series, length, rng) for _ in range(n)]


def _check_episodes(stats, windows) -> list:
    """Shared checks on one actor's EpisodeStats; returns their digest parts."""
    _require(len(stats) == len(windows), "episode count differs from windows")
    _require([e.window_start for e in stats] == [w.start_index for w in windows],
             "episode window starts differ from the shared windows")
    parts = []
    for e in stats:
        values = (e.episode_return, e.gain_tax, e.loss_rebate, e.txn_cost)
        _require(all(math.isfinite(v) for v in values), "non-finite episode output")
        _require(min(values[1:]) >= 0.0, "negative tax, rebate or cost")
        parts.extend(values)
    return parts


def _metrics_rows(path: Path) -> list:
    """metrics.csv rows without the wall-clock column, checked finite."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    parts = []
    for row in rows:
        row.pop("wall_seconds", None)
        values = [float(v) for v in row.values()]
        _require(all(math.isfinite(v) for v in values), "non-finite metrics.csv value")
        parts.append(values)
    return parts


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, work: Path, tracer):
        self.root = root
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.env_config = EnvConfig()

    def setup(self) -> None:
        """Everything the loop needs; ``prepare`` plus one-time work."""
        self.prepare()

    def prepare(self) -> None:
        """Set-up that can be repeated: read the data, build the inputs."""
        self.series = market_data.load_csv(self.root / DATA)

    def begin(self, index: int) -> None:
        """Untimed preparation of repeat ``index``."""

    def steps(self) -> int:
        """Environment steps in one operation."""
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check(self, output) -> str:
        """Raise CheckFailed on a wrong output; return the output's digest."""
        raise NotImplementedError


class Train(Workload):
    name = "train"

    def prepare(self) -> None:
        super().prepare()
        self.config = TRAINING
        self.env_config = EnvConfig(episode_length=TRAINING_EPISODE_LENGTH)

    def begin(self, index: int) -> None:
        self.out = self.work / f"train-{index}"
        shutil.rmtree(self.out, ignore_errors=True)

    def steps(self) -> int:
        return self.config.steps_per_epoch

    def run(self):
        return ppo.train(self.config, self.env_config, self.series, self.seed,
                         out_dir=self.out)

    def check(self, output) -> str:
        bundle, rows = output
        _require(len(rows) == 1, "train did not run exactly one epoch")
        written = _metrics_rows(self.out / "metrics.csv")
        _require(len(written) == 1, "metrics.csv row count differs from epochs")
        with np.load(self.out / "checkpoint.npz", allow_pickle=False) as ckpt:
            _require(int(ckpt["meta_epoch"]) == 1, "checkpoint epoch is stale")
        weights = _arrays_digest(bundle.policy.arrays() + bundle.value.arrays())
        return _digest([written, weights])


class Eval(Workload):
    name = "eval"

    def prepare(self) -> None:
        super().prepare()
        self.windows = _seeded_windows(self.series, self.seed, EVAL_WINDOWS)
        self.env = TradingEnv(self.env_config, self.series)
        self.actor = self.make_actor()

    def make_actor(self):
        fresh = nets.init_bundle(np.random.default_rng([self.seed, 1]),
                                 self.env.obs_dim)
        path = self.work / "policy.npz"
        nets.save_bundle(path, fresh)
        bundle, _ = nets.load_bundle(path)
        return cli.bundle_actor(bundle)

    def steps(self) -> int:
        return sum(w.length for w in self.windows)

    def run(self):
        return cli.run_episodes(self.env, self.actor, self.windows, self.seed)

    def check(self, output) -> str:
        self.tracer.take_eval_results()
        return _digest(_check_episodes(output, self.windows))


class Hold(Eval):
    name = "hold"

    def make_actor(self):
        return cli.baseline_actor("long")

    def check(self, output) -> str:
        digest = super().check(output)
        closes = self.series.closes
        rate = TaxParams().txn_cost_rate
        for e, w in zip(output, self.windows):
            p0 = closes[w.start_index]
            p1 = closes[w.start_index + 1]
            p_end = closes[w.start_index + w.length]
            expected = (p_end - p1 - rate * p1) / p0
            _require(abs(e.episode_return - expected) <= 1e-9,
                     f"hold return {e.episode_return!r} != closed form {expected!r}")
            _require(e.gain_tax == 0.0 and e.loss_rebate == 0.0,
                     "tax or rebate charged though nothing was realized")
        return digest


class Protocol(Workload):
    name = "protocol"

    def setup(self) -> None:
        super().setup()
        self.module = load_protocol_module(self.root)

    def prepare(self) -> None:
        super().prepare()
        self.config = TRAINING

    def begin(self, index: int) -> None:
        self.out = self.work / f"protocol-{index}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def steps(self) -> int:
        return (2 * self.config.epochs * self.config.steps_per_epoch
                + 3 * PROTOCOL_WINDOWS * TRAINING_EPISODE_LENGTH)

    def run(self):
        return self.module.run_seed(self.series, self.seed, self.config,
                                    TRAINING_EPISODE_LENGTH, self.out)

    def check(self, output) -> str:
        _require(all(math.isfinite(v) for v in output), "non-finite protocol mean")
        evals = self.tracer.take_eval_results()
        _require(len(evals) == 3, f"expected 3 evaluations, saw {len(evals)}")
        windows = _seeded_windows(self.series, self.seed, PROTOCOL_WINDOWS,
                                  TRAINING_EPISODE_LENGTH)
        parts = [output]
        for stats in evals:
            parts.extend(_check_episodes(stats, windows))
        for label in ("no_tax", "with_tax"):
            run_dir = self.out / f"seed{self.seed}_{label}"
            rows = _metrics_rows(run_dir / "metrics.csv")
            _require(len(rows) == self.config.epochs, f"{label}: metrics rows")
            with np.load(run_dir / "checkpoint.npz", allow_pickle=False) as ckpt:
                weights = _arrays_digest(ckpt[k] for k in sorted(ckpt.files)
                                         if ckpt[k].dtype.kind == "f")
            parts.extend([rows, weights])
        parts.append((self.out / f"seed{self.seed}_episodes.csv").read_bytes())
        return _digest(parts)


def load_protocol_module(root: Path):
    path = root / PROTOCOL_SCRIPT
    spec = importlib.util.spec_from_file_location("run_paper_protocol", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = {w.name: w for w in (Train, Eval, Hold, Protocol)}
