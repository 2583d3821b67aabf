"""Proximal policy optimization with a clipped surrogate and GAE.

Rollouts, advantage estimation, and full-batch gradient updates over the
fixed-length trajectory buffer. Each epoch is self-contained: fresh
windows are sampled from the epoch's own seeded stream, so a run resumed
from a checkpoint replays the remaining epochs exactly.

Rewards enter the buffer scaled by each episode's initial lot notional
(the same normalization the observations use), so value targets are
order one regardless of price level or lot size. Reported episode
returns use the same unit; cash semantics stay with the environment.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nets
from .env import EnvConfig, TradingEnv
from .market_data import PriceSeries, sample_window
from .nets import PolicyBundle

__all__ = [
    "PpoConfig",
    "TrajectoryBuffer",
    "compute_gae",
    "clipped_policy_loss",
    "value_loss",
    "run_epoch",
    "train",
    "METRIC_FIELDS",
]

METRIC_FIELDS = (
    "epoch",
    "mean_episode_return",
    "policy_loss",
    "value_loss",
    "kl",
    "entropy",
    "wall_seconds",
)


@dataclass
class PpoConfig:
    clip_ratio: float = 0.2
    gae_lambda: float = 0.97
    gamma: float = 0.99
    steps_per_epoch: int = 5000
    epochs: int = 50
    policy_lr: float = 1e-3
    value_lr: float = 3e-4
    policy_update_iters: int = 80
    value_update_iters: int = 80
    target_kl: float = 0.015
    advantage_normalization: bool = True
    entropy_coef: float = 0.0
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError("clip_ratio must be in (0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.steps_per_epoch < 1 or self.epochs < 0:
            raise ValueError("steps_per_epoch must be >= 1 and epochs >= 0")


class TrajectoryBuffer:
    """Fixed-length rollout storage; advantages are finalized exactly once."""

    def __init__(self, obs_dim: int, capacity: int):
        self.capacity = capacity
        self.observations = np.zeros((capacity, obs_dim))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.values = np.zeros(capacity)
        self.log_probs = np.zeros(capacity)
        self.dones = np.zeros(capacity, dtype=bool)
        self.advantages = np.zeros(capacity)
        self.returns = np.zeros(capacity)
        self.ptr = 0
        self.finalized = False

    def store(
        self,
        obs: np.ndarray,
        action: int,
        reward: float,
        value: float,
        log_prob: float,
        done: bool,
    ) -> None:
        if self.ptr >= self.capacity:
            raise IndexError("buffer full")
        i = self.ptr
        self.observations[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.values[i] = value
        self.log_probs[i] = log_prob
        self.dones[i] = done
        self.ptr += 1

    def finalize(
        self, last_value: float, gamma: float, lam: float, normalize: bool
    ) -> None:
        """Compute advantages and returns; must run before any update."""
        if self.finalized:
            raise RuntimeError("buffer already finalized this epoch")
        if self.ptr != self.capacity:
            raise RuntimeError(f"buffer holds {self.ptr}/{self.capacity} steps")
        values = np.append(self.values, last_value)
        adv, ret = compute_gae(self.rewards, values, self.dones, gamma, lam)
        self.returns[:] = ret
        if normalize:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        self.advantages[:] = adv
        self.finalized = True


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Discounted sums of TD residuals within each segment.

    ``values`` has one trailing bootstrap entry past the last step; steps
    flagged done terminate their segment, cutting both the bootstrap and
    the advantage recursion. Returns are advantages plus values.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    n = len(rewards)
    if len(values) != n + 1 or len(dones) != n:
        raise ValueError(
            f"length mismatch: {n} rewards, {len(values)} values, {len(dones)} dones"
        )
    advantages = np.empty(n)
    last = 0.0
    for t in reversed(range(n)):
        live = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * values[t + 1] * live - values[t]
        last = delta + gamma * lam * live * last
        advantages[t] = last
    return advantages, advantages + values[:-1]


def clipped_policy_loss(
    log_probs_new: np.ndarray,
    log_probs_old: np.ndarray,
    advantages: np.ndarray,
    clip_ratio: float,
) -> tuple[float, np.ndarray]:
    """Negative clipped surrogate and its gradient wrt the new log-probs."""
    log_probs_new = np.asarray(log_probs_new, dtype=np.float64)
    log_probs_old = np.asarray(log_probs_old, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    if not len(log_probs_new) == len(log_probs_old) == len(advantages):
        raise ValueError("batch length mismatch")
    with np.errstate(over="ignore"):
        ratio = np.exp(log_probs_new - log_probs_old)
    if not np.all(np.isfinite(ratio)):
        raise FloatingPointError("non-finite importance ratio")
    surr = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * advantages
    loss = -float(np.mean(np.minimum(surr, clipped)))
    # Gradient flows through the ratio only where the unclipped branch
    # attains the min (ties included: inside the clip band both agree).
    active = surr <= clipped
    grad = np.where(active, -surr / len(surr), 0.0)
    return loss, grad


def value_loss(values_pred: np.ndarray, returns: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient wrt the predictions."""
    values_pred = np.asarray(values_pred, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    if len(values_pred) != len(returns):
        raise ValueError("batch length mismatch")
    diff = values_pred - returns
    return float(np.mean(diff**2)), 2.0 * diff / len(diff)


def _entropy_terms(
    log_probs_all: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample entropies and d(entropy)/d(logits) for a batch of logits.

    ``probs`` is ``exp(log_probs_all)``, which the caller already holds.
    """
    entropies = -np.sum(probs * log_probs_all, axis=1)
    grads = -probs * (log_probs_all + entropies[:, None])
    return entropies, grads


def _policy_update(
    bundle: PolicyBundle,
    buffer: TrajectoryBuffer,
    config: PpoConfig,
    buffers: dict,
) -> tuple[float, float, float, int]:
    """Full-batch clipped-gradient steps with KL early stopping.

    ``buffers`` holds the batch-sized scratch arrays of ``nets`` across
    iterations, so only the first iteration allocates them.
    """
    obs = buffer.observations
    actions = buffer.actions
    logp_old = buffer.log_probs
    adv = buffer.advantages
    n = len(actions)
    rows = np.arange(n)
    first_loss = 0.0
    first_entropy = 0.0
    kl = 0.0
    iters_done = 0
    for i in range(config.policy_update_iters):
        logits, cache = nets.forward_cached(bundle.policy, obs, buffers)
        logp_all = nets.log_softmax(logits)
        logp_new = logp_all[rows, actions]
        kl = float(np.mean(logp_old - logp_new))
        probs = np.exp(logp_all)
        if i == 0 or config.entropy_coef != 0.0:
            entropies, entropy_grads = _entropy_terms(logp_all, probs)
        loss, dlogp = clipped_policy_loss(logp_new, logp_old, adv, config.clip_ratio)
        if i == 0:
            first_loss = loss
            first_entropy = float(np.mean(entropies))
        if kl > config.target_kl:
            break
        dlogits = dlogp[:, None] * (-probs)
        dlogits[rows, actions] += dlogp
        if config.entropy_coef != 0.0:
            dlogits -= (config.entropy_coef / n) * entropy_grads
        grads, _ = nets.backward(bundle.policy, cache, dlogits, buffers)
        nets.apply_update(
            bundle.policy, grads, bundle.policy_opt, config.policy_lr, config.optimizer
        )
        iters_done += 1
    return first_loss, first_entropy, kl, iters_done


def _value_update(
    bundle: PolicyBundle,
    buffer: TrajectoryBuffer,
    config: PpoConfig,
    buffers: dict,
) -> float:
    """Full-batch squared-error steps; ``buffers`` as in ``_policy_update``."""
    obs = buffer.observations
    returns = buffer.returns
    first_loss = 0.0
    for i in range(config.value_update_iters):
        preds, cache = nets.forward_cached(bundle.value, obs, buffers)
        loss, dv = value_loss(preds[:, 0], returns)
        if i == 0:
            first_loss = loss
        grads, _ = nets.backward(bundle.value, cache, dv[:, None], buffers)
        nets.apply_update(
            bundle.value, grads, bundle.value_opt, config.value_lr, config.optimizer
        )
    return first_loss


def run_epoch(
    env: TradingEnv,
    bundle: PolicyBundle,
    config: PpoConfig,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Collect one buffer of experience and update both networks.

    Episodes are cut at the buffer boundary with a value bootstrap;
    completed episodes report their normalized return.
    """
    cfg_env = env.config
    buffer = TrajectoryBuffer(env.obs_dim, config.steps_per_epoch)
    obs = env.reset(sample_window(env.series, cfg_env.episode_length, rng))
    scale = 1.0 / (cfg_env.lot_size * env.first_price)
    ep_return = 0.0
    ep_returns: list[float] = []
    transition = None
    for _ in range(config.steps_per_epoch):
        logits = nets.forward(bundle.policy, obs)
        action, logp = nets.sample_action(logits, rng)
        value = float(nets.forward(bundle.value, obs)[0])
        transition = env.step(action)
        buffer.store(
            obs, action, transition.reward * scale, value, logp, transition.done
        )
        ep_return += transition.reward * scale
        obs = transition.observation
        if transition.done:
            ep_returns.append(ep_return)
            ep_return = 0.0
            obs = env.reset(sample_window(env.series, cfg_env.episode_length, rng))
            scale = 1.0 / (cfg_env.lot_size * env.first_price)
    assert transition is not None
    last_value = 0.0 if transition.done else float(nets.forward(bundle.value, obs)[0])
    buffer.finalize(
        last_value, config.gamma, config.gae_lambda, config.advantage_normalization
    )
    # One set of batch-sized scratch arrays serves both update phases.
    buffers: dict = {}
    policy_loss, entropy, kl, _ = _policy_update(bundle, buffer, config, buffers)
    vloss = _value_update(bundle, buffer, config, buffers)
    mean_return = float(np.mean(ep_returns)) if ep_returns else ep_return
    return {
        "mean_episode_return": mean_return,
        "policy_loss": policy_loss,
        "value_loss": vloss,
        "kl": kl,
        "entropy": entropy,
    }


def _restart_metrics(path: Path, start_epoch: int) -> None:
    """Rewrite ``path`` as its header plus the rows of epochs before ``start_epoch``.

    A run writes an epoch's row before that epoch's checkpoint, so a run
    that stopped between the two left a row that its resumed run writes
    again. The file is replaced by a rename, so it is never left torn.
    """
    kept = []
    if start_epoch > 0 and path.exists():
        with path.open(newline="") as fh:
            kept = [r for r in csv.DictReader(fh) if int(r["epoch"]) < start_epoch]
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_FIELDS)
        writer.writeheader()
        writer.writerows(kept)
    os.replace(tmp, path)


def train(
    config: PpoConfig,
    env_config: EnvConfig,
    series: PriceSeries,
    seed: int,
    out_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> tuple[PolicyBundle, list[dict[str, float]]]:
    """Run the epoch loop; optionally checkpoint and log metrics per epoch.

    Fully seed-deterministic: epoch ``k`` always consumes the stream
    seeded by ``(seed, k)``, so resuming from the checkpoint written
    after epoch ``k`` reproduces an uninterrupted run's remaining epochs.
    """
    env = TradingEnv(env_config, series)
    start_epoch = 0
    if resume_from is not None:
        bundle, meta = nets.load_bundle(resume_from)
        start_epoch = meta.get("epoch", 0)
        if bundle.policy.in_dim != env.obs_dim:
            raise ValueError(
                f"checkpoint expects {bundle.policy.in_dim} features, "
                f"environment provides {env.obs_dim}"
            )
    else:
        bundle = nets.init_bundle(
            np.random.default_rng([seed, 0]), env.obs_dim, optimizer=config.optimizer
        )

    out_path = Path(out_dir) if out_dir is not None else None
    metrics_file = None
    writer = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        metrics_path = out_path / "metrics.csv"
        _restart_metrics(metrics_path, start_epoch)
        metrics_file = metrics_path.open("a", newline="")
        writer = csv.DictWriter(metrics_file, fieldnames=METRIC_FIELDS)

    metrics_rows: list[dict[str, float]] = []
    try:
        for epoch in range(start_epoch, config.epochs):
            t0 = time.perf_counter()
            rng = np.random.default_rng([seed, 1 + epoch])
            row = run_epoch(env, bundle, config, rng)
            row["epoch"] = epoch
            row["wall_seconds"] = time.perf_counter() - t0
            metrics_rows.append(row)
            if writer is not None:
                writer.writerow({k: row[k] for k in METRIC_FIELDS})
                metrics_file.flush()
            if out_path is not None:
                nets.save_bundle(
                    out_path / "checkpoint.npz",
                    bundle,
                    meta={"epoch": epoch + 1, "seed": seed},
                )
    finally:
        if metrics_file is not None:
            metrics_file.close()
    return bundle, metrics_rows
