"""GAE, clipped surrogate, update mechanics, and trainer determinism."""

import copy
import csv
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from taxtrader import nets, ppo
from taxtrader.env import EnvConfig, TradingEnv
from taxtrader.ledger import TaxParams
from taxtrader.market_data import synthetic_gbm
from taxtrader.ppo import (
    PpoConfig,
    TrajectoryBuffer,
    _policy_update,
    _value_update,
    clipped_policy_loss,
    compute_gae,
    run_epoch,
    train,
    value_loss,
)


def brute_force_gae(rewards, values, dones, gamma, lam):
    """O(T^2) double sum of discounted TD residuals within each segment."""
    n = len(rewards)
    adv = np.zeros(n)
    for t in range(n):
        coef = 1.0
        for step in range(t, n):
            live = 0.0 if dones[step] else 1.0
            delta = rewards[step] + gamma * values[step + 1] * live - values[step]
            adv[t] += coef * delta
            if dones[step]:
                break
            coef *= gamma * lam
    return adv


def random_segment(rng, n):
    rewards = rng.normal(size=n)
    values = rng.normal(size=n + 1)
    dones = rng.random(n) < 0.2
    return rewards, values, dones


class TestComputeGae:
    def test_lambda_zero_is_one_step_td(self):
        rng = np.random.default_rng(0)
        rewards, values, dones = random_segment(rng, 8)
        adv, ret = compute_gae(rewards, values, dones, gamma=0.9, lam=0.0)
        for t in range(8):
            live = 0.0 if dones[t] else 1.0
            delta = rewards[t] + 0.9 * values[t + 1] * live - values[t]
            assert adv[t] == pytest.approx(delta, rel=1e-12)
        assert np.allclose(ret, adv + values[:-1])

    def test_undiscounted_full_lambda_telescopes(self):
        rewards = np.array([1.0, 2.0, 3.0, 4.0])
        values = np.zeros(5)
        dones = np.zeros(4, dtype=bool)
        adv, _ = compute_gae(rewards, values, dones, gamma=1.0, lam=1.0)
        assert np.allclose(adv, [10.0, 9.0, 7.0, 4.0])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            rewards, values, dones = random_segment(rng, n)
            gamma = float(rng.uniform(0.5, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            adv, ret = compute_gae(rewards, values, dones, gamma, lam)
            expected = brute_force_gae(rewards, values, dones, gamma, lam)
            assert np.max(np.abs(adv - expected)) < 1e-10
            assert np.allclose(ret, expected + values[:-1], atol=1e-10)

    def test_done_cuts_the_bootstrap(self):
        rewards = np.array([1.0, 1.0])
        values = np.array([0.0, 0.0, 100.0])
        dones = np.array([False, True])
        adv, _ = compute_gae(rewards, values, dones, gamma=1.0, lam=1.0)
        # terminal step ignores the trailing bootstrap value
        assert adv[1] == pytest.approx(1.0)
        assert adv[0] == pytest.approx(2.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae(np.ones(3), np.ones(3), np.zeros(3, bool), 0.9, 0.9)


class TestClippedPolicyLoss:
    def test_ratio_one_reduces_to_mean_advantage(self):
        rng = np.random.default_rng(1)
        logp = rng.normal(size=32)
        adv = rng.normal(size=32)
        loss, _ = clipped_policy_loss(logp, logp.copy(), adv, clip_ratio=0.2)
        assert loss == pytest.approx(-float(np.mean(adv)), rel=1e-12)

    def test_clip_saturation_kills_gradient(self):
        logp_old = np.array([0.0])
        logp_new = np.array([0.5])  # ratio e^0.5 > 1.2
        adv = np.array([2.0])
        loss, grad = clipped_policy_loss(logp_new, logp_old, adv, clip_ratio=0.2)
        assert loss == pytest.approx(-1.2 * 2.0)
        assert grad[0] == 0.0

    def test_negative_advantage_saturation(self):
        logp_old = np.array([0.0])
        logp_new = np.array([-0.5])  # ratio e^-0.5 < 0.8
        adv = np.array([-2.0])
        loss, grad = clipped_policy_loss(logp_new, logp_old, adv, clip_ratio=0.2)
        assert loss == pytest.approx(0.8 * 2.0)
        assert grad[0] == 0.0

    def test_direct_reference_evaluation(self):
        rng = np.random.default_rng(2)
        logp_old = rng.normal(size=64)
        logp_new = logp_old + rng.normal(scale=0.3, size=64)
        adv = rng.normal(size=64)
        clip = 0.2
        loss, _ = clipped_policy_loss(logp_new, logp_old, adv, clip)
        per_sample = []
        for ln, lo, a in zip(logp_new, logp_old, adv):
            r = math.exp(ln - lo)
            clipped = min(max(r, 1 - clip), 1 + clip)
            per_sample.append(min(r * a, clipped * a))
        assert loss == pytest.approx(-sum(per_sample) / 64, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logp_old = rng.normal(size=20)
        logp_new = logp_old + rng.normal(scale=0.25, size=20)
        adv = rng.normal(size=20)
        _, grad = clipped_policy_loss(logp_new, logp_old, adv, 0.2)
        h = 1e-7
        for i in range(20):
            up, down = logp_new.copy(), logp_new.copy()
            up[i] += h
            down[i] -= h
            lu, _ = clipped_policy_loss(up, logp_old, adv, 0.2)
            ld, _ = clipped_policy_loss(down, logp_old, adv, 0.2)
            fd = (lu - ld) / (2 * h)
            assert abs(grad[i] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_clipping_inertness_at_huge_clip(self):
        # With the clip opened wide, the gradient must equal the plain
        # importance-weighted policy gradient.
        rng = np.random.default_rng(4)
        logp_old = rng.normal(size=50)
        logp_new = logp_old + rng.normal(scale=0.5, size=50)
        adv = rng.normal(size=50)
        ratio = np.exp(logp_new - logp_old)
        _, grad = clipped_policy_loss(logp_new, logp_old, adv, clip_ratio=1e9)
        unclipped = -ratio * adv / 50
        cosine = np.dot(grad, unclipped) / (
            np.linalg.norm(grad) * np.linalg.norm(unclipped)
        )
        assert cosine > 0.999

    def test_non_finite_ratio_rejected(self):
        with pytest.raises(FloatingPointError):
            clipped_policy_loss(
                np.array([2000.0]), np.array([0.0]), np.array([1.0]), 0.2
            )


class TestValueLoss:
    def test_perfect_prediction(self):
        returns = np.array([1.0, -2.0, 3.0])
        loss, grad = value_loss(returns.copy(), returns)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_constant_offset(self):
        returns = np.array([1.0, -2.0, 3.0])
        loss, _ = value_loss(returns + 0.5, returns)
        assert loss == pytest.approx(0.25, rel=1e-12)

    def test_hand_sum(self):
        rng = np.random.default_rng(5)
        pred, ret = rng.normal(size=10), rng.normal(size=10)
        loss, grad = value_loss(pred, ret)
        assert loss == pytest.approx(sum((p - r) ** 2 for p, r in zip(pred, ret)) / 10,
                                     rel=1e-12)
        assert np.allclose(grad, 2 * (pred - ret) / 10)


class TestTrajectoryBuffer:
    def test_finalize_exactly_once(self):
        buf = TrajectoryBuffer(obs_dim=2, capacity=3)
        for i in range(3):
            buf.store(np.zeros(2), 0, 1.0, 0.0, -1.0, i == 2)
        buf.finalize(0.0, 0.99, 0.97, normalize=False)
        with pytest.raises(RuntimeError, match="already finalized"):
            buf.finalize(0.0, 0.99, 0.97, normalize=False)

    def test_rejects_partial_buffer(self):
        buf = TrajectoryBuffer(obs_dim=2, capacity=3)
        buf.store(np.zeros(2), 0, 1.0, 0.0, -1.0, False)
        with pytest.raises(RuntimeError, match="holds"):
            buf.finalize(0.0, 0.99, 0.97, normalize=False)

    def test_capacity_enforced(self):
        buf = TrajectoryBuffer(obs_dim=2, capacity=1)
        buf.store(np.zeros(2), 0, 1.0, 0.0, -1.0, True)
        with pytest.raises(IndexError):
            buf.store(np.zeros(2), 0, 1.0, 0.0, -1.0, True)

    def test_advantage_normalization_moments(self):
        rng = np.random.default_rng(6)
        buf = TrajectoryBuffer(obs_dim=1, capacity=64)
        for i in range(64):
            buf.store(np.zeros(1), 0, float(rng.normal()), float(rng.normal()),
                      -1.0, i == 63)
        buf.finalize(0.0, 0.99, 0.97, normalize=True)
        assert abs(float(np.mean(buf.advantages))) < 1e-9
        assert abs(float(np.var(buf.advantages)) - 1.0) < 1e-3


def smoke_setup(steps_per_epoch=90, epochs=2, episode_length=30, tax=False):
    series = synthetic_gbm(seed=100, n_days=200, s0=100.0, mu=0.8, sigma=0.1)
    env_config = EnvConfig(
        tax_enabled=tax,
        lot_size=1.0,
        episode_length=episode_length,
        tax_params=TaxParams(txn_cost_rate=0.001),
    )
    ppo_config = PpoConfig(
        steps_per_epoch=steps_per_epoch,
        epochs=epochs,
        policy_update_iters=10,
        value_update_iters=10,
    )
    return ppo_config, env_config, series


def force_update_path(monkeypatch, overlapped):
    """Make ``run_epoch`` overlap its updates, or run them in the calling thread."""
    for var in ppo._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if overlapped:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert ppo._overlap_updates() is overlapped


@pytest.fixture(params=[False, True], ids=["serial", "overlapped"])
def update_path(request, monkeypatch):
    force_update_path(monkeypatch, request.param)
    return request.param


class TestRunEpoch:
    def test_fixed_seed_identical_metrics(self):
        ppo_config, env_config, series = smoke_setup()
        results = []
        for _ in range(2):
            env = TradingEnv(env_config, series)
            bundle = nets.init_bundle(np.random.default_rng([7, 0]), env.obs_dim)
            metrics = run_epoch(env, bundle, ppo_config, np.random.default_rng([7, 1]))
            results.append(metrics)
        assert results[0] == results[1]

    def test_policy_update_does_not_touch_value_net(self, monkeypatch):
        ppo_config, env_config, series = smoke_setup()
        config = PpoConfig(
            steps_per_epoch=90, epochs=1, policy_update_iters=5, value_update_iters=0
        )
        for overlapped in (False, True):
            force_update_path(monkeypatch, overlapped)
            env = TradingEnv(env_config, series)
            bundle = nets.init_bundle(np.random.default_rng([8, 0]), env.obs_dim)
            value_before = [a.copy() for a in bundle.value.arrays()]
            policy_before = [a.copy() for a in bundle.policy.arrays()]
            run_epoch(env, bundle, config, np.random.default_rng([8, 1]))
            assert all(
                np.array_equal(a, b)
                for a, b in zip(value_before, bundle.value.arrays())
            )
            assert not all(
                np.array_equal(a, b)
                for a, b in zip(policy_before, bundle.policy.arrays())
            )

    def test_value_update_does_not_touch_policy_net(self, monkeypatch):
        ppo_config, env_config, series = smoke_setup()
        config = PpoConfig(
            steps_per_epoch=90, epochs=1, policy_update_iters=0, value_update_iters=5
        )
        for overlapped in (False, True):
            force_update_path(monkeypatch, overlapped)
            env = TradingEnv(env_config, series)
            bundle = nets.init_bundle(np.random.default_rng([8, 0]), env.obs_dim)
            policy_before = [a.copy() for a in bundle.policy.arrays()]
            run_epoch(env, bundle, config, np.random.default_rng([8, 1]))
            assert all(
                np.array_equal(a, b)
                for a, b in zip(policy_before, bundle.policy.arrays())
            )

    def test_kl_stop_happens_before_the_step(self):
        # An impossible KL target stops the loop at iteration zero, so
        # the policy must come out untouched.
        _, env_config, series = smoke_setup()
        config = PpoConfig(
            steps_per_epoch=90, epochs=1, policy_update_iters=10,
            value_update_iters=0, target_kl=-1.0,
        )
        env = TradingEnv(env_config, series)
        bundle = nets.init_bundle(np.random.default_rng([9, 0]), env.obs_dim)
        policy_before = [a.copy() for a in bundle.policy.arrays()]
        run_epoch(env, bundle, config, np.random.default_rng([9, 1]))
        assert all(
            np.array_equal(a, b) for a, b in zip(policy_before, bundle.policy.arrays())
        )


class TestTrain:
    def test_zero_epochs_returns_fresh_bundle(self):
        ppo_config, env_config, series = smoke_setup(epochs=0)
        bundle, metrics = train(ppo_config, env_config, series, seed=3)
        reference = nets.init_bundle(np.random.default_rng([3, 0]), 5)
        assert metrics == []
        assert all(
            np.array_equal(a, b)
            for a, b in zip(bundle.policy.arrays(), reference.policy.arrays())
        )

    def test_emits_one_metrics_row_per_epoch(self, tmp_path):
        ppo_config, env_config, series = smoke_setup(epochs=3)
        _, metrics = train(ppo_config, env_config, series, seed=4, out_dir=tmp_path)
        assert len(metrics) == 3
        assert [m["epoch"] for m in metrics] == [0, 1, 2]
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("epoch,mean_episode_return,policy_loss")

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        ppo_config, env_config, series = smoke_setup(epochs=4)
        full_bundle, full_metrics = train(
            ppo_config, env_config, series, seed=5, out_dir=tmp_path / "full"
        )
        short_config = PpoConfig(**{**ppo_config.__dict__, "epochs": 2})
        train(short_config, env_config, series, seed=5, out_dir=tmp_path / "part")
        resumed_bundle, resumed_metrics = train(
            ppo_config,
            env_config,
            series,
            seed=5,
            out_dir=tmp_path / "part",
            resume_from=tmp_path / "part" / "checkpoint.npz",
        )
        assert [m["epoch"] for m in resumed_metrics] == [2, 3]
        compare_keys = ("mean_episode_return", "policy_loss", "value_loss", "kl",
                        "entropy")
        for row, full_row in zip(resumed_metrics, full_metrics[2:]):
            for key in compare_keys:
                assert row[key] == full_row[key]
        for a, b in zip(full_bundle.policy.arrays(), resumed_bundle.policy.arrays()):
            assert np.array_equal(a, b)
        for a, b in zip(full_bundle.value.arrays(), resumed_bundle.value.arrays()):
            assert np.array_equal(a, b)

    def test_resume_drops_rows_past_the_checkpoint(self, tmp_path, monkeypatch):
        # A run that stops after writing epoch 2's metrics row but before
        # saving its checkpoint resumes from epoch 2 and writes that row again.
        ppo_config, env_config, series = smoke_setup(epochs=3)
        real_save = nets.save_bundle

        def save_then_crash(path, bundle, meta=None):
            if meta["epoch"] == 3:
                raise KeyboardInterrupt
            real_save(path, bundle, meta)

        monkeypatch.setattr(nets, "save_bundle", save_then_crash)
        with pytest.raises(KeyboardInterrupt):
            train(ppo_config, env_config, series, seed=6, out_dir=tmp_path)
        monkeypatch.undo()
        train(ppo_config, env_config, series, seed=6, out_dir=tmp_path,
              resume_from=tmp_path / "checkpoint.npz")
        with (tmp_path / "metrics.csv").open(newline="") as fh:
            epochs = [int(row["epoch"]) for row in csv.DictReader(fh)]
        assert epochs == [0, 1, 2]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.npz", "metrics.csv"
        ]

    def test_resume_refuses_a_checkpoint_of_other_features(self, tmp_path):
        ppo_config, env_config, series = smoke_setup(epochs=1)
        checkpoint = tmp_path / "p4.npz"
        four = nets.init_bundle(np.random.default_rng(0), obs_dim=4)
        nets.save_bundle(checkpoint, four, meta={"epoch": 0})
        with pytest.raises(ValueError) as excinfo:
            train(ppo_config, env_config, series, seed=9, resume_from=checkpoint)
        assert str(checkpoint) in str(excinfo.value)
        assert "expects 4 features, environment provides 5" in str(excinfo.value)

    def test_non_finite_value_estimates_stop_the_run_unrecorded(self, tmp_path):
        # A value net with a NaN bias: the run must stop with a named error
        # and write neither a metrics row nor a checkpoint for the epoch.
        ppo_config, env_config, series = smoke_setup(steps_per_epoch=200, epochs=2)
        first = PpoConfig(**{**ppo_config.__dict__, "epochs": 1})
        train(first, env_config, series, seed=7, out_dir=tmp_path)
        checkpoint = tmp_path / "checkpoint.npz"
        bundle, meta = nets.load_bundle(checkpoint)
        bundle.value.biases[-1][0] = np.nan
        nets.save_bundle(checkpoint, bundle, meta)
        saved = checkpoint.read_bytes()
        with pytest.raises(FloatingPointError, match="non-finite value estimates"):
            train(ppo_config, env_config, series, seed=7, out_dir=tmp_path,
                  resume_from=checkpoint)
        with (tmp_path / "metrics.csv").open(newline="") as fh:
            assert [int(row["epoch"]) for row in csv.DictReader(fh)] == [0]
        assert checkpoint.read_bytes() == saved

    @pytest.mark.parametrize("loss", ["clipped_policy_loss", "value_loss"])
    def test_non_finite_loss_is_named(self, monkeypatch, loss):
        ppo_config, env_config, series = smoke_setup(epochs=1)
        real = getattr(ppo, loss)
        monkeypatch.setattr(ppo, loss, lambda *a: (math.nan, real(*a)[1]))
        name = "policy loss" if loss == "clipped_policy_loss" else "value loss"
        for overlapped in (False, True):
            force_update_path(monkeypatch, overlapped)
            with pytest.raises(FloatingPointError, match=f"non-finite {name}"):
                train(ppo_config, env_config, series, seed=8)


def filled_buffer(n, obs_dim=5, seed=40):
    rng = np.random.default_rng(seed)
    buf = TrajectoryBuffer(obs_dim, n)
    for i in range(n):
        buf.store(rng.normal(size=obs_dim), int(rng.integers(3)), float(rng.normal()),
                  float(rng.normal()), float(np.log(1 / 3) + rng.normal(scale=0.1)),
                  i % 50 == 49)
    buf.finalize(0.0, 0.99, 0.97, normalize=True)
    return buf


def oracle_policy_update(bundle, buffer, config):
    """Reference policy update: fresh arrays, every term computed on every step."""
    obs, actions = buffer.observations, buffer.actions
    logp_old, adv = buffer.log_probs, buffer.advantages
    n = len(actions)
    rows = np.arange(n)
    first_loss = first_entropy = kl = 0.0
    iters_done = 0
    for i in range(config.policy_update_iters):
        logits, cache = nets.forward_cached(bundle.policy, obs)
        logp_all = nets.log_softmax(logits)
        logp_new = logp_all[rows, actions]
        kl = float(np.mean(logp_old - logp_new))
        probs_e = np.exp(logp_all)
        entropies = -np.sum(probs_e * logp_all, axis=1)
        entropy_grads = -probs_e * (logp_all + entropies[:, None])
        loss, dlogp = clipped_policy_loss(logp_new, logp_old, adv, config.clip_ratio)
        if i == 0:
            first_loss, first_entropy = loss, float(np.mean(entropies))
        if kl > config.target_kl:
            break
        probs = np.exp(logp_all)
        dlogits = dlogp[:, None] * (-probs)
        dlogits[rows, actions] += dlogp
        if config.entropy_coef != 0.0:
            dlogits -= (config.entropy_coef / n) * entropy_grads
        grads, _ = nets.backward(bundle.policy, cache, dlogits)
        nets.adam_step(bundle.policy, grads, bundle.policy_opt, config.policy_lr)
        iters_done += 1
    return first_loss, first_entropy, kl, iters_done


class TestUpdateBuffers:
    @pytest.mark.parametrize("entropy_coef", [0.0, 0.05])
    def test_policy_update_matches_oracle(self, entropy_coef):
        buffer = filled_buffer(300)
        config = PpoConfig(policy_update_iters=12, target_kl=0.02,
                           entropy_coef=entropy_coef)
        bundle = nets.init_bundle(np.random.default_rng([41, 0]), 5)
        reference = nets.init_bundle(np.random.default_rng([41, 0]), 5)
        result = _policy_update(bundle, buffer, config, {})
        assert result == oracle_policy_update(reference, buffer, config)
        for a, b in zip(bundle.policy.arrays(), reference.policy.arrays()):
            assert np.array_equal(a, b)

    def test_warm_iteration_allocates_no_hidden_sized_array(self):
        n, hidden = 4000, 128
        batch_hidden_bytes = n * hidden * 8
        buffer = filled_buffer(n)
        bundle = nets.init_bundle(np.random.default_rng([42, 0]), 5,
                                  hidden=(hidden, hidden))
        config = PpoConfig(policy_update_iters=1, value_update_iters=1,
                           target_kl=math.inf)

        def peak_growth(update, buffers):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                update(bundle, buffer, config, buffers)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # With fresh buffers an iteration allocates hidden-sized arrays,
        # which shows that the measurement sees numpy's allocations.
        assert peak_growth(_policy_update, {}) > 2 * batch_hidden_bytes
        # Each phase keeps its own buffers, as in run_epoch. Once warmed,
        # peak growth stays below one such array: none was ever allocated.
        for update in (_policy_update, _value_update):
            buffers = {}
            update(bundle, buffer, config, buffers)
            assert peak_growth(update, buffers) < batch_hidden_bytes

    def test_each_net_keeps_three_batch_by_hidden_arrays(self):
        # Two activations and one gradient array per net: the two nets'
        # buffers together hold what one shared set held before.
        n, hidden = 300, 64
        buffer = filled_buffer(n)
        bundle = nets.init_bundle(np.random.default_rng([43, 0]), 5)
        config = PpoConfig(policy_update_iters=1, value_update_iters=1,
                           target_kl=math.inf)
        for update in (_policy_update, _value_update):
            buffers = {}
            update(bundle, buffer, config, buffers)
            update(bundle, buffer, config, buffers)
            sizes = [a.shape for a in buffers.values()]
            assert sizes.count((n, hidden)) == 3


def oracle_value_update(bundle, buffer, config):
    """Reference value update: fresh arrays, one step after another."""
    first_loss = 0.0
    for i in range(config.value_update_iters):
        preds, cache = nets.forward_cached(bundle.value, buffer.observations)
        loss, dv = value_loss(preds[:, 0], buffer.returns)
        if i == 0:
            first_loss = loss
        grads, _ = nets.backward(bundle.value, cache, dv[:, None])
        nets.adam_step(bundle.value, grads, bundle.value_opt, config.value_lr)
    return first_loss


def bundle_state(bundle):
    """Every array and step count that an update writes."""
    arrays = bundle.policy.arrays() + bundle.value.arrays()
    for opt in (bundle.policy_opt, bundle.value_opt):
        arrays = arrays + opt.m + opt.v
    return arrays, (bundle.policy_opt.t, bundle.value_opt.t)


def assert_same_state(bundle, reference):
    arrays, counts = bundle_state(bundle)
    expected_arrays, expected_counts = bundle_state(reference)
    assert counts == expected_counts
    assert len(arrays) == len(expected_arrays)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, expected_arrays))


def epoch_with_oracle(monkeypatch, config, seed):
    """``run_epoch``'s metrics and bundle, and the oracle's on its finished buffer."""
    _, env_config, series = smoke_setup()
    env = TradingEnv(env_config, series)
    bundle = nets.init_bundle(np.random.default_rng([seed, 0]), env.obs_dim)
    seen = {}
    real_update = ppo._update

    def recording_update(bundle, buffer, config):
        seen["bundle"], seen["buffer"] = copy.deepcopy(bundle), buffer
        return real_update(bundle, buffer, config)

    monkeypatch.setattr(ppo, "_update", recording_update)
    metrics = run_epoch(env, bundle, config, np.random.default_rng([seed, 1]))
    monkeypatch.setattr(ppo, "_update", real_update)
    reference, buffer = seen["bundle"], seen["buffer"]
    policy_loss, entropy, kl, iters = oracle_policy_update(reference, buffer, config)
    vloss = oracle_value_update(reference, buffer, config)
    expected = {"policy_loss": policy_loss, "entropy": entropy, "kl": kl,
                "value_loss": vloss}
    return metrics, bundle, expected, reference, iters


UPDATE_SHAPES = {
    # target_kl -> the KL stop fires partway; the value side runs on alone.
    "kl_stop_partway": dict(policy_update_iters=40, value_update_iters=40,
                            target_kl=0.002),
    "fewer_policy_iters": dict(policy_update_iters=3, value_update_iters=7,
                               target_kl=math.inf),
    "fewer_value_iters": dict(policy_update_iters=7, value_update_iters=3,
                              target_kl=math.inf),
    "no_policy_iters": dict(policy_update_iters=0, value_update_iters=5),
    "no_value_iters": dict(policy_update_iters=5, value_update_iters=0,
                           target_kl=math.inf),
}


class TestOverlappedUpdates:
    @pytest.mark.parametrize("shape", UPDATE_SHAPES)
    def test_both_paths_equal_the_sequential_oracle(self, monkeypatch, shape):
        config = PpoConfig(steps_per_epoch=200, epochs=1, **UPDATE_SHAPES[shape])
        runs = {}
        for overlapped in (False, True):
            force_update_path(monkeypatch, overlapped)
            runs[overlapped] = epoch_with_oracle(monkeypatch, config, seed=44)
        serial, serial_bundle, expected, reference, iters = runs[False]
        overlapped_metrics, overlapped_bundle = runs[True][:2]
        if shape == "kl_stop_partway":
            assert 0 < iters < config.policy_update_iters
        assert serial == overlapped_metrics
        assert {k: serial[k] for k in expected} == expected
        assert_same_state(serial_bundle, reference)
        assert_same_state(overlapped_bundle, reference)

    def test_overlapped_path_holds_under_fast_thread_switching(self, monkeypatch):
        config = PpoConfig(steps_per_epoch=200, epochs=1,
                           **UPDATE_SHAPES["kl_stop_partway"])
        force_update_path(monkeypatch, True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                metrics, bundle, expected, reference, _ = epoch_with_oracle(
                    monkeypatch, config, seed=48
                )
                assert {k: metrics[k] for k in expected} == expected
                assert_same_state(bundle, reference)
        finally:
            sys.setswitchinterval(interval)

    def test_value_steps_run_on_a_worker_only_when_overlapped(
        self, monkeypatch, update_path
    ):
        ppo_config, env_config, series = smoke_setup(epochs=1)
        on_main_thread = set()
        real = ppo.value_loss

        def recording_value_loss(*args):
            on_main_thread.add(threading.current_thread() is threading.main_thread())
            return real(*args)

        monkeypatch.setattr(ppo, "value_loss", recording_value_loss)
        before = threading.active_count()
        train(ppo_config, env_config, series, seed=45)
        assert threading.active_count() == before
        assert on_main_thread == {not update_path}

    def test_an_epoch_runs_its_value_steps_on_one_thread(
        self, monkeypatch, update_path
    ):
        ppo_config, env_config, series = smoke_setup(epochs=2)
        real_update, real_value_loss = ppo._update, ppo.value_loss
        real_start = threading.Thread.start
        idents, started = [], []

        def recording_update(*args):
            idents.append(set())
            return real_update(*args)

        def recording_value_loss(*args):
            idents[-1].add(threading.get_ident())
            return real_value_loss(*args)

        def recording_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(ppo, "_update", recording_update)
        monkeypatch.setattr(ppo, "value_loss", recording_value_loss)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        train(ppo_config, env_config, series, seed=49)
        main = threading.main_thread().ident
        # Ten value steps per epoch, each epoch's on a single thread.
        assert len(idents) == 2 and all(len(epoch) == 1 for epoch in idents)
        if update_path:
            assert all(main not in epoch for epoch in idents)
            assert len(started) == 2
            assert all(name.startswith("value-update") for name in started)
        else:
            assert idents == [{main}, {main}]
            assert started == []

    @pytest.mark.parametrize("side", ["policy", "value", "both"])
    def test_a_failing_step_reaches_the_caller_and_joins(
        self, monkeypatch, update_path, side
    ):
        ppo_config, env_config, series = smoke_setup(epochs=1)
        real_policy, real_value = ppo.clipped_policy_loss, ppo.value_loss
        calls = {"policy": 0, "value": 0}

        def failing(name, real, message):
            def loss(*args):
                calls[name] += 1
                if calls[name] == 3 and side in (name, "both"):
                    raise FloatingPointError(message)
                return real(*args)
            return loss

        monkeypatch.setattr(ppo, "clipped_policy_loss",
                            failing("policy", real_policy, "non-finite importance ratio"))
        monkeypatch.setattr(ppo, "value_loss",
                            failing("value", real_value, "value step failed"))
        before = threading.active_count()
        message = "value step failed" if side == "value" else "importance ratio"
        with pytest.raises(FloatingPointError, match=message):
            train(ppo_config, env_config, series, seed=46)
        assert threading.active_count() == before
        # The other side's step in flight was waited for, and no more began.
        assert calls == {"policy": 3, "value": 3}

    def test_overflowing_ratio_is_named_on_both_paths(self, update_path):
        buffer = filled_buffer(200)
        buffer.log_probs[:] = -2000.0
        bundle = nets.init_bundle(np.random.default_rng([47, 0]), 5)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="non-finite importance ratio"):
            ppo._update(bundle, buffer, PpoConfig())
        assert threading.active_count() == before


@pytest.mark.parametrize(
    "env, cores, overlapped",
    [
        ({}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1"}, 2, True),
        ({"OMP_NUM_THREADS": "1"}, 4, True),
        ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1"}, 1, False),
    ],
)
def test_overlap_selection_rule(monkeypatch, env, cores, overlapped):
    for var in ppo._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    assert ppo._overlap_updates() is overlapped
