"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines while the suite runs. The final criterion trains at full
experiment scale and takes the bulk of the wall time.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from taxtrader import nets
from taxtrader.cli import bundle_actor, run_episodes
from taxtrader.env import EnvConfig, TradingEnv
from taxtrader.ledger import BasisState, TaxParams, basis_branch, step_ledger
from taxtrader.market_data import (
    EpisodeWindow,
    load_csv,
    sample_window,
    synthetic_gbm,
)
from taxtrader.ppo import PpoConfig, clipped_policy_loss, compute_gae, train, value_loss

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def verdict(criterion, ok, detail, elapsed):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail} [{elapsed:.2f}s]"
    print(line)
    return ok


def rel_close(a, b, rel=1e-9, abs_tol=1e-6):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# Criterion 1: worked-scenario reproduction, exact to 1e-9 relative, < 1 s.


def test_criterion_1_worked_example():
    start = time.perf_counter()
    params = TaxParams(txn_cost_rate=0.005)
    state = BasisState.flat(200.0)
    state, cf1 = step_ledger(state, 200.0, 300.0, params)
    for _ in range(377):
        state, _ = step_ledger(state, 210.0, 300.0, params)
    state, cf2 = step_ledger(state, 300.0, 400.0, params)
    basis = state.avg_basis
    for _ in range(126):
        state, _ = step_ledger(state, 320.0, 400.0, params)
    holding = state.avg_holding
    state, cf3 = step_ledger(state, 350.0, 0.0, params)
    total_cost = cf1.txn_cost + cf2.txn_cost + cf3.txn_cost
    elapsed = time.perf_counter() - start
    ok = (
        rel_close(basis, 225.0)
        and rel_close(holding, 378.0)
        and rel_close(cf3.gain_tax, 7500.0)
        and rel_close(total_cost, 1150.0)
        and elapsed < 1.0
    )
    assert verdict(
        1,
        ok,
        f"basis {basis:.9f}, holding {holding:.9f}d ({holding / 252:.2f}y), "
        f"tax {cf3.gain_tax:.2f}, max cost {total_cost:.2f}",
        elapsed,
    )


# ---------------------------------------------------------------------------
# Criterion 2: branch coverage and accounting oracles over 10,000 paths, < 30 s.


def oracle_total_cost_step(total, prev_pos, pos, price):
    if prev_pos * pos <= 0:
        return price * pos
    if prev_pos > 0:
        if pos >= prev_pos:
            return total + price * (pos - prev_pos)
        return total * (pos / prev_pos)
    return total + price * (pos - prev_pos)


def test_criterion_2_branch_coverage_and_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    params = TaxParams()
    branch_counts = {1: 0, 2: 0, 3: 0}
    paths = 0
    worst = 0.0

    # 6,000 unrestricted paths checked against the cash-accounting pool.
    for _ in range(6000):
        n = int(rng.integers(5, 30))
        positions = rng.integers(-200, 201, size=n).astype(float)
        prices = rng.uniform(20.0, 400.0, size=n)
        state = BasisState.flat(prices[0])
        total = 0.0
        prev_pos = 0.0
        for pos, price in zip(positions, prices):
            branch_counts[basis_branch(prev_pos, pos)] += 1
            total = oracle_total_cost_step(total, prev_pos, pos, price)
            state, _ = step_ledger(state, price, pos, params)
            got = state.avg_basis * state.position
            err = abs(got - total) / max(abs(got), abs(total), 1.0)
            worst = max(worst, err)
            prev_pos = pos
        paths += 1

    # 4,000 long-only paths checked against full-liquidation equivalence.
    for _ in range(4000):
        n = int(rng.integers(2, 15))
        positions = rng.integers(1, 201, size=n).astype(float)
        prices = rng.uniform(20.0, 400.0, size=n)
        state = BasisState.flat(prices[0])
        total = 0.0
        prev_pos = 0.0
        for pos, price in zip(positions, prices):
            branch_counts[basis_branch(prev_pos, pos)] += 1
            total = oracle_total_cost_step(total, prev_pos, pos, price)
            state, _ = step_ledger(state, price, pos, params)
            prev_pos = pos
        final_price = float(rng.uniform(20.0, 400.0))
        ledger_gain = (final_price - state.avg_basis) * state.position
        oracle_gain = final_price * state.position - total
        err = abs(ledger_gain - oracle_gain) / max(
            abs(ledger_gain), abs(oracle_gain), 1.0
        )
        worst = max(worst, err)
        paths += 1

    elapsed = time.perf_counter() - start
    ok = (
        paths >= 10_000
        and all(branch_counts[b] > 0 for b in (1, 2, 3))
        and worst < 1e-9
        and elapsed < 30.0
    )
    assert verdict(
        2,
        ok,
        f"{paths} paths, branches hit {branch_counts}, worst rel err {worst:.2e}",
        elapsed,
    )


# ---------------------------------------------------------------------------
# Criterion 3: wealth conservation over 1,000 random episodes, < 1 min.


def test_criterion_3_wealth_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    series = synthetic_gbm(seed=33, n_days=120, s0=100.0, mu=0.1, sigma=0.35)
    config = EnvConfig(
        tax_enabled=True,
        lot_size=100.0,
        episode_length=40,
        tax_params=TaxParams(txn_cost_rate=0.001),
    )
    env = TradingEnv(config, series)
    worst = 0.0
    for _ in range(1000):
        window = sample_window(series, 40, rng)
        env.reset(window)
        cash = 0.0
        prev_pos = 0.0
        rewards = 0.0
        done = False
        t = window.start_index
        while not done:
            tr = env.step(int(rng.integers(0, 3)))
            rewards += tr.reward
            price_next = float(series.closes[t + 1])
            cash -= price_next * (env.state.position - prev_pos)
            cash += tr.cashflow.net
            prev_pos = env.state.position
            t += 1
            done = tr.done
        equity = cash + prev_pos * float(series.closes[t])
        err = abs(rewards - equity) / max(abs(rewards), abs(equity), 1.0)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 60.0
    assert verdict(3, ok, f"1000 episodes, worst rel err {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# Criterion 4: finite-difference gradient checks, < 1e-4 relative, < 1 min.


def fd_grad_of_params(params, scalar_fn, h=1e-5):
    grads = []
    for arr in params.arrays():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = scalar_fn()
            arr[idx] = orig - h
            down = scalar_fn()
            arr[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic_list, fd_list):
    worst = 0.0
    for analytic, fd in zip(analytic_list, fd_list):
        err = np.abs(analytic - fd) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(fd)), 1e-8
        )
        worst = max(worst, float(np.max(err)))
    return worst


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_logp = worst_value = worst_clip = 0.0
    instances = 0

    for _ in range(40):
        # (a) policy log-prob gradient for a sampled action
        policy = nets.init_mlp(rng, 4, (8, 7), 3, out_scale=1.0)
        for b in policy.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        x = rng.normal(size=(1, 4))
        action = int(rng.integers(0, 3))

        def logp_fn():
            logits = nets.forward(policy, x)
            return float(nets.log_softmax(logits)[0, action])

        logits, cache = nets.forward_cached(policy, x)
        probs = nets.softmax(logits)
        dlogits = -probs
        dlogits[0, action] += 1.0
        grads, _ = nets.backward(policy, cache, dlogits)
        worst_logp = max(worst_logp, max_rel_err(grads.arrays(),
                                                 fd_grad_of_params(policy, logp_fn)))
        instances += 1

    for _ in range(30):
        # (b) value-net mean-squared-error gradient
        value_net = nets.init_mlp(rng, 4, (8, 7), 1, out_scale=1.0)
        for b in value_net.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        xs = rng.normal(size=(6, 4))
        targets = rng.normal(size=6)

        def vloss_fn():
            preds = nets.forward(value_net, xs)[:, 0]
            return value_loss(preds, targets)[0]

        preds, cache = nets.forward_cached(value_net, xs)
        _, dv = value_loss(preds[:, 0], targets)
        grads, _ = nets.backward(value_net, cache, dv[:, None])
        worst_value = max(worst_value, max_rel_err(grads.arrays(),
                                                   fd_grad_of_params(value_net, vloss_fn)))
        instances += 1

    clip = 0.2
    done_clip = 0
    while done_clip < 30:
        # (c) clipped surrogate through the policy net
        policy = nets.init_mlp(rng, 4, (8, 7), 3, out_scale=1.0)
        for b in policy.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        xs = rng.normal(size=(8, 4))
        actions = rng.integers(0, 3, size=8)
        rows = np.arange(8)
        logits = nets.forward(policy, xs)
        logp_now = nets.log_softmax(logits)[rows, actions]
        logp_old = logp_now + rng.normal(scale=0.25, size=8)
        adv = rng.normal(size=8)
        ratios = np.exp(logp_now - logp_old)
        # keep clear of the clip kinks so central differences are valid
        if np.any(np.abs(ratios - (1 - clip)) < 1e-3) or np.any(
            np.abs(ratios - (1 + clip)) < 1e-3
        ):
            continue

        def clip_fn():
            lg = nets.forward(policy, xs)
            lp = nets.log_softmax(lg)[rows, actions]
            return clipped_policy_loss(lp, logp_old, adv, clip)[0]

        logits, cache = nets.forward_cached(policy, xs)
        logp_all = nets.log_softmax(logits)
        probs = np.exp(logp_all)
        _, dlogp = clipped_policy_loss(logp_all[rows, actions], logp_old, adv, clip)
        dlogits = dlogp[:, None] * (-probs)
        dlogits[rows, actions] += dlogp
        grads, _ = nets.backward(policy, cache, dlogits)
        worst_clip = max(worst_clip, max_rel_err(grads.arrays(),
                                                 fd_grad_of_params(policy, clip_fn)))
        done_clip += 1
        instances += 1

    elapsed = time.perf_counter() - start
    ok = (
        instances >= 100
        and worst_logp < 1e-4
        and worst_value < 1e-4
        and worst_clip < 1e-4
        and elapsed < 60.0
    )
    assert verdict(
        4,
        ok,
        f"{instances} instances; worst rel err: log-prob {worst_logp:.2e}, "
        f"value {worst_value:.2e}, clipped {worst_clip:.2e}",
        elapsed,
    )


# ---------------------------------------------------------------------------
# Criterion 5: GAE equals the O(T^2) double sum to 1e-10, 1,000 trials, < 10 s.


def brute_force_gae(rewards, values, dones, gamma, lam):
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


def test_criterion_5_gae_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        rewards = rng.normal(size=n)
        values = rng.normal(size=n + 1)
        dones = rng.random(n) < 0.25
        gamma = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        adv, _ = compute_gae(rewards, values, dones, gamma, lam)
        expected = brute_force_gae(rewards, values, dones, gamma, lam)
        worst = max(worst, float(np.max(np.abs(adv - expected))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    assert verdict(5, ok, f"1000 trials, worst abs err {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# Criterion 6: learning beats the epoch-0 baseline by >= 3 SE, < 5 min.


def mean_and_se(values):
    values = np.asarray(values)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


@pytest.mark.slow
def test_criterion_6_learning_smoke():
    start = time.perf_counter()
    seed = 6
    series = synthetic_gbm(seed=60, n_days=400, s0=100.0, mu=1.0, sigma=0.1)
    env_config = EnvConfig(
        tax_enabled=False,
        lot_size=1.0,
        episode_length=50,
        tax_params=TaxParams(txn_cost_rate=0.001),
    )
    ppo_config = PpoConfig(steps_per_epoch=500, epochs=50)

    eval_env = TradingEnv(env_config, series)
    windows = [
        sample_window(series, 50, np.random.default_rng([seed, 200]))
        for _ in range(200)
    ]
    baseline_bundle = nets.init_bundle(
        np.random.default_rng([seed, 0]), eval_env.obs_dim
    )
    baseline = run_episodes(eval_env, bundle_actor(baseline_bundle), windows, seed)
    trained_bundle, _ = train(ppo_config, env_config, series, seed)
    trained = run_episodes(eval_env, bundle_actor(trained_bundle), windows, seed)

    base_mean, base_se = mean_and_se([e.episode_return for e in baseline])
    trained_mean, trained_se = mean_and_se([e.episode_return for e in trained])
    gap = trained_mean - base_mean
    se = math.sqrt(base_se**2 + trained_se**2)
    elapsed = time.perf_counter() - start
    ok = gap >= 3 * se and elapsed < 300.0
    assert verdict(
        6,
        ok,
        f"trained {trained_mean:.4f} vs epoch-0 baseline {base_mean:.4f}, "
        f"gap {gap:.4f} = {gap / se:.1f} SE",
        elapsed,
    )


# ---------------------------------------------------------------------------
# Criterion 7: full-protocol directional comparison, three seeds.
# The headline magnitudes are not reproducible bit-for-bit (training is
# stochastic and the exact historical dataset is not bundled); the
# criterion is directional: the taxed environment's own policy must beat
# the tax-blind policy inside the taxed environment for every seed, and
# the tax-free environment's return must top the taxed one.


@pytest.mark.slow
def test_criterion_7_paper_protocol_directional():
    start = time.perf_counter()
    series = load_csv(DATA_DIR / "synthetic_daily.csv")
    ppo_config = PpoConfig(epochs=50, steps_per_epoch=5000)
    episode_length = 1260
    seeds = (0, 1, 2)
    results = []
    ok = True
    for seed in seeds:
        bundles = {}
        for taxed in (False, True):
            env_config = EnvConfig(tax_enabled=taxed, episode_length=episode_length)
            bundle, rows = train(ppo_config, env_config, series, seed)
            assert len(rows) == 50
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
        mean_aware = float(np.mean([e.episode_return for e in aware]))
        mean_naive = float(np.mean([e.episode_return for e in naive]))
        mean_free = float(np.mean([e.episode_return for e in free]))
        seed_ok = mean_aware > mean_naive and mean_free > mean_aware
        ok = ok and seed_ok
        results.append((seed, mean_free, mean_aware, mean_naive, seed_ok))
        print(
            f"  seed {seed}: no-tax env {mean_free:.4f} | tax-aware taxed "
            f"{mean_aware:.4f} | tax-naive taxed {mean_naive:.4f} "
            f"({'ok' if seed_ok else 'violated'})"
        )
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        f"seed {s}: {mf:.3f}/{ma:.3f}/{mn:.3f}" for s, mf, ma, mn, _ in results
    )
    assert verdict(7, ok, detail + f" (runtime target 3600s)", elapsed)
