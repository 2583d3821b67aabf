"""MLP forward/backward, categorical head, optimizers, checkpoints."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taxtrader import nets
from taxtrader.nets import (
    AdamState,
    MlpParams,
    adam_step,
    backward,
    forward,
    forward_cached,
    init_bundle,
    init_mlp,
    load_bundle,
    log_prob_and_entropy,
    log_softmax,
    sample_action,
    sample_actions,
    save_bundle,
    sgd_step,
    softmax,
)


def finite_difference_grads(params, x, out_grad, h=1e-5):
    """Central differences of sum(forward(params, x) * out_grad)."""

    def objective():
        return float(np.sum(forward(params, x) * out_grad))

    grads = []
    for arr in params.arrays():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = objective()
            arr[idx] = orig - h
            down = objective()
            arr[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def small_net(rng, in_dim=4, hidden=(6, 5), out_dim=3):
    params = init_mlp(rng, in_dim, hidden, out_dim, out_scale=1.0)
    # nonzero biases so their gradients are exercised off the origin
    for b in params.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    return params


class TestForward:
    def test_zero_params_zero_output(self):
        params = MlpParams(
            weights=[np.zeros((3, 4)), np.zeros((4, 2))],
            biases=[np.zeros(4), np.zeros(2)],
        )
        assert np.array_equal(forward(params, np.ones(3)), np.zeros(2))

    def test_scalar_chain_matches_hand_composition(self):
        params = MlpParams(
            weights=[np.array([[0.5]]), np.array([[-0.7]]), np.array([[1.2]])],
            biases=[np.array([0.1]), np.array([0.2]), np.array([-0.3])],
        )
        x = 0.8
        expected = 1.2 * math.tanh(0.2 - 0.7 * math.tanh(0.1 + 0.5 * x)) - 0.3
        out = forward(params, np.array([x]))
        assert out[0] == pytest.approx(expected, rel=1e-14)

    def test_golden_fixture(self):
        # Frozen from a seed-42 init; guards init + forward against drift.
        params = init_mlp(np.random.default_rng(42), 4, (64, 64), 3, out_scale=0.01)
        out = forward(params, np.array([0.5, -1.0, 2.0, 0.25]))
        expected = [
            0.013159461576699921,
            0.0024143014690201276,
            -0.007007563622070118,
        ]
        assert out == pytest.approx(expected, rel=1e-14)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        params = small_net(rng)
        xs = rng.normal(size=(7, 4))
        batched = forward(params, xs)
        for i, x in enumerate(xs):
            assert forward(params, x) == pytest.approx(batched[i], rel=1e-14)

    def test_shape_mismatch_raises(self):
        params = small_net(np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(params, np.ones(5))

    def test_finite_outputs(self):
        params = small_net(np.random.default_rng(1))
        out = forward(params, np.array([1e3, -1e3, 0.0, 5.0]))
        assert np.all(np.isfinite(out))


class TestBackward:
    def test_zero_out_grad_zero_grads(self):
        rng = np.random.default_rng(3)
        params = small_net(rng)
        _, cache = forward_cached(params, rng.normal(size=(5, 4)))
        grads, input_grad = backward(params, cache, np.zeros((5, 3)))
        for g in grads.arrays():
            assert np.all(g == 0.0)
        assert np.all(input_grad == 0.0)

    def test_scalar_linear_net_gradient_is_input(self):
        params = MlpParams(weights=[np.array([[2.0]])], biases=[np.array([0.5])])
        x = np.array([[3.0]])
        _, cache = forward_cached(params, x)
        grads, input_grad = backward(params, cache, np.array([[1.0]]))
        assert grads.weights[0][0, 0] == 3.0
        assert grads.biases[0][0] == 1.0
        assert input_grad[0, 0] == 2.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            params = small_net(rng)
            x = rng.normal(size=(3, 4))
            out_grad = rng.normal(size=(3, 3))
            _, cache = forward_cached(params, x)
            grads, _ = backward(params, cache, out_grad)
            fd = finite_difference_grads(params, x, out_grad)
            for analytic, numeric in zip(grads.arrays(), fd):
                worst = np.max(
                    np.abs(analytic - numeric)
                    / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
                )
                assert worst < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        params = small_net(rng)
        x = rng.normal(size=4)
        out_grad = rng.normal(size=(1, 3))
        _, cache = forward_cached(params, x)
        _, input_grad = backward(params, cache, out_grad)
        h = 1e-6
        for i in range(4):
            bumped_up, bumped_down = x.copy(), x.copy()
            bumped_up[i] += h
            bumped_down[i] -= h
            fd = (
                np.sum(forward(params, bumped_up) * out_grad[0])
                - np.sum(forward(params, bumped_down) * out_grad[0])
            ) / (2 * h)
            assert rel_err(input_grad[0, i], fd) < 1e-4


class TestCategoricalHead:
    def test_uniform_logits(self):
        logp, entropy = log_prob_and_entropy(np.zeros(3), 0)
        assert logp == pytest.approx(math.log(1.0 / 3.0), rel=1e-12)
        assert entropy == pytest.approx(math.log(3.0), rel=1e-12)

    def test_saturated_logits(self):
        rng = np.random.default_rng(0)
        actions = [sample_action(np.array([1000.0, 0.0, 0.0]), rng)[0] for _ in range(200)]
        assert set(actions) == {0}
        _, entropy = log_prob_and_entropy(np.array([1000.0, 0.0, 0.0]), 0)
        assert entropy == pytest.approx(0.0, abs=1e-12)

    def test_sample_log_prob_consistency(self):
        rng = np.random.default_rng(4)
        logits = np.array([0.3, -0.2, 0.5])
        action, logp = sample_action(logits, rng)
        expected, _ = log_prob_and_entropy(logits, action)
        assert logp == expected

    def test_empirical_frequencies_match_softmax(self):
        logits = np.array([0.3, -0.2, 0.5])
        probs = softmax(logits)
        rng = np.random.default_rng(123)
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[sample_action(logits, rng)[0]] += 1
        freqs = counts / n
        for p, f in zip(probs, freqs):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(f - p) < 3 * se

    def test_brute_force_normalization_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            logits = rng.normal(scale=rng.uniform(0.1, 50.0), size=3)
            brute = np.exp(logits) / np.sum(np.exp(logits))
            for a in range(3):
                logp, _ = log_prob_and_entropy(logits, a)
                assert rel_err(math.exp(logp), brute[a]) < 1e-12

    @given(st.lists(st.floats(-1000.0, 1000.0), min_size=2, max_size=8))
    def test_probabilities_normalize(self, logits):
        probs = softmax(np.array(logits))
        assert abs(float(np.sum(probs)) - 1.0) < 1e-12
        assert np.all(probs >= 0.0)

    def test_rejects_non_finite_logits(self):
        with pytest.raises(ValueError):
            sample_action(np.array([np.nan, 0.0, 0.0]), np.random.default_rng(0))

    def test_rejects_bad_action_index(self):
        with pytest.raises(ValueError):
            log_prob_and_entropy(np.zeros(3), 3)

    def test_log_softmax_stable_for_extreme_logits(self):
        out = log_softmax(np.array([1e3, -1e3, 0.0]))
        assert np.all(np.isfinite(out))


class TestAdam:
    def make_params(self):
        return MlpParams(
            weights=[np.array([[1.0]])], biases=[np.array([-2.0])]
        )

    def test_zero_gradient_no_change(self):
        params = self.make_params()
        grads = MlpParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
        state = AdamState.zeros_like(params)
        adam_step(params, grads, state, lr=0.1)
        assert params.weights[0][0, 0] == 1.0
        assert params.biases[0][0] == -2.0

    def test_first_step_is_signed_learning_rate(self):
        rng = np.random.default_rng(5)
        params = small_net(rng)
        before = [a.copy() for a in params.arrays()]
        grads = MlpParams(
            weights=[rng.normal(size=w.shape) for w in params.weights],
            biases=[rng.normal(size=b.shape) for b in params.biases],
        )
        state = AdamState.zeros_like(params)
        adam_step(params, grads, state, lr=0.01)
        for prev, now, g in zip(before, params.arrays(), grads.arrays()):
            step = prev - now
            assert step == pytest.approx(0.01 * np.sign(g), rel=1e-5)

    def test_two_step_golden(self):
        # Frozen from an independent hand evaluation of the update rule
        # with lr=0.1 on theta=(1, -2), gradients (0.5, -1) then (0.25, 0.5).
        params = self.make_params()
        state = AdamState.zeros_like(params)
        g1 = MlpParams(weights=[np.array([[0.5]])], biases=[np.array([-1.0])])
        g2 = MlpParams(weights=[np.array([[0.25]])], biases=[np.array([0.5])])
        adam_step(params, g1, state, lr=0.1)
        assert params.weights[0][0, 0] == pytest.approx(0.900000002, rel=1e-12)
        assert params.biases[0][0] == pytest.approx(-1.900000001, rel=1e-12)
        adam_step(params, g2, state, lr=0.1)
        assert params.weights[0][0, 0] == pytest.approx(0.8067820404774624, rel=1e-12)
        assert params.biases[0][0] == pytest.approx(-1.873366297370903, rel=1e-12)

    def test_sgd_step(self):
        params = self.make_params()
        grads = MlpParams(weights=[np.array([[2.0]])], biases=[np.array([4.0])])
        sgd_step(params, grads, lr=0.25)
        assert params.weights[0][0, 0] == 0.5
        assert params.biases[0][0] == -3.0


class TestBundleCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        bundle = init_bundle(rng, obs_dim=5)
        # dirty the optimizer state so it is exercised by the round trip
        grads = MlpParams(
            weights=[rng.normal(size=w.shape) for w in bundle.policy.weights],
            biases=[rng.normal(size=b.shape) for b in bundle.policy.biases],
        )
        adam_step(bundle.policy, grads, bundle.policy_opt, lr=1e-3)
        path = tmp_path / "ckpt.npz"
        save_bundle(path, bundle, meta={"epoch": 3, "seed": 9})
        loaded, meta = load_bundle(path)
        assert meta == {"epoch": 3, "seed": 9}
        assert loaded.optimizer == "adam"
        for a, b in zip(bundle.policy.arrays(), loaded.policy.arrays()):
            assert np.array_equal(a, b)
        for a, b in zip(bundle.value.arrays(), loaded.value.arrays()):
            assert np.array_equal(a, b)
        for a, b in zip(bundle.policy_opt.m, loaded.policy_opt.m):
            assert np.array_equal(a, b)
        assert loaded.policy_opt.t == bundle.policy_opt.t

    def test_deterministic_init(self):
        a = init_bundle(np.random.default_rng([3, 0]), obs_dim=5)
        b = init_bundle(np.random.default_rng([3, 0]), obs_dim=5)
        for x, y in zip(a.policy.arrays(), b.policy.arrays()):
            assert np.array_equal(x, y)

    def test_policy_and_value_parameters_disjoint(self):
        bundle = init_bundle(np.random.default_rng(0), obs_dim=5)
        policy_ids = {id(a) for a in bundle.policy.arrays()}
        value_ids = {id(a) for a in bundle.value.arrays()}
        assert policy_ids.isdisjoint(value_ids)

    def test_version_check(self, tmp_path):
        bundle = init_bundle(np.random.default_rng(0), obs_dim=5)
        path = tmp_path / "ckpt.npz"
        save_bundle(path, bundle)
        data = dict(np.load(path))
        data["version"] = np.int64(999)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_bundle(path)

    def test_shape_chain_validated(self):
        with pytest.raises(ValueError):
            MlpParams(weights=[np.zeros((3, 4)), np.zeros((5, 2))],
                      biases=[np.zeros(4), np.zeros(2)])


# Reference versions of the buffered, in-place code paths, written as
# plain expressions on fresh arrays. The library must reproduce them bit
# for bit.


def oracle_forward_cached(params, x):
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    cache = [h]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
        cache.append(h)
    return h, cache


def oracle_backward(params, cache, out_grad):
    n_layers = len(params.weights)
    w_grads, b_grads = [None] * n_layers, [None] * n_layers
    g = out_grad
    for i in reversed(range(n_layers)):
        gz = g if i == n_layers - 1 else g * (1.0 - cache[i + 1] ** 2)
        w_grads[i] = cache[i].T @ gz
        b_grads[i] = gz.sum(axis=0)
        g = gz @ params.weights[i].T
    return w_grads + b_grads, g


def oracle_log_softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def oracle_sample_action(logits, rng):
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    logp = oracle_log_softmax(logits)
    cdf = np.cumsum(np.exp(logp))
    action = int(np.searchsorted(cdf, rng.random()))
    action = min(action, len(logits) - 1)
    return action, float(logp[action])


def oracle_adam_step(arrays, grads, m_list, v_list, t, lr,
                     beta1=0.9, beta2=0.999, eps=1e-8):
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, m, v in zip(arrays, grads, m_list, v_list):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g**2
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def assert_all_equal(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert np.array_equal(a, e)


class TestBufferedPassesBitIdentical:
    def nets_pair(self):
        rng = np.random.default_rng(31)
        return small_net(rng, 5, (16, 16), 3), small_net(rng, 5, (16, 16), 3), rng

    def test_forward_cached_reuses_buffers_and_matches_oracle(self):
        first, second, rng = self.nets_pair()
        x = rng.normal(size=(40, 5))
        buffers = {}
        out1, cache1 = forward_cached(first, x, buffers)
        expected_out, expected_cache = oracle_forward_cached(first, x)
        assert np.array_equal(out1, expected_out)
        assert_all_equal(cache1, expected_cache)
        kept = list(cache1)
        out2, cache2 = forward_cached(second, x, buffers)
        expected_out, expected_cache = oracle_forward_cached(second, x)
        assert np.array_equal(out2, expected_out)
        assert_all_equal(cache2, expected_cache)
        assert out2 is out1
        assert all(a is b for a, b in zip(cache2[1:], kept[1:]))
        # A new batch size reallocates and still matches.
        x_small = rng.normal(size=(7, 5))
        out3, cache3 = forward_cached(second, x_small, buffers)
        expected_out, expected_cache = oracle_forward_cached(second, x_small)
        assert np.array_equal(out3, expected_out)
        assert_all_equal(cache3, expected_cache)
        assert out3 is not out1 and out3.shape == (7, 3)

    def test_backward_reuses_buffers_and_matches_oracle(self):
        first, second, rng = self.nets_pair()
        x = rng.normal(size=(40, 5))
        buffers = {}
        results = []
        for params, n in ((first, 40), (second, 40), (second, 9)):
            xs = x[:n]
            out_grad = rng.normal(size=(n, 3))
            _, cache = forward_cached(params, xs, buffers)
            grads, input_grad = backward(params, cache, out_grad, buffers)
            _, oracle_cache = oracle_forward_cached(params, xs)
            expected_grads, expected_input = oracle_backward(
                params, oracle_cache, out_grad
            )
            assert_all_equal(grads.weights + grads.biases, expected_grads)
            assert np.array_equal(input_grad, expected_input)
            results.append((grads, input_grad, expected_input))
        (g1, in1, exp1), (_, in2, _), (g3, _, _) = results
        # Parameter gradients keep their shape at any batch size; every
        # batch-sized buffer was reallocated for the 9-row batch.
        assert all(a is b for a, b in zip(g3.arrays(), g1.arrays()))
        assert not any(a.shape[0] == 40 for a in buffers.values())
        # The input gradient is the caller's to keep.
        assert in2 is not in1
        assert np.array_equal(in1, exp1)

    def test_single_observation_forward_matches_oracle(self):
        first, _, rng = self.nets_pair()
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 30.0), size=5)
            expected, _ = oracle_forward_cached(first, x)
            assert np.array_equal(forward(first, x), expected[0])

    def test_log_softmax_matches_oracle(self):
        rng = np.random.default_rng(32)
        for shape in ((3,), (50, 3), (4, 7)):
            logits = rng.normal(scale=20.0, size=shape)
            assert np.array_equal(log_softmax(logits), oracle_log_softmax(logits))

    def test_sample_action_matches_oracle(self):
        rng = np.random.default_rng(33)
        cases = [rng.normal(scale=rng.uniform(0.01, 50.0), size=3) for _ in range(500)]
        cases += [np.array([1000.0, 0.0, 0.0]), np.array([0.0, 0.0, 1e3]), np.zeros(3)]
        draw_new, draw_old = np.random.default_rng(5), np.random.default_rng(5)
        for logits in cases:
            assert sample_action(logits, draw_new) == oracle_sample_action(
                logits, draw_old
            )

    def test_batched_draw_matches_row_by_row_draws(self):
        # Each row's uniform is what that row's own generator would draw
        # next, so the batched draw must agree with sample_action and with
        # the oracle, row by row, on the same streams.
        rng = np.random.default_rng(34)
        for rows in (1, 2, 16, 100):
            logits = rng.normal(scale=rng.uniform(0.01, 50.0), size=(rows, 3))
            logits[0] = (1000.0, 0.0, 0.0)
            streams = [np.random.default_rng([34, rows, i]) for i in range(rows)]
            uniforms = np.array([s.random() for s in streams])
            streams = [np.random.default_rng([34, rows, i]) for i in range(rows)]
            oracles = [np.random.default_rng([34, rows, i]) for i in range(rows)]
            actions = sample_actions(logits, uniforms)
            for row, stream, oracle, action in zip(logits, streams, oracles, actions):
                assert sample_action(row, stream)[0] == action
                assert oracle_sample_action(row, oracle)[0] == action

    def test_batched_draw_covers_every_action_and_the_cdf_edges(self):
        logits = np.zeros((5, 3))
        cdf = np.exp(log_softmax(logits[0])).cumsum()
        uniforms = np.array([0.0, cdf[0], np.nextafter(cdf[0], 1.0), cdf[1], 1.0])
        expected = [min(int(np.searchsorted(cdf, u)), 2) for u in uniforms]
        assert sample_actions(logits, uniforms).tolist() == expected
        assert set(expected) == {0, 1, 2}

    def test_batched_draw_rejects_non_finite_logits(self):
        logits = np.zeros((3, 3))
        logits[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sample_actions(logits, np.full(3, 0.5))

    def test_adam_step_matches_oracle(self):
        first, _, rng = self.nets_pair()
        reference = first.copy()
        state = AdamState.zeros_like(first)
        ref_m = [np.zeros_like(a) for a in reference.arrays()]
        ref_v = [np.zeros_like(a) for a in reference.arrays()]
        for t in range(1, 6):
            grads = MlpParams(
                weights=[rng.normal(size=w.shape) for w in first.weights],
                biases=[rng.normal(size=b.shape) for b in first.biases],
            )
            adam_step(first, grads, state, lr=1e-2)
            oracle_adam_step(reference.arrays(), grads.arrays(), ref_m, ref_v, t, 1e-2)
            assert_all_equal(first.arrays(), reference.arrays())
            assert_all_equal(state.m, ref_m)
            assert_all_equal(state.v, ref_v)


class TestAtomicCheckpoint:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.npz"
        old = init_bundle(np.random.default_rng(1), obs_dim=5)
        save_bundle(path, old, meta={"epoch": 1})

        def torn_savez(file, **payload):
            # Write part of an archive, then fail as a full disk would.
            if hasattr(file, "write"):
                file.write(b"PK\x03\x04 torn")
            else:
                Path(file).write_bytes(b"PK\x03\x04 torn")
            raise OSError("no space left on device")

        monkeypatch.setattr(nets.np, "savez", torn_savez)
        new = init_bundle(np.random.default_rng(2), obs_dim=5)
        with pytest.raises(OSError, match="no space"):
            save_bundle(path, new, meta={"epoch": 2})
        monkeypatch.undo()
        loaded, meta = load_bundle(path)
        assert meta == {"epoch": 1}
        assert_all_equal(loaded.policy.arrays(), old.policy.arrays())
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]

    def test_writes_exactly_the_given_path(self, tmp_path):
        path = tmp_path / "policy"
        save_bundle(path, init_bundle(np.random.default_rng(0), obs_dim=5))
        assert [p.name for p in tmp_path.iterdir()] == ["policy"]
        load_bundle(path)
