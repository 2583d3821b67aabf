"""Small tanh MLPs with hand-written backprop, plus the update rules.

Policy and value heads share the same container: per-layer weight
matrices (fan_in, fan_out) and bias vectors, tanh on hidden layers,
identity on the output. Gradients are exact reverse-mode, computed from
the cached forward activations. Checkpoints round-trip bit-exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "MlpParams",
    "AdamState",
    "PolicyBundle",
    "init_mlp",
    "init_bundle",
    "forward",
    "forward_cached",
    "backward",
    "log_softmax",
    "softmax",
    "sample_action",
    "sample_actions",
    "log_prob_and_entropy",
    "adam_step",
    "sgd_step",
    "apply_update",
    "save_bundle",
    "load_bundle",
]

CHECKPOINT_VERSION = 1


@dataclass
class MlpParams:
    """Per-layer weights (fan_in, fan_out) and biases (fan_out,)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape}")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(
                    f"layer {i}: fan_in {w.shape[0]} does not match previous "
                    f"fan_out {self.weights[i - 1].shape[1]}"
                )

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def arrays(self) -> list[np.ndarray]:
        """Flat [W0, b0, W1, b1, ...] view used by the optimizers."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "MlpParams":
        return MlpParams(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )


def init_mlp(
    rng: np.random.Generator,
    in_dim: int,
    hidden: tuple[int, ...] = (64, 64),
    out_dim: int = 1,
    out_scale: float = 1.0,
) -> MlpParams:
    """Scaled-uniform init; the output layer is shrunk by ``out_scale``."""
    dims = (in_dim, *hidden, out_dim)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        if i == len(dims) - 2:
            w *= out_scale
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Deterministic forward pass; accepts a single vector or a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.in_dim:
        raise ValueError(f"input dim {x.shape[-1]} != expected {params.in_dim}")
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w
        h += b
        if i < last:
            np.tanh(h, out=h)
    return h


def _buffer(buffers: dict, key: tuple, shape: tuple[int, ...]) -> np.ndarray:
    """The scratch array stored under ``key``, reallocated if ``shape`` changed."""
    buf = buffers.get(key)
    if buf is None or buf.shape != shape:
        buf = buffers[key] = np.empty(shape)
    return buf


def forward_cached(
    params: MlpParams, x: np.ndarray, buffers: dict | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass on a batch, keeping per-layer activations for backward.

    Each layer's output is written into an array held in ``buffers``, a
    dict the caller owns and passes to every call (a fresh one is used
    when it is ``None``). The returned outputs and every cache entry but
    the input therefore alias buffers that the next call with the same
    ``buffers`` and batch size overwrites.
    """
    if buffers is None:
        buffers = {}
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if h.shape[1] != params.in_dim:
        raise ValueError(f"input dim {h.shape[1]} != expected {params.in_dim}")
    cache = [h]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(h, w, out=_buffer(buffers, ("act", i), (h.shape[0], w.shape[1])))
        h += b
        if i < last:
            np.tanh(h, out=h)
        cache.append(h)
    return h, cache


def backward(
    params: MlpParams,
    cache: list[np.ndarray],
    out_grad: np.ndarray,
    buffers: dict | None = None,
) -> tuple[MlpParams, np.ndarray]:
    """Exact gradients of ``sum(outputs * out_grad)`` for every parameter.

    Returns the parameter gradients (same container shape) and the
    gradient with respect to the input batch. Intermediate gradients and
    the parameter gradients are written into ``buffers`` as in
    ``forward_cached`` (the keys do not collide, so one dict serves
    both), and the next call with the same ``buffers`` overwrites the
    returned parameter gradients. The input gradient is a fresh array.
    """
    if buffers is None:
        buffers = {}
    out_grad = np.atleast_2d(np.asarray(out_grad, dtype=np.float64))
    if out_grad.shape != cache[-1].shape:
        raise ValueError(
            f"out_grad shape {out_grad.shape} != output shape {cache[-1].shape}"
        )
    n_layers = len(params.weights)
    w_grads: list[np.ndarray] = [np.empty(0)] * n_layers
    b_grads: list[np.ndarray] = [np.empty(0)] * n_layers
    g = out_grad
    for i in reversed(range(n_layers)):
        w = params.weights[i]
        if i == n_layers - 1:
            gz = g
        else:
            # Hidden outputs are post-tanh; fold the activation derivative
            # g * (1 - h**2) in, one ufunc at a time in that order.
            gz = np.square(cache[i + 1], out=_buffer(buffers, ("dz", i), g.shape))
            np.subtract(1.0, gz, out=gz)
            np.multiply(g, gz, out=gz)
        w_grads[i] = np.matmul(cache[i].T, gz, out=_buffer(buffers, ("dw", i), w.shape))
        b_grads[i] = np.sum(gz, axis=0, out=_buffer(buffers, ("db", i), w.shape[1:]))
        if i > 0:
            dh = _buffer(buffers, ("dh", i), (gz.shape[0], w.shape[0]))
            g = np.matmul(gz, w.T, out=dh)
        else:
            g = gz @ w.T  # the input gradient, returned in a fresh array
    return MlpParams(w_grads, b_grads), g


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    total = np.exp(z).sum(axis=-1, keepdims=True)
    z -= np.log(total, out=total)
    return z


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def sample_action(logits: np.ndarray, rng: np.random.Generator) -> tuple[int, float]:
    """Draw from the categorical given by ``logits``; return (index, log-prob)."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValueError(f"non-finite logits: {logits}")
    logp = log_softmax(logits)
    cdf = np.exp(logp).cumsum()
    action = int(cdf.searchsorted(rng.random()))
    action = min(action, len(logits) - 1)
    return action, float(logp[action])


def sample_actions(logits: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One categorical draw per row of ``logits`` (B, n), given its uniform.

    Row ``i`` gets the action ``sample_action`` returns for ``logits[i]``
    when its generator's next ``random()`` is ``uniforms[i]``: the index of
    the first CDF entry not below the uniform, clamped to the last action.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValueError(f"non-finite logits: {logits}")
    cdf = np.exp(log_softmax(logits)).cumsum(axis=-1)
    actions = (cdf < uniforms[:, None]).sum(axis=-1)
    return np.minimum(actions, logits.shape[-1] - 1, out=actions)


def log_prob_and_entropy(logits: np.ndarray, action: int) -> tuple[float, float]:
    """Exact categorical log-probability of ``action`` and distribution entropy."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= action < logits.shape[-1]:
        raise ValueError(f"action {action} out of range for {logits.shape[-1]} logits")
    logp = log_softmax(logits)
    p = np.exp(logp)
    entropy = float(-np.sum(p * logp))
    return float(logp[action]), entropy


@dataclass
class AdamState:
    """First/second moment accumulators and step count for one net."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: MlpParams) -> "AdamState":
        arrays = params.arrays()
        return cls(
            m=[np.zeros_like(a) for a in arrays],
            v=[np.zeros_like(a) for a in arrays],
        )


def adam_step(
    params: MlpParams,
    grads: MlpParams,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected adaptive-moment update, in place."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    # The update below, one ufunc at a time into two scratch arrays:
    #   m = beta1 * m + (1 - beta1) * g
    #   v = beta2 * v + (1 - beta2) * g**2
    #   p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m, state.v):
        s = np.multiply(g, 1.0 - beta1)
        m *= beta1
        m += s
        np.square(g, out=s)
        s *= 1.0 - beta2
        v *= beta2
        v += s
        np.divide(m, bc1, out=s)
        s *= lr
        t = np.divide(v, bc2)
        np.sqrt(t, out=t)
        t += eps
        s /= t
        p -= s


def sgd_step(params: MlpParams, grads: MlpParams, lr: float) -> None:
    for p, g in zip(params.arrays(), grads.arrays()):
        p -= lr * g


@dataclass
class PolicyBundle:
    """Policy and value parameter sets plus their optimizer state."""

    policy: MlpParams
    value: MlpParams
    policy_opt: AdamState = field(init=False)
    value_opt: AdamState = field(init=False)
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        self.policy_opt = AdamState.zeros_like(self.policy)
        self.value_opt = AdamState.zeros_like(self.value)


def init_bundle(
    rng: np.random.Generator,
    obs_dim: int,
    n_actions: int = 3,
    hidden: tuple[int, ...] = (64, 64),
    optimizer: str = "adam",
) -> PolicyBundle:
    """Fresh 64-64 tanh policy/value pair; policy output layer scaled by 0.01."""
    policy = init_mlp(rng, obs_dim, hidden, n_actions, out_scale=0.01)
    value = init_mlp(rng, obs_dim, hidden, 1, out_scale=1.0)
    return PolicyBundle(policy=policy, value=value, optimizer=optimizer)


def apply_update(
    params: MlpParams,
    grads: MlpParams,
    state: AdamState,
    lr: float,
    optimizer: str,
) -> None:
    if optimizer == "adam":
        adam_step(params, grads, state, lr)
    elif optimizer == "sgd":
        sgd_step(params, grads, lr)
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")


def _pack_net(prefix: str, params: MlpParams, opt: AdamState, out: dict) -> None:
    out[f"{prefix}_n_layers"] = np.int64(len(params.weights))
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out[f"{prefix}_w{i}"] = w
        out[f"{prefix}_b{i}"] = b
    for i, (m, v) in enumerate(zip(opt.m, opt.v)):
        out[f"{prefix}_opt_m{i}"] = m
        out[f"{prefix}_opt_v{i}"] = v
    out[f"{prefix}_opt_t"] = np.int64(opt.t)


def _unpack_net(prefix: str, data) -> tuple[MlpParams, AdamState]:
    n_layers = int(data[f"{prefix}_n_layers"])
    weights = [data[f"{prefix}_w{i}"].copy() for i in range(n_layers)]
    biases = [data[f"{prefix}_b{i}"].copy() for i in range(n_layers)]
    params = MlpParams(weights, biases)
    m = [data[f"{prefix}_opt_m{i}"].copy() for i in range(2 * n_layers)]
    v = [data[f"{prefix}_opt_v{i}"].copy() for i in range(2 * n_layers)]
    return params, AdamState(m=m, v=v, t=int(data[f"{prefix}_opt_t"]))


def save_bundle(
    path: str | Path, bundle: PolicyBundle, meta: dict[str, int] | None = None
) -> None:
    """Write a versioned checkpoint that ``load_bundle`` restores bit-exactly.

    The file is written to exactly ``path`` (no ``.npz`` is appended). It is
    first written beside it under a temporary name and then renamed onto
    ``path``, so a write that fails partway leaves the previous checkpoint
    in place.
    """
    payload: dict = {
        "version": np.int64(CHECKPOINT_VERSION),
        "optimizer": np.str_(bundle.optimizer),
    }
    _pack_net("policy", bundle.policy, bundle.policy_opt, payload)
    _pack_net("value", bundle.value, bundle.value_opt, payload)
    for key, value in (meta or {}).items():
        payload[f"meta_{key}"] = np.int64(value)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_bundle(path: str | Path) -> tuple[PolicyBundle, dict[str, int]]:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        policy, policy_opt = _unpack_net("policy", data)
        value, value_opt = _unpack_net("value", data)
        bundle = PolicyBundle(
            policy=policy, value=value, optimizer=str(data["optimizer"])
        )
        bundle.policy_opt = policy_opt
        bundle.value_opt = value_opt
        meta = {
            key[len("meta_"):]: int(data[key])
            for key in data.files
            if key.startswith("meta_")
        }
    return bundle, meta
