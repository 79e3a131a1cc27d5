"""Embedding network, triplet loss with analytic gradients, and Adam.

The network is a small fully-connected net whose final linear output is
L2-normalized row-wise, so every embedding lands on the unit sphere. Backprop
goes through the normalization Jacobian (I - z z^T)/||u||. The hinge
subgradient at exactly zero is taken as zero, so a minibatch of only inactive
triplets produces an exactly-zero gradient.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import ConfigError, savez_deterministic, squared_distance

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainingConfig:
    margin: float = 0.6
    batch_n: int = 2048          # selection-batch size N (pairs per mining round)
    minibatch_size: int = 32     # triplets per optimization step
    total_steps: int = 200       # selection rounds
    lr_init: float = 1e-3
    lr_final: float = 1e-5
    hidden_dims: tuple[int, ...] = (64,)
    embed_dim: int = 32
    activation: str = "tanh"
    seed: int = 0

    def validate(self) -> None:
        if self.margin <= 0:
            raise ConfigError("margin must be > 0")
        if min(self.batch_n, self.minibatch_size, self.total_steps, self.embed_dim) < 1:
            raise ConfigError("all counts must be positive")
        if self.batch_n < 2:
            raise ConfigError("batch_n must be >= 2")
        if self.minibatch_size > 2 * self.batch_n:
            raise ConfigError("minibatch_size must be <= 2 * batch_n")
        if self.activation not in ("tanh", "relu"):
            raise ConfigError(f"unknown activation: {self.activation!r}")
        if not (self.lr_init > 0 and self.lr_final > 0):
            raise ConfigError("learning rates must be > 0")


class EmbeddingNetwork:
    """MLP with unit-norm output. Parameters are [W0, b0, W1, b1, ...]."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
                 activation: str = "tanh"):
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be nonempty and aligned")
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation: {activation!r}")
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
        self.activation = activation

    @classmethod
    def create(cls, input_dim: int, hidden_dims: Iterable[int], embed_dim: int,
               activation: str, rng: np.random.Generator) -> "EmbeddingNetwork":
        """Seeded uniform fan-in initialization, zero biases."""
        dims = [input_dim, *hidden_dims, embed_dim]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            a = np.sqrt(3.0 / fan_in)
            weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, activation)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *(w.shape[1] for w in self.weights))

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "EmbeddingNetwork":
        return EmbeddingNetwork(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
        )

    def _act(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x) if self.activation == "tanh" else np.maximum(x, 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Embed features; accepts a single vector or a batch of rows."""
        z, _ = self.forward_with_cache(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        return z[0] if np.asarray(x).ndim == 1 else z

    def forward_with_cache(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected (n, {self.input_dim}) features, got {x.shape}")
        hs = [x]  # post-activation outputs, hs[0] = input
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = self._act(h @ w + b)
            hs.append(h)
        u = h @ self.weights[-1] + self.biases[-1]
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        if not np.all(norms > 0.0):
            raise FloatingPointError("embedding collapsed to zero norm")
        z = u / norms
        return z, (hs, u, norms, z)

    def backward(self, cache, dz: np.ndarray) -> list[np.ndarray]:
        """Gradients w.r.t. parameters given dL/dz; aligned with parameters()."""
        hs, u, norms, z = cache
        du = (dz - z * np.sum(dz * z, axis=1, keepdims=True)) / norms
        grads: list[np.ndarray] = []
        dh = du
        for l in range(len(self.weights) - 1, -1, -1):
            grads.append(dh.sum(axis=0))          # bias
            grads.append(hs[l].T @ dh)            # weight
            if l > 0:
                dh = dh @ self.weights[l].T
                if self.activation == "tanh":
                    dh = dh * (1.0 - hs[l] ** 2)
                else:
                    dh = dh * (hs[l] > 0.0)
        grads.reverse()
        return grads


def triplet_loss(z_a: np.ndarray, z_p: np.ndarray, z_n: np.ndarray, margin: float) -> float:
    """Hinged squared-distance margin loss for one (anchor, positive, negative)."""
    d_ap = squared_distance(z_a, z_p)
    d_an = squared_distance(z_a, z_n)
    return max(d_ap - d_an + margin, 0.0)


def loss_gradients(net: EmbeddingNetwork, features: np.ndarray, triplets,
                   margin: float) -> tuple[float, list[np.ndarray]]:
    """Mean triplet loss over a minibatch and its parameter gradients.

    ``triplets`` is an ``(anchor, positive, negative)`` triple of index
    arrays into ``features``, the flattened image matrix. Only images
    referenced by the minibatch are embedded. Triplets on the flat side of
    the hinge contribute zero loss and zero gradient but still count in the
    mean.
    """
    a_idx, p_idx, n_idx = (np.asarray(t, dtype=np.int64) for t in triplets)
    t = len(a_idx)
    if t == 0:
        raise ValueError("minibatch must be nonempty")
    used, inv = np.unique(np.concatenate([a_idx, p_idx, n_idx]), return_inverse=True)
    a_loc, p_loc, n_loc = inv[:t], inv[t:2 * t], inv[2 * t:]

    z, cache = net.forward_with_cache(np.asarray(features, dtype=np.float64)[used])
    za, zp, zn = z[a_loc], z[p_loc], z[n_loc]
    d_ap = np.einsum("ij,ij->i", za - zp, za - zp)
    d_an = np.einsum("ij,ij->i", za - zn, za - zn)
    viol = d_ap - d_an + margin
    active = viol > 0.0
    loss = float(np.sum(np.maximum(viol, 0.0)) / t)

    dz = np.zeros_like(z)
    w = active.astype(np.float64)[:, None] / t
    np.add.at(dz, a_loc, 2.0 * (zn - zp) * w)
    np.add.at(dz, p_loc, -2.0 * (za - zp) * w)
    np.add.at(dz, n_loc, 2.0 * (za - zn) * w)
    return loss, net.backward(cache, dz)


@dataclass
class OptimizerState:
    """Adam moments plus the exponential learning-rate schedule."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int
    lr_init: float
    lr_final: float
    decay_steps: int

    @classmethod
    def for_network(cls, net: EmbeddingNetwork, lr_init: float, lr_final: float,
                    decay_steps: int) -> "OptimizerState":
        params = net.parameters()
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            step=0,
            lr_init=lr_init,
            lr_final=lr_final,
            decay_steps=max(int(decay_steps), 1),
        )

    def learning_rate(self, step: int) -> float:
        """lr decays exponentially from lr_init to lr_final over decay_steps,
        then stays at lr_final."""
        frac = min(max(step - 1, 0), self.decay_steps) / self.decay_steps
        return self.lr_init * (self.lr_final / self.lr_init) ** frac


def adam_step(state: OptimizerState, net: EmbeddingNetwork,
              grads: Sequence[np.ndarray]) -> tuple[EmbeddingNetwork, OptimizerState]:
    """One bias-corrected Adam update, in place; returns the updated pair."""
    params = net.parameters()
    if len(grads) != len(params):
        raise ValueError("gradient count does not match parameter count")
    state.step += 1
    lr = state.learning_rate(state.step)
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return net, state


def save_checkpoint(path: str | Path, net: EmbeddingNetwork, state: OptimizerState,
                    step: int, config_hash: str, extras: dict[str, str] | None = None) -> None:
    """Versioned checkpoint: config hash, all parameters, optimizer state,
    step count, plus opaque extra records (JSON strings)."""
    arrays: dict[str, np.ndarray] = {
        "checkpoint_version": np.int64(_CHECKPOINT_VERSION),
        "config_hash": np.str_(config_hash),
        "activation": np.str_(net.activation),
        "layer_dims": np.asarray(net.layer_dims, dtype=np.int64),
        "step": np.int64(step),
        "adam_step": np.int64(state.step),
        "lr_init": np.float64(state.lr_init),
        "lr_final": np.float64(state.lr_final),
        "decay_steps": np.int64(state.decay_steps),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    for i, (m, v) in enumerate(zip(state.m, state.v)):
        arrays[f"adam_m{i}"] = m
        arrays[f"adam_v{i}"] = v
    for key, val in (extras or {}).items():
        arrays[f"extra_{key}"] = np.str_(val)
    savez_deterministic(path, arrays)


def load_checkpoint(path: str | Path, expected_config_hash: str | None = None):
    """Load a checkpoint; rejects a mismatched config hash.

    Returns (net, optimizer_state, step, config_hash, extras).
    """
    with np.load(path) as z:
        if int(z["checkpoint_version"]) != _CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version in {path}")
        config_hash = str(z["config_hash"])
        if expected_config_hash is not None and config_hash != expected_config_hash:
            raise ConfigError(
                f"checkpoint config hash {config_hash} does not match expected "
                f"{expected_config_hash}"
            )
        dims = z["layer_dims"]
        n_layers = len(dims) - 1
        net = EmbeddingNetwork(
            [z[f"w{i}"] for i in range(n_layers)],
            [z[f"b{i}"] for i in range(n_layers)],
            activation=str(z["activation"]),
        )
        state = OptimizerState(
            m=[z[f"adam_m{i}"].copy() for i in range(2 * n_layers)],
            v=[z[f"adam_v{i}"].copy() for i in range(2 * n_layers)],
            step=int(z["adam_step"]),
            lr_init=float(z["lr_init"]),
            lr_final=float(z["lr_final"]),
            decay_steps=int(z["decay_steps"]),
        )
        extras = {
            k[len("extra_"):]: str(z[k])
            for k in z.files
            if k.startswith("extra_")
        }
        step = int(z["step"])
    return net, state, step, config_hash, extras
