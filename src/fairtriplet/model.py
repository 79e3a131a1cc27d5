"""Embedding network, triplet loss with analytic gradients, and Adam.

The network is a small fully-connected net whose final linear output is
L2-normalized row-wise, so every embedding lands on the unit sphere. Backprop
goes through the normalization Jacobian (I - z z^T)/||u||. The hinge
subgradient at exactly zero is taken as zero, so a minibatch of only inactive
triplets produces an exactly-zero gradient.
"""
from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import ConfigError, savez_deterministic, squared_distance

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_CHECKPOINT_VERSION = 3
_HEADER_KEYS = ("config_hash", "activation", "shapes", "step", "adam_step", "lr_init",
                "lr_final", "decay_steps", "run_state")


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

    def __post_init__(self) -> None:
        if self.margin <= 0:
            raise ConfigError("margin must be > 0")
        if min(self.batch_n, self.minibatch_size, self.total_steps, self.embed_dim) < 1:
            raise ConfigError("all counts must be positive")
        if any(d < 1 for d in self.hidden_dims):
            raise ConfigError("hidden_dims entries must be >= 1")
        if self.batch_n < 2:
            raise ConfigError("batch_n must be >= 2")
        if self.minibatch_size > 2 * self.batch_n:
            raise ConfigError("minibatch_size must be <= 2 * batch_n")
        if self.activation not in ("tanh", "relu"):
            raise ConfigError(f"unknown activation: {self.activation!r}")
        if not (self.lr_init > 0 and self.lr_final > 0):
            raise ConfigError("learning rates must be > 0")


class EmbeddingNetwork:
    """MLP with unit-norm output. ``parameters()`` views one float64 vector,
    ``params``, as [W0, b0, W1, b1, ...]. Assigning to ``params`` copies the
    new values into that vector, so the views follow."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
                 activation: str = "tanh"):
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be nonempty and aligned")
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation: {activation!r}")
        params = [p for wb in zip(weights, biases) for p in wb]
        self.shapes = [np.shape(p) for p in params]
        ends = np.cumsum([math.prod(s) for s in self.shapes]).tolist()
        self._spans = [(end - math.prod(s), end, s) for end, s in zip(ends, self.shapes)]
        self._params = np.concatenate([np.ravel(p) for p in params], dtype=np.float64)
        self.weights, self.biases = self.parameters()[0::2], self.parameters()[1::2]
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
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, values: np.ndarray) -> None:
        """Copy ``values`` into the parameter vector. An in-place update
        (``net.params -= step``) assigns the vector to itself, a no-op."""
        values = np.asarray(values)
        if values.shape != self._params.shape:
            raise ValueError(f"parameter vector shape {values.shape} != {self._params.shape}")
        if values is not self._params:
            self._params[...] = values

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.weights[-1].shape[1]

    def layout(self, vec: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a vector shaped like ``params``, cut at the
        spans computed once in ``__init__``: it runs on every step."""
        return [vec[lo:hi].reshape(s) for lo, hi, s in self._spans]

    def parameters(self) -> list[np.ndarray]:
        return self.layout(self.params)

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
        if not np.isfinite(norms).all():
            raise FloatingPointError("non-finite embedding")
        if not np.all(norms > 0.0):
            raise FloatingPointError("embedding collapsed to zero norm")
        z = u / norms
        return z, (hs, u, norms, z)

    def backward(self, cache, dz: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. ``params`` given dL/dz, one vector shaped like it."""
        hs, u, norms, z = cache
        du = (dz - z * np.sum(dz * z, axis=1, keepdims=True)) / norms
        grad = np.empty_like(self._params)
        views = self.layout(grad)
        dh = du
        for l in range(len(self.weights) - 1, -1, -1):
            views[2 * l + 1][...] = dh.sum(axis=0)    # bias
            views[2 * l][...] = hs[l].T @ dh          # weight
            if l > 0:
                dh = dh @ self.weights[l].T
                if self.activation == "tanh":
                    dh = dh * (1.0 - hs[l] ** 2)
                else:
                    dh = dh * (hs[l] > 0.0)
        return grad


def triplet_loss(z_a: np.ndarray, z_p: np.ndarray, z_n: np.ndarray, margin: float) -> float:
    """Hinged squared-distance margin loss for one (anchor, positive, negative)."""
    d_ap = squared_distance(z_a, z_p)
    d_an = squared_distance(z_a, z_n)
    return max(d_ap - d_an + margin, 0.0)


def loss_gradients(net: EmbeddingNetwork, features: np.ndarray, triplets,
                   margin: float) -> tuple[float, np.ndarray]:
    """Mean triplet loss over a minibatch and its parameter gradients.

    ``triplets`` is an ``(anchor, positive, negative)`` triple of index
    arrays into ``features``, the flattened image matrix. Only images
    referenced by the minibatch are embedded. Triplets on the flat side of
    the hinge contribute zero loss and zero gradient but still count in the
    mean.
    """
    a_idx, p_idx, n_idx = (np.asarray(t, dtype=np.int64) for t in triplets)
    t = len(a_idx)
    if not len(p_idx) == len(n_idx) == t:
        raise ValueError("anchor, positive and negative index arrays differ in length")
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
    # add.at adds in index order: each row sums its anchor, then positive,
    # then negative terms, as three calls in that order would.
    np.add.at(dz, inv, np.concatenate([2.0 * (zn - zp) * w, -2.0 * (za - zp) * w,
                                       2.0 * (za - zn) * w]))
    return loss, net.backward(cache, dz)


@dataclass
class OptimizerState:
    """Adam moments, flat like ``params``, plus the exponential lr schedule."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr_init: float
    lr_final: float
    decay_steps: int

    @classmethod
    def for_network(cls, net: EmbeddingNetwork, lr_init: float, lr_final: float,
                    decay_steps: int) -> "OptimizerState":
        return cls(
            m=np.zeros_like(net.params),
            v=np.zeros_like(net.params),
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
              g: np.ndarray) -> tuple[EmbeddingNetwork, OptimizerState]:
    """One bias-corrected Adam update of the flat state by the flat gradient
    ``g``, in place; returns the pair. A misshapen ``g`` changes nothing."""
    if g.shape != net.params.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {net.params.shape}")
    state.step += 1
    lr = state.learning_rate(state.step)
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * (g * g)
    net.params -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)
    return net, state


def save_checkpoint(path: str | Path, net: EmbeddingNetwork, state: OptimizerState,
                    step: int, config_hash: str, run_state: dict | None = None) -> None:
    """Versioned checkpoint: the flat parameters and Adam moments, and a UTF-8
    JSON ``header`` with the version, config hash, activation, parameter
    shapes, step counts, learning-rate schedule and the caller's ``run_state``."""
    header = {
        "version": _CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "activation": net.activation,
        "shapes": net.shapes,
        "step": step,
        "adam_step": state.step,
        "lr_init": state.lr_init,
        "lr_final": state.lr_final,
        "decay_steps": state.decay_steps,
        "run_state": run_state or {},
    }
    # Key order is kept, not sorted: a mapping's order can carry meaning
    # (the dynamic sampler draws its groups in weight order).
    text = json.dumps(header).encode()
    savez_deterministic(path, {"header": np.frombuffer(text, dtype=np.uint8),
                               "params": net.params, "adam_m": state.m,
                               "adam_v": state.v})


def load_checkpoint(path: str | Path, expected_config_hash: str | None = None):
    """Load a checkpoint; rejects a mismatched config hash. A file that cannot
    be read as a checkpoint raises ``ConfigError`` naming it.

    Returns (net, optimizer_state, step, config_hash, run_state).
    """
    try:
        archive = np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as e:
        raise ConfigError(f"cannot read checkpoint {path}: {e}") from None
    with archive as z:
        try:
            header = json.loads(z["header"].tobytes())
        except (KeyError, ValueError):
            header = None
        if not isinstance(header, dict) or header.get("version") != _CHECKPOINT_VERSION:
            raise ConfigError(f"{path} is not a version-{_CHECKPOINT_VERSION} checkpoint")
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise ConfigError(f"{path}: checkpoint header lacks {missing}")
        config_hash = header["config_hash"]
        if expected_config_hash is not None and config_hash != expected_config_hash:
            raise ConfigError(
                f"checkpoint config hash {config_hash} does not match expected "
                f"{expected_config_hash}"
            )
        try:
            net = EmbeddingNetwork([np.zeros(s) for s in header["shapes"][0::2]],
                                   [np.zeros(s) for s in header["shapes"][1::2]],
                                   activation=header["activation"])
            net.params = z["params"]
            m, v = z["adam_m"], z["adam_v"]
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{path}: header shapes do not fit the arrays: {e}") from None
        if not m.shape == v.shape == net.params.shape:
            raise ConfigError(f"{path}: Adam moments do not match the parameters")
        state = OptimizerState(
            m=m,
            v=v,
            step=header["adam_step"],
            lr_init=header["lr_init"],
            lr_final=header["lr_final"],
            decay_steps=header["decay_steps"],
        )
    return net, state, header["step"], config_hash, header["run_state"]
