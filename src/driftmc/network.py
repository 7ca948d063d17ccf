"""Shallow feedforward networks from time to R^d, with hand-derived gradients.

One hidden layer, affine output layer.  Gradients are computed by explicit
backpropagation; no autodiff framework is involved.  The canonical flat
parameter order (hidden weights, hidden biases, output weights, output
biases) is part of the public contract and is what checkpoint files store.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionError, NonFiniteError, integer,
                     numbers, read_object, record, string, write_json)

# Scaled tanh constants recommended for unit-variance inputs.
_ST_A = 1.7159
_ST_B = 2.0 / 3.0


def _scaled_tanh(x):
    return _ST_A * np.tanh(_ST_B * x)


def _scaled_tanh_prime(x):
    t = np.tanh(_ST_B * x)
    return _ST_A * _ST_B * (1.0 - t * t)


def _tanh_prime(x):
    t = np.tanh(x)
    return 1.0 - t * t


ACTIVATIONS = {
    "scaled_tanh": (_scaled_tanh, _scaled_tanh_prime),
    "tanh": (np.tanh, _tanh_prime),
}


@dataclass(frozen=True)
class ShallowNet:
    """t -> w_out @ psi(w_in * t + b_in) + b_out, psi applied componentwise."""

    w_in: np.ndarray   # (hidden,)
    b_in: np.ndarray   # (hidden,)
    w_out: np.ndarray  # (output, hidden)
    b_out: np.ndarray  # (output,)
    activation: str = "scaled_tanh"

    def __post_init__(self):
        for name in ("w_in", "b_in", "w_out", "b_out"):
            a = np.array(getattr(self, name), dtype=np.float64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        l = self.w_in.shape[0]
        if self.w_in.ndim != 1 or self.b_in.shape != (l,):
            raise DimensionError("hidden layer shapes inconsistent")
        if self.w_out.ndim != 2 or self.w_out.shape[1] != l:
            raise DimensionError("output weights must have shape (d, hidden)")
        if self.b_out.shape != (self.w_out.shape[0],):
            raise DimensionError("output bias length must match output width")
        string(self.activation, "activation", ACTIVATIONS)
        for name in ("w_in", "b_in", "w_out", "b_out"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteError(f"{name} has non-finite entries")

    @property
    def hidden_width(self):
        return self.w_in.shape[0]

    @property
    def output_width(self):
        return self.w_out.shape[0]

    @property
    def n_params(self):
        l, d = self.hidden_width, self.output_width
        return l * (d + 2) + d

    def to_flat(self):
        """Parameters in canonical order (w_in, b_in, w_out, b_out)."""
        return np.concatenate(
            [self.w_in, self.b_in, self.w_out.ravel(), self.b_out])

    def with_params(self, flat):
        """Rebuild the net from a canonical flat parameter vector."""
        flat = np.asarray(flat, dtype=np.float64)
        l, d = self.hidden_width, self.output_width
        return ShallowNet(
            w_in=flat[:l],
            b_in=flat[l:2 * l],
            w_out=flat[2 * l:2 * l + d * l].reshape(d, l),
            b_out=flat[2 * l + d * l:],
            activation=self.activation,
        )


def init_net(hidden, output, rng, activation="scaled_tanh"):
    """Fresh net with uniform hidden layer and zero output layer.

    The zero output layer makes the initial map identically zero, so drift
    training starts exactly at the unadjusted sampling measure.
    """
    bound = np.sqrt(6.0 / (1.0 + hidden))
    return ShallowNet(
        w_in=rng.uniform(-bound, bound, size=hidden),
        b_in=rng.uniform(-bound, bound, size=hidden),
        w_out=np.zeros((output, hidden)),
        b_out=np.zeros(output),
        activation=activation,
    )


def forward(net, t):
    """Evaluate the net at the times ``t``, shape (m,), as an (m, d) array."""
    psi, _ = ACTIVATIONS[net.activation]
    t = np.asarray(t, dtype=np.float64)
    hidden = psi(np.outer(t, net.w_in) + net.b_in)
    return hidden @ net.w_out.T + net.b_out


def backward_grid(net, times, upstreams):
    """Gradient of sum_k upstreams[k] . forward(net, times[k]) w.r.t. the
    flat parameters.

    Linearity in the upstream vector lets callers aggregate per-path
    cotangents before a single call; one time point is ``times = [t]``.
    """
    psi, psi_prime = ACTIVATIONS[net.activation]
    times = np.asarray(times, dtype=np.float64)
    upstreams = np.asarray(upstreams, dtype=np.float64)
    z = np.outer(times, net.w_in) + net.b_in     # (m, hidden)
    hidden = psi(z)
    g_b_out = upstreams.sum(axis=0)
    g_w_out = upstreams.T @ hidden
    d_hidden = (upstreams @ net.w_out) * psi_prime(z)
    g_b_in = d_hidden.sum(axis=0)
    g_w_in = d_hidden.T @ times
    return np.concatenate([g_w_in, g_b_in, g_w_out.ravel(), g_b_out])


# Adam's moment decay rates and denominator offset, at the defaults of
# Kingma & Ba (2015); only the learning rate is a run setting.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment estimates and learning rate for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    step: int = 0

    @classmethod
    def fresh(cls, n_params, learning_rate):
        return cls(m=np.zeros(n_params), v=np.zeros(n_params),
                   learning_rate=learning_rate)


def adam_step(params, grad, state):
    """One Adam update with bias correction; returns (params, state)."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(m=m, v=v, step=t,
                                 learning_rate=state.learning_rate)


_CHECKPOINT_SCHEMA = "driftmc-checkpoint-v1"


def _checkpoint_digest(hidden, output, activation, flat):
    head = f"{_CHECKPOINT_SCHEMA}|{hidden}|{output}|{activation}|".encode()
    return hashlib.sha256(head + np.asarray(flat, dtype=np.float64).tobytes()).hexdigest()


def save_checkpoint(net, path):
    """Write the net as versioned JSON with an integrity checksum."""
    flat = net.to_flat()
    write_json(path, {
        "schema": _CHECKPOINT_SCHEMA,
        "hidden": net.hidden_width,
        "output": net.output_width,
        "activation": net.activation,
        "params": [float(x) for x in flat],
        "sha256": _checkpoint_digest(net.hidden_width, net.output_width,
                                     net.activation, flat),
    })


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`; every refusal
    is a ConfigError naming the file and the field."""
    saved = read_object(path, "checkpoint")
    where = f"checkpoint {path}"
    string(saved.get("schema"), f"{where}: 'schema'", (_CHECKPOINT_SCHEMA,))
    record(saved, where, ("schema", "hidden", "output", "activation",
                          "params", "sha256"))
    l = integer(saved["hidden"], f"{where}: 'hidden'", minimum=1)
    d = integer(saved["output"], f"{where}: 'output'", minimum=1)
    activation = string(saved["activation"], f"{where}: 'activation'",
                        ACTIVATIONS)
    flat = np.array(numbers(saved["params"], f"{where}: 'params'",
                            l * (d + 2) + d), dtype=np.float64)
    if _checkpoint_digest(l, d, activation, flat) != saved["sha256"]:
        raise ConfigError(f"{where}: checksum mismatch")
    return ShallowNet(w_in=np.zeros(l), b_in=np.zeros(l),
                      w_out=np.zeros((d, l)), b_out=np.zeros(d),
                      activation=activation).with_params(flat)
