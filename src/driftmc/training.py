"""Minimizing the reweighted second moment of the payoff over drift networks.

The objective for a drift with integrand f is

    V = E[ F(X)^2 * exp(-sum_k f_k . dM_k + |h|^2 / 2) ]

estimated on batches simulated under the ORIGINAL measure, so the squared
payoff carries no dependence on the network parameters and the gradient is
an exact pathwise derivative of the batch estimate: the cotangent of f at
step k is (-dM_k + pi f_k dt_k), scaled per path by the weighted squared
payoff.  Training is plain Adam on a fresh batch every step, keeping the
parameter vector whose smoothed objective was lowest.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .covariation import cameron_martin_map, log_likelihood_inverse
from .network import AdamState, adam_step, backward_grid, forward
from .models import simulate
from .payoffs import check_width, evaluate_batch
from . import streams

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.  The fields and their defaults
    are also the ``training`` block of the run config, so every resolved
    config records them."""

    batch_size: int = 256
    epochs: int = 50
    steps_per_epoch: int = 100
    learning_rate: float = 1e-2
    seed: int = 0
    smooth_window: int = 200

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.smooth_window < 1:
            raise ValueError("smooth_window must be positive")


@dataclass
class TrainTrace:
    """Step-by-step record of a training run."""

    v_hat: list = field(default_factory=list)
    h_norm_sq: list = field(default_factory=list)
    best_step: int | None = None
    best_v_smoothed: float = math.inf
    uninformative_steps: int = 0
    halted_reason: str | None = None

    @property
    def n_steps(self):
        return len(self.v_hat)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("step,v_hat,h_norm_sq\n")
            for k, (v, h) in enumerate(zip(self.v_hat, self.h_norm_sq)):
                fh.write(f"{k},{v!r},{h!r}\n")


@dataclass(frozen=True)
class TrainingBatch:
    """Squared payoffs and driver increments of one batch simulated under
    the original measure; everything the objective needs."""

    payoff_sq: np.ndarray    # (batch,)
    increments: np.ndarray   # (batch, n_steps, d)


def simulate_training_batch(model, payoff, grid, cov, rng, batch_size):
    """Draw one training batch under the original measure."""
    check_width(payoff, model.n)
    batch = simulate(model, grid, cov, rng, batch_size)
    values = evaluate_batch(payoff, batch.states, grid).values
    return TrainingBatch(payoff_sq=values**2, increments=batch.increments)


def objective_on_batch(net, batch, grid, cov):
    """Objective estimate, exact parameter gradient and drift norm on a
    fixed batch; returns (v_hat, grad, h_norm_sq).

    Separating this from the batch draw gives common-random-number
    evaluations for free: perturb the net, keep the batch.  A batch whose
    payoffs are all zero is uninformative (the deep out-of-the-money
    regime) and yields a zero objective and gradient.
    """
    b = batch.payoff_sq.size
    drift = cameron_martin_map(forward(net, grid.left_times), cov)
    log_w = log_likelihood_inverse(drift, batch.increments, cov)
    per_path = batch.payoff_sq * np.exp(log_w) / b
    v_hat = float(np.sum(per_path))
    if not np.any(batch.payoff_sq):
        return 0.0, np.zeros(net.n_params), drift.h_norm_sq
    # d log_w / d f_k  =  -dM_k + pi f_k dt_k; aggregate paths first.
    pi_f_dt = drift.cumulative[1:] - drift.cumulative[:-1]
    upstream = -np.einsum("p,pkd->kd", per_path, batch.increments) \
        + np.sum(per_path) * pi_f_dt
    grad = backward_grid(net, grid.left_times, upstream)
    return v_hat, grad, drift.h_norm_sq


def train(net, model, payoff, grid, cov, config):
    """Run Adam on the objective over ``grid``; returns (best net, trace).

    Every step draws a fresh batch from its own substream of
    ``config.seed``.  A non-finite objective or gradient halts the run and
    the best checkpoint so far is returned.
    """
    trace = TrainTrace()
    total = config.epochs * config.steps_per_epoch
    if total == 0:
        return net, trace

    params = net.to_flat()
    state = AdamState.fresh(params.size, learning_rate=config.learning_rate)
    best_params = params.copy()
    window = []

    for step in range(total):
        rng = streams.substream(config.seed, streams.TRAIN, step)
        batch = simulate_training_batch(model, payoff, grid, cov, rng,
                                        config.batch_size)
        current = net.with_params(params)
        v_hat, grad, h_norm_sq = objective_on_batch(current, batch, grid, cov)
        if v_hat == 0.0 and not np.any(grad):
            trace.uninformative_steps += 1
        if not (np.isfinite(v_hat) and np.all(np.isfinite(grad))):
            trace.halted_reason = f"non-finite objective or gradient at step {step}"
            log.error(trace.halted_reason)
            break
        trace.v_hat.append(v_hat)
        trace.h_norm_sq.append(h_norm_sq)

        window.append(v_hat)
        if len(window) > config.smooth_window:
            window.pop(0)
        smoothed = float(np.mean(window))
        if smoothed < trace.best_v_smoothed:
            trace.best_v_smoothed = smoothed
            trace.best_step = step
            best_params = params.copy()

        params, state = adam_step(params, grad, state)

    return net.with_params(best_params), trace
