"""Minimizing the reweighted second moment of the payoff over drift networks.

The objective for a drift with integrand f is

    V = E[ F(X)^2 * exp(-sum_k f_k . dM_k + |h|^2 / 2) ]

estimated on batches simulated under the ORIGINAL measure, so the squared
payoff carries no dependence on the network parameters and the gradient is
an exact pathwise derivative of the batch estimate: the cotangent of f at
step k is (-dM_k + pi f_k dt_k), scaled per path by the weighted squared
payoff.  Training is plain Adam on a fresh batch every step and returns
the last iterate, as stochastic-approximation importance sampling does
(Arouna 2004).  Selecting the step with the lowest fresh-batch objective
instead would keep the untrained net whenever the first batch has no
positive payoff, since such a batch has objective zero.

Since a batch does not depend on the parameters, and each step draws its
batch from its own substream, the batches are drawn ahead on a pool of
``threads`` threads while the calling thread evaluates the objective and
takes the Adam steps in step order; the trained net and the trace are the
same, bit for bit, at every thread count.  On 2 vCPUs (Python 3.11,
numpy 2.4) this cut the training of the benchmark's two ``run`` workloads
from 0.17-0.19 s to 0.11-0.12 s at two threads, and a default
Stein-Stein ``driftmc train`` from about 8.3 s to 4.6 s.

A run trains the drift on :func:`training_grid`, a coarse grid of the
pricing horizon, and prices with it on the fine one.  The network maps
continuous time to R^d, and the drift space and its approximation result
are stated in continuous time, so the trained net evaluates unchanged on
any grid of the same horizon; the importance-sampled estimator stays
unbiased for any drift.  Simulation is most of a training step, so the
coarse grid makes training several times cheaper.
"""

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covariation import (TimeGrid, cameron_martin_map,
                          log_likelihood_inverse)
from .errors import (NonFiniteError, NumericalError, SimulationError,
                     integer, number, string)
from .network import ACTIVATIONS, AdamState, adam_step, backward_grid, forward
from .models import CHUNK_SIZE, leading, simulate
from .payoffs import check_width, evaluate_batch
from . import streams

# Training grid steps per unit of time.  VR on the 252-step pricing grid
# (Black-Scholes / Heston / 3/2 / Stein-Stein) was 286 / 105 / 131 / 72
# trained on dt 1/50, against 250 / 101 / 133 / 67 trained on dt 1/252.
STEPS_PER_UNIT_TIME = 50


@dataclass(frozen=True)
class TrainConfig:
    """The run config's whole ``training`` block: its fields, defaults and
    checks, so a bad value is a ConfigError naming ``training.<field>``.
    Resolve fills in ``hidden_width`` None as the model's driver dimension."""

    batch_size: int = 256
    epochs: int = 10
    steps_per_epoch: int = 100
    learning_rate: float = 1e-2
    seed: int = 0
    hidden_width: int | None = None
    activation: str = "scaled_tanh"

    def __post_init__(self):
        for name, least in (("batch_size", 2), ("epochs", 0),
                            ("steps_per_epoch", 0), ("seed", 0)):
            object.__setattr__(self, name, integer(
                getattr(self, name), f"training.{name}", least))
        if self.hidden_width is not None:
            object.__setattr__(self, "hidden_width", integer(
                self.hidden_width, "training.hidden_width", 1))
        number(self.learning_rate, "training.learning_rate", positive=True)
        string(self.activation, "training.activation", ACTIVATIONS)


@dataclass
class TrainTrace:
    """Step-by-step record of a training run, whose fields are the JSON of
    ``training_trace.json``; ``informative[k]`` is whether step k's batch
    had a positive payoff."""

    v_hat: list = field(default_factory=list)
    h_norm_sq: list = field(default_factory=list)
    informative: list = field(default_factory=list)
    halted_reason: str | None = None

    @property
    def n_steps(self):
        return len(self.v_hat)

    @property
    def uninformative_steps(self):
        """Steps whose batch had no positive payoff, and so no gradient."""
        return self.informative.count(False)

    @property
    def best_step(self):
        """Adam updates in the returned net, which is the last iterate;
        ``perfbench`` reads it."""
        return self.n_steps


@dataclass(frozen=True)
class TrainingBatch:
    """Squared payoffs and driver increments of one batch simulated under
    the original measure; everything the objective needs."""

    payoff_sq: np.ndarray    # (batch,)
    increments: np.ndarray   # (batch, n_steps, d)


def training_grid(grid):
    """The grid a drift for ``grid`` trains on: the same horizon at
    :data:`STEPS_PER_UNIT_TIME` steps per unit of time, rounded up, and
    never finer than ``grid``."""
    steps = grid.horizon * STEPS_PER_UNIT_TIME
    # horizon * 50 may land an ulp off a whole number, as 1.1 * 50 does
    return TimeGrid(grid.horizon, min(grid.n_steps,
                                      math.ceil(steps - 1e-9 * steps)))


def simulate_training_batch(model, payoff, grid, cov, rng, batch_size):
    """Draw one training batch under the original measure.

    The batch owns its one (n_steps, d, batch_size) increments array, which
    the objective reads whole, but holds the states of one chunk only:
    ``CHUNK_SIZE`` paths at a time, as in the estimators, are simulated into
    their columns of the increments and into one reused chunk of states,
    and priced into their slice of ``payoff_sq``.  The chunks read the
    stream in path order, so the batch is that of one
    :func:`~driftmc.models.simulate` call of ``batch_size`` paths, and a
    path that blows up is reported by its batch-wide id.
    """
    check_width(payoff, model.n)
    increments = np.empty((grid.n_steps, model.d, batch_size))
    states = np.empty((grid.n_steps + 1) * model.n_state
                      * min(CHUNK_SIZE, batch_size))
    payoff_sq = np.empty(batch_size)
    for lo in range(0, batch_size, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, batch_size)
        out = (increments[:, :, lo:hi],
               leading(states, (grid.n_steps + 1, model.n_state, hi - lo)))
        try:
            batch = simulate(model, grid, cov, rng, hi - lo, out=out)
        except SimulationError as exc:
            raise exc.shifted(lo) from exc
        payoff_sq[lo:hi] = evaluate_batch(payoff, batch.states, grid).values**2
    return TrainingBatch(payoff_sq=payoff_sq,
                         increments=increments.transpose(2, 0, 1))


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
    upstream = -np.einsum("p,pkd->kd", per_path, batch.increments) \
        + np.sum(per_path) * drift.shift
    grad = backward_grid(net, grid.left_times, upstream)
    return v_hat, grad, drift.h_norm_sq


def train(net, model, payoff, grid, cov, config, threads=1):
    """Run Adam on the objective over ``grid``; returns (trained net, trace).

    Every step draws a fresh batch from its own substream of
    ``config.seed``.  A pool of ``threads`` threads draws the batches of
    the next ``threads`` steps while the calling thread evaluates the
    objective on the current one and takes its Adam step, so training
    holds ``threads + 1`` batches, each its increments and squared payoffs
    (:class:`TrainingBatch`), and the trained net and the trace do not
    depend on ``threads``.  The trained net carries the parameters after
    the last Adam update.  A numerical failure at step s, in its batch or
    its objective, halts the run: the net is returned as it was before
    that step's update, the trace's ``halted_reason`` names the failure and
    the step, and the batches drawn ahead are dropped.
    """
    trace = TrainTrace()
    params = net.to_flat()
    state = AdamState.fresh(params.size, learning_rate=config.learning_rate)
    steps = config.epochs * config.steps_per_epoch

    def draw(step):
        rng = streams.substream(config.seed, streams.TRAIN, step)
        return simulate_training_batch(model, payoff, grid, cov, rng,
                                       config.batch_size)

    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        ahead = deque(pool.submit(draw, step)
                      for step in range(min(threads, steps)))
        for step in range(steps):
            if step + threads < steps:
                ahead.append(pool.submit(draw, step + threads))
            try:
                batch = ahead.popleft().result()
                v_hat, grad, h_norm_sq = objective_on_batch(
                    net.with_params(params), batch, grid, cov)
                if not (np.isfinite(v_hat) and np.all(np.isfinite(grad))):
                    raise NonFiniteError("non-finite objective or gradient")
            except NumericalError as exc:
                trace.halted_reason = f"{exc} at step {step}"
                break
            trace.v_hat.append(v_hat)
            trace.h_norm_sq.append(h_norm_sq)
            trace.informative.append(bool(np.any(batch.payoff_sq)))
            params, state = adam_step(params, grad, state)
    finally:
        # After a halt or an error, batches not yet started are never drawn.
        pool.shutdown(cancel_futures=True)

    return net.with_params(params), trace
