"""The benchmark's workloads: config, set-up and one closed-loop job each.

Every job runs in one process with ``threads`` pool workers and is repeated
by the caller with the same seed.  The seed drives the training and
estimation streams; the model parameters stay fixed (``MODEL_SEED``) until
an all-zero plain sample is no longer reported as a 0% SE estimate
(ROADMAP item 3).  See README.md for why each workload was chosen.
"""

import inspect
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from driftmc import config, engine, models, payoffs, pipeline, stats, training
from driftmc.covariation import CovariationSpec
from driftmc.engine import estimate_plain
from driftmc.network import ShallowNet, save_checkpoint
from driftmc.pipeline import price_with_checkpoint, run
from driftmc.training import objective_on_batch, simulate_training_batch

from tracing import Hook

BLOCK_SIZE = 2048
# Some model seeds give the Black-Scholes basket an all-zero plain sample,
# which the program reports as mean 0 with 0% SE (ROADMAP item 3).  Pass the
# workload seed here once that is fixed.
MODEL_SEED = 0
# c in the fixed drift b_out = c * (basket weights, 0) of the pricing workload.
DRIFT_SCALE = 1.5
# Paths of the drift check batch, and its stream id apart from the program's.
CHECK_PATHS = 1024
CHECK_STREAM = 9


@dataclass(frozen=True)
class Workload:
    """One scenario and the size of its job.

    ``kind`` is "run" (``pipeline.run``: plain, train, IS) or "price" (plain
    plus IS with a fixed drift stored as a checkpoint, no training).
    """

    name: str
    kind: str
    model: dict
    payoff: dict
    sample_size: int
    train_steps: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("bs-otm-run", "run", {"tag": "black_scholes"},
             {"moneyness": 1.3}, sample_size=16384, train_steps=60),
    Workload("heston-ko-price", "price", {"tag": "heston"},
             {"moneyness": 1.1, "barrier_moneyness": [0.7, 1.6]},
             sample_size=8192),
    Workload("sv-atm-run", "run", {"tag": "stein_stein"},
             {"moneyness": 1.0}, sample_size=8192, train_steps=30),
)}


def raw_config(workload, seed):
    training_block = {"seed": seed}
    if workload.kind == "run":
        training_block.update(epochs=1, steps_per_epoch=workload.train_steps)
    return {
        "model": dict(workload.model, seed=MODEL_SEED),
        "payoff": dict(workload.payoff),
        "training": training_block,
        "estimation": {"seed": seed, "sample_sizes": [workload.sample_size],
                       "block_size": BLOCK_SIZE},
    }


@dataclass
class Scenario:
    workload: Workload
    raw: dict
    cfg: dict
    model: object
    payoff: object
    grid: object
    cov: object
    drift: ShallowNet | None
    checkpoint: Path | None

    @property
    def est_seed(self):
        return int(self.cfg["estimation"]["seed"])


def fixed_drift(cfg, model, payoff):
    """Constant drift c * (basket weights on the assets, 0 on the vols)."""
    width = int(cfg["training"]["hidden_width"])
    direction = np.zeros(model.d)
    direction[:model.n] = payoff.weights
    return ShallowNet(w_in=np.zeros(width), b_in=np.zeros(width),
                      w_out=np.zeros((model.d, width)), b_out=DRIFT_SCALE * direction,
                      activation=cfg["training"]["activation"])


def set_up(workload, seed, out_dir):
    """Config resolution, scenario build and, for "price", the drift."""
    raw = raw_config(workload, seed)
    cfg = config.resolve_config(raw)
    model = config.build_model(cfg)
    grid = config.build_grid(cfg)
    payoff = config.build_payoff(cfg)
    cov = CovariationSpec(model.sigma, grid)
    drift = checkpoint = None
    if workload.kind == "price":
        drift = fixed_drift(cfg, model, payoff)
        checkpoint = Path(out_dir) / "drift_checkpoint.json"
        save_checkpoint(drift, checkpoint)
    return Scenario(workload, raw, cfg, model, payoff, grid, cov, drift,
                    checkpoint)


def run_job(sc, tracer, out_dir, threads):
    """One job.  Its outputs are read back from the spans it leaves."""
    w = sc.workload
    call = tracer.call
    if w.kind == "run":
        return call("pipeline.run", "bench", run, sc.raw, out_dir,
                    threads=threads)
    rng = np.random.default_rng([sc.est_seed, CHECK_STREAM])
    batch = call("training.simulate_training_batch", "bench",
                 simulate_training_batch, sc.model, sc.payoff, sc.grid, sc.cov,
                 rng, CHECK_PATHS)
    zero = sc.drift.with_params(np.zeros(sc.drift.n_params))
    for net in (zero, sc.drift):
        call("training.objective_on_batch", "bench", objective_on_batch,
             net, batch, sc.grid, sc.cov, keep_result=True)
    call("engine.estimate_plain", "bench", estimate_plain, sc.model, sc.payoff,
         sc.grid, sc.cov, seed=sc.est_seed, n=w.sample_size,
         label=pipeline.run_label(sc.cfg), threads=threads,
         block_size=BLOCK_SIZE, fanout=True, keep_result=True)
    return call("pipeline.price_with_checkpoint", "bench",
                price_with_checkpoint, sc.cfg, sc.checkpoint, n=w.sample_size,
                seed=sc.est_seed + 1, threads=threads)


def _path_steps(args, kwargs, batch):
    return batch.states.shape[0] * (batch.states.shape[1] - 1)


_EVALUATE_BATCH = inspect.signature(payoffs.evaluate_batch)


def _payoff_steps(args, kwargs, result):
    states = _EVALUATE_BATCH.bind(*args, **kwargs).arguments["states"]
    return states.shape[0] * (states.shape[1] - 1)


def stage_hooks():
    """Hooks that are always on: the stages whose outputs are checked."""
    return [
        Hook(pipeline, "estimate_plain", "engine.estimate_plain", fanout=True,
             keep_result=True),
        Hook(pipeline, "estimate_is", "engine.estimate_is", fanout=True,
             keep_result=True),
        Hook(pipeline, "train", "training.train", keep_result=True),
    ]


def layer_hooks():
    """Hooks of the traced run: every layer boundary the job crosses."""
    hooks = [Hook(pipeline, "resolve_config", "config.resolve_config"),
             Hook(stats.RunningMoments, "from_array", "stats.from_array")]
    for owner in (engine, training):
        hooks.append(Hook(owner, "simulate", "models.simulate", work=_path_steps))
        hooks.append(Hook(owner, "evaluate_batch", "payoffs.evaluate_batch",
                          work=_payoff_steps))
    for owner in (models, training):
        hooks.append(Hook(owner, "cameron_martin_map",
                          "covariation.cameron_martin_map"))
        hooks.append(Hook(owner, "forward", "network.forward"))
    hooks += [
        Hook(models, "log_likelihood_inverse",
             "covariation.log_likelihood_inverse"),
        Hook(training, "simulate_training_batch",
             "training.simulate_training_batch"),
        Hook(training, "objective_on_batch", "training.objective_on_batch"),
        Hook(training, "backward_grid", "network.backward_grid"),
        Hook(training, "adam_step", "network.adam_step"),
    ]
    return hooks
