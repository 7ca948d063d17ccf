"""One benchmark run: repeated jobs, correctness checks and metrics.

The job of a workload is repeated with the same seed, at least
``MIN_REPS`` times, and then while one more repetition still fits in the
run's seconds.  Timings are medians over the repetitions; deterministic
outputs must be identical in every one.
Untraced repetitions carry only the stage spans (estimators and training,
a handful per job); a traced run alternates untraced and traced
repetitions, so both walls come from the same process and the tracing
overhead is their difference.
An untraced run also times the set-up in fresh interpreters, a few after
each repetition, so that its median samples the machine over the whole run
rather than over one moment of it.
"""

import json
import math
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import driftmc
from driftmc.config import resolve_config
from driftmc.covariation import sample_increments
from driftmc.engine import compare, comparison_to_dict, estimate_is
from driftmc.errors import DriftmcError

from tracing import Tracer, blocking_times, instrumented, self_times
from workloads import BLOCK_SIZE, layer_hooks, run_job, set_up, stage_hooks

MIN_REPS = 3
MIN_TRACED = 2
PROBE_REPEATS = 5
# Fresh-interpreter set-ups after each untraced repetition, and at least
# this many in a run.
SETUP_PER_REP = 2
SETUP_PROBES = 15
SETUP_TIMEOUT_S = 120
# IS and plain means may differ by at most this many combined SEs.
AGREEMENT_SE = 4.0
# Largest tracing overhead, as a share of the untraced wall_s (the bound
# BENCHMARK.json puts on wall_s).
TRACE_TOLERANCE = 0.25


@dataclass
class Rep:
    """What one job left: timings, outputs, failures and, traced, spans."""

    traced: bool
    wall_s: float = 0.0
    timings: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    spans: list = field(default_factory=list)
    is_report: object = None
    drift: object = None


def _one(spans, name):
    found = [s for s in spans if s.name == name]
    if len(found) != 1:
        raise RuntimeError(f"expected one {name} span, found {len(found)}")
    return found[0]


def _finite(*values):
    return all(v is not None and math.isfinite(v) for v in values)


def run_rep(sc, out_dir, threads, traced):
    """Run the job once and check its outputs.

    A job is three operations: plain estimate, IS estimate, and training
    (or the drift check on the pricing workload).
    """
    w = sc.workload
    rep = Rep(traced=traced, attempted=3)
    tracer = Tracer()
    hooks = stage_hooks() + (layer_hooks() if traced else [])
    try:
        with instrumented(tracer, hooks):
            tracer.call("job", "bench", run_job, sc, tracer, out_dir, threads)
    except DriftmcError as exc:
        rep.failures.append(("job", f"{type(exc).__name__}: {exc}"))
        return rep
    spans = tracer.spans
    rep.spans = spans if traced else []
    rep.wall_s = _one(spans, "job").duration

    plain_span = _one(spans, "engine.estimate_plain")
    is_span = _one(spans, "engine.estimate_is")
    plain = plain_span.result
    is_ = rep.is_report = is_span.result
    rep.timings = {"plain_s": plain_span.duration, "is_s": is_span.duration,
                   "train_s": 0.0}
    row = compare(plain, is_)
    rep.outputs = {
        "vr": row.vr, "kappa_p": plain.kappa, "kappa_ph": is_.kappa,
        "theta": plain.theta or 0.0, "mean_p_cents": plain.mean_cents,
        "mean_is_cents": is_.mean_cents, "se_pct_p": plain.se_pct,
        "se_pct_is": is_.se_pct, "var_p": plain.per_sample_variance,
        "var_is": is_.per_sample_variance, "n": plain.sample_size,
        "train_steps": 0, "informative_frac": 0.0, "best_step": 0,
    }

    def check(op, ok, what):
        if not ok:
            rep.failures.append((op, what))

    for op, r in (("plain", plain), ("is", is_)):
        check(op, _finite(r.mean_cents, r.per_sample_variance, r.se_pct),
              f"{op} mean or variance is not finite")
        check(op, r.kappa > 0.0, f"{op} sample has no positive payoff")
    se = math.hypot(*(math.sqrt(r.per_sample_variance / r.sample_size)
                      for r in (plain, is_)))
    gap = abs(is_.mean_cents - plain.mean_cents)
    check("is", gap <= AGREEMENT_SE * se,
          f"IS and plain means differ by {gap / se:.2f} combined SE")

    if w.kind == "run":
        train_span = _one(spans, "training.train")
        rep.drift, trace = train_span.result
        rep.timings["train_s"] = train_span.duration
        rep.outputs.update(
            train_steps=trace.n_steps, best_step=trace.best_step or 0,
            informative_frac=(1.0 - trace.uninformative_steps
                              / max(trace.n_steps, 1)))
        check("train", trace.n_steps == w.train_steps,
              f"training ran {trace.n_steps} of {w.train_steps} steps")
        check("train", trace.halted_reason is None,
              f"training halted: {trace.halted_reason}")
        with open(Path(out_dir) / "reports.json", encoding="utf-8") as fh:
            emitted = json.load(fh)["comparison"]
        check("is", emitted == [comparison_to_dict(row)],
              "reports.json does not match the estimates")
    else:
        rep.drift = sc.drift
        v_zero, v_drift = (s.result[0] for s in spans
                           if s.name == "training.objective_on_batch")
        rep.outputs.update(check_v_zero=v_zero, check_v_drift=v_drift)
        check("drift", v_drift < v_zero, "fixed drift raises the second "
              f"moment ({v_drift:.4g} >= {v_zero:.4g})")
        check("is", row.vr > 1.0, f"fixed drift gives VR {row.vr:.3g} <= 1")
    if traced:
        rep.outputs.update(_counts(spans))
    return rep


def _counts(spans):
    calls, work = {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.work
    blocks = sum(1 for s in spans if s.name == "models.simulate"
                 and s.site == "driftmc.engine")
    return {
        "models.simulate_calls": calls.get("models.simulate", 0),
        "models.path_steps": work.get("models.simulate", 0),
        "payoffs.path_steps": work.get("payoffs.evaluate_batch", 0),
        "covariation.cameron_martin_map_calls":
            calls.get("covariation.cameron_martin_map", 0),
        "network.forward_calls": calls.get("network.forward", 0),
        "network.adam_step_calls": calls.get("network.adam_step", 0),
        "engine.blocks": blocks,
    }


def layer_split(spans, threads):
    """Per-layer seconds and ratios of one traced job, from its spans."""
    own = self_times(spans)
    shares = blocking_times(spans)
    self_s, incl_s, blocking = {}, {}, {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
        incl_s[s.name] = incl_s.get(s.name, 0.0) + s.duration
        blocking[s.name] = blocking.get(s.name, 0.0) + shares[s.id]
    estimates = {s.id for s in spans if s.name.startswith("engine.estimate_")}
    busy = sum(s.duration for s in spans if s.parent in estimates)
    estimate_wall = sum(s.duration for s in spans if s.id in estimates)
    sim_train = incl_s.get("training.simulate_training_batch", 0.0)
    objective = incl_s.get("training.objective_on_batch", 0.0)
    split = {
        "training.simulate_training_batch_s": sim_train,
        "training.objective_on_batch_s": objective,
        "training.sim_share": sim_train / (sim_train + objective),
        "pipeline.self_s": sum(v for k, v in self_s.items()
                               if k.startswith("pipeline.")),
        "engine.parallel_eff": busy / (threads * estimate_wall),
    }
    for name in ("models.simulate", "payoffs.evaluate_batch",
                 "covariation.cameron_martin_map",
                 "covariation.log_likelihood_inverse", "network.forward",
                 "network.backward_grid", "stats.from_array"):
        split[name + "_s"] = self_s.get(name, 0.0)
    return split, blocking


def _median_seconds(fn, repeats=PROBE_REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def probes(sc, rep):
    """Single-layer probes on the job's shapes, run with tracing off.

    Also returns the job's IS estimate repeated on one thread, for the
    scaling efficiency and the thread-count invariance check.
    """
    w = sc.workload
    path_steps = BLOCK_SIZE * sc.grid.n_steps
    rng = np.random.default_rng(sc.est_seed)
    draws = _median_seconds(
        lambda: rng.standard_normal((BLOCK_SIZE, sc.grid.n_steps, sc.model.d)))
    increments = _median_seconds(
        lambda: sample_increments(sc.cov, rng, BLOCK_SIZE))
    resolve = _median_seconds(lambda: resolve_config(sc.raw))

    def is_estimate(n):
        return estimate_is(sc.model, sc.payoff, sc.grid, sc.cov, rep.drift,
                           seed=sc.est_seed + 1, n=n, label=rep.is_report.label,
                           threads=1, block_size=BLOCK_SIZE)
    tracemalloc.start()
    try:
        is_estimate(min(BLOCK_SIZE, w.sample_size))
        block_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "models.draws_ns_per_path_step": draws / path_steps * 1e9,
        "covariation.increments_ns_per_path_step": increments / path_steps * 1e9,
        "config.resolve_s": resolve,
        "engine.block_peak_mb": block_peak / 2**20,
    }, is_estimate(w.sample_size)


@dataclass
class Result:
    """Metric name -> value, operations attempted, failures, full record."""

    values: dict
    attempted: int
    failures: list
    record: dict


def _determinism_failures(reps):
    first, failures = {}, []
    for i, rep in enumerate(reps):
        for key, value in rep.outputs.items():
            if key in first and first[key] != value:
                failures.append(("determinism", f"{key} differs in repetition "
                                 f"{i}: {value!r} != {first[key]!r}"))
            first.setdefault(key, value)
    return failures


def setup_seconds(workload, seed, out_dir):
    """Seconds of one set-up in a fresh interpreter (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         str(Path(driftmc.__file__).parents[1]), workload.name, str(seed),
         str(out_dir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, threads, out_dir):
    """Run ``workload`` for ``seconds``; returns its metrics and checks."""
    sc = set_up(workload, seed, out_dir)
    probe_dir = Path(out_dir) / "setup"
    probe_dir.mkdir()
    setup = []
    if not trace:
        # Unmeasured: fills the page cache, as a user's repeated runs would.
        setup_seconds(workload, seed, probe_dir)
    reps = []
    deadline = time.perf_counter() + seconds
    while True:
        rep = run_rep(sc, out_dir, threads, traced=trace and len(reps) % 2 == 1)
        reps.append(rep)
        if rep.failures:
            break
        if not trace:
            setup += [setup_seconds(workload, seed, probe_dir)
                      for _ in range(SETUP_PER_REP)]
        traced = sum(r.traced for r in reps)
        enough = (len(reps) - traced >= (MIN_TRACED if trace else MIN_REPS)
                  and traced >= (MIN_TRACED if trace else 0))
        if enough and time.perf_counter() + rep.wall_s > deadline:
            break
    failures = [f for r in reps for f in r.failures] + _determinism_failures(reps)
    attempted = sum(r.attempted for r in reps)
    record = {"repetitions": [{"traced": r.traced, "wall_s": r.wall_s,
                               **r.timings} for r in reps]}
    if failures:
        return Result({}, attempted, failures, record)
    if setup:
        while len(setup) < SETUP_PROBES:
            setup.append(setup_seconds(workload, seed, probe_dir))
        record["setup_samples_s"] = setup

    plain_reps = [r for r in reps if not r.traced]
    n = workload.sample_size
    out = dict(reps[0].outputs)
    t = {key: [r.timings[key] for r in plain_reps] for key in reps[0].timings}
    values = {
        "wall_s": median([r.wall_s for r in plain_reps]),
        "plain_paths_per_s": median([n / x for x in t["plain_s"]]),
        "is_paths_per_s": median([n / x for x in t["is_s"]]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "vr": out["vr"],
        **({"setup_s": median(setup)} if setup else {}),
        # Seconds to a 1% relative SE: se_pct^2 * n paths at the measured rate.
        "time_to_1pct_s": median([tr + out["se_pct_is"] ** 2 * x for tr, x
                                  in zip(t["train_s"], t["is_s"])]),
        "plain_time_to_1pct_s": median([out["se_pct_p"] ** 2 * x
                                        for x in t["plain_s"]]),
        "train_steps_per_s": (median([out["train_steps"] / x
                                      for x in t["train_s"]])
                              if out["train_steps"] else 0.0),
    }
    record["outputs"] = out
    if trace:
        traced_reps = [r for r in reps if r.traced]
        splits = [layer_split(r.spans, threads) for r in traced_reps]
        for key in splits[0][0]:
            values[key] = median([s[key] for s, _ in splits])
        blocking = {k: median([b.get(k, 0.0) for _, b in splits])
                    for k in splits[0][1]}
        traced_out = traced_reps[0].outputs
        for key in ("models.simulate_calls", "models.path_steps",
                    "covariation.cameron_martin_map_calls",
                    "network.forward_calls", "network.adam_step_calls",
                    "engine.blocks"):
            values[key] = traced_out[key]
        values["models.ns_per_path_step"] = (
            values["models.simulate_s"] / traced_out["models.path_steps"] * 1e9)
        values["payoffs.ns_per_path_step"] = (
            values["payoffs.evaluate_batch_s"]
            / traced_out["payoffs.path_steps"] * 1e9)
        values.update({
            "training.steps": out["train_steps"],
            "training.informative_frac": out["informative_frac"],
            "training.best_step": out["best_step"],
            "engine.kappa_p": out["kappa_p"], "engine.kappa_ph": out["kappa_ph"],
            "engine.theta": out["theta"],
        })
        traced_wall = median([r.wall_s for r in traced_reps])
        values["trace.overhead_s"] = traced_wall - values["wall_s"]
        record["traced_wall_s"] = traced_wall
        record["blocking_s"] = blocking
        record["spans"] = _span_rows(traced_reps[-1].spans)
        # The blocking shares of a job add up to its traced wall, so they
        # account for the untraced wall_s within the tracing overhead.
        overhead = values["trace.overhead_s"]
        if abs(overhead) > TRACE_TOLERANCE * values["wall_s"]:
            failures.append(("trace", f"tracing changes the wall by "
                             f"{overhead:.3f} s of {values['wall_s']:.3f} s"))
        probe, single = probes(sc, reps[-1])
        values.update(probe)
        values["engine.scaling_eff"] = values["is_paths_per_s"] / (
            threads * n / single.wall_seconds)
        if _report_key(single) != _report_key(reps[-1].is_report):
            failures.append(("is", "IS estimate changes with the thread count"))
    return Result(values, attempted, failures, record)


def _span_rows(spans):
    """Spans of one traced job, times in seconds from the job's start."""
    origin = spans[0].start
    return [{"id": s.id, "name": s.name, "site": s.site, "thread": s.thread,
             "parent": s.parent, "start": s.start - origin,
             "end": s.end - origin, "work": s.work} for s in spans]


def _report_key(report):
    return tuple(v for k, v in vars(report).items() if k != "wall_seconds")
