"""Tests for the block-parallel estimators and report plumbing."""

import csv
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from driftmc import engine, streams
from driftmc.covariation import CovariationSpec, TimeGrid
from driftmc.engine import (CHUNK_SIZE, COMPARISON_FIELDS, EstimatorReport,
                            compare, comparison_to_dict, estimate_is,
                            estimate_plain, report_from_dict, report_to_dict,
                            rows_to_csv, _block_plan, _simulate_block)
from driftmc.errors import DimensionError, SimulationError, WeightOverflowError
from driftmc.models import BLACK_SCHOLES, HESTON, ModelSpec, simulate
from driftmc.network import ShallowNet, init_net
from driftmc.payoffs import PayoffSpec, evaluate_batch
from driftmc.stats import RunningMoments
from driftmc.training import simulate_training_batch


def bs_setup(vol=0.2, strike=1.1, n_steps=32):
    model = ModelSpec(tag=BLACK_SCHOLES, sigma=[[vol]], s0=[1.0], rate=0.05)
    payoff = PayoffSpec(weights=[1.0], strike=strike)
    grid = TimeGrid(1.0, n_steps)
    cov = CovariationSpec(model.sigma, grid)
    return model, payoff, grid, cov


def assert_csv_holds(path, row):
    """The one-row CSV at ``path``, read back with the stdlib reader, holds
    ``row`` losslessly: each cell parses to the same value (float repr
    round-trips, ``inf`` included) and None is an empty cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        (cells,) = csv.DictReader(fh)
    assert list(cells) == list(row)
    for name, value in row.items():
        if value is None:
            assert cells[name] == ""
        else:
            assert type(value)(cells[name]) == value


class TestBlockPlan:
    def test_partition_covers_sample(self):
        blocks = _block_plan(10_000, 4096)
        assert [b[2] for b in blocks] == [4096, 4096, 1808]
        assert [b[1] for b in blocks] == [0, 4096, 8192]

    def test_independent_of_thread_count(self):
        # the plan is a function of (n, block size) only; nothing else enters
        assert _block_plan(999, 1000) == [(0, 0, 999)]


class TestEstimatePlain:
    def test_report_fields(self):
        model, payoff, grid, cov = bs_setup()
        rep = estimate_plain(model, payoff, grid, cov, seed=0, n=4000,
                             label="bs")
        assert rep.measure == "P"
        assert rep.sample_size == 4000
        assert 0.0 <= rep.kappa <= 1.0
        assert rep.theta is None
        assert rep.mean_cents > 0.0
        assert rep.wall_seconds > 0.0

    def test_zero_sample_size_rejected(self):
        model, payoff, grid, cov = bs_setup()
        with pytest.raises(ValueError):
            estimate_plain(model, payoff, grid, cov, seed=0, n=0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_non_positive_thread_count_rejected(self, threads):
        model, payoff, grid, cov = bs_setup(n_steps=4)
        drift = init_net(3, model.d, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="threads"):
            estimate_plain(model, payoff, grid, cov, seed=0, n=10,
                           threads=threads)
        with pytest.raises(ValueError, match="threads"):
            estimate_is(model, payoff, grid, cov, drift, seed=0, n=10,
                        threads=threads)

    def test_thread_counts_agree_bitwise(self):
        model, payoff, grid, cov = bs_setup()
        kwargs = dict(seed=3, n=10_000, label="bs", block_size=1024)
        serial = estimate_plain(model, payoff, grid, cov, threads=1, **kwargs)
        threaded = estimate_plain(model, payoff, grid, cov, threads=8, **kwargs)
        assert serial.mean_cents == threaded.mean_cents
        assert serial.per_sample_variance == threaded.per_sample_variance
        assert serial.kappa == threaded.kappa

    def test_block_size_choice_changes_nothing_statistically(self):
        # different block sizes use different substreams, so only agreement
        # in distribution is expected: check overlapping confidence bands
        model, payoff, grid, cov = bs_setup()
        a = estimate_plain(model, payoff, grid, cov, seed=3, n=20_000,
                           block_size=512)
        b = estimate_plain(model, payoff, grid, cov, seed=3, n=20_000,
                           block_size=20_000)
        se = math.hypot(a.se_pct * a.mean_cents, b.se_pct * b.mean_cents) / 100
        assert abs(a.mean_cents - b.mean_cents) <= 4 * se

    def test_se_scaling_with_sample_size(self):
        model, payoff, grid, cov = bs_setup(strike=1.0)
        small = estimate_plain(model, payoff, grid, cov, seed=5, n=10_000)
        large = estimate_plain(model, payoff, grid, cov, seed=6, n=40_000)
        ratio = small.se_pct / large.se_pct
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_constant_payoff_under_zero_noise(self, fixed_normals,
                                              monkeypatch):
        # forced zero increments give a deterministic path, hence a constant
        # payoff c: the report must be exactly 100 * exp(-r u) * c with SE 0
        model, payoff, grid, cov = bs_setup(strike=0.5)
        batch = simulate(model, grid, cov, rng=fixed_normals(), n_paths=1)
        c = evaluate_batch(payoff, batch.states, grid).values[0]
        assert c > 0.0
        monkeypatch.setattr(streams, "substream",
                            lambda *ids: fixed_normals())
        rep = estimate_plain(model, payoff, grid, cov, seed=0, n=64,
                             block_size=16)
        assert rep.mean_cents == pytest.approx(100 * math.exp(-0.05) * c,
                                               rel=1e-12)
        assert rep.se_pct == 0.0
        assert rep.per_sample_variance == pytest.approx(0.0, abs=1e-20)

    def test_all_zero_sample_is_not_exact(self, tmp_path):
        # no path reaches a strike of 50: mean 0 has no relative error
        model, payoff, grid, cov = bs_setup(strike=50.0)
        rep = estimate_plain(model, payoff, grid, cov, seed=0, n=256,
                             label="bs")
        assert rep.mean_cents == 0.0
        assert rep.se_pct == math.inf
        row = report_to_dict(rep)
        assert json.loads(json.dumps(row))["se_pct"] == math.inf
        path = tmp_path / "report.csv"
        rows_to_csv([row], tuple(row), path)
        assert_csv_holds(path, row)

    def test_one_path_sample_is_not_exact(self):
        # one path has no error estimate: its SE must not read as zero
        model, payoff, grid, cov = bs_setup(strike=0.5)
        rep = estimate_plain(model, payoff, grid, cov, seed=0, n=1)
        assert rep.mean_cents > 0.0
        assert rep.se_pct == math.inf


class TestBlockStreams:
    @pytest.mark.parametrize("importance", [False, True],
                             ids=["plain", "is"])
    def test_block_i_is_drawn_from_substream_i(self, importance):
        # the paths an estimate priced in block i are those of one simulate
        # call of the block's size on substream(seed, ESTIMATE, i)
        model, payoff, grid, cov = bs_setup(strike=0.9, n_steps=4)
        drift = (ShallowNet(w_in=[0.5], b_in=[0.1], w_out=[[1.0]],
                            b_out=[0.5], activation="tanh")
                 if importance else None)
        discount_cents = 100.0 * math.exp(-model.rate * grid.horizon)
        values = []
        for i, size in ((0, 3), (1, 2)):
            batch = simulate(model, grid, cov,
                             streams.substream(2, streams.ESTIMATE, i), size,
                             drift=drift)
            values.append(evaluate_batch(payoff, batch.states, grid).values
                          * np.exp(batch.log_inverse_likelihood)
                          * discount_cents)
        expected = RunningMoments.from_array(np.concatenate(values))
        assert expected.variance() > 0.0

        estimate = estimate_is if importance else estimate_plain
        args = (drift,) if importance else ()
        rep = estimate(model, payoff, grid, cov, *args, seed=2, n=5,
                       block_size=3)
        assert rep.mean_cents == expected.mean
        assert rep.per_sample_variance == expected.variance()


def heston_two_assets():
    sigma = np.diag([0.5, 0.5, 0.2, 0.2])
    return ModelSpec(tag=HESTON, sigma=sigma, s0=[1.0, 1.0],
                     rate=0.05, mean_level=[0.04, 0.04], reversion=[2.0, 2.0],
                     v0=[0.04, 0.04])


class BlowUpNormals:
    """Generator stand-in drawing zero normals, except for the path at
    ``path`` of the whole sequence of draws, which is forced over the
    edge on its first two steps."""

    def __init__(self, path):
        self.path = path
        self.drawn = 0

    def standard_normal(self, shape):
        z = np.zeros(shape)
        if 0 <= self.path - self.drawn < shape[0]:
            z[self.path - self.drawn, :2] = 1e200
        self.drawn += shape[0]
        return z


class TestChunks:
    SIZE = 2 * CHUNK_SIZE + 37  # two full chunks and a partial one

    def ko_setup(self):
        model = heston_two_assets()
        payoff = PayoffSpec(weights=[0.5, 0.5], strike=1.0, lower=0.8,
                            upper=1.3)
        grid = TimeGrid(1.0, 16)
        return model, payoff, grid, CovariationSpec(model.sigma, grid)

    @pytest.mark.parametrize("importance", [False, True])
    def test_chunks_draw_the_numbers_of_one_shot(self, importance):
        model, payoff, grid, cov = self.ko_setup()
        drift = (init_net(3, model.d, rng=np.random.default_rng(4))
                 if importance else None)
        one_shot = simulate(model, grid, cov,
                            streams.substream(6, streams.ESTIMATE, 0),
                            self.SIZE, drift=drift)
        pay = evaluate_batch(payoff, one_shot.states, grid)
        values = pay.values * np.exp(one_shot.log_inverse_likelihood) * 90.0
        assert 0 < pay.knocked_out.sum() < self.SIZE

        block = _simulate_block(model, payoff, grid, cov, drift, 6,
                                (0, 0, self.SIZE), 90.0)
        np.testing.assert_array_equal(block.values, values)
        np.testing.assert_array_equal(block.above_strike, pay.above_strike)
        np.testing.assert_array_equal(block.knocked_out, pay.knocked_out)

    def test_estimate_reduces_its_blocks_once(self):
        # blocks of two chunks each and a short last block, on two threads:
        # the report is the one reduction of the blocks' paths in block order
        model, _, grid, cov = self.ko_setup()
        payoff = PayoffSpec(weights=[0.5, 0.5], strike=1.0, lower=0.9,
                            upper=1.15)
        drift = init_net(3, model.d, rng=np.random.default_rng(4))
        discount_cents = 100.0 * math.exp(-model.rate * grid.horizon)
        values, knocked = [], 0
        for i, size in ((0, 600), (1, 600), (2, 300)):
            batch = simulate(model, grid, cov,
                             streams.substream(5, streams.ESTIMATE, i), size,
                             drift=drift)
            pay = evaluate_batch(payoff, batch.states, grid)
            values.append(pay.values * np.exp(batch.log_inverse_likelihood)
                          * discount_cents)
            knocked += int(pay.knocked_out.sum())
        expected = RunningMoments.from_array(np.concatenate(values))
        assert 100 < knocked < 1400

        rep = estimate_is(model, payoff, grid, cov, drift, seed=5, n=1500,
                          threads=2, block_size=600)
        assert rep.mean_cents == expected.mean
        assert rep.per_sample_variance == expected.variance()
        assert rep.se_pct == 100.0 * expected.standard_error() / abs(
            expected.mean)
        assert rep.theta == knocked / 1500

    def test_each_chunk_is_priced_through_the_engine_names(self, monkeypatch):
        # benchmark tracing wraps engine.simulate and engine.evaluate_batch
        # and counts the work from the states each chunk hands on
        model, payoff, grid, cov = bs_setup(n_steps=4)
        drawn, priced = [], []

        def simulate_spy(*args, **kwargs):
            batch = simulate(*args, **kwargs)
            drawn.append(batch.states)
            return batch

        def evaluate_spy(payoff, states, grid):
            priced.append(states)
            return evaluate_batch(payoff, states, grid)

        monkeypatch.setattr(engine, "simulate", simulate_spy)
        monkeypatch.setattr(engine, "evaluate_batch", evaluate_spy)
        estimate_plain(model, payoff, grid, cov, seed=0, n=self.SIZE,
                       block_size=self.SIZE)
        assert [len(states) for states in drawn] == [CHUNK_SIZE, CHUNK_SIZE,
                                                     37]
        assert all(a is b for a, b in zip(priced, drawn, strict=True))

    def test_blow_up_reports_estimate_wide_path_id(self, monkeypatch):
        # the second chunk of the second block: block start + chunk offset
        # + index within the chunk
        model, payoff, grid, cov = bs_setup(n_steps=4)
        local = CHUNK_SIZE + 7
        monkeypatch.setattr(
            streams, "substream",
            lambda seed, purpose, index: BlowUpNormals(
                local if index == 1 else -1))
        with pytest.raises(SimulationError) as err:
            estimate_plain(model, payoff, grid, cov, seed=0,
                           n=4 * CHUNK_SIZE, block_size=2 * CHUNK_SIZE)
        path_id = 2 * CHUNK_SIZE + local
        assert err.value.path_indices == (path_id,)
        assert f"first at index {path_id}" in str(err.value)

    def test_block_memory_is_chunk_bounded(self):
        # a block four chunks long must not take four chunks' memory
        model = heston_two_assets()
        grid = TimeGrid(1.0, 50)
        cov = CovariationSpec(model.sigma, grid)
        payoff = PayoffSpec(weights=[0.5, 0.5], strike=1.0)
        drift = init_net(3, model.d, rng=np.random.default_rng(0))

        def peak(size):
            tracemalloc.start()
            try:
                estimate_is(model, payoff, grid, cov, drift, seed=0, n=size,
                            block_size=size)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(CHUNK_SIZE)  # first-call allocations are not the block's
        assert peak(4 * CHUNK_SIZE) <= 1.5 * peak(CHUNK_SIZE)


@pytest.mark.parametrize("entry", ["plain", "is", "training"])
def test_payoff_wider_than_model_rejected(entry):
    # four weights on two assets would average the variance columns
    model = heston_two_assets()
    grid = TimeGrid(1.0, 8)
    cov = CovariationSpec(model.sigma, grid)
    payoff = PayoffSpec(weights=[0.25] * 4, strike=1.0)
    drift = init_net(2, model.d, rng=np.random.default_rng(0))
    with pytest.raises(DimensionError):
        if entry == "plain":
            estimate_plain(model, payoff, grid, cov, seed=0, n=16)
        elif entry == "is":
            estimate_is(model, payoff, grid, cov, drift, seed=0, n=16)
        else:
            simulate_training_batch(model, payoff, grid, cov,
                                    np.random.default_rng(0), 16)


class TestEstimateIs:
    def test_zero_drift_matches_plain_bitwise(self):
        model, payoff, grid, cov = bs_setup()
        zero = init_net(2, 1, rng=np.random.default_rng(0))
        plain = estimate_plain(model, payoff, grid, cov, seed=9, n=5000,
                               label="x")
        weighted = estimate_is(model, payoff, grid, cov, zero, seed=9, n=5000,
                               label="x")
        assert weighted.measure == "P_h"
        assert weighted.mean_cents == plain.mean_cents
        assert weighted.per_sample_variance == plain.per_sample_variance

    def test_unbiased_against_plain(self):
        model, payoff, grid, cov = bs_setup(strike=1.2)
        drift = ShallowNet(w_in=[0.5], b_in=[0.1], w_out=[[1.0]], b_out=[1.5],
                           activation="tanh")
        plain = estimate_plain(model, payoff, grid, cov, seed=20, n=100_000,
                               label="x")
        weighted = estimate_is(model, payoff, grid, cov, drift, seed=21,
                               n=100_000, label="x")
        se = math.hypot(plain.se_pct * plain.mean_cents,
                        weighted.se_pct * weighted.mean_cents) / 100
        assert abs(plain.mean_cents - weighted.mean_cents) <= 3 * se

    def test_weight_overflow_guard(self, fixed_normals, monkeypatch):
        # Under P_h a deterministic drift has log-weights N(-|h|^2/2, |h|^2),
        # so the guard needs draws forced against the drift: z = -5 on every
        # step gives log-weights near 330 for this oversized constant drift.
        model, payoff, grid, cov = bs_setup()
        big = ShallowNet(w_in=np.zeros(1), b_in=np.zeros(1),
                         w_out=np.zeros((1, 1)), b_out=[200.0])
        z = np.full((16, grid.n_steps, 1), -5.0)
        monkeypatch.setattr(streams, "substream",
                            lambda *ids: fixed_normals(z))
        with pytest.raises(WeightOverflowError):
            estimate_is(model, payoff, grid, cov, big, seed=0, n=16,
                        block_size=16)


class TestCompareAndSerialization:
    def _reports(self):
        model, payoff, grid, cov = bs_setup(strike=1.05)
        drift = ShallowNet(w_in=[0.5], b_in=[0.1], w_out=[[0.3]], b_out=[0.8],
                           activation="tanh")
        mc = estimate_plain(model, payoff, grid, cov, seed=1, n=4000, label="x")
        is_ = estimate_is(model, payoff, grid, cov, drift, seed=2, n=4000,
                          label="x")
        return mc, is_

    def test_identical_reports_give_unit_vr(self):
        mc, _ = self._reports()
        twin = EstimatorReport(label=mc.label, measure="P_h", n=mc.n,
                               mean_cents=mc.mean_cents, se_pct=mc.se_pct,
                               kappa=mc.kappa, theta=None,
                               per_sample_variance=mc.per_sample_variance,
                               seed=mc.seed, wall_seconds=0.0)
        row = compare(mc, twin)
        assert row.vr == 1.0

    def test_measure_mismatch_rejected(self):
        mc, is_ = self._reports()
        with pytest.raises(ValueError):
            compare(is_, mc)

    def test_sample_size_mismatch_rejected(self):
        mc, is_ = self._reports()
        other = EstimatorReport(label=is_.label, measure="P_h",
                                n=is_.n + 1,
                                mean_cents=1.0, se_pct=1.0, kappa=0.0,
                                theta=None, per_sample_variance=1.0, seed=0,
                                wall_seconds=0.0)
        with pytest.raises(ValueError):
            compare(mc, other)

    def test_barrier_reports_carry_theta(self):
        model, _, grid, cov = bs_setup()
        ko = PayoffSpec(weights=[1.0], strike=1.05, lower=0.6, upper=1.6)
        rep = estimate_plain(model, ko, grid, cov, seed=4, n=2000, label="ko")
        assert rep.theta is not None
        assert 0.0 <= rep.theta <= 1.0

    def test_csv_round_trip_identity(self, tmp_path):
        mc, is_ = self._reports()
        row = comparison_to_dict(compare(mc, is_))
        path = tmp_path / "rows.csv"
        rows_to_csv([row], COMPARISON_FIELDS, path)
        assert_csv_holds(path, row)

    def test_comparison_columns_are_stable(self):
        # the columns are ComparisonRow's fields in declaration order; this
        # pins the emitted format against a reordering of the dataclass
        assert COMPARISON_FIELDS == (
            "label", "n", "mc_mean_cents", "mc_se_pct", "mc_kappa", "mc_theta",
            "is_mean_cents", "is_se_pct", "is_kappa", "is_theta", "vr",
            "mc_seed", "is_seed")
        row = comparison_to_dict(compare(*self._reports()))
        assert tuple(row) == COMPARISON_FIELDS

    def test_report_dict_round_trip(self):
        # every field comes back exactly but the wall time, which the report
        # JSON does not carry: a plain report, and an importance-sampled
        # knock-out one, whose theta is a number
        mc, _ = self._reports()
        model, _, grid, cov = bs_setup()
        ko = PayoffSpec(weights=[1.0], strike=1.05, lower=0.6, upper=1.6)
        drift = ShallowNet(w_in=[0.5], b_in=[0.1], w_out=[[0.3]], b_out=[0.8],
                           activation="tanh")
        ko_is = estimate_is(model, ko, grid, cov, drift, seed=3, n=2000,
                            label="ko")
        assert mc.theta is None and ko_is.theta is not None
        for report in (mc, ko_is):
            row = json.loads(json.dumps(report_to_dict(report)))
            assert report_from_dict(row, "report.json") == replace(
                report, wall_seconds=0.0)

    def test_report_json_fields_are_stable(self):
        # the JSON keys are the report's fields but the wall time, in
        # declaration order, and read back through one check per key
        keys = ("label", "measure", "n", "mean_cents", "se_pct", "kappa",
                "theta", "per_sample_variance", "seed")
        mc, is_ = self._reports()
        assert tuple(report_to_dict(mc)) == tuple(report_to_dict(is_)) == keys
        assert tuple(engine._REPORT_CHECKS) == keys
