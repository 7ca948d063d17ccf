"""Tests for the block-parallel estimators and report plumbing."""

import itertools
import json
import math
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from driftmc import engine, streams
from driftmc.config import sample_parameters
from driftmc.covariation import (TILE_STEPS, CovariationSpec, TimeGrid,
                                 lambda2_inner, log_likelihood_inverse,
                                 sample_increments, tiles)
from driftmc.engine import (ComparisonRow, EstimatorReport, compare,
                            comparison_to_dict, estimate_is, estimate_plain,
                            report_to_dict, variance_ratio, _block_plan,
                            _simulate_block)
from driftmc.errors import (DimensionError, NonFiniteError, SimulationError,
                            WeightOverflowError)
from driftmc.models import (BLACK_SCHOLES, CHUNK_SIZE, HESTON, MODEL_TAGS,
                            STEIN_STEIN, THREE_HALVES, ModelSpec, euler_steps,
                            evaluate_drift, simulate)
from driftmc.network import ShallowNet, forward, init_net
from driftmc.payoffs import (PayoffSpec, basket_weights, evaluate_batch,
                             node_quadrature)
from driftmc.stats import RunningMoments
from driftmc.training import simulate_training_batch


def bs_setup(vol=0.2, strike=1.1, n_steps=32):
    model = ModelSpec(tag=BLACK_SCHOLES, sigma=[[vol]], s0=[1.0], rate=0.05)
    payoff = PayoffSpec(weights=[1.0], strike=strike)
    grid = TimeGrid(1.0, n_steps)
    cov = CovariationSpec(model.sigma, grid)
    return model, payoff, grid, cov


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

    def test_thread_counts_agree_bitwise(self):
        model, payoff, grid, cov = bs_setup()
        kwargs = dict(seed=3, n=10_000, label="bs", block_size=1024)
        serial = estimate_plain(model, payoff, grid, cov, threads=1, **kwargs)
        threaded = estimate_plain(model, payoff, grid, cov, threads=8, **kwargs)
        assert report_to_dict(serial) == report_to_dict(threaded)

        # an importance-sampled knock-out with a partial last block and a
        # partial last chunk: kappa and theta are sums of the blocks' counts
        model, _, grid, cov = TestChunks().ko_setup()
        payoff = PayoffSpec(weights=[0.5, 0.5], strike=1.0, lower=0.9,
                            upper=1.15)
        drift = init_net(3, model.d, rng=np.random.default_rng(4))
        reports = [report_to_dict(estimate_is(
            model, payoff, grid, cov, drift, seed=5, n=1500, threads=threads,
            block_size=600)) for threads in (1, 2, 3)]
        assert 0.0 < reports[0]["theta"] < 1.0
        assert 0.0 < reports[0]["kappa"] < 1.0
        assert reports[1] == reports[0] and reports[2] == reports[0]

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

    def test_all_zero_sample_is_not_exact(self):
        # no path reaches a strike of 50: mean 0 has no relative error
        model, payoff, grid, cov = bs_setup(strike=50.0)
        rep = estimate_plain(model, payoff, grid, cov, seed=0, n=256,
                             label="bs")
        assert rep.mean_cents == 0.0
        assert rep.se_pct == math.inf
        row = report_to_dict(rep)
        assert json.loads(json.dumps(row))["se_pct"] == math.inf

    def test_non_finite_estimate_is_refused(self, recwarn):
        # every path is finite, but the squared deviations overflow: the
        # estimate raises instead of reporting an infinite variance, and
        # its one reduction prints no overflow warning
        model = ModelSpec(tag=BLACK_SCHOLES, sigma=[[0.2]], s0=[1e200],
                          rate=0.05)
        payoff = PayoffSpec(weights=[1.0], strike=0.5e200)
        grid = TimeGrid(1.0, 10)
        cov = CovariationSpec(model.sigma, grid)
        with pytest.raises(NonFiniteError, match="variance inf"):
            estimate_plain(model, payoff, grid, cov, seed=0, n=500)
        assert not [w for w in recwarn if w.category is RuntimeWarning]

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
        # a block starting at path 100 writes the numbers of its chunks,
        # each simulated on the whole grid one after another from the
        # block's stream, into its slice of the estimate's array, touches
        # nothing else, and returns their event counts
        model, payoff, grid, cov = self.ko_setup()
        drift = (init_net(3, model.d, rng=np.random.default_rng(4))
                 if importance else None)
        # about one path in 500 is knocked out: take the first seed whose
        # chunks knock out some paths but not all
        for seed in range(20):
            rng = streams.substream(seed, streams.ESTIMATE, 0)
            chunks = [simulate(model, grid, cov, rng, width, drift=drift)
                      for width in (CHUNK_SIZE, CHUNK_SIZE, 37)]
            pays = [evaluate_batch(payoff, c.states, grid) for c in chunks]
            knocked = sum(int(p.knocked_out.sum()) for p in pays)
            if 0 < knocked < self.SIZE:
                break
        expected = np.concatenate([
            p.values * np.exp(c.log_inverse_likelihood) * 90.0
            for p, c in zip(pays, chunks)])
        assert 0 < knocked < self.SIZE

        start = 100
        values = np.full(start + self.SIZE + 50, np.nan)
        tiles_buf = (np.empty(grid.n_steps * model.d * CHUNK_SIZE),
                     np.empty((grid.n_steps + 1) * model.n_state * CHUNK_SIZE))
        counts = _simulate_block(model, payoff, grid, cov,
                                 evaluate_drift(drift, grid, cov), seed,
                                 (0, start, self.SIZE), 90.0, values,
                                 tiles_buf)
        np.testing.assert_array_max_ulp(values[start:start + self.SIZE],
                                        expected, maxulp=4)
        assert np.isnan(values[:start]).all()
        assert np.isnan(values[start + self.SIZE:]).all()
        assert counts == (sum(int(p.above_strike.sum()) for p in pays),
                          knocked)

    def test_estimate_reduces_its_blocks_once(self):
        # blocks of two chunks and a short one each and a short last block,
        # on two threads: the report is the one reduction of the blocks'
        # paths in block order, each chunk simulated on its block's stream
        model, _, grid, cov = self.ko_setup()
        payoff = PayoffSpec(weights=[0.5, 0.5], strike=1.0, lower=0.9,
                            upper=1.15)
        drift = init_net(3, model.d, rng=np.random.default_rng(4))
        discount_cents = 100.0 * math.exp(-model.rate * grid.horizon)
        values, knocked = [], 0
        for i, size in ((0, 600), (1, 600), (2, 300)):
            rng = streams.substream(5, streams.ESTIMATE, i)
            for lo in range(0, size, CHUNK_SIZE):
                batch = simulate(model, grid, cov, rng,
                                 min(CHUNK_SIZE, size - lo), drift=drift)
                pay = evaluate_batch(payoff, batch.states, grid)
                values.append(pay.values
                              * np.exp(batch.log_inverse_likelihood)
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

    def test_each_chunk_is_advanced_tile_by_tile(self, monkeypatch):
        # a chunk draws and steps a tile at a time, in step order, and
        # the tiles of a grid that is not whole tiles end in a short one
        model, payoff, grid, cov = bs_setup(n_steps=2 * TILE_STEPS + 5)
        calls = []

        def draw_spy(cov, rng, n_paths, n_steps, out):
            calls.append(("draw", out.shape))
            return sample_increments(cov, rng, n_paths, n_steps, out=out)

        def step_spy(model, states, increments, h):
            calls.append(("step", states.shape))
            return euler_steps(model, states, increments, h)

        monkeypatch.setattr(engine, "sample_increments", draw_spy)
        monkeypatch.setattr(engine, "euler_steps", step_spy)
        estimate_plain(model, payoff, grid, cov, seed=0, n=self.SIZE,
                       block_size=self.SIZE)
        expected = []
        for width in (CHUNK_SIZE, CHUNK_SIZE, 37):
            for t in (TILE_STEPS, TILE_STEPS, 5):
                expected += [("draw", (t, model.d, width)),
                             ("step", (t + 1, model.n_state, width))]
        assert calls == expected

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunks_of_a_worker_share_one_set_of_buffers(self, monkeypatch,
                                                         threads):
        # each worker thread allocates one pair of tile buffers, which
        # every tile of every chunk of every block it runs reuses, and no
        # two workers share a pair
        model, payoff, grid, cov = bs_setup(n_steps=4)
        drawn = {}

        def step_spy(model, states, increments, h):
            drawn.setdefault(threading.get_ident(), []).append(
                (increments, states))
            return euler_steps(model, states, increments, h)

        monkeypatch.setattr(engine, "euler_steps", step_spy)
        estimate_plain(model, payoff, grid, cov, seed=0, n=3 * self.SIZE,
                       threads=threads, block_size=self.SIZE)
        assert sum(map(len, drawn.values())) == 9
        firsts = [tiles_buf[0] for tiles_buf in drawn.values()]
        for first, tiles_bufs in zip(firsts, drawn.values()):
            for tiles_buf in tiles_bufs[1:]:
                assert all(map(np.shares_memory, tiles_buf, first))
        for a, b in itertools.combinations(firsts, 2):
            assert not any(map(np.shares_memory, a, b))

    def test_blow_up_reports_estimate_wide_path_id(self, monkeypatch,
                                                   blow_up_normals):
        # the second chunk of the second block: block start + chunk offset
        # + index within the chunk
        model, payoff, grid, cov = bs_setup(n_steps=4)
        local = CHUNK_SIZE + 7
        monkeypatch.setattr(
            streams, "substream",
            lambda seed, purpose, index: blow_up_normals(
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

    def test_block_memory_does_not_grow_with_the_grid(self):
        # a chunk advances a tile at a time, so no array of it spans the
        # grid: a block's peak on 252 steps is about that on 16
        model = heston_two_assets()
        payoff = PayoffSpec(weights=[0.5, 0.5], strike=1.0, lower=0.5,
                            upper=2.0)
        drift = init_net(3, model.d, rng=np.random.default_rng(0))

        def peak(n_steps):
            grid = TimeGrid(1.0, n_steps)
            cov = CovariationSpec(model.sigma, grid)
            tracemalloc.start()
            try:
                estimate_is(model, payoff, grid, cov, drift, seed=0, n=2048,
                            block_size=2048)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)  # first-call allocations are not the block's
        assert peak(252) <= 1.5 * peak(16)


@pytest.mark.parametrize("n_steps", [1, TILE_STEPS - 1, TILE_STEPS,
                                     2 * TILE_STEPS + 5])
def test_tiles_cut_the_grid_from_its_first_step(n_steps):
    # every chunk and every whole-grid fold cut the grid alike, so that
    # they read the stream and sum the nodes in one order
    cut = tiles(n_steps)
    assert [k0 for k0, _ in cut] == list(range(0, n_steps, TILE_STEPS))
    assert [k1 for _, k1 in cut[:-1]] == [k0 for k0, _ in cut[1:]]
    assert cut[-1][1] == n_steps
    assert all(k1 - k0 == TILE_STEPS for k0, k1 in cut[:-1])


@pytest.mark.parametrize("n_steps", [2 * TILE_STEPS + 5, TILE_STEPS // 2 + 1],
                         ids=["short-last-tile", "shorter-than-a-tile"])
@pytest.mark.parametrize("importance", [False, True], ids=["P", "P_h"])
@pytest.mark.parametrize("knock_out", [False, True],
                         ids=["asian", "knock-out"])
@pytest.mark.parametrize("tag", MODEL_TAGS)
def test_priced_chunk_equals_whole_grid_composition(tag, knock_out,
                                                    importance, n_steps):
    # a block of a full and a short chunk, priced a tile at a time, gives
    # the payoffs, weights and counts of simulate, evaluate_batch and
    # log_likelihood_inverse on the same draw of each chunk
    model = sample_parameters(3, tag, 2, 0.05)
    grid = TimeGrid(1.0, n_steps)
    cov = CovariationSpec(model.sigma, grid)
    weights = basket_weights(model.sigma, 2)
    basket0 = float(weights @ model.s0)
    payoff = PayoffSpec(weights, basket0, *(
        (0.8 * basket0, 1.25 * basket0) if knock_out else ()))
    drift = None
    if importance:
        net = init_net(3, model.d, rng=np.random.default_rng(4))
        drift = net.with_params(0.3 * np.random.default_rng(5).standard_normal(
            net.n_params))
    size = CHUNK_SIZE + 37

    rng = streams.substream(7, streams.ESTIMATE, 0)
    expected, above, knocked = [], 0, 0
    for width in (CHUNK_SIZE, 37):
        increments = np.empty((n_steps, model.d, width))
        batch = simulate(model, grid, cov, rng, width, drift=drift,
                         out=(increments, np.empty((n_steps + 1,
                                                    model.n_state, width))))
        pay = evaluate_batch(payoff, batch.states, grid)
        log_w = np.zeros(width)
        if importance:
            log_w = log_likelihood_inverse(evaluate_drift(drift, grid, cov),
                                           increments.transpose(2, 0, 1), cov)
            np.testing.assert_array_equal(log_w, batch.log_inverse_likelihood)
        expected.append(pay.values * np.exp(log_w))
        above += int(pay.above_strike.sum())
        knocked += int(pay.knocked_out.sum()) if knock_out else 0
    expected = np.concatenate(expected)
    assert 0 < np.count_nonzero(expected) < size
    if knock_out:
        assert 0 < knocked < size

    steps = min(TILE_STEPS, n_steps)
    values = np.empty(size)
    counts = _simulate_block(
        model, payoff, grid, cov, evaluate_drift(drift, grid, cov), 7,
        (0, 0, size), 1.0, values,
        (np.empty(steps * model.d * CHUNK_SIZE),
         np.empty((steps + 1) * model.n_state * CHUNK_SIZE)))
    np.testing.assert_array_max_ulp(values, expected, maxulp=4)
    assert counts == (above, knocked)


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
        z = np.full((grid.n_steps, 1, 16), -5.0)
        monkeypatch.setattr(streams, "substream",
                            lambda *ids: fixed_normals(z))
        with pytest.raises(WeightOverflowError):
            estimate_is(model, payoff, grid, cov, big, seed=0, n=16,
                        block_size=16)


@pytest.mark.parametrize("time_varying", [False, True],
                         ids=["constant", "time_varying"])
@pytest.mark.parametrize("tag, n, h_norm_sq", [
    (BLACK_SCHOLES, 3, 0.5), (HESTON, 2, 1.0), (THREE_HALVES, 3, 1.5),
    (STEIN_STEIN, 2, 2.5)])
def test_shift_and_weight_have_exact_means(tag, n, h_norm_sq, time_varying):
    # Under the Euler scheme every asset is a discrete martingale times
    # (1 + r dt)^k, so E_P[A] = sum_k q_k (1 + r dt)^k w.s0 / T with q the
    # trapezoid weights.  For any deterministic drift, E_h[weight] = 1 and
    # E_h[(A - K) weight] = E_P[A] - K, and a call struck far below the
    # basket is A - K on every path.  The constant drift is c (w, 0); the
    # time-varying one, a net fixed in advance, moves along the basket and
    # the last driver coordinate, so a weight that reads the drift at other
    # times than the shift used fails it.
    rate = 0.05
    model = sample_parameters(3, tag, n, rate)
    grid = TimeGrid(1.0, 50)
    cov = CovariationSpec(model.sigma, grid)
    weights = basket_weights(model.sigma, n)
    basket = np.zeros(model.d)
    basket[:n] = weights
    if time_varying:
        drift = ShallowNet(w_in=[3.0, -2.0], b_in=[-1.0, 0.5],
                           w_out=np.column_stack([basket, np.eye(model.d)[-1]]),
                           b_out=0.3 * basket)
    else:
        drift = ShallowNet(w_in=[0.0], b_in=[0.0],
                           w_out=np.zeros((model.d, 1)), b_out=basket)
    f = forward(drift, grid.left_times)
    scale = math.sqrt(h_norm_sq / lambda2_inner(f, f, cov))
    drift = replace(drift, w_out=scale * drift.w_out,
                    b_out=scale * drift.b_out)

    w = np.exp(simulate(model, grid, cov, np.random.default_rng(3), 8192,
                        drift=drift).log_inverse_likelihood)
    assert abs(w.mean() - 1.0) <= 4 * w.std(ddof=1) / math.sqrt(w.size)

    basket0 = float(weights @ model.s0)
    growth = (1.0 + rate * grid.dt) ** np.arange(grid.n_steps + 1)
    mean_a = node_quadrature(grid) @ growth * basket0 / grid.horizon
    strike = 1e-6 * basket0
    report = estimate_is(model, PayoffSpec(weights, strike), grid, cov,
                         drift, seed=5, n=8192)
    exact = 100.0 * math.exp(-rate * grid.horizon) * (mean_a - strike)
    se = report.se_pct * report.mean_cents / 100.0
    assert abs(report.mean_cents - exact) <= 4 * se


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

    def test_barrier_reports_carry_theta(self):
        model, _, grid, cov = bs_setup()
        ko = PayoffSpec(weights=[1.0], strike=1.05, lower=0.6, upper=1.6)
        rep = estimate_plain(model, ko, grid, cov, seed=4, n=2000, label="ko")
        assert rep.theta is not None
        assert 0.0 <= rep.theta <= 1.0

    def test_comparison_columns_are_stable(self):
        # a comparison row's JSON is its two reports, each in the report's
        # own JSON, and their VR; this pins the format compare writes
        mc, is_ = self._reports()
        assert [f.name for f in fields(ComparisonRow)] == [
            "plain", "importance", "vr"]
        compared = compare(mc, is_)
        assert compared.plain is mc and compared.importance is is_
        row = comparison_to_dict(compared)
        assert sorted(row) == ["importance", "plain", "vr"]
        assert row["plain"] == report_to_dict(mc)
        assert row["importance"] == report_to_dict(is_)
        assert row["vr"] == variance_ratio(mc, is_)

    def test_report_json_fields_are_stable(self):
        # the JSON keys are the report's fields but the wall time, in
        # declaration order, with the report's values
        keys = ("label", "measure", "n", "mean_cents", "se_pct", "kappa",
                "theta", "per_sample_variance", "seed")
        assert tuple(f.name for f in fields(EstimatorReport)) == (
            *keys, "wall_seconds")
        mc, is_ = self._reports()
        for report in (mc, is_):
            row = report_to_dict(report)
            assert tuple(row) == keys
            assert row == {key: getattr(report, key) for key in keys}
