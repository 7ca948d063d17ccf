"""Tests for the random-stream contract: which bit generator each purpose
draws from, and how a key seeds it."""

import numpy as np
import pytest

from driftmc import streams


class TestSubstream:
    def test_params_stream_is_default_rng(self):
        # the parameter stream keeps numpy's default PCG64, so sampled
        # scenarios stay those of every earlier version
        rng = streams.substream(7, streams.PARAMS, 3)
        assert isinstance(rng.bit_generator, np.random.PCG64)
        assert rng.bit_generator.state == np.random.default_rng(
            [7, streams.PARAMS, 3]).bit_generator.state
        rng.standard_normal(10)
        reference = np.random.default_rng([7, streams.PARAMS, 3])
        reference.standard_normal(10)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("ids", [(streams.ESTIMATE, 0),
                                     (streams.ESTIMATE, 41),
                                     (streams.TRAIN, 5),
                                     (streams.TRAIN, 999_999)])
    def test_path_streams_are_sfc64_from_the_seed_sequence(self, ids):
        rng = streams.substream(11, *ids)
        assert isinstance(rng.bit_generator, np.random.SFC64)
        reference = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence([11, *ids])))
        np.testing.assert_equal(rng.bit_generator.state,
                                reference.bit_generator.state)
        np.testing.assert_array_equal(rng.standard_normal(100),
                                      reference.standard_normal(100))

    @pytest.mark.parametrize("purpose", [streams.PARAMS, streams.TRAIN,
                                         streams.ESTIMATE])
    def test_one_key_draws_the_same_numbers(self, purpose):
        np.testing.assert_array_equal(
            streams.substream(3, purpose, 2).standard_normal(64),
            streams.substream(3, purpose, 2).standard_normal(64))

    @pytest.mark.parametrize("a, b", [
        ((3, streams.ESTIMATE, 2), (3, streams.ESTIMATE, 3)),
        ((3, streams.ESTIMATE, 2), (4, streams.ESTIMATE, 2)),
        ((3, streams.TRAIN, 2), (3, streams.TRAIN, 3)),
        ((3, streams.PARAMS, 2), (3, streams.PARAMS, 3)),
        ((3, streams.ESTIMATE, 2), (3, streams.TRAIN, 2)),
        ((3, streams.TRAIN, 2), (3, streams.PARAMS, 2))])
    def test_two_keys_draw_different_numbers(self, a, b):
        assert not np.any(streams.substream(*a).standard_normal(64)
                          == streams.substream(*b).standard_normal(64))
