"""Tests for RNG handling, run statistics and logging helpers."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng, repeat_streams
from repro.utils.stats import summarize_runs


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_allclose(a, b)

    def test_existing_generator_is_passed_through(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        a = ensure_rng(np.random.SeedSequence(3)).random(4)
        b = ensure_rng(np.random.SeedSequence(3)).random(4)
        np.testing.assert_allclose(a, b)


class TestRepeatStreams:
    def _first_draws(self, seed, repeats):
        trains, eval_stream = repeat_streams(seed, repeats)
        train_draws = [int(np.random.default_rng(s).integers(0, 2**62)) for s in trains]
        eval_draw = int(np.random.default_rng(eval_stream).integers(0, 2**62))
        return train_draws, eval_draw

    def test_counts(self):
        trains, eval_stream = repeat_streams(0, 5)
        assert len(trains) == 5
        assert isinstance(eval_stream, np.random.SeedSequence)

    def test_adjacent_base_seeds_never_collide(self):
        # the additive seed+repeat convention this replaces had
        # (seed=0, repeat=1) == (seed=1, repeat=0)
        draws_0, eval_0 = self._first_draws(0, 3)
        draws_1, eval_1 = self._first_draws(1, 3)
        assert len(set(draws_0) | set(draws_1) | {eval_0, eval_1}) == 8

    def test_deterministic(self):
        assert self._first_draws(9, 4) == self._first_draws(9, 4)

    def test_accepts_seed_sequence_and_generator(self):
        seq_draws = self._first_draws(np.random.SeedSequence(5), 2)
        assert seq_draws == self._first_draws(np.random.SeedSequence(5), 2)
        gen_draws = self._first_draws(np.random.default_rng(5), 2)
        assert gen_draws == self._first_draws(np.random.default_rng(5), 2)

    def test_rejects_non_positive_repeats(self):
        with pytest.raises(ValueError):
            repeat_streams(0, 0)


class TestSummarizeRuns:
    def test_mean_std_and_count(self):
        summary = summarize_runs([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.count == 3

    def test_single_run_has_zero_std(self):
        summary = summarize_runs([0.7])
        assert summary.std == 0.0

    def test_empty_runs(self):
        summary = summarize_runs([])
        assert summary.count == 0

    def test_str_formats_like_paper_cells(self):
        assert str(summarize_runs([0.45, 0.45])) == "0.4500±0.0000"


class TestGetLogger:
    def test_namespaces_under_repro(self):
        logger = get_logger("something")
        assert logger.name == "repro.something"

    def test_keeps_existing_repro_prefix(self):
        logger = get_logger("repro.embedding")
        assert logger.name == "repro.embedding"

    def test_returns_standard_logger(self):
        assert isinstance(get_logger("x"), logging.Logger)
