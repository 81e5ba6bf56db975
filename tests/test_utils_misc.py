"""Tests for RNG handling, run statistics, logging and multiprocessing helpers."""

from __future__ import annotations

import logging
import multiprocessing

import numpy as np
import pytest

from repro.utils import mp as repro_mp
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


class TestMultiprocessingHelpers:
    """The orchestrator's fork detection and its one serial-fallback warning."""

    def test_start_method_is_the_platform_default(self):
        assert repro_mp.start_method() == multiprocessing.get_start_method()

    @pytest.mark.parametrize(
        ("method", "forks"), [("fork", True), ("spawn", False), ("forkserver", False)]
    )
    def test_fork_available_follows_the_start_method(self, monkeypatch, method, forks):
        monkeypatch.setattr(repro_mp, "start_method", lambda: method)
        assert repro_mp.fork_available() is forks

    def test_serial_fallback_warns_and_returns_one(self):
        with pytest.warns(RuntimeWarning, match="no fork here; falling back to the serial"):
            assert repro_mp.serial_fallback("no fork here") == 1

    def test_serial_fallback_logs_the_reason(self, caplog):
        with pytest.warns(RuntimeWarning), caplog.at_level(logging.WARNING, "repro.utils.mp"):
            repro_mp.serial_fallback("cells need fork")
        assert any("cells need fork" in record.getMessage() for record in caplog.records)

    def test_only_the_orchestrator_helpers_are_exported(self):
        # the trainer-side worker resolver went with multi-worker training
        assert repro_mp.__all__ == ["fork_available", "start_method", "serial_fallback"]
        assert not hasattr(repro_mp, "resolve_fork_workers")
