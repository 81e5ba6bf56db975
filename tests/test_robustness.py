"""Chaos suite for the robustness layer (PR 10).

Covers the fault-injection registry (every registered point fires under a
plan and is provably inert without one), the shared retry policy, the
hardened batching server
(deadline / overload / circuit breaker / bounded drain), orchestrator
cell quarantine, and the privacy ledger's torn-write recovery — including
a real kill-mid-append subprocess drill via ``REPRO_FAULTS``.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.config import PrivacyConfig, TrainingConfig
from repro.embedding import SEGEmbTrainer, SEPrivGEmbTrainer
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    LedgerTornError,
    PrivacyError,
    ServerClosedError,
    ServerOverloadedError,
    ServerTimeoutError,
)
from repro.experiments import RunStore, execute
from repro.experiments.orchestrator import RunSpec, run_spec
from repro.graph import generators
from repro.privacy.ledger import LedgerRepairWarning, PrivacyLedger
from repro.proximity import get_proximity
from repro.robustness import (
    FAULT_POINTS,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    get_active_plan,
    parse_fault_spec,
)
from repro.robustness.faults import CRASH_EXIT_CODE
from repro.serving import BatchingServer, QueryEngine
from repro.utils.fileio import atomic_write_path
from topk_oracle import brute_force_topk

REPO_ROOT = Path(__file__).resolve().parent.parent

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the drill runs only where multiprocessing forks",
)

TRAIN = TrainingConfig(
    embedding_dim=8, epochs=40, batch_size=16, learning_rate=0.05, negative_samples=2
)
FAST_TRAINING = TrainingConfig(
    embedding_dim=8, batch_size=24, learning_rate=0.1, negative_samples=3, epochs=4
)


def _graph(seed: int = 1, nodes: int = 150):
    return generators.barabasi_albert_graph(nodes, 3, seed=seed)


def _sleep_spec(seed: int = 0) -> RunSpec:
    return RunSpec(
        kind="sleep",
        method="sleep",
        dataset="synthetic",
        dataset_fingerprint="",
        training=FAST_TRAINING,
        privacy=PrivacyConfig(epsilon=2.0),
        repeats=1,
        seed=seed,
        options=(("duration", 0.0),),
        metric="sleep",
    )


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """A test that dies mid-plan must not poison the rest of the suite."""
    yield
    from repro.robustness import faults

    faults._ACTIVE = None


@pytest.fixture(scope="module")
def embeddings():
    return np.random.default_rng(7).standard_normal((64, 8))


@pytest.fixture(scope="module")
def engine(embeddings):
    return QueryEngine(embeddings, max_batch=32)


# --------------------------------------------------------------------- #
# fault rules and plans
# --------------------------------------------------------------------- #
class TestFaultRule:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            FaultRule("fileio.atomic_write", "explode")

    def test_unknown_exception_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault exception"):
            FaultRule("fileio.atomic_write", "raise", exception="SystemExit")

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError, match="delay"):
            FaultRule("fileio.atomic_write", "stall", delay=-1.0)

    def test_where_matches_equality_and_substring(self):
        rule = FaultRule(
            "serving.engine.query", "raise", where={"metric": "cos", "k": 3}
        )
        assert rule.matches("serving.engine.query", {"metric": "cosine", "k": 3})
        assert not rule.matches("serving.engine.query", {"metric": "dot", "k": 3})
        assert not rule.matches("serving.engine.query", {"metric": "cosine", "k": 4})
        # a missing context key never matches
        assert not rule.matches("serving.engine.query", {"metric": "cosine"})
        # a different point never matches
        assert not rule.matches("fileio.atomic_write", {"metric": "cosine", "k": 3})

    def test_times_budget_exhausts(self):
        plan = FaultPlan([FaultRule("fileio.atomic_write", "raise", times=2)])
        with plan:
            for _ in range(2):
                with pytest.raises(OSError, match="injected fault"):
                    plan.hit("fileio.atomic_write")
            plan.hit("fileio.atomic_write")  # budget spent: inert
        assert plan.fired == [2]

    def test_unlimited_times(self):
        plan = FaultPlan([FaultRule("fileio.atomic_write", "slow", times=-1, delay=0.0)])
        with plan:
            for _ in range(5):
                plan.hit("fileio.atomic_write")
        assert plan.fired_total == 5

    def test_plans_do_not_nest(self):
        with FaultPlan([]):
            with pytest.raises(ConfigurationError, match="do not nest"):
                FaultPlan([]).__enter__()

    def test_rules_accept_mappings(self):
        plan = FaultPlan([{"point": "fileio.atomic_write", "action": "raise"}])
        assert plan.rules[0].point == "fileio.atomic_write"


class TestFaultSpecParsing:
    def test_full_rule_round_trips(self):
        plan = parse_fault_spec(
            "serving.engine.query:raise:metric=cosine,k=3,times=2,delay=0.1,"
            "exception=RuntimeError; ledger.append:crash"
        )
        first, second = plan.rules
        assert first.point == "serving.engine.query"
        assert first.action == "raise"
        assert dict(first.where) == {"metric": "cosine", "k": 3}
        assert first.times == 2 and first.delay == 0.1
        assert first.exception == "RuntimeError"
        assert second.point == "ledger.append" and second.action == "crash"

    def test_values_are_coerced(self):
        plan = parse_fault_spec("p:raise:a=5,b=0.5,c=text")
        assert dict(plan.rules[0].where) == {"a": 5, "b": 0.5, "c": "text"}

    def test_malformed_specs_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed fault rule"):
            parse_fault_spec("no-action-here")
        with pytest.raises(ConfigurationError, match="malformed fault rule"):
            parse_fault_spec("p:raise:not_a_pair")

    def test_env_spec_activates_lazily(self, monkeypatch):
        from repro.robustness import faults

        monkeypatch.setattr(faults, "_ACTIVE", None)
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        monkeypatch.setenv("REPRO_FAULTS", "fileio.atomic_write:raise:times=3")
        plan = get_active_plan()
        assert plan is not None
        assert plan.rules[0].point == "fileio.atomic_write"
        assert plan.rules[0].times == 3


# --------------------------------------------------------------------- #
# every registered fault point fires on its real code path
# --------------------------------------------------------------------- #
def _fire_fileio(tmp_path, engine):
    target = tmp_path / "payload.json"
    plan = FaultPlan([FaultRule("fileio.atomic_write", "raise")])
    with plan:
        with pytest.raises(OSError, match="injected fault"):
            with atomic_write_path(target) as tmp:
                tmp.write_text("{}")
    assert plan.fired_total == 1
    assert not target.exists()  # the publish step failed: nothing appears


def _fire_engine_query(tmp_path, engine):
    plan = FaultPlan(
        [FaultRule("serving.engine.query", "raise", exception="RuntimeError")]
    )
    with plan:
        with pytest.raises(RuntimeError, match="injected fault"):
            engine.top_k([1, 2], 3)
    assert plan.fired_total == 1


def _fire_orchestrator_cell(tmp_path, engine):
    plan = FaultPlan([FaultRule("orchestrator.cell", "raise", where={"kind": "sleep"})])
    with plan:
        with pytest.raises(OSError, match="injected fault"):
            run_spec(_sleep_spec())
    assert plan.fired_total == 1


def _fire_ledger_append(tmp_path, engine):
    path = tmp_path / "ledger.json"
    ledger = PrivacyLedger(path)
    ledger.record_delta("fp-a", "fp-b", "delta-1")  # first write: atomic rewrite
    plan = FaultPlan([FaultRule("ledger.append", "raise", where={"path": "ledger"})])
    with plan:
        with pytest.raises(OSError, match="injected fault"):
            ledger.record_delta("fp-b", "fp-c", "delta-2")
    assert plan.fired_total == 1


_POINT_EXERCISERS = {
    "fileio.atomic_write": _fire_fileio,
    "serving.engine.query": _fire_engine_query,
    "orchestrator.cell": _fire_orchestrator_cell,
    "ledger.append": _fire_ledger_append,
}


class TestEveryPointFires:
    def test_registry_is_fully_covered(self):
        # completeness pin: registering a new fault point without adding a
        # firing exerciser here must fail the suite
        assert set(_POINT_EXERCISERS) == set(FAULT_POINTS)

    @pytest.mark.parametrize("point", sorted(_POINT_EXERCISERS))
    def test_point_fires_under_a_plan(self, point, tmp_path, engine):
        _POINT_EXERCISERS[point](tmp_path, engine)


class TestDocumentedLedgerFault:
    """The ``robustness.faults`` module example, run on a real private fit."""

    @staticmethod
    def _private_fit(graph, ledger) -> None:
        trainer = SEPrivGEmbTrainer(
            proximity=get_proximity("degree"),
            training_config=TRAIN.with_updates(epochs=5),
            privacy_config=PrivacyConfig(epsilon=2.0, noise_multiplier=2.0),
            seed=5,
        )
        trainer.fit(graph, ledger=ledger)

    @staticmethod
    def _plan() -> FaultPlan:
        return FaultPlan(
            [FaultRule("ledger.append", "raise", where={"path": "budget.jsonl"})]
        )

    def test_first_entry_is_an_atomic_rewrite_not_an_append(self, tmp_path):
        ledger = PrivacyLedger(tmp_path / "budget.jsonl")
        plan = self._plan()
        with plan:
            self._private_fit(_graph(nodes=80), ledger)
        assert plan.fired_total == 0
        assert len(PrivacyLedger(tmp_path / "budget.jsonl").entries) == 1

    def test_module_example_fires_once_on_an_appending_fit(self, tmp_path):
        graph = _graph(nodes=80)
        ledger = PrivacyLedger(tmp_path / "budget.jsonl")
        self._private_fit(graph, ledger)
        plan = self._plan()
        raised = []
        with plan:
            try:
                self._private_fit(graph, ledger)
            except OSError as error:
                raised.append(error)
        assert plan.fired_total == 1
        assert len(raised) == 1 and "injected fault at ledger.append" in str(raised[0])


# --------------------------------------------------------------------- #
# inertness: an active plan that matches nothing changes no bytes
# --------------------------------------------------------------------- #
def _non_matching_plan() -> FaultPlan:
    return FaultPlan(
        [FaultRule("orchestrator.cell", "crash", where={"method": "no-such-method"})]
    )


class TestInertness:
    def test_fileio_bytes_identical(self, tmp_path):
        plain, instrumented = tmp_path / "a.json", tmp_path / "b.json"
        with atomic_write_path(plain) as tmp:
            tmp.write_text('{"x": 1}')
        plan = _non_matching_plan()
        with plan:
            with atomic_write_path(instrumented) as tmp:
                tmp.write_text('{"x": 1}')
        assert plan.fired_total == 0
        assert instrumented.read_bytes() == plain.read_bytes()

    def test_engine_results_identical(self, engine):
        baseline = engine.top_k([0, 5, 9], 4)
        plan = _non_matching_plan()
        with plan:
            instrumented = engine.top_k([0, 5, 9], 4)
        assert plan.fired_total == 0
        assert np.array_equal(baseline.ids, instrumented.ids)
        assert np.array_equal(baseline.scores, instrumented.scores)

    def test_ledger_bytes_identical(self, tmp_path):
        def build(path: Path) -> None:
            ledger = PrivacyLedger(path)
            ledger.record_delta("fp-a", "fp-b", "delta-1")
            ledger.record_delta("fp-b", "fp-c", "delta-2")

        build(tmp_path / "plain.json")
        plan = _non_matching_plan()
        with plan:
            build(tmp_path / "instrumented.json")
        assert plan.fired_total == 0
        assert (tmp_path / "instrumented.json").read_bytes() == (
            tmp_path / "plain.json"
        ).read_bytes()

    def test_serial_training_bitwise_identical(self):
        graph = _graph(nodes=80)

        def fit():
            trainer = SEGEmbTrainer(
                proximity=get_proximity("degree"), config=TRAIN, seed=5
            )
            trainer.fit(graph)
            return trainer.embeddings_

        baseline = fit()
        plan = _non_matching_plan()
        with plan:
            instrumented = fit()
        assert plan.fired_total == 0
        assert np.array_equal(baseline, instrumented)


# --------------------------------------------------------------------- #
# retry policy
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-0.1)

    def test_delays_are_seeded_and_reproducible(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.5, seed=3)
        first, second = list(policy.delays()), list(policy.delays())
        assert first == second
        assert len(first) == 4
        assert all(delay <= policy.max_delay for delay in first)

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0
        )
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.4])

    def test_call_retries_transients_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient hiccup")
            return "ok"

        pauses: list[float] = []
        seen: list[tuple[int, str]] = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, seed=7)
        result = policy.call(
            flaky,
            sleep=pauses.append,
            on_retry=lambda attempt, exc, pause: seen.append((attempt, str(exc))),
        )
        assert result == "ok" and calls["n"] == 3
        assert pauses == list(policy.delays())
        assert seen == [(1, "transient hiccup"), (2, "transient hiccup")]

    def test_non_retryable_fails_fast(self):
        calls = {"n": 0}

        def poisoned():
            calls["n"] += 1
            raise ValueError("deterministic bug")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).call(poisoned, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_exhaustion_raises_the_final_failure(self):
        calls = {"n": 0}

        def always_failing():
            calls["n"] += 1
            raise OSError("still broken")

        with pytest.raises(OSError, match="still broken"):
            RetryPolicy(max_attempts=2).call(always_failing, sleep=lambda _: None)
        assert calls["n"] == 2

    def test_atomic_write_retries_the_publish(self, tmp_path):
        target = tmp_path / "retried.json"
        plan = FaultPlan([FaultRule("fileio.atomic_write", "raise", times=1)])
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with plan:
            with atomic_write_path(target, retry=policy) as tmp:
                tmp.write_text('{"published": true}')
        assert plan.fired_total == 1
        assert target.read_text() == '{"published": true}'


# --------------------------------------------------------------------- #
# hardened batching server
# --------------------------------------------------------------------- #
class _RowCountingEngine:
    """Delegates to a :class:`QueryEngine`, recording every node it is asked.

    It also records the thread of each call and the most calls that were
    ever inside the engine at once.
    """

    def __init__(self, engine):
        self.engine = engine
        self.max_batch = engine.max_batch
        self.rows: list[int] = []
        self.threads: list[threading.Thread] = []
        self.most_at_once = 0
        self._inside = 0
        self._lock = threading.Lock()

    def top_k(self, nodes, k, **options):
        with self._lock:
            self.rows.extend(int(node) for node in nodes)
            self.threads.append(threading.current_thread())
            self._inside += 1
            self.most_at_once = max(self.most_at_once, self._inside)
        try:
            return self.engine.top_k(nodes, k, **options)
        finally:
            with self._lock:
                self._inside -= 1


class TestServerRobustness:
    def test_deadline_expires_then_service_resumes(self, engine):
        async def scenario():
            async with BatchingServer(
                engine, max_delay=0.001, request_timeout=0.05
            ) as server:
                plan = FaultPlan(
                    [FaultRule("serving.engine.query", "stall", delay=0.3)]
                )
                with plan:
                    with pytest.raises(ServerTimeoutError):
                        await server.top_k(3, k=2)
                # the stalled batch finishes on the server thread; a fresh
                # request afterwards is served normally
                ids, scores = await server.top_k(3, k=2, timeout=5.0)
                assert len(ids) == 2 and len(scores) == 2
                return server.stats

        stats = asyncio.run(scenario())
        assert stats.timeouts == 1
        assert stats.health()["timeouts"] == 1

    def test_short_deadline_behind_long_ones_expires_on_time(self, engine):
        counting = _RowCountingEngine(engine)

        async def scenario():
            loop = asyncio.get_running_loop()
            async with BatchingServer(counting, max_delay=0.001) as server:
                plan = FaultPlan(
                    [FaultRule("serving.engine.query", "stall", delay=0.4)]
                )
                with plan:
                    long_ones = [
                        asyncio.ensure_future(server.top_k(node, k=2, timeout=5.0))
                        for node in (1, 2)
                    ]
                    await asyncio.sleep(0.02)  # nodes 1 and 2 stall in flight
                    long_ones.append(
                        asyncio.ensure_future(server.top_k(3, k=2, timeout=5.0))
                    )
                    await asyncio.sleep(0)  # node 3 is queued
                    start = loop.time()
                    with pytest.raises(ServerTimeoutError):
                        await server.top_k(4, k=2, timeout=0.05)
                    waited = loop.time() - start
                    answers = await asyncio.gather(*long_ones)
                return waited, answers, server.stats

        waited, answers, stats = asyncio.run(scenario())
        # the stall lasts 0.4 s: only a timer re-armed for the shorter
        # deadline fails the request this early
        assert waited < 0.05 + 0.15
        assert [len(ids) for ids, _ in answers] == [2, 2, 2]
        assert counting.rows == [1, 2, 3]  # the expired row was never computed
        assert stats.timeouts == 1

    def test_expired_request_skips_engine_and_frees_its_slot(self, engine):
        counting = _RowCountingEngine(engine)

        async def scenario():
            server = BatchingServer(counting, max_delay=0.001, max_pending=2)
            async with server:
                plan = FaultPlan(
                    [FaultRule("serving.engine.query", "stall", delay=0.3)]
                )
                with plan:
                    first = asyncio.ensure_future(server.top_k(1, k=2, timeout=5.0))
                    await asyncio.sleep(0.02)  # node 1 stalls in flight
                    doomed = [
                        asyncio.ensure_future(server.top_k(node, k=2, timeout=0.05))
                        for node in (2, 3)
                    ]
                    await asyncio.sleep(0)  # nodes 2 and 3 fill the queue
                    with pytest.raises(ServerOverloadedError):
                        await server.top_k(4, k=2)
                    await asyncio.sleep(0.1)  # both queued deadlines expire
                    # expired requests hold no slot: this one is admitted
                    late = asyncio.ensure_future(server.top_k(5, k=2, timeout=5.0))
                    answers = await asyncio.gather(first, late)
                outcomes = await asyncio.gather(*doomed, return_exceptions=True)
            return answers, outcomes, server.stats

        answers, outcomes, stats = asyncio.run(scenario())
        assert [len(ids) for ids, _ in answers] == [2, 2]
        assert all(isinstance(outcome, ServerTimeoutError) for outcome in outcomes)
        assert counting.rows == [1, 5]  # the expired rows were never computed
        assert stats.timeouts == 2
        assert stats.rejected_overload == 1
        assert stats.requests == 2

    def test_stop_cancels_the_deadline_timer(self, engine, caplog):
        async def scenario():
            loop = asyncio.get_running_loop()
            server = BatchingServer(engine, max_delay=0.001, request_timeout=0.1)
            stopped = False
            late_calls = []
            call_at = loop.call_at

            def tracking_call_at(when, callback, *args, **kwargs):
                def tracked(*callback_args):
                    if stopped and getattr(callback, "__self__", None) is server:
                        late_calls.append(callback)
                    callback(*callback_args)

                return call_at(when, tracked, *args, **kwargs)

            loop.call_at = tracking_call_at
            await server.start()
            plan = FaultPlan(
                [FaultRule("serving.engine.query", "stall", delay=0.3, times=-1)]
            )
            with plan:
                waiters = [
                    asyncio.ensure_future(server.top_k(node, k=2)) for node in (1, 2)
                ]
                await asyncio.sleep(0.02)  # both are in flight, stalled
                await server.stop(drain_timeout=0.02)
                stopped = True
                await asyncio.sleep(0.15)  # past every request's deadline
            outcomes = await asyncio.gather(*waiters, return_exceptions=True)
            return outcomes, late_calls, server.stats

        gc.collect()  # futures an earlier test left behind report elsewhere
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            outcomes, late_calls, stats = asyncio.run(scenario())
            gc.collect()
        assert all(isinstance(outcome, ServerClosedError) for outcome in outcomes)
        assert late_calls == []
        assert stats.timeouts == 0
        assert stats.abandoned == 2
        assert not [r for r in caplog.records if "never retrieved" in r.getMessage()]

    def test_overload_fast_fails(self, engine):
        async def scenario():
            server = BatchingServer(
                engine, max_delay=5.0, max_batch=64, max_pending=2
            )
            async with server:
                waiters = [
                    asyncio.ensure_future(server.top_k(node, k=2))
                    for node in (1, 2)
                ]
                await asyncio.sleep(0)  # let the two requests enqueue
                with pytest.raises(ServerOverloadedError):
                    await server.top_k(3, k=2)
                rejected = server.stats.rejected_overload
            # exiting the context drains: the queued waiters are still served
            answers = await asyncio.gather(*waiters)
            return rejected, answers, server.stats

        rejected, answers, stats = asyncio.run(scenario())
        assert rejected == 1
        assert len(answers) == 2
        assert stats.health()["rejected_overload"] == 1

    def test_circuit_breaker_opens_half_opens_and_closes(self, engine):
        async def scenario():
            async with BatchingServer(
                engine, max_delay=0.0, breaker_threshold=1, breaker_reset=0.05
            ) as server:
                plan = FaultPlan(
                    [
                        FaultRule(
                            "serving.engine.query", "raise", exception="RuntimeError"
                        )
                    ]
                )
                with plan:
                    with pytest.raises(RuntimeError, match="injected fault"):
                        await server.top_k(1, k=2)
                    assert server.stats.breaker_state == "open"
                    with pytest.raises(CircuitOpenError):
                        await server.top_k(2, k=2)
                    await asyncio.sleep(0.06)
                    # half-open admits a probe; the rule's budget is spent,
                    # so the probe succeeds and closes the breaker
                    ids, _ = await server.top_k(3, k=2)
                    assert len(ids) == 2
                return server.stats

        stats = asyncio.run(scenario())
        assert stats.engine_failures == 1
        assert stats.breaker_opened == 1
        assert stats.rejected_open == 1
        assert stats.breaker_state == "closed"

    def test_bounded_stop_abandons_waiters(self, engine):
        async def scenario():
            server = BatchingServer(engine, max_delay=0.001)
            await server.start()
            plan = FaultPlan(
                [FaultRule("serving.engine.query", "stall", delay=0.4, times=-1)]
            )
            with plan:
                waiter = asyncio.ensure_future(server.top_k(1, k=2))
                await asyncio.sleep(0.05)  # the batch is now in flight
                await server.stop(drain_timeout=0.05)
            with pytest.raises(ServerClosedError):
                await waiter
            return server.stats

        stats = asyncio.run(scenario())
        assert stats.abandoned >= 1
        assert stats.health()["abandoned"] >= 1

    def test_restart_after_bounded_stop_queues_behind_the_stalled_call(
        self, engine, embeddings
    ):
        counting = _RowCountingEngine(engine)

        async def scenario():
            server = BatchingServer(counting, max_delay=0.001)
            await server.start()
            plan = FaultPlan([FaultRule("serving.engine.query", "stall", delay=0.3)])
            with plan:
                waiter = asyncio.ensure_future(server.top_k(1, k=2))
                await asyncio.sleep(0.05)  # the batch is now stalled in flight
                await server.stop(drain_timeout=0.05)
                with pytest.raises(ServerClosedError):
                    await waiter
                await server.start()
                # the abandoned call still writes the engine's workspace:
                # this one must wait for it, not run beside it
                answer = await server.top_k(2, k=2, timeout=5.0)
            await server.stop()
            return answer

        ids, scores = asyncio.run(scenario())
        expected_ids, expected_scores = brute_force_topk(embeddings, [2], 2)
        assert counting.rows == [1, 2]
        assert counting.most_at_once == 1
        assert len(set(counting.threads)) == 1
        assert np.array_equal(ids, expected_ids[0])
        np.testing.assert_allclose(scores, expected_scores[0], rtol=1e-6)

    def test_request_after_bounded_stop_raises_cleanly(self, engine):
        async def scenario():
            server = BatchingServer(engine, max_delay=0.001, drain_timeout=0.5)
            async with server:
                ids, _ = await server.top_k(1, k=2)
                assert len(ids) == 2
            with pytest.raises(RuntimeError, match="not running"):
                await server.top_k(2, k=2)

        asyncio.run(scenario())


# --------------------------------------------------------------------- #
# orchestrator retry + quarantine
# --------------------------------------------------------------------- #
class TestOrchestratorQuarantine:
    def test_transient_cell_failure_is_retried_to_success(self):
        spec = _sleep_spec()
        plan = FaultPlan([FaultRule("orchestrator.cell", "raise", times=1)])
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        with plan:
            report = execute([spec], retry=policy)
        assert plan.fired_total == 1
        assert report.quarantined == 0 and report.failures == []
        assert "error" not in report.results[0]

    def test_poison_cell_is_quarantined_not_stored(self, tmp_path):
        spec = _sleep_spec()
        store = RunStore(tmp_path / "store")
        plan = FaultPlan([FaultRule("orchestrator.cell", "raise", times=-1)])
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with plan:
            report = execute([spec], store=store, retry=policy)
        assert report.quarantined == 1
        assert report.results[0]["quarantined"] is True
        assert "injected fault" in report.results[0]["error"]
        [failure] = report.failures
        assert failure["spec"]["kind"] == "sleep"
        assert failure["attempts"] == 2
        assert "quarantined=1" in report.summary()
        # a quarantined slot must never be published as a finished cell
        assert spec.fingerprint() not in store

    def test_non_retryable_failure_propagates(self):
        spec = _sleep_spec()
        plan = FaultPlan(
            [FaultRule("orchestrator.cell", "raise", exception="ValueError", times=-1)]
        )
        with plan:
            with pytest.raises(ValueError, match="injected fault"):
                execute([spec], retry=RetryPolicy(max_attempts=3, base_delay=0.0))

    def test_without_retry_policy_failures_stay_fail_fast(self):
        spec = _sleep_spec()
        plan = FaultPlan([FaultRule("orchestrator.cell", "raise", times=-1)])
        with plan:
            with pytest.raises(OSError, match="injected fault"):
                execute([spec])


# --------------------------------------------------------------------- #
# ledger torn-write recovery
# --------------------------------------------------------------------- #
class TestLedgerTornWrite:
    def _ledger_with_two_entries(self, path: Path) -> PrivacyLedger:
        ledger = PrivacyLedger(path)
        ledger.record_delta("fp-a", "fp-b", "delta-1")
        ledger.record_delta("fp-b", "fp-c", "delta-2")
        return ledger

    def test_torn_tail_detected_and_repairable(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = self._ledger_with_two_entries(path)
        plan = FaultPlan([FaultRule("ledger.append", "raise")])
        with plan:
            with pytest.raises(OSError, match="injected fault"):
                ledger.record_delta("fp-c", "fp-d", "delta-3")
        # the interrupted append provably tore the final line
        assert not path.read_text().endswith("\n")

        with pytest.raises(LedgerTornError, match="repair=True"):
            PrivacyLedger(path)

        with pytest.warns(LedgerRepairWarning, match="torn"):
            repaired = PrivacyLedger(path, repair=True)
        assert len(repaired) == 2
        assert repaired.dataset_fingerprint == "fp-c"
        # the truncated ledger is whole again: appends and reloads verify
        repaired.record_delta("fp-c", "fp-e", "delta-4")
        assert len(PrivacyLedger(path)) == 3

    def test_mid_file_corruption_is_not_repairable(self, tmp_path):
        path = tmp_path / "ledger.json"
        self._ledger_with_two_entries(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear a NON-final record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PrivacyError, match="malformed ledger"):
            PrivacyLedger(path, repair=True)

    @FORK_ONLY
    def test_kill_mid_append_subprocess_drill(self, tmp_path):
        path = tmp_path / "ledger.json"
        script = (
            "import sys\n"
            "from repro.privacy.ledger import PrivacyLedger\n"
            "ledger = PrivacyLedger(sys.argv[1])\n"
            "ledger.record_delta('fp-a', 'fp-b', 'delta-1')\n"
            "ledger.record_delta('fp-b', 'fp-c', 'delta-2')\n"
            "raise SystemExit('the crash rule should have killed this process')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_FAULTS"] = "ledger.append:crash"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

        with pytest.raises(LedgerTornError):
            PrivacyLedger(path)
        with pytest.warns(LedgerRepairWarning):
            repaired = PrivacyLedger(path, repair=True)
        # the first entry survived the kill; the torn second one is gone
        assert len(repaired) == 1
        assert repaired.dataset_fingerprint == "fp-b"
