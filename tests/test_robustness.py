"""Chaos suite for the robustness layer (PR 10).

Covers the fault-injection registry (every registered point fires under a
plan and is provably inert without one), the shared retry policy, the
checkpoint store, crash→restart→finish hogwild supervision with
conservative privacy charging, the hardened batching server
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
from pathlib import Path

import numpy as np
import pytest

from repro.config import PrivacyConfig, TrainingConfig
from repro.embedding import SEGEmbTrainer, SEPrivGEmbTrainer
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    HogwildDegradedError,
    LedgerTornError,
    PrivacyError,
    ServerClosedError,
    ServerOverloadedError,
    ServerTimeoutError,
    TrainingError,
)
from repro.experiments import RunStore, execute
from repro.experiments.orchestrator import RunSpec, run_spec
from repro.graph import generators
from repro.privacy.ledger import LedgerRepairWarning, PrivacyLedger
from repro.proximity import get_proximity
from repro.robustness import (
    FAULT_POINTS,
    CheckpointStore,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    ShardCheckpoint,
    SupervisorPolicy,
    get_active_plan,
    parse_fault_spec,
)
from repro.robustness.faults import CRASH_EXIT_CODE
from repro.serving import BatchingServer, QueryEngine
from repro.utils.fileio import atomic_write_path

REPO_ROOT = Path(__file__).resolve().parent.parent

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="hogwild workers require the fork start method",
)

TRAIN = TrainingConfig(
    embedding_dim=8, epochs=40, batch_size=16, learning_rate=0.05, negative_samples=2
)
#: generous budget so the crash drill's conservative over-charge never
#: interacts with budget truncation
PRIVACY = PrivacyConfig(
    epsilon=8.0, delta=1e-5, noise_multiplier=2.0, clipping_threshold=1.0
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


def _fire_hogwild_step(tmp_path, engine):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("hogwild workers require the fork start method")
    trainer = SEGEmbTrainer(
        proximity=get_proximity("degree"), config=TRAIN, seed=5, workers=2
    )
    plan = FaultPlan(
        [
            FaultRule(
                "hogwild.worker.step",
                "raise",
                where={"shard": 0, "step": 2},
                exception="RuntimeError",
            )
        ]
    )
    with plan:
        # unsupervised: the worker failure fails the run, naming the shard
        with pytest.raises(TrainingError, match="injected fault"):
            trainer.fit(_graph())


_POINT_EXERCISERS = {
    "fileio.atomic_write": _fire_fileio,
    "serving.engine.query": _fire_engine_query,
    "orchestrator.cell": _fire_orchestrator_cell,
    "ledger.append": _fire_ledger_append,
    "hogwild.worker.step": _fire_hogwild_step,
}


class TestEveryPointFires:
    def test_registry_is_fully_covered(self):
        # completeness pin: registering a new fault point without adding a
        # firing exerciser here must fail the suite
        assert set(_POINT_EXERCISERS) == set(FAULT_POINTS)

    @pytest.mark.parametrize("point", sorted(_POINT_EXERCISERS))
    def test_point_fires_under_a_plan(self, point, tmp_path, engine):
        _POINT_EXERCISERS[point](tmp_path, engine)


# --------------------------------------------------------------------- #
# inertness: an active plan that matches nothing changes no bytes
# --------------------------------------------------------------------- #
def _non_matching_plan() -> FaultPlan:
    return FaultPlan(
        [FaultRule("hogwild.worker.step", "crash", where={"shard": 10**9})]
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
# checkpoint store
# --------------------------------------------------------------------- #
class TestCheckpointStore:
    def _checkpoint(self) -> ShardCheckpoint:
        rng = np.random.default_rng(3)
        rng.random(10)
        return ShardCheckpoint(
            shard=1,
            steps=10,
            incarnation=0,
            rng_state=rng.bit_generator.state,
            losses=[0.5, 0.25],
        )

    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        saved = self._checkpoint()
        store.save(saved)
        loaded = store.load(1)
        assert loaded is not None
        assert loaded.steps == saved.steps
        assert loaded.incarnation == saved.incarnation
        assert loaded.losses == saved.losses
        assert loaded.accountant_steps == saved.steps
        # the restored stream continues exactly where the saved one stopped
        resumed = np.random.default_rng()  # repro-lint: disable=RNG001 -- placeholder generator; its state is immediately overwritten with the checkpointed stream below
        resumed.bit_generator.state = loaded.rng_state
        reference = np.random.default_rng(3)
        reference.random(10)
        assert resumed.random() == reference.random()

    def test_missing_and_corrupt_degrade_to_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load(0) is None
        store.path_for(2).write_text("{not json")
        assert store.load(2) is None
        store.path_for(3).write_text('{"format": "something-else"}')
        assert store.load(3) is None

    def test_clear_removes_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self._checkpoint())
        assert store.path_for(1).exists()
        store.clear()
        assert not store.path_for(1).exists()

    def test_supervisor_policy_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(max_restarts=-1)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(checkpoint_every=-1)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(worker_timeout=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(backoff_base=-0.1)


# --------------------------------------------------------------------- #
# supervised hogwild: crash -> restart -> finish
# --------------------------------------------------------------------- #
@FORK_ONLY
class TestSupervisedHogwild:
    def _private(self, resilience=None) -> SEPrivGEmbTrainer:
        return SEPrivGEmbTrainer(
            proximity=get_proximity("degree"),
            training_config=TRAIN,
            privacy_config=PRIVACY,
            seed=5,
            workers=2,
            hogwild_resilience=resilience,
        )

    def test_crashed_private_fit_recovers_and_overcharges(self, tmp_path):
        graph = _graph()
        baseline = self._private()
        baseline.fit(graph)

        policy = SupervisorPolicy(
            max_restarts=2,
            checkpoint_every=5,
            checkpoint_dir=tmp_path / "ckpt",
            backoff_base=0.01,
            backoff_max=0.05,
        )
        crashed = self._private(policy)
        plan = FaultPlan(
            [
                FaultRule(
                    "hogwild.worker.step",
                    "crash",
                    where={"shard": 0, "step": 12, "incarnation": 0},
                )
            ]
        )
        with plan:
            crashed.fit(graph)

        run = crashed.last_hogwild_run
        assert run is not None and run.restarts == 1
        # shard 0's second incarnation resumed from the step-10 checkpoint
        assert any(r.shard == 0 and r.incarnation == 1 for r in run.reports)
        # every shard still delivered its full target
        assert sum(r.steps for r in run.reports) == sum(
            r.steps for r in baseline.last_worker_reports
        )
        # conservative accounting: the crashed incarnation's full remaining
        # allotment is charged on top of the work actually redone
        assert sum(run.accountant_steps) > sum(r.steps for r in run.reports)
        assert (
            crashed.result_.privacy_spent.steps
            > baseline.result_.privacy_spent.steps
        )
        assert (
            crashed.result_.privacy_spent.epsilon
            >= baseline.result_.privacy_spent.epsilon
        )
        assert np.isfinite(crashed.embeddings_).all()
        # embeddings converge to the same scale as the uncrashed run
        assert float(np.linalg.norm(crashed.embeddings_)) == pytest.approx(
            float(np.linalg.norm(baseline.embeddings_)), rel=0.5
        )
        # a user-supplied checkpoint directory keeps its evidence
        assert sorted(p.name for p in (tmp_path / "ckpt").glob("shard-*.json"))

    def test_persistent_crash_degrades_with_named_shards(self):
        graph = _graph()
        policy = SupervisorPolicy(
            max_restarts=1, checkpoint_every=0, backoff_base=0.01, backoff_max=0.02
        )
        trainer = SEGEmbTrainer(
            proximity=get_proximity("degree"),
            config=TRAIN,
            seed=5,
            workers=2,
            hogwild_resilience=policy,
        )
        plan = FaultPlan(
            [FaultRule("hogwild.worker.step", "crash", where={"shard": 0}, times=-1)]
        )
        with plan:
            with pytest.raises(HogwildDegradedError) as excinfo:
                trainer.fit(graph)
        exc = excinfo.value
        assert exc.lost_shards == [0]
        assert exc.recovered_shards == [1]
        assert "shard 0" in str(exc)
        # 2 dead incarnations x 20 steps charged + shard 1's 20 real steps
        assert sum(exc.charged_steps) >= TRAIN.epochs
        assert exc.partial is not None

    def test_stalled_worker_is_killed_and_restarted(self, tmp_path):
        graph = _graph()
        policy = SupervisorPolicy(
            max_restarts=1,
            checkpoint_every=4,
            checkpoint_dir=tmp_path / "ckpt",
            worker_timeout=0.8,
            backoff_base=0.01,
            backoff_max=0.02,
        )
        trainer = SEGEmbTrainer(
            proximity=get_proximity("degree"),
            config=TRAIN,
            seed=5,
            workers=2,
            hogwild_resilience=policy,
        )
        plan = FaultPlan(
            [
                FaultRule(
                    "hogwild.worker.step",
                    "stall",
                    where={"shard": 0, "step": 10, "incarnation": 0},
                    delay=30.0,
                )
            ]
        )
        with plan:
            trainer.fit(graph)
        run = trainer.last_hogwild_run
        assert run is not None and run.restarts == 1
        assert sum(r.steps for r in run.reports) == TRAIN.epochs
        assert np.isfinite(trainer.embeddings_).all()

    def test_degraded_private_fit_still_charges_the_ledger_path(self):
        # the accountant is charged the conservative amounts even when the
        # run degrades — "noise already released is released"
        graph = _graph()
        policy = SupervisorPolicy(
            max_restarts=0, checkpoint_every=0, backoff_base=0.01
        )
        trainer = self._private(policy)
        plan = FaultPlan(
            [FaultRule("hogwild.worker.step", "crash", where={"shard": 0}, times=-1)]
        )
        with plan:
            with pytest.raises(HogwildDegradedError) as excinfo:
                trainer.fit(graph)
        assert trainer.accountant.steps == sum(excinfo.value.charged_steps)
        assert trainer.accountant.steps > 0


# --------------------------------------------------------------------- #
# hardened batching server
# --------------------------------------------------------------------- #
class _RowCountingEngine:
    """Delegates to a :class:`QueryEngine`, recording every node it is asked."""

    def __init__(self, engine):
        self.engine = engine
        self.max_batch = engine.max_batch
        self.rows: list[int] = []

    def top_k(self, nodes, k, **options):
        self.rows.extend(int(node) for node in nodes)
        return self.engine.top_k(nodes, k, **options)


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
                # the stalled batch finishes in its executor thread; a fresh
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
