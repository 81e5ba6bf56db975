"""Tests for the parallel, resumable experiment orchestrator."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import PrivacyConfig, TrainingConfig
from repro.exceptions import OrchestrationError, TrainingError
from repro.experiments import ExperimentSettings, RunStore, execute, table_batch_size
from repro.experiments.orchestrator import (
    RunSpec,
    cell_seed_sequence,
    dataset_fingerprint,
    dataset_graph,
    register_kind,
    run_spec,
    specs_for_settings,
)
from repro.experiments.runner import (
    evaluate_link_prediction,
    evaluate_structural_equivalence,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

FAST_TRAINING = TrainingConfig(
    embedding_dim=8, batch_size=24, learning_rate=0.1, negative_samples=3, epochs=4
)
FAST_PRIVACY = PrivacyConfig(epsilon=2.0)

TINY = ExperimentSettings(
    datasets=("smallworld",),
    dataset_scale=0.5,
    repeats=1,
    training=TrainingConfig(
        embedding_dim=8, batch_size=24, learning_rate=0.1, negative_samples=3, epochs=4
    ),
    epsilons=(0.5, 3.5),
    seed=3,
)


def _sleep_spec(index: int, duration: float = 0.01) -> RunSpec:
    return RunSpec(
        kind="sleep",
        method="sleep",
        dataset="synthetic",
        dataset_fingerprint="",
        training=FAST_TRAINING,
        privacy=FAST_PRIVACY,
        repeats=1,
        seed=index,
        options=(("duration", duration),),
        metric="sleep",
    )


def _strucequ_spec(**overrides) -> RunSpec:
    spec = specs_for_settings("strucequ", "se_privgemb_deg", "smallworld", TINY)
    return spec.with_updates(**overrides) if overrides else spec


class TestRunSpec:
    def test_metric_defaults_by_kind(self):
        linkpred = specs_for_settings("linkpred", "se_gemb_deg", "smallworld", TINY)
        strucequ = specs_for_settings("strucequ", "se_gemb_deg", "smallworld", TINY)
        assert (linkpred.metric, strucequ.metric) == ("auc", "strucequ")
        named = specs_for_settings("linkpred", "se_gemb_deg", "smallworld", TINY, metric="auc")
        assert named == linkpred  # the label is all that moves, not the fingerprint
        assert named.fingerprint() == linkpred.fingerprint()

    def test_fingerprint_is_stable_and_content_addressed(self):
        assert _strucequ_spec().fingerprint() == _strucequ_spec().fingerprint()
        assert len(_strucequ_spec().fingerprint()) == 64

    def test_fingerprint_changes_with_every_result_relevant_field(self):
        base = _strucequ_spec()
        variants = [
            base.with_updates(method="se_privgemb_dw"),
            base.with_updates(seed=base.seed + 1),
            base.with_updates(repeats=base.repeats + 1),
            base.with_updates(perturbation="naive"),
            base.with_updates(training=base.training.with_updates(batch_size=48)),
            base.with_updates(privacy=base.privacy.with_epsilon(1.0)),
            base.with_updates(options=(("x", 1),)),
            base.with_updates(dataset_fingerprint="f" * 32),
        ]
        fingerprints = {base.fingerprint()} | {v.fingerprint() for v in variants}
        assert len(fingerprints) == len(variants) + 1

    def test_fingerprint_pin(self):
        """Content-address stability pin.

        This hash is the RunStore key of a fixed cell.  If it changes,
        every previously stored sweep result is (intentionally) orphaned —
        the registry redesign did exactly that once, moving the method
        field from a plain string to the MethodSpec payload, and dropping
        the dead ``PrivacyConfig.accountant`` field from the privacy
        payload did it again.  Bump the pin
        only together with a deliberate, documented invalidation.
        """
        spec = RunSpec(
            kind="strucequ",
            method="se_privgemb_dw",
            dataset="smallworld",
            dataset_fingerprint="0" * 64,
            training=FAST_TRAINING,
            privacy=FAST_PRIVACY,
            repeats=1,
            seed=0,
        )
        assert spec.fingerprint() == (
            "8cbbd1a24f23b06c71ae28201b732106e086ab9ef80a52b5c73ddf00614961ec"
        )

    def test_fingerprint_hashes_the_method_definition_not_the_label(self):
        # registered methods contribute their full MethodSpec payload
        payload = _strucequ_spec().describe()["method"]
        assert isinstance(payload, dict)
        assert payload["proximity"] == "degree"
        assert payload["private"] is True
        # unregistered labels (sleep cells, custom kinds) stay strings
        assert _sleep_spec(0).describe()["method"] == "sleep"

    def test_fingerprint_changes_when_method_definition_drifts(self, monkeypatch):
        from dataclasses import replace

        from repro.models import get_method
        from repro.models import registry as registry_module

        base = _strucequ_spec()
        before = base.fingerprint()
        drifted = replace(get_method("se_privgemb_deg"), perturbation="naive")
        monkeypatch.setitem(registry_module._REGISTRY, "se_privgemb_deg", drifted)
        assert base.fingerprint() != before

    def test_group_key_by_dataset_and_proximity(self):
        dw = _strucequ_spec(method="se_privgemb_dw")
        deg = _strucequ_spec(method="se_privgemb_deg")
        baseline = _strucequ_spec(method="gap")
        assert dw.group_key() != deg.group_key()
        assert dw.group_key()[0] == deg.group_key()[0] == baseline.group_key()[0]
        assert dw.group_key()[1] == "deepwalk:5"
        assert deg.group_key()[1] == "degree"
        assert baseline.group_key()[1] == "none"

    def test_group_key_needs_no_name_suffix(self, monkeypatch):
        # a registered method named without the _dw/_deg convention still
        # groups by its structured proximity field
        from dataclasses import replace

        from repro.models import get_method
        from repro.models import registry as registry_module

        spec = replace(get_method("se_gemb_deg"), name="my_custom_method")
        monkeypatch.setitem(registry_module._REGISTRY, "my_custom_method", spec)
        cell = _strucequ_spec(method="my_custom_method")
        assert cell.group_key()[1] == "degree"

    def test_evaluation_stream_shared_across_cells_of_one_graph(self):
        # cross-cell comparisons use common random numbers: every cell on
        # the same (graph, base seed) scores on the identical pair sample,
        # while the training streams stay cell-namespaced
        from repro.experiments.orchestrator import evaluation_seed_sequence

        draw = lambda ss: np.random.default_rng(ss).integers(0, 2**31, size=4).tolist()
        a = _strucequ_spec(method="se_privgemb_dw")
        b = _strucequ_spec(method="se_privgemb_deg", perturbation="naive")
        assert draw(evaluation_seed_sequence(a)) == draw(evaluation_seed_sequence(b))
        assert draw(cell_seed_sequence(a)) != draw(cell_seed_sequence(b))
        other_seed = _strucequ_spec(seed=TINY.seed + 1)
        assert draw(evaluation_seed_sequence(a)) != draw(evaluation_seed_sequence(other_seed))

    def test_cell_seed_sequences_are_namespaced(self):
        a = cell_seed_sequence(_strucequ_spec(seed=0))
        b = cell_seed_sequence(_strucequ_spec(seed=1))
        same_a = cell_seed_sequence(_strucequ_spec(seed=0))
        draw = lambda ss: np.random.default_rng(ss).integers(0, 2**31, size=4).tolist()
        assert draw(a) == draw(same_a)
        assert draw(a) != draw(b)

    def test_dataset_fingerprint_matches_graph(self):
        from repro.graph import load_dataset

        fp = dataset_fingerprint("smallworld", scale=0.5, seed=3)
        assert fp == load_dataset("smallworld", scale=0.5, seed=3).content_fingerprint()

    def test_dataset_drift_is_detected(self):
        spec = _strucequ_spec(dataset_fingerprint="0" * 32)
        with pytest.raises(OrchestrationError):
            run_spec(spec)


class TestExecute:
    def test_empty_sweep(self):
        report = execute([])
        assert report.total == 0 and report.computed == 0 and report.reused == 0

    def test_rejects_bad_worker_count(self):
        with pytest.raises(OrchestrationError):
            execute([_sleep_spec(0)], workers=0)

    def test_unknown_kind_raises(self):
        with pytest.raises(OrchestrationError):
            run_spec(_sleep_spec(0).with_updates(kind="nope"))

    def test_register_kind_extends_dispatch(self):
        register_kind("echo_seed", lambda spec: {"metric": "echo", "mean": float(spec.seed), "std": 0.0})
        report = execute([_sleep_spec(5).with_updates(kind="echo_seed")])
        assert report.results[0]["mean"] == 5.0

    def test_serial_and_parallel_results_are_identical(self):
        specs = [
            _strucequ_spec(),
            _strucequ_spec(method="se_privgemb_dw"),
            _strucequ_spec(seed=TINY.seed + 1),
            _strucequ_spec(perturbation="naive"),
        ]
        serial = execute(specs, workers=1)
        parallel = execute(specs, workers=2)
        assert serial.results == parallel.results
        assert parallel.workers == 2

    def test_results_align_with_spec_order(self):
        register_kind("echo_seed", lambda spec: {"metric": "echo", "mean": float(spec.seed), "std": 0.0})
        specs = [_sleep_spec(i).with_updates(kind="echo_seed") for i in range(7)]
        report = execute(specs, workers=3)
        assert [r["mean"] for r in report.results] == [float(i) for i in range(7)]

    def test_store_roundtrip_and_resume(self, tmp_path):
        specs = [_sleep_spec(i) for i in range(4)]
        first = execute(specs, store=tmp_path)
        assert first.computed == 4 and first.reused == 0
        second = execute(specs, store=tmp_path)
        assert second.computed == 0 and second.reused == 4
        assert second.results == first.results

    def test_killed_sweep_resumes_without_recomputation(self, tmp_path):
        """A sweep that died after completing a prefix recomputes only the rest."""
        specs = [_sleep_spec(i) for i in range(6)]
        killed = execute(specs[:2], store=tmp_path)  # the part that finished
        assert killed.computed == 2
        resumed = execute(specs, workers=2, store=tmp_path)
        assert resumed.reused == 2
        assert resumed.computed == 4
        assert execute(specs, store=tmp_path).computed == 0

    def test_parallel_workers_publish_into_disk_store(self, tmp_path):
        specs = [_sleep_spec(i) for i in range(4)]
        execute(specs, workers=2, store=tmp_path)
        store = RunStore(tmp_path)
        assert len(store) == 4
        for spec in specs:
            assert store.get(spec.fingerprint())["metric"] == "sleep"

    def test_memory_store_reuse_with_parallel_workers(self):
        store = RunStore()
        specs = [_sleep_spec(i) for i in range(3)]
        execute(specs, workers=2, store=store)
        report = execute(specs, workers=2, store=store)
        assert report.reused == 3 and report.computed == 0


class TestSweepIntegration:
    def test_table_sweep_serial_matches_parallel_and_resumes(self, tmp_path):
        serial = table_batch_size(TINY, batch_sizes=(16, 24))
        parallel = table_batch_size(TINY, batch_sizes=(16, 24), workers=2, store=tmp_path)
        assert serial.rows == parallel.rows
        assert parallel.run_report.computed == 4
        resumed = table_batch_size(TINY, batch_sizes=(16, 24), workers=2, store=tmp_path)
        assert resumed.run_report.computed == 0
        assert resumed.run_report.reused == 4
        assert resumed.rows == serial.rows

    def test_run_report_attached_to_tables(self):
        table = table_batch_size(TINY, batch_sizes=(16,))
        assert table.run_report is not None
        assert table.run_report.total == len(table)


class TestCommandLine:
    def test_cli_run_and_resume(self, tmp_path):
        command = [
            sys.executable,
            "-m",
            "repro.experiments",
            "run",
            "--table",
            "2",
            "--smoke",
            "--workers",
            "2",
            "--epochs",
            "4",
            "--values",
            "16,24",
            "--store",
            str(tmp_path),
        ]
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        first = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300
        )
        assert first.returncode == 0, first.stderr
        assert "Table II" in first.stdout
        assert "computed=4" in first.stdout
        second = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300
        )
        assert second.returncode == 0, second.stderr
        assert "reused=4" in second.stdout
        assert "computed=0" in second.stdout

    def test_cli_list(self):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "list"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "tables" in proc.stdout and "smallworld" in proc.stdout
        assert "se_privgemb_dw" in proc.stdout  # registry methods are listed

    def test_cli_unknown_method_lists_registry_with_hint(self):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "run",
                "--figure",
                "3",
                "--smoke",
                "--methods",
                "se_privgemb_dvv",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "did you mean 'se_privgemb_dw'" in proc.stderr
        assert "available: se_privgemb_dw" in proc.stderr

    def test_cli_methods_rejected_outside_figures(self):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "run",
                "--table",
                "2",
                "--smoke",
                "--methods",
                "gap",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "--methods only applies to --figure sweeps" in proc.stderr


class TestForkFallback:
    """Non-fork start methods degrade to serial instead of crashing."""

    def test_runtime_kind_falls_back_to_serial(self, monkeypatch):
        from repro.utils import mp as repro_mp

        monkeypatch.setattr(repro_mp, "start_method", lambda: "spawn")
        register_kind(
            "echo_seed_fallback",
            lambda spec: {"metric": "echo", "mean": float(spec.seed), "std": 0.0},
        )
        specs = [
            _sleep_spec(i).with_updates(kind="echo_seed_fallback") for i in range(3)
        ]
        with pytest.warns(RuntimeWarning, match="falling back to the serial path"):
            report = execute(specs, workers=2)
        assert report.workers == 1
        assert [r["mean"] for r in report.results] == [0.0, 1.0, 2.0]

    def test_importable_kinds_keep_the_pool(self, monkeypatch):
        from repro.utils import mp as repro_mp

        monkeypatch.setattr(repro_mp, "start_method", lambda: "spawn")
        # "sleep" is a built-in kind: workers resolve it by import, so the
        # sweep is allowed to keep its pool even without fork
        report = execute([_sleep_spec(0), _sleep_spec(1)], workers=2)
        assert report.workers == 2
        assert report.computed == 2


class TestSerialCells:
    """A sweep parallelises over cells; every cell trains serially."""

    @pytest.mark.parametrize("kind", ["strucequ", "linkpred"])
    def test_default_settings_leave_options_empty(self, kind):
        spec = specs_for_settings(kind, "se_gemb_deg", "smallworld", TINY)
        assert spec.options == ()

    def test_a_train_workers_option_is_an_unknown_estimator_keyword(self):
        spec = specs_for_settings(
            "strucequ", "se_gemb_deg", "smallworld", TINY, options={"train_workers": 2}
        )
        with pytest.raises(TypeError, match="train_workers"):
            run_spec(spec)

    @pytest.mark.parametrize(
        "evaluate", [evaluate_structural_equivalence, evaluate_link_prediction]
    )
    def test_runner_forwards_workers_to_the_estimator_which_refuses_it(self, evaluate):
        graph = dataset_graph(_strucequ_spec())
        with pytest.raises(TypeError, match="workers"):
            evaluate("se_gemb_deg", graph, FAST_TRAINING, FAST_PRIVACY, repeats=1, workers=2)

    def test_cli_has_no_train_workers_flag(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--table", "2", "--smoke", "--train-workers", "2"])
        assert exit_info.value.code == 2
        assert "--train-workers" in capsys.readouterr().err

    def test_cli_keeps_the_sweep_workers_flag(self):
        from repro.experiments.__main__ import _build_parser

        args = _build_parser().parse_args(["run", "--table", "2", "--workers", "3"])
        assert args.workers == 3


class TestEstimatorOptions:
    """Every cell option reaches the estimator."""

    @pytest.mark.parametrize("kind", ["strucequ", "linkpred"])
    def test_bogus_option_raises_on_both_kinds(self, kind):
        spec = specs_for_settings(
            kind, "se_gemb_dw", "smallworld", TINY, options={"negative_sampling": "bogus"}
        )
        with pytest.raises(TrainingError, match="negative_sampling"):
            run_spec(spec)

    def test_override_changes_a_linkpred_cell(self):
        spec = specs_for_settings(
            "linkpred", "se_gemb_dw", "smallworld", TINY,
            metric="auc", options={"negative_sampling": "unigram"},
        )

        def direct(**overrides) -> float:
            # the same cell stream with and without the override: only the
            # override, not the re-seeding its fingerprint causes, differs
            mean, _ = evaluate_link_prediction(
                spec.method,
                dataset_graph(spec),
                spec.training,
                spec.privacy,
                repeats=spec.repeats,
                seed=cell_seed_sequence(spec),
                perturbation=spec.perturbation,
                deepwalk_window=spec.deepwalk_window,
                **overrides,
            )
            return mean

        served = run_spec(spec)["mean"]
        assert served == direct(negative_sampling="unigram")
        assert served != direct()
