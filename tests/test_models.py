"""Tests for the unified estimator API: registry, artifacts, shims.

Covers the `repro.models` subsystem introduced by the estimator redesign:

* the declarative :class:`MethodSpec` registry (eight paper methods,
  aliases, did-you-mean errors, custom registration),
* ``build(...).fit(graph)`` for every registered method,
* ``save`` / ``load`` artifact round-trips (bit-exact embeddings, privacy
  spent preserved, registry-drift detection),
* the deprecation shims for the pre-estimator entry points, and
* the registry fingerprint pins that keep stored RunStore caches honest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    Embedder,
    PrivacyConfig,
    TrainingConfig,
    TrainingError,
    available_methods,
    get_method,
)
from repro.baselines import GAP
from repro.embedding import SEGEmbTrainer, SEPrivGEmbTrainer
from repro.exceptions import ArtifactError
from repro.experiments import embed_with_method
from repro.graph import load_dataset
from repro.models import FitResult, MethodSpec, load_artifact, register, save_artifact
from repro.proximity import DegreeProximity, ProximityCache
from repro.utils.rng import ensure_rng

FAST_TRAINING = TrainingConfig(
    embedding_dim=8, batch_size=24, learning_rate=0.1, negative_samples=3, epochs=4
)
FAST_PRIVACY = PrivacyConfig(epsilon=2.0)

PAPER_METHOD_NAMES = (
    "se_privgemb_dw",
    "se_privgemb_deg",
    "se_gemb_dw",
    "se_gemb_deg",
    "dpggan",
    "dpgvae",
    "gap",
    "progap",
)

#: pinned content fingerprints of the eight registered method definitions.
#: A change here means every stored RunStore cell keyed on the method is
#: (correctly) invalidated — bump the pin only when the method *semantics*
#: deliberately changed.
METHOD_FINGERPRINT_PINS = {
    "se_privgemb_dw": "2f2f7130b5f0a5c25bc6d43270c1b9cb9b9488a5e9f6b3b81117ff18597abcaf",
    "se_privgemb_deg": "53346ac6aa2bb36bee3f740c006095cd56ca277787ee905e9381330a5c609b9e",
    "se_gemb_dw": "ed836c514d0c5be93f56331acf379b076c1a7722c2a588e1984ca2db7d453896",
    "se_gemb_deg": "1f41f714539834b9e21a25c3549294c47f1b25b2faa527824a38191492de1a69",
    "dpggan": "76540a8be925dd7737833a053437a4f4ce9f3d07e88310a7ded58d8037c95ffd",
    "dpgvae": "8f7eb1af70f1fef995b02786e85262e313fcda43dcb7e7ec331de81104aab7f4",
    "gap": "d7e0e3f0b7f1e21815e7f9391fcaaed90020c2c761c71be9bb42ac3a2a0e8689",
    "progap": "30ecc69dc32977989f4b5a479248067dc6c1bbb661a7859974e744d766e8a20c",
}


@pytest.fixture(scope="module")
def graph():
    return load_dataset("smallworld", num_nodes=60, seed=2)


class TestRegistry:
    def test_all_paper_methods_registered(self):
        assert set(PAPER_METHOD_NAMES) <= set(available_methods())

    def test_get_method_normalises_and_resolves_aliases(self):
        assert get_method(" SE-PrivGEmb-DW ").name == "se_privgemb_dw"
        assert get_method("se_privgemb_deepwalk").name == "se_privgemb_dw"
        assert get_method("se_gemb_degree").name == "se_gemb_deg"

    def test_get_method_accepts_spec_passthrough(self):
        spec = get_method("gap")
        assert get_method(spec) is spec

    def test_unknown_method_lists_available_with_hint(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_method("se_privgemb_dvv")
        message = str(excinfo.value)
        assert "did you mean 'se_privgemb_dw'" in message
        for name in PAPER_METHOD_NAMES:
            assert name in message

    def test_private_flags_are_structured_fields(self):
        assert get_method("se_privgemb_dw").private
        assert get_method("gap").private
        assert not get_method("se_gemb_dw").private
        assert not get_method("se_gemb_deg").private

    def test_proximity_is_a_structured_field(self):
        assert get_method("se_privgemb_dw").proximity == "deepwalk"
        assert get_method("se_privgemb_deg").proximity == "degree"
        assert get_method("dpggan").proximity is None

    def test_make_proximity_honours_deepwalk_window(self):
        measure = get_method("se_gemb_dw").make_proximity(deepwalk_window=9)
        assert measure.window_size == 9
        assert get_method("se_gemb_deg").make_proximity(deepwalk_window=9) is not None

    def test_register_rejects_duplicates_without_overwrite(self):
        with pytest.raises(ConfigurationError):
            register(get_method("gap"))

    def test_register_rejects_alias_hijacking_existing_method(self):
        from dataclasses import replace

        hijacker = replace(get_method("progap"), name="totally_new_method")
        with pytest.raises(ConfigurationError, match="'gap'"):
            register(hijacker, aliases=("gap",))
        # the attempted hijack must not leak a dangling alias either
        assert get_method("gap").name == "gap"

    def test_canonical_names_always_beat_aliases(self):
        from repro.models import registry as registry_module

        # even a directly-planted alias cannot shadow a registered method
        registry_module._ALIASES["gap"] = "progap"
        try:
            assert get_method("gap").name == "gap"
        finally:
            registry_module._ALIASES.pop("gap", None)

    def test_spec_perturbation_default_reaches_the_runner(self, graph):
        from dataclasses import replace

        from repro.models import registry as registry_module

        naive_spec = replace(
            get_method("se_privgemb_deg"), name="se_privgemb_deg_naive_test",
            perturbation="naive",
        )
        registry_module._REGISTRY["se_privgemb_deg_naive_test"] = naive_spec
        try:
            model = embed_with_method(
                "se_privgemb_deg_naive_test",
                graph,
                FAST_TRAINING,
                FAST_PRIVACY,
                seed=0,
                return_model=True,
            )
            assert model.perturbation.name == "naive"  # spec default, not "nonzero"
            explicit = embed_with_method(
                "se_privgemb_deg_naive_test",
                graph,
                FAST_TRAINING,
                FAST_PRIVACY,
                seed=0,
                perturbation="nonzero",
                return_model=True,
            )
            assert explicit.perturbation.name == "nonzero"  # explicit still wins
        finally:
            registry_module._REGISTRY.pop("se_privgemb_deg_naive_test", None)

    def test_register_custom_method_and_build(self, graph):
        from repro.models import registry as registry_module

        spec = register(
            MethodSpec(
                name="se_gemb_jaccard_test",
                embedder="repro.embedding.trainer:SEGEmbTrainer",
                proximity="jaccard",
            ),
            overwrite=True,
        )
        try:
            model = spec.build(FAST_TRAINING, seed=0).fit(graph)
            assert model.embeddings_.shape == (graph.num_nodes, FAST_TRAINING.embedding_dim)
            assert embed_with_method(
                "se_gemb_jaccard_test", graph, FAST_TRAINING, FAST_PRIVACY, seed=0
            ).shape == (graph.num_nodes, FAST_TRAINING.embedding_dim)
        finally:
            registry_module._REGISTRY.pop("se_gemb_jaccard_test", None)

    def test_fingerprint_pins(self):
        # keeps the content addresses of stored sweep cells stable; see the
        # comment on METHOD_FINGERPRINT_PINS before touching this
        for name, expected in METHOD_FINGERPRINT_PINS.items():
            assert get_method(name).fingerprint() == expected, name

    def test_fingerprint_changes_with_definition(self):
        spec = get_method("se_privgemb_dw")
        from dataclasses import replace

        assert replace(spec, perturbation="naive").fingerprint() != spec.fingerprint()
        assert replace(spec, private=False).fingerprint() != spec.fingerprint()


class TestBuildAndFit:
    @pytest.mark.parametrize("method", PAPER_METHOD_NAMES)
    def test_every_method_fits_through_the_registry(self, method, graph):
        model = get_method(method).build(FAST_TRAINING, FAST_PRIVACY, seed=0).fit(graph)
        assert model.is_fitted_
        assert model.embeddings_.shape == (graph.num_nodes, FAST_TRAINING.embedding_dim)
        assert np.all(np.isfinite(model.embeddings_))
        assert model.dataset_fingerprint_ == graph.content_fingerprint()
        spec = get_method(method)
        # every private method reports the budget consumed: the SE trainers
        # via their accountant snapshot, the calibrated baselines as their
        # configured target (best_alpha == steps == 0)
        assert (model.result_.privacy_spent is not None) == spec.private
        if spec.private:
            assert model.result_.privacy_spent.epsilon <= FAST_PRIVACY.epsilon + 1e-9
        if spec.proximity is not None:
            assert model.proximity_fingerprint_ is not None

    @pytest.mark.parametrize("method", PAPER_METHOD_NAMES)
    def test_no_method_builds_with_a_worker_count(self, method):
        # every registered method trains serially; a worker count is refused
        # at construction instead of being silently recorded
        with pytest.raises(TypeError, match="workers"):
            get_method(method).build(FAST_TRAINING, FAST_PRIVACY, seed=0, workers=2)

    def test_fit_rejects_non_graph(self):
        model = get_method("gap").build(FAST_TRAINING, FAST_PRIVACY, seed=0)
        with pytest.raises(ConfigurationError):
            model.fit("not a graph")

    def test_unfitted_accessors_raise(self):
        model = get_method("se_gemb_deg").build(FAST_TRAINING, seed=0)
        with pytest.raises(TrainingError):
            _ = model.embeddings_
        with pytest.raises(TrainingError):
            _ = model.result_
        with pytest.raises(TrainingError):
            model.save("nowhere.npz")

    def test_refit_on_another_graph_after_proximity_override(self, graph):
        # a per-fit proximity= override must not stick to the estimator: the
        # next fit on a different graph resolves that graph's own matrix
        other = load_dataset("smallworld", num_nodes=40, seed=9)
        model = get_method("se_gemb_deg").build(FAST_TRAINING, seed=0)
        precomputed = get_method("se_gemb_deg").make_proximity().compute(graph)
        model.fit(graph, proximity=precomputed)
        model.fit(other)  # |V| differs; a stale override would blow up here
        assert model.embeddings_.shape == (other.num_nodes, FAST_TRAINING.embedding_dim)
        np.testing.assert_array_equal(
            model.embeddings_,
            get_method("se_gemb_deg").build(FAST_TRAINING, seed=0).fit(other).embeddings_,
        )

    def test_build_matches_embed_with_method(self, graph):
        direct = (
            get_method("se_privgemb_deg")
            .build(FAST_TRAINING, FAST_PRIVACY, seed=0)
            .fit(graph, rng=np.random.default_rng(7))
        )
        runner = embed_with_method(
            "se_privgemb_deg",
            graph,
            FAST_TRAINING,
            FAST_PRIVACY,
            seed=np.random.default_rng(7),
        )
        np.testing.assert_array_equal(direct.embeddings_, runner)


class TestArtifacts:
    @pytest.mark.parametrize("method", PAPER_METHOD_NAMES)
    def test_save_load_roundtrip_bit_exact(self, method, graph, tmp_path):
        model = get_method(method).build(FAST_TRAINING, FAST_PRIVACY, seed=0).fit(graph)
        path = tmp_path / f"{method}.npz"
        model.save(path)
        loaded = Embedder.load(path)
        assert type(loaded) is type(model)
        assert loaded.is_fitted_
        np.testing.assert_array_equal(loaded.embeddings_, model.embeddings_)
        assert loaded.dataset_fingerprint_ == model.dataset_fingerprint_
        assert loaded.proximity_fingerprint_ == model.proximity_fingerprint_
        assert loaded.result_.epochs_run == model.result_.epochs_run
        assert loaded.result_.losses == model.result_.losses
        assert loaded.result_.privacy_spent == model.result_.privacy_spent
        assert loaded.spec.name == get_method(method).name

    def test_load_replays_build_overrides(self, graph, tmp_path):
        # a reloaded estimator must be *configured* like the saved one,
        # not just carry its arrays: constructor overrides and the
        # deepwalk window travel through the artifact
        path = tmp_path / "dpggan.npz"
        get_method("dpggan").build(
            FAST_TRAINING, FAST_PRIVACY, seed=0, hidden_dim=128
        ).fit(graph).save(path)
        assert Embedder.load(path).hidden_dim == 128

        path = tmp_path / "se_gemb_dw.npz"
        get_method("se_gemb_dw").build(
            FAST_TRAINING, seed=0, deepwalk_window=9
        ).fit(graph).save(path)
        assert Embedder.load(path).proximity.window_size == 9

    def test_baselines_report_calibrated_budget_as_spent(self, graph):
        model = get_method("gap").build(FAST_TRAINING, FAST_PRIVACY, seed=0).fit(graph)
        spent = model.result_.privacy_spent
        assert spent is not None
        assert spent.epsilon == FAST_PRIVACY.epsilon
        assert spent.delta == FAST_PRIVACY.delta
        assert spent.best_alpha == 0.0 and spent.steps == 0  # no accountant curve

    def test_baseline_refit_is_deterministic_and_rng_override_does_not_leak(self, graph):
        model = get_method("dpgvae").build(FAST_TRAINING, FAST_PRIVACY, seed=7)
        first = model.fit(graph).embeddings_.copy()
        model.fit(graph, rng=np.random.default_rng(123))  # per-fit override
        again = model.fit(graph).embeddings_  # back to the stored seed
        np.testing.assert_array_equal(first, again)

    def test_load_preserves_privacy_spent_metadata(self, graph, tmp_path):
        model = (
            get_method("se_privgemb_deg").build(FAST_TRAINING, FAST_PRIVACY, seed=0).fit(graph)
        )
        path = tmp_path / "model.npz"
        model.save(path)
        spent = Embedder.load(path).result_.privacy_spent
        assert spent is not None
        assert spent.epsilon == model.result_.privacy_spent.epsilon
        assert spent.steps == model.result_.privacy_spent.steps

    def test_artifact_saved_with_the_accountant_field_still_loads(self, graph, tmp_path):
        model = (
            get_method("se_privgemb_deg").build(FAST_TRAINING, FAST_PRIVACY, seed=0).fit(graph)
        )
        path = model.save(tmp_path / "model.npz")
        arrays, metadata = load_artifact(path)
        assert "accountant" not in metadata["privacy"]
        # what a private artifact saved while PrivacyConfig had the field held
        metadata["privacy"]["accountant"] = "rdp"
        save_artifact(path, arrays, metadata)
        reloaded = Embedder.load(path)
        assert reloaded.privacy_config == model.privacy_config
        assert reloaded.embeddings_.tobytes() == model.embeddings_.tobytes()

    def test_artifact_saved_with_a_worker_count_still_loads(self, graph, tmp_path):
        model = get_method("se_gemb_deg").build(FAST_TRAINING, seed=0).fit(graph)
        path = model.save(tmp_path / "model.npz")
        arrays, metadata = load_artifact(path)
        assert "workers" not in metadata["build_options"]
        # what an artifact of a fit with workers=2 recorded
        metadata["build_options"]["workers"] = 2
        save_artifact(path, arrays, metadata)
        reloaded = Embedder.load(path)
        assert not hasattr(reloaded, "workers")
        assert reloaded.embeddings_.tobytes() == model.embeddings_.tobytes()
        assert reloaded.context_embeddings_.tobytes() == model.context_embeddings_.tobytes()

    def test_typed_load_rejects_other_methods(self, graph, tmp_path):
        path = tmp_path / "gap.npz"
        get_method("gap").build(FAST_TRAINING, FAST_PRIVACY, seed=0).fit(graph).save(path)
        with pytest.raises(ArtifactError):
            SEPrivGEmbTrainer.load(path)
        assert isinstance(GAP.load(path), GAP)

    def test_registry_drift_invalidates_artifact(self, graph, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        get_method("se_gemb_deg").build(FAST_TRAINING, seed=0).fit(graph).save(path)
        from dataclasses import replace
        from repro.models import registry as registry_module

        drifted = replace(get_method("se_gemb_deg"), proximity="jaccard")
        monkeypatch.setitem(registry_module._REGISTRY, "se_gemb_deg", drifted)
        with pytest.raises(ArtifactError):
            Embedder.load(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path.open("wb"), embeddings=np.zeros((2, 2)))
        with pytest.raises(ArtifactError):
            Embedder.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            Embedder.load(tmp_path / "absent.npz")

    def test_corrupt_artifact_rejected(self, graph, tmp_path):
        path = tmp_path / "model.npz"
        get_method("gap").build(FAST_TRAINING, FAST_PRIVACY, seed=0).fit(graph).save(path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ArtifactError):
            Embedder.load(path)

    def test_raw_artifact_io_roundtrip(self, tmp_path):
        path = tmp_path / "raw.npz"
        arrays = {"embeddings": np.arange(6, dtype=float).reshape(2, 3)}
        save_artifact(path, arrays, {"method": None, "custom": [1, 2]})
        loaded_arrays, metadata = load_artifact(path)
        np.testing.assert_array_equal(loaded_arrays["embeddings"], arrays["embeddings"])
        assert metadata["custom"] == [1, 2]
        assert metadata["format_version"] >= 1


class TestCachePolicyContract:
    def test_off_bypasses_the_default_cache(self, graph):
        from repro.proximity.cache import default_proximity_cache

        cache = default_proximity_cache()
        before = (cache.hits, cache.misses)
        embed_with_method(
            "se_gemb_deg", graph, FAST_TRAINING, FAST_PRIVACY, seed=0, proximity_cache="off"
        )
        assert (cache.hits, cache.misses) == before

    def test_explicit_cache_instance_is_used(self, graph):
        cache = ProximityCache()
        embed_with_method(
            "se_gemb_deg", graph, FAST_TRAINING, FAST_PRIVACY, seed=0, proximity_cache=cache
        )
        assert cache.misses == 1
        embed_with_method(
            "se_gemb_deg", graph, FAST_TRAINING, FAST_PRIVACY, seed=0, proximity_cache=cache
        )
        assert cache.hits >= 1

    def test_invalid_policy_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            embed_with_method(
                "se_gemb_deg",
                graph,
                FAST_TRAINING,
                FAST_PRIVACY,
                seed=0,
                proximity_cache="sometimes",
            )


class TestReturnModel:
    def test_return_model_gives_fitted_estimator(self, graph):
        model = embed_with_method(
            "se_privgemb_deg",
            graph,
            FAST_TRAINING,
            FAST_PRIVACY,
            seed=0,
            return_model=True,
        )
        assert isinstance(model, Embedder)
        assert model.is_fitted_
        assert model.result_.privacy_spent is not None
        assert model.spec.name == "se_privgemb_deg"

    def test_return_model_roundtrips_through_save(self, graph, tmp_path):
        model = embed_with_method(
            "progap", graph, FAST_TRAINING, FAST_PRIVACY, seed=0, return_model=True
        )
        path = tmp_path / "progap.npz"
        model.save(path)
        np.testing.assert_array_equal(Embedder.load(path).embeddings_, model.embeddings_)


class TestSeedValidation:
    def test_ensure_rng_rejects_offending_types(self):
        for bad in ("42", 1.5, [1, 2], object()):
            with pytest.raises(ConfigurationError) as excinfo:
                ensure_rng(bad)
            assert type(bad).__name__ in str(excinfo.value)

    def test_ensure_rng_accepts_valid_types(self):
        assert isinstance(ensure_rng(None), np.random.Generator)
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)
        assert isinstance(ensure_rng(np.random.SeedSequence(1)), np.random.Generator)

    def test_trainer_seed_validation_names_the_type(self, graph):
        trainer = SEGEmbTrainer(DegreeProximity(), config=FAST_TRAINING, seed="bad-seed")
        with pytest.raises(ConfigurationError, match="str"):
            trainer.fit(graph)
        with pytest.raises(ConfigurationError, match="float"):
            get_method("gap").build(FAST_TRAINING, FAST_PRIVACY, seed=0.5)

    def test_repeat_streams_rejects_bad_seed(self):
        from repro.utils.rng import repeat_streams

        with pytest.raises(ConfigurationError):
            repeat_streams("7", 2)


class TestFitResult:
    def test_roundtrip_through_dict(self):
        from repro.privacy.accountant import PrivacySpent

        result = FitResult(
            losses=[1.0, 0.5],
            epochs_run=2,
            stopped_early=True,
            privacy_spent=PrivacySpent(epsilon=1.2, delta=1e-5, best_alpha=8.0, steps=2),
        )
        assert FitResult.from_dict(result.to_dict()) == result
        assert result.final_loss == 0.5
        assert np.isnan(FitResult().final_loss)
