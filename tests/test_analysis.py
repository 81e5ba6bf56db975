"""Tests for the repro.analysis invariant linter.

Every rule gets at least one fixture it must fire on and one clean
fixture it must stay silent on; suppression and baseline semantics, the
JSON schema, and the CLI exit codes are pinned as well.  Fixtures are
written to ``tmp_path`` and analysed in isolation, so these tests never
depend on the state of the real tree — except the self-run test at the
bottom, which asserts the linter is clean on ``src/`` (the acceptance
contract of the PR that introduced it).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    Finding,
    RULE_REGISTRY,
    all_rules,
    analyze_paths,
    get_rule,
    iter_python_files,
    zero_alloc,
)
from repro.analysis.__main__ import main as cli_main
from repro.analysis.runner import PARSE_RULE_ID, render_report
from repro.analysis.suppressions import SUPPRESSION_RULE_ID

REPO_ROOT = Path(__file__).resolve().parents[1]

RULE_IDS = ("RNG001", "PRIV001", "ALLOC001", "SHM001", "FP001")


def lint(tmp_path: Path, source: str, *, rule: str | None = None,
         filename: str = "mod.py", baseline: Baseline | None = None):
    """Write ``source`` under ``tmp_path`` and analyse that one file."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    rules = [get_rule(rule)] if rule is not None else None
    return analyze_paths([path], rules=rules, baseline=baseline)


def rule_ids(report) -> list[str]:
    return [finding.rule for finding in report.findings]


# --------------------------------------------------------------------- #
# framework
# --------------------------------------------------------------------- #
class TestFramework:
    def test_registry_has_the_five_shipped_rules(self):
        for rule_id in RULE_IDS:
            assert rule_id in RULE_REGISTRY

    def test_all_rules_returns_instances_sorted_by_id(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert ids == sorted(ids)
        assert all(callable(rule.check) for rule in rules)

    def test_get_rule_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_rule("NOPE999")

    def test_zero_alloc_marker_preserves_function(self):
        @zero_alloc
        def f(x: int) -> int:
            """doc."""
            return x + 1

        assert f(1) == 2
        assert f.__zero_alloc__ is True
        assert f.__doc__ == "doc."

    def test_iter_python_files_skips_pycache_and_dedups(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-311.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path, tmp_path / "a.py"])
        assert files == [tmp_path / "a.py"]

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        report = lint(tmp_path, "def broken(:\n    pass\n")
        assert rule_ids(report) == [PARSE_RULE_ID]
        assert report.exit_code == 1


# --------------------------------------------------------------------- #
# RNG001
# --------------------------------------------------------------------- #
class TestRNG001:
    def test_fires_on_legacy_global_state_and_unseeded_rng(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np
            from numpy.random import rand

            np.random.seed(0)
            noise = np.random.normal(0.0, 1.0, size=8)
            stream = np.random.default_rng()
            other = np.random.default_rng(None)
            """,
            rule="RNG001",
        )
        assert rule_ids(report) == ["RNG001"] * 5
        messages = " | ".join(f.message for f in report.findings)
        assert "np.random.seed" in messages
        assert "unseeded default_rng" in messages

    def test_fires_on_unseeded_bit_generators(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np
            from numpy.random import MT19937, Generator

            a = np.random.PCG64()
            b = np.random.PCG64DXSM(None)
            c = np.random.SFC64(seed=None)
            d = np.random.Philox()
            e = Generator(MT19937())
            """,
            rule="RNG001",
        )
        assert rule_ids(report) == ["RNG001"] * 5
        messages = " | ".join(f.message for f in report.findings)
        for name in ("PCG64", "PCG64DXSM", "SFC64", "Philox", "MT19937"):
            assert f"unseeded {name}()" in messages

    def test_silent_on_seeded_bit_generators(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np

            def replay(rng, seed):
                copy = np.random.PCG64(0)
                copy.state = rng.bit_generator.state
                keyed = np.random.Philox(key=seed)
                return copy, keyed, np.random.MT19937(np.random.SeedSequence(seed))
            """,
            rule="RNG001",
        )
        assert report.findings == []

    def test_silent_on_seeded_streams(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np
            from repro.utils.rng import ensure_rng

            def draw(seed):
                rng = ensure_rng(seed)
                child = np.random.default_rng(np.random.SeedSequence(7))
                return rng.normal(size=4) + child.normal(size=4)
            """,
            rule="RNG001",
        )
        assert report.findings == []
        assert report.exit_code == 0


# --------------------------------------------------------------------- #
# PRIV001
# --------------------------------------------------------------------- #
class TestPRIV001:
    def test_fires_on_float32_in_privacy_path(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np

            def calibrate(noise):
                staged = noise.astype(np.float32)
                buf = np.zeros(4, dtype="float32")
                return staged, buf
            """,
            rule="PRIV001",
            filename="privacy/noise.py",
        )
        assert rule_ids(report) == ["PRIV001"] * 2

    def test_fires_in_perturbation_module(self, tmp_path):
        report = lint(
            tmp_path,
            "import numpy as np\nCAST = np.float32\n",
            rule="PRIV001",
            filename="embedding/perturbation.py",
        )
        assert rule_ids(report) == ["PRIV001"]

    def test_silent_outside_privacy_paths(self, tmp_path):
        report = lint(
            tmp_path,
            "import numpy as np\nCAST = np.float32\n",
            rule="PRIV001",
            filename="engine/fast.py",
        )
        assert report.findings == []

    def test_silent_on_float64_privacy_math(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np

            def calibrate(noise):
                return np.asarray(noise, dtype=np.float64)
            """,
            rule="PRIV001",
            filename="privacy/noise.py",
        )
        assert report.findings == []


# --------------------------------------------------------------------- #
# ALLOC001
# --------------------------------------------------------------------- #
class TestALLOC001:
    def test_fires_on_allocations_in_marked_function(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import zero_alloc

            @zero_alloc
            def step(a, b):
                fresh = np.zeros(4)
                summed = np.add(a, b)
                dup = a.copy()
                cast = b.astype(np.float64)
                return fresh, summed, dup, cast
            """,
            rule="ALLOC001",
        )
        assert rule_ids(report) == ["ALLOC001"] * 4

    def test_fires_on_marker_misuse_on_setup_phase(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import zero_alloc

            class W:
                @zero_alloc
                def __init__(self):
                    self.buf = np.zeros(4)
            """,
            rule="ALLOC001",
        )
        assert rule_ids(report) == ["ALLOC001"]
        assert "setup-phase" in report.findings[0].message

    def test_silent_on_out_discipline(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np
            from repro.analysis import zero_alloc

            @zero_alloc
            def step(a, b, out):
                np.add(a, b, out=out)
                np.multiply(out, 2.0, out=out)
                np.copyto(out, a)
                out += b
                return out
            """,
            rule="ALLOC001",
        )
        assert report.findings == []

    def test_unmarked_functions_are_not_checked(self, tmp_path):
        report = lint(
            tmp_path,
            "import numpy as np\n\ndef slow(a):\n    return np.zeros_like(a)\n",
            rule="ALLOC001",
        )
        assert report.findings == []


# --------------------------------------------------------------------- #
# SHM001
# --------------------------------------------------------------------- #
class TestSHM001:
    def test_fires_on_unreleased_create(self, tmp_path):
        report = lint(
            tmp_path,
            """
            from multiprocessing import shared_memory

            def make(size):
                block = shared_memory.SharedMemory(create=True, size=size)
                return block.name
            """,
            rule="SHM001",
        )
        assert rule_ids(report) == ["SHM001"]

    def test_silent_when_owning_class_registers_finalize(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import weakref
            from multiprocessing.shared_memory import SharedMemory

            def _release(block):
                block.unlink()
                block.close()

            class Owner:
                def __init__(self, size):
                    self.block = SharedMemory(create=True, size=size)
                    self._finalizer = weakref.finalize(self, _release, self.block)
            """,
            rule="SHM001",
        )
        assert report.findings == []

    def test_silent_on_try_finally_release(self, tmp_path):
        report = lint(
            tmp_path,
            """
            from multiprocessing.shared_memory import SharedMemory

            def scratch(size, use):
                block = None
                try:
                    block = SharedMemory(create=True, size=size)
                    use(block)
                finally:
                    if block is not None:
                        block.unlink()
                        block.close()
            """,
            rule="SHM001",
        )
        assert report.findings == []

    def test_silent_on_factory_returning_block_with_module_finalize(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import weakref
            from multiprocessing.shared_memory import SharedMemory

            def _allocate(size):
                return SharedMemory(create=True, size=size)

            def adopt(owner, blocks):
                owner._finalizer = weakref.finalize(owner, _release, blocks)

            def _release(blocks):
                for block in blocks:
                    block.unlink()
                    block.close()
            """,
            rule="SHM001",
        )
        assert report.findings == []

    def test_attach_without_create_is_ignored(self, tmp_path):
        report = lint(
            tmp_path,
            """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name):
                return SharedMemory(name=name)
            """,
            rule="SHM001",
        )
        assert report.findings == []


# --------------------------------------------------------------------- #
# FP001
# --------------------------------------------------------------------- #
class TestFP001:
    def test_fires_on_insertion_order_iteration_and_unsorted_dumps(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import json

            def fingerprint(payload):
                parts = [f"{k}={v}" for k, v in payload.items()]
                return json.dumps(payload) + "|".join(parts)
            """,
            rule="FP001",
        )
        assert sorted(rule_ids(report)) == ["FP001", "FP001"]
        messages = " | ".join(f.message for f in report.findings)
        assert "sort_keys" in messages
        assert ".items()" in messages

    def test_fires_in_group_key(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def group_key(config):
                for key in config.keys():
                    yield key
            """,
            rule="FP001",
        )
        assert rule_ids(report) == ["FP001"]

    def test_silent_on_canonical_idioms(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import json

            def fingerprint(payload):
                parts = [f"{k}={v}" for k, v in sorted(payload.items())]
                blob = json.dumps(payload, sort_keys=True)
                return blob + "|".join(parts)
            """,
            rule="FP001",
        )
        assert report.findings == []

    def test_non_fingerprint_functions_unchecked(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def render(payload):
                return [v for v in payload.values()]
            """,
            rule="FP001",
        )
        assert report.findings == []

    def test_silent_on_tests_comparing_pins(self, tmp_path):
        # the loop checks digests against pins; it feeds no digest itself
        report = lint(
            tmp_path,
            """
            PINS = {"a": "00ff", "b": "ff00"}

            def test_fingerprint_pins():
                for name, expected in PINS.items():
                    assert fingerprint_of(name) == expected, name
            """,
            rule="FP001",
        )
        assert report.findings == []

    def test_still_fires_on_fingerprint_iterating_items(self, tmp_path):
        report = lint(
            tmp_path,
            """
            def fingerprint(payload):
                digest = 0
                for key, value in payload.items():
                    digest = hash((digest, key, value))
                return digest
            """,
            rule="FP001",
        )
        assert rule_ids(report) == ["FP001"]


# --------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------- #
class TestSuppressions:
    SOURCE = """
    import numpy as np

    np.random.seed(0){comment}
    """

    def test_suppression_with_reason_silences(self, tmp_path):
        report = lint(
            tmp_path,
            self.SOURCE.format(
                comment="  # repro-lint: disable=RNG001 -- fixture exercising the seed path"
            ),
            rule="RNG001",
        )
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].finding.rule == "RNG001"
        assert "fixture" in report.suppressed[0].reason
        assert report.exit_code == 0

    def test_suppression_without_reason_is_sup001_and_does_not_suppress(self, tmp_path):
        report = lint(
            tmp_path,
            self.SOURCE.format(comment="  # repro-lint: disable=RNG001"),
            rule="RNG001",
        )
        ids = rule_ids(report)
        assert "RNG001" in ids
        assert SUPPRESSION_RULE_ID in ids
        assert report.exit_code == 1

    def test_suppression_for_other_rule_does_not_cover(self, tmp_path):
        report = lint(
            tmp_path,
            self.SOURCE.format(
                comment="  # repro-lint: disable=FP001 -- wrong rule on purpose"
            ),
            rule="RNG001",
        )
        assert rule_ids(report) == ["RNG001"]

    def test_suppression_only_covers_its_own_line(self, tmp_path):
        report = lint(
            tmp_path,
            """
            import numpy as np

            # repro-lint: disable=RNG001 -- comment on its own line
            np.random.seed(0)
            """,
            rule="RNG001",
        )
        assert rule_ids(report) == ["RNG001"]

    def test_malformed_marker_reported(self, tmp_path):
        report = lint(
            tmp_path,
            "x = 1  # repro-lint: enable=RNG001\n",
            rule="RNG001",
        )
        assert rule_ids(report) == [SUPPRESSION_RULE_ID]
        assert "malformed" in report.findings[0].message


# --------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------- #
class TestBaseline:
    def _violation_report(self, tmp_path, baseline=None):
        return lint(
            tmp_path,
            "import numpy as np\nnp.random.seed(0)\n",
            rule="RNG001",
            baseline=baseline,
        )

    def test_baselined_finding_does_not_fail(self, tmp_path):
        first = self._violation_report(tmp_path)
        assert first.exit_code == 1
        baseline = Baseline.from_findings(first.findings, justification="grandfathered")
        second = self._violation_report(tmp_path, baseline=baseline)
        assert second.findings == []
        assert len(second.baselined) == 1
        assert second.exit_code == 0
        assert second.stale_baseline == []

    def test_baseline_matches_on_code_not_line_numbers(self, tmp_path):
        first = self._violation_report(tmp_path)
        baseline = Baseline.from_findings(first.findings, justification="grandfathered")
        # the same violation shifted down three lines still matches
        path = tmp_path / "mod.py"
        path.write_text(
            "import numpy as np\n\n\n\nnp.random.seed(0)\n", encoding="utf-8"
        )
        report = analyze_paths([path], rules=[get_rule("RNG001")], baseline=baseline)
        assert report.findings == []
        assert len(report.baselined) == 1

    def test_stale_entries_are_reported(self, tmp_path):
        stale = Baseline(
            [
                BaselineEntry(
                    rule="RNG001",
                    path="gone.py",
                    code="np.random.seed(0)",
                    justification="was fixed",
                )
            ]
        )
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        report = analyze_paths(
            [tmp_path / "clean.py"], rules=[get_rule("RNG001")], baseline=stale
        )
        assert report.exit_code == 0
        assert [entry.path for entry in report.stale_baseline] == ["gone.py"]
        assert "stale baseline" in report.render_text()

    def test_load_rejects_entries_without_justification(self, tmp_path):
        payload = {
            "format": "repro-analysis-baseline",
            "version": 1,
            "entries": [
                {"rule": "RNG001", "path": "a.py", "code": "np.random.seed(0)",
                 "justification": "   "}
            ],
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(path)

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"format": "other", "version": 1}), encoding="utf-8")
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_save_load_roundtrip(self, tmp_path):
        baseline = Baseline(
            [
                BaselineEntry(
                    rule="FP001", path="b.py", code="json.dumps(x)",
                    justification="pre-existing",
                )
            ]
        )
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries

    def test_checked_in_baseline_is_valid_and_empty(self):
        path = REPO_ROOT / ".repro-analysis-baseline.json"
        assert path.exists()
        assert len(Baseline.load(path)) == 0


# --------------------------------------------------------------------- #
# report formats
# --------------------------------------------------------------------- #
class TestReportFormats:
    def test_json_schema_keys(self, tmp_path):
        report = lint(
            tmp_path, "import numpy as np\nnp.random.seed(0)\n", rule="RNG001"
        )
        payload = json.loads(render_report(report, "json"))
        assert payload["format"] == "repro-analysis-report"
        assert payload["version"] == 1
        assert set(payload) == {
            "format", "version", "files_checked", "findings", "baselined",
            "suppressed", "stale_baseline", "counts",
        }
        finding = payload["findings"][0]
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "hint", "code",
        }
        assert payload["counts"]["active"] == 1

    def test_text_render_has_location_rule_and_hint(self, tmp_path):
        report = lint(
            tmp_path, "import numpy as np\nnp.random.seed(0)\n", rule="RNG001"
        )
        text = render_report(report, "text")
        assert "mod.py:2:1: RNG001" in text
        assert "hint:" in text
        assert "1 finding(s)" in text

    def test_findings_sorted_by_location(self, tmp_path):
        report = lint(
            tmp_path,
            "import numpy as np\nnp.random.seed(0)\nnp.random.seed(1)\n",
            rule="RNG001",
        )
        lines = [finding.line for finding in report.findings]
        assert lines == sorted(lines)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCLI:
    def test_subprocess_exits_nonzero_on_planted_violation(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n", encoding="utf-8"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "RNG001" in proc.stdout

    def test_main_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert cli_main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_main_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n", encoding="utf-8"
        )
        assert cli_main([str(tmp_path), "--format", "json", "--no-baseline"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["active"] == 1

    def test_main_rules_filter(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n", encoding="utf-8"
        )
        assert cli_main([str(tmp_path), "--rules", "FP001"]) == 0
        capsys.readouterr()

    def test_main_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n", encoding="utf-8"
        )
        out_path = tmp_path / "new-baseline.json"
        assert cli_main(
            [str(tmp_path), "--no-baseline", "--write-baseline", str(out_path)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-analysis-baseline"
        assert len(payload["entries"]) == 1
        # the generated justification is a placeholder the author must edit
        assert payload["entries"][0]["justification"].startswith("TODO")
        assert len(Baseline.load(out_path)) == 1

    def test_unknown_rule_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([str(tmp_path), "--rules", "NOPE999"])
        assert excinfo.value.code == 2


# --------------------------------------------------------------------- #
# the tree itself
# --------------------------------------------------------------------- #
class TestSelfRun:
    def test_src_is_clean(self):
        report = analyze_paths([REPO_ROOT / "src"])
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"linter findings on src/:\n{rendered}"

    def test_every_suppression_in_src_carries_a_reason(self):
        report = analyze_paths([REPO_ROOT / "src"])
        for item in report.suppressed:
            assert item.reason.strip()
