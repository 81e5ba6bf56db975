"""Import footprint: ``import repro`` loads only ``scipy.sparse`` of SciPy.

Two gates, each run in fresh interpreters so nothing the test session has
already imported can hide a regression:

* **Import RSS.**  The resident memory ``import repro`` adds on top of an
  ``import numpy, scipy.sparse`` baseline (measured in the same process,
  median of ``REPEATS`` interpreters) must stay under ``MAX_IMPORT_MB``.
  Pulling in ``scipy.stats`` at module level costs about 50 MB: it drags
  in SciPy's distribution stack (``linalg``, ``optimize``, ``spatial``,
  ``special``, ``ndimage``) and a second OpenBLAS.
* **The end-to-end path stays lean.**  A small private fit →
  ``export_servable`` → ``ServableModel.open`` → ``top_k`` →
  ``link_prediction_auc`` — the path the end-to-end benchmark times — must
  leave every module in ``NEVER_LOADED`` out of ``sys.modules``.  As a
  positive control the same interpreter then computes sparse Katz, which
  must load ``scipy.sparse.linalg`` and match the in-process result
  exactly.

The import wall time and the core count are recorded, not gated.  Results
go to ``BENCH_import_footprint.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.proximity import KatzProximity

SRC = Path(__file__).resolve().parents[1] / "src"
REPEATS = 3
#: the import adds ~7 MB; a module-level ``scipy.stats`` import adds ~56
MAX_IMPORT_MB = 15.0
NEVER_LOADED = (
    "scipy.stats",
    "scipy.sparse.linalg",
    "scipy.linalg",
    "scipy.optimize",
    "scipy.spatial",
    "scipy.special",
)
KATZ_BETA = 0.02

# current RSS, not the ru_maxrss peak: importing numpy's BLAS briefly peaks
# above what ``import repro`` adds, so the peak hides the delta
_IMPORT_PROBE = """
import json, os, time
def rss():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
import numpy, scipy.sparse
base = rss()
start = time.perf_counter()
import repro
seconds = time.perf_counter() - start
print(json.dumps({"added_mb": (rss() - base) / 2**20, "import_s": seconds}))
"""

_PATH_PROBE = """
import json, sys
import numpy as np
from repro import PrivacyConfig, TrainingConfig
from repro.evaluation import link_prediction_auc, make_link_prediction_split
from repro.graph import load_dataset
from repro.models import get_method
from repro.proximity import KatzProximity
from repro.serving import ServableModel

workdir = sys.argv[1]
graph = load_dataset("smallworld", num_nodes=300, seed=0)
split = make_link_prediction_split(graph, seed=0)
model = get_method("se_privgemb_deg").build(
    TrainingConfig(embedding_dim=16, batch_size=64, epochs=20), PrivacyConfig(), seed=0
)
model.fit(split.training_graph)
path = model.export_servable(workdir + "/model.servable", overwrite=True)
with ServableModel.open(path) as servable:
    servable.query_engine(max_k=5).top_k(np.arange(8), 5)
auc = link_prediction_auc(model.embeddings_, split)
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
katz = KatzProximity(beta=float(sys.argv[2])).compute(graph, sparse=True)
np.save(workdir + "/katz.npy", katz.sparse_matrix.toarray())
print(json.dumps({
    "auc": auc,
    "loaded_after_path": loaded,
    "linalg_after_katz": "scipy.sparse.linalg" in sys.modules,
}))
"""


def _fresh(code: str, *args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads RSS from /proc")
def test_import_footprint(bench_artifact, tmp_path):
    imports = [_fresh(_IMPORT_PROBE) for _ in range(REPEATS)]
    added_mb = statistics.median(run["added_mb"] for run in imports)
    import_s = statistics.median(run["import_s"] for run in imports)

    path = _fresh(_PATH_PROBE, str(tmp_path), str(KATZ_BETA))
    stray = [name for name in NEVER_LOADED if name in path["loaded_after_path"]]
    katz = np.load(tmp_path / "katz.npy")
    reference = KatzProximity(beta=KATZ_BETA).compute(
        load_dataset("smallworld", num_nodes=300, seed=0), sparse=True
    )

    print()
    print(
        f"import repro: +{added_mb:.1f} MB over numpy + scipy.sparse "
        f"(ceiling {MAX_IMPORT_MB}), {import_s:.2f} s; "
        f"modules loaded by the fit → publish → top-k → AUC path that must not be: {stray}"
    )
    bench_artifact(
        "import_footprint",
        {
            "repeats": REPEATS,
            "import_added_mb": added_mb,
            "import_added_mb_runs": [run["added_mb"] for run in imports],
            "import_s": import_s,
            "ceiling_mb": MAX_IMPORT_MB,
            "scipy_modules_after_path": [
                name for name in path["loaded_after_path"] if name.count(".") == 1
            ],
            "never_loaded": list(NEVER_LOADED),
            "path_auc": path["auc"],
            "nproc": os.cpu_count(),
        },
    )
    assert added_mb <= MAX_IMPORT_MB
    assert stray == []
    assert 0.0 <= path["auc"] <= 1.0
    # positive control: the probe sees a solver once something calls it
    assert path["linalg_after_katz"]
    np.testing.assert_array_equal(katz, reference.sparse_matrix.toarray())
