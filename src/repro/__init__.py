"""SE-PrivGEmb: structure-preference enabled graph embedding under differential privacy.

Reproduction of Zhang, Ye & Hu, *Structure-Preference Enabled Graph Embedding
Generation under Differential Privacy* (ICDE 2025).

The most common entry points are re-exported here.  Every method is an
:class:`~repro.models.Embedder` built from the declarative method registry:

>>> from repro import load_dataset, get_method
>>> graph = load_dataset("chameleon", scale=0.3)
>>> model = get_method("se_privgemb_dw").build(seed=0).fit(graph)
>>> model.embeddings_.shape[0] == graph.num_nodes
True
>>> model.result_.privacy_spent is not None
True
"""

from .config import PrivacyConfig, TrainingConfig
from .exceptions import (
    ReproError,
    GraphError,
    DatasetError,
    ProximityError,
    PrivacyError,
    PrivacyBudgetExhausted,
    ConfigurationError,
    TrainingError,
    EvaluationError,
)
from .graph import Graph, load_dataset, available_datasets
from .proximity import (
    DeepWalkProximity,
    DegreeProximity,
    CommonNeighborsProximity,
    AdamicAdarProximity,
    ResourceAllocationProximity,
    KatzProximity,
    PersonalizedPageRankProximity,
    PreferentialAttachmentProximity,
    JaccardProximity,
    get_proximity,
    available_proximities,
)
from .privacy import RdpAccountant, PrivacyLedger
from .streaming import EdgeDelta, apply_delta, DeltaPlanner, InvalidationPlan
from .engine import (
    BatchGradients,
    SubgraphBatch,
    TrainingEngine,
    EngineResult,
)
from .embedding import (
    SkipGramModel,
    SEGEmbTrainer,
    SEPrivGEmbTrainer,
    NaivePerturbation,
    NonZeroPerturbation,
)
from .baselines import DPGGAN, DPGVAE, GAP, ProGAP, get_baseline, available_baselines
from .models import (
    Embedder,
    FitResult,
    MethodSpec,
    available_methods,
    get_method,
    register as register_method,
)
from .evaluation import (
    structural_equivalence_score,
    link_prediction_auc,
    make_link_prediction_split,
)
from .serving import (
    BatchingServer,
    QueryEngine,
    ServableModel,
    export_servable,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "PrivacyConfig",
    "TrainingConfig",
    "ReproError",
    "GraphError",
    "DatasetError",
    "ProximityError",
    "PrivacyError",
    "PrivacyBudgetExhausted",
    "ConfigurationError",
    "TrainingError",
    "EvaluationError",
    "Graph",
    "load_dataset",
    "available_datasets",
    "DeepWalkProximity",
    "DegreeProximity",
    "CommonNeighborsProximity",
    "AdamicAdarProximity",
    "ResourceAllocationProximity",
    "KatzProximity",
    "PersonalizedPageRankProximity",
    "PreferentialAttachmentProximity",
    "JaccardProximity",
    "get_proximity",
    "available_proximities",
    "RdpAccountant",
    "PrivacyLedger",
    "EdgeDelta",
    "apply_delta",
    "DeltaPlanner",
    "InvalidationPlan",
    "BatchGradients",
    "SubgraphBatch",
    "TrainingEngine",
    "EngineResult",
    "SkipGramModel",
    "SEGEmbTrainer",
    "SEPrivGEmbTrainer",
    "NaivePerturbation",
    "NonZeroPerturbation",
    "DPGGAN",
    "DPGVAE",
    "GAP",
    "ProGAP",
    "get_baseline",
    "available_baselines",
    "Embedder",
    "FitResult",
    "MethodSpec",
    "available_methods",
    "get_method",
    "register_method",
    "structural_equivalence_score",
    "link_prediction_auc",
    "make_link_prediction_split",
    "BatchingServer",
    "QueryEngine",
    "ServableModel",
    "export_servable",
]
