"""Graph substrate: in-memory graphs, generators, datasets, sampling."""

from .graph import Graph
from .generators import (
    erdos_renyi_graph,
    barabasi_albert_graph,
    watts_strogatz_graph,
    powerlaw_cluster_graph,
    stochastic_block_model_graph,
    grid_with_rewiring_graph,
)
from .datasets import DatasetInfo, available_datasets, load_dataset
from .io import read_edge_list, write_edge_list
from .sampling import (
    generate_disjoint_subgraph_arrays,
    SubgraphSampler,
    UnigramNegativeSampler,
    ProximityNegativeSampler,
)
from .validation import validate_simple_graph

__all__ = [
    "Graph",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "powerlaw_cluster_graph",
    "stochastic_block_model_graph",
    "grid_with_rewiring_graph",
    "DatasetInfo",
    "available_datasets",
    "load_dataset",
    "read_edge_list",
    "write_edge_list",
    "generate_disjoint_subgraph_arrays",
    "SubgraphSampler",
    "UnigramNegativeSampler",
    "ProximityNegativeSampler",
    "validate_simple_graph",
]
