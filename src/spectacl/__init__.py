"""Averagely-dense spectral clustering, baselines, and a benchmark harness."""

from .dataio import DataMatrix, EdgeList, load_edge_list, load_labeled_points, load_points
from .datagen import SyntheticSpec, generate
from .eigen import EigenPairs, truncated_eigs
from .embedding import project_embedding
from .graph import (
    SparseSymmetricMatrix,
    adjacency_from_edge_list,
    choose_epsilon,
    epsilon_graph,
    knn_graph,
    symmetric_normalize,
)
from .kmeans import Clustering, KMeansResult, kmeans
from .metrics import average_density_objective, density, f_measure, hungarian, nmi
from .pipelines import (
    DbscanConfig,
    SpectaclConfig,
    dbscan,
    spectacl,
    spectral_clustering,
)

__version__ = "0.1.0"

__all__ = [
    "Clustering",
    "DataMatrix",
    "DbscanConfig",
    "EdgeList",
    "EigenPairs",
    "KMeansResult",
    "SparseSymmetricMatrix",
    "SpectaclConfig",
    "SyntheticSpec",
    "adjacency_from_edge_list",
    "average_density_objective",
    "choose_epsilon",
    "dbscan",
    "density",
    "epsilon_graph",
    "f_measure",
    "generate",
    "hungarian",
    "kmeans",
    "knn_graph",
    "load_edge_list",
    "load_labeled_points",
    "load_points",
    "nmi",
    "project_embedding",
    "spectacl",
    "spectral_clustering",
    "symmetric_normalize",
    "truncated_eigs",
]
