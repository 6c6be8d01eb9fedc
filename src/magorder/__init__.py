"""Ordering-based structure learning for maximal ancestral graphs."""

from .ci import (
    CiTester,
    DataMatrix,
    FisherZCiTester,
    OracleCiTester,
    markov_boundaries,
)
from .cli import ExperimentConfig, RunReport, main, run, selfcheck
from .data import (
    Metrics,
    SemSpec,
    bundled_networks,
    erdos_renyi_dag,
    load_bundled,
    load_data,
    load_network,
    make_latent_instance,
    population_covariance,
    random_sem,
    sample_sem,
    save_data,
    save_network,
    score,
    standardize_sem,
)
from .discovery import (
    Mark,
    NeighborFinder,
    NeighborResult,
    PagGraph,
    SkeletonResult,
    cost_vector,
    learn_skeleton,
    orient,
)
from .errors import (
    CapacityError,
    CiNumericalError,
    ConfigError,
    EdgeListParseError,
    OrientationConflict,
)
from .graph import (
    MixedGraph,
    ancestors,
    bits,
    induced_subgraph,
    inducing_path_exists,
    is_ancestral,
    is_markov_equivalent,
    is_maximal,
    is_removable,
    is_removable_exhaustive,
    latent_projection,
    m_separated,
    m_separated_by_paths,
    mask_of,
)
from .orders import (
    enumerate_c_orders,
    enumerate_r_orders,
    is_c_order,
    is_r_order,
)
from .search import (
    HcConfig,
    HcResult,
    PgConfig,
    PgResult,
    SoftmaxPolicy,
    ViConfig,
    ViResult,
    hill_climb,
    initialize_order,
    policy_gradient,
    value_iteration,
)

__version__ = "0.1.0"
