"""Perturbation-stable randomized graph algorithms and measurement harness."""

from .bmatch import (
    EntMatchingLP,
    RoundingTranscript,
    collision_value,
    lp_stability_check,
    plip_mwbm,
    poisson_binomial_pmf,
    round_matching,
    solve_lp_ent,
)
from .contraction_sp import (
    RecParams,
    RecTrace,
    is_active,
    opt_through,
    opt_through_edge,
    pivot_set,
    rec,
    sp,
)
from .errors import (
    BadParams,
    DegenerateShape,
    DisconnectedGraph,
    InvalidEdge,
    LipgraphError,
    MalformedWalk,
    NoConvergence,
    NotContractible,
    SelfLoop,
    SupportTooLarge,
    TooLarge,
    Unreachable,
    ZeroOptimum,
)
from .exact import (
    bfs_dist,
    dijkstra,
    exact_max_weight_matching,
    hungarian_bipartite,
    kruskal_mst,
)
from .graphs import (
    DirectedGraph,
    Matching,
    SpanningTree,
    Walk,
    WeightedMultigraph,
    check_weights,
    contract_directed,
    contract_edge,
    read_bipartite,
    read_edge_list,
    write_edge_list,
)
from .harness import (
    ExperimentConfig,
    LipschitzEstimate,
    estimate_bipartite_pointwise,
    estimate_contraction_sensitivity,
    estimate_lipschitz,
    gen_instance,
    run_experiment,
)
from .lip_sp import (
    GadgetGraph,
    build_gadget,
    build_gadget_from,
    lip_sp,
    lip_sp_run,
    map_walk_back,
)
from .metrics import (
    EdgeSetDistribution,
    d_u,
    d_w,
    emd_empirical,
    tv_empirical,
)
from .mst import lip_mst, plip_mst
from .mwm import class_partition, lip_mwm
from .rng import RandomStream

__version__ = "0.1.0"
