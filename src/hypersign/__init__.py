"""Balance, switching and spectra for oriented and signed hypergraphs.

An oriented hypergraph attaches +1/-1 to every edge-vertex incidence; a
signed hypergraph attaches a single +1/-1 to each edge.  This package
builds both structures, decides balance through independent structural,
matrix and tensor routes, produces replayable certificates for every
verdict, and ships a small file format plus seeded generators so the
routes can be cross-validated on random ensembles.
"""

from .balance import (
    Balanced,
    BalanceVerdict,
    FiveWayReport,
    OracleLimits,
    Unbalanced,
    equivalence_battery,
    incidence_balance,
    verify_bipartition,
)
from .core import (
    OrientedHypergraph,
    SignedHypergraph,
    adjacency_sign,
    all_positive_variant,
    build,
    build_signed,
    edge_sign,
    induced_signed,
    structures_match,
    uniform_edge_size,
)
from .errors import (
    DenseLimitExceededError,
    DimensionMismatchError,
    DisconnectedPairError,
    DuplicateVertexInEdgeError,
    EmptyEdgeError,
    EmptySpectrumError,
    HypersignError,
    InfeasibleParametersError,
    InternalCheckError,
    InvalidValueError,
    InvalidWalkError,
    NoConvergenceError,
    NotAdjacentError,
    NotAPartitionError,
    NotConnectedError,
    NotUniformError,
    OddUniformityError,
    OracleBudgetExceededError,
    ParseError,
    StructureMismatchError,
    UnknownEdgeError,
    UnknownVertexError,
    VertexLimitExceededError,
    VertexOutOfRangeError,
    ZeroVectorError,
)
from .fileio import (
    bundled_names,
    from_json_dict,
    load,
    load_bundled,
    parse,
    parse_text,
    save,
    serialize,
    to_json_dict,
)
from .generate import generate, random_connected, random_connected_uniform
from .linalg import (
    GF2Infeasible,
    GF2Solution,
    GF2System,
    gf2_solve,
    singular_values,
    spectrum_contains,
    sym_eigenvalues,
)
from .spectral import (
    SpectralReport,
    SpectralTestSuite,
    adjacency_matrix,
    incidence_matrix,
    laplacian_matrix,
    signed_adjacency_matrix,
    spectral_balance_tests,
)
from .switching import (
    NotEquivalent,
    SignedSwitchCertificate,
    SwitchCertificate,
    apply_signed_switches,
    apply_switches,
    edge_switch,
    oriented_switch_equivalent,
    signed_switch_equivalent,
    signed_vertex_switch,
    vertex_switch,
)
from .tensor import (
    NQZResult,
    OddBipartition,
    ParityCertificate,
    SixWayReport,
    TensorSimilarity,
    adj_apply,
    eigenpair_residual,
    h_eigen_minus_rho,
    lap_apply,
    lap_form,
    lap_zero_h_eigen,
    nqz_spectral_radius,
    odd_bipartite,
    signed_tensor_similarity,
    theorem_battery_even,
)
from .walks import (
    CycleEnumeration,
    PathSignReport,
    Walk,
    adjacency_sign_of,
    canonical_cycle,
    connected_components,
    edge_node,
    enumerate_cycles,
    incidence_sign_of,
    is_connected,
    paths_sign_consistent,
    vertex_node,
    walk_incidences,
)

__version__ = "0.1.0"
