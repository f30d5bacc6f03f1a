"""The package's public surface: ``hypersign.__all__`` is the union of the
library modules' own ``__all__`` lists, and no name it once exported is
lost.  Runs against whichever ``hypersign`` is imported, installed or not."""

import importlib

import hypersign

LIBRARY_MODULES = (
    "balance", "core", "errors", "fileio", "generate",
    "linalg", "spectral", "switching", "tensor", "walks",
)

# Every name that ``hypersign/__init__.py`` imported by hand before it
# star-imported the modules above.
EARLIER_NAMES = """
    Balanced BalanceVerdict FiveWayReport OracleLimits Unbalanced
    equivalence_battery incidence_balance verify_bipartition
    OrientedHypergraph SignedHypergraph adjacency_sign all_positive_variant build
    build_signed edge_sign induced_signed structures_match uniform_edge_size
    DenseLimitExceededError DimensionMismatchError DisconnectedPairError
    DuplicateVertexInEdgeError EmptyEdgeError EmptySpectrumError HypersignError
    InfeasibleParametersError InternalCheckError InvalidValueError InvalidWalkError
    NoConvergenceError NotAdjacentError NotAPartitionError NotConnectedError
    NotUniformError OddUniformityError OracleBudgetExceededError ParseError
    StructureMismatchError UnknownEdgeError UnknownVertexError
    VertexLimitExceededError VertexOutOfRangeError ZeroVectorError
    bundled_names from_json_dict load load_bundled parse parse_text save serialize
    to_json_dict
    generate random_connected random_connected_uniform
    GF2Infeasible GF2Solution GF2System gf2_solve singular_values spectrum_contains
    sym_eigenvalues
    SpectralReport SpectralTestSuite adjacency_matrix incidence_matrix
    laplacian_matrix signed_adjacency_matrix spectral_balance_tests
    NotEquivalent SignedSwitchCertificate SwitchCertificate apply_signed_switches
    apply_switches edge_switch oriented_switch_equivalent signed_switch_equivalent
    signed_vertex_switch vertex_switch
    NQZResult OddBipartition ParityCertificate SixWayReport TensorSimilarity
    adj_apply eigenpair_residual h_eigen_minus_rho lap_apply lap_form
    lap_zero_h_eigen nqz_spectral_radius odd_bipartite signed_tensor_similarity
    theorem_battery_even
    CycleEnumeration PathSignReport Walk adjacency_sign_of canonical_cycle
    connected_components edge_node enumerate_cycles incidence_sign_of is_connected
    paths_sign_consistent vertex_node walk_incidences
""".split()


def test_all_is_the_union_of_the_library_modules_lists():
    modules = [importlib.import_module(f"hypersign.{name}") for name in LIBRARY_MODULES]
    union = [name for module in modules for name in module.__all__]
    assert hypersign.__all__ == union
    assert len(set(union)) == len(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(hypersign, name) is getattr(module, name), name
    assert "main" not in hypersign.__all__ and "run_battery" not in hypersign.__all__


def test_every_earlier_name_is_still_exported():
    assert len(EARLIER_NAMES) == len(set(EARLIER_NAMES)) == 107
    assert not set(EARLIER_NAMES) - set(hypersign.__all__)
    assert callable(hypersign.generate)  # the function, not the module
    assert isinstance(hypersign.__version__, str)
