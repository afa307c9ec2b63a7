"""Pattern-based sparse convex relaxations for polynomial minimization.

The pipeline: build a pattern family over the objective's support, turn each
pattern into a convex moment model, assemble everything into one conic
program over shared monomial variables, solve it with the internal
interior-point method, and extract a verifiable lower-bound certificate from
the dual solution.
"""

from .assemble import assemble_relaxation
from .bench import (
    BenchConfig,
    Instance,
    SplitMix64,
    brute_force_min,
    family_for_method,
    gen_instance,
    run_benchmark,
    triv_criterion,
)
from .certificates import (
    Certificate,
    extract_certificate,
    verify_certificate,
)
from .io import export_instance_json, import_instance_json
from .ipm import SolveResult, SolverConfig, solve
from .models import (
    ModelPolicy,
    MomentModel,
    build_circuit_model,
    build_lasserre_model,
    build_mccormick_model,
    build_multilinear_model,
    build_shifted_model,
    model_for_pattern,
)
from .patterns import (
    Pattern,
    PatternFamily,
    build_family,
    chain_family,
    dense_sos_family,
    expression_tree_family,
    gamma_image,
    h_family,
    make_circuit,
    make_sdsos,
    mc_family,
    multilinear_family,
    prune_inclusion_maximal,
    shifted_chain_family,
    sos_block_pattern,
    truncated_submonoid_family,
    tssos_family,
    tssos_partition,
    univariate_sparse_family,
)
from .pipeline import Relaxation, solve_relaxation
from .polynomials import (
    Box,
    Interval,
    LinearForm,
    Polynomial,
    linearize,
    minkowski_sum,
    monomial_range,
)
from .program import ConicProgram, export_sdpa, parse_sdpa

__version__ = "0.1.0"
