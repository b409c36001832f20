"""cstarseq: certificate-backed ideal convergence in C*-algebra valued
metric and normed spaces at desk scale."""

from .algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    DEFAULT_TOL,
    Spectrum,
    ToleranceProfile,
    const_function,
    function_algebra,
    function_element,
    involution,
    is_positive,
    is_self_adjoint,
    matrix_algebra,
    matrix_element,
    multiply,
    op_norm,
    precedes,
    spectrum,
)
from .convergence import (
    Center,
    Index,
    Point,
    Question,
    VerdictBundle,
    a_epsilon_set,
    cauchy_criteria_cross_check,
    counterexample_audit,
    i_cauchy_def_verdict,
    i_cauchy_ek_verdict,
    i_cauchy_pair_verdict,
    i_convergence_verdict,
    i_star_cauchy_verdict,
    i_star_convergence_verdict,
    implication_audit,
    istar_witness_from_ap,
)
from .errors import (
    ConfigError,
    CstarSeqError,
    DomainError,
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
    UnsupportedOperationError,
)
from .ideals import (
    Decision,
    IdealDescriptor,
    SetDescription,
    TailCertificate,
    TailKind,
    Verdict,
    block_elements,
    block_index,
    block_members,
    block_union,
    filter_membership,
    ideal_by_name,
    membership,
)
from .metrics import (
    CstarMetric,
    GapKind,
    GapProfile,
    MetricAxiomReport,
    distance_norm,
    make_diag_metric,
    make_discrete_metric,
    make_reciprocal_function_metric,
    make_scaled_function_metric,
    metric_by_name,
    verify_axioms,
)
from .norms import (
    CstarNorm,
    induce_metric,
    invariance_audit,
    make_real_abs_norm,
    make_scaled_diag_norm,
    norm_by_name,
    norm_convergence_verdict,
    verify_norm_axioms,
)
from .reporting import (
    RunConfig,
    RunReport,
    audit_paper,
    build_metric,
    list_scenarios,
    run,
    stable_dumps,
)
from .sequences import (
    SequenceScenario,
    make_alternating,
    make_block_harmonic,
    make_constant,
    make_harmonic,
    scenario_by_name,
)

__version__ = "0.1.0"
