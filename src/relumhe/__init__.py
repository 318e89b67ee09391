"""ReLU network weights as an observable state: certificates, input design,
and moving-horizon training with convergence diagnostics."""

from .mhe_train import (
    Batch,
    BatchSchedule,
    ConvergenceReport,
    InfeasibleStart,
    TrainerState,
    TrainingTrajectory,
    adam_baseline,
    assemble_H,
    convergence_report,
    gd_baseline,
    mhe_step,
    regularized_mhe_step,
    train,
    train_regularized,
)
from .neighborhood import ObservableNeighborhood, k_matrix, membership, retract
from .numlin import (
    RankDecision,
    greville_append,
    greville_pinv,
    numeric_rank,
    pinv,
    subspace_projectors,
)
from .orthant_geo import (
    ElementaryVectorSet,
    EmptyIntersection,
    ObservabilityCertificate,
    RankDeficientW,
    SignMatrix,
    ZeroColumn,
    cone_basis,
    elementary_vectors,
    observability_certificate,
    sign_matrix,
)
from .pe_design import (
    CertificateFailed,
    ConstructionFailed,
    ExcitationPlan,
    PEVerification,
    design_pe_input,
    design_pe_input_bias,
    verify_pe,
)
from .relu_net import (
    Architecture,
    BoundaryActivation,
    DeficiencyCertificate,
    ObservabilityJacobian,
    Variant,
    WeightState,
    chi,
    forward,
    multilayer_rank_deficiency,
    observability_jacobian,
    observability_map,
    pre_activations,
    relu,
)

__version__ = "0.1.0"
