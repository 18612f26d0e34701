"""radialtyz: projective-inducibility obstructions, curvature invariants and
TYZ coefficients for radial Kahler metrics, over certified scalar backends."""

from .scalars import (
    BallScalar,
    DomainError,
    ExactnessError,
    RationalScalar,
    RootScalar,
    Scalar,
    Sign,
    SignUndeterminedError,
    as_scalar,
    nth_root,
    scalar_pow,
)
from .jets import (
    HermitianBiJet,
    Jet,
    bijet_compose_univariate,
    bijet_exp,
)
from .potentials import (
    CustomPotential,
    EguchiHanson,
    EpsilonFamily,
    PotentialFamily,
    Simanca,
    f_jet,
    family_label,
    fprime_jet,
    load_custom_potential,
    metric_det_jet,
    prepare_point,
    ricci_flat_residual,
)
from .obstruction import (
    DivergenceReport,
    ObstructionReport,
    g3_closed_eps_minus1,
    g4_at_1_closed,
    gh_reports,
    gh_sequence,
    obstruction_scan,
    rational_grid,
    small_x_divergence_check,
    structural_form_gap,
)
from .curvature import (
    LuReport,
    RadialTensorFrame,
    build_frame,
    closed_forms_eps,
    curvature_norm2,
    frame_at_x,
    invariants_from_frame,
    lu_coefficients,
    radial_laplacian_jet,
)
from .resolvability import (
    DiastasisGerm,
    ResolvabilityCertificate,
    diastasis_germ,
    minor_matrix,
    simanca_embedding_check,
)
from .reproduction import PaperReproductionReport, run_items

__version__ = "0.1.0"

__all__ = [
    "BallScalar", "DomainError", "ExactnessError", "RationalScalar", "RootScalar",
    "Scalar", "Sign", "SignUndeterminedError", "as_scalar", "nth_root", "scalar_pow",
    "HermitianBiJet", "Jet", "bijet_compose_univariate", "bijet_exp",
    "CustomPotential", "EguchiHanson", "EpsilonFamily", "PotentialFamily", "Simanca",
    "f_jet", "family_label", "fprime_jet", "load_custom_potential", "metric_det_jet",
    "prepare_point", "ricci_flat_residual",
    "DivergenceReport", "ObstructionReport", "g3_closed_eps_minus1", "g4_at_1_closed",
    "gh_reports", "gh_sequence", "obstruction_scan", "rational_grid",
    "small_x_divergence_check", "structural_form_gap",
    "LuReport", "RadialTensorFrame", "build_frame", "closed_forms_eps",
    "curvature_norm2", "frame_at_x", "invariants_from_frame", "lu_coefficients",
    "radial_laplacian_jet",
    "DiastasisGerm", "ResolvabilityCertificate", "diastasis_germ", "minor_matrix",
    "simanca_embedding_check",
    "PaperReproductionReport", "run_items",
]
