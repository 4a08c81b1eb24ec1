"""Entanglement robustness of two-mode Gaussian states in lossy channels.

The package analyzes 4x4 covariance matrices (ordering ``q1,p1,q2,p2``,
vacuum = identity): entanglement witnesses, the attenuation channel, the
factorized loss dependence of the PPT witness, robustness classification,
disentanglement boundaries, parametric state families and region maps.
"""

from .covariance import (
    Blocks,
    CovMatrix,
    LocalSymplectic,
    PhysicalityDiagnosis,
    Purities,
    SymplecticSpectrum,
    apply_local_symplectic,
    beam_splitter,
    blocks,
    purities,
    reassemble,
    rotation2,
    squeeze2,
    symplectic_spectrum,
    validate_physicality,
)
from .channel import (
    DEFAULT_ALPHA_DB_PER_KM,
    LinkBudget,
    Transmittance,
    attenuate,
    default_alpha_db_per_km,
    transmittance_from_link,
)
from .errors import SeparableInputError, ValidationError
from .families import (
    EprSummary,
    FamilySpec,
    FamilyWitnesses,
    FullySymmetric,
    FullySymmetricFromSqueezing,
    PureTwoModeSqueezed,
    RandomStateParams,
    RegionMap,
    StandardFormI,
    SymmetricModes,
    build,
    epr_partial_witness,
    epr_state,
    epr_summary,
    family_witnesses,
    random_physical_state,
    region_map_correlations,
    region_map_epr,
)
from .robustness import (
    FRAGILE,
    FULLY_ROBUST,
    PARTIALLY_ROBUST_SYMMETRIC,
    SEPARABLE,
    RobustifyResult,
    RobustnessClass,
    RobustnessReport,
    channel_robustness_witness,
    classify,
    critical_transmittance,
    esd_contour,
    full_robustness_witness,
    partially_robust_asymmetric,
    robustify,
)
from .witnesses import (
    DuanParameters,
    GammaSet,
    MinimizedDuan,
    boundary_band,
    duan_parameters,
    duan_witness,
    gamma_coefficients,
    minimized_duan,
    ppt_witness,
    reduced_witness,
)

__version__ = "0.1.0"


def __getattr__(name):
    """``OMEGA`` of :mod:`cvrobust.covariance`, built with numpy on first access."""
    if name == "OMEGA":
        from .covariance import OMEGA

        return OMEGA
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "OMEGA",
    "Blocks",
    "CovMatrix",
    "LocalSymplectic",
    "PhysicalityDiagnosis",
    "Purities",
    "SymplecticSpectrum",
    "apply_local_symplectic",
    "beam_splitter",
    "blocks",
    "purities",
    "reassemble",
    "rotation2",
    "squeeze2",
    "symplectic_spectrum",
    "validate_physicality",
    "DEFAULT_ALPHA_DB_PER_KM",
    "LinkBudget",
    "Transmittance",
    "attenuate",
    "default_alpha_db_per_km",
    "transmittance_from_link",
    "SeparableInputError",
    "ValidationError",
    "EprSummary",
    "FamilySpec",
    "FamilyWitnesses",
    "FullySymmetric",
    "FullySymmetricFromSqueezing",
    "PureTwoModeSqueezed",
    "RandomStateParams",
    "RegionMap",
    "StandardFormI",
    "SymmetricModes",
    "build",
    "epr_partial_witness",
    "epr_state",
    "epr_summary",
    "family_witnesses",
    "random_physical_state",
    "region_map_correlations",
    "region_map_epr",
    "FRAGILE",
    "FULLY_ROBUST",
    "PARTIALLY_ROBUST_SYMMETRIC",
    "SEPARABLE",
    "RobustifyResult",
    "RobustnessClass",
    "RobustnessReport",
    "channel_robustness_witness",
    "classify",
    "critical_transmittance",
    "esd_contour",
    "full_robustness_witness",
    "partially_robust_asymmetric",
    "robustify",
    "DuanParameters",
    "GammaSet",
    "MinimizedDuan",
    "boundary_band",
    "duan_parameters",
    "duan_witness",
    "gamma_coefficients",
    "minimized_duan",
    "ppt_witness",
    "reduced_witness",
]
