"""Entanglement robustness of two-mode Gaussian states in lossy channels.

The package analyzes 4x4 covariance matrices (ordering ``q1,p1,q2,p2``,
vacuum = identity): entanglement witnesses, the attenuation channel, the
factorized loss dependence of the PPT witness, robustness classification,
disentanglement boundaries, parametric state families and region maps.

The namespace is lazy (PEP 562).  Importing the package registers every
submodule but ``cli`` in ``sys.modules`` through
``importlib.util.LazyLoader`` and executes none of them; a submodule runs
on the first access to one of its attributes, and a public name runs the
module that defines it.  So a command executes only the modules it uses.
"""

__version__ = "0.1.0"

#: Each submodule and the public names it defines, in the order of ``__all__``.
_EXPORTS = {
    "covariance": (
        "OMEGA", "Blocks", "CovMatrix", "LocalSymplectic", "PhysicalityDiagnosis",
        "Purities", "SymplecticSpectrum", "apply_local_symplectic", "beam_splitter",
        "blocks", "purities", "reassemble", "rotation2", "squeeze2",
        "symplectic_spectrum", "validate_physicality",
    ),
    "channel": (
        "DEFAULT_ALPHA_DB_PER_KM", "LinkBudget", "Transmittance", "attenuate",
        "default_alpha_db_per_km", "transmittance_from_link",
    ),
    "errors": ("SeparableInputError", "ValidationError"),
    "families": (
        "EprSummary", "FamilySpec", "FamilyWitnesses", "FullySymmetric",
        "FullySymmetricFromSqueezing", "PureTwoModeSqueezed", "RandomStateParams",
        "RegionMap", "StandardFormI", "SymmetricModes", "build", "epr_partial_witness",
        "epr_state", "epr_summary", "family_witnesses", "random_physical_state",
        "region_map_correlations", "region_map_epr",
    ),
    "robustness": (
        "FRAGILE", "FULLY_ROBUST", "PARTIALLY_ROBUST_SYMMETRIC", "SEPARABLE",
        "RobustifyResult", "RobustnessClass", "RobustnessReport",
        "channel_robustness_witness", "classify", "critical_transmittance",
        "esd_contour", "full_robustness_witness", "partially_robust_asymmetric",
        "robustify",
    ),
    "witnesses": (
        "DuanParameters", "GammaSet", "MinimizedDuan", "boundary_band",
        "duan_parameters", "duan_witness", "gamma_coefficients", "minimized_duan",
        "ppt_witness", "reduced_witness",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def _register_lazily(names) -> None:
    """Put each submodule in ``sys.modules`` and in this namespace, unexecuted.

    ``cli`` is not one of them: ``python -m cvrobust.cli`` warns when it
    finds the module it runs already in ``sys.modules``.
    """
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    for name in names:
        spec = find_spec(f"{__name__}.{name}")
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


_register_lazily(("_exact", "_maps", "_pcg64", "_record", "simplex", *_EXPORTS))


def __getattr__(name):
    """The public ``name`` of its defining submodule, which runs on first use."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
