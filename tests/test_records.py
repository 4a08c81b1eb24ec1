"""The record classes: constructor signatures, immutability, equality, repr, validation."""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from cvrobust import (
    Blocks,
    CovMatrix,
    DuanParameters,
    EprSummary,
    FamilyWitnesses,
    FullySymmetric,
    FullySymmetricFromSqueezing,
    GammaSet,
    LinkBudget,
    LocalSymplectic,
    MinimizedDuan,
    PhysicalityDiagnosis,
    PureTwoModeSqueezed,
    Purities,
    RandomStateParams,
    RegionMap,
    RobustifyResult,
    RobustnessClass,
    RobustnessReport,
    StandardFormI,
    SymmetricModes,
    SymplecticSpectrum,
    Transmittance,
    ValidationError,
)
from cvrobust.simplex import SimplexResult

_REQUIRED = inspect.Parameter.empty
_GAMMA_FIELDS = (
    "gamma11", "gamma12", "gamma21", "gamma22", "lambda1", "lambda2", "lambda_c",
    "lambda4", "eta", "sigma1", "sigma2", "impurity1", "impurity2",
)

#: (class, {field: default or _REQUIRED} in field order, sample arguments,
#: whether it is a tuple).  Array fields are shared between the two samples
#: compared for equality, as equal arrays are not ``==``-comparable.
RECORDS = [
    (Blocks, dict(a1=_REQUIRED, a2=_REQUIRED, c=_REQUIRED),
     (np.eye(2), 2 * np.eye(2), np.zeros((2, 2))), True),
    (SymplecticSpectrum, dict(nu_minus=_REQUIRED, nu_plus=_REQUIRED), (1.0, 2.0), True),
    (PhysicalityDiagnosis,
     dict(physical=_REQUIRED, nu=_REQUIRED, det_condition=_REQUIRED, boundary=_REQUIRED),
     (True, SymplecticSpectrum(1.0, 2.0), 0.5, False), True),
    (Purities, dict.fromkeys(
        ("mu", "mu1", "mu2", "sigma1", "sigma2", "impurity1", "impurity2"), _REQUIRED),
     (0.5, 0.6, 0.7, 1.0, 1.1, 0.2, 0.3), True),
    (LocalSymplectic, dict.fromkeys(("theta1", "r1", "phi1", "theta2", "r2", "phi2"), 0.0),
     (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), True),
    (Transmittance, dict(t1=_REQUIRED, t2=_REQUIRED), (0.3, 0.7), False),
    (LinkBudget,
     dict(scenario="dual-channel", length1_km=0.0, length2_km=0.0, alpha_db_per_km=None),
     ("single-channel", 0.0, 50.0, 0.25), False),
    (DuanParameters, dict(a=_REQUIRED, u_variance=_REQUIRED, v_variance=_REQUIRED),
     (-1.5, 0.8, 0.9), False),
    (MinimizedDuan, dict(w_m=_REQUIRED, a_opt=_REQUIRED, degenerate=False),
     (-0.5, 1.2, False), True),
    (GammaSet, dict.fromkeys(_GAMMA_FIELDS, _REQUIRED),
     tuple(float(k) for k in range(13)), False),
    (RobustnessClass, dict(label=_REQUIRED, robust_mode=None),
     ("PartiallyRobustAsymmetric", 2), False),
    (RobustnessReport, dict.fromkeys(
        ("w_ppt", "w_full", "w_ch1", "w_ch2", "t1_critical", "t2_critical", "cls",
         "boundary_flags"), _REQUIRED),
     (-1.0, 0.5, -0.2, 0.3, None, 0.4, RobustnessClass("Fragile"), frozenset({"w_ch1"})),
     True),
    (RobustifyResult, dict(s=_REQUIRED, v_out=_REQUIRED, objective=_REQUIRED,
                           evaluations=_REQUIRED),
     (LocalSymplectic(r1=0.1), CovMatrix.vacuum(), -0.1, 12), True),
    (FullySymmetric, dict(s=_REQUIRED, c=_REQUIRED), (2.0, 1.5), True),
    (FullySymmetricFromSqueezing, dict(r=_REQUIRED, nu=1.0), (0.5, 1.2), True),
    (SymmetricModes, dict.fromkeys(("dq", "dp", "c_q", "c_p"), _REQUIRED),
     (2.55, 1.8, 1.033, -1.26), True),
    (StandardFormI, dict.fromkeys(("s", "t", "c_q", "c_p"), _REQUIRED),
     (2.0, 3.0, 1.0, -1.0), True),
    (PureTwoModeSqueezed, dict(r=_REQUIRED), (0.7,), True),
    (FamilyWitnesses, dict(w_ppt=_REQUIRED, w_full=_REQUIRED), (-0.5, 0.25), True),
    (EprSummary, dict.fromkeys(
        ("var_p_minus", "var_p_plus", "var_q_minus", "var_q_plus", "mu_plus", "mu_minus",
         "w_sum", "w_sum_bar", "w_prod", "w_prod_bar"), _REQUIRED),
     tuple(0.1 * k for k in range(1, 11)), True),
    (RegionMap, dict.fromkeys(("x_name", "y_name", "x", "y", "labels", "boundary"), _REQUIRED),
     ("cbar_p", "cbar_q", np.zeros(2), np.ones(3),
      np.full((2, 3), "I", dtype=object), np.zeros((2, 3), dtype=bool)), True),
    (RandomStateParams, dict(nu_min=1.0, nu_max=2.5, squeeze_max=1.0), (1.0, 1.0, 9.0), False),
    (SimplexResult, dict.fromkeys(("x", "fun", "evaluations", "converged", "hit_target"),
                                  _REQUIRED),
     (np.zeros(6), -0.25, 31, False, True), True),
]

_IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, args, is_tuple", RECORDS, ids=_IDS)
class TestRecordApi:
    def test_signature_and_fields(self, cls, fields, args, is_tuple):
        params = inspect.signature(cls).parameters
        assert {name: p.default for name, p in params.items()} == fields
        assert cls._fields == tuple(fields)

    def test_fields_are_read_only(self, cls, fields, args, is_tuple):
        record = cls(*args)
        for name, value in zip(fields, args):
            assert getattr(record, name) is value
            with pytest.raises(AttributeError):
                setattr(record, name, value)

    def test_equality(self, cls, fields, args, is_tuple):
        assert cls(*args) == cls(*args)
        assert cls(**dict(zip(fields, args))) == cls(*args)
        if not any(isinstance(a, np.ndarray) for a in args):
            assert hash(cls(*args)) == hash(cls(*args))
            if cls is not RobustnessClass:  # its robust_mode is tied to the label
                other = 0.0 if isinstance(args[-1], float) else None
                assert cls(*args[:-1], other) != cls(*args)
        # Tuples equal a plain tuple of their fields; the validating records do not.
        assert (cls(*args) == tuple(args)) is is_tuple

    def test_repr(self, cls, fields, args, is_tuple):
        record = cls(*args)
        body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{cls.__name__}({body})"

    def test_copy_and_pickle(self, cls, fields, args, is_tuple):
        record = cls(*args)
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls and repr(clone) == repr(record)


@pytest.mark.parametrize(
    "make, exc, message",
    [
        (lambda: Transmittance(1.5, 0), ValidationError, "transmittance t1=1.5 outside [0, 1]"),
        (lambda: Transmittance(0.5, math.nan), ValidationError,
         "transmittance t2 must be a finite number"),
        (lambda: LinkBudget("lossy"), ValidationError,
         "scenario must be 'dual-channel' or 'single-channel', got 'lossy'"),
        (lambda: LinkBudget(length1_km=-1.0), ValidationError,
         "length1_km must be finite and nonnegative, got -1.0"),
        (lambda: LinkBudget(length2_km=math.nan), ValidationError,
         "length2_km must be finite and nonnegative, got nan"),
        (lambda: LinkBudget(length1_km=math.inf), ValidationError,
         "length1_km must be finite and nonnegative, got inf"),
        (lambda: LinkBudget(alpha_db_per_km=math.nan), ValidationError,
         "alpha_db_per_km must be finite and nonnegative, got nan"),
        (lambda: DuanParameters(0, 1.0, 1.0), ValueError, "the EPR weight a must be nonzero"),
        (lambda: RobustnessClass("Nope"), ValueError, "unknown robustness label 'Nope'"),
        (lambda: RobustnessClass("FullyRobust", 1), ValueError,
         "robust_mode is set exactly for asymmetric labels"),
        (lambda: RobustnessClass("PartiallyRobustAsymmetric", 3), ValueError,
         "robust_mode must be 1 or 2"),
        (lambda: RandomStateParams(nu_max=math.inf), ValidationError,
         "random state ranges must be finite"),
        (lambda: RandomStateParams(nu_min=0.5), ValidationError, "require 1 <= nu_min <= nu_max"),
        (lambda: RandomStateParams(squeeze_max=-1.0), ValidationError,
         "squeeze_max must be nonnegative"),
    ],
    ids=["t-range", "t-nan", "scenario", "length-negative", "length-nan", "length-inf",
         "alpha-nan", "duan-zero-weight", "class-label", "class-mode-unexpected",
         "class-mode-range", "random-inf", "random-nu-min", "random-squeeze"],
)
def test_validation_errors(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc
    assert str(info.value) == message
