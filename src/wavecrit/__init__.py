"""wavecrit: desk-scale numerical laboratory for the critical regularity of
semilinear wave equations with modulus-modulated nonlinearities."""

__version__ = "0.1.0"

from .exponents import (
    exponent_identities_report,
    kernel_exponent,
    strauss_exponent,
    strauss_residual,
    weight_exponent,
)
from .modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    ModulusSpec,
    PowerLaw,
    ThresholdVerdict,
    TripleLogGlobal,
    classify_strauss_threshold,
    convex_companion,
    make_spec,
    mu_eval,
    threshold_product,
)
from .solver import (
    CharacteristicGrid,
    RadialData,
    SolutionRun,
    convergence_study,
    default_bump,
    lifespan_sweep,
    march,
)

__all__ = [
    "exponent_identities_report",
    "kernel_exponent",
    "strauss_exponent",
    "strauss_residual",
    "weight_exponent",
    "DoubleLogGlobal",
    "IteratedLogBlowup",
    "LogOnePlus",
    "LogPower",
    "ModulusSpec",
    "PowerLaw",
    "ThresholdVerdict",
    "TripleLogGlobal",
    "classify_strauss_threshold",
    "convex_companion",
    "make_spec",
    "mu_eval",
    "threshold_product",
    "CharacteristicGrid",
    "RadialData",
    "SolutionRun",
    "convergence_study",
    "default_bump",
    "lifespan_sweep",
    "march",
]
