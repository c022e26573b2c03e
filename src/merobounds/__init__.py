"""Sharp Dirichlet-integral and coefficient bounds for disk functions
with one simple pole, checked two independent ways.

The package represents each function f through its z/f power series,
computes area integrals and circle means both from coefficients and from
quadrature, and compares the results against the closed-form maxima of
the univalent and residual-bounded pole classes.
"""

from .bounds import (
    BoundQuantity,
    BoundReport,
    build_report,
    check_quantities,
    gronwall_check,
    jenkins_bound,
    lemma1_check,
    sharp_maxima,
)
from .criteria import (
    CriterionVerdict,
    DiskGrid,
    aksentiev_criterion,
    injectivity_oracle,
    univalence_criterion,
    up_lambda_membership,
)
from .errors import (
    BadParameter,
    BadRadius,
    ClassMismatch,
    MeroboundsError,
    NoPole,
    PoleMismatch,
    RadiusBeyondPole,
)
from .functions import (
    NO_POLE,
    ClassKind,
    ClassSpec,
    PoleFunction,
    build_fp,
    build_koebe_rotation,
    build_kp,
    f_over_z_series,
    from_csv_row,
    from_inverse_coefficients,
    mu,
    to_csv_row,
)
from .integrals import (
    IntegralResult,
    Method,
    QuadratureConfig,
    dirichlet_quadrature,
    dirichlet_series,
    l1_mean_quadrature,
    l1_mean_series,
    values,
)
from .series import TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "BadParameter",
    "BadRadius",
    "BoundQuantity",
    "BoundReport",
    "ClassKind",
    "ClassMismatch",
    "ClassSpec",
    "CriterionVerdict",
    "DiskGrid",
    "IntegralResult",
    "MeroboundsError",
    "Method",
    "NO_POLE",
    "NoPole",
    "PoleFunction",
    "PoleMismatch",
    "QuadratureConfig",
    "RadiusBeyondPole",
    "TruncatedSeries",
    "aksentiev_criterion",
    "build_fp",
    "build_koebe_rotation",
    "build_kp",
    "build_report",
    "check_quantities",
    "dirichlet_quadrature",
    "dirichlet_series",
    "f_over_z_series",
    "from_csv_row",
    "from_inverse_coefficients",
    "gronwall_check",
    "injectivity_oracle",
    "jenkins_bound",
    "l1_mean_quadrature",
    "l1_mean_series",
    "lemma1_check",
    "mu",
    "sharp_maxima",
    "to_csv_row",
    "univalence_criterion",
    "up_lambda_membership",
    "values",
]
