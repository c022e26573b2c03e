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
    check_bound,
    check_bounds,
    gronwall_check,
    jenkins_bound,
    lemma1_check,
    sharp_maximum,
)
from .criteria import (
    CriterionVerdict,
    DiskGrid,
    aksentiev_criterion,
    injectivity_oracle,
    u_functional,
    univalence_criterion,
    up_lambda_membership,
)
from .errors import (
    BadParameter,
    BadRadius,
    ClassMismatch,
    MeroboundsError,
    NearZeroConstantTerm,
    NoPole,
    OrderUnderflow,
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
    IntegralKind,
    IntegralResult,
    Method,
    QuadratureConfig,
    dirichlet_f_over_z_series,
    dirichlet_f_series,
    dirichlet_quadrature,
    dirichlet_series,
    l1_mean_quadrature,
    l1_mean_series,
)
from .series import DEFAULT_ORDER, TruncatedSeries

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
    "DEFAULT_ORDER",
    "DiskGrid",
    "IntegralKind",
    "IntegralResult",
    "MeroboundsError",
    "Method",
    "NO_POLE",
    "NearZeroConstantTerm",
    "NoPole",
    "OrderUnderflow",
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
    "check_bound",
    "check_bounds",
    "dirichlet_f_over_z_series",
    "dirichlet_f_series",
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
    "sharp_maximum",
    "to_csv_row",
    "u_functional",
    "univalence_criterion",
    "up_lambda_membership",
]
