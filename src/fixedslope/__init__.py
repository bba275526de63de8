"""Fixed slope iteration with a-priori convergence certificates.

Solve F(x) = 0 by x_{k+1} = x_k - B F(x_k) for a constant slope matrix B,
certify convergence and uniqueness ahead of time from a continuity
measure of B F'(x), verify the certified bounds against actual iteration
traces, and compare the certification threshold with the classical
alternatives.
"""

from .certificate import certify
from .comparison import HoelderParams, check_holder_condition, compare_report
from .errors import (
    BadParameters,
    EvaluationFailed,
    FixedSlopeError,
    JacobianMissing,
    NotCertifiedError,
    NuNotContractive,
    RadiusOutOfRange,
    UnknownFixture,
)
from .majorant import HoelderOmega, MajorantModel, TabulatedOmega
from .problems import analytic_model, build_fixture
from .solver import (
    Problem,
    StoppingRule,
    estimate_majorant,
    estimate_omega,
    fsi_solve,
    uniqueness_probe,
    verify_majorization,
)

__version__ = "0.1.0"
